//! Forward and backward numeric kernels.
//!
//! These are the only compute primitives the SNN simulator needs: dense
//! matrix–vector products, 2-D convolution and average pooling, each paired
//! with the gradient computations used by backpropagation-through-time.
//! Convolution and pooling take one row or a whole sequence of `T` rows;
//! the row count is the buffer length over the row length.
//!
//! Every kernel keeps a fixed *ordering contract*: the sequence of `f32`
//! multiplies and adds that reaches each output element, which is what
//! makes stimuli, verdicts and digests reproducible to the bit across
//! engines and across rewrites of the loops around it.
//!
//! * [`matvec`]: output `r` accumulates `w[r, c] · x[c]` from `+0.0` in
//!   ascending `c`. [`matvec_skip_zeros`] is the same sum with the
//!   products of exact-zero inputs left out.
//! * [`matvec_t_acc`], [`outer_acc`]: rows in ascending order, rows whose
//!   gradient is exactly zero skipped.
//! * [`conv2d`]: an output pixel accumulates its taps from `+0.0` in
//!   `(ic, ky, kx)` order, taps in the zero padding skipped. For one row
//!   `conv2d` is *row-stationary*: one output row is the accumulator and
//!   each tap adds a shifted input row into it, so every pixel of the row
//!   still sees its own taps in that order. Output channels share
//!   nothing: a spec of one output channel with kernel `w[oc]` returns
//!   channel `oc`'s bits, which is how the packed fault simulator redoes
//!   the one channel a faulty kernel weight changes.
//! * [`conv2d_backward_input`]: an input-gradient element accumulates in
//!   ascending `(oc, oy, ox)` of the output pixels that tap it — the
//!   row-stationary loop visits `kx` *descending*, which is `ox`
//!   ascending for a fixed input pixel. [`conv2d_backward_weight`]: a
//!   weight accumulates in ascending `(oy, ox)`.
//! * Both take `T` rows, and rows of different ticks share nothing: every
//!   whole block of sixteen goes through `conv2d_ticks`, where the *tick*
//!   is the vector axis — one element's sixteen ticks are one register
//!   accumulator that takes that element's taps in the order above, the
//!   input gradient as the convolution with the flipped kernel it is.
//!   Which kernel a row went through cannot be read off its bits.
//! * [`avg_pool2d`]: a window is summed from `+0.0` in `(ky, kx)` order,
//!   then scaled once. [`avg_pool2d_backward`] adds `g / k²` once to
//!   each pixel of the window of `g`. Both take `T` rows, and go over all
//!   `(tick, channel)` planes of a sequence in one call.
//!
//! The zero-skipping kernels (`matvec_skip_zeros`, the per-row gradient
//! skip of the row-stationary convolution backward kernels, which the
//! time-batched kernel does not make) leave out products that are
//! `±0.0`, and the pooling gradient adds the zero gradients the
//! per-pixel loop it replaced left out. Adding `±0.0` changes no
//! accumulator that started at `+0.0` — a sum of `f32` is `−0.0` only
//! when both terms are — so they return the bits of the unskipped sum
//! provided the other factor is finite (`0 · ∞` is NaN) and gradient
//! accumulators passed in hold no `−0.0`. Model files with non-finite
//! weights are rejected at load.
//!
//! In debug builds every kernel additionally scans its operands and its
//! result for NaN/Inf via [`crate::sanitize::debug_assert_finite`], so a
//! poisoned value is reported at the kernel boundary it crossed instead
//! of corrupting an entire run silently.

use crate::sanitize::debug_assert_finite;
use crate::{Shape, Tensor};

/// Geometry of a 2-D convolution or pooling operation.
///
/// # Example
///
/// ```
/// use snn_tensor::ops::Conv2dSpec;
///
/// let spec = Conv2dSpec::new(2, 16, 5, 1, 2);
/// assert_eq!(spec.out_hw(32, 32), (32, 32)); // "same" padding at stride 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Conv2dSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both spatial directions.
    pub stride: usize,
    /// Zero padding in both spatial directions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a convolution spec with a square kernel.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel extent must be positive");
        assert!(stride > 0, "stride must be positive");
        Self { in_channels, out_channels, kernel, stride, padding }
    }

    /// `true` when the kernel fits the zero-padded `h × w` input, i.e.
    /// when the convolution has at least one output pixel per axis.
    pub fn fits(&self, h: usize, w: usize) -> bool {
        self.kernel <= h.min(w) + 2 * self.padding
    }

    /// Output spatial extent for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not [fit](Self::fits) the padded input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            self.fits(h, w),
            "conv kernel {} exceeds the {h}×{w} input padded by {}",
            self.kernel,
            self.padding
        );
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Shape of the weight tensor: `[out, in, k, k]`.
    pub fn weight_shape(&self) -> Shape {
        Shape::d4(self.out_channels, self.in_channels, self.kernel, self.kernel)
    }

    /// Number of trainable weights.
    pub fn weight_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// Input coordinate that kernel offset `k` of output coordinate `o`
    /// taps along an axis of `extent` pixels, or `None` when the tap
    /// falls into the zero padding.
    #[inline]
    pub fn tap(&self, o: usize, k: usize, extent: usize) -> Option<usize> {
        let i = (o * self.stride + k).checked_sub(self.padding)?;
        (i < extent).then_some(i)
    }

    /// [`tap`](Self::tap) for a whole row at once: per kernel offset `kx`,
    /// the run `lo..hi` of output columns (of `ow`) whose tap lands inside
    /// a row of `w` pixels, and the input column `lo` taps; consecutive
    /// outputs tap `stride` pixels apart. `lo == hi` when no column does.
    fn tap_runs(&self, w: usize, ow: usize) -> Vec<(usize, usize, usize)> {
        (0..self.kernel)
            .map(|kx| {
                let lo = self.padding.saturating_sub(kx).div_ceil(self.stride);
                // Last column whose tap is still left of the row's end.
                let hi = (w + self.padding)
                    .checked_sub(kx + 1)
                    .map_or(0, |room| (room / self.stride + 1).min(ow));
                (lo, hi.max(lo), (lo * self.stride + kx).saturating_sub(self.padding))
            })
            .collect()
    }

    /// Per output coordinate (of `out`), its [`Taps`] among `extent` input
    /// coordinates; each next input meets the next offset. A window wholly
    /// in the padding past the end taps the empty run at `extent`.
    fn taps_by_output(&self, extent: usize, out: usize) -> Vec<Taps> {
        (0..out)
            .map(|o| {
                let k_lo = self.padding.saturating_sub(o * self.stride).min(self.kernel);
                let k_hi = (extent + self.padding).saturating_sub(o * self.stride).min(self.kernel);
                let lo = (o * self.stride + k_lo).saturating_sub(self.padding).min(extent);
                (lo, lo + k_hi.saturating_sub(k_lo), k_lo)
            })
            .collect()
    }

    /// Per input coordinate (of `extent`), the [`Taps`] among `out` output
    /// coordinates that reach it, offsets counted in the *flipped* kernel
    /// (`kernel − 1 − k`): each next output meets one `stride` further on.
    fn taps_by_input(&self, extent: usize, out: usize) -> Vec<Taps> {
        (0..extent)
            .map(|i| {
                let lo = (i + self.padding + 1).saturating_sub(self.kernel).div_ceil(self.stride);
                let hi = ((i + self.padding) / self.stride + 1).min(out);
                let k = (self.kernel + lo * self.stride).saturating_sub(i + self.padding + 1);
                (lo, hi.max(lo), k.min(self.kernel))
            })
            .collect()
    }
}

/// What one coordinate of a time-batched kernel's destination taps along
/// an axis: the run `lo..hi` of source coordinates and the kernel offset
/// that meets `lo`.
type Taps = (usize, usize, usize);

/// Ticks the time-batched convolution kernel takes at once (DESIGN.md
/// §19.6 has the measurement that fixed it).
const TICK_BLOCK: usize = 16;

/// `TICK_BLOCK` rows of `n` values each, transposed to `[n][TICK_BLOCK]`.
fn ticks_innermost(rows: &[f32], n: usize) -> Vec<[f32; TICK_BLOCK]> {
    assert_eq!(rows.len(), TICK_BLOCK * n, "a block of ticks is TICK_BLOCK rows");
    (0..n).map(|i| std::array::from_fn(|b| rows[b * n + i])).collect()
}

/// [`conv2d`] and [`conv2d_backward_input`] for [`TICK_BLOCK`] rows at
/// once, ticks innermost. Every element of `dst` (rows of `dst_chw`)
/// starts from the block of ticks it holds and adds, in registers,
/// `weight · src` over the source elements (rows of `src_chw`) it taps:
/// channels ascending, then the rows of `taps_y[y]`, then the columns of
/// `taps_x[x]` — a contiguous run of the transposed source, met by kernel
/// offsets `k_step` apart in the kernel row that starts at
/// `wd[w_row(dst channel, src channel, ky)]`. No zero row is skipped:
/// `±0.0` products change no bit (module doc).
#[expect(clippy::too_many_arguments, reason = "one kernel serves the forward and backward taps")]
fn conv2d_ticks(
    src: &[f32],
    (src_c, src_h, src_w): (usize, usize, usize),
    dst: &mut [f32],
    (dst_c, dst_h, dst_w): (usize, usize, usize),
    (taps_y, taps_x): (&[Taps], &[Taps]),
    wd: &[f32],
    w_row: impl Fn(usize, usize, usize) -> usize,
    k_step: usize,
) {
    let st = ticks_innermost(src, src_c * src_h * src_w);
    let dst_len = dst_c * dst_h * dst_w;
    for d in 0..dst_len {
        let (c, (y_lo, y_hi, ky), (x_lo, x_hi, kx)) =
            (d / (dst_h * dst_w), taps_y[d / dst_w % dst_h], taps_x[d % dst_w]);
        // A local copy: the accumulator stays in registers across the taps.
        let mut acc: [f32; TICK_BLOCK] = std::array::from_fn(|b| dst[b * dst_len + d]);
        for s in 0..src_c {
            for (n, y) in (y_lo..y_hi).enumerate() {
                let w_run = wd[w_row(c, s, ky + n * k_step)..][kx..].iter();
                let x_run = &st[(s * src_h + y) * src_w..][x_lo..x_hi];
                // A unit step takes the plain zip: `step_by(1)` is a tenth
                // of the kernel's time.
                if k_step == 1 {
                    w_run.zip(x_run).for_each(|(&wv, x)| axpy_strided(&mut acc, 1, wv, x, 1));
                } else {
                    let w_run = w_run.step_by(k_step);
                    w_run.zip(x_run).for_each(|(&wv, x)| axpy_strided(&mut acc, 1, wv, x, 1));
                }
            }
        }
        for (b, v) in acc.into_iter().enumerate() {
            dst[b * dst_len + d] = v;
        }
    }
}

/// `dst[i·ds] += a · src[i·ss]` over the shorter operand. Unit strides
/// take a plain slice zip — the only form of this loop the compiler
/// vectorises, so routing stride 1 through `step_by(1)` costs most of the
/// row-stationary gain.
#[inline]
fn axpy_strided(dst: &mut [f32], ds: usize, a: f32, src: &[f32], ss: usize) {
    if ds == 1 && ss == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += a * s;
        }
    } else {
        for (d, s) in dst.iter_mut().step_by(ds).zip(src.iter().step_by(ss)) {
            *d += a * s;
        }
    }
}

/// `acc + Σ a[i] · b[i·stride]`, added left to right. The chain is serial
/// by contract; the unit-stride branch only spares it `step_by`'s
/// bookkeeping, which costs 40 % of the weight-gradient kernel.
#[inline]
fn dot_strided(mut acc: f32, a: &[f32], b: &[f32], stride: usize) -> f32 {
    if stride == 1 {
        for (x, y) in a.iter().zip(b) {
            acc += x * y;
        }
    } else {
        for (x, y) in a.iter().zip(b.iter().step_by(stride)) {
            acc += x * y;
        }
    }
    acc
}

/// `true` when every entry is exactly `±0.0`.
#[inline]
fn all_zero(row: &[f32]) -> bool {
    row.iter().all(|&v| v == 0.0)
}

/// Dense matrix–vector product `y = W · x` with `W: [rows × cols]`.
///
/// # Panics
///
/// Panics if `w` is not rank-2 or the operand lengths disagree.
pub fn matvec(w: &Tensor, x: &[f32], y: &mut [f32]) {
    let dims = w.shape().dims();
    assert_eq!(dims.len(), 2, "matvec weight must be rank-2");
    let (rows, cols) = (dims[0], dims[1]);
    assert_eq!(x.len(), cols, "matvec input length mismatch");
    assert_eq!(y.len(), rows, "matvec output length mismatch");
    let wd = w.as_slice();
    debug_assert_finite("matvec", "w", wd);
    debug_assert_finite("matvec", "x", x);
    for r in 0..rows {
        let row = &wd[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (wv, xv) in row.iter().zip(x.iter()) {
            acc += wv * xv;
        }
        y[r] = acc;
    }
    debug_assert_finite("matvec", "y", y);
}

/// Column-major copy `Wᵀ` (`[cols × rows]`, row-major) of a rank-2
/// weight, the layout [`matvec_skip_zeros`] reads.
///
/// # Panics
///
/// Panics if `w` is not rank-2.
pub fn transposed(w: &Tensor) -> Vec<f32> {
    let dims = w.shape().dims();
    assert_eq!(dims.len(), 2, "transposed weight must be rank-2");
    let (rows, cols) = (dims[0], dims[1]);
    let wd = w.as_slice();
    let mut wt = vec![0.0f32; wd.len()];
    for (r, row) in wd.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            wt[c * rows + r] = v;
        }
    }
    wt
}

/// How many inputs [`matvec_skip_zeros`] scans for non-zeros before it
/// adds their columns.
const GATHER: usize = 256;

/// [`matvec`] from the [`transposed`] weight `wt` (`[x.len() × y.len()]`),
/// leaving out the products of exact-zero inputs: one contiguous
/// `y += x[c] · Wᵀ[c, :]` per non-zero input, columns in ascending order.
/// Each output still accumulates its products in `matvec`'s order, and a
/// left-out product is `±0.0`, so for finite weights `y` has `matvec`'s
/// bits — at a cost that follows the input's density, which for spike
/// trains is a fraction of the dense product. The non-zero columns of
/// each block of [`GATHER`] inputs are listed first, without a branch —
/// every index is written, a counter moves past the non-zero ones — so
/// a spike train's unpredictable zeroes cost no mispredicted jumps.
///
/// # Panics
///
/// Panics if `wt.len() != x.len() * y.len()`.
pub fn matvec_skip_zeros(wt: &[f32], x: &[f32], y: &mut [f32]) {
    assert_eq!(wt.len(), x.len() * y.len(), "matvec_skip_zeros weight length mismatch");
    debug_assert_finite("matvec_skip_zeros", "wt", wt);
    debug_assert_finite("matvec_skip_zeros", "x", x);
    y.fill(0.0);
    let rows = y.len();
    let mut live = [0usize; GATHER];
    for (b, block) in x.chunks(GATHER).enumerate() {
        let mut count = 0;
        for (c, &xv) in (b * GATHER..).zip(block) {
            live[count] = c;
            count += usize::from(xv != 0.0);
        }
        for &c in &live[..count] {
            axpy_strided(y, 1, x[c], &wt[c * rows..(c + 1) * rows], 1);
        }
    }
    debug_assert_finite("matvec_skip_zeros", "y", y);
}

/// Transposed matrix–vector product `x_grad = Wᵀ · y_grad`, accumulating
/// into `x_grad`.
///
/// # Panics
///
/// Panics on rank/length mismatches (same contract as [`matvec`]).
pub fn matvec_t_acc(w: &Tensor, y_grad: &[f32], x_grad: &mut [f32]) {
    let dims = w.shape().dims();
    assert_eq!(dims.len(), 2, "matvec_t weight must be rank-2");
    let (rows, cols) = (dims[0], dims[1]);
    assert_eq!(y_grad.len(), rows, "matvec_t output-grad length mismatch");
    assert_eq!(x_grad.len(), cols, "matvec_t input-grad length mismatch");
    let wd = w.as_slice();
    debug_assert_finite("matvec_t_acc", "w", wd);
    debug_assert_finite("matvec_t_acc", "y_grad", y_grad);
    for r in 0..rows {
        let g = y_grad[r];
        if g == 0.0 {
            continue;
        }
        let row = &wd[r * cols..(r + 1) * cols];
        for (xg, wv) in x_grad.iter_mut().zip(row.iter()) {
            *xg += g * wv;
        }
    }
    debug_assert_finite("matvec_t_acc", "x_grad", x_grad);
}

/// Outer-product accumulation `W_grad += y_grad ⊗ x` for the dense layer
/// weight gradient.
///
/// # Panics
///
/// Panics on rank/length mismatches.
pub fn outer_acc(w_grad: &mut Tensor, y_grad: &[f32], x: &[f32]) {
    let dims = w_grad.shape().dims().to_vec();
    assert_eq!(dims.len(), 2, "outer_acc gradient must be rank-2");
    let (rows, cols) = (dims[0], dims[1]);
    assert_eq!(y_grad.len(), rows, "outer_acc row mismatch");
    assert_eq!(x.len(), cols, "outer_acc col mismatch");
    debug_assert_finite("outer_acc", "y_grad", y_grad);
    debug_assert_finite("outer_acc", "x", x);
    let wd = w_grad.as_mut_slice();
    for r in 0..rows {
        let g = y_grad[r];
        if g == 0.0 {
            continue;
        }
        let row = &mut wd[r * cols..(r + 1) * cols];
        for (wv, xv) in row.iter_mut().zip(x.iter()) {
            *wv += g * xv;
        }
    }
    debug_assert_finite("outer_acc", "w_grad", wd);
}

/// 2-D convolution forward pass, over one row or a whole sequence.
///
/// `input` is `T` rows of `[C_in, H, W]` flattened row-major, `weight` is
/// `[C_out, C_in, k, k]`, and the result is written into `out` (`T` rows
/// of `[C_out, OH, OW]` flattened). Rows are independent: every whole
/// block of [`TICK_BLOCK`] rows goes through the time-batched kernel and
/// the rest — a single row always — through the row-stationary one.
///
/// # Panics
///
/// Panics if buffer lengths disagree with `spec` and `(h, w)`.
pub fn conv2d(
    spec: &Conv2dSpec,
    input: &[f32],
    h: usize,
    w: usize,
    weight: &Tensor,
    out: &mut [f32],
) {
    let (oh, ow) = spec.out_hw(h, w);
    let (in_len, out_len) = (spec.in_channels * h * w, spec.out_channels * oh * ow);
    let steps = input.len() / in_len.max(1);
    assert_eq!(input.len(), steps * in_len, "conv2d input length");
    assert_eq!(weight.len(), spec.weight_count(), "conv2d weight length");
    assert_eq!(out.len(), steps * out_len, "conv2d output length");
    let (k, stride) = (spec.kernel, spec.stride);
    let per_channel = spec.in_channels * k * k;
    let wd = weight.as_slice();
    debug_assert_finite("conv2d", "input", input);
    debug_assert_finite("conv2d", "weight", wd);
    let blocked = steps / TICK_BLOCK * TICK_BLOCK;
    let (x_blocks, x_rows) = input.split_at(blocked * in_len);
    let (z_blocks, z_rows) = out.split_at_mut(blocked * out_len);
    if blocked > 0 {
        z_blocks.fill(0.0);
        let taps = (&spec.taps_by_output(h, oh)[..], &spec.taps_by_output(w, ow)[..]);
        let w_row = |oc, ic, ky| ((oc * spec.in_channels + ic) * k + ky) * k;
        let (src, dst) = ((spec.in_channels, h, w), (spec.out_channels, oh, ow));
        let blocks = x_blocks.chunks_exact(TICK_BLOCK * in_len);
        for (x, z) in blocks.zip(z_blocks.chunks_exact_mut(TICK_BLOCK * out_len)) {
            conv2d_ticks(x, src, z, dst, taps, wd, w_row, 1);
        }
    }
    let runs = spec.tap_runs(w, ow);
    for (x, z) in x_rows.chunks_exact(in_len.max(1)).zip(z_rows.chunks_exact_mut(out_len.max(1))) {
        z.fill(0.0);
        for (oc_oy, acc) in z.chunks_exact_mut(ow).enumerate() {
            let (oc, oy) = (oc_oy / oh, oc_oy % oh);
            let w_oc = &wd[oc * per_channel..(oc + 1) * per_channel];
            for ic in 0..spec.in_channels {
                for ky in 0..k {
                    let Some(iy) = spec.tap(oy, ky, h) else { continue };
                    let in_row = &x[(ic * h + iy) * w..][..w];
                    let w_row = &w_oc[(ic * k + ky) * k..][..k];
                    for (&wv, &(lo, hi, start)) in w_row.iter().zip(&runs) {
                        if lo < hi {
                            axpy_strided(&mut acc[lo..hi], 1, wv, &in_row[start..], stride);
                        }
                    }
                }
            }
        }
    }
    debug_assert_finite("conv2d", "out", out);
}

/// Gradient of [`conv2d`] with respect to the input, accumulated into
/// `in_grad` (`T` rows of `[C_in, H, W]`) from `T` rows of `out_grad`,
/// split between a time-batched and a row-stationary kernel as in
/// [`conv2d`].
///
/// # Panics
///
/// Panics if buffer lengths disagree with `spec` and `(h, w)`.
pub fn conv2d_backward_input(
    spec: &Conv2dSpec,
    out_grad: &[f32],
    h: usize,
    w: usize,
    weight: &Tensor,
    in_grad: &mut [f32],
) {
    let (oh, ow) = spec.out_hw(h, w);
    let (in_len, out_len) = (spec.in_channels * h * w, spec.out_channels * oh * ow);
    let steps = out_grad.len() / out_len.max(1);
    assert_eq!(out_grad.len(), steps * out_len, "conv2d out-grad length");
    assert_eq!(in_grad.len(), steps * in_len, "conv2d in-grad length");
    let (k, stride) = (spec.kernel, spec.stride);
    let wd = weight.as_slice();
    debug_assert_finite("conv2d_backward_input", "out_grad", out_grad);
    debug_assert_finite("conv2d_backward_input", "weight", wd);
    let blocked = steps / TICK_BLOCK * TICK_BLOCK;
    let (g_blocks, g_rows) = out_grad.split_at(blocked * out_len);
    let (x_blocks, x_rows) = in_grad.split_at_mut(blocked * in_len);
    if blocked > 0 {
        // The input gradient is a convolution of the output gradient with
        // the flipped kernel: ascending there is descending `(ky, kx)`
        // here, which is `(oc, oy, ox)` ascending for an input pixel.
        let taps = (&spec.taps_by_input(h, oh)[..], &spec.taps_by_input(w, ow)[..]);
        let flipped: Vec<f32> = wd.iter().rev().copied().collect();
        let (last_oc, last_ic) = (spec.out_channels - 1, spec.in_channels - 1);
        let w_row = |ic, oc, ky| (((last_oc - oc) * spec.in_channels + last_ic - ic) * k + ky) * k;
        let (src, dst) = ((spec.out_channels, oh, ow), (spec.in_channels, h, w));
        let blocks = g_blocks.chunks_exact(TICK_BLOCK * out_len);
        for (g, x) in blocks.zip(x_blocks.chunks_exact_mut(TICK_BLOCK * in_len)) {
            conv2d_ticks(g, src, x, dst, taps, &flipped, w_row, stride);
        }
    }
    let runs = spec.tap_runs(w, ow);
    for (g, x) in g_rows.chunks_exact(out_len.max(1)).zip(x_rows.chunks_exact_mut(in_len.max(1))) {
        for (oc_oy, g_row) in g.chunks_exact(ow).enumerate() {
            if all_zero(g_row) {
                continue;
            }
            let (oc, oy) = (oc_oy / oh, oc_oy % oh);
            for ic in 0..spec.in_channels {
                for ky in 0..k {
                    let Some(iy) = spec.tap(oy, ky, h) else { continue };
                    let in_row = &mut x[(ic * h + iy) * w..][..w];
                    let w_row = &wd[((oc * spec.in_channels + ic) * k + ky) * k..][..k];
                    // `kx` descending is `ox` ascending for a fixed input pixel.
                    for (&wv, &(lo, hi, start)) in w_row.iter().zip(&runs).rev() {
                        if lo < hi {
                            axpy_strided(&mut in_row[start..], stride, wv, &g_row[lo..hi], 1);
                        }
                    }
                }
            }
        }
    }
    debug_assert_finite("conv2d_backward_input", "in_grad", in_grad);
}

/// Gradient of [`conv2d`] with respect to the weights, accumulated into
/// `w_grad` (`[C_out, C_in, k, k]`).
///
/// # Panics
///
/// Panics if buffer lengths disagree with `spec` and `(h, w)`.
pub fn conv2d_backward_weight(
    spec: &Conv2dSpec,
    out_grad: &[f32],
    input: &[f32],
    h: usize,
    w: usize,
    w_grad: &mut Tensor,
) {
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(out_grad.len(), spec.out_channels * oh * ow, "conv2d out-grad length");
    assert_eq!(input.len(), spec.in_channels * h * w, "conv2d input length");
    assert_eq!(w_grad.len(), spec.weight_count(), "conv2d weight-grad length");
    let (k, stride) = (spec.kernel, spec.stride);
    debug_assert_finite("conv2d_backward_weight", "out_grad", out_grad);
    debug_assert_finite("conv2d_backward_weight", "input", input);
    let wd = w_grad.as_mut_slice();
    let runs = spec.tap_runs(w, ow);
    for (oc_oy, g_row) in out_grad.chunks_exact(ow).enumerate() {
        if all_zero(g_row) {
            continue;
        }
        let (oc, oy) = (oc_oy / oh, oc_oy % oh);
        for ic in 0..spec.in_channels {
            for ky in 0..k {
                let Some(iy) = spec.tap(oy, ky, h) else { continue };
                let in_row = &input[(ic * h + iy) * w..][..w];
                let w_row = &mut wd[((oc * spec.in_channels + ic) * k + ky) * k..][..k];
                for (wg, &(lo, hi, start)) in w_row.iter_mut().zip(&runs) {
                    if lo < hi {
                        *wg = dot_strided(*wg, &g_row[lo..hi], &in_row[start..], stride);
                    }
                }
            }
        }
    }
    debug_assert_finite("conv2d_backward_weight", "w_grad", wd);
}

fn assert_pool_tiles(h: usize, w: usize, k: usize) {
    assert!(k > 0, "pool window must be positive");
    assert!(
        h.is_multiple_of(k) && w.is_multiple_of(k),
        "pool window {k} must divide the {h}×{w} input"
    );
}

/// Checks the geometry of a pooling call: `pixels` must be `T` rows of
/// `[C, H, W]` and `pooled` as many rows of `[C, H/k, W/k]`.
fn assert_pool_rows(pixels: &[f32], pooled: &[f32], c: usize, h: usize, w: usize, k: usize) {
    assert_pool_tiles(h, w, k);
    let (in_len, out_len) = (c * h * w, c * (h / k) * (w / k));
    let steps = pixels.len() / in_len.max(1);
    assert_eq!(pixels.len(), steps * in_len, "avg_pool2d input length");
    assert_eq!(pooled.len(), steps * out_len, "avg_pool2d output length");
}

/// [`avg_pool2d`] over all `(tick, channel)` planes, `w` pixels wide. A
/// band of `k` input rows is cut into runs of `K` pixels (`K` divides
/// `k`): output `ox` sums runs `ky·w/K + ox·k/K ..` of length `k/K` for
/// `ky` ascending into a register. The one window the example nets use,
/// `k = 2`, takes `K = k`: the window is an array the compiler unrolls
/// and a row of windows a loop it vectorises. Any other `k` takes
/// `K = 1`, runs of one pixel.
#[inline(always)]
fn pool_planes<const K: usize>(input: &[f32], w: usize, k: usize, out: &mut [f32]) {
    let (runs, ow) = (k / K, w / k);
    #[expect(
        clippy::cast_precision_loss,
        reason = "pooling window area is a small constant, exactly representable"
    )]
    let inv = 1.0 / (k * k) as f32;
    for (band, acc) in input.chunks_exact((k * w).max(1)).zip(out.chunks_exact_mut(ow.max(1))) {
        let wins = band.as_chunks::<K>().0;
        for (ox, o) in acc.iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for ky in 0..k {
                for &v in wins[ky * (w / K) + ox * runs..][..runs].as_flattened() {
                    sum += v;
                }
            }
            *o = sum * inv;
        }
    }
}

/// [`avg_pool2d_backward`] over all planes, windows cut as in
/// [`pool_planes`].
#[inline(always)]
fn unpool_planes<const K: usize>(out_grad: &[f32], w: usize, k: usize, in_grad: &mut [f32]) {
    let (runs, ow) = (k / K, w / k);
    #[expect(
        clippy::cast_precision_loss,
        reason = "pooling window area is a small constant, exactly representable"
    )]
    let inv = 1.0 / (k * k) as f32;
    let bands = in_grad.chunks_exact_mut((k * w).max(1));
    for (g_row, band) in out_grad.chunks_exact(ow.max(1)).zip(bands) {
        let wins = band.as_chunks_mut::<K>().0;
        for (ox, &g) in g_row.iter().enumerate() {
            let g = g * inv;
            for ky in 0..k {
                for v in wins[ky * (w / K) + ox * runs..][..runs].as_flattened_mut() {
                    *v += g;
                }
            }
        }
    }
}

/// Average pooling forward pass with a square window `k` and stride `k`,
/// over one row or a whole sequence.
///
/// `input` is `T` rows of `[C, H, W]`; `out` is `T` rows of
/// `[C, H/k, W/k]`. The window must tile the input: there are no partial
/// windows at the border. Rows and channels are independent planes, so a
/// sequence goes through in one call.
///
/// # Panics
///
/// Panics if `k` is zero or does not divide `h` and `w`, or if buffer
/// lengths disagree.
pub fn avg_pool2d(input: &[f32], c: usize, h: usize, w: usize, k: usize, out: &mut [f32]) {
    assert_pool_rows(input, out, c, h, w, k);
    debug_assert_finite("avg_pool2d", "input", input);
    match k {
        2 => pool_planes::<2>(input, w, 2, out),
        _ => pool_planes::<1>(input, w, k, out),
    }
    debug_assert_finite("avg_pool2d", "out", out);
}

/// Gradient of [`avg_pool2d`], accumulated into `in_grad` (`T` rows of
/// `[C, H, W]`) from `T` rows of `out_grad`. Every input pixel takes one
/// add, its window's `out_grad / k²`, zero or not (module doc).
///
/// # Panics
///
/// Panics if `k` is zero or does not divide `h` and `w`, or if buffer
/// lengths disagree.
pub fn avg_pool2d_backward(
    out_grad: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    in_grad: &mut [f32],
) {
    assert_pool_rows(in_grad, out_grad, c, h, w, k);
    debug_assert_finite("avg_pool2d_backward", "out_grad", out_grad);
    match k {
        2 => unpool_planes::<2>(out_grad, w, 2, in_grad),
        _ => unpool_planes::<1>(out_grad, w, k, in_grad),
    }
    debug_assert_finite("avg_pool2d_backward", "in_grad", in_grad);
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::Shape;
    use proptest::prelude::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    /// Deterministic pseudo-random values in `[-1, 1)`.
    fn xorshift(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f32 / 500.0) - 1.0
        }
    }

    #[test]
    fn matvec_matches_manual() {
        // W = [[1,2],[3,4],[5,6]] · x = [1,1]
        let w = Tensor::from_vec(Shape::d2(3, 2), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let x = [1.0, 1.0];
        let mut y = [0.0; 3];
        matvec(&w, &x, &mut y);
        assert_eq!(y, [3.0, 7.0, 11.0]);
    }

    #[test]
    fn matvec_t_is_transpose_of_matvec() {
        let w = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let g = [1.0, 2.0];
        let mut xg = [0.0; 3];
        matvec_t_acc(&w, &g, &mut xg);
        // Wᵀ·g = [1+8, 2+10, 3+12]
        assert_eq!(xg, [9.0, 12.0, 15.0]);
    }

    #[test]
    fn outer_acc_matches_manual() {
        let mut wg = Tensor::zeros(Shape::d2(2, 2));
        outer_acc(&mut wg, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(wg.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn conv2d_identity_kernel_passes_input_through() {
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        let w = Tensor::from_vec(spec.weight_shape(), vec![1.0]).unwrap();
        let input = [1.0, 2.0, 3.0, 4.0];
        let mut out = [0.0; 4];
        conv2d(&spec, &input, 2, 2, &w, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_same_padding_sums_neighbourhood() {
        let spec = Conv2dSpec::new(1, 1, 3, 1, 1);
        let w = Tensor::full(spec.weight_shape(), 1.0);
        // all-ones 3×3 input: centre sees 9 ones, corner sees 4
        let input = [1.0f32; 9];
        let mut out = [0.0; 9];
        conv2d(&spec, &input, 3, 3, &w, &mut out);
        assert_eq!(out[4], 9.0);
        assert_eq!(out[0], 4.0);
        assert_eq!(out[1], 6.0);
    }

    #[test]
    fn conv2d_stride_reduces_output() {
        let spec = Conv2dSpec::new(1, 2, 2, 2, 0);
        assert_eq!(spec.out_hw(4, 4), (2, 2));
        let w = Tensor::full(spec.weight_shape(), 0.5);
        let input = [1.0f32; 16];
        let mut out = [0.0; 8];
        conv2d(&spec, &input, 4, 4, &w, &mut out);
        // each window: 4 elements × 0.5 = 2.0
        assert!(out.iter().all(|&v| approx(v, 2.0)));
    }

    /// Finite-difference check: the analytic input gradient of conv2d must
    /// match a numerical estimate of d(sum(out·g))/d(input).
    #[test]
    fn conv2d_input_gradient_matches_finite_difference() {
        let spec = Conv2dSpec::new(2, 3, 3, 1, 1);
        let (h, w_) = (4, 4);
        let mut rng_state = 12345u64;
        let mut next = || {
            // xorshift for deterministic pseudo-random values
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            ((rng_state % 1000) as f32 / 500.0) - 1.0
        };
        let weight = Tensor::from_vec(
            spec.weight_shape(),
            (0..spec.weight_count()).map(|_| next()).collect(),
        )
        .unwrap();
        let input: Vec<f32> = (0..spec.in_channels * h * w_).map(|_| next()).collect();
        let (oh, ow) = spec.out_hw(h, w_);
        let g: Vec<f32> = (0..spec.out_channels * oh * ow).map(|_| next()).collect();

        let mut in_grad = vec![0.0; input.len()];
        conv2d_backward_input(&spec, &g, h, w_, &weight, &mut in_grad);

        let f = |inp: &[f32]| -> f32 {
            let mut out = vec![0.0; g.len()];
            conv2d(&spec, inp, h, w_, &weight, &mut out);
            out.iter().zip(g.iter()).map(|(o, gv)| o * gv).sum()
        };
        let eps = 1e-2;
        for probe in [0usize, 5, 13, 17, input.len() - 1] {
            let mut ip = input.clone();
            ip[probe] += eps;
            let mut im = input.clone();
            im[probe] -= eps;
            let fd = (f(&ip) - f(&im)) / (2.0 * eps);
            assert!(
                (fd - in_grad[probe]).abs() < 1e-2,
                "probe {probe}: fd={fd} analytic={}",
                in_grad[probe]
            );
        }
    }

    #[test]
    fn conv2d_weight_gradient_matches_finite_difference() {
        let spec = Conv2dSpec::new(1, 2, 2, 1, 0);
        let (h, w_) = (3, 3);
        let input: Vec<f32> = (0..9).map(|i| i as f32 * 0.1).collect();
        let (oh, ow) = spec.out_hw(h, w_);
        let g = vec![1.0; spec.out_channels * oh * ow];
        let weight =
            Tensor::from_vec(spec.weight_shape(), (0..8).map(|i| i as f32 * 0.05).collect())
                .unwrap();

        let mut w_grad = Tensor::zeros(spec.weight_shape());
        conv2d_backward_weight(&spec, &g, &input, h, w_, &mut w_grad);

        let f = |wt: &Tensor| -> f32 {
            let mut out = vec![0.0; g.len()];
            conv2d(&spec, &input, h, w_, wt, &mut out);
            out.iter().zip(g.iter()).map(|(o, gv)| o * gv).sum()
        };
        let eps = 1e-2;
        for probe in 0..weight.len() {
            let mut wp = weight.clone();
            wp[probe] += eps;
            let mut wm = weight.clone();
            wm[probe] -= eps;
            let fd = (f(&wp) - f(&wm)) / (2.0 * eps);
            assert!(
                (fd - w_grad[probe]).abs() < 1e-2,
                "probe {probe}: fd={fd} analytic={}",
                w_grad[probe]
            );
        }
    }

    #[test]
    fn avg_pool_averages_windows() {
        let input = [1.0, 2.0, 3.0, 4.0];
        let mut out = [0.0];
        avg_pool2d(&input, 1, 2, 2, 2, &mut out);
        assert!(approx(out[0], 2.5));
    }

    #[test]
    fn avg_pool_backward_distributes_uniformly() {
        let mut in_grad = [0.0f32; 4];
        avg_pool2d_backward(&[4.0], 1, 2, 2, 2, &mut in_grad);
        assert!(in_grad.iter().all(|&v| approx(v, 1.0)));
    }

    #[test]
    fn conv_spec_validates() {
        let spec = Conv2dSpec::new(2, 16, 5, 1, 2);
        assert_eq!(spec.weight_count(), 16 * 2 * 25);
        assert_eq!(spec.out_hw(32, 32), (32, 32));
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn conv_spec_rejects_zero_stride() {
        Conv2dSpec::new(1, 1, 3, 0, 0);
    }

    proptest! {
        /// `conv2d` agrees to the bit with a reference that walks the
        /// window in signed coordinates — padding, stride > 1 and
        /// non-square inputs included.
        #[test]
        fn conv2d_matches_a_signed_coordinate_reference(
            in_c in 1usize..3, out_c in 1usize..3, k in 1usize..5,
            stride in 1usize..4, pad in 0usize..3, extra in 0usize..4, seed in 0u64..1000,
        ) {
            let spec = Conv2dSpec::new(in_c, out_c, k, stride, pad);
            let (h, w) = (k + extra, k + extra + 1);
            let mut next = xorshift(seed);
            let weight = Tensor::from_vec(
                spec.weight_shape(),
                (0..spec.weight_count()).map(|_| next()).collect(),
            ).unwrap();
            // Half the pixels exactly zero, like a spike frame.
            let input: Vec<f32> =
                (0..in_c * h * w).map(|_| { let v = next(); if v < 0.0 { 0.0 } else { v } }).collect();
            let (oh, ow) = spec.out_hw(h, w);
            let mut out = vec![0.0f32; out_c * oh * ow];
            conv2d(&spec, &input, h, w, &weight, &mut out);
            let wd = weight.as_slice();
            for oc in 0..out_c {
                let w_oc = &wd[oc * in_c * k * k..(oc + 1) * in_c * k * k];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ic in 0..in_c {
                            for ky in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                for kx in 0..k {
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += w_oc[(ic * k + ky) * k + kx]
                                        * input[(ic * h + iy as usize) * w + ix as usize];
                                }
                            }
                        }
                        prop_assert_eq!(out[(oc * oh + oy) * ow + ox].to_bits(), acc.to_bits());
                    }
                }
            }
        }

        /// The row-stationary backward kernels agree to the bit with the
        /// per-pixel loops they replaced: signed tap coordinates, output
        /// pixels in `(oc, oy, ox)` order, exact-zero gradients skipped
        /// one by one. Gradients carry whole zero rows, scattered zeros
        /// and `-0.0`; padding reaches past the kernel, stride to 3.
        #[test]
        fn conv2d_backward_matches_a_signed_coordinate_reference(
            in_c in 1usize..3, out_c in 1usize..3, k in 1usize..5,
            stride in 1usize..4, pad_sel in 0usize..5, extra in 0usize..5, seed in 0u64..1000,
        ) {
            let pad = pad_sel % (k + 1);
            let spec = Conv2dSpec::new(in_c, out_c, k, stride, pad);
            let (h, w) = (k + extra, k + extra + 1);
            let mut next = xorshift(seed);
            let weight = Tensor::from_vec(
                spec.weight_shape(),
                (0..spec.weight_count()).map(|_| next()).collect(),
            ).unwrap();
            let input: Vec<f32> = (0..in_c * h * w).map(|_| next().max(0.0)).collect();
            let (oh, ow) = spec.out_hw(h, w);
            let mut out_grad: Vec<f32> = (0..out_c * oh * ow)
                .map(|_| { let v = next(); if v.abs() < 0.3 { 0.0 } else { v } })
                .collect();
            for (row, g_row) in out_grad.chunks_mut(ow).enumerate() {
                match (row as u64 + seed) % 4 {
                    0 => g_row.fill(0.0),
                    1 => g_row[0] = -0.0,
                    _ => {}
                }
            }

            let mut in_grad = vec![0.0f32; input.len()];
            let mut w_grad = Tensor::zeros(spec.weight_shape());
            let (mut in_ref, mut w_ref) = (in_grad.clone(), vec![0.0f32; weight.len()]);
            // Two passes: the kernels accumulate into what is there.
            for _ in 0..2 {
                conv2d_backward_input(&spec, &out_grad, h, w, &weight, &mut in_grad);
                conv2d_backward_weight(&spec, &out_grad, &input, h, w, &mut w_grad);
                let wd = weight.as_slice();
                for oc in 0..out_c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let g = out_grad[(oc * oh + oy) * ow + ox];
                            if g == 0.0 {
                                continue;
                            }
                            for ic in 0..in_c {
                                for ky in 0..k {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    for kx in 0..k {
                                        let ix = (ox * stride + kx) as isize - pad as isize;
                                        if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                            continue;
                                        }
                                        let at = (ic * h + iy as usize) * w + ix as usize;
                                        let wi = ((oc * in_c + ic) * k + ky) * k + kx;
                                        in_ref[at] += g * wd[wi];
                                        w_ref[wi] += g * input[at];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            for (got, want) in in_grad.iter().zip(&in_ref) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            for (got, want) in w_grad.as_slice().iter().zip(&w_ref) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        /// Handed `T` rows at once, `conv2d` and `conv2d_backward_input`
        /// return the bits of `T` single-row calls — the row-stationary
        /// kernels the two tests above hold to their references — whether
        /// `T` is one row, falls one short of a block of ticks, fills it,
        /// spills one row into the tail or spans two blocks and a tail.
        /// Stride reaches 3 and padding the kernel extent; inputs are
        /// half zeros of both signs, gradients carry all-zero rows and
        /// scattered `±0.0` (which only the row kernel skips), and the
        /// input gradient accumulates into a buffer that is not zero.
        #[test]
        fn t_row_kernels_match_their_single_row_calls(
            in_c in 1usize..3, out_c in 1usize..4, k in 1usize..5, stride in 1usize..4,
            pad_sel in 0usize..5, extra in 0usize..5, t_sel in 0usize..5, seed in 0u64..1000,
        ) {
            let steps = [1, TICK_BLOCK - 1, TICK_BLOCK, TICK_BLOCK + 1, 37][t_sel];
            let spec = Conv2dSpec::new(in_c, out_c, k, stride, pad_sel % (k + 1));
            let (h, w) = (k + extra, k + extra + 1);
            let (oh, ow) = spec.out_hw(h, w);
            let (in_len, out_len) = (in_c * h * w, out_c * oh * ow);
            let mut next = xorshift(seed);
            let weight = Tensor::from_vec(
                spec.weight_shape(),
                (0..spec.weight_count()).map(|_| next()).collect(),
            ).unwrap();
            let mut sparse = |at: usize| match (next(), at % 3) {
                (v, _) if v.abs() >= 0.5 => v,
                (_, 0) => -0.0,
                _ => 0.0,
            };
            let input: Vec<f32> = (0..steps * in_len).map(&mut sparse).collect();
            let mut out_grad: Vec<f32> = (0..steps * out_len).map(&mut sparse).collect();
            for (row, g_row) in out_grad.chunks_mut(ow).enumerate() {
                if (row as u64 + seed).is_multiple_of(4) {
                    g_row.fill(0.0);
                }
            }
            // An accumulator never holds `-0.0` (module doc): `+0.0` here.
            let held: Vec<f32> = (0..steps * in_len).map(|_| next() + 0.0).collect();

            let (mut out, mut out_rows) = (vec![f32::NAN; steps * out_len], vec![f32::NAN; steps * out_len]);
            conv2d(&spec, &input, h, w, &weight, &mut out);
            for (x, z) in input.chunks(in_len).zip(out_rows.chunks_mut(out_len)) {
                conv2d(&spec, x, h, w, &weight, z);
            }
            for (got, want) in out.iter().zip(&out_rows) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }

            let (mut in_grad, mut in_rows) = (held.clone(), held);
            conv2d_backward_input(&spec, &out_grad, h, w, &weight, &mut in_grad);
            for (g, x) in out_grad.chunks(out_len).zip(in_rows.chunks_mut(in_len)) {
                conv2d_backward_input(&spec, g, h, w, &weight, x);
            }
            for (got, want) in in_grad.iter().zip(&in_rows) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        /// Output channels share nothing: on a spec of one output channel
        /// with kernel `w[oc]`, `conv2d` returns channel `oc` of the full
        /// convolution to the bit — for `T` from a single row through
        /// blocks of ticks with and without a tail, stride 1–3 and padding
        /// 0–2, on inputs half zeros of both signs.
        #[test]
        fn a_one_channel_spec_returns_its_channel_of_the_full_conv2d(
            in_c in 1usize..3, out_c in 1usize..4, k in 1usize..5, stride in 1usize..4,
            pad in 0usize..3, extra in 0usize..4, steps in 1usize..40, seed in 0u64..1000,
        ) {
            let spec = Conv2dSpec::new(in_c, out_c, k, stride, pad);
            let (h, w) = (k + extra, k + extra + 1);
            let (oh, ow) = spec.out_hw(h, w);
            let pixels = oh * ow;
            let mut next = xorshift(seed);
            let weight = Tensor::from_vec(
                spec.weight_shape(),
                (0..spec.weight_count()).map(|_| next()).collect(),
            ).unwrap();
            let input: Vec<f32> = (0..steps * in_c * h * w)
                .map(|at| match (next(), at % 3) {
                    (v, _) if v.abs() >= 0.5 => v,
                    (_, 0) => -0.0,
                    _ => 0.0,
                })
                .collect();
            let mut full = vec![f32::NAN; steps * out_c * pixels];
            conv2d(&spec, &input, h, w, &weight, &mut full);
            let one = Conv2dSpec { out_channels: 1, ..spec };
            for (oc, w_oc) in weight.as_slice().chunks(one.weight_count()).enumerate() {
                let w_oc = Tensor::from_vec(one.weight_shape(), w_oc.to_vec()).unwrap();
                let mut channel = vec![f32::NAN; steps * pixels];
                conv2d(&one, &input, h, w, &w_oc, &mut channel);
                for (t, row) in channel.chunks(pixels).enumerate() {
                    let want = &full[(t * out_c + oc) * pixels..][..pixels];
                    for (got, want) in row.iter().zip(want) {
                        prop_assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }

        /// The zero-skipping drive has `matvec`'s bits at every input
        /// density from all-zero to dense, on pooled spike values `k/4`
        /// and with `-0.0` among the inputs: on rows short and long — up
        /// to 700 columns, several blocks of the non-zero gather — with a
        /// whole gather block silent in half the long ones, and with one
        /// weight row all zeroes of both signs.
        #[test]
        fn matvec_skip_zeros_matches_matvec_to_the_bit(
            rows in 1usize..24, cols in 1usize..700, short in proptest::bool::ANY,
            density in 0u64..11, silent_block in proptest::bool::ANY, zero_row in 0usize..24,
            seed in 0u64..1000,
        ) {
            let cols = if short { cols % 40 + 1 } else { cols };
            let mut next = xorshift(seed);
            let mut w = Tensor::from_vec(
                Shape::d2(rows, cols),
                (0..rows * cols).map(|_| next()).collect(),
            ).unwrap();
            if zero_row < rows {
                let row = &mut w.as_mut_slice()[zero_row * cols..(zero_row + 1) * cols];
                for (c, v) in row.iter_mut().enumerate() {
                    *v = if c % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            let silent = if silent_block { GATHER..2 * GATHER } else { 0..0 };
            let x: Vec<f32> = (0..cols)
                .map(|c| {
                    let pick = (next() + 1.0) * 5.0; // uniform in [0, 10)
                    if pick >= density as f32 || silent.contains(&c) {
                        if c % 3 == 0 { -0.0 } else { 0.0 }
                    } else {
                        (1 + c % 4) as f32 / 4.0
                    }
                })
                .collect();
            let mut want = vec![0.0f32; rows];
            matvec(&w, &x, &mut want);
            let mut got = vec![f32::NAN; rows];
            matvec_skip_zeros(&transposed(&w), &x, &mut got);
            for (g, v) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), v.to_bits());
            }
        }

        /// Handed `T` rows, `avg_pool2d` and `avg_pool2d_backward` return
        /// the bits of `T` single-row calls, and both those of the
        /// per-pixel loops they replaced: windows summed from `+0.0` in
        /// `(ky, kx)` order and scaled once, zero gradients skipped one by
        /// one. Window 2 takes the unrolled kernel, 1 and 3–5 the
        /// one-pixel runs; inputs and gradients are half zeros of both
        /// signs, and the input gradient accumulates into a buffer that
        /// is not zero.
        #[test]
        fn pooling_over_t_rows_matches_single_rows_and_the_per_pixel_loops(
            steps in 1usize..6, c in 1usize..4, k in 1usize..6, scale in 1usize..4, seed in 0u64..1000,
        ) {
            let (h, w) = (k * scale, k * (scale + 1));
            let (oh, ow) = (h / k, w / k);
            let (in_len, out_len) = (c * h * w, c * oh * ow);
            let mut next = xorshift(seed);
            let mut sparse = |at: usize| match (next(), at % 3) {
                (v, _) if v.abs() >= 0.5 => v,
                (_, 0) => -0.0,
                _ => 0.0,
            };
            let input: Vec<f32> = (0..steps * in_len).map(&mut sparse).collect();
            let out_grad: Vec<f32> = (0..steps * out_len).map(&mut sparse).collect();
            let held: Vec<f32> = (0..steps * in_len).map(|i| 0.25 + (i % 7) as f32).collect();

            let inv = 1.0 / (k * k) as f32;
            let (mut out_ref, mut in_ref) = (vec![0.0f32; steps * out_len], held.clone());
            for plane in 0..steps * c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let at = (plane * oh + oy) * ow + ox;
                        let (mut acc, g) = (0.0f32, out_grad[at] * inv);
                        for ky in 0..k {
                            for kx in 0..k {
                                let pixel = (plane * h + oy * k + ky) * w + ox * k + kx;
                                acc += input[pixel];
                                if g != 0.0 {
                                    in_ref[pixel] += g;
                                }
                            }
                        }
                        out_ref[at] = acc * inv;
                    }
                }
            }

            let (mut out, mut out_rows) = (vec![f32::NAN; steps * out_len], vec![f32::NAN; steps * out_len]);
            avg_pool2d(&input, c, h, w, k, &mut out);
            for (x, z) in input.chunks(in_len).zip(out_rows.chunks_mut(out_len)) {
                avg_pool2d(x, c, h, w, k, z);
            }
            let (mut in_grad, mut in_rows) = (held.clone(), held);
            avg_pool2d_backward(&out_grad, c, h, w, k, &mut in_grad);
            for (g, x) in out_grad.chunks(out_len).zip(in_rows.chunks_mut(in_len)) {
                avg_pool2d_backward(g, c, h, w, k, x);
            }
            for ((got, row), want) in out.iter().zip(&out_rows).zip(&out_ref) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
                prop_assert_eq!(row.to_bits(), want.to_bits());
            }
            for ((got, row), want) in in_grad.iter().zip(&in_rows).zip(&in_ref) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
                prop_assert_eq!(row.to_bits(), want.to_bits());
            }
        }

        /// Pooling then backward must conserve total gradient mass
        /// (avg-pool backward spreads each output gradient over k² inputs
        /// scaled by 1/k², so sums match when H, W divide k).
        #[test]
        fn avg_pool_gradient_mass_is_conserved(
            c in 1usize..3, scale in 1usize..4, k in 1usize..3,
        ) {
            let h = k * scale;
            let w = k * scale;
            let out_len = c * (h / k) * (w / k);
            let out_grad: Vec<f32> = (0..out_len).map(|i| (i % 5) as f32).collect();
            let mut in_grad = vec![0.0f32; c * h * w];
            avg_pool2d_backward(&out_grad, c, h, w, k, &mut in_grad);
            let total_out: f32 = out_grad.iter().sum();
            let total_in: f32 = in_grad.iter().sum();
            prop_assert!((total_out - total_in).abs() < 1e-3);
        }

        /// matvec followed by its transpose satisfies the adjoint identity
        /// ⟨W·x, y⟩ = ⟨x, Wᵀ·y⟩.
        #[test]
        fn matvec_adjoint_identity(
            rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000
        ) {
            let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % 100) as f32 / 50.0) - 1.0
            };
            let w = Tensor::from_vec(
                Shape::d2(rows, cols),
                (0..rows * cols).map(|_| next()).collect(),
            ).unwrap();
            let x: Vec<f32> = (0..cols).map(|_| next()).collect();
            let y: Vec<f32> = (0..rows).map(|_| next()).collect();
            let mut wx = vec![0.0; rows];
            matvec(&w, &x, &mut wx);
            let mut wty = vec![0.0; cols];
            matvec_t_acc(&w, &y, &mut wty);
            let lhs: f32 = wx.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.iter().zip(wty.iter()).map(|(a, b)| a * b).sum();
            prop_assert!((lhs - rhs).abs() < 1e-2, "lhs={} rhs={}", lhs, rhs);
        }
    }
}
