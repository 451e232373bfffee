//! Binary-concrete (Gumbel-Softmax) input relaxation and the
//! straight-through estimator — the paper's Fig. 3 input pipeline.
//!
//! The test input to an SNN is a binary spike tensor, which is not
//! differentiable. The paper therefore maintains a real-valued tensor
//! `I_real`, relaxes it with the Gumbel-Softmax function at temperature `τ`
//! (`I_soft`), binarizes with a straight-through estimator (`I_in`), and
//! backpropagates as if the binarization were the identity.
//!
//! For a *binary* variable the Gumbel-Softmax reduces to the binary
//! concrete distribution: `I_soft = σ((I_real + g) / τ)` with logistic
//! noise `g = ln u − ln(1 − u)`. A deterministic mode (`g = 0`) is provided
//! for reproducible tests and for the final deterministic readout of the
//! optimized stimulus.
//!
//! A sample is made in two halves that need not run on the same thread:
//! [`GumbelSample::binarize`] is the straight-through forward pass, one
//! comparison of `(I_real + g)/τ` against `−2⁻²³` (where `sigmoid`
//! reaches `½`, so `σ` itself is not needed for the spikes), and
//! [`soften`] computes `I_soft`, which only the backward pass reads.
//! [`GumbelSample::relax`] is the two in turn.

use rand::Rng;
use snn_tensor::Tensor;

/// `ln 2`, split so that a binary exponent times the high part is exact.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `ln(u / (1 − u))`, the logistic quantile, on the sampler's grid
/// `[ε, 1 − ε]`: within 2 ulp, odd about `u = ½`, `+0` there. IEEE
/// `+ − × ÷`, selects and bit arithmetic only, like [`sigmoid`]: no libm
/// call, so a sample is the same on every host; no branch or table, so
/// [`logistic_noise`]'s loop vectorises. Derivation and error: DESIGN.md
/// §19.4.
fn logit(u: f32) -> f32 {
    // ±ln((1 − w)/w) with w = min(u, 1 − u), which is exact.
    let sign = if u >= 0.5 { 1.0 } else { -1.0 };
    let w = if u >= 0.5 { 1.0 - u } else { u };
    // (1 − w)/w = 2ᵏ·m, m ∈ [√½, √2): ⌊log₂(x/y)⌋ of two positive floats is
    // the difference of their bit patterns above the mantissa.
    let k = (((1.0 - w) * std::f32::consts::SQRT_2).to_bits() - w.to_bits()) >> 23;
    // f = m − 1 from differences that are exact near u = ½, where ln m is
    // the whole result and a rounded quotient's error as large as it.
    let q = w * f32::from_bits((k + 127) << 23);
    let f = ((0.5 - w) + (0.5 - q)) / q;
    // `k` as a float: OR it into 2²³'s mantissa, subtract 2²³.
    let k = f32::from_bits(0x4b00_0000 | k) - 8_388_608.0;
    // Cephes `logf`: ln(1 + f) ≈ f − f²/2 + f³·P(f), Horner from f⁸ down.
    let p = ((7.037_683_6e-2 * f - 1.151_461e-1) * f + 1.167_699_87e-1) * f - 1.242_014_1e-1;
    let p = ((p * f + 1.424_932_3e-1) * f - 1.666_805_7e-1) * f + 2.000_071_4e-1;
    let p = (p * f - 2.499_999_4e-1) * f + 3.333_333e-1;
    let z = f * f;
    sign * ((f + ((f * z * p + LN2_LO * k) - 0.5 * z)) + LN2_HI * k)
}

/// `1 / (1 + e⁻ˣ)` for every non-NaN `x`: within 2 ulp where that is a
/// normal `f32` and exactly `0` below — never a subnormal, which
/// `grad_logits` would multiply by at a fraction of the speed; exactly
/// `1` from `e⁻ˣ ≤ 2⁻²⁴` on, as `1/(1 + exp(−x))` is; exactly `½` on
/// `[−2⁻²³, 0]`, where `1 + e⁻ˣ` rounds to 2, and `< ½` below it. So
/// `sigmoid(x) ≥ ½` exactly when `x ≥ −2⁻²³` (`−f32::EPSILON`), which is
/// the comparison [`GumbelSample::binarize`] makes.
fn sigmoid(x: f32) -> f32 {
    // σ is flat to the last bit well inside these bounds, and within them
    // 2ⁿ stays finite and its product with `y` normal.
    let a = if x < -88.0 { 88.0 } else { -x };
    let a = if x > 32.0 { -32.0 } else { a };
    // e⁻ˣ = 2ⁿ(1 + y), n = round(a/ln 2): `f32::round` is a libm call, adding
    // 1.5·2²³ rounds as well and leaves `n` in the sum's low mantissa bits.
    let magic = 12_582_912.0;
    let sum = a * std::f32::consts::LOG2_E + magic;
    let n = sum - magic;
    let pow = f32::from_bits(sum.to_bits().wrapping_add(127) << 23);
    let r = (a - n * LN2_HI) - n * LN2_LO;
    // Cephes `expf`: eʳ ≈ 1 + r + r²·P(r), Horner from r⁵ down.
    let p = ((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2;
    let y = ((p * r + 1.666_666_6e-1) * r + 0.5) * (r * r) + r;
    // 1 + e⁻ˣ as (1 + 2ⁿ) + 2ⁿy: one rounding where 1 + 2ⁿ(1 + y) has two.
    // `lo` is what of the 1 did not make it into `hi` (all of it from
    // n = 24 on); `cap` is 2¹²⁶, whose reciprocal is the smallest normal.
    let hi = 1.0 + pow;
    let lo = (pow - hi) + 1.0;
    let denom = hi + (pow * y + lo);
    let cap = 1.0 / f32::MIN_POSITIVE;
    let denom = if denom > cap { cap } else { denom };
    // σ(x) < 2⁻¹²⁶ below this: no normal number, so zero.
    (if x < -87.336_54 { 0.0 } else { 1.0 }) / denom
}

/// One relaxed-binarized sample of the input pipeline.
///
/// Holds the soft relaxation and the binarized tensor actually applied to
/// the SNN, plus what the backward pass needs.
#[derive(Debug, Clone, PartialEq)]
pub struct GumbelSample {
    /// `I_soft = σ((I_real + g)/τ)` — the differentiable relaxation.
    pub soft: Tensor,
    /// `I_in = STE(I_soft)` — hard 0/1 spikes applied to the network.
    pub binary: Tensor,
    tau: f32,
}

/// Fills `noise` with logistic noise `g = ln u − ln(1 − u)`, one uniform
/// `u` from `rng` per element in order — the draws a stochastic sample
/// of `noise.len()` elements makes. The noise depends on the generator
/// alone, not on the logits or the temperature, so it can be drawn ahead
/// of the step that [`relax`](GumbelSample::relax)es with it.
pub fn logistic_noise(rng: &mut impl Rng, noise: &mut [f32]) {
    // The serial generator fills a block that is still in L1 when a
    // vectorisable loop makes noise of it.
    for block in noise.chunks_mut(256) {
        block.fill_with(|| rng.gen_range(f32::EPSILON..(1.0 - f32::EPSILON)));
        block.iter_mut().for_each(|g| *g = logit(*g));
    }
}

/// The relaxation half of a sample: `soft = σ((l + g)/τ)` from `logits`
/// and a block of [`logistic_noise`], the values
/// [`grad_logits`](GumbelSample::grad_logits) scales by. Only the
/// backward pass reads them, so they can be made beside the forward pass
/// that [`binarize`](GumbelSample::binarize)'s spikes drive.
///
/// # Panics
///
/// Panics if `tau` is not positive, or `logits` or `noise` is of another
/// size than `soft`.
pub fn soften(soft: &mut Tensor, noise: &[f32], logits: &Tensor, tau: f32) {
    check(noise, logits, soft, tau);
    for ((&l, &g), soft) in logits.as_slice().iter().zip(noise).zip(soft.as_mut_slice()) {
        *soft = sigmoid((l + g) / tau);
    }
}

fn check(noise: &[f32], logits: &Tensor, out: &Tensor, tau: f32) {
    assert!(tau > 0.0, "temperature must be positive, got {tau}");
    assert_eq!(logits.shape(), out.shape(), "logit shape must match the sample");
    assert_eq!(noise.len(), logits.len(), "noise length must match the sample");
}

impl GumbelSample {
    /// Samples the pipeline stochastically: logistic noise is added to the
    /// logits before the temperature-scaled sigmoid.
    pub fn stochastic(rng: &mut impl Rng, logits: &Tensor, tau: f32) -> Self {
        let mut noise = vec![0.0; logits.len()];
        logistic_noise(rng, &mut noise);
        let mut sample = Self::unsampled(logits);
        sample.relax(&noise, logits, tau);
        sample
    }

    /// Deterministic pipeline (no noise): `I_soft = σ(I_real/τ)`.
    pub fn deterministic(logits: &Tensor, tau: f32) -> Self {
        let mut sample = Self::unsampled(logits);
        sample.relax(&vec![0.0; logits.len()], logits, tau);
        sample
    }

    /// All-zero buffers shaped like `logits`, for
    /// [`relax`](Self::relax) to fill.
    pub fn unsampled(logits: &Tensor) -> Self {
        let zeros = Tensor::zeros(logits.shape().clone());
        Self { soft: zeros.clone(), binary: zeros, tau: 1.0 }
    }

    /// Makes the sample anew in place from `logits` and a block of
    /// [`logistic_noise`] — all `+0` in the deterministic mode — so that
    /// an optimizer loop samples every step into the same two buffers:
    /// [`binarize`](Self::binarize), then [`soften`].
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive, or `logits` or `noise` is of
    /// another size than the sample.
    pub fn relax(&mut self, noise: &[f32], logits: &Tensor, tau: f32) {
        self.binarize(noise, logits, tau);
        soften(&mut self.soft, noise, logits, tau);
    }

    /// The straight-through estimator's forward pass alone: `binary` from
    /// `logits` and `noise` at temperature `tau`, without `σ`. It spikes
    /// exactly where `σ((l + g)/τ) ≥ ½`, that is where the argument is
    /// at least `−2⁻²³` (`sigmoid`'s doc; NaN spikes on neither side).
    /// `soft` is left as it was, for [`soften`] to make.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive, or `logits` or `noise` is of
    /// another size than the sample.
    pub fn binarize(&mut self, noise: &[f32], logits: &Tensor, tau: f32) {
        check(noise, logits, &self.binary, tau);
        self.tau = tau;
        let binary = self.binary.as_mut_slice();
        for ((&l, &g), binary) in logits.as_slice().iter().zip(noise).zip(binary) {
            *binary = if (l + g) / tau >= -f32::EPSILON { 1.0 } else { 0.0 };
        }
    }

    /// The temperature this sample was drawn at.
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// Backward pass: turns `∂L/∂I_in` (the gradient that BPTT delivered
    /// at the binary network input) into `∂L/∂I_real`, in place.
    ///
    /// The straight-through estimator passes the gradient unchanged through
    /// the binarization; the concrete relaxation contributes
    /// `∂I_soft/∂I_real = I_soft·(1−I_soft)/τ`.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape.
    pub fn grad_logits(&self, grad: &mut Tensor) {
        assert_eq!(grad.shape(), self.soft.shape(), "gradient shape must match the sample");
        let inv_tau = 1.0 / self.tau;
        for (g, &sv) in grad.as_mut_slice().iter_mut().zip(self.soft.as_slice()) {
            *g *= sv * (1.0 - sv) * inv_tau;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_tensor::Shape;

    #[test]
    fn deterministic_sample_thresholds_logits_at_zero() {
        let logits = Tensor::from_vec(Shape::d1(4), vec![-2.0, -0.1, 0.1, 3.0]).unwrap();
        let s = GumbelSample::deterministic(&logits, 0.5);
        assert!(s.binary.is_binary());
        assert_eq!(s.binary.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn lower_temperature_sharpens_the_relaxation() {
        let logits = Tensor::from_vec(Shape::d1(1), vec![1.0]).unwrap();
        let warm = GumbelSample::deterministic(&logits, 1.0);
        let cold = GumbelSample::deterministic(&logits, 0.1);
        assert!(cold.soft[0] > warm.soft[0]);
        assert!(cold.soft[0] > 0.99);
    }

    #[test]
    fn stochastic_sampling_rate_follows_logit() {
        let mut rng = StdRng::seed_from_u64(11);
        let logits = Tensor::zeros(Shape::d1(10_000));
        let s = GumbelSample::stochastic(&mut rng, &logits, 0.9);
        // logit 0 ⇒ spike probability 1/2
        let rate = s.binary.sum() / s.binary.len() as f32;
        assert!((rate - 0.5).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn grad_logits_scales_by_concrete_derivative() {
        let logits = Tensor::from_vec(Shape::d1(2), vec![0.0, 4.0]).unwrap();
        let s = GumbelSample::deterministic(&logits, 1.0);
        let mut g = Tensor::full(Shape::d1(2), 1.0);
        s.grad_logits(&mut g);
        // at logit 0: σ=0.5 ⇒ derivative 0.25; at logit 4: σ≈0.982 ⇒ ≈0.0177
        assert!((g[0] - 0.25).abs() < 1e-4);
        assert!(g[1] < 0.05);
        assert!(g[1] > 0.0);
    }

    #[test]
    fn saturated_logits_receive_vanishing_gradient() {
        let logits = Tensor::from_vec(Shape::d1(1), vec![50.0]).unwrap();
        let s = GumbelSample::deterministic(&logits, 0.9);
        let mut g = Tensor::full(Shape::d1(1), 1.0);
        s.grad_logits(&mut g);
        assert!(g[0].abs() < 1e-6);
    }

    #[test]
    fn stochastic_is_reproducible_per_seed() {
        let logits = Tensor::zeros(Shape::d1(64));
        let a = GumbelSample::stochastic(&mut StdRng::seed_from_u64(5), &logits, 0.9);
        let b = GumbelSample::stochastic(&mut StdRng::seed_from_u64(5), &logits, 0.9);
        assert_eq!(a, b);
    }

    #[test]
    fn relaxing_in_place_equals_a_fresh_sample() {
        let mut rng = StdRng::seed_from_u64(3);
        let logits = snn_tensor::init::uniform(&mut rng, Shape::d2(4, 9), -2.0, 2.0);
        let mut reused = GumbelSample::deterministic(&Tensor::zeros(Shape::d2(4, 9)), 0.4);
        let mut noise = vec![f32::NAN; logits.len()];
        logistic_noise(&mut StdRng::seed_from_u64(8), &mut noise);
        reused.relax(&noise, &logits, 0.7);
        assert_eq!(reused, GumbelSample::stochastic(&mut StdRng::seed_from_u64(8), &logits, 0.7));
        reused.relax(&[0.0; 36], &logits, 0.6);
        assert_eq!(reused, GumbelSample::deterministic(&logits, 0.6));
    }

    #[test]
    #[should_panic(expected = "noise length must match the sample")]
    fn rejects_noise_of_another_length() {
        let logits = Tensor::zeros(Shape::d1(3));
        GumbelSample::unsampled(&logits).relax(&[0.0; 2], &logits, 0.5);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_nonpositive_temperature() {
        let logits = Tensor::zeros(Shape::d1(1));
        let _ = GumbelSample::deterministic(&logits, 0.0);
    }

    /// The `k`-th of the 2²⁴ values `gen_range(ε..1 − ε)` can return.
    fn grid(k: u32) -> f32 {
        struct Fixed(u64);
        impl rand::RngCore for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        Fixed(u64::from(k) << 40).gen_range(f32::EPSILON..(1.0 - f32::EPSILON))
    }

    /// Distance between neighbouring `f32` at `|x|`'s magnitude.
    fn ulp(x: f64) -> f64 {
        let binade = f32::from_bits((x.abs() as f32).to_bits() & 0xff80_0000);
        f64::from(binade) * 2f64.powi(-23)
    }

    fn logit64(u: f32) -> f64 {
        let u = f64::from(u);
        (u / (1.0 - u)).ln()
    }

    /// Cancellation-free on both sides, so good to the last `f64` bits.
    fn sigmoid64(x: f32) -> f64 {
        let e = (-f64::from(x).abs()).exp();
        if x >= 0.0 {
            1.0 / (1.0 + e)
        } else {
            e / (1.0 + e)
        }
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "the mirror image is exact, up to the sign of zero")]
    fn logit_is_within_two_ulp_on_the_whole_sampling_grid() {
        assert_eq!(grid(0).to_bits(), f32::EPSILON.to_bits());
        assert_eq!(grid(1 << 23).to_bits(), 0.5f32.to_bits());
        assert_eq!(logit(0.5).to_bits(), 0.0f32.to_bits());
        for k in 0..1u32 << 24 {
            let u = grid(k);
            let (got, want) = (f64::from(logit(u)), logit64(u));
            let tolerance = (2.0 * ulp(want)).max(2.5e-7 * want.abs());
            assert!((got - want).abs() <= tolerance, "logit({u:e}) = {got:e}, want {want:e}");
            if u >= 0.5 {
                // 1 − u is exact here, and the function odd by construction.
                assert_eq!(logit(1.0 - u), -logit(u), "u = {u:e}");
            }
        }
    }

    /// Every `f32` in `[lo, hi]` taken `stride` bit patterns apart, with
    /// its mirror image.
    fn floats(lo: f32, hi: f32, stride: usize) -> impl Iterator<Item = f32> {
        (lo.to_bits()..=hi.to_bits()).step_by(stride).map(f32::from_bits).flat_map(|x| [x, -x])
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "exact saturation values are the contract")]
    fn sigmoid_holds_its_contract_on_every_input() {
        // What the libm-based `1/(1 + exp(−x))` returned, with a correctly
        // rounded `exp` so that the expectation does not depend on the host.
        let libm_form = |x: f32| 1.0 / (1.0 + (-f64::from(x)).exp() as f32);
        let sweep = (-110_000..=110_000).map(|i| i as f32 * 1e-3);
        let edges = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN, 1e-6, -1e-6];
        // Ulp by ulp around every threshold: the flush to zero, both
        // saturation points of the libm form, and the origin.
        let dense = floats(87.3, 87.4, 1)
            .chain(floats(16.63, 16.64, 1))
            .chain(floats(88.72, 88.73, 1))
            .chain(floats(1e-45, 1e-37, 9973))
            .chain(floats(1e-37, 120.0, 99_991));
        for x in sweep.chain(edges).chain(dense) {
            let (got, want) = (sigmoid(x), sigmoid64(x));
            assert!((0.0..=1.0).contains(&got), "sigmoid({x:e}) = {got:e}");
            if want >= f64::from(f32::MIN_POSITIVE) {
                let err = (f64::from(got) - want).abs();
                assert!(err <= 2.0 * ulp(want), "sigmoid({x:e}) = {got:e}, want {want:e}");
            } else {
                assert_eq!(got, 0.0, "sigmoid({x:e}) must flush to zero, not to a subnormal");
            }
            let old = libm_form(x);
            if old == 0.0 || old == 1.0 {
                assert_eq!(got, old, "sigmoid({x:e}) must saturate where 1/(1 + exp(-x)) did");
            }
            // The straight-through threshold keeps its meaning.
            assert!(got >= 0.5 || x < 0.0, "sigmoid({x:e}) = {got:e} is below 1/2");
            assert!(got < 0.5 || x > -1e-6, "sigmoid({x:e}) = {got:e} is not below 1/2");
        }
        assert_eq!(sigmoid(0.0), 0.5);
    }

    /// Both functions are IEEE arithmetic only, so these bit patterns hold
    /// on every host and toolchain.
    #[test]
    fn logit_and_sigmoid_bits_are_pinned() {
        let logits: [(f32, u32); 16] = [
            (f32::EPSILON, 0xc17f_1402),
            (1e-5, 0xc138_34e7),
            (1e-3, 0xc0dd_0423),
            (0.1, 0xc00c_9f54),
            (0.25, 0xbf8c_9f54),
            (0.3, 0xbf58_e882),
            (0.499_999_97, 0xb400_0000),
            (0.5, 0x0000_0000),
            (0.500_000_06, 0x3480_0000),
            (0.6, 0x3ecf_9923),
            (0.731_058_6, 0x3f80_0001),
            (0.75, 0x3f8c_9f54),
            (0.9, 0x400c_9f53),
            (0.99, 0x4093_0b3b),
            (0.999_999, 0x415c_d64b),
            (1.0 - f32::EPSILON, 0x417f_1402),
        ];
        for (u, bits) in logits {
            assert_eq!(logit(u).to_bits(), bits, "logit({u:e}) = {:e}", logit(u));
        }
        let sigmoids: [(f32, u32); 16] = [
            (-87.336_54, 0x0080_0026),
            (-87.0, 0x00b3_3687),
            (-50.0, 0x1b69_2beb),
            (-20.0, 0x310d_a433),
            (-10.0, 0x383e_6998),
            (-3.3, 0x3d11_b319),
            (-1.0, 0x3e89_b2b1),
            (-1e-3, 0x3eff_df3c),
            (0.0, 0x3f00_0000),
            (0.5, 0x3f1f_597f),
            (1.0, 0x3f3b_26a8),
            (3.3, 0x3f76_e4cf),
            (5.0, 0x3f7e_4961),
            (10.0, 0x3f7f_fd06),
            (16.6, 0x3f7f_fffe),
            (17.0, 0x3f80_0000),
        ];
        for (x, bits) in sigmoids {
            assert_eq!(sigmoid(x).to_bits(), bits, "sigmoid({x:e}) = {:e}", sigmoid(x));
        }
    }

    /// Whether [`GumbelSample::binarize`] spikes at each of `xs` (as the
    /// argument `(l + g)/τ`, with `g = 0` and `τ = 1`) exactly where
    /// `sigmoid(x) ≥ ½`; the first `x` where it does not, if any.
    fn first_ste_mismatch(xs: impl Iterator<Item = f32>) -> Option<f32> {
        let xs: Vec<f32> = xs.collect();
        let logits = Tensor::from_vec(Shape::d1(xs.len()), xs).unwrap();
        let mut sample = GumbelSample::unsampled(&logits);
        sample.binarize(&vec![0.0; logits.len()], &logits, 1.0);
        let spikes = sample.binary.as_slice().iter().map(|&b| b > 0.5);
        logits.as_slice().iter().zip(spikes).find(|&(&x, b)| b != (sigmoid(x) >= 0.5)).map(|p| *p.0)
    }

    #[test]
    fn binarize_spikes_exactly_where_sigmoid_reaches_one_half() {
        // Every bit pattern within 4096 of the threshold, of both zeros
        // and of both ends of sigmoid's clamp, then a stride through all
        // 2³² (NaNs included: no spike on either side).
        let around = |x: f32| {
            (-4096..=4096).map(move |d| f32::from_bits(x.to_bits().wrapping_add_signed(d)))
        };
        let near = [-f32::EPSILON, 0.0, -0.0, 88.0, -88.0].into_iter().flat_map(around);
        assert_eq!(first_ste_mismatch(near), None);
        let strided = (0..=u32::MAX).step_by(65_537).map(f32::from_bits);
        assert_eq!(first_ste_mismatch(strided), None);
        // `sigmoid` is ½, not below, on the 2⁻²³ just left of 0.
        assert_eq!(sigmoid(-f32::EPSILON).to_bits(), 0.5f32.to_bits());
        assert!(sigmoid(f32::from_bits((-f32::EPSILON).to_bits() + 1)) < 0.5);
    }

    /// All 2³² patterns, and every one on `[−2⁻²³, −0]` gives exactly ½;
    /// about a minute in release on one x86-64 core:
    /// `cargo test --release -p snn-model --lib -- --ignored binarize_agrees`.
    #[test]
    #[ignore = "exhaustive over every f32; run by hand after touching sigmoid or binarize"]
    fn binarize_agrees_with_sigmoid_on_every_f32() {
        for high in 0..=u16::MAX {
            let xs =
                (0..=u16::MAX).map(|low| f32::from_bits(u32::from(high) << 16 | u32::from(low)));
            assert_eq!(first_ste_mismatch(xs), None);
        }
        // Exactly ½, not more, on the negative side of the threshold.
        for bits in (-0.0f32).to_bits()..=(-f32::EPSILON).to_bits() {
            assert_eq!(sigmoid(f32::from_bits(bits)).to_bits(), 0.5f32.to_bits(), "{bits:#x}");
        }
    }

    proptest::proptest! {
        /// One sample made whole equals its two halves made one after the
        /// other, to the bit, and both equal the fused spelling: `σ`,
        /// then the threshold on `σ`.
        #[test]
        fn relax_is_binarize_then_soften(
            seed in 0u64..1 << 32,
            len in 1usize..600,
            tau in 0.05f32..2.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut logits = snn_tensor::init::uniform(&mut rng, Shape::d1(len), -6.0, 6.0);
            let mut noise = vec![0.0; len];
            logistic_noise(&mut rng, &mut noise);
            // Every seventh argument lands on or next to the threshold.
            for (l, g) in logits.as_mut_slice().iter_mut().zip(&noise).step_by(7) {
                *l = -g + rng.gen_range(-2.0f32..2.0) * f32::EPSILON;
            }
            let mut whole = GumbelSample::unsampled(&logits);
            whole.relax(&noise, &logits, tau);
            let mut halves = GumbelSample::unsampled(&logits);
            halves.binarize(&noise, &logits, tau);
            soften(&mut halves.soft, &noise, &logits, tau);
            let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&whole.soft), bits(&halves.soft));
            proptest::prop_assert_eq!(bits(&whole.binary), bits(&halves.binary));
            proptest::prop_assert_eq!(whole.tau().to_bits(), halves.tau().to_bits());
            for ((&l, &g), (&soft, &spike)) in logits.as_slice().iter().zip(&noise)
                .zip(whole.soft.as_slice().iter().zip(whole.binary.as_slice()))
            {
                proptest::prop_assert_eq!(soft.to_bits(), sigmoid((l + g) / tau).to_bits());
                proptest::prop_assert_eq!(spike > 0.5, soft >= 0.5);
            }
        }
    }

    #[test]
    fn noise_is_logistic() {
        let mut rng = StdRng::seed_from_u64(2024);
        let n = 1_000_000;
        let quantiles = [-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0];
        let mut below = [0u32; 9];
        let (mut sum, mut squares) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let g = logit(rng.gen_range(f32::EPSILON..(1.0 - f32::EPSILON)));
            sum += f64::from(g);
            squares += f64::from(g) * f64::from(g);
            for (count, &q) in below.iter_mut().zip(&quantiles) {
                *count += u32::from(g <= q);
            }
        }
        let mean = sum / f64::from(n);
        let variance = squares / f64::from(n) - mean * mean;
        let logistic_variance = std::f64::consts::PI.powi(2) / 3.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((variance / logistic_variance - 1.0).abs() < 0.01, "variance {variance}");
        for (&count, &q) in below.iter().zip(&quantiles) {
            let cdf = f64::from(count) / f64::from(n);
            assert!((cdf - sigmoid64(q)).abs() < 0.003, "P(g <= {q}) = {cdf}");
        }
    }

    #[test]
    fn logistic_noise_draws_one_uniform_per_element_in_order() {
        // 519 elements: two full blocks of 256 and a partial one.
        let mut noise = vec![0.0f32; 519];
        let mut sampled = StdRng::seed_from_u64(9);
        let mut drawn = sampled.clone();
        logistic_noise(&mut sampled, &mut noise);
        for g in &noise {
            let u: f32 = drawn.gen_range(f32::EPSILON..(1.0 - f32::EPSILON));
            assert_eq!(g.to_bits(), logit(u).to_bits());
        }
        assert_eq!(sampled.gen::<u64>(), drawn.gen::<u64>());
    }
}
