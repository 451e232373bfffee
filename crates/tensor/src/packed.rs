//! Bit-packed SWAR primitives for lane-parallel spike processing.
//!
//! The packed fault-simulation engine (`snn-faults`) evaluates up to 64
//! fault variants per pass by assigning each variant a bit *lane* inside
//! a `u64` word: word `w[j]` holds, at bit `l`, lane `l`'s binary spike
//! of feature `j` at one tick. This module provides the word-level
//! kernels that engine builds on:
//!
//! * [`lane_matvec`] — a dense weight times one lane's spike bits, as the
//!   sum of the transposed weight's columns at the set bits:
//!   **bit-identical** to [`ops::matvec`](crate::ops::matvec) over the
//!   same spikes, at a cost that follows how many there are;
//! * [`row_dot`] — the plain `f32` row product, literally `matvec`
//!   restricted to a single output row (a recurrent fault site's patched
//!   row, whose input may be fractional behind an average-pooling layer);
//! * [`broadcast_row`] / [`set_lane_bit`] / [`unpack_lane`] — word
//!   construction from a golden binary row plus per-lane overrides, and
//!   the way back to one lane's `f32` row;
//! * [`row_diff_mask`] — which lanes' spike rows differ from the golden
//!   row, the divergence test that picks the lanes a layer behind the
//!   fault steps together, and the ticks at which each one's drive is
//!   recomputed.
//!
//! # Why `lane_matvec` is exact
//!
//! `ops::matvec` accumulates `acc += w[j] * x[j]` in ascending `j` with
//! `acc` starting at `+0.0` and no FMA. With binary spikes
//! (`x[j] ∈ {0.0, 1.0}`), the term is either `w[j]` exactly or `±0.0`
//! (the sign of `w[j]`). Under round-to-nearest-even, `acc` can never
//! become `-0.0`: it starts at `+0.0`, `+0.0 + (±0.0) = +0.0`, and any
//! exactly-cancelling sum `x + (-x)` rounds to `+0.0`. Adding any zero
//! to a value that is not `-0.0` leaves its bits unchanged, so skipping
//! zero-spike terms is bitwise identical to adding them. [`lane_matvec`]
//! skips them a column at a time: output `r` receives `w[r][j]` for the
//! set bits `j` in ascending order — the non-zero terms of `matvec`'s row
//! `r`, in `matvec`'s order — and `w · 1.0` is `w` exactly.

use crate::sanitize::debug_assert_finite;

/// Number of bit lanes in one packed word.
pub const LANES: usize = 64;

/// Matrix–vector product of one lane's spike bits with a dense weight,
/// from the weight's [`transposed`](crate::ops::transposed) copy `wt`
/// (`[words.len() × y.len()]`): `y = Σ_j Wᵀ[j, :]` over the set bits `j`
/// of `lane` in `words`, columns in ascending `j` — for every output the
/// additions `matvec` makes over the same spikes, in `matvec`'s order,
/// hence its bits (see the module docs for the `±0.0` argument).
///
/// # Panics
///
/// Panics if `wt.len() != words.len() * y.len()`, and in debug builds on
/// a non-finite weight or `lane >= 64`.
#[inline]
pub fn lane_matvec(wt: &[f32], words: &[u64], lane: u32, y: &mut [f32]) {
    assert_eq!(wt.len(), words.len() * y.len(), "lane_matvec weight length mismatch");
    debug_assert!((lane as usize) < LANES, "lane out of range");
    debug_assert_finite("lane_matvec", "wt", wt);
    y.fill(0.0);
    for (word, col) in words.iter().zip(wt.chunks_exact(y.len().max(1))) {
        if (word >> lane) & 1 == 1 {
            for (acc, wv) in y.iter_mut().zip(col) {
                *acc += wv;
            }
        }
    }
}

/// Dot product of one weight row with an `f32` input row — exactly the
/// computation [`ops::matvec`](crate::ops::matvec) performs for a single
/// output row. The packed engine calls it for a recurrent fault site's
/// patched row, the one neuron it steps alone; a dense layer's weight
/// faults go together, their patched rows transposed into one matrix for
/// [`ops::matvec_skip_zeros`](crate::ops::matvec_skip_zeros).
///
/// # Panics
///
/// Panics in debug builds on length mismatch or non-finite operands.
#[inline]
pub fn row_dot(row: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(row.len(), x.len(), "row_dot operand length mismatch");
    debug_assert_finite("row_dot", "row", row);
    debug_assert_finite("row_dot", "x", x);
    let mut acc = 0.0f32;
    for (wv, xv) in row.iter().zip(x.iter()) {
        acc += wv * xv;
    }
    acc
}

/// Fills `words` from a golden binary row: `words[j]` is all-ones when
/// `golden[j]` spikes and all-zeroes otherwise (every lane carries the
/// golden bit).
///
/// # Panics
///
/// Panics in debug builds on length mismatch or a non-binary golden
/// value (packed lanes hold spikes, not rates).
#[inline]
pub fn broadcast_row(golden: &[f32], words: &mut [u64]) {
    debug_assert_eq!(golden.len(), words.len(), "broadcast_row length mismatch");
    crate::sanitize::debug_assert_binary("broadcast_row", "golden", golden);
    for (word, g) in words.iter_mut().zip(golden.iter()) {
        *word = if *g != 0.0 { u64::MAX } else { 0 };
    }
}

/// Sets or clears bit `lane` of `word`.
///
/// # Panics
///
/// Panics in debug builds if `lane >= 64`.
#[inline]
pub fn set_lane_bit(word: &mut u64, lane: u32, on: bool) {
    debug_assert!((lane as usize) < LANES, "lane out of range");
    if on {
        *word |= 1u64 << lane;
    } else {
        *word &= !(1u64 << lane);
    }
}

/// Expands one lane of `words` into an `f32` spike row: `out[j]` is `1.0`
/// where bit `lane` of `words[j]` is set and `0.0` elsewhere — the row
/// a scalar kernel (pooling, convolution) consumes for that lane. The bit
/// is converted as an integer, a form the compiler vectorises.
///
/// # Panics
///
/// Panics in debug builds on length mismatch or `lane >= 64`.
#[inline]
pub fn unpack_lane(words: &[u64], lane: u32, out: &mut [f32]) {
    debug_assert_eq!(out.len(), words.len(), "unpack_lane length mismatch");
    debug_assert!((lane as usize) < LANES, "lane out of range");
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        reason = "the masked bit is 0 or 1, exact in u32 and in f32"
    )]
    for (o, word) in out.iter_mut().zip(words.iter()) {
        *o = (((word >> lane) as u32) & 1) as f32;
    }
}

/// Which of the `active` lanes differ from the golden binary row
/// anywhere in this feature row: bit `l` of the result is set iff lane
/// `l`'s spikes in `words` are not feature-for-feature equal to
/// `golden`.
///
/// # Panics
///
/// Panics in debug builds on length mismatch or a non-binary golden
/// value.
#[inline]
pub fn row_diff_mask(words: &[u64], golden: &[f32], active: u64) -> u64 {
    debug_assert_eq!(golden.len(), words.len(), "row_diff_mask length mismatch");
    crate::sanitize::debug_assert_binary("row_diff_mask", "golden", golden);
    let mut diff = 0u64;
    for (word, g) in words.iter().zip(golden.iter()) {
        let bcast = if *g != 0.0 { u64::MAX } else { 0 };
        diff |= word ^ bcast;
    }
    diff & active
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, Shape, Tensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Packs per-lane binary spike rows (lane-major) into words.
    fn pack(rows: &[Vec<f32>]) -> Vec<u64> {
        let n = rows[0].len();
        let mut words = vec![0u64; n];
        for (l, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                set_lane_bit(&mut words[j], u32::try_from(l).unwrap(), *v != 0.0);
            }
        }
        words
    }

    /// Column sums over a lane's set bits against `matvec` over the same
    /// spikes: every density from silent to saturated, weights that are
    /// `-0.0` or cancel exactly (the accumulator passes through zero),
    /// output widths on both sides of the vector width, and the lanes at
    /// either end of the word among the five packed.
    #[test]
    fn lane_matvec_is_bitwise_identical_to_matvec() {
        let mut rng = StdRng::seed_from_u64(9);
        let lanes_used = [0u32, 1, 31, 62, 63];
        for case in 0..60 {
            let cols = rng.gen_range(1..40);
            let rows = [1, 2, 3, 5, 7, 8, 10, 13, 33][case % 9];
            let mut w = crate::init::uniform(&mut rng, Shape::d2(rows, cols), -1.0, 1.0);
            for r in 0..rows {
                let row = &mut w.as_mut_slice()[r * cols..(r + 1) * cols];
                for c in 0..cols {
                    match rng.gen_range(0..8) {
                        0 => row[c] = -0.0,
                        1 if c > 0 => row[c] = -row[c - 1],
                        _ => {}
                    }
                }
            }
            let density = [0.0, 0.05, 0.5, 0.95, 1.0][case % 5];
            let mut words = vec![0u64; cols];
            let lanes: Vec<Vec<f32>> = lanes_used
                .iter()
                .map(|&lane| {
                    let x: Vec<f32> =
                        (0..cols).map(|_| f32::from(u8::from(rng.gen_bool(density)))).collect();
                    for (word, v) in words.iter_mut().zip(&x) {
                        set_lane_bit(word, lane, *v != 0.0);
                    }
                    x
                })
                .collect();
            let wt = ops::transposed(&w);
            for (&lane, x) in lanes_used.iter().zip(&lanes) {
                let mut want = vec![0.0f32; rows];
                ops::matvec(&w, x, &mut want);
                let mut got = vec![f32::NAN; rows];
                lane_matvec(&wt, &words, lane, &mut got);
                for (r, (g, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), y.to_bits(), "case {case} row {r} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn row_dot_matches_matvec_on_fractional_inputs() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = crate::init::uniform(&mut rng, Shape::d2(4, 9), -1.0, 1.0);
        let x: Vec<f32> = (0..9).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut y = vec![0.0f32; 4];
        ops::matvec(&w, &x, &mut y);
        for (r, yr) in y.iter().enumerate() {
            let row = &w.as_slice()[r * 9..(r + 1) * 9];
            assert_eq!(row_dot(row, &x).to_bits(), yr.to_bits());
        }
    }

    #[test]
    fn broadcast_and_diff_mask_round_trip() {
        let golden = vec![1.0, 0.0, 0.0, 1.0, 1.0];
        let mut words = vec![0u64; 5];
        broadcast_row(&golden, &mut words);
        assert_eq!(row_diff_mask(&words, &golden, u64::MAX), 0);
        // Perturb lane 3 at feature 1 and lane 7 at feature 4.
        set_lane_bit(&mut words[1], 3, true);
        set_lane_bit(&mut words[4], 7, false);
        let diff = row_diff_mask(&words, &golden, u64::MAX);
        assert_eq!(diff, (1 << 3) | (1 << 7));
        // An inactive lane's divergence is masked out.
        assert_eq!(row_diff_mask(&words, &golden, 1 << 3), 1 << 3);
    }

    #[test]
    fn unpack_lane_inverts_packing() {
        let rows = vec![vec![1.0, 0.0, 1.0, 1.0], vec![0.0, 0.0, 1.0, 0.0]];
        let words = pack(&rows);
        let mut out = vec![0.5f32; 4];
        for (l, row) in rows.iter().enumerate() {
            unpack_lane(&words, u32::try_from(l).unwrap(), &mut out);
            assert_eq!(&out, row);
        }
    }

    #[test]
    fn zero_tensor_stays_out_of_every_lane() {
        let z = Tensor::zeros(Shape::d2(1, 6));
        let mut words = vec![u64::MAX; 6];
        broadcast_row(z.as_slice(), &mut words);
        assert!(words.iter().all(|&w| w == 0));
    }
}
