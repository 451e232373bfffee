//! Information-coding utilities: rate coding and time-to-first-spike
//! coding.
//!
//! The paper's algorithm is explicitly coding-agnostic (Section I); these
//! encoders let tests and examples exercise both schemes on arbitrary
//! real-valued feature vectors.

use rand::Rng;
use snn_tensor::{Shape, Tensor};

/// Rate coding: feature `v ∈ [0, 1]` spikes each tick with probability
/// `v`, over `steps` ticks.
///
/// # Panics
///
/// Panics if any value is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_datasets::encoding::rate_encode;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let t = rate_encode(&mut rng, &[0.0, 1.0], 50);
/// assert_eq!(t.shape().dims(), &[50, 2]);
/// assert_eq!(t.as_slice().iter().step_by(2).sum::<f32>(), 0.0); // v = 0 never fires
/// ```
pub fn rate_encode(rng: &mut impl Rng, values: &[f32], steps: usize) -> Tensor {
    assert!(values.iter().all(|v| (0.0..=1.0).contains(v)), "rate coding expects values in [0, 1]");
    let n = values.len();
    let mut out = Tensor::zeros(Shape::d2(steps, n));
    let data = out.as_mut_slice();
    for t in 0..steps {
        for (i, &v) in values.iter().enumerate() {
            if rng.gen::<f32>() < v {
                data[t * n + i] = 1.0;
            }
        }
    }
    out
}

/// Time-to-first-spike coding: feature `v ∈ [0, 1]` emits exactly one
/// spike at tick `round((1 − v)·(steps − 1))` — stronger features fire
/// earlier. Features equal to 0 stay silent.
///
/// # Panics
///
/// Panics if any value is outside `[0, 1]` or `steps == 0`.
pub fn ttfs_encode(values: &[f32], steps: usize) -> Tensor {
    assert!(steps > 0, "ttfs coding needs at least one tick");
    assert!(values.iter().all(|v| (0.0..=1.0).contains(v)), "ttfs coding expects values in [0, 1]");
    let n = values.len();
    let mut out = Tensor::zeros(Shape::d2(steps, n));
    for (i, &v) in values.iter().enumerate() {
        if v <= 0.0 {
            continue;
        }
        let t = ((1.0 - v) * (steps - 1) as f32).round() as usize;
        *out.at_mut(&[t, i]) = 1.0;
    }
    out
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rate_matches_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = rate_encode(&mut rng, &[0.25], 10_000);
        let rate = t.sum() / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn rate_rejects_out_of_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rate_encode(&mut rng, &[1.5], 10);
    }

    #[test]
    fn ttfs_orders_by_strength() {
        let t = ttfs_encode(&[1.0, 0.5, 0.1], 11);
        // strongest fires first
        assert_eq!(t[[0, 0]], 1.0);
        assert_eq!(t[[5, 1]], 1.0);
        assert_eq!(t[[9, 2]], 1.0);
        assert_eq!(t.sum(), 3.0);
    }

    #[test]
    fn ttfs_silences_zero_features() {
        let t = ttfs_encode(&[0.0, 0.0], 5);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn ttfs_is_one_spike_per_active_feature() {
        let t = ttfs_encode(&[0.3, 0.9, 0.0, 0.6], 20);
        assert_eq!(t.sum(), 3.0);
        assert!(t.is_binary());
    }
}
