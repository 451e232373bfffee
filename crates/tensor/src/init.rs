//! Reproducible random tensor initializers.
//!
//! All initializers take an explicit [`rand::Rng`] so that every experiment
//! in the workspace is seedable end-to-end — a hard requirement for a test
//! generation flow whose outputs must be reproducible across runs.

use crate::{Shape, Tensor};
use rand::Rng;

/// Uniform initialization in `[lo, hi)`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_tensor::{init, Shape};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let t = init::uniform(&mut rng, Shape::d2(4, 4), -1.0, 1.0);
/// assert!(t.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
/// ```
#[expect(
    clippy::expect_used,
    reason = "the iterator yields exactly shape.len() elements, so from_vec cannot fail"
)]
pub fn uniform(rng: &mut impl Rng, shape: impl Into<Shape>, lo: f32, hi: f32) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(shape, data).expect("length matches by construction")
}

/// Gaussian initialization with the given mean and standard deviation,
/// using the Box–Muller transform (avoids a dependency on `rand_distr`).
#[expect(
    clippy::expect_used,
    reason = "the loop above pushes exactly shape.len() elements, so from_vec cannot fail"
)]
pub fn normal(rng: &mut impl Rng, shape: impl Into<Shape>, mean: f32, std: f32) -> Tensor {
    let shape = shape.into();
    let n = shape.len();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(mean + std * r * theta.cos());
        if data.len() < n {
            data.push(mean + std * r * theta.sin());
        }
    }
    Tensor::from_vec(shape, data).expect("length matches by construction")
}

/// Kaiming-style initialization for a layer with `fan_in` inputs:
/// normal with standard deviation `gain / sqrt(fan_in)`.
///
/// This is the standard initialization for surrogate-gradient SNN training,
/// where the membrane potential accumulates `fan_in` weighted spikes per
/// step and must stay within a few thresholds of zero.
pub fn kaiming(rng: &mut impl Rng, shape: impl Into<Shape>, fan_in: usize, gain: f32) -> Tensor {
    #[expect(
        clippy::cast_precision_loss,
        reason = "fan_in is a layer width, far below f32's 2^24 exact-integer limit"
    )]
    let std = gain / (fan_in.max(1) as f32).sqrt();
    normal(rng, shape, 0.0, std)
}

/// Bernoulli spike-tensor initialization: each element is 1.0 with
/// probability `p`, otherwise 0.0.
#[expect(
    clippy::expect_used,
    reason = "the iterator yields exactly shape.len() elements, so from_vec cannot fail"
)]
pub fn bernoulli(rng: &mut impl Rng, shape: impl Into<Shape>, p: f32) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.len()).map(|_| if rng.gen::<f32>() < p { 1.0 } else { 0.0 }).collect();
    Tensor::from_vec(shape, data).expect("length matches by construction")
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform(&mut rng, Shape::d1(1000), -0.5, 0.5);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = uniform(&mut StdRng::seed_from_u64(42), Shape::d1(16), 0.0, 1.0);
        let b = uniform(&mut StdRng::seed_from_u64(42), Shape::d1(16), 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = normal(&mut rng, Shape::d1(20_000), 1.0, 2.0);
        let mean = t.mean();
        let var =
            t.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std={}", var.sqrt());
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = kaiming(&mut rng, Shape::d1(20_000), 100, 1.0);
        let std = (t.as_slice().iter().map(|v| v * v).sum::<f32>() / t.len() as f32).sqrt();
        assert!((std - 0.1).abs() < 0.02, "std={std}");
    }

    #[test]
    fn bernoulli_produces_binary_with_right_rate() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = bernoulli(&mut rng, Shape::d1(20_000), 0.3);
        assert!(t.is_binary());
        let rate = t.sum() / t.len() as f32;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(bernoulli(&mut rng, Shape::d1(64), 0.0).sum(), 0.0);
        assert_eq!(bernoulli(&mut rng, Shape::d1(64), 1.0).sum(), 64.0);
    }
}
