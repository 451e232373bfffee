//! Statistical fault-coverage estimation.
//!
//! At paper scale the IBM universe holds 3.2 M faults; even a prefix-
//! cached campaign is expensive to run exhaustively after every change.
//! Industrial fault grading answers this with *fault sampling*: simulate
//! a uniform random sample and report the coverage with a confidence
//! interval. The estimator here uses the Wilson score interval, which
//! behaves well near 0% and 100% coverage — exactly where the paper's
//! results live.

use crate::{FaultSimulator, FaultUniverse};
use rand::Rng;
use serde::{Deserialize, Serialize};
use snn_tensor::Tensor;

/// A sampled fault-coverage estimate with its 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageEstimate {
    /// Point estimate of the fault coverage in `[0, 1]`.
    pub fc: f64,
    /// Lower bound of the 95% Wilson interval.
    pub lo: f64,
    /// Upper bound of the 95% Wilson interval.
    pub hi: f64,
    /// Faults simulated.
    pub sampled: usize,
    /// Faults in the universe the sample was drawn from.
    pub universe: usize,
}

impl std::fmt::Display for CoverageEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2}% (95% CI [{:.2}%, {:.2}%], n={}/{})",
            self.fc * 100.0,
            self.lo * 100.0,
            self.hi * 100.0,
            self.sampled,
            self.universe
        )
    }
}

/// Wilson score interval for a binomial proportion at z = 1.96.
#[expect(
    clippy::cast_precision_loss,
    reason = "sample counts are far below 2^53, so they convert exactly"
)]
pub(crate) fn wilson(successes: usize, n: usize) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959_964f64;
    let n_f = n as f64;
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let centre = p + z2 / (2.0 * n_f);
    let spread = z * (p * (1.0 - p) / n_f + z2 / (4.0 * n_f * n_f)).sqrt();
    (((centre - spread) / denom).max(0.0), ((centre + spread) / denom).min(1.0))
}

/// Estimates the fault coverage of `tests` by simulating a uniform sample
/// of `sample_size` faults from `universe`.
///
/// # Panics
///
/// Panics if `tests` is empty or `sample_size` is zero.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_faults::{estimate_coverage, FaultSimConfig, FaultSimulator, FaultUniverse};
/// use snn_model::{LifParams, NetworkBuilder};
/// use snn_tensor::Shape;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(4, LifParams::default()).dense(6).dense(2).build(&mut rng);
/// let universe = FaultUniverse::standard(&net);
/// let sim = FaultSimulator::new(&net, FaultSimConfig::default());
/// let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 4), 0.5);
///
/// let est = estimate_coverage(&sim, &universe, std::slice::from_ref(&test), 100, &mut rng);
/// assert!(est.lo <= est.fc && est.fc <= est.hi);
/// ```
pub fn estimate_coverage(
    sim: &FaultSimulator<'_>,
    universe: &FaultUniverse,
    tests: &[Tensor],
    sample_size: usize,
    rng: &mut impl Rng,
) -> CoverageEstimate {
    assert!(!tests.is_empty(), "estimation needs at least one test input");
    assert!(sample_size > 0, "sample size must be positive");
    let faults = universe.sample(rng, sample_size);
    if faults.is_empty() {
        // An empty universe (e.g. a pool-only network) has no faults to
        // detect; report 0.0 rather than 0/0 = NaN.
        return CoverageEstimate { fc: 0.0, lo: 0.0, hi: 1.0, sampled: 0, universe: 0 };
    }
    let outcome = sim.detect(universe, &faults, tests);
    let detected = outcome.detected_count();
    let n = faults.len();
    let (lo, hi) = wilson(detected, n);
    CoverageEstimate {
        #[expect(
            clippy::cast_precision_loss,
            reason = "fault counts are far below 2^53, so they convert exactly"
        )]
        fc: detected as f64 / n as f64,
        lo,
        hi,
        sampled: n,
        universe: universe.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, FaultSimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};
    use snn_tensor::Shape;

    #[test]
    fn wilson_interval_basic_properties() {
        let (lo, hi) = wilson(50, 100);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.25);
        // extreme proportions stay inside [0, 1]
        let (lo0, hi0) = wilson(0, 100);
        assert!(lo0 >= 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.1);
        let (lo1, hi1) = wilson(100, 100);
        assert!(lo1 > 0.9 && hi1 <= 1.0);
        // empty sample: maximal uncertainty
        assert_eq!(wilson(0, 0), (0.0, 1.0));
    }

    #[test]
    fn wilson_narrows_with_sample_size() {
        let (lo_s, hi_s) = wilson(8, 10);
        let (lo_l, hi_l) = wilson(800, 1000);
        assert!(hi_l - lo_l < hi_s - lo_s);
    }

    #[test]
    fn estimate_brackets_the_exhaustive_coverage() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new(5, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(8)
            .dense(3)
            .build(&mut rng);
        let universe = FaultUniverse::standard(&net);
        let on = |engine| {
            let cfg = FaultSimConfig { threads: 1, engine: Some(engine), ..Default::default() };
            FaultSimulator::new(&net, cfg)
        };
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(25, 5), 0.5);
        let tests = std::slice::from_ref(&test);

        let exact = on(Engine::Scalar).detect(&universe, universe.faults(), tests).fault_coverage();
        let packed =
            estimate_coverage(&on(Engine::Packed), &universe, tests, 150, &mut rng.clone());
        let est = estimate_coverage(&on(Engine::Scalar), &universe, tests, 150, &mut rng);
        assert_eq!(est, packed, "same sample, same verdicts under either engine");
        assert!(
            est.lo <= exact && exact <= est.hi,
            "CI [{}, {}] misses exact {exact}",
            est.lo,
            est.hi
        );
        assert_eq!(est.sampled, 150);
        assert!(!est.to_string().is_empty());
    }

    #[test]
    fn full_sample_equals_exhaustive() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new(3, LifParams::default()).dense(4).build(&mut rng);
        let universe = FaultUniverse::standard(&net);
        let sim =
            FaultSimulator::new(&net, FaultSimConfig { threads: 1, ..FaultSimConfig::default() });
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(15, 3), 0.5);
        let tests = std::slice::from_ref(&test);
        let exact = sim.detect(&universe, universe.faults(), tests).fault_coverage();
        let est = estimate_coverage(&sim, &universe, tests, universe.len() * 2, &mut rng);
        assert!((est.fc - exact).abs() < 1e-12);
        assert_eq!(est.sampled, universe.len());
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "asserting the exact 0.0 sentinel")]
    fn empty_universe_reports_zero_coverage_not_nan() {
        // A pool-only network has no spiking neurons and no weights, so
        // its fault universe is empty.
        let net = snn_model::Network::new(
            Shape::d3(2, 4, 4),
            vec![snn_model::Layer::Pool(snn_model::PoolLayer::new(2, (4, 4), 2))],
        );
        let universe = FaultUniverse::standard(&net);
        assert!(universe.is_empty());
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(5, 32), 0.5);
        let est = estimate_coverage(&sim, &universe, std::slice::from_ref(&test), 10, &mut rng);
        assert_eq!(est.fc, 0.0);
        assert_eq!(est.sampled, 0);
        assert!(est.fc.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one test")]
    fn estimate_requires_tests() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(2, LifParams::default()).dense(2).build(&mut rng);
        let universe = FaultUniverse::standard(&net);
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let _ = estimate_coverage(&sim, &universe, &[], 10, &mut rng);
    }
}
