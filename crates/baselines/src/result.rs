use serde::{Deserialize, Serialize};
use snn_tensor::Tensor;
use std::time::Duration;

/// Shared knobs of all baseline generators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Stop once this fraction of the supplied fault list is detected.
    pub target_coverage: f64,
    /// Hard cap on the number of selected inputs.
    pub max_inputs: usize,
    /// Worker threads for the embedded fault simulations (0 = all cores).
    pub threads: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self { target_coverage: 0.99, max_inputs: 500, threads: 0 }
    }
}

/// Output of a baseline test generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineResult {
    /// Selected test inputs, in selection order.
    pub inputs: Vec<Tensor>,
    /// Per-fault detection by the selected set (aligned with the fault
    /// list passed to the generator).
    pub detected: Vec<bool>,
    /// Wall-clock generation time (including all embedded fault
    /// simulation).
    pub generation_time: Duration,
    /// Fault coverage after each selection — the greedy saturation curve.
    pub coverage_history: Vec<f64>,
    /// Number of fault-simulation campaigns the generator had to run —
    /// the `O(M·T_FS)` term the paper's method eliminates.
    pub fault_sim_campaigns: usize,
}

impl BaselineResult {
    /// Final fault coverage over the supplied fault list.
    pub fn coverage(&self) -> f64 {
        if self.detected.is_empty() {
            return 0.0;
        }
        self.detected.iter().filter(|&&d| d).count() as f64 / self.detected.len() as f64
    }

    /// Total test application duration in ticks (inputs are applied
    /// back-to-back with an equal-length reset gap between consecutive
    /// inputs, matching the Eq. 8 accounting used for the proposed test).
    pub fn test_steps(&self) -> usize {
        let d = self.inputs.len();
        self.inputs
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let steps = t.shape().dim(0);
                if j + 1 < d {
                    2 * steps
                } else {
                    steps
                }
            })
            .sum()
    }

    /// Test duration in dataset-sample lengths.
    ///
    /// # Panics
    ///
    /// Panics if `sample_steps` is zero.
    pub fn duration_samples(&self, sample_steps: usize) -> f64 {
        assert!(sample_steps > 0, "sample length must be positive");
        self.test_steps() as f64 / sample_steps as f64
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use snn_tensor::Shape;

    #[test]
    fn coverage_and_steps_accounting() {
        let r = BaselineResult {
            inputs: vec![Tensor::zeros(Shape::d2(10, 2)), Tensor::zeros(Shape::d2(10, 2))],
            detected: vec![true, false, true, true],
            generation_time: Duration::from_secs(1),
            coverage_history: vec![0.5, 0.75],
            fault_sim_campaigns: 7,
        };
        assert!((r.coverage() - 0.75).abs() < 1e-12);
        assert_eq!(r.test_steps(), 30); // 2·10 + 10
        assert!((r.duration_samples(10) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_zero_coverage() {
        let r = BaselineResult {
            inputs: vec![],
            detected: vec![],
            generation_time: Duration::ZERO,
            coverage_history: vec![],
            fault_sim_campaigns: 0,
        };
        assert_eq!(r.coverage(), 0.0);
        assert_eq!(r.test_steps(), 0);
    }
}
