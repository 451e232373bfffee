//! The accuracy-impact campaign: evaluate every sampled fault
//! configuration against a labelled evaluation set, as (baseline,
//! faulty, mitigated) accuracy triples plus spike-activity deltas.
//!
//! ## Labelling
//!
//! The evaluation set is procedural (Bernoulli spike trains from the
//! spec's seed) and *oracle-labelled*: each sample's label is the clean
//! network's own top-1 prediction. Baseline accuracy is therefore 1.0 by
//! construction, and "accuracy drop" measures exactly the behavioural
//! divergence the fault causes — no training-set noise involved. This
//! also makes mitigation soundness exact: a mitigation that is the
//! identity on clean weights can never lower fault-free accuracy.
//!
//! ## Distribution
//!
//! Config outcomes are encoded as [`snn_faults::FaultOutcome`] values
//! (`fault_id` = config index, `class_diff` = the accuracy triple), so
//! the cluster's chunk planner, lease scheduler, merge and FNV-1a digest
//! apply unchanged — a distributed reliability campaign merges
//! bit-identically to a single-process run.

use crate::fault_map::{sample_config, FaultMapSpec};
use crate::mitigation::MitigationKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use snn_faults::progress::{CancelToken, Cancelled};
use snn_faults::{parallel, windowed_forward, FaultOutcome};
use snn_model::{Network, RecordOptions, Trace};
use snn_tensor::{Shape, Tensor};

/// Procedural evaluation-set specification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalSpec {
    /// Number of evaluation samples.
    pub samples: usize,
    /// Timesteps per sample.
    pub steps: usize,
    /// Input spike probability per (tick, feature).
    pub rate: f32,
    /// Seed of the evaluation-set stream (independent of the fault seed).
    pub seed: u64,
}

impl Default for EvalSpec {
    fn default() -> Self {
        Self { samples: 16, steps: 20, rate: 0.3, seed: 7 }
    }
}

/// A full reliability-campaign specification: the fault map, the
/// evaluation set and the mitigation under test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilitySpec {
    /// Fault-map regions, rates, sample count, seed and window.
    pub map: FaultMapSpec,
    /// Evaluation-set shape.
    pub eval: EvalSpec,
    /// Mitigation strategy evaluated alongside the unmitigated run.
    pub mitigation: MitigationKind,
}

impl ReliabilitySpec {
    /// Checks the spec against a concrete network.
    pub fn validate(&self, net: &Network) -> Result<(), String> {
        self.map.validate(net)?;
        if self.eval.samples == 0 {
            return Err("evaluation set has zero samples".into());
        }
        if self.eval.steps == 0 {
            return Err("evaluation samples have zero timesteps".into());
        }
        if !(0.0..=1.0).contains(&self.eval.rate) || self.eval.rate.is_nan() {
            return Err(format!("input rate {} outside [0, 1]", self.eval.rate));
        }
        // A window that is never live would report that the network lost
        // nothing; one that only runs past the end is cut at it.
        if let Some(w) = self.map.window {
            if w.is_empty() {
                return Err(format!("window [{}, {}) covers no tick", w.start, w.end));
            }
            if w.start >= self.eval.steps {
                return Err(format!(
                    "window [{}, {}) starts after the {}-tick samples",
                    w.start, w.end, self.eval.steps
                ));
            }
        }
        Ok(())
    }
}

/// Accuracy triple and activity delta of one evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigOutcome {
    /// Configuration index within the spec's sample set.
    pub config: usize,
    /// Samples the clean network classifies per its own oracle labels —
    /// always `samples` by construction; carried for report clarity.
    pub baseline_correct: usize,
    /// Samples still classified correctly under the unmitigated fault.
    pub faulty_correct: usize,
    /// Samples classified correctly under the mitigated fault.
    pub mitigated_correct: usize,
    /// Evaluation-set size.
    pub samples: usize,
    /// Summed L1 distance between faulty and baseline output spike
    /// trains across the evaluation set.
    pub spike_delta: f32,
}

impl ConfigOutcome {
    /// Unmitigated accuracy drop in `[0, 1]` (0.0 on an empty set).
    pub fn accuracy_drop(&self) -> f32 {
        fraction(
            self.baseline_correct - self.faulty_correct.min(self.baseline_correct),
            self.samples,
        )
    }

    /// Mitigated accuracy drop in `[0, 1]` (0.0 on an empty set).
    pub fn mitigated_drop(&self) -> f32 {
        fraction(
            self.baseline_correct - self.mitigated_correct.min(self.baseline_correct),
            self.samples,
        )
    }

    /// Encodes the outcome as a detection-campaign [`FaultOutcome`] so
    /// chunk planning, merging and the verdict digest apply unchanged:
    /// `fault_id` carries the config index, `detected` flags any accuracy
    /// loss, `distance` the spike delta, and `class_diff` the exact
    /// `[baseline, faulty, mitigated, samples]` counts (exact in f32 —
    /// evaluation sets are far below 2^24 samples).
    pub fn encode(&self) -> FaultOutcome {
        let counts = vec![
            self.baseline_correct as f32,
            self.faulty_correct as f32,
            self.mitigated_correct as f32,
            self.samples as f32,
        ];
        FaultOutcome {
            fault_id: self.config,
            detected: self.faulty_correct < self.baseline_correct,
            distance: self.spike_delta,
            class_diff: Some(counts),
        }
    }

    /// Decodes an outcome produced by [`ConfigOutcome::encode`]. The
    /// counts arrive from workers over the wire, so each must be a whole,
    /// non-negative number and no correct-count may exceed `samples`.
    pub fn decode(outcome: &FaultOutcome) -> Result<Self, String> {
        let config = outcome.fault_id;
        let counts = outcome
            .class_diff
            .as_ref()
            .ok_or_else(|| format!("config {config}: outcome carries no counts"))?;
        if counts.len() != 4 {
            return Err(format!(
                "config {config}: expected 4 encoded counts, found {}",
                counts.len()
            ));
        }
        let mut whole = [0usize; 4];
        for (slot, &c) in whole.iter_mut().zip(counts) {
            if !(c.is_finite() && c >= 0.0 && c.fract() == 0.0) {
                return Err(format!("config {config}: encoded count {c} is not a whole number"));
            }
            *slot = c as usize;
        }
        let [baseline_correct, faulty_correct, mitigated_correct, samples] = whole;
        if let Some(&over) = whole[..3].iter().find(|&&n| n > samples) {
            return Err(format!("config {config}: {over} correct of only {samples} samples"));
        }
        Ok(Self {
            config,
            baseline_correct,
            faulty_correct,
            mitigated_correct,
            samples,
            spike_delta: outcome.distance,
        })
    }
}

/// `num / den` guarding the empty denominator to 0.0, not NaN.
pub(crate) fn fraction(num: usize, den: usize) -> f32 {
    if den == 0 {
        return 0.0;
    }
    (num as f32) / (den as f32)
}

/// Generates the deterministic evaluation inputs of `spec` for a network
/// with `features` input features.
pub fn eval_inputs(spec: &EvalSpec, features: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.samples)
        .map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(spec.steps, features), spec.rate))
        .collect()
}

/// A prepared reliability campaign: the clean network, the evaluation
/// inputs, and the oracle labels/baseline traces computed once.
pub struct ReliabilityEvaluator {
    net: Network,
    spec: ReliabilitySpec,
    inputs: Vec<Tensor>,
    baselines: Vec<Trace>,
    predictions: Vec<usize>,
}

impl ReliabilityEvaluator {
    /// Prepares the campaign: validates the spec, generates the
    /// evaluation set and runs the clean baseline over it.
    pub fn new(net: Network, spec: ReliabilitySpec) -> Result<Self, String> {
        spec.validate(&net)?;
        let _span = snn_obs::span!("reliability.prepare");
        let inputs = eval_inputs(&spec.eval, net.input_features());
        let baselines: Vec<Trace> =
            inputs.iter().map(|s| net.forward(s, RecordOptions::spikes_only())).collect();
        let predictions: Vec<usize> = baselines.iter().map(Trace::predict).collect();
        Ok(Self { net, spec, inputs, baselines, predictions })
    }

    /// The campaign spec.
    pub fn spec(&self) -> &ReliabilitySpec {
        &self.spec
    }

    /// The clean network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Evaluates one configuration on a scratch clone of the network.
    ///
    /// Single-threaded and sequential over samples, so the f32 spike
    /// delta accumulates in a fixed order — the result is bit-identical
    /// no matter which worker or chunk evaluates the config.
    pub fn evaluate_config(&self, scratch: &mut Network, id: usize) -> ConfigOutcome {
        let started = snn_obs::clock::monotonic();
        let config = sample_config(&self.net, &self.spec.map, id);
        let raw = config.realize(&self.net);
        let mitigated = self.spec.mitigation.instance().patches(&self.net, &config);
        let window = self.spec.map.window;

        let samples = self.inputs.len();
        let mut faulty_correct = 0usize;
        let mut mitigated_correct = 0usize;
        let mut spike_delta = 0.0f32;
        for ((input, baseline), &label) in
            self.inputs.iter().zip(self.baselines.iter()).zip(self.predictions.iter())
        {
            let faulty = windowed_forward(
                &self.net,
                scratch,
                input,
                &raw,
                &config.neurons,
                window,
                RecordOptions::spikes_only(),
            );
            if faulty.predict() == label {
                faulty_correct += 1;
            }
            spike_delta += baseline.output_distance(&faulty);
            let shielded = windowed_forward(
                &self.net,
                scratch,
                input,
                &mitigated,
                &config.neurons,
                window,
                RecordOptions::spikes_only(),
            );
            if shielded.predict() == label {
                mitigated_correct += 1;
            }
        }

        snn_obs::counter!(
            "snn_reliability_configs_evaluated_total",
            "Fault configurations evaluated across reliability campaigns."
        )
        .inc();
        snn_obs::counter!(
            "snn_reliability_samples_total",
            "Evaluation samples simulated across reliability campaigns."
        )
        // Each sample runs faulty + mitigated.
        .add((samples * 2) as u64);
        snn_obs::histogram!(
            "snn_reliability_config_seconds",
            "Per-configuration evaluation time.",
            snn_obs::metrics::FINE_DURATION_BUCKETS
        )
        .observe_duration(snn_obs::clock::monotonic().saturating_sub(started));

        ConfigOutcome {
            config: id,
            baseline_correct: samples,
            faulty_correct,
            mitigated_correct,
            samples,
            spike_delta,
        }
    }

    /// Evaluates a range of configuration ids (a cluster chunk, or the
    /// whole campaign), encoded as mergeable [`FaultOutcome`]s.
    pub fn evaluate_chunk(
        &self,
        ids: std::ops::Range<usize>,
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<FaultOutcome>, Cancelled> {
        let mut span = snn_obs::span!("reliability.chunk");
        span.attr("configs", ids.len().to_string());
        parallel::try_map_indexed(
            ids.len(),
            threads,
            cancel,
            || self.net.clone(),
            |scratch, i| self.evaluate_config(scratch, ids.start + i).encode(),
        )
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact encoded counts")]
mod tests {
    use super::*;
    use crate::fault_map::WeightFaultModel;
    use rand::rngs::StdRng;
    use snn_faults::TransientWindow;
    use snn_model::{LifParams, NetworkBuilder};

    fn test_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        NetworkBuilder::new(4, LifParams::default()).dense(8).dense(3).build(&mut rng)
    }

    fn test_spec(net: &Network, ber: f32) -> ReliabilitySpec {
        ReliabilitySpec {
            map: FaultMapSpec::uniform(net, ber, 0.0, 6, 42, WeightFaultModel::StuckSat, None),
            eval: EvalSpec { samples: 4, steps: 12, rate: 0.4, seed: 9 },
            mitigation: MitigationKind::RangeRestriction,
        }
    }

    #[test]
    fn outcome_round_trips_through_fault_outcome() {
        let o = ConfigOutcome {
            config: 5,
            baseline_correct: 16,
            faulty_correct: 11,
            mitigated_correct: 14,
            samples: 16,
            spike_delta: 3.25,
        };
        let decoded = ConfigOutcome::decode(&o.encode()).unwrap();
        assert_eq!(decoded, o);
        assert!(o.encode().detected);
        assert_eq!(o.accuracy_drop(), 5.0 / 16.0);
        assert_eq!(o.mitigated_drop(), 2.0 / 16.0);
    }

    #[test]
    fn decode_rejects_foreign_outcomes() {
        let detection =
            FaultOutcome { fault_id: 0, detected: true, distance: 1.0, class_diff: None };
        assert!(ConfigOutcome::decode(&detection).is_err());
        let counts = |class_diff: Vec<f32>| FaultOutcome {
            fault_id: 3,
            detected: true,
            distance: 1.0,
            class_diff: Some(class_diff),
        };
        assert!(ConfigOutcome::decode(&counts(vec![1.0, 2.0])).is_err());
        // Counts a worker could not have produced: not a number, negative,
        // fractional, beyond any usize, or more correct than samples.
        for bad in [
            vec![4.0, f32::NAN, 4.0, 4.0],
            vec![4.0, -1.0, 4.0, 4.0],
            vec![4.0, 2.5, 4.0, 4.0],
            vec![4.0, 4.0, 1e30, 4.0],
            vec![4.0, 4.0, 4.0, f32::INFINITY],
            vec![5.0, 4.0, 4.0, 4.0],
            vec![4.0, 4.0, 6.0, 4.0],
        ] {
            let err = ConfigOutcome::decode(&counts(bad.clone())).unwrap_err();
            assert!(err.starts_with("config 3: ") && !err.contains('\n'), "{bad:?}: {err}");
        }
        assert!(ConfigOutcome::decode(&counts(vec![4.0, 0.0, 4.0, 4.0])).is_ok());
    }

    #[test]
    fn zero_ber_campaign_costs_no_accuracy() {
        let net = test_net();
        let mut spec = test_spec(&net, 0.0);
        // A region list with rate 0 everywhere: uniform() would omit the
        // regions, so build one explicitly.
        spec.map = FaultMapSpec {
            regions: vec![crate::fault_map::RegionSpec {
                region: crate::fault_map::MemoryRegion::Weights { layer: 0, tensor: 0 },
                ber: 0.0,
            }],
            configs: 3,
            seed: 1,
            weight_model: WeightFaultModel::StuckSat,
            window: None,
        };
        let eval = ReliabilityEvaluator::new(net.clone(), spec).unwrap();
        let mut scratch = net;
        for id in 0..3 {
            let o = eval.evaluate_config(&mut scratch, id);
            assert_eq!(o.faulty_correct, o.samples);
            assert_eq!(o.mitigated_correct, o.samples);
            assert_eq!(o.spike_delta, 0.0);
        }
    }

    #[test]
    fn chunked_evaluation_is_bit_identical_to_whole() {
        let net = test_net();
        let spec = test_spec(&net, 0.1);
        let eval = ReliabilityEvaluator::new(net, spec).unwrap();
        let total = eval.spec().map.configs;
        let whole = eval.evaluate_chunk(0..total, 1, &CancelToken::new()).unwrap();
        let mut pieces = Vec::new();
        for start in (0..total).step_by(2) {
            let chunk = start..(start + 2).min(total);
            pieces.extend(eval.evaluate_chunk(chunk, 2, &CancelToken::new()).unwrap());
        }
        assert_eq!(
            snn_faults::verdict_digest(&whole),
            snn_faults::verdict_digest(&pieces),
            "chunked evaluation must merge digest-identically"
        );
    }

    #[test]
    fn validate_rejects_degenerate_eval_sets() {
        let net = test_net();
        let mut spec = test_spec(&net, 0.1);
        spec.eval.samples = 0;
        assert!(spec.validate(&net).is_err());
        let mut spec = test_spec(&net, 0.1);
        spec.eval.steps = 0;
        assert!(spec.validate(&net).is_err());
        let mut spec = test_spec(&net, 0.1);
        spec.eval.rate = 1.5;
        assert!(spec.validate(&net).is_err());
    }

    #[test]
    fn validate_rejects_windows_that_are_never_live() {
        let net = test_net();
        let with_window = |start, end| {
            let mut spec = test_spec(&net, 0.1);
            spec.map.window = Some(TransientWindow::new(start, end));
            spec.validate(&net)
        };
        assert_eq!(with_window(9, 3).unwrap_err(), "window [9, 3) covers no tick");
        assert_eq!(with_window(5, 5).unwrap_err(), "window [5, 5) covers no tick");
        assert_eq!(
            with_window(50, 80).unwrap_err(),
            "window [50, 80) starts after the 12-tick samples"
        );
        assert_eq!(
            with_window(12, 20).unwrap_err(),
            "window [12, 20) starts after the 12-tick samples"
        );
        // A window running past the end is cut at it; one inside is kept.
        assert_eq!(with_window(11, 80), Ok(()));
        assert_eq!(with_window(0, 12), Ok(()));
    }
}
