//! Critical/benign fault labelling.
//!
//! The paper (Section III) calls a fault *critical* if it alters the top-1
//! prediction for at least one sample of the available dataset, and
//! *benign* otherwise. This labelling requires a full fault-simulation
//! campaign over the dataset — the step the paper's Table II reports as
//! taking days on an A100 at paper scale, and the very cost the proposed
//! test-generation algorithm avoids during optimization.

use crate::sim::with_fault;
use crate::{parallel, Fault, FaultKind, FaultSite, FaultUniverse, Injection};
use serde::{Deserialize, Serialize};
use snn_model::{Layer, LayerState, LayerTrace, Network, RecordOptions, Trace};
use snn_tensor::Tensor;
use std::time::Duration;

/// Configuration for the criticality campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalityConfig {
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Cap on the number of dataset samples examined per fault (`None`
    /// uses the whole set). A fault is labelled with respect to the capped
    /// set, mirroring how the paper's labelling depends on the available
    /// dataset.
    pub max_samples: Option<usize>,
}

/// Result of the labelling campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalityReport {
    /// `critical[i]` labels `faults[i]` as critical.
    pub critical: Vec<bool>,
    /// Wall-clock duration of the campaign.
    pub elapsed: Duration,
}

impl CriticalityReport {
    /// Number of critical faults.
    pub fn critical_count(&self) -> usize {
        self.critical.iter().filter(|&&c| c).count()
    }

    /// Number of benign faults.
    pub fn benign_count(&self) -> usize {
        self.critical.len() - self.critical_count()
    }
}

/// Labels every fault critical or benign against `dataset` (inputs only;
/// labels are irrelevant because criticality compares against the
/// fault-free top-1 prediction, not the ground truth).
///
/// A (fault, sample) pair is skipped when the fault meets no spike,
/// otherwise runs from the fault's layer to the first one that spikes as
/// in the fault-free run; a fault is critical at the first sample whose
/// prediction flips.
///
/// # Panics
///
/// Panics if there is no sample to label against: `dataset` is empty or
/// `cfg.max_samples` is `Some(0)`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_faults::{criticality, FaultUniverse};
/// use snn_model::{LifParams, NetworkBuilder};
/// use snn_tensor::Shape;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
/// let u = FaultUniverse::standard(&net);
/// let data = vec![snn_tensor::init::bernoulli(&mut rng, Shape::d2(15, 4), 0.5)];
/// let report = criticality::classify(&net, &u, u.faults(), &data, Default::default());
/// assert_eq!(report.critical.len(), u.len());
/// ```
pub fn classify(
    net: &Network,
    universe: &FaultUniverse,
    faults: &[Fault],
    dataset: &[Tensor],
    cfg: CriticalityConfig,
) -> CriticalityReport {
    let start = snn_obs::clock::monotonic();
    let take = cfg.max_samples.unwrap_or(dataset.len()).min(dataset.len());
    assert!(take > 0, "criticality labelling needs at least one sample");
    let samples = &dataset[..take];

    let baselines: Vec<Trace> =
        samples.iter().map(|s| net.forward(s, RecordOptions::spikes_only())).collect();
    let predictions: Vec<usize> = baselines.iter().map(|b| b.predict()).collect();
    let traffic: Vec<Vec<Vec<f32>>> =
        samples.iter().zip(&baselines).map(|(s, b)| spike_counts(s, b)).collect();

    let critical = parallel::map_indexed(
        faults.len(),
        cfg.threads,
        || net.clone(),
        |worker, i| {
            let injection = Injection::for_fault(net, universe, &faults[i])
                // snn-lint: allow(L-PANIC): faults come from the same universe that enumerated them, so they are well-formed
                .expect("universe faults are well-formed");
            (0..take).any(|k| {
                !sees_no_spike(net, &traffic[k], &faults[i])
                    && faulty_prediction(worker, &baselines[k], &samples[k], &injection)
                        .is_some_and(|faulty| faulty != predictions[k])
            })
        },
    );

    CriticalityReport { critical, elapsed: snn_obs::clock::monotonic().saturating_sub(start) }
}

/// Fraction of evaluation samples whose top-1 prediction a single fault
/// flips — the *accuracy-delta criticality* behind the critical/benign
/// labelling above (`accuracy_delta > 0`). Only this module's tests call
/// it, to check [`classify`] against it; snn-reliability ranks regions by
/// its own per-configuration accuracy drops.
///
/// `predictions[k]` is the fault-free top-1 of `samples[k]` (typically
/// precomputed once per campaign). An empty evaluation set yields `0.0`,
/// not NaN: with nothing to misclassify, a fault costs no accuracy.
pub fn accuracy_delta(
    net: &Network,
    universe: &FaultUniverse,
    fault: &Fault,
    samples: &[Tensor],
    predictions: &[usize],
) -> f32 {
    assert_eq!(samples.len(), predictions.len(), "one fault-free prediction per sample");
    if samples.is_empty() {
        return 0.0;
    }
    let injection = Injection::for_fault(net, universe, fault)
        // snn-lint: allow(L-PANIC): faults come from the same universe that enumerated them, so they are well-formed
        .expect("universe faults are well-formed");
    let mut worker = net.clone();
    let mut flipped = 0usize;
    for (sample, &pred) in samples.iter().zip(predictions.iter()) {
        let baseline = net.forward(sample, RecordOptions::spikes_only());
        let faulty = faulty_prediction(&mut worker, &baseline, sample, &injection);
        if faulty.is_some_and(|faulty| faulty != pred) {
            flipped += 1;
        }
    }
    // snn-lint: allow(L-CAST): sample counts are far below f32's 2^24 exact-integer range
    flipped as f32 / samples.len() as f32
}

/// Spike counts at every layer boundary of one fault-free run: entry 0
/// counts the sample's input columns, entry `ℓ + 1` layer `ℓ`'s neurons.
fn spike_counts(sample: &Tensor, baseline: &Trace) -> Vec<Vec<f32>> {
    let input = LayerTrace { output: sample.clone(), potential: None, gate: None };
    std::iter::once(&input).chain(&baseline.layers).map(LayerTrace::spike_counts).collect()
}

/// `true` when `fault` provably changes nothing of a run with these
/// [`spike_counts`] — a dead neuron that never fires, a synapse whose
/// source never spikes — so the pair is not simulated at all. Dataset
/// samples are sparse: this is the larger half of what labelling saves.
fn sees_no_spike(net: &Network, counts: &[Vec<f32>], fault: &Fault) -> bool {
    let quiet = |boundary: usize, i: usize| counts[boundary][i] == 0.0;
    match (fault.site, fault.kind) {
        (FaultSite::Neuron { layer, index }, FaultKind::NeuronDead) => quiet(layer + 1, index),
        (FaultSite::Synapse(r), _) => match &net.layers()[r.layer] {
            Layer::Conv(_) | Layer::Pool(_) => false,
            l @ Layer::Recurrent(_) if r.tensor == 1 => {
                quiet(r.layer + 1, r.offset % l.out_features())
            }
            l => quiet(r.layer, r.offset % l.in_features()),
        },
        _ => false,
    }
}

/// Top-1 prediction on `sample` under `injection`, or `None` once a layer
/// from the fault's on spikes exactly as in `baseline`: nothing after it
/// can differ, so the prediction stands and the rest is not run. These
/// two shortcuts are labelling's own — nine faults in ten are benign and
/// meet every sample — and the detection reference shares neither.
fn faulty_prediction(
    worker: &mut Network,
    baseline: &Trace,
    sample: &Tensor,
    injection: &Injection,
) -> Option<usize> {
    let start = injection.start_layer();
    let first = if start == 0 { sample } else { &baseline.layers[start - 1].output };
    // Labelling is outside the campaign's phase accounting.
    let mut scratch = snn_obs::phase::LocalPhases::new();
    with_fault(worker, injection, &mut scratch, |net, map| {
        let mut last: Option<LayerTrace> = None;
        for idx in start..net.layers().len() {
            let input = last.as_ref().map_or(first, |t| &t.output);
            let spikes = RecordOptions::spikes_only();
            let layer =
                net.forward_layer_segment(idx, input, 0, spikes, map, &mut LayerState::default());
            if layer.output == baseline.layers[idx].output {
                return None;
            }
            last = Some(layer);
        }
        Some(Trace { steps: baseline.steps, layers: last.into_iter().collect() }.predict())
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact accuracy deltas
mod tests {
    use super::*;
    use crate::{FaultKind, FaultSite};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{DenseLayer, Layer, LifParams, NetworkBuilder};
    use snn_tensor::Shape;

    #[test]
    fn dead_output_neuron_of_winning_class_is_critical() {
        // Hand-built net: two outputs, output 1 wins under all-ones input.
        let lif = LifParams { threshold: 0.5, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                snn_tensor::Tensor::from_vec(Shape::d2(2, 1), vec![0.3, 0.9]).unwrap(),
                lif,
            ))],
        );
        let u = FaultUniverse::standard(&net);
        let data = vec![snn_tensor::Tensor::full(Shape::d2(10, 1), 1.0)];
        let report = classify(&net, &u, u.faults(), &data, CriticalityConfig::default());

        for (f, &crit) in u.faults().iter().zip(report.critical.iter()) {
            if let (FaultSite::Neuron { index: 1, .. }, FaultKind::NeuronDead) = (f.site, f.kind) {
                assert!(crit, "killing the winning output must flip the top-1");
            }
        }
        assert!(report.critical_count() + report.benign_count() == u.len());
    }

    #[test]
    fn fault_free_clone_labels_match_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new(5, LifParams::default()).dense(8).dense(3).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let data: Vec<_> =
            (0..3).map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 5), 0.5)).collect();
        let a = classify(
            &net,
            &u,
            u.faults(),
            &data,
            CriticalityConfig { threads: 1, max_samples: None },
        );
        let b = classify(
            &net,
            &u,
            u.faults(),
            &data,
            CriticalityConfig { threads: 4, max_samples: None },
        );
        assert_eq!(a.critical, b.critical);
    }

    #[test]
    fn max_samples_caps_the_campaign() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let data: Vec<_> =
            (0..5).map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(12, 4), 0.4)).collect();
        // With a cap of 1 sample, criticality is judged on sample 0 only —
        // the result must equal running on just that sample.
        let capped = classify(
            &net,
            &u,
            u.faults(),
            &data,
            CriticalityConfig { threads: 1, max_samples: Some(1) },
        );
        let single = classify(
            &net,
            &u,
            u.faults(),
            &data[..1],
            CriticalityConfig { threads: 1, max_samples: None },
        );
        assert_eq!(capped.critical, single.critical);
    }

    #[test]
    fn accuracy_delta_on_empty_set_is_zero_not_nan() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = NetworkBuilder::new(3, LifParams::default()).dense(2).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let d = accuracy_delta(&net, &u, &u.faults()[0], &[], &[]);
        assert_eq!(d, 0.0);
        assert!(!d.is_nan());
    }

    #[test]
    fn accuracy_delta_agrees_with_critical_labelling() {
        // classify() says critical ⇔ accuracy_delta > 0 on the same set.
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(6).dense(3).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let data: Vec<_> =
            (0..3).map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(15, 4), 0.5)).collect();
        let predictions: Vec<usize> =
            data.iter().map(|s| net.forward(s, RecordOptions::spikes_only()).predict()).collect();
        let report = classify(&net, &u, u.faults(), &data, CriticalityConfig::default());
        for (fault, &crit) in u.faults().iter().zip(report.critical.iter()) {
            let delta = accuracy_delta(&net, &u, fault, &data, &predictions);
            assert!((0.0..=1.0).contains(&delta));
            assert_eq!(delta > 0.0, crit, "fault {}", fault.id);
        }
    }

    #[test]
    fn dead_winning_output_costs_full_accuracy_on_a_single_sample() {
        let lif = LifParams { threshold: 0.5, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                snn_tensor::Tensor::from_vec(Shape::d2(2, 1), vec![0.3, 0.9]).unwrap(),
                lif,
            ))],
        );
        let u = FaultUniverse::standard(&net);
        let data = vec![snn_tensor::Tensor::full(Shape::d2(10, 1), 1.0)];
        let predictions = vec![net.forward(&data[0], RecordOptions::spikes_only()).predict()];
        let fault = u
            .faults()
            .iter()
            .find(|f| {
                matches!(
                    (f.site, f.kind),
                    (FaultSite::Neuron { index: 1, .. }, FaultKind::NeuronDead)
                )
            })
            .unwrap();
        assert_eq!(accuracy_delta(&net, &u, fault, &data, &predictions), 1.0);
    }

    /// Labelling's two shortcuts move no label: on sparse samples and a
    /// silent one, where both fire, `classify` agrees with predictions
    /// taken from the detection reference's run to the end of the network.
    #[test]
    fn shortcuts_label_as_the_detection_reference_predicts() {
        let mut rng = StdRng::seed_from_u64(9);
        let lif = LifParams::default();
        let nets = [
            NetworkBuilder::new(12, lif).recurrent(8).dense(6).dense(3).build(&mut rng),
            NetworkBuilder::new_spatial(1, 6, 6, lif)
                .conv(2, 3, 1, 1)
                .avg_pool(2)
                .dense(4)
                .build(&mut rng),
        ];
        for net in nets {
            let features = net.input_features();
            let mut data: Vec<Tensor> = (0..3)
                .map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(24, features), 0.08))
                .collect();
            data.push(Tensor::zeros(Shape::d2(24, features)));
            let u = FaultUniverse::standard(&net);
            let baselines: Vec<Trace> =
                data.iter().map(|s| net.forward(s, RecordOptions::spikes_only())).collect();
            let (mut skipped, mut cut_short) = (0usize, 0usize);
            let mut worker = net.clone();
            let mut scratch = snn_obs::phase::LocalPhases::new();
            let expected: Vec<bool> = (u.faults().iter())
                .map(|fault| {
                    let injection = Injection::for_fault(&net, &u, fault).unwrap();
                    let mut critical = false;
                    for (sample, baseline) in data.iter().zip(&baselines) {
                        let counts = spike_counts(sample, baseline);
                        skipped += usize::from(sees_no_spike(&net, &counts, fault));
                        let short = faulty_prediction(&mut worker, baseline, sample, &injection);
                        cut_short += usize::from(short.is_none());
                        let faulty = crate::sim::faulty_output(
                            &mut worker,
                            baseline,
                            sample,
                            &injection,
                            &mut scratch,
                        );
                        critical |= faulty.predict() != baseline.predict();
                    }
                    critical
                })
                .collect();
            assert!(skipped > 0 && cut_short > skipped, "{skipped} skipped, {cut_short} cut");
            assert!(expected.contains(&true) && expected.contains(&false));
            let report = classify(&net, &u, u.faults(), &data, CriticalityConfig::default());
            assert_eq!(report.critical, expected);
        }
    }

    /// No sample to label against — an empty dataset or a sample cap of
    /// zero — is refused, not answered with an all-benign report.
    #[test]
    fn classify_requires_samples() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(2, LifParams::default()).dense(2).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let data = [snn_tensor::init::bernoulli(&mut rng, Shape::d2(8, 2), 0.5)];
        let capped = CriticalityConfig { threads: 1, max_samples: Some(0) };
        for (dataset, cfg) in [(&data[..0], CriticalityConfig::default()), (&data[..], capped)] {
            let refused = std::panic::catch_unwind(|| classify(&net, &u, u.faults(), dataset, cfg));
            let message = *refused.unwrap_err().downcast::<&str>().unwrap();
            assert!(message.contains("at least one sample"), "{message}");
        }
    }
}
