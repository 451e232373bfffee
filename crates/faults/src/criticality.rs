//! Critical/benign fault labelling.
//!
//! The paper (Section III) calls a fault *critical* if it alters the top-1
//! prediction for at least one sample of the available dataset, and
//! *benign* otherwise. This labelling requires a full fault-simulation
//! campaign over the dataset — the step the paper's Table II reports as
//! taking days on an A100 at paper scale, and the very cost the proposed
//! test-generation algorithm avoids during optimization.

use crate::{Fault, FaultSimConfig, FaultSimulator, FaultUniverse};
use serde::{Deserialize, Serialize};
use snn_model::{top1, Layer, Network, RecordOptions};
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
/// One detection campaign per sample, each over the faults not yet
/// labelled critical, reads every fault's faulty top-1 (see
/// [`top1_under_faults`]); a fault is critical at the first sample whose
/// prediction flips and leaves the campaigns of the later ones.
///
/// # Panics
///
/// Panics if there is no sample to label against (`dataset` is empty or
/// `cfg.max_samples` is `Some(0)`), or if the network's last layer does
/// not spike.
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
    assert!(spiking_output(net), "criticality labelling needs a spiking output layer");

    let mut critical = vec![false; faults.len()];
    // Positions in `faults` of those still benign.
    let mut open: Vec<usize> = (0..faults.len()).collect();
    for sample in &dataset[..take] {
        if open.is_empty() {
            break;
        }
        let subset: Vec<Fault> = open.iter().map(|&i| faults[i]).collect();
        let (golden, faulty) = top1_under_faults(net, universe, &subset, sample, cfg.threads);
        let mut faulty = faulty.into_iter();
        open.retain(|&i| {
            critical[i] = faulty.next() != Some(golden);
            !critical[i]
        });
    }

    CriticalityReport { critical, elapsed: snn_obs::clock::monotonic().saturating_sub(start) }
}

/// `true` when `net`'s last layer spikes, so its class counts are integers
/// and [`top1_under_faults`] reads faulty counts exactly.
pub(crate) fn spiking_output(net: &Network) -> bool {
    net.layers().last().is_some_and(Layer::is_spiking)
}

/// The fault-free top-1 of `net` on `sample` and, for each of `faults`, the
/// top-1 under that fault — read from one detection campaign over the
/// sample with class differences recorded. An undetected fault leaves the
/// output spike trains, so its top-1 is the fault-free one; a detected
/// fault's class counts are the fault-free ones plus its `class_diff`.
/// That sum is exact only for integer counts: callers check
/// [`spiking_output`] first.
pub(crate) fn top1_under_faults(
    net: &Network,
    universe: &FaultUniverse,
    faults: &[Fault],
    sample: &Tensor,
    threads: usize,
) -> (usize, Vec<usize>) {
    let golden = net.forward(sample, RecordOptions::spikes_only()).class_counts();
    let cfg = FaultSimConfig { threads, record_class_diffs: true, ..FaultSimConfig::default() };
    let campaign =
        FaultSimulator::new(net, cfg).detect(universe, faults, std::slice::from_ref(sample));
    let faulty = (campaign.per_fault.iter())
        .map(|outcome| match &outcome.class_diff {
            Some(diff) => top1(&golden.iter().zip(diff).map(|(g, d)| g + d).collect::<Vec<_>>()),
            None => top1(&golden),
        })
        .collect();
    (top1(&golden), faulty)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact accuracy deltas")]
pub(crate) mod tests {
    use super::*;
    use crate::{FaultKind, FaultSite, Injection};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{DenseLayer, LifParams, NetworkBuilder, NeuronFaultMap};
    use snn_tensor::Shape;

    /// `net`'s top-1 on each of `samples` under `fault`, from a
    /// whole-network faulty forward on a patched clone: the oracle that
    /// labels and escapes are held to, sharing no code with the engines.
    pub(crate) fn oracle_predictions(
        net: &Network,
        universe: &FaultUniverse,
        fault: &Fault,
        samples: &[Tensor],
    ) -> Vec<usize> {
        let mut faulty = net.clone();
        let map = match Injection::for_fault(net, universe, fault).unwrap() {
            Injection::Weight { at, value } => {
                faulty.set_weight(at, value);
                NeuronFaultMap::new()
            }
            Injection::Neuron(map) => map,
        };
        let spikes = RecordOptions::spikes_only();
        samples.iter().map(|s| faulty.forward_faulty(s, spikes, &map).predict()).collect()
    }

    /// Fraction of `samples` whose top-1 `fault` flips away from
    /// `predictions`, the fault-free top-1s: the accuracy-delta criticality
    /// behind the labelling (critical ⇔ `accuracy_delta > 0`).
    fn accuracy_delta(
        net: &Network,
        universe: &FaultUniverse,
        fault: &Fault,
        samples: &[Tensor],
        predictions: &[usize],
    ) -> f32 {
        let faulty = oracle_predictions(net, universe, fault, samples);
        let flipped = faulty.iter().zip(predictions).filter(|(f, p)| f != p).count();
        flipped as f32 / samples.len() as f32
    }

    fn predictions(net: &Network, samples: &[Tensor]) -> Vec<usize> {
        samples.iter().map(|s| net.forward(s, RecordOptions::spikes_only()).predict()).collect()
    }

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
                assert_eq!(accuracy_delta(&net, &u, f, &data, &predictions(&net, &data)), 1.0);
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
    fn accuracy_delta_agrees_with_critical_labelling() {
        // classify() says critical ⇔ accuracy_delta > 0 on the same set.
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(6).dense(3).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let data: Vec<_> =
            (0..3).map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(15, 4), 0.5)).collect();
        let predictions = predictions(&net, &data);
        let report = classify(&net, &u, u.faults(), &data, CriticalityConfig::default());
        for (fault, &crit) in u.faults().iter().zip(report.critical.iter()) {
            let delta = accuracy_delta(&net, &u, fault, &data, &predictions);
            assert!((0.0..=1.0).contains(&delta));
            assert_eq!(delta > 0.0, crit, "fault {}", fault.id);
        }
    }

    /// On a recurrent net and a conv → pool → dense one, with sparse
    /// samples and a silent one, the per-sample campaigns label exactly as
    /// the oracle's accuracy delta does, at one thread and at two.
    #[test]
    fn labels_are_the_oracle_accuracy_delta_at_any_thread_count() {
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
            let predictions = predictions(&net, &data);
            let expected: Vec<bool> = (u.faults().iter())
                .map(|fault| accuracy_delta(&net, &u, fault, &data, &predictions) > 0.0)
                .collect();
            assert!(expected.contains(&true) && expected.contains(&false));
            for threads in [1, 2] {
                let cfg = CriticalityConfig { threads, max_samples: None };
                let report = classify(&net, &u, u.faults(), &data, cfg);
                assert_eq!(report.critical, expected, "{threads} threads");
            }
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

    /// A network ending in a pooling layer has real-valued class counts,
    /// which a recorded class difference does not reproduce exactly: it
    /// is refused rather than labelled approximately.
    #[test]
    fn classify_refuses_a_pooling_output_layer() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(1, 3, 1, 1)
            .avg_pool(2)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let data = [snn_tensor::init::bernoulli(&mut rng, Shape::d2(8, 16), 0.5)];
        let cfg = CriticalityConfig::default();
        let refused = std::panic::catch_unwind(|| classify(&net, &u, u.faults(), &data, cfg));
        let message = *refused.unwrap_err().downcast::<&str>().unwrap();
        assert!(message.contains("spiking output layer"), "{message}");
    }
}
