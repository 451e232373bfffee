use crate::criticality::{spiking_output, top1_under_faults};
use crate::{Fault, FaultOutcome, FaultUniverse};
use serde::{Deserialize, Serialize};
use snn_model::Network;
use snn_tensor::Tensor;

/// Detected/total accounting for one fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCoverage {
    /// Faults of this class detected by the test.
    pub detected: usize,
    /// Faults of this class in the campaign.
    pub total: usize,
}

impl ClassCoverage {
    /// Fault coverage in `[0, 1]`; defined as 1 for an empty class so that
    /// "nothing to detect" reads as full coverage in reports.
    #[expect(
        clippy::cast_precision_loss,
        reason = "fault counts are far below 2^53, so they convert exactly"
    )]
    pub fn fc(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }

    /// Fault coverage as a percentage.
    pub fn percent(&self) -> f64 {
        self.fc() * 100.0
    }
}

impl std::fmt::Display for ClassCoverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} ({:.2}%)", self.detected, self.total, self.percent())
    }
}

/// Fault coverage split the way the paper's Table III reports it:
/// critical/benign × neuron/synapse.
///
/// # Example
///
/// ```
/// use snn_faults::CoverageReport;
///
/// let r = CoverageReport::default();
/// assert_eq!(r.critical_neuron.fc(), 1.0); // empty classes read as covered
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Coverage of critical neuron faults.
    pub critical_neuron: ClassCoverage,
    /// Coverage of benign neuron faults.
    pub benign_neuron: ClassCoverage,
    /// Coverage of critical synapse faults.
    pub critical_synapse: ClassCoverage,
    /// Coverage of benign synapse faults.
    pub benign_synapse: ClassCoverage,
}

impl CoverageReport {
    /// Builds the report from a fault list, its criticality labels, and
    /// the detection outcomes of a campaign.
    ///
    /// # Panics
    ///
    /// Panics if the three slices have different lengths or are misaligned
    /// by fault id.
    pub fn compute(faults: &[Fault], critical: &[bool], outcomes: &[FaultOutcome]) -> Self {
        assert_eq!(faults.len(), critical.len(), "labels/faults length mismatch");
        assert_eq!(faults.len(), outcomes.len(), "outcomes/faults length mismatch");
        let mut report = CoverageReport::default();
        for ((f, &crit), o) in faults.iter().zip(critical.iter()).zip(outcomes.iter()) {
            assert_eq!(f.id, o.fault_id, "outcome order must match fault order");
            let slot = match (f.kind.is_neuron(), crit) {
                (true, true) => &mut report.critical_neuron,
                (true, false) => &mut report.benign_neuron,
                (false, true) => &mut report.critical_synapse,
                (false, false) => &mut report.benign_synapse,
            };
            slot.total += 1;
            if o.detected {
                slot.detected += 1;
            }
        }
        report
    }

    /// Overall coverage across all four classes.
    pub fn overall(&self) -> ClassCoverage {
        ClassCoverage {
            detected: self.critical_neuron.detected
                + self.benign_neuron.detected
                + self.critical_synapse.detected
                + self.benign_synapse.detected,
            total: self.critical_neuron.total
                + self.benign_neuron.total
                + self.critical_synapse.total
                + self.benign_synapse.total,
        }
    }
}

/// Worst-case consequence of a *test escape*: over the given undetected
/// critical faults, the maximum drop in top-1 accuracy on `dataset`
/// relative to the fault-free network — the paper's Table III last row.
/// Each sample is one detection campaign over `escapes`, read as the
/// labelling reads it ([`criticality::classify`](crate::criticality::classify)).
///
/// Returns `(max_drop, fault_id_of_worst)` — the last of equal maxima —
/// or `None` when `escapes` is empty (perfect coverage).
///
/// # Panics
///
/// Panics if `dataset` is empty or the network's last layer does not spike.
pub fn escape_max_accuracy_drop(
    net: &Network,
    universe: &FaultUniverse,
    escapes: &[Fault],
    dataset: &[(Tensor, usize)],
    threads: usize,
) -> Option<(f64, usize)> {
    assert!(!dataset.is_empty(), "escape analysis needs a dataset");
    assert!(spiking_output(net), "escape analysis needs a spiking output layer");
    if escapes.is_empty() {
        return None;
    }
    let mut golden_correct = 0usize;
    let mut correct = vec![0usize; escapes.len()];
    for (input, label) in dataset {
        let (golden, faulty) = top1_under_faults(net, universe, escapes, input, threads);
        golden_correct += usize::from(golden == *label);
        for (c, top1) in correct.iter_mut().zip(faulty) {
            *c += usize::from(top1 == *label);
        }
    }
    #[expect(
        clippy::cast_precision_loss,
        reason = "sample counts are far below 2^53, so they convert exactly"
    )]
    let accuracy = |correct: usize| correct as f64 / dataset.len() as f64;
    let drops = correct.into_iter().zip(escapes);
    #[expect(
        clippy::expect_used,
        reason = "accuracy is a ratio of finite counts, so partial_cmp cannot return None"
    )]
    let worst = drops
        .map(|(c, f)| (accuracy(golden_correct) - accuracy(c), f.id))
        .max_by(|a, b| a.0.partial_cmp(&b.0).expect("accuracy drops are finite"));
    worst
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultSimConfig, FaultSimulator, FaultUniverse};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};
    use snn_tensor::Shape;

    #[test]
    fn class_coverage_math() {
        let c = ClassCoverage { detected: 3, total: 4 };
        assert!((c.fc() - 0.75).abs() < 1e-12);
        assert_eq!(format!("{c}"), "3/4 (75.00%)");
        assert_eq!(ClassCoverage::default().fc(), 1.0);
    }

    #[test]
    fn compute_partitions_faults_into_four_classes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(5).dense(2).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(25, 4), 0.5);
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let campaign = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        // Alternate labels deterministically.
        let critical: Vec<bool> = u.faults().iter().map(|f| f.id % 2 == 0).collect();
        let report = CoverageReport::compute(u.faults(), &critical, &campaign.per_fault);
        assert_eq!(report.overall().total, u.len());
        assert_eq!(
            report.critical_neuron.total + report.benign_neuron.total,
            u.neuron_fault_count()
        );
        assert_eq!(
            report.critical_synapse.total + report.benign_synapse.total,
            u.synapse_fault_count()
        );
        assert_eq!(report.overall().detected, campaign.detected_count());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn compute_rejects_misaligned_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(2, LifParams::default()).dense(2).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let _ = CoverageReport::compute(u.faults(), &[true], &[]);
    }

    #[test]
    fn escape_analysis_reports_nonnegative_drop_for_harmful_fault() {
        // Train-free hand net where output 1 wins; killing it drops accuracy.
        let lif = LifParams { threshold: 0.5, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![snn_model::Layer::Dense(snn_model::DenseLayer::new(
                Tensor::from_vec(Shape::d2(2, 1), vec![0.3, 0.9]).unwrap(),
                lif,
            ))],
        );
        let u = FaultUniverse::standard(&net);
        let dead_out1 = u
            .faults()
            .iter()
            .copied()
            .find(|f| {
                f.kind == FaultKind::NeuronDead
                    && matches!(f.site, crate::FaultSite::Neuron { index: 1, .. })
            })
            .unwrap();
        let dataset = vec![(Tensor::full(Shape::d2(10, 1), 1.0), 1usize)];
        let (drop, id) = escape_max_accuracy_drop(&net, &u, &[dead_out1], &dataset, 1).unwrap();
        assert_eq!(id, dead_out1.id);
        assert!(drop > 0.0, "killing the winning class must cost accuracy");
    }

    /// On a conv → pool → dense net and a recurrent one, the per-sample
    /// campaigns give the oracle's worst drop to the bit, and the same
    /// fault: the last of equal maxima.
    #[test]
    fn escape_analysis_matches_the_oracle() {
        use crate::criticality::tests::oracle_predictions;
        let mut rng = StdRng::seed_from_u64(7);
        let lif = LifParams::default();
        let nets = [
            NetworkBuilder::new_spatial(1, 6, 6, lif)
                .conv(2, 3, 1, 1)
                .avg_pool(2)
                .dense(4)
                .build(&mut rng),
            NetworkBuilder::new(12, lif).recurrent(8).dense(6).dense(3).build(&mut rng),
        ];
        for net in nets {
            let features = net.input_features();
            let classes = net.output_features();
            let u = FaultUniverse::standard(&net);
            let inputs: Vec<Tensor> = (0..5)
                .map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(24, features), 0.15))
                .collect();
            let golden: Vec<usize> = (inputs.iter())
                .map(|s| net.forward(s, snn_model::RecordOptions::spikes_only()).predict())
                .collect();
            // Half the labels are the fault-free top-1, half another class,
            // so a fault can cost accuracy or win some back.
            let labels: Vec<usize> =
                golden.iter().enumerate().map(|(k, top1)| (top1 + k % 2) % classes).collect();
            let dataset: Vec<(Tensor, usize)> =
                inputs.iter().cloned().zip(labels.clone()).collect();
            let accuracy = |predictions: &[usize]| {
                let correct = predictions.iter().zip(&labels).filter(|(p, l)| p == l);
                correct.count() as f64 / labels.len() as f64
            };
            let expected = (u.faults().iter())
                .map(|f| {
                    let faulty = oracle_predictions(&net, &u, f, &inputs);
                    (accuracy(&golden) - accuracy(&faulty), f.id)
                })
                .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .unwrap();
            assert!(expected.0 > 0.0);
            for threads in [1, 2] {
                let (drop, id) =
                    escape_max_accuracy_drop(&net, &u, u.faults(), &dataset, threads).unwrap();
                assert_eq!((drop.to_bits(), id), (expected.0.to_bits(), expected.1));
            }
        }
    }

    /// A pooling output layer has real-valued class counts, which the
    /// campaign's class differences do not reproduce exactly: refused.
    #[test]
    fn escape_analysis_refuses_a_pooling_output_layer() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(1, 3, 1, 1)
            .avg_pool(2)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let dataset = [(Tensor::zeros(Shape::d2(8, 16)), 0usize)];
        let refused =
            std::panic::catch_unwind(|| escape_max_accuracy_drop(&net, &u, &[], &dataset, 1));
        let message = *refused.unwrap_err().downcast::<&str>().unwrap();
        assert!(message.contains("spiking output layer"), "{message}");
    }

    #[test]
    fn no_escapes_means_no_drop() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new(2, LifParams::default()).dense(2).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let dataset = vec![(Tensor::zeros(Shape::d2(4, 2)), 0usize)];
        assert!(escape_max_accuracy_drop(&net, &u, &[], &dataset, 1).is_none());
    }
}
