//! Fault dictionaries: from detection to **diagnosis**.
//!
//! A detection campaign answers "is the device faulty?"; production flows
//! also want "*which* fault is it?" so failing parts can be binned, and
//! in-field systems can remap around the damaged resource. A fault
//! dictionary stores, for every detected fault, the output *signature*
//! the optimized test elicits (per-class spike-count difference vector —
//! the same data behind the paper's Fig. 9). Diagnosis then looks up an
//! observed signature and returns the candidate faults ranked by
//! signature distance.

use crate::{CampaignOutcome, Fault};
use serde::{Deserialize, Serialize};

/// A diagnosis candidate: fault id plus its signature distance to the
/// observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Fault id in the originating universe.
    pub fault_id: usize,
    /// L1 distance between the observed and stored signatures.
    pub distance: f32,
}

/// Signature dictionary built from a campaign run with
/// [`FaultSimConfig::record_class_diffs`](crate::FaultSimConfig) enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultDictionary {
    entries: Vec<(usize, Vec<f32>)>,
    classes: usize,
}

impl FaultDictionary {
    /// Builds the dictionary from campaign outcomes. Only detected faults
    /// with recorded signatures are included.
    ///
    /// # Panics
    ///
    /// Panics if the campaign was run without class-difference recording
    /// (no detected fault carries a signature) while detections exist.
    pub fn from_campaign(faults: &[Fault], campaign: &CampaignOutcome) -> Self {
        let mut entries = Vec::new();
        let mut classes = 0usize;
        let mut detected_without_sig = 0usize;
        for (f, o) in faults.iter().zip(campaign.per_fault.iter()) {
            if !o.detected {
                continue;
            }
            match &o.class_diff {
                Some(sig) => {
                    classes = sig.len();
                    entries.push((f.id, sig.clone()));
                }
                None => detected_without_sig += 1,
            }
        }
        assert!(
            entries.len() + detected_without_sig == 0 || !entries.is_empty(),
            "campaign lacks signatures; run with record_class_diffs = true"
        );
        Self { entries, classes }
    }

    /// Number of distinguishable entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fraction of dictionary faults whose signature is unique — the
    /// *diagnostic resolution* of the test (1.0 = every detected fault is
    /// fully locatable from its signature alone).
    #[expect(
        clippy::cast_precision_loss,
        reason = "fault counts are far below 2^53, so they convert exactly"
    )]
    pub fn resolution(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let mut unique = 0usize;
        for (i, (_, sig)) in self.entries.iter().enumerate() {
            let clash =
                self.entries.iter().enumerate().any(|(j, (_, other))| i != j && sig == other);
            if !clash {
                unique += 1;
            }
        }
        unique as f64 / self.entries.len() as f64
    }

    /// Ranks dictionary faults by L1 distance to the observed per-class
    /// spike-count difference, returning the best `top_k`.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len()` mismatches the dictionary's class count.
    pub fn diagnose(&self, observed: &[f32], top_k: usize) -> Vec<Diagnosis> {
        assert!(
            self.is_empty() || observed.len() == self.classes,
            "observed signature has {} classes, dictionary has {}",
            observed.len(),
            self.classes
        );
        let mut ranked: Vec<Diagnosis> = self
            .entries
            .iter()
            .map(|(id, sig)| Diagnosis {
                fault_id: *id,
                distance: sig.iter().zip(observed.iter()).map(|(a, b)| (a - b).abs()).sum(),
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "distances are sums of |finite − finite| signature entries, so partial_cmp cannot return None"
        )]
        ranked.sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("finite distances"));
        ranked.truncate(top_k);
        ranked
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::{FaultSimConfig, FaultSimulator, FaultUniverse};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};
    use snn_tensor::Shape;

    fn campaign() -> (FaultUniverse, CampaignOutcome) {
        let mut rng = StdRng::seed_from_u64(8);
        let net = NetworkBuilder::new(5, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(8)
            .dense(3)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 5), 0.5);
        let sim = FaultSimulator::new(
            &net,
            FaultSimConfig { record_class_diffs: true, threads: 1, ..FaultSimConfig::default() },
        );
        let out = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        (u, out)
    }

    #[test]
    fn dictionary_contains_exactly_the_detected_faults() {
        let (u, out) = campaign();
        let dict = FaultDictionary::from_campaign(u.faults(), &out);
        assert_eq!(dict.len(), out.detected_count());
        assert!(!dict.is_empty());
    }

    #[test]
    fn self_diagnosis_ranks_the_true_fault_first() {
        let (u, out) = campaign();
        let dict = FaultDictionary::from_campaign(u.faults(), &out);
        // Feeding a stored signature back must return its own fault at
        // distance 0 (possibly tied with signature-equivalent faults).
        let (some_id, sig) = out
            .per_fault
            .iter()
            .find_map(|o| o.class_diff.as_ref().map(|s| (o.fault_id, s.clone())))
            .expect("campaign detected something");
        let top = dict.diagnose(&sig, 5);
        assert_eq!(top[0].distance, 0.0);
        assert!(
            top.iter().any(|d| d.fault_id == some_id && d.distance == 0.0),
            "true fault missing from the zero-distance candidates"
        );
    }

    #[test]
    fn resolution_is_a_valid_fraction() {
        let (u, out) = campaign();
        let dict = FaultDictionary::from_campaign(u.faults(), &out);
        let r = dict.resolution();
        assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn diagnose_truncates_to_top_k() {
        let (u, out) = campaign();
        let dict = FaultDictionary::from_campaign(u.faults(), &out);
        let sig = vec![0.0; 3];
        assert_eq!(dict.diagnose(&sig, 3).len(), 3.min(dict.len()));
        // Distances must be sorted ascending.
        let all = dict.diagnose(&sig, dict.len());
        for w in all.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    #[should_panic(expected = "record_class_diffs")]
    fn rejects_signatureless_campaigns() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(2).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(25, 4), 0.6);
        let sim =
            FaultSimulator::new(&net, FaultSimConfig { threads: 1, ..FaultSimConfig::default() });
        let out = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        let _ = FaultDictionary::from_campaign(u.faults(), &out);
    }
}
