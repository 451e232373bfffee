//! Campaign report: accuracy-drop distributions, per-region criticality
//! ranking and the deterministic verdict digest.

use crate::campaign::{fraction, ConfigOutcome, ReliabilitySpec};
use crate::fault_map::sample_config;
use serde::{Deserialize, Serialize};
use snn_faults::FaultOutcome;
use snn_model::Network;

/// Mean / 95th-percentile / worst-case of a drop distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropStats {
    /// Mean accuracy drop over all configurations.
    pub mean: f32,
    /// 95th percentile (nearest-rank) of the per-config drops.
    pub p95: f32,
    /// Largest per-config drop.
    pub worst: f32,
}

impl DropStats {
    /// Computes the statistics of `drops` (all zeros when empty).
    pub fn of(drops: &[f32]) -> Self {
        if drops.is_empty() {
            return Self { mean: 0.0, p95: 0.0, worst: 0.0 };
        }
        let mut sorted = drops.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mean = sorted.iter().sum::<f32>() / sorted.len() as f32;
        // Nearest-rank p95: ceil(0.95·n) - 1, clamped into range.
        let rank = ((0.95 * sorted.len() as f32).ceil() as usize).clamp(1, sorted.len()) - 1;
        Self { mean, p95: sorted[rank], worst: sorted[sorted.len() - 1] }
    }
}

/// Accuracy impact attributed to one fault-map region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionCriticality {
    /// Region label (see `MemoryRegion::label`).
    pub region: String,
    /// Configurations in which the region received at least one fault.
    pub configs_hit: usize,
    /// Mean unmitigated accuracy drop over those configurations.
    pub mean_drop: f32,
}

/// The full result of a reliability campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityReport {
    /// Configurations evaluated.
    pub configs: usize,
    /// Evaluation-set size per configuration.
    pub samples: usize,
    /// Mitigation strategy evaluated.
    pub mitigation: String,
    /// Accuracy of the clean network against the oracle labels (1.0 by
    /// construction; reported for the triple's completeness).
    pub baseline_accuracy: f32,
    /// Mean accuracy under unmitigated faults.
    pub faulty_accuracy: f32,
    /// Mean accuracy under mitigated faults.
    pub mitigated_accuracy: f32,
    /// Unmitigated accuracy-drop distribution.
    pub drop: DropStats,
    /// Mitigated accuracy-drop distribution.
    pub mitigated_drop: DropStats,
    /// Mean summed L1 output-spike delta per configuration.
    pub mean_spike_delta: f32,
    /// Regions ranked by mean unmitigated drop, most critical first.
    pub regions: Vec<RegionCriticality>,
    /// FNV-1a digest over the encoded outcomes — identical for any
    /// worker count or chunk size that evaluated the same spec.
    pub digest: String,
}

impl ReliabilityReport {
    /// Builds the report from merged campaign outcomes.
    ///
    /// Region attribution re-samples each configuration from the spec
    /// (sampling is pure, so this reproduces exactly the fault sets the
    /// workers evaluated) rather than shipping hit lists over the wire.
    pub fn build(
        net: &Network,
        spec: &ReliabilitySpec,
        outcomes: &[FaultOutcome],
    ) -> Result<Self, String> {
        let decoded: Vec<ConfigOutcome> =
            outcomes.iter().map(ConfigOutcome::decode).collect::<Result<_, _>>()?;
        if decoded.len() != spec.map.configs {
            return Err(format!(
                "campaign returned {} outcomes for {} configurations",
                decoded.len(),
                spec.map.configs
            ));
        }

        let samples = decoded.first().map_or(0, |o| o.samples);
        let drops: Vec<f32> = decoded.iter().map(ConfigOutcome::accuracy_drop).collect();
        let mitigated_drops: Vec<f32> = decoded.iter().map(ConfigOutcome::mitigated_drop).collect();

        // Per-region attribution via deterministic re-sampling.
        let mut hit_counts = vec![0usize; spec.map.regions.len()];
        let mut drop_sums = vec![0.0f32; spec.map.regions.len()];
        for o in &decoded {
            let config = sample_config(net, &spec.map, o.config);
            for &ri in &config.hit_regions {
                hit_counts[ri] += 1;
                drop_sums[ri] += o.accuracy_drop();
            }
        }
        let mut regions: Vec<RegionCriticality> = spec
            .map
            .regions
            .iter()
            .zip(hit_counts.iter().zip(drop_sums.iter()))
            .filter(|(_, (&hits, _))| hits > 0)
            .map(|(r, (&hits, &sum))| RegionCriticality {
                region: r.region.label(),
                configs_hit: hits,
                mean_drop: sum / hits as f32,
            })
            .collect();
        // Total order: mean drop descending, then region label ascending.
        // The label tie-break matters — labels are unique per region, so
        // equal drops (common with coarse samples) still rank identically
        // on every worker, keeping the rendered report byte-stable.
        regions.sort_by(|a, b| {
            b.mean_drop
                .partial_cmp(&a.mean_drop)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.region.cmp(&b.region))
        });

        let n = decoded.len();
        let mean = |f: &dyn Fn(&ConfigOutcome) -> f32| -> f32 {
            if n == 0 {
                return 0.0;
            }
            decoded.iter().map(f).sum::<f32>() / n as f32
        };

        Ok(Self {
            configs: n,
            samples,
            mitigation: spec.mitigation.instance().name().to_string(),
            baseline_accuracy: mean(&|o| fraction(o.baseline_correct, o.samples)),
            faulty_accuracy: mean(&|o| fraction(o.faulty_correct, o.samples)),
            mitigated_accuracy: mean(&|o| fraction(o.mitigated_correct, o.samples)),
            drop: DropStats::of(&drops),
            mitigated_drop: DropStats::of(&mitigated_drops),
            mean_spike_delta: mean(&|o| o.spike_delta),
            regions,
            digest: snn_faults::verdict_digest_hex(outcomes),
        })
    }

    /// Accuracy the mitigation recovered, in accuracy points (mean
    /// mitigated accuracy minus mean faulty accuracy).
    pub fn recovered(&self) -> f32 {
        self.mitigated_accuracy - self.faulty_accuracy
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact statistics")]
mod tests {
    use super::*;
    use crate::campaign::{EvalSpec, ReliabilityEvaluator};
    use crate::fault_map::{FaultMapSpec, WeightFaultModel};
    use crate::mitigation::MitigationKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_faults::progress::CancelToken;
    use snn_model::{LifParams, NetworkBuilder};

    #[test]
    fn drop_stats_handle_empty_and_singleton() {
        let empty = DropStats::of(&[]);
        assert_eq!(empty, DropStats { mean: 0.0, p95: 0.0, worst: 0.0 });
        let one = DropStats::of(&[0.25]);
        assert_eq!(one, DropStats { mean: 0.25, p95: 0.25, worst: 0.25 });
    }

    #[test]
    fn drop_stats_nearest_rank_p95() {
        let drops: Vec<f32> = (1..=20).map(|i| i as f32 / 20.0).collect();
        let s = DropStats::of(&drops);
        assert_eq!(s.worst, 1.0);
        assert_eq!(s.p95, 0.95); // ceil(0.95·20) = 19 → sorted[18]
    }

    #[test]
    fn end_to_end_report_has_ranking_and_digest() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(8).dense(3).build(&mut rng);
        let spec = crate::ReliabilitySpec {
            map: FaultMapSpec::uniform(&net, 0.1, 0.02, 6, 42, WeightFaultModel::StuckSat, None),
            eval: EvalSpec { samples: 5, steps: 12, rate: 0.4, seed: 9 },
            mitigation: MitigationKind::RangeRestriction,
        };
        let eval = ReliabilityEvaluator::new(net.clone(), spec.clone()).unwrap();
        let outcomes = eval.evaluate_chunk(0..spec.map.configs, 0, &CancelToken::new()).unwrap();
        let report = ReliabilityReport::build(&net, &spec, &outcomes).unwrap();

        assert_eq!(report.configs, 6);
        assert_eq!(report.samples, 5);
        assert_eq!(report.baseline_accuracy, 1.0);
        assert!(!report.regions.is_empty(), "BER 0.1 must hit at least one region");
        assert_eq!(report.digest.len(), 16);
        // Ranking is sorted most-critical-first.
        for w in report.regions.windows(2) {
            assert!(w[0].mean_drop >= w[1].mean_drop);
        }
        // Mitigated accuracy can never be hurt by clamping into the clean
        // range relative to unmitigated saturation on these nets.
        assert!(report.mitigated_accuracy >= report.faulty_accuracy - 1e-6);
    }

    #[test]
    fn build_rejects_wrong_cardinality() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(3, LifParams::default()).dense(2).build(&mut rng);
        let spec = crate::ReliabilitySpec {
            map: FaultMapSpec::uniform(&net, 0.1, 0.0, 4, 1, WeightFaultModel::BitFlip, None),
            eval: EvalSpec::default(),
            mitigation: MitigationKind::None,
        };
        assert!(ReliabilityReport::build(&net, &spec, &[]).is_err());
    }
}
