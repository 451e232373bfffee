//! Mitigation strategies evaluated by reliability campaigns.
//!
//! A [`Mitigation`] turns a sampled [`FaultConfig`] into the weight
//! patches the *protected* deployment would actually suffer. Two
//! literature strategies are provided:
//!
//! * [`RangeRestriction`] (SoftSNN) — the accelerator clamps every
//!   weight read into the clean network's magnitude range, so corrupted
//!   values can be outliers no more. On a fault-free network this is the
//!   identity (no clean weight exceeds its own maximum), which the
//!   soundness tests pin down.
//! * [`FaultAwareMapping`] (ReSpawn) — the compiler remaps logical
//!   weight rows so the *least-critical* rows (smallest L1 norm, a
//!   significance proxy) are the ones stored in faulty physical rows.
//!   Faulty cells still corrupt whatever they host — but they host the
//!   rows whose corruption matters least.
//!
//! Neuron-state faults pass through every mitigation unchanged: both
//! strategies protect *weight memories*, and scoring them against
//! configurations that also carry neuron faults keeps the comparison
//! honest rather than flattering.

use crate::fault_map::{FaultConfig, WeightCorruption, WeightHit};
use serde::{Deserialize, Serialize};
use snn_faults::bit_flip_int8;
use snn_model::{Network, WeightRef};

/// A deterministic, pure weight-fault mitigation strategy.
pub trait Mitigation {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;

    /// The weight patches the protected deployment suffers under
    /// `config` — same addresses/values as `config.realize(net)` for the
    /// identity mitigation, fewer or tamer corruptions for real ones.
    fn patches(&self, net: &Network, config: &FaultConfig) -> Vec<(WeightRef, f32)>;
}

/// No mitigation: faults land exactly as sampled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unmitigated;

impl Mitigation for Unmitigated {
    fn name(&self) -> &'static str {
        "none"
    }

    fn patches(&self, net: &Network, config: &FaultConfig) -> Vec<(WeightRef, f32)> {
        config.realize(net)
    }
}

/// SoftSNN-style range restriction: every weight value read from memory
/// is clamped into `[-max|w|, +max|w|]` of the clean network.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeRestriction;

impl Mitigation for RangeRestriction {
    fn name(&self) -> &'static str {
        "range-restriction"
    }

    fn patches(&self, net: &Network, config: &FaultConfig) -> Vec<(WeightRef, f32)> {
        let bound = net.max_abs_weight();
        config.realize(net).into_iter().map(|(at, v)| (at, v.clamp(-bound, bound))).collect()
    }
}

/// ReSpawn-style fault-aware mapping: logical rows are re-assigned to
/// physical rows so faulty rows host the least-critical (smallest-L1)
/// logical rows. Modelled by relocating each faulty row's hits onto a
/// least-critical row of the same tensor (same column), then re-deriving
/// the corrupted values at the new cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultAwareMapping;

impl Mitigation for FaultAwareMapping {
    fn name(&self) -> &'static str {
        "fault-aware-mapping"
    }

    fn patches(&self, net: &Network, config: &FaultConfig) -> Vec<(WeightRef, f32)> {
        let max_abs = net.max_abs_weight();
        let mut remapped: Vec<WeightHit> = Vec::with_capacity(config.hits.len());

        // Group hits per (layer, tensor) so each tensor computes its row
        // ranking once.
        let mut groups: Vec<((usize, usize), Vec<WeightHit>)> = Vec::new();
        for &hit in &config.hits {
            let key = (hit.at.layer, hit.at.tensor);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(hit),
                None => groups.push((key, vec![hit])),
            }
        }

        for ((layer, tensor), hits) in groups {
            let t = net.layers()[layer].weight_tensors()[tensor];
            let dims = t.shape().dims();
            let (rows, cols) = if dims.len() >= 2 {
                (dims[0], t.as_slice().len() / dims[0].max(1))
            } else {
                (1, t.as_slice().len())
            };
            if rows <= 1 {
                remapped.extend(hits);
                continue;
            }
            // Rank rows by L1 norm ascending (least critical first);
            // ties break toward the lower index for determinism.
            let data = t.as_slice();
            let mut ranked: Vec<usize> = (0..rows).collect();
            ranked.sort_by(|&a, &b| {
                let na: f32 = data[a * cols..(a + 1) * cols].iter().map(|v| v.abs()).sum();
                let nb: f32 = data[b * cols..(b + 1) * cols].iter().map(|v| v.abs()).sum();
                na.partial_cmp(&nb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
            // Distinct faulty rows, in first-hit order, get the
            // least-critical physical assignments in rank order.
            let mut faulty_rows: Vec<usize> = Vec::new();
            for h in &hits {
                let row = h.at.offset / cols;
                if !faulty_rows.contains(&row) {
                    faulty_rows.push(row);
                }
            }
            let targets: Vec<usize> = ranked.into_iter().take(faulty_rows.len()).collect();
            for h in hits {
                let row = h.at.offset / cols;
                let col = h.at.offset % cols;
                #[expect(clippy::expect_used, reason = "`row` was pushed into faulty_rows above")]
                let idx = faulty_rows.iter().position(|&r| r == row).expect("row registered");
                let new_offset = targets[idx] * cols + col;
                remapped.push(WeightHit {
                    at: WeightRef { layer, tensor, offset: new_offset },
                    corruption: h.corruption,
                });
            }
        }

        remapped
            .into_iter()
            .map(|h| {
                let value = match h.corruption {
                    WeightCorruption::BitFlip { bit } => {
                        bit_flip_int8(net.weight(h.at), max_abs, bit)
                    }
                    WeightCorruption::StuckAt { value } => value,
                };
                (h.at, value)
            })
            .collect()
    }
}

/// Wire-friendly selector for the built-in mitigations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MitigationKind {
    /// [`Unmitigated`].
    None,
    /// [`RangeRestriction`].
    RangeRestriction,
    /// [`FaultAwareMapping`].
    FaultAwareMapping,
}

impl MitigationKind {
    /// The strategy instance this selector names.
    pub fn instance(&self) -> &'static dyn Mitigation {
        match self {
            Self::None => &Unmitigated,
            Self::RangeRestriction => &RangeRestriction,
            Self::FaultAwareMapping => &FaultAwareMapping,
        }
    }

    /// Parses the CLI spelling (`none` / `range` / `remap`).
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "none" => Ok(Self::None),
            "range" | "range-restriction" => Ok(Self::RangeRestriction),
            "remap" | "fault-aware-mapping" => Ok(Self::FaultAwareMapping),
            other => Err(format!("unknown mitigation '{other}' (expected none|range|remap)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_map::{
        sample_config, FaultMapSpec, MemoryRegion, RegionSpec, WeightFaultModel,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn test_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        NetworkBuilder::new(4, LifParams::default()).dense(6).dense(3).build(&mut rng)
    }

    fn stuck_spec(_net: &Network) -> FaultMapSpec {
        FaultMapSpec {
            regions: vec![RegionSpec {
                region: MemoryRegion::Weights { layer: 0, tensor: 0 },
                ber: 0.2,
            }],
            configs: 4,
            seed: 11,
            weight_model: WeightFaultModel::StuckSat,
            window: None,
        }
    }

    #[test]
    fn unmitigated_is_plain_realization() {
        let net = test_net();
        let spec = stuck_spec(&net);
        let c = sample_config(&net, &spec, 0);
        assert_eq!(Unmitigated.patches(&net, &c), c.realize(&net));
    }

    #[test]
    fn range_restriction_clamps_saturated_cells_into_range() {
        let net = test_net();
        let spec = stuck_spec(&net);
        let bound = net.max_abs_weight();
        let c = sample_config(&net, &spec, 1);
        assert!(!c.hits.is_empty(), "expected at least one hit at BER 0.2");
        let raw = Unmitigated.patches(&net, &c);
        assert!(raw.iter().any(|(_, v)| v.abs() > bound));
        for (at, v) in RangeRestriction.patches(&net, &c) {
            assert!(v.abs() <= bound, "cell {at:?} left out of range: {v}");
        }
    }

    #[test]
    fn fault_aware_mapping_moves_hits_to_least_critical_rows() {
        let net = test_net();
        let spec = stuck_spec(&net);
        let c = sample_config(&net, &spec, 2);
        assert!(!c.hits.is_empty());
        let patched = FaultAwareMapping.patches(&net, &c);
        assert_eq!(patched.len(), c.hits.len());

        // Columns are preserved; target rows are the least-critical ones.
        let t = net.layers()[0].weight_tensors()[0];
        let cols = t.shape().dims()[1];
        for (hit, (at, _)) in c.hits.iter().zip(patched.iter()) {
            assert_eq!(hit.at.offset % cols, at.offset % cols);
        }
    }

    #[test]
    fn mitigations_are_deterministic() {
        let net = test_net();
        let spec = stuck_spec(&net);
        let c = sample_config(&net, &spec, 3);
        for kind in [
            MitigationKind::None,
            MitigationKind::RangeRestriction,
            MitigationKind::FaultAwareMapping,
        ] {
            let m = kind.instance();
            assert_eq!(m.patches(&net, &c), m.patches(&net, &c), "{}", m.name());
        }
    }

    #[test]
    fn kind_parses_cli_spellings() {
        assert_eq!(MitigationKind::parse("none").unwrap(), MitigationKind::None);
        assert_eq!(MitigationKind::parse("range").unwrap(), MitigationKind::RangeRestriction);
        assert_eq!(MitigationKind::parse("remap").unwrap(), MitigationKind::FaultAwareMapping);
        assert!(MitigationKind::parse("magic").is_err());
    }
}
