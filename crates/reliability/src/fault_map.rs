//! Fault maps: per-memory-region bit-error-rate specifications,
//! deterministically sampled into concrete fault configurations.
//!
//! A reliability campaign does not enumerate every possible fault the way
//! a detection campaign does — it asks what a *distribution* of faults
//! costs. A [`FaultMapSpec`] assigns a bit-error rate to each memory
//! region of the deployed network (one region per weight tensor, one per
//! spiking layer's neuron-state memory), and sampling it `configs` times
//! from a seed yields that many concrete [`FaultConfig`]s. Sampling is a
//! pure function of `(spec, network topology, config index)` — every
//! cluster worker that re-samples config `k` obtains the identical fault
//! set, which is what lets reliability campaigns ship only the spec over
//! the wire and still merge digest-identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use snn_faults::{bit_flip_int8, TransientWindow};
use snn_model::{Network, NeuronBehaviorFault, NeuronFaultMap, WeightRef};

/// Saturation magnitude for stuck-at weight corruptions, as a multiple of
/// the network's largest absolute weight — matching the detection path's
/// default saturation factor so both campaigns stress the same outliers.
pub const STUCK_SAT_FACTOR: f32 = 1.5;

/// One addressable memory region of the deployed network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryRegion {
    /// The weight memory of one tensor (`tensor` indexes the layer's
    /// weight tensors: 0 for dense/conv weights and recurrent `W_in`,
    /// 1 for recurrent `W_rec`).
    Weights {
        /// Layer index within the network.
        layer: usize,
        /// Weight-tensor index within the layer.
        tensor: usize,
    },
    /// The neuron-state memory (membrane/threshold registers) of one
    /// spiking layer.
    Neurons {
        /// Layer index within the network.
        layer: usize,
    },
}

impl MemoryRegion {
    /// Short human-readable label used in criticality rankings.
    pub fn label(&self) -> String {
        match self {
            Self::Weights { layer, tensor } => format!("weights[L{layer}.T{tensor}]"),
            Self::Neurons { layer } => format!("neurons[L{layer}]"),
        }
    }
}

/// A memory region together with its bit-error rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionSpec {
    /// The addressed region.
    pub region: MemoryRegion,
    /// Per-cell fault probability in `[0, 1]`.
    pub ber: f32,
}

/// How a sampled weight-memory hit corrupts the stored value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightFaultModel {
    /// Flip one uniformly-chosen bit of the int8 memory word (the
    /// SoftSNN soft-error model; uses [`snn_faults::bit_flip_int8`]).
    BitFlip,
    /// Stick the cell at ±[`STUCK_SAT_FACTOR`]·max|w| with a fair sign
    /// coin (permanent-defect model; the case range-restriction targets).
    StuckSat,
}

/// A complete fault-map specification: regions, rates, sample count and
/// the seed everything derives from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMapSpec {
    /// Regions under fault, in a fixed order (sampling iterates this
    /// order, so the order is part of the deterministic contract).
    pub regions: Vec<RegionSpec>,
    /// Number of fault configurations to sample.
    pub configs: usize,
    /// Root seed; config `k` derives its own RNG stream from it.
    pub seed: u64,
    /// Corruption model for weight-memory hits.
    pub weight_model: WeightFaultModel,
    /// Timestep window the faults are live in (`None` = permanent).
    pub window: Option<TransientWindow>,
}

impl FaultMapSpec {
    /// A spec covering *every* memory region of `net` uniformly:
    /// `weight_ber` on each weight tensor, `neuron_ber` on each spiking
    /// layer's neuron-state memory (regions with rate 0 are omitted).
    pub fn uniform(
        net: &Network,
        weight_ber: f32,
        neuron_ber: f32,
        configs: usize,
        seed: u64,
        weight_model: WeightFaultModel,
        window: Option<TransientWindow>,
    ) -> Self {
        let mut regions = Vec::new();
        for (layer, l) in net.layers().iter().enumerate() {
            if weight_ber > 0.0 {
                for tensor in 0..l.weight_tensors().len() {
                    regions.push(RegionSpec {
                        region: MemoryRegion::Weights { layer, tensor },
                        ber: weight_ber,
                    });
                }
            }
            if neuron_ber > 0.0 && l.is_spiking() {
                regions
                    .push(RegionSpec { region: MemoryRegion::Neurons { layer }, ber: neuron_ber });
            }
        }
        Self { regions, configs, seed, weight_model, window }
    }

    /// Checks the spec against a concrete network, returning a
    /// description of the first problem found.
    pub fn validate(&self, net: &Network) -> Result<(), String> {
        if self.configs == 0 {
            return Err("fault map samples zero configurations".into());
        }
        if self.regions.is_empty() {
            return Err("fault map addresses no memory regions".into());
        }
        for (i, r) in self.regions.iter().enumerate() {
            if !(0.0..=1.0).contains(&r.ber) || r.ber.is_nan() {
                return Err(format!("region {i}: bit-error rate {} outside [0, 1]", r.ber));
            }
            match r.region {
                MemoryRegion::Weights { layer, tensor } => {
                    let Some(l) = net.layers().get(layer) else {
                        return Err(format!("region {i}: layer {layer} out of range"));
                    };
                    if tensor >= l.weight_tensors().len() {
                        return Err(format!(
                            "region {i}: layer {layer} has no weight tensor {tensor}"
                        ));
                    }
                }
                MemoryRegion::Neurons { layer } => {
                    let Some(l) = net.layers().get(layer) else {
                        return Err(format!("region {i}: layer {layer} out of range"));
                    };
                    if !l.is_spiking() {
                        return Err(format!("region {i}: layer {layer} has no neuron state"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A corruption of one weight-memory cell, kept symbolic so mitigations
/// can relocate the hit and re-derive the faulty value at the new cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightCorruption {
    /// One flipped bit of the int8 word (bit `0..8`).
    BitFlip {
        /// Flipped bit index.
        bit: u8,
    },
    /// Cell stuck at a fixed value regardless of the stored weight.
    StuckAt {
        /// The stuck value.
        value: f32,
    },
}

/// One sampled weight-memory hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightHit {
    /// The afflicted cell.
    pub at: WeightRef,
    /// How the cell's content is corrupted.
    pub corruption: WeightCorruption,
}

/// One concrete fault configuration sampled from a [`FaultMapSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Index of this configuration within the spec's sample set.
    pub id: usize,
    /// Sampled weight-memory hits, in deterministic region/offset order.
    pub hits: Vec<WeightHit>,
    /// Sampled neuron-state faults.
    pub neurons: NeuronFaultMap,
    /// Indices into `spec.regions` that received at least one hit.
    pub hit_regions: Vec<usize>,
}

impl FaultConfig {
    /// Realizes the weight hits against `net`'s current weights as
    /// `(address, faulty value)` patches, with no mitigation applied.
    pub fn realize(&self, net: &Network) -> Vec<(WeightRef, f32)> {
        let max_abs = net.max_abs_weight();
        self.hits
            .iter()
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

    /// `true` if the configuration perturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty() && self.neurons.is_empty()
    }
}

/// SplitMix64 finalizer — decorrelates per-config seeds derived from the
/// root seed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream of config `k` under root seed `seed`.
fn config_rng(seed: u64, k: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Samples fault configuration `k` of `spec` on `net`.
///
/// This is a pure function: any process sampling the same
/// `(spec, net topology, k)` obtains the identical configuration, which
/// is the determinism contract distributed reliability campaigns rely on.
pub fn sample_config(net: &Network, spec: &FaultMapSpec, k: usize) -> FaultConfig {
    let mut rng = config_rng(spec.seed, k);
    let sat = net.max_abs_weight() * STUCK_SAT_FACTOR;
    let mut hits = Vec::new();
    let mut neurons = NeuronFaultMap::new();
    let mut hit_regions = Vec::new();

    for (ri, r) in spec.regions.iter().enumerate() {
        let mut region_hit = false;
        match r.region {
            MemoryRegion::Weights { layer, tensor } => {
                let len = net.layers()[layer].weight_tensors()[tensor].as_slice().len();
                for offset in 0..len {
                    if rng.gen::<f32>() >= r.ber {
                        continue;
                    }
                    region_hit = true;
                    let corruption = match spec.weight_model {
                        WeightFaultModel::BitFlip => {
                            WeightCorruption::BitFlip { bit: rng.gen_range(0..8u8) }
                        }
                        WeightFaultModel::StuckSat => WeightCorruption::StuckAt {
                            value: if rng.gen_bool(0.5) { sat } else { -sat },
                        },
                    };
                    hits.push(WeightHit { at: WeightRef { layer, tensor, offset }, corruption });
                }
            }
            MemoryRegion::Neurons { layer } => {
                let n = net.layers()[layer].out_features();
                for index in 0..n {
                    if rng.gen::<f32>() >= r.ber {
                        continue;
                    }
                    region_hit = true;
                    let fault = if rng.gen_bool(0.5) {
                        NeuronBehaviorFault::Dead
                    } else {
                        NeuronBehaviorFault::Saturated
                    };
                    neurons.insert(layer, index, fault);
                }
            }
        }
        if region_hit {
            hit_regions.push(ri);
        }
    }
    FaultConfig { id: k, hits, neurons, hit_regions }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact sampled values")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn test_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        NetworkBuilder::new(4, LifParams::default()).dense(6).dense(3).build(&mut rng)
    }

    fn test_spec(net: &Network) -> FaultMapSpec {
        FaultMapSpec::uniform(net, 0.05, 0.05, 8, 42, WeightFaultModel::BitFlip, None)
    }

    #[test]
    fn uniform_covers_all_regions() {
        let net = test_net();
        let spec = test_spec(&net);
        // Two dense layers: one weight tensor + one neuron region each.
        assert_eq!(spec.regions.len(), 4);
        assert!(spec.validate(&net).is_ok());
    }

    #[test]
    fn sampling_is_deterministic_per_config() {
        let net = test_net();
        let spec = test_spec(&net);
        for k in 0..spec.configs {
            assert_eq!(sample_config(&net, &spec, k), sample_config(&net, &spec, k));
        }
    }

    #[test]
    fn different_configs_differ() {
        let net = test_net();
        let spec = FaultMapSpec::uniform(&net, 0.2, 0.2, 8, 42, WeightFaultModel::BitFlip, None);
        let all: Vec<_> = (0..8).map(|k| sample_config(&net, &spec, k)).collect();
        assert!(all.windows(2).any(|w| w[0].hits != w[1].hits || w[0].neurons != w[1].neurons));
    }

    #[test]
    fn zero_ber_samples_nothing() {
        let net = test_net();
        let spec = FaultMapSpec {
            regions: vec![RegionSpec {
                region: MemoryRegion::Weights { layer: 0, tensor: 0 },
                ber: 0.0,
            }],
            configs: 3,
            seed: 7,
            weight_model: WeightFaultModel::StuckSat,
            window: None,
        };
        for k in 0..3 {
            assert!(sample_config(&net, &spec, k).is_empty());
        }
    }

    #[test]
    fn unit_ber_hits_every_cell() {
        let net = test_net();
        let spec = FaultMapSpec {
            regions: vec![RegionSpec {
                region: MemoryRegion::Weights { layer: 0, tensor: 0 },
                ber: 1.0,
            }],
            configs: 1,
            seed: 7,
            weight_model: WeightFaultModel::StuckSat,
            window: None,
        };
        let c = sample_config(&net, &spec, 0);
        assert_eq!(c.hits.len(), 4 * 6);
        assert_eq!(c.hit_regions, vec![0]);
    }

    #[test]
    fn stuck_sat_realizes_outliers() {
        let net = test_net();
        let spec = FaultMapSpec {
            regions: vec![RegionSpec {
                region: MemoryRegion::Weights { layer: 0, tensor: 0 },
                ber: 1.0,
            }],
            configs: 1,
            seed: 3,
            weight_model: WeightFaultModel::StuckSat,
            window: None,
        };
        let c = sample_config(&net, &spec, 0);
        let sat = net.max_abs_weight() * STUCK_SAT_FACTOR;
        for (_, v) in c.realize(&net) {
            assert_eq!(v.abs(), sat);
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let net = test_net();
        let mut spec = test_spec(&net);
        spec.configs = 0;
        assert!(spec.validate(&net).is_err());

        let mut spec = test_spec(&net);
        spec.regions.clear();
        assert!(spec.validate(&net).is_err());

        let mut spec = test_spec(&net);
        spec.regions[0].ber = 1.5;
        assert!(spec.validate(&net).is_err());

        let mut spec = test_spec(&net);
        spec.regions[0].region = MemoryRegion::Weights { layer: 9, tensor: 0 };
        assert!(spec.validate(&net).is_err());

        let mut spec = test_spec(&net);
        spec.regions[0].region = MemoryRegion::Weights { layer: 0, tensor: 2 };
        assert!(spec.validate(&net).is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let net = test_net();
        let spec = FaultMapSpec::uniform(
            &net,
            0.01,
            0.02,
            5,
            99,
            WeightFaultModel::StuckSat,
            Some(TransientWindow::new(3, 9)),
        );
        let json = serde::json::to_string(&spec);
        let back: FaultMapSpec = serde::json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
