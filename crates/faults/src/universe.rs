use serde::{Deserialize, Serialize};
use snn_model::{Network, WeightRef};

/// Behavioural fault type, following the paper's Section III taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Neuron produces non-stop output spikes even without input activity.
    NeuronSaturated,
    /// Neuron halts input spike propagation (never fires).
    NeuronDead,
    /// Timing-variation fault: the neuron's LIF parameters are perturbed
    /// (extension; not part of the paper's standard campaign counts).
    NeuronTiming {
        /// Multiplier on the firing threshold.
        threshold_scale: f32,
        /// Multiplier on the leak factor.
        leak_scale: f32,
        /// Signed change of the refractory period in ticks.
        refrac_delta: i32,
    },
    /// Synapse weight stuck at zero.
    SynapseDead,
    /// Synapse weight stuck at a large positive outlier.
    SynapseSatPos,
    /// Synapse weight stuck at a large negative outlier.
    SynapseSatNeg,
    /// One bit of the weight's quantized int8 memory word is flipped
    /// (extension).
    SynapseBitFlip {
        /// Bit position 0..=7 (7 = sign bit of the int8 word).
        bit: u8,
    },
}

impl FaultKind {
    /// `true` for neuron-level faults.
    pub fn is_neuron(&self) -> bool {
        matches!(
            self,
            FaultKind::NeuronSaturated | FaultKind::NeuronDead | FaultKind::NeuronTiming { .. }
        )
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NeuronSaturated => "neuron-saturated",
            FaultKind::NeuronDead => "neuron-dead",
            FaultKind::NeuronTiming { .. } => "neuron-timing",
            FaultKind::SynapseDead => "synapse-dead",
            FaultKind::SynapseSatPos => "synapse-sat+",
            FaultKind::SynapseSatNeg => "synapse-sat-",
            FaultKind::SynapseBitFlip { .. } => "synapse-bitflip",
        }
    }
}

/// Where a fault lives in the network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultSite {
    /// A LIF neuron, addressed by layer and index within the layer.
    Neuron {
        /// Layer index in `Network::layers()`.
        layer: usize,
        /// Neuron index within the layer.
        index: usize,
    },
    /// A synaptic weight.
    Synapse(WeightRef),
}

impl FaultSite {
    /// The layer the fault is confined to — activity of earlier layers is
    /// provably unaffected in a feedforward network, which is what enables
    /// prefix-cached fault simulation.
    pub fn layer(&self) -> usize {
        match self {
            FaultSite::Neuron { layer, .. } => *layer,
            FaultSite::Synapse(r) => r.layer,
        }
    }
}

/// One enumerated fault: a site plus a kind, with a stable id within its
/// universe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Index of this fault within its [`FaultUniverse`].
    pub id: usize,
    /// Location in the network.
    pub site: FaultSite,
    /// Behavioural fault type.
    pub kind: FaultKind,
}

/// Magnitudes used when concretizing saturation and quantization faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModelConfig {
    /// Saturated synapse weight = `± sat_factor × max|w|` over the network,
    /// making it an outlier of the weight distribution (paper §III).
    pub sat_factor: f32,
    /// Timing-fault threshold perturbation (± this fraction).
    pub timing_threshold_delta: f32,
    /// Timing-fault leak perturbation (± this fraction).
    pub timing_leak_delta: f32,
    /// Timing-fault refractory change in ticks.
    pub timing_refrac_delta: i32,
}

impl Default for FaultModelConfig {
    fn default() -> Self {
        Self {
            sat_factor: 2.0,
            timing_threshold_delta: 0.5,
            timing_leak_delta: 0.3,
            timing_refrac_delta: 3,
        }
    }
}

/// The enumerated fault space of a network (`Default` is the empty one).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_faults::FaultUniverse;
/// use snn_model::{LifParams, NetworkBuilder};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(3, LifParams::default()).dense(2).build(&mut rng);
/// let u = FaultUniverse::standard(&net);
/// // 2 per neuron + 3 per synapse
/// assert_eq!(u.len(), 2 * 2 + 3 * 6);
/// assert_eq!(u.neuron_fault_count(), 4);
/// assert_eq!(u.synapse_fault_count(), 18);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
    config: FaultModelConfig,
    /// `max|w|` of the network at enumeration time (used for saturation
    /// values).
    pub max_abs_weight: f32,
}

impl FaultUniverse {
    /// The paper's standard campaign: `{saturated, dead}` per neuron and
    /// `{dead, sat+, sat−}` per synapse.
    pub fn standard(net: &Network) -> Self {
        Self::with_config(net, FaultModelConfig::default(), false, &[])
    }

    /// Full universe with optional extensions: timing-variation neuron
    /// faults and bit-flip synapse faults at the given bit positions.
    ///
    /// # Panics
    ///
    /// Panics if any bit position exceeds 7.
    pub fn with_config(
        net: &Network,
        config: FaultModelConfig,
        timing_faults: bool,
        bitflip_bits: &[u8],
    ) -> Self {
        assert!(
            bitflip_bits.iter().all(|&b| b < 8),
            "bit positions must be < 8 for int8 quantization"
        );
        let mut faults = Vec::new();
        let mut push = |site, kind| {
            let id = faults.len();
            faults.push(Fault { id, site, kind });
        };
        for (layer, count) in net.neuron_layout() {
            for index in 0..count {
                let site = FaultSite::Neuron { layer, index };
                push(site, FaultKind::NeuronSaturated);
                push(site, FaultKind::NeuronDead);
                if timing_faults {
                    push(
                        site,
                        FaultKind::NeuronTiming {
                            threshold_scale: 1.0 + config.timing_threshold_delta,
                            leak_scale: 1.0 - config.timing_leak_delta,
                            refrac_delta: config.timing_refrac_delta,
                        },
                    );
                }
            }
        }
        for global in 0..net.synapse_count() {
            let r = net.locate_weight(global);
            let site = FaultSite::Synapse(r);
            push(site, FaultKind::SynapseDead);
            push(site, FaultKind::SynapseSatPos);
            push(site, FaultKind::SynapseSatNeg);
            for &bit in bitflip_bits {
                push(site, FaultKind::SynapseBitFlip { bit });
            }
        }
        Self { faults, config, max_abs_weight: net.max_abs_weight() }
    }

    /// The enumerated faults, id-ordered.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The fault with id `id`, by index: enumeration assigns
    /// `id = position`, so the lookup is O(1). `None` for an id outside
    /// the universe, or — in a deserialized universe whose ids are not
    /// dense — one that does not sit in its own slot.
    pub fn get(&self, id: usize) -> Option<&Fault> {
        self.faults.get(id).filter(|f| f.id == id)
    }

    /// Total fault count.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of neuron-level faults.
    pub fn neuron_fault_count(&self) -> usize {
        self.faults.iter().filter(|f| f.kind.is_neuron()).count()
    }

    /// Number of synapse-level faults.
    pub fn synapse_fault_count(&self) -> usize {
        self.len() - self.neuron_fault_count()
    }

    /// The magnitude configuration used at enumeration.
    pub fn config(&self) -> &FaultModelConfig {
        &self.config
    }

    /// Uniform random sample of `n` faults (without replacement), keeping
    /// id order. Useful for statistical fault-coverage estimation on large
    /// universes.
    pub fn sample(&self, rng: &mut impl rand::Rng, n: usize) -> Vec<Fault> {
        use rand::seq::SliceRandom;
        let n = n.min(self.faults.len());
        let mut idx: Vec<usize> = (0..self.faults.len()).collect();
        idx.shuffle(rng);
        let mut chosen: Vec<usize> = idx.into_iter().take(n).collect();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| self.faults[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        NetworkBuilder::new(4, LifParams::default()).dense(5).dense(3).build(&mut rng)
    }

    #[test]
    fn standard_universe_matches_table2_multiplicity() {
        let n = net();
        let u = FaultUniverse::standard(&n);
        assert_eq!(u.neuron_fault_count(), 2 * n.neuron_count());
        assert_eq!(u.synapse_fault_count(), 3 * n.synapse_count());
        assert_eq!(u.len(), 2 * 8 + 3 * (20 + 15));
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let u = FaultUniverse::standard(&net());
        for (i, f) in u.faults().iter().enumerate() {
            assert_eq!(f.id, i);
            assert_eq!(u.get(i), Some(f));
        }
        assert_eq!(u.get(u.len()), None);
        assert_eq!(u.get(usize::MAX), None);
    }

    #[test]
    fn get_refuses_an_id_that_sits_in_the_wrong_slot() {
        // Only a deserialized universe can be non-dense; such an id is
        // unknown, never resolved to whatever occupies its index.
        let text = serde::json::to_string(&FaultUniverse::standard(&net()));
        let moved = text.replacen("\"id\":0,", "\"id\":5,", 1);
        assert_ne!(moved, text, "fixture edit must apply");
        let u: FaultUniverse = serde::json::from_str(&moved).expect("still a universe");
        assert_eq!(u.get(0), None, "slot 0 now holds id 5");
        assert_eq!(u.get(5).map(|f| f.id), Some(5), "slot 5 still holds its own fault");
        assert_eq!(u.get(5), u.faults().get(5));
    }

    #[test]
    fn timing_extension_adds_one_fault_per_neuron() {
        let n = net();
        let u = FaultUniverse::with_config(&n, FaultModelConfig::default(), true, &[]);
        assert_eq!(u.neuron_fault_count(), 3 * n.neuron_count());
    }

    #[test]
    fn bitflip_extension_adds_per_bit_faults() {
        let n = net();
        let u = FaultUniverse::with_config(&n, FaultModelConfig::default(), false, &[0, 7]);
        assert_eq!(u.synapse_fault_count(), 5 * n.synapse_count());
    }

    #[test]
    #[should_panic(expected = "bit positions")]
    fn bitflip_rejects_bad_bit() {
        FaultUniverse::with_config(&net(), FaultModelConfig::default(), false, &[8]);
    }

    #[test]
    fn sample_is_subset_without_replacement() {
        let u = FaultUniverse::standard(&net());
        let mut rng = StdRng::seed_from_u64(1);
        let s = u.sample(&mut rng, 10);
        assert_eq!(s.len(), 10);
        let mut ids: Vec<usize> = s.iter().map(|f| f.id).collect();
        let before = ids.clone();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        assert_eq!(before, ids, "sample should be id-ordered");
    }

    #[test]
    fn sample_caps_at_universe_size() {
        let u = FaultUniverse::standard(&net());
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(u.sample(&mut rng, 10_000).len(), u.len());
    }

    #[test]
    fn sample_is_seed_deterministic() {
        let u = FaultUniverse::standard(&net());
        let a = u.sample(&mut StdRng::seed_from_u64(7), 12);
        let b = u.sample(&mut StdRng::seed_from_u64(7), 12);
        assert_eq!(a, b, "same seed must draw the same sample");
        let c = u.sample(&mut StdRng::seed_from_u64(8), 12);
        assert_ne!(a, c, "different seeds should draw different samples");
    }

    #[test]
    fn enumeration_is_deterministic() {
        let n = net();
        let a = FaultUniverse::with_config(&n, FaultModelConfig::default(), true, &[0, 7]);
        let b = FaultUniverse::with_config(&n, FaultModelConfig::default(), true, &[0, 7]);
        assert_eq!(a, b);
    }

    #[test]
    fn section3_counts_on_conv_pool_recurrent_topology() {
        // Mixed topology exercising every layer kind: the §III standard
        // universe holds 2 faults per spiking neuron and 3 per weight
        // (pool layers contribute neither).
        let mut rng = StdRng::seed_from_u64(5);
        let n = NetworkBuilder::new_spatial(2, 8, 8, LifParams::default())
            .avg_pool(2)
            .conv(3, 3, 1, 1)
            .dense(6)
            .build(&mut rng);
        let u = FaultUniverse::standard(&n);
        // conv: 3 channels on a 4×4 map = 48 neurons; dense: 6.
        let neurons = 3 * 4 * 4 + 6;
        // conv kernel: 3·2·3·3 = 54 weights; dense: 6·48 = 288.
        let synapses = 3 * 2 * 3 * 3 + 6 * 48;
        assert_eq!(n.neuron_count(), neurons);
        assert_eq!(n.synapse_count(), synapses);
        assert_eq!(u.neuron_fault_count(), 2 * neurons);
        assert_eq!(u.synapse_fault_count(), 3 * synapses);

        let mut rng = StdRng::seed_from_u64(6);
        let r = NetworkBuilder::new(10, LifParams::default()).recurrent(4).build(&mut rng);
        let ru = FaultUniverse::standard(&r);
        // recurrent: 4·10 input weights + 4·4 recurrent weights.
        assert_eq!(ru.len(), 2 * 4 + 3 * (4 * 10 + 4 * 4));
    }

    #[test]
    fn bitflip_accepts_boundary_bit_seven() {
        let n = net();
        let u = FaultUniverse::with_config(&n, FaultModelConfig::default(), false, &[7]);
        assert_eq!(u.synapse_fault_count(), 4 * n.synapse_count());
        assert!(u.faults().iter().any(|f| matches!(f.kind, FaultKind::SynapseBitFlip { bit: 7 })));
    }

    #[test]
    fn site_layer_reflects_fault_location() {
        let n = net();
        let u = FaultUniverse::standard(&n);
        for f in u.faults() {
            match f.site {
                FaultSite::Neuron { layer, index } => {
                    assert!(layer < n.layers().len());
                    assert!(index < n.layers()[layer].out_features());
                    assert_eq!(f.site.layer(), layer);
                }
                FaultSite::Synapse(r) => {
                    assert!(r.layer < n.layers().len());
                    assert_eq!(f.site.layer(), r.layer);
                }
            }
        }
    }
}
