use crate::{Fault, FaultKind, FaultSite, FaultUniverse};
use snn_model::{Network, NeuronBehaviorFault, NeuronFaultMap, WeightRef};

/// Concrete realization of a [`Fault`] on a network.
///
/// Weight faults are realized by temporarily patching one weight; neuron
/// faults by handing the simulator a behavioural override map. The
/// fault simulator applies/reverts these around each faulty run.
#[derive(Debug, Clone, PartialEq)]
pub enum Injection {
    /// Overwrite the weight at `at` with `value` for the duration of the
    /// faulty simulation.
    Weight {
        /// Address of the patched weight.
        at: WeightRef,
        /// Faulty value.
        value: f32,
    },
    /// Run the simulator with behavioural neuron overrides.
    Neuron(NeuronFaultMap),
}

/// An ill-formed [`Fault`]: its site and kind belong to different fault
/// classes, so no injection realizes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionError {
    /// A neuron site paired with a synapse fault kind.
    NeuronSiteWithSynapseKind {
        /// The offending synapse kind.
        kind: FaultKind,
    },
    /// A synapse site paired with a neuron fault kind.
    SynapseSiteWithNeuronKind {
        /// The offending neuron kind.
        kind: FaultKind,
    },
}

impl std::fmt::Display for InjectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NeuronSiteWithSynapseKind { kind } => {
                write!(f, "neuron site with synapse fault kind {kind:?}")
            }
            Self::SynapseSiteWithNeuronKind { kind } => {
                write!(f, "synapse site with neuron fault kind {kind:?}")
            }
        }
    }
}

impl std::error::Error for InjectionError {}

impl Injection {
    /// Builds the injection realizing `fault` on `net`, using the
    /// universe's magnitude configuration (saturation values scale with
    /// the network's largest absolute weight).
    ///
    /// Faults enumerated by a [`FaultUniverse`] are always well-formed;
    /// `Err` is only possible for hand-constructed faults whose site and
    /// kind disagree.
    pub fn for_fault(
        net: &Network,
        universe: &FaultUniverse,
        fault: &Fault,
    ) -> Result<Self, InjectionError> {
        let sat = universe.max_abs_weight * universe.config().sat_factor;
        match (fault.site, fault.kind) {
            (FaultSite::Neuron { layer, index }, kind) => {
                let behavior = match kind {
                    FaultKind::NeuronSaturated => NeuronBehaviorFault::Saturated,
                    FaultKind::NeuronDead => NeuronBehaviorFault::Dead,
                    FaultKind::NeuronTiming { threshold_scale, leak_scale, refrac_delta } => {
                        NeuronBehaviorFault::ParamScale {
                            threshold_scale,
                            leak_scale,
                            refrac_delta,
                        }
                    }
                    kind => return Err(InjectionError::NeuronSiteWithSynapseKind { kind }),
                };
                Ok(Injection::Neuron(NeuronFaultMap::single(layer, index, behavior)))
            }
            (FaultSite::Synapse(at), kind) => {
                let value = match kind {
                    FaultKind::SynapseDead => 0.0,
                    FaultKind::SynapseSatPos => sat,
                    FaultKind::SynapseSatNeg => -sat,
                    FaultKind::SynapseBitFlip { bit } => {
                        bit_flip_int8(net.weight(at), universe.max_abs_weight, bit)
                    }
                    kind => return Err(InjectionError::SynapseSiteWithNeuronKind { kind }),
                };
                Ok(Injection::Weight { at, value })
            }
        }
    }

    /// Index of the first layer whose computation this injection can
    /// affect.
    pub fn start_layer(&self) -> usize {
        match self {
            Injection::Weight { at, .. } => at.layer,
            // An empty map perturbs nothing, so starting at layer 0 is the
            // conservative identity rather than a panic.
            Injection::Neuron(map) => map.first_faulty_layer().unwrap_or(0),
        }
    }
}

/// Simulates a single-bit upset in the int8 memory word storing a weight:
/// the weight is symmetric-quantized against `max_abs` (scale
/// `max_abs/127`), one bit of the two's-complement word is flipped, and
/// the result is dequantized.
///
/// Public so fault-map-driven reliability campaigns (snn-reliability) can
/// sample bit-flip weight corruptions with the exact arithmetic the
/// detection path uses.
pub fn bit_flip_int8(weight: f32, max_abs: f32, bit: u8) -> f32 {
    debug_assert!(bit < 8);
    if max_abs <= 0.0 {
        return weight;
    }
    let scale = max_abs / 127.0;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "clamped to [-128, 127] on the line itself, so the i8 cast cannot truncate"
    )]
    let q = (weight / scale).round().clamp(-128.0, 127.0) as i8;
    let flipped = (q.cast_unsigned() ^ (1u8 << bit)).cast_signed();
    f32::from(flipped) * scale
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn setup() -> (Network, FaultUniverse) {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(3, LifParams::default()).dense(4).dense(2).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        (net, u)
    }

    #[test]
    fn synapse_dead_injects_zero_weight() {
        let (net, u) = setup();
        let fault = u.faults().iter().find(|f| f.kind == FaultKind::SynapseDead).unwrap();
        match Injection::for_fault(&net, &u, fault).unwrap() {
            Injection::Weight { value, .. } => assert_eq!(value, 0.0),
            other => panic!("expected weight injection, got {other:?}"),
        }
    }

    #[test]
    fn saturation_is_an_outlier_of_the_weight_distribution() {
        let (net, u) = setup();
        let pos = u.faults().iter().find(|f| f.kind == FaultKind::SynapseSatPos).unwrap();
        let neg = u.faults().iter().find(|f| f.kind == FaultKind::SynapseSatNeg).unwrap();
        let vp = match Injection::for_fault(&net, &u, pos).unwrap() {
            Injection::Weight { value, .. } => value,
            _ => unreachable!(),
        };
        let vn = match Injection::for_fault(&net, &u, neg).unwrap() {
            Injection::Weight { value, .. } => value,
            _ => unreachable!(),
        };
        assert!(vp > net.max_abs_weight());
        assert!(vn < -net.max_abs_weight());
        assert_eq!(vp, -vn);
    }

    #[test]
    fn neuron_faults_become_behavioural_overrides() {
        let (net, u) = setup();
        let dead = u.faults().iter().find(|f| f.kind == FaultKind::NeuronDead).unwrap();
        match Injection::for_fault(&net, &u, dead).unwrap() {
            Injection::Neuron(map) => {
                assert_eq!(map.len(), 1);
                assert_eq!(map.first_faulty_layer(), Some(dead.site.layer()));
            }
            other => panic!("expected neuron injection, got {other:?}"),
        }
    }

    #[test]
    fn start_layer_matches_site() {
        let (net, u) = setup();
        for f in u.faults() {
            let inj = Injection::for_fault(&net, &u, f).unwrap();
            assert_eq!(inj.start_layer(), f.site.layer());
        }
    }

    #[test]
    fn mismatched_site_and_kind_is_a_typed_error() {
        let (net, u) = setup();
        let bad_neuron = Fault {
            id: 0,
            site: FaultSite::Neuron { layer: 0, index: 0 },
            kind: FaultKind::SynapseDead,
        };
        assert_eq!(
            Injection::for_fault(&net, &u, &bad_neuron),
            Err(InjectionError::NeuronSiteWithSynapseKind { kind: FaultKind::SynapseDead })
        );

        let synapse_site =
            u.faults().iter().find(|f| matches!(f.site, FaultSite::Synapse(_))).unwrap().site;
        let bad_synapse = Fault { id: 1, site: synapse_site, kind: FaultKind::NeuronDead };
        let err = Injection::for_fault(&net, &u, &bad_synapse).unwrap_err();
        assert_eq!(err, InjectionError::SynapseSiteWithNeuronKind { kind: FaultKind::NeuronDead });
        assert!(err.to_string().contains("synapse site"));
    }

    #[test]
    fn bit_flip_round_trips_through_quantization() {
        // Flipping the same bit twice restores the quantized value.
        let w = 0.42;
        let max_abs = 1.0;
        for bit in 0..8 {
            let once = bit_flip_int8(w, max_abs, bit);
            let twice = bit_flip_int8(once, max_abs, bit);
            let q = |x: f32| (x / (max_abs / 127.0)).round();
            assert_eq!(q(twice), q(w), "bit {bit}");
        }
    }

    #[test]
    fn sign_bit_flip_changes_sign_region() {
        let v = bit_flip_int8(0.5, 1.0, 7);
        assert!(v < 0.0, "sign-bit flip should produce a negative weight, got {v}");
    }

    #[test]
    fn bit_flip_handles_degenerate_scale() {
        assert_eq!(bit_flip_int8(0.3, 0.0, 3), 0.3);
    }
}
