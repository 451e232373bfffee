//! Property-based invariants of the SNN simulator, checked over randomly
//! generated networks, parameters and stimuli.

#![expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_model::{
    event_forward, LifParams, Network, NetworkBuilder, NeuronBehaviorFault, NeuronFaultMap,
    RecordOptions,
};
use snn_tensor::{Shape, Tensor};

/// Strategy: a small random dense/recurrent network plus a stimulus.
fn arbitrary_net_and_input() -> impl Strategy<Value = (Network, Tensor)> {
    (
        0u64..1000,      // weight seed
        2usize..6,       // inputs
        2usize..10,      // hidden
        1usize..4,       // outputs
        0u32..4,         // refractory
        50u32..101,      // leak %
        5usize..30,      // steps
        prop::bool::ANY, // recurrent hidden?
        0.0f32..0.8,     // input density
    )
        .prop_map(
            |(seed, inputs, hidden, outputs, refrac, leak, steps, recurrent, density)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let lif =
                    LifParams { threshold: 1.0, leak: leak as f32 / 100.0, refrac_steps: refrac };
                let builder = NetworkBuilder::new(inputs, lif);
                let builder =
                    if recurrent { builder.recurrent(hidden) } else { builder.dense(hidden) };
                let net = builder.dense(outputs).build(&mut rng);
                let input =
                    snn_tensor::init::bernoulli(&mut rng, Shape::d2(steps, inputs), density);
                (net, input)
            },
        )
}

/// Strategy: up to five neuron faults, each a kind (dead, saturated or
/// parameter-scaled) and a position drawn over the spiking neurons of
/// whatever network it meets (see [`fault_map`]).
fn arbitrary_faults() -> impl Strategy<Value = Vec<(usize, u8, f32, f32, i32)>> {
    prop::collection::vec(
        (
            0usize..10_000, // global neuron index, wrapped onto the network
            0u8..3,         // dead, saturated, parameter-scaled
            0.25f32..2.0,   // threshold scale
            0.5f32..1.5,    // leak scale (clamped to (0, 1] at use)
            -3i32..4,       // refractory change
        ),
        0..6,
    )
}

/// The fault map `faults` describes on `net`'s spiking neurons.
fn fault_map(net: &Network, faults: &[(usize, u8, f32, f32, i32)]) -> NeuronFaultMap {
    let layout = net.neuron_layout();
    let total: usize = layout.iter().map(|&(_, n)| n).sum();
    let mut map = NeuronFaultMap::new();
    for &(at, kind, threshold_scale, leak_scale, refrac_delta) in faults {
        let fault = match kind {
            0 => NeuronBehaviorFault::Dead,
            1 => NeuronBehaviorFault::Saturated,
            _ => NeuronBehaviorFault::ParamScale { threshold_scale, leak_scale, refrac_delta },
        };
        let mut at = at % total;
        for &(layer, n) in &layout {
            if at < n {
                map.insert(layer, at, fault);
                break;
            }
            at -= n;
        }
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All outputs of all layers are strictly binary spike trains.
    #[test]
    fn outputs_are_binary((net, input) in arbitrary_net_and_input()) {
        let trace = net.forward(&input, RecordOptions::spikes_only());
        for lt in &trace.layers {
            prop_assert!(lt.output.is_binary());
        }
    }

    /// No neuron ever fires twice within its refractory window: for
    /// refractory R, consecutive spikes are at least R+1 ticks apart.
    #[test]
    fn refractory_spacing_is_respected((net, input) in arbitrary_net_and_input()) {
        let trace = net.forward(&input, RecordOptions::spikes_only());
        for (idx, layer) in net.layers().iter().enumerate() {
            let Some(lif) = layer.lif() else { continue };
            let min_gap = lif.refrac_steps as usize + 1;
            let n = layer.out_features();
            let out = trace.layers[idx].output.as_slice();
            let steps = input.shape().dim(0);
            for i in 0..n {
                let mut last: Option<usize> = None;
                for t in 0..steps {
                    if out[t * n + i] == 1.0 {
                        if let Some(prev) = last {
                            prop_assert!(
                                t - prev >= min_gap,
                                "layer {idx} neuron {i}: spikes at {prev} and {t} violate refrac {}",
                                lif.refrac_steps
                            );
                        }
                        last = Some(t);
                    }
                }
            }
        }
    }

    /// Simulation is a pure function: repeated runs agree exactly.
    #[test]
    fn forward_is_pure((net, input) in arbitrary_net_and_input()) {
        let a = net.forward(&input, RecordOptions::full());
        let b = net.forward(&input, RecordOptions::full());
        prop_assert_eq!(a, b);
    }

    /// The event-driven engine agrees with the clocked engine on every
    /// random network (including recurrent ones), fault-free and under a
    /// random map of dead, saturated and parameter-scaled neurons — a
    /// cross-oracle check of both engines' per-neuron fault paths
    /// (forced output, threshold, leak and refractory period).
    #[test]
    fn engines_are_equivalent(
        (net, input) in arbitrary_net_and_input(),
        faults in arbitrary_faults(),
    ) {
        let dense = net.forward(&input, RecordOptions::spikes_only());
        let (event, _) = event_forward(&net, &input, &NeuronFaultMap::new());
        for (idx, (d, e)) in dense.layers.iter().zip(event.iter()).enumerate() {
            prop_assert_eq!(&d.output, e, "layer {} diverged", idx);
        }
        let faults = fault_map(&net, &faults);
        let dense = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        let (event, _) = event_forward(&net, &input, &faults);
        for (idx, (d, e)) in dense.layers.iter().zip(event.iter()).enumerate() {
            prop_assert_eq!(&d.output, e, "layer {} diverged under {:?}", idx, faults);
        }
    }

    /// Save/load round trips preserve behaviour bit-exactly.
    #[test]
    fn serialization_preserves_behaviour((net, input) in arbitrary_net_and_input()) {
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        let loaded = Network::load(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(&loaded, &net);
        let a = net.forward(&input, RecordOptions::spikes_only());
        let b = loaded.forward(&input, RecordOptions::spikes_only());
        prop_assert_eq!(a.output(), b.output());
    }

    /// A dead neuron's spike train is empty. In a *feedforward* layer the
    /// fault is also local: no other neuron of the same layer changes
    /// (in a recurrent layer the victim's missing spikes do perturb its
    /// neighbours through the recurrent weights, so locality only applies
    /// to the dense case).
    #[test]
    fn dead_fault_is_local_to_its_neuron((net, input) in arbitrary_net_and_input()) {
        let (layer, n) = {
            let spiking: Vec<(usize, usize)> = net.neuron_layout();
            spiking[0]
        };
        let victim = n / 2;
        let faults = NeuronFaultMap::single(layer, victim, snn_model::NeuronBehaviorFault::Dead);
        let nominal = net.forward(&input, RecordOptions::spikes_only());
        let faulty = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        let steps = input.shape().dim(0);
        let out_n = net.layers()[layer].out_features();
        let recurrent = matches!(net.layers()[layer], snn_model::Layer::Recurrent(_));
        let fo = faulty.layers[layer].output.as_slice();
        let no = nominal.layers[layer].output.as_slice();
        for t in 0..steps {
            prop_assert_eq!(fo[t * out_n + victim], 0.0, "victim fired at t={}", t);
            if recurrent {
                continue;
            }
            for i in 0..out_n {
                if i != victim {
                    prop_assert_eq!(fo[t * out_n + i], no[t * out_n + i]);
                }
            }
        }
    }

    /// Monotone stimulus growth: prepending ticks to a stimulus never
    /// changes the response to the original window start when the network
    /// state is fresh (prefix property of causal simulation).
    #[test]
    fn simulation_is_causal((net, input) in arbitrary_net_and_input()) {
        let steps = input.shape().dim(0);
        if steps < 4 {
            return Ok(());
        }
        // Truncate to the first half: outputs over that window must match
        // the full run exactly (the future cannot affect the past).
        let half = steps / 2;
        let features = input.shape().dim(1);
        let head = Tensor::from_vec(
            Shape::d2(half, features),
            input.as_slice()[..half * features].to_vec(),
        ).unwrap();
        let full = net.forward(&input, RecordOptions::spikes_only());
        let part = net.forward(&head, RecordOptions::spikes_only());
        let classes = net.output_features();
        prop_assert_eq!(
            &full.output().as_slice()[..half * classes],
            part.output().as_slice()
        );
    }
}
