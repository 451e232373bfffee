//! Soundness of the dead mask — what `snn-mtfc analyze` reports as
//! `[A-DEAD]`: a neuron the interval analysis calls dead must
//! never spike in `Network::forward`, whatever binary stimulus drives
//! the network. Random pruned dense, conv+pool and recurrent networks
//! whose weights are scaled so that drive bounds land on both sides of
//! the threshold, each with one neuron (conv: one channel) given an all-negative fan-in
//! so that every case has a dead neuron to check and silence to
//! propagate, under random binary stimuli of random density — and, for
//! every first-layer neuron fed directly by the input, the stimulus that
//! drives exactly its positive weights, where the bound is tight.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_analyze::IntervalAnalysis;
use snn_model::{magnitude_prune, LifParams, Network, NetworkBuilder, RecordOptions};
use snn_tensor::{Shape, Tensor};

fn binary_stimulus(rng: &mut StdRng, steps: usize, features: usize, density: f64) -> Tensor {
    let data: Vec<f32> =
        (0..steps * features).map(|_| if rng.gen_bool(density) { 1.0 } else { 0.0 }).collect();
    Tensor::from_vec(Shape::d2(steps, features), data).unwrap()
}

/// Prunes `net` and scales every weight, then makes the first `fan_in`
/// weights of every tensor of layer `layer` negative: row 0 of a dense or
/// recurrent matrix, output channel 0 of a conv kernel.
fn shape_weights(net: &mut Network, sparsity: f64, scale: f32, layer: usize, fan_in: &[usize]) {
    magnitude_prune(net, sparsity);
    for tensor in net.layers_mut().iter_mut().flat_map(|l| l.weight_tensors_mut()) {
        tensor.as_mut_slice().iter_mut().for_each(|w| *w *= scale);
    }
    for (tensor, &n) in net.layers_mut()[layer].weight_tensors_mut().into_iter().zip(fan_in) {
        for w in &mut tensor.as_mut_slice()[..n] {
            *w = -w.abs() - 0.1;
        }
    }
}

/// One stimulus per neuron of a first layer that is dense or recurrent:
/// every input with a positive weight into it fires on every tick.
fn worst_case_stimuli(net: &Network, steps: usize) -> Vec<Tensor> {
    let features = net.input_features();
    let Some(w_in) = net.layers()[0].weight_tensors().into_iter().next() else { return Vec::new() };
    w_in.as_slice()
        .chunks(features)
        .map(|row| {
            let tick: Vec<f32> = row.iter().map(|&w| if w > 0.0 { 1.0 } else { 0.0 }).collect();
            Tensor::from_vec(Shape::d2(steps, features), tick.repeat(steps)).unwrap()
        })
        .collect()
}

/// Asserts that no dead-masked neuron spikes under `stimuli`; returns the
/// number of dead neurons checked.
fn assert_dead_neurons_stay_silent(net: &Network, stimuli: &[Tensor]) -> usize {
    let mask = IntervalAnalysis::new(net).dead_mask(net);
    assert_eq!(mask.len(), net.layers().len());
    for stimulus in stimuli {
        let trace = net.forward(stimulus, RecordOptions::spikes_only());
        for (l, (dead, layer)) in mask.iter().zip(&trace.layers).enumerate() {
            let width = dead.len();
            for (at, &spike) in layer.output.as_slice().iter().enumerate() {
                let dead_here = width > 0 && dead[at % width];
                assert!(
                    !dead_here || spike == 0.0,
                    "dead neuron {} of layer {l} spiked at tick {}",
                    at % width,
                    at / width
                );
            }
        }
    }
    mask.iter().flatten().filter(|&&d| d).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dead_masked_neurons_never_spike(
        seed in 0u64..1_000,
        kind in 0usize..3,
        sparsity in 0.3f64..0.95,
        scale in 0.02f32..1.0,
        density in 0.1f64..0.9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lif = LifParams::default();
        let net = match kind {
            0 => {
                let mut net =
                    NetworkBuilder::new(6, lif).dense(9).dense(7).dense(3).build(&mut rng);
                shape_weights(&mut net, sparsity, scale, 0, &[6]);
                net
            }
            1 => {
                let mut net = NetworkBuilder::new_spatial(2, 8, 8, lif)
                    .avg_pool(2)
                    .conv(3, 3, 1, 1)
                    .avg_pool(2)
                    .dense(6)
                    .dense(3)
                    .build(&mut rng);
                shape_weights(&mut net, sparsity, scale, 1, &[2 * 3 * 3]);
                net
            }
            _ => {
                let mut net = NetworkBuilder::new(8, lif).recurrent(7).dense(4).build(&mut rng);
                shape_weights(&mut net, sparsity, scale, 0, &[8, 7]);
                net
            }
        };
        let features = net.input_features();
        let mut stimuli = vec![
            binary_stimulus(&mut rng, 24, features, density),
            Tensor::full(Shape::d2(12, features), 1.0),
        ];
        if kind != 1 {
            stimuli.extend(worst_case_stimuli(&net, 48));
        }
        let dead = assert_dead_neurons_stay_silent(&net, &stimuli);
        prop_assert!(dead >= 1, "the all-negative fan-in must be proven dead");
    }
}
