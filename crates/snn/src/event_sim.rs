//! Event-driven (sparse) reference simulator.
//!
//! Neuromorphic accelerators process *events*, not dense frames: a spike
//! is routed to its fan-out and updates only the post-synaptic membranes
//! it touches. This module implements that execution model with
//! *identical discrete-time semantics* to the dense simulator in
//! [`crate::Network::forward`] — same LIF update, same reset, same
//! refractory behaviour, same layer ordering.
//!
//! It serves two purposes:
//!
//! 1. **Cross-check oracle.** Two independently written simulators that
//!    must agree spike-for-spike catch each other's bugs — the
//!    behavioural-model vs reference-model equivalence checking a
//!    hardware test flow relies on (and the property tests in this crate
//!    enforce it on random networks and inputs).
//! 2. **Sparse performance model.** Its cost scales with *spike traffic*
//!    rather than network size, which is exactly how the paper's stage-2
//!    loss (minimizing hidden activity) translates into test energy/time
//!    on a real event-driven accelerator.
//!
//! Only inference (spike recording) is supported — BPTT stays with the
//! dense engine where full traces are recorded anyway.

use crate::{Layer, Network, NeuronBehaviorFault, NeuronFaultMap};
use snn_tensor::{Shape, Tensor};

/// Per-layer event-driven LIF state.
struct LayerState {
    /// Carried membrane potential per neuron.
    carried: Vec<f32>,
    /// Remaining refractory ticks per neuron.
    refrac: Vec<u32>,
    /// Synaptic accumulator for the current tick.
    drive: Vec<f32>,
    /// Neurons whose drive is non-zero this tick (sparse set).
    touched: Vec<usize>,
    /// Dirty flags parallel to `drive` (dedup for `touched`).
    dirty: Vec<bool>,
    /// Neurons with non-zero carried potential (they leak even without
    /// input and must be visited).
    charged: Vec<usize>,
    /// 0 = normal, 1 = dead, 2 = saturated.
    forced: Vec<u8>,
    threshold: Vec<f32>,
    leak: Vec<f32>,
    refrac_steps: Vec<u32>,
}

impl LayerState {
    fn new(
        n: usize,
        lif: &crate::LifParams,
        faults: Option<&std::collections::HashMap<usize, NeuronBehaviorFault>>,
    ) -> Self {
        let mut s = Self {
            carried: vec![0.0; n],
            refrac: vec![0; n],
            drive: vec![0.0; n],
            touched: Vec::new(),
            dirty: vec![false; n],
            charged: Vec::new(),
            forced: vec![0; n],
            threshold: vec![lif.threshold; n],
            leak: vec![lif.leak; n],
            refrac_steps: vec![lif.refrac_steps; n],
        };
        if let Some(map) = faults {
            for (&i, fault) in map {
                if i >= n {
                    continue;
                }
                match *fault {
                    NeuronBehaviorFault::Dead => s.forced[i] = 1,
                    NeuronBehaviorFault::Saturated => s.forced[i] = 2,
                    #[expect(
                        clippy::cast_possible_truncation,
                        clippy::cast_sign_loss,
                        reason = "clamped non-negative and refractory periods are tiny, truncation unreachable"
                    )]
                    NeuronBehaviorFault::ParamScale {
                        threshold_scale,
                        leak_scale,
                        refrac_delta,
                    } => {
                        s.threshold[i] = (lif.threshold * threshold_scale).max(f32::EPSILON);
                        s.leak[i] = (lif.leak * leak_scale).clamp(f32::EPSILON, 1.0);
                        s.refrac_steps[i] =
                            (i64::from(lif.refrac_steps) + i64::from(refrac_delta)).max(0) as u32;
                    }
                }
            }
        }
        s
    }

    fn add_drive(&mut self, neuron: usize, amount: f32) {
        self.drive[neuron] += amount;
        if !self.dirty[neuron] {
            self.dirty[neuron] = true;
            self.touched.push(neuron);
        }
    }

    /// Advances this layer one tick, emitting spiking neuron indices into
    /// `spikes_out`.
    fn tick(&mut self, n: usize, spikes_out: &mut Vec<usize>) {
        spikes_out.clear();
        // Union of driven and charged neurons must be visited; everyone
        // else provably keeps v = 0 and cannot fire. Forced neurons are
        // handled separately below.
        let mut visit: Vec<usize> = Vec::with_capacity(self.touched.len() + self.charged.len());
        visit.extend_from_slice(&self.touched);
        for &i in &self.charged {
            if !self.dirty[i] {
                visit.push(i);
            }
        }
        let mut next_charged = Vec::new();
        for &i in &visit {
            let z = self.drive[i];
            if self.forced[i] != 0 {
                continue; // resolved in the forced pass
            }
            if self.refrac[i] > 0 {
                continue; // refractory: ignores input, carried stays 0
            }
            let v = self.leak[i] * self.carried[i] + z;
            if v >= self.threshold[i] {
                spikes_out.push(i);
                self.carried[i] = 0.0;
                // +1 biases against the uniform end-of-tick countdown
                // below, so the neuron skips exactly `refrac_steps` ticks —
                // matching the dense engine, which decrements only on the
                // refractory ticks themselves.
                self.refrac[i] = self.refrac_steps[i] + 1;
            } else {
                self.carried[i] = v;
                if v != 0.0 {
                    next_charged.push(i);
                }
            }
        }
        // Uniform refractory countdown: all neurons age one tick,
        // including ones that received no events.
        for r in self.refrac.iter_mut() {
            if *r > 0 {
                *r -= 1;
            }
        }
        // Forced neurons: saturated fire every tick, dead never.
        for i in 0..n {
            match self.forced[i] {
                2 => spikes_out.push(i),
                1 => {}
                _ => {}
            }
        }
        if self.forced.contains(&2) {
            spikes_out.sort_unstable();
            spikes_out.dedup();
        }
        // Reset tick-local state.
        for &i in &self.touched {
            self.drive[i] = 0.0;
            self.dirty[i] = false;
        }
        self.touched.clear();
        self.charged = next_charged;
    }
}

/// Event statistics of an event-driven run — the accelerator cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventStats {
    /// Total spikes routed (network input + all layers).
    pub routed_spikes: usize,
    /// Total synaptic membrane updates performed.
    pub synaptic_ops: usize,
}

/// Event-driven forward pass producing the same spike trains as
/// [`Network::forward`] plus traffic statistics.
///
/// # Panics
///
/// Panics if `input` is not `[T × input_features]`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_model::{event_forward, LifParams, NetworkBuilder, NeuronFaultMap, RecordOptions};
/// use snn_tensor::Shape;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let net = NetworkBuilder::new(6, LifParams::default()).dense(9).dense(3).build(&mut rng);
/// let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 6), 0.4);
///
/// let dense = net.forward(&input, RecordOptions::spikes_only());
/// let (event, stats) = event_forward(&net, &input, &NeuronFaultMap::new());
/// assert_eq!(event.last().unwrap(), dense.output()); // spike-for-spike equal
/// assert!(stats.synaptic_ops > 0);
/// ```
pub fn event_forward(
    net: &Network,
    input: &Tensor,
    faults: &NeuronFaultMap,
) -> (Vec<Tensor>, EventStats) {
    let dims = input.shape().dims();
    assert_eq!(dims.len(), 2, "input must be [T × features]");
    let (steps, in_features) = (dims[0], dims[1]);
    assert_eq!(in_features, net.input_features(), "input feature mismatch");

    let layers = net.layers();
    let mut stats = EventStats::default();

    // Pool layers carry real-valued (non-event) activations; to keep
    // exact equivalence with the dense engine we fall back to dense maths
    // for them while staying sparse for spiking layers.
    let mut states: Vec<Option<LayerState>> = layers
        .iter()
        .enumerate()
        .map(|(idx, l)| {
            l.lif().map(|lif| LayerState::new(l.out_features(), lif, faults.layer_faults(idx)))
        })
        .collect();

    let mut outputs: Vec<Tensor> =
        layers.iter().map(|l| Tensor::zeros(Shape::d2(steps, l.out_features()))).collect();

    // Per-layer dense value buffer for the *current tick* (input to next
    // layer). Spiking layers fill it from their spike list.
    let mut spike_buf: Vec<usize> = Vec::new();
    let mut values: Vec<Vec<f32>> = layers.iter().map(|l| vec![0.0; l.out_features()]).collect();
    let mut prev_spikes: Vec<Vec<usize>> = layers.iter().map(|_| Vec::new()).collect();

    let in_data = input.as_slice();
    for t in 0..steps {
        // Network-input events.
        let mut carry_events: Vec<(usize, f32)> = Vec::new();
        for f in 0..in_features {
            let v = in_data[t * in_features + f];
            if v != 0.0 {
                carry_events.push((f, v));
                stats.routed_spikes += 1;
            }
        }

        for (idx, layer) in layers.iter().enumerate() {
            match layer {
                Layer::Dense(l) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "states[idx] is Some for every spiking layer by the setup loop above"
                    )]
                    let state = states[idx].as_mut().expect("dense layer has LIF state");
                    let cols = l.weight.shape().dim(1);
                    let wd = l.weight.as_slice();
                    let rows = layer.out_features();
                    for &(j, v) in &carry_events {
                        // Column j of W drives every post neuron.
                        for r in 0..rows {
                            state.add_drive(r, wd[r * cols + j] * v);
                        }
                        stats.synaptic_ops += rows;
                    }
                    state.tick(rows, &mut spike_buf);
                    record(&mut outputs[idx], t, &spike_buf);
                    carry_events = spike_buf.iter().map(|&i| (i, 1.0)).collect();
                    stats.routed_spikes += carry_events.len();
                }
                Layer::Conv(l) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "states[idx] is Some for every spiking layer by the setup loop above"
                    )]
                    let state = states[idx].as_mut().expect("conv layer has LIF state");
                    let (h, w) = l.in_hw;
                    let (oh, ow) = l.out_hw();
                    let k = l.spec.kernel;
                    let (pad, stride) = (l.spec.padding.cast_signed(), l.spec.stride.cast_signed());
                    let wd = l.weight.as_slice();
                    for &(flat, v) in &carry_events {
                        // Scatter the event to all output positions whose
                        // receptive field contains it.
                        let ic = flat / (h * w);
                        let rem = flat % (h * w);
                        let iy = rem / w;
                        let ix = rem % w;
                        for oc in 0..l.spec.out_channels {
                            let w_base = (oc * l.spec.in_channels + ic) * k * k;
                            for ky in 0..k {
                                // oy·stride + ky − pad = iy
                                let oy_num = iy.cast_signed() + pad - ky.cast_signed();
                                if oy_num < 0 || oy_num % stride != 0 {
                                    continue;
                                }
                                let oy = (oy_num / stride).cast_unsigned();
                                if oy >= oh {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ox_num = ix.cast_signed() + pad - kx.cast_signed();
                                    if ox_num < 0 || ox_num % stride != 0 {
                                        continue;
                                    }
                                    let ox = (ox_num / stride).cast_unsigned();
                                    if ox >= ow {
                                        continue;
                                    }
                                    let post = (oc * oh + oy) * ow + ox;
                                    state.add_drive(post, wd[w_base + ky * k + kx] * v);
                                    stats.synaptic_ops += 1;
                                }
                            }
                        }
                    }
                    state.tick(layer.out_features(), &mut spike_buf);
                    record(&mut outputs[idx], t, &spike_buf);
                    carry_events = spike_buf.iter().map(|&i| (i, 1.0)).collect();
                    stats.routed_spikes += carry_events.len();
                }
                Layer::Pool(l) => {
                    // Dense fallback: pooling is a fixed linear reduction.
                    let (h, w) = l.in_hw;
                    let n_in = layer.in_features();
                    let n_out = layer.out_features();
                    let vin = &mut values[idx];
                    vin.resize(n_in, 0.0);
                    vin.iter_mut().for_each(|v| *v = 0.0);
                    for &(i, v) in &carry_events {
                        vin[i] = v;
                    }
                    let mut vout = vec![0.0f32; n_out];
                    snn_tensor::ops::avg_pool2d(vin, l.channels, h, w, l.k, &mut vout);
                    {
                        let od = outputs[idx].as_mut_slice();
                        od[t * n_out..(t + 1) * n_out].copy_from_slice(&vout);
                    }
                    carry_events = vout
                        .iter()
                        .enumerate()
                        .filter(|(_, &v)| v != 0.0)
                        .map(|(i, &v)| (i, v))
                        .collect();
                    stats.routed_spikes += carry_events.len();
                    stats.synaptic_ops += n_in;
                }
                Layer::Recurrent(l) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "states[idx] is Some for every spiking layer by the setup loop above"
                    )]
                    let state = states[idx].as_mut().expect("recurrent layer has LIF state");
                    let units = l.w_in.shape().dim(0);
                    let cols = l.w_in.shape().dim(1);
                    let wd = l.w_in.as_slice();
                    for &(j, v) in &carry_events {
                        for r in 0..units {
                            state.add_drive(r, wd[r * cols + j] * v);
                        }
                        stats.synaptic_ops += units;
                    }
                    // Recurrent events from the previous tick.
                    let wr = l.w_rec.as_slice();
                    for &j in &prev_spikes[idx] {
                        for r in 0..units {
                            state.add_drive(r, wr[r * units + j]);
                        }
                        stats.synaptic_ops += units;
                    }
                    state.tick(units, &mut spike_buf);
                    record(&mut outputs[idx], t, &spike_buf);
                    prev_spikes[idx] = spike_buf.clone();
                    carry_events = spike_buf.iter().map(|&i| (i, 1.0)).collect();
                    stats.routed_spikes += carry_events.len();
                }
            }
        }
    }

    (outputs, stats)
}

fn record(output: &mut Tensor, t: usize, spikes: &[usize]) {
    let n = output.shape().dim(1);
    let data = output.as_mut_slice();
    for &i in spikes {
        data[t * n + i] = 1.0;
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::{LifParams, NetworkBuilder, RecordOptions};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_equivalent(net: &Network, input: &Tensor, faults: &NeuronFaultMap) {
        let dense = net.forward_faulty(input, RecordOptions::spikes_only(), faults);
        let (event, _) = event_forward(net, input, faults);
        for (idx, (d, e)) in dense.layers.iter().zip(event.iter()).enumerate() {
            assert_eq!(&d.output, e, "layer {idx} diverged");
        }
    }

    #[test]
    fn dense_network_equivalence() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new(8, LifParams::default()).dense(14).dense(5).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(40, 8), 0.3);
        assert_equivalent(&net, &input, &NeuronFaultMap::new());
    }

    #[test]
    fn conv_pool_network_equivalence() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new_spatial(2, 8, 8, LifParams::default())
            .avg_pool(2)
            .conv(4, 3, 1, 1)
            .dense(6)
            .build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(25, 128), 0.2);
        assert_equivalent(&net, &input, &NeuronFaultMap::new());
    }

    #[test]
    fn strided_conv_equivalence() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new_spatial(1, 9, 9, LifParams::default())
            .conv(3, 3, 2, 1)
            .dense(4)
            .build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 81), 0.25);
        assert_equivalent(&net, &input, &NeuronFaultMap::new());
    }

    #[test]
    fn recurrent_network_equivalence() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = NetworkBuilder::new(10, LifParams { refrac_steps: 2, ..LifParams::default() })
            .recurrent(12)
            .dense(4)
            .build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 10), 0.35);
        assert_equivalent(&net, &input, &NeuronFaultMap::new());
    }

    #[test]
    fn equivalence_under_neuron_faults() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetworkBuilder::new(6, LifParams::default()).dense(10).dense(3).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(25, 6), 0.4);
        for fault in [
            NeuronBehaviorFault::Dead,
            NeuronBehaviorFault::Saturated,
            NeuronBehaviorFault::ParamScale {
                threshold_scale: 1.5,
                leak_scale: 0.7,
                refrac_delta: 2,
            },
        ] {
            let map = NeuronFaultMap::single(0, 3, fault);
            assert_equivalent(&net, &input, &map);
        }
    }

    #[test]
    fn stats_scale_with_activity() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = NetworkBuilder::new(8, LifParams::default()).dense(12).build(&mut rng);
        let quiet = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 8), 0.05);
        let busy = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 8), 0.6);
        let (_, s_quiet) = event_forward(&net, &quiet, &NeuronFaultMap::new());
        let (_, s_busy) = event_forward(&net, &busy, &NeuronFaultMap::new());
        assert!(s_busy.routed_spikes > s_quiet.routed_spikes);
        assert!(s_busy.synaptic_ops > s_quiet.synaptic_ops);
    }

    #[test]
    fn zero_input_costs_almost_nothing() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = NetworkBuilder::new(8, LifParams::default()).dense(12).build(&mut rng);
        let zero = Tensor::zeros(Shape::d2(50, 8));
        let (out, stats) = event_forward(&net, &zero, &NeuronFaultMap::new());
        assert_eq!(out.last().unwrap().sum(), 0.0);
        assert_eq!(stats.routed_spikes, 0);
        assert_eq!(stats.synaptic_ops, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The two engines agree spike-for-spike on random dense networks,
        /// inputs, and LIF parameters.
        #[test]
        fn engines_agree_on_random_dense_nets(
            seed in 0u64..500,
            density in 0.05f32..0.7,
            refrac in 0u32..3,
            leak_pct in 50u32..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lif = LifParams {
                threshold: 1.0,
                leak: leak_pct as f32 / 100.0,
                refrac_steps: refrac,
            };
            let net = NetworkBuilder::new(5, lif).dense(9).dense(3).build(&mut rng);
            let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 5), density);
            let dense = net.forward(&input, RecordOptions::spikes_only());
            let (event, _) = event_forward(&net, &input, &NeuronFaultMap::new());
            for (d, e) in dense.layers.iter().zip(event.iter()) {
                prop_assert_eq!(&d.output, e);
            }
        }
    }
}
