//! Transient fault injection: faults active only inside a timestep window.
//!
//! Permanent faults (the paper's Section III model) corrupt the network
//! for an entire forward pass. Soft errors in accelerator memories —
//! the SoftSNN/ReSpawn reliability setting — are *transient*: a bit is
//! wrong for some interval and then scrubbed or overwritten. This module
//! models that as a half-open window `[start, end)` of global timesteps
//! during which a set of weight patches and behavioural neuron faults is
//! live. The run is one forward pass ([`Network::forward_live`]): ticks
//! inside the window take their drive and recurrent feedback from the
//! patched weights and step through the neuron faults, every other tick
//! takes the clean weights and the nominal LIF update.
//!
//! Semantics worth pinning down: membrane potentials and refractory
//! counters carry *across* the window boundaries (a transient fault's
//! damage persists in analog state after the fault clears), and forced
//! dead/saturated neurons freeze their carried potential for the window's
//! duration, exactly as the simulator's permanent forced branches do.

use serde::{Deserialize, Serialize};
use snn_model::{Network, NeuronFaultMap, RecordOptions, Trace, WeightRef};
use snn_tensor::Tensor;

/// Half-open window `[start, end)` of global timesteps during which a
/// transient fault is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransientWindow {
    /// First faulty timestep (inclusive).
    pub start: usize,
    /// First timestep after the fault clears (exclusive).
    pub end: usize,
}

impl TransientWindow {
    /// Creates the window `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// `true` if the window covers no timestep.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Forward pass with a fault configuration active either permanently
/// (`window == None`) or only inside `window`.
///
/// `patches` are weight overwrites and `neuron_faults` behavioural
/// overrides, both live together. `scratch` must hold `clean`'s weights:
/// it is patched for the run and restored before returning, and `clean`
/// drives the ticks outside the window ([`Network::forward_live`]).
///
/// # Panics
///
/// Panics if `input` is not rank-2, a patch address is out of range or
/// the two networks differ in layer widths.
pub fn windowed_forward(
    clean: &Network,
    scratch: &mut Network,
    input: &Tensor,
    patches: &[(WeightRef, f32)],
    neuron_faults: &NeuronFaultMap,
    window: Option<TransientWindow>,
    record: RecordOptions,
) -> Trace {
    let live = window.map_or(0..input.shape().dim(0), |w| w.start..w.end);
    let saved: Vec<_> = patches.iter().map(|&(at, v)| (at, scratch.set_weight(at, v))).collect();
    let trace = scratch.forward_live(clean, live, input, record, neuron_faults);
    // In reverse, so that overlapping patches restore the original value.
    for &(at, old) in saved.iter().rev() {
        scratch.set_weight(at, old);
    }
    trace
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike values")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{Layer, LifParams, NetworkBuilder, NeuronBehaviorFault};
    use snn_tensor::Shape;

    fn net_and_input(seed: u64) -> (Network, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(6).dense(3).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(12, 4), 0.5);
        (net, input)
    }

    #[test]
    fn permanent_path_matches_forward_faulty() {
        let (net, input) = net_and_input(0);
        let faults = NeuronFaultMap::single(0, 2, NeuronBehaviorFault::Dead);
        let expected = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        let got = windowed_forward(
            &net,
            &mut net.clone(),
            &input,
            &[],
            &faults,
            None,
            RecordOptions::spikes_only(),
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn full_span_window_matches_permanent_fault() {
        let (net, input) = net_and_input(1);
        let steps = input.shape().dim(0);
        let faults = NeuronFaultMap::single(1, 0, NeuronBehaviorFault::Saturated);
        let permanent = windowed_forward(
            &net,
            &mut net.clone(),
            &input,
            &[],
            &faults,
            None,
            RecordOptions::spikes_only(),
        );
        let windowed = windowed_forward(
            &net,
            &mut net.clone(),
            &input,
            &[],
            &faults,
            Some(TransientWindow::new(0, steps)),
            RecordOptions::spikes_only(),
        );
        assert_eq!(windowed.output(), permanent.output());
    }

    #[test]
    fn empty_window_matches_fault_free() {
        let (net, input) = net_and_input(2);
        let clean = net.forward(&input, RecordOptions::spikes_only());
        let faults = NeuronFaultMap::single(0, 0, NeuronBehaviorFault::Saturated);
        let got = windowed_forward(
            &net,
            &mut net.clone(),
            &input,
            &[],
            &faults,
            Some(TransientWindow::new(5, 5)),
            RecordOptions::spikes_only(),
        );
        assert_eq!(got, clean);
    }

    #[test]
    fn window_restricts_saturation_to_its_ticks() {
        // Saturated output neuron with zero input: spikes exactly inside
        // the window, nowhere else.
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(2, LifParams::default()).dense(2).build(&mut rng);
        let input = Tensor::zeros(Shape::d2(10, 2));
        let faults = NeuronFaultMap::single(0, 1, NeuronBehaviorFault::Saturated);
        let trace = windowed_forward(
            &net,
            &mut net.clone(),
            &input,
            &[],
            &faults,
            Some(TransientWindow::new(3, 7)),
            RecordOptions::spikes_only(),
        );
        let counts = trace.layers[0].spike_counts();
        assert_eq!(counts, vec![0.0, 4.0]);
        let out = trace.output().as_slice();
        for t in 0..10 {
            let expect = if (3..7).contains(&t) { 1.0 } else { 0.0 };
            assert_eq!(out[t * 2 + 1], expect, "tick {t}");
        }
    }

    #[test]
    fn weights_are_restored_after_windowed_patching() {
        let (net, input) = net_and_input(4);
        let at = WeightRef { layer: 0, tensor: 0, offset: 3 };
        let (before, mut scratch) = (net.weight(at), net.clone());
        let _ = windowed_forward(
            &net,
            &mut scratch,
            &input,
            &[(at, 123.0)],
            &NeuronFaultMap::new(),
            Some(TransientWindow::new(2, 9)),
            RecordOptions::spikes_only(),
        );
        assert_eq!(scratch.weight(at), before);
        let _ = windowed_forward(
            &net,
            &mut scratch,
            &input,
            &[(at, 123.0)],
            &NeuronFaultMap::new(),
            None,
            RecordOptions::spikes_only(),
        );
        assert_eq!(scratch.weight(at), before);
    }

    #[test]
    fn out_of_range_window_is_fault_free() {
        let (net, input) = net_and_input(5);
        let clean = net.forward(&input, RecordOptions::spikes_only());
        let faults = NeuronFaultMap::single(0, 0, NeuronBehaviorFault::Dead);
        let got = windowed_forward(
            &net,
            &mut net.clone(),
            &input,
            &[],
            &faults,
            Some(TransientWindow::new(50, 80)),
            RecordOptions::spikes_only(),
        );
        assert_eq!(got, clean);
    }

    /// The four topologies the oracle test runs over: every spiking layer
    /// kind before and behind another, a pooling stage between two conv
    /// layers, and 37 ticks — two 16-tick blocks of the time-batched conv
    /// kernel and a tail.
    fn oracle_nets() -> Vec<(Network, Tensor)> {
        let mut rng = StdRng::seed_from_u64(33);
        let lif = LifParams { threshold: 1.0, leak: 0.9, refrac_steps: 2 };
        let nets = vec![
            NetworkBuilder::new(6, lif).dense(10).dense(4).build(&mut rng),
            NetworkBuilder::new(6, lif).recurrent(10).dense(4).build(&mut rng),
            NetworkBuilder::new_spatial(2, 8, 8, lif)
                .conv(3, 3, 1, 1)
                .avg_pool(2)
                .conv(4, 3, 1, 1)
                .dense(4)
                .build(&mut rng),
            NetworkBuilder::new(6, lif).dense(10).recurrent(4).build(&mut rng),
        ];
        nets.into_iter()
            .map(|net| {
                let input =
                    snn_tensor::init::bernoulli(&mut rng, Shape::d2(37, net.input_features()), 0.5);
                (net, input)
            })
            .collect()
    }

    /// Every third weight of every tensor of `net`, `w_rec` included,
    /// overwritten: a stride of three meets every column of the square
    /// feedback matrices here, so whichever neuron spiked on the tick
    /// before a window edge, its feedback crosses a patched weight.
    fn patches_in_every_tensor(net: &Network) -> Vec<(WeightRef, f32)> {
        let mut patches = Vec::new();
        for (layer, l) in net.layers().iter().enumerate() {
            for (tensor, w) in l.weight_tensors().into_iter().enumerate() {
                for (k, offset) in (0..w.len()).step_by(3).enumerate() {
                    let value = if k % 2 == 0 { 1.25 } else { -1.0 };
                    patches.push((WeightRef { layer, tensor, offset }, value));
                }
            }
        }
        patches
    }

    /// A dead, a saturated and a perturbed neuron, on the first, the
    /// first and the last spiking layer.
    fn neuron_faults(net: &Network) -> NeuronFaultMap {
        let last = net.layers().len() - 1;
        let mut map = NeuronFaultMap::new();
        map.insert(0, 1, NeuronBehaviorFault::Dead);
        map.insert(0, 2, NeuronBehaviorFault::Saturated);
        let scale = NeuronBehaviorFault::ParamScale {
            threshold_scale: 0.6,
            leak_scale: 0.8,
            refrac_delta: 1,
        };
        map.insert(last, 0, scale);
        map
    }

    /// The windowed run spelled tick by tick: each tick takes the patched
    /// network's layers while `live` covers it and the clean network's
    /// otherwise, one [`Layer::feedforward`] per row, feedback through
    /// `ops::matvec`, and [`LifParams::step`] per neuron — through the
    /// neuron's fault on live ticks.
    fn oracle(
        clean: &Network,
        patched: &Network,
        input: &Tensor,
        faults: &NeuronFaultMap,
        live: std::ops::Range<usize>,
    ) -> Vec<[Vec<f32>; 3]> {
        let steps = input.shape().dim(0);
        let mut x = input.as_slice().to_vec();
        let mut traces = Vec::new();
        for idx in 0..clean.layers().len() {
            let (f, n) = (clean.layers()[idx].in_features(), clean.layers()[idx].out_features());
            let [mut out, mut pot, mut gate] = [(); 3].map(|_| vec![0.0f32; steps * n]);
            let (mut carried, mut refrac) = (vec![0.0f32; n], vec![0u32; n]);
            for t in 0..steps {
                let on = live.contains(&t);
                let layer = if on { &patched.layers()[idx] } else { &clean.layers()[idx] };
                let row = t * n..(t + 1) * n;
                let mut z = vec![0.0f32; n];
                layer.feedforward(&x[t * f..(t + 1) * f], &mut z);
                let Some(nominal) = layer.lif() else {
                    out[row].copy_from_slice(&z);
                    continue;
                };
                if let (Layer::Recurrent(l), true) = (layer, t > 0) {
                    let mut feedback = vec![0.0f32; n];
                    snn_tensor::ops::matvec(
                        &l.w_rec,
                        &out[row.start - n..row.start],
                        &mut feedback,
                    );
                    z.iter_mut().zip(&feedback).for_each(|(zi, fi)| *zi += fi);
                }
                for i in 0..n {
                    let fault = faults.get(idx, i).filter(|_| on);
                    if let Some(spike) = fault.and_then(NeuronBehaviorFault::forced) {
                        out[row.start + i] = f32::from(u8::from(spike));
                        continue;
                    }
                    let lif = fault.map_or(*nominal, |fault| fault.lif(nominal));
                    let tick = lif.step(&mut carried[i], &mut refrac[i], z[i]);
                    out[row.start + i] = f32::from(u8::from(tick.fired));
                    if let Some(v) = tick.potential {
                        pot[row.start + i] = v;
                        gate[row.start + i] = 1.0;
                    }
                }
            }
            x.clone_from(&out);
            traces.push([out, pot, gate]);
        }
        traces
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn windowed_forward_equals_a_per_tick_oracle() {
        let windows = [
            None,
            Some((0, 37)),
            Some((0, 5)),
            Some((9, 20)),
            Some((16, 17)),
            Some((30, 99)),
            Some((12, 12)),
        ];
        for (clean, input) in oracle_nets() {
            let kinds: Vec<&str> = clean.layers().iter().map(Layer::kind).collect();
            let patches = patches_in_every_tensor(&clean);
            let faults = neuron_faults(&clean);
            let mut patched = clean.clone();
            for &(at, v) in &patches {
                patched.set_weight(at, v);
            }
            let plain = clean.forward(&input, RecordOptions::full());
            for layer in &plain.layers {
                assert!(layer.output.sum() > 0.0, "{kinds:?}: a layer never fired");
            }
            for window in windows {
                let steps = input.shape().dim(0);
                let live =
                    window.map_or(0..steps, |(s, e)| s.min(steps)..e.clamp(s.min(steps), steps));
                let want = oracle(&clean, &patched, &input, &faults, live.clone());
                let mut scratch = clean.clone();
                let got = windowed_forward(
                    &clean,
                    &mut scratch,
                    &input,
                    &patches,
                    &faults,
                    window.map(|(s, e)| TransientWindow::new(s, e)),
                    RecordOptions::full(),
                );
                assert_eq!(scratch, clean, "{kinds:?}: weights not restored");
                for (idx, (lt, [out, pot, gate])) in got.layers.iter().zip(&want).enumerate() {
                    let at = format!("{kinds:?} window {window:?} layer {idx}");
                    assert_eq!(bits(lt.output.as_slice()), bits(out), "{at}: spikes");
                    if clean.layers()[idx].is_spiking() {
                        let (p, g) = (lt.potential.as_ref().unwrap(), lt.gate.as_ref().unwrap());
                        assert_eq!(bits(p.as_slice()), bits(pot), "{at}: potentials");
                        assert_eq!(bits(g.as_slice()), bits(gate), "{at}: gates");
                    }
                }
                if !live.is_empty() {
                    assert_ne!(got, plain, "{kinds:?} window {window:?}: faults not applied");
                }
            }
        }
    }

    #[test]
    fn windowed_weight_patch_only_perturbs_window_ticks_upstream() {
        // A weight patched inside [t0, t1) cannot change layer-0 drive
        // outside the window; carried membrane state may differ after, so
        // compare the prefix strictly.
        let (net, input) = net_and_input(6);
        let clean = net.forward(&input, RecordOptions::spikes_only());
        let at = WeightRef { layer: 0, tensor: 0, offset: 0 };
        let trace = windowed_forward(
            &net,
            &mut net.clone(),
            &input,
            &[(at, 5.0)],
            &NeuronFaultMap::new(),
            Some(TransientWindow::new(6, 9)),
            RecordOptions::spikes_only(),
        );
        let n = clean.layers[0].output.shape().dim(1);
        let clean_rows = &clean.layers[0].output.as_slice()[..6 * n];
        let faulty_rows = &trace.layers[0].output.as_slice()[..6 * n];
        assert_eq!(faulty_rows, clean_rows);
    }
}
