use crate::{Layer, LifParams, Network, NeuronBehaviorFault, NeuronFaultMap};
use serde::{Deserialize, Serialize};
use snn_tensor::{ops, Shape, Tensor};
use std::collections::HashMap;
use std::ops::Range;

/// What the forward pass records besides output spike trains.
///
/// Fault-simulation campaigns only need spikes; BPTT additionally needs
/// the pre-spike membrane potentials and integration gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordOptions {
    /// Record pre-spike membrane potentials and integration gates.
    pub potentials: bool,
}

impl RecordOptions {
    /// Record spike trains only (cheapest; enough for fault simulation).
    pub fn spikes_only() -> Self {
        Self { potentials: false }
    }

    /// Record everything BPTT needs.
    pub fn full() -> Self {
        Self { potentials: true }
    }
}

/// Recorded state of one layer over a full forward pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTrace {
    /// Layer output per timestep, `[T × n_out]`. Binary spikes for spiking
    /// layers; real-valued averages for pooling layers.
    pub output: Tensor,
    /// Pre-spike membrane potential `v[t]`, `[T × n]` (spiking layers with
    /// [`RecordOptions::full`] only).
    pub potential: Option<Tensor>,
    /// Integration gate: 1.0 where the neuron integrated at `t` (i.e. was
    /// not refractory), `[T × n]` (same recording condition).
    pub gate: Option<Tensor>,
}

impl LayerTrace {
    /// Spike count per neuron: `|O^{ℓi}|` in the paper's notation.
    pub fn spike_counts(&self) -> Vec<f32> {
        let dims = self.output.shape().dims();
        let (t, n) = (dims[0], dims[1]);
        let mut counts = vec![0.0f32; n];
        let data = self.output.as_slice();
        for step in 0..t {
            let row = &data[step * n..(step + 1) * n];
            for (c, v) in counts.iter_mut().zip(row.iter()) {
                *c += v;
            }
        }
        counts
    }

    /// Number of neurons whose spike train is non-empty.
    pub fn activated_count(&self) -> usize {
        self.spike_counts().iter().filter(|&&c| c > 0.0).count()
    }
}

/// Full spatio-temporal record of a forward pass: one [`LayerTrace`] per
/// network layer, in order.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_model::{LifParams, NetworkBuilder, RecordOptions};
/// use snn_tensor::{Shape, Tensor};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(3, LifParams::default()).dense(2).build(&mut rng);
/// let trace = net.forward(&Tensor::zeros(Shape::d2(5, 3)), RecordOptions::full());
/// assert_eq!(trace.steps, 5);
/// assert_eq!(trace.layers.len(), 1);
/// // Zero input ⇒ zero spikes.
/// assert_eq!(trace.output().sum(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of simulated ticks.
    pub steps: usize,
    /// Per-layer records, aligned with `Network::layers()` — or with its
    /// tail `start..` when built from [`Network::forward_from`] (the fault
    /// simulator's suffix runs); the last entry is always the output layer.
    pub layers: Vec<LayerTrace>,
}

impl Trace {
    /// Output spike trains of the last layer, `[T × classes]` — the
    /// paper's `O^L`.
    #[expect(clippy::expect_used, reason = "a trace always records the non-empty network's layers")]
    pub fn output(&self) -> &Tensor {
        &self.layers.last().expect("trace has at least one layer").output
    }

    /// Output spike count per class (rate-coding readout).
    #[expect(clippy::expect_used, reason = "a trace always records the non-empty network's layers")]
    pub fn class_counts(&self) -> Vec<f32> {
        self.layers.last().expect("non-empty").spike_counts()
    }

    /// Index of the class with the highest output spike count (top-1
    /// prediction under rate coding): [`top1`] of the class counts.
    pub fn predict(&self) -> usize {
        top1(&self.class_counts())
    }

    /// L1 distance between this trace's output spike trains and another's —
    /// the detection metric of the paper's Eq. (3).
    ///
    /// # Panics
    ///
    /// Panics if output shapes differ.
    pub fn output_distance(&self, other: &Trace) -> f32 {
        (self.output() - other.output()).l1_norm()
    }
}

/// Index of the highest of `counts` — the top-1 class under rate coding.
/// Ties break toward the lower index; an empty slice reads as class 0.
pub fn top1(counts: &[f32]) -> usize {
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

/// Golden per-tick records of one spiking layer, kept by
/// [`Network::forward_golden`] for differential fault simulation: a run
/// that equals the fault-free one up to some tick can take its drive and
/// its state from here instead of recomputing them. Every field is
/// `[T × n]` row-major.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifRecord {
    /// Synaptic drive `z[t]` each neuron's update consumed. This is the
    /// buffer the simulator itself computes the drives in, not a copy.
    pub drive: Vec<f32>,
    /// Membrane potential carried *into* tick `t` (before the update).
    /// Empty for a layer whose pre-tick state was not requested.
    pub carried_pre: Vec<f32>,
    /// Refractory counter carried *into* tick `t`; empty like
    /// [`carried_pre`](Self::carried_pre).
    pub refrac_pre: Vec<u32>,
    /// Recurrent layers only (empty otherwise): the input half
    /// `W_in · x[t]` of the drive.
    pub feedforward: Vec<f32>,
    /// Recurrent layers only (empty otherwise): the feedback half
    /// `W_rec · s[t−1]` of the drive. The simulator rounds the two halves
    /// as separate sums and then adds them, so a run whose input is
    /// golden but whose own spikes are not redoes this half alone. Row 0
    /// is zero and unused: there is no feedback on the first tick.
    pub feedback: Vec<f32>,
}

impl LifRecord {
    /// A zeroed record of `steps` ticks of `layer`, with room for the
    /// pre-tick state when asked for and for the split drive when the
    /// layer is recurrent.
    fn zeroed(layer: &Layer, steps: usize, pre_state: bool) -> Self {
        let len = |wanted: bool| if wanted { steps * layer.out_features() } else { 0 };
        let recurrent = matches!(layer, Layer::Recurrent(_));
        Self {
            drive: vec![0.0; len(true)],
            carried_pre: vec![0.0; len(pre_state)],
            refrac_pre: vec![0; len(pre_state)],
            feedforward: vec![0.0; len(recurrent)],
            feedback: vec![0.0; len(recurrent)],
        }
    }
}

/// Per-neuron behaviour of a layer that has behavioural faults.
struct EffectiveParams {
    lif: Vec<LifParams>,
    /// `Some(spike)` for a neuron whose output a fault forces.
    forced: Vec<Option<bool>>,
}

impl EffectiveParams {
    fn new(n: usize, lif: &LifParams, faults: &HashMap<usize, NeuronBehaviorFault>) -> Self {
        let mut p = Self { lif: vec![*lif; n], forced: vec![None; n] };
        for (&i, fault) in faults {
            if i < n {
                p.lif[i] = fault.lif(lif);
                p.forced[i] = fault.forced();
            }
        }
        p
    }
}

/// [`Layer::feedforward_rows`] of `layer` over the ticks `live` covers and
/// of `clean` over every other tick of the `steps` rows of `input`. Rows
/// do not depend on each other, so the cuts change no bit.
fn feedforward_live(
    layer: &Layer,
    clean: &Layer,
    live: &Range<usize>,
    steps: usize,
    input: &[f32],
    out: &mut [f32],
) {
    let (f, n) = (layer.in_features(), layer.out_features());
    for (l, ticks) in [(clean, 0..live.start), (layer, live.clone()), (clean, live.end..steps)] {
        if !ticks.is_empty() {
            let (x, z) = (ticks.start * f..ticks.end * f, ticks.start * n..ticks.end * n);
            l.feedforward_rows(&input[x], &mut out[z]);
        }
    }
}

/// Simulates one spiking layer over the rows of `input`. `rec.drive`
/// (`[T × n]`) is where the drives are computed; the other fields of `rec`
/// are filled in when sized by [`LifRecord::zeroed`] and skipped when
/// empty. A tick that `live` covers takes its drive and feedback from
/// `layer` and, if a neuron of the layer is forced or perturbed (`faulty`
/// is `Some`), steps neuron by neuron through its [`EffectiveParams`];
/// every other tick takes them from `clean` and steps as one row of `lif`.
#[expect(clippy::too_many_arguments, reason = "the one LIF loop takes every variant's inputs")]
fn run_lif(
    layer: &Layer,
    clean: &Layer,
    live: &Range<usize>,
    lif: &LifParams,
    input: &Tensor,
    record: RecordOptions,
    faulty: Option<&EffectiveParams>,
    rec: &mut LifRecord,
) -> LayerTrace {
    let n = layer.out_features();
    let steps = input.shape().dim(0);
    let mut output = Tensor::zeros(Shape::d2(steps, n));
    let mut potential = record.potentials.then(|| Tensor::zeros(Shape::d2(steps, n)));
    let mut gate = record.potentials.then(|| Tensor::zeros(Shape::d2(steps, n)));

    // The feed-forward drive of the whole sequence does not depend on LIF
    // state; only a recurrent layer's feedback has to wait for each tick.
    let LifRecord { drive, carried_pre, refrac_pre, feedforward, feedback } = rec;
    feedforward_live(layer, clean, live, steps, input.as_slice(), drive);
    if !feedforward.is_empty() {
        feedforward.copy_from_slice(drive);
    }
    let w_rec_t = |l: &Layer| match l {
        Layer::Recurrent(l) => Some(ops::transposed(&l.w_rec)),
        _ => None,
    };
    // A run live on every tick never reads the clean feedback weights.
    let live_rec = w_rec_t(layer);
    let clean_rec = if *live == (0..steps) { None } else { w_rec_t(clean) };
    let mut z_rec = vec![0.0f32; if live_rec.is_some() { n } else { 0 }];

    let (mut carried, mut refrac) = (vec![0.0f32; n], vec![0u32; n]);
    let out = output.as_mut_slice();
    for t in 0..steps {
        let row = t * n..(t + 1) * n;
        let on = live.contains(&t);
        let z = &mut drive[row.clone()];
        // Feedback applies from the second tick on.
        let w_rec_t = if on { &live_rec } else { &clean_rec };
        if let Some(w_rec_t) = w_rec_t.as_deref().filter(|_| t > 0) {
            ops::matvec_skip_zeros(w_rec_t, &out[row.start - n..row.start], &mut z_rec);
            for (zi, ri) in z.iter_mut().zip(z_rec.iter()) {
                *zi += ri;
            }
            if !feedback.is_empty() {
                feedback[row.clone()].copy_from_slice(&z_rec);
            }
        }
        if !carried_pre.is_empty() {
            carried_pre[row.clone()].copy_from_slice(&carried);
            refrac_pre[row.clone()].copy_from_slice(&refrac);
        }
        let out_row = &mut out[row.clone()];
        let mut recorded = potential
            .as_mut()
            .zip(gate.as_mut())
            .map(|(p, g)| (&mut p.as_mut_slice()[row.clone()], &mut g.as_mut_slice()[row.clone()]));
        match faulty.filter(|_| on) {
            None => lif.step_row(&mut carried, &mut refrac, z, out_row, recorded),
            Some(params) => {
                for i in 0..n {
                    if let Some(spike) = params.forced[i] {
                        // Dead halts spike propagation entirely; saturated
                        // fires every tick regardless of input.
                        out_row[i] = f32::from(u8::from(spike));
                        continue;
                    }
                    let tick = params.lif[i].step(&mut carried[i], &mut refrac[i], z[i]);
                    out_row[i] = f32::from(u8::from(tick.fired));
                    // A refractory tick leaves gate and potential at 0.
                    if let (Some(v), Some((p, g))) = (tick.potential, recorded.as_mut()) {
                        p[i] = v;
                        g[i] = 1.0;
                    }
                }
            }
        }
    }

    LayerTrace { output, potential, gate }
}

/// Simulates one layer over the whole of `input`, with `clean` driving the
/// ticks outside `live` (see [`run_lif`]).
fn run_layer(
    layer: &Layer,
    clean: &Layer,
    live: &Range<usize>,
    input: &Tensor,
    record: RecordOptions,
    faults: Option<&HashMap<usize, NeuronBehaviorFault>>,
    golden: Option<&mut LifRecord>,
) -> LayerTrace {
    let dims = input.shape().dims();
    assert_eq!(dims.len(), 2, "layer input must be [T × features]");
    let (steps, in_features) = (dims[0], dims[1]);
    assert_eq!(
        in_features,
        layer.in_features(),
        "layer expects {} features, input provides {in_features}",
        layer.in_features()
    );
    let n = layer.out_features();

    let Some(lif) = layer.lif() else {
        // Pooling: stateless, one transform per tick.
        let mut output = Tensor::zeros(Shape::d2(steps, n));
        feedforward_live(layer, clean, live, steps, input.as_slice(), output.as_mut_slice());
        return LayerTrace { output, potential: None, gate: None };
    };
    let faulty = faults.filter(|f| !f.is_empty()).map(|f| EffectiveParams::new(n, lif, f));
    // A run nobody resumes from keeps the drives alone, for its own use.
    let mut drive_only = LifRecord::default();
    let rec = golden.unwrap_or_else(|| {
        drive_only.drive = vec![0.0; steps * n];
        &mut drive_only
    });
    run_lif(layer, clean, live, lif, input, record, faulty.as_ref(), rec)
}

impl Network {
    /// Fault-free forward pass over the whole network.
    ///
    /// `input` is `[T × input_features]` — one row per tick, matching the
    /// paper's binary input tensor `I` (values may be fractional when fed
    /// from a relaxed/Gumbel input).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not rank-2 or its feature count mismatches.
    pub fn forward(&self, input: &Tensor, record: RecordOptions) -> Trace {
        self.forward_faulty(input, record, &NeuronFaultMap::new())
    }

    /// Forward pass with behavioural neuron faults applied.
    pub fn forward_faulty(
        &self,
        input: &Tensor,
        record: RecordOptions,
        faults: &NeuronFaultMap,
    ) -> Trace {
        self.forward_live(self, 0..input.shape().dim(0), input, record, faults)
    }

    /// Forward pass whose faults are live on the ticks in `live` only:
    /// there, this network's layers drive every neuron, feedback included,
    /// and `faults` apply; on every other tick `clean`'s layers drive it
    /// and no fault applies. Membrane potentials and refractory counters
    /// carry across the edges of `live`, and ticks past the end of `input`
    /// are ignored. This is a transient fault: `self` is `clean` with
    /// weights patched, and `live` the window they are wrong in.
    ///
    /// # Panics
    ///
    /// Panics if `clean` has other layer widths, or as
    /// [`forward`](Self::forward) does.
    pub fn forward_live(
        &self,
        clean: &Network,
        live: Range<usize>,
        input: &Tensor,
        record: RecordOptions,
        faults: &NeuronFaultMap,
    ) -> Trace {
        let _span = snn_obs::span!("snn.forward");
        let widths = |l: &Layer| (l.in_features(), l.out_features());
        assert!(
            clean.layers.iter().map(widths).eq(self.layers.iter().map(widths)),
            "the clean network must have this one's layer widths"
        );
        let steps = input.shape().dim(0);
        let start = live.start.min(steps);
        let live = start..live.end.clamp(start, steps);
        let layers = self.run_layers(0, input, record, faults, None, Some((clean, live))).0;
        Trace { steps, layers }
    }

    /// Simulates layers `start..` using `stage_input` as the input sequence
    /// of layer `start`, returning their traces.
    ///
    /// This is the primitive behind the scalar fault-simulation engine: a
    /// fault confined to layer `ℓ` cannot change the activity of layers
    /// `< ℓ` in a feedforward network, so the campaign re-simulates only
    /// the suffix.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range or shapes mismatch.
    pub fn forward_from(
        &self,
        start: usize,
        stage_input: &Tensor,
        record: RecordOptions,
        faults: &NeuronFaultMap,
    ) -> Vec<LayerTrace> {
        self.run_layers(start, stage_input, record, faults, None, None).0
    }

    /// Fault-free forward pass that also keeps what differential fault
    /// simulation reuses of it: a [`LifRecord`] per spiking layer from
    /// `from` on (`None` for earlier and for pooling layers). A fault at
    /// layer `from` or later leaves earlier layers untouched, and a
    /// feed-forward layer at `from` itself is only ever re-simulated from
    /// tick 0, so its record holds the drives alone; every later layer,
    /// and a recurrent layer at `from`, can be entered mid-run and also
    /// records its pre-tick state. The trace is bit-identical to
    /// [`forward`](Self::forward) with [`RecordOptions::spikes_only`].
    ///
    /// # Panics
    ///
    /// Panics if `input` is not rank-2 or its feature count mismatches.
    pub fn forward_golden(&self, input: &Tensor, from: usize) -> (Trace, Vec<Option<LifRecord>>) {
        let _span = snn_obs::span!("snn.forward");
        let (layers, records) = self.run_layers(
            0,
            input,
            RecordOptions::spikes_only(),
            &NeuronFaultMap::new(),
            Some(from),
            None,
        );
        (Trace { steps: input.shape().dim(0), layers }, records)
    }

    /// Layers `start..` chained on `stage_input`, with golden records from
    /// layer `golden_from` on when asked for; `live` as in
    /// [`forward_live`](Self::forward_live), `None` when every tick is.
    fn run_layers(
        &self,
        start: usize,
        stage_input: &Tensor,
        record: RecordOptions,
        faults: &NeuronFaultMap,
        golden_from: Option<usize>,
        live: Option<(&Network, Range<usize>)>,
    ) -> (Vec<LayerTrace>, Vec<Option<LifRecord>>) {
        assert!(start < self.layers.len(), "start layer {start} out of range");
        let (clean, live) = live.unwrap_or((self, 0..stage_input.shape().dim(0)));
        let mut traces: Vec<LayerTrace> = Vec::with_capacity(self.layers.len() - start);
        let mut records = Vec::new();
        for (idx, layer) in self.layers.iter().enumerate().skip(start) {
            let input = traces.last().map_or(stage_input, |t| &t.output);
            let mut golden =
                golden_from.filter(|&from| idx >= from && layer.is_spiking()).map(|from| {
                    let pre_state = idx > from || matches!(layer, Layer::Recurrent(_));
                    LifRecord::zeroed(layer, input.shape().dim(0), pre_state)
                });
            let trace = run_layer(
                layer,
                &clean.layers[idx],
                &live,
                input,
                record,
                faults.layer_faults(idx),
                golden.as_mut(),
            );
            traces.push(trace);
            records.push(golden);
        }
        (traces, records)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::{DenseLayer, LifParams, LifTick, NetworkBuilder, PoolLayer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_tensor::Shape;

    /// Single neuron, weight 0.4, threshold 1.0, leak 1.0 (no decay), no
    /// refractory: needs 3 input spikes to fire (0.4, 0.8, 1.2 ≥ 1.0).
    #[test]
    fn integrate_and_fire_counts_spikes() {
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![0.4]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(6, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        let out = trace.output().as_slice();
        // v: 0.4, 0.8, 1.2→spike, 0.4, 0.8, 1.2→spike
        assert_eq!(out, &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let pot = trace.layers[0].potential.as_ref().unwrap().as_slice();
        assert!((pot[2] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn leak_decays_the_membrane() {
        // weight 0.6, leak 0.5: v alternates 0.6, 0.9, 1.05→spike...
        let lif = LifParams { threshold: 1.0, leak: 0.5, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![0.6]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(3, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        let pot = trace.layers[0].potential.as_ref().unwrap().as_slice();
        assert!((pot[0] - 0.6).abs() < 1e-6);
        assert!((pot[1] - 0.9).abs() < 1e-6);
        assert!((pot[2] - 1.05).abs() < 1e-6);
        assert_eq!(trace.output().as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn refractory_blocks_integration() {
        // weight 1.0: fires at t=0, then refractory for 2 ticks, fires at t=3.
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 2 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(6, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        assert_eq!(trace.output().as_slice(), &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let gate = trace.layers[0].gate.as_ref().unwrap().as_slice();
        assert_eq!(gate, &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn dead_fault_silences_neuron() {
        let lif = LifParams { threshold: 0.5, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(4, 1), 1.0);
        let faults = NeuronFaultMap::single(0, 0, NeuronBehaviorFault::Dead);
        let trace = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        assert_eq!(trace.output().sum(), 0.0);
    }

    #[test]
    fn saturated_fault_fires_without_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(2, LifParams::default()).dense(3).build(&mut rng);
        let input = Tensor::zeros(Shape::d2(5, 2));
        let faults = NeuronFaultMap::single(0, 1, NeuronBehaviorFault::Saturated);
        let trace = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        let counts = trace.layers[0].spike_counts();
        assert_eq!(counts, vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn param_fault_changes_firing_rate() {
        // Nominal: weight 0.6, θ=1.0 fires every 2 ticks. θ×2 ⇒ fires
        // every 4 ticks (0.6,1.2? no: accumulate 0.6,1.2,1.8,2.4≥2.0).
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![0.6]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(8, 1), 1.0);
        let nominal = net.forward(&input, RecordOptions::spikes_only());
        let faults = NeuronFaultMap::single(
            0,
            0,
            NeuronBehaviorFault::ParamScale {
                threshold_scale: 2.0,
                leak_scale: 1.0,
                refrac_delta: 0,
            },
        );
        let faulty = net.forward_faulty(&input, RecordOptions::spikes_only(), &faults);
        assert!(faulty.output().sum() < nominal.output().sum());
        assert!(nominal.output_distance(&faulty) > 0.0);
    }

    #[test]
    fn pool_layer_outputs_fractional_averages() {
        let net = Network::new(Shape::d3(1, 2, 2), vec![Layer::Pool(PoolLayer::new(1, (2, 2), 2))]);
        let input = Tensor::from_vec(Shape::d2(1, 4), vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let trace = net.forward(&input, RecordOptions::spikes_only());
        assert_eq!(trace.output().as_slice(), &[0.5]);
    }

    #[test]
    fn forward_from_matches_full_forward() {
        let mut rng = StdRng::seed_from_u64(7);
        let net =
            NetworkBuilder::new(6, LifParams::default()).dense(8).dense(4).dense(2).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(12, 6), 0.5);
        let full = net.forward(&input, RecordOptions::spikes_only());
        let suffix = net.forward_from(
            1,
            &full.layers[0].output,
            RecordOptions::spikes_only(),
            &NeuronFaultMap::new(),
        );
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].output, full.layers[1].output);
        assert_eq!(suffix[1].output, full.layers[2].output);
    }

    #[test]
    fn predict_uses_rate_coding() {
        let lif = LifParams { threshold: 0.5, leak: 1.0, refrac_steps: 0 };
        // Two outputs; weight to output 1 is double.
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(2, 1), vec![0.3, 0.9]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(10, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::spikes_only());
        assert_eq!(trace.predict(), 1);
    }

    #[test]
    fn recurrent_layer_feeds_back_spikes() {
        // One recurrent unit: strong input weight fires it at t=0; strong
        // recurrent weight keeps it firing even after input stops.
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let l = crate::RecurrentLayer::new(
            Tensor::from_vec(Shape::d2(1, 1), vec![1.5]).unwrap(),
            Tensor::from_vec(Shape::d2(1, 1), vec![1.5]).unwrap(),
            lif,
        );
        let net = Network::new(Shape::d1(1), vec![Layer::Recurrent(l)]);
        let mut input = Tensor::zeros(Shape::d2(5, 1));
        input[[0, 0]] = 1.0; // single kick
        let trace = net.forward(&input, RecordOptions::spikes_only());
        // t=0 fires from input; t≥1 fires from recurrence.
        assert_eq!(trace.output().sum(), 5.0);
    }

    /// One spiking layer of each kind (refractory period 2; the conv
    /// layer at stride 2), with a stimulus dense enough that every kind
    /// fires and rests. 40 ticks are two blocks of the time-batched
    /// convolution kernels and a tail of 8 rows for the row-stationary
    /// ones.
    fn one_layer_nets() -> Vec<(Network, Tensor)> {
        let mut rng = StdRng::seed_from_u64(21);
        let lif = LifParams { threshold: 1.0, leak: 0.9, refrac_steps: 2 };
        let nets = vec![
            NetworkBuilder::new(6, lif).dense(8).build(&mut rng),
            NetworkBuilder::new_spatial(2, 5, 5, lif).conv(3, 3, 2, 1).build(&mut rng),
            NetworkBuilder::new(6, lif).recurrent(8).build(&mut rng),
        ];
        nets.into_iter()
            .map(|net| {
                let input =
                    snn_tensor::init::bernoulli(&mut rng, Shape::d2(40, net.input_features()), 0.6);
                (net, input)
            })
            .collect()
    }

    #[test]
    fn step_integrates_fires_resets_and_rests() {
        let lif = LifParams { threshold: 1.0, leak: 0.5, refrac_steps: 2 };
        let (mut carried, mut refrac) = (0.0f32, 0u32);
        // Sub-threshold: integrates, carries the potential.
        let tick = lif.step(&mut carried, &mut refrac, 0.6);
        assert_eq!(tick, LifTick { fired: false, potential: Some(0.6) });
        assert_eq!((carried, refrac), (0.6, 0));
        // Crossing tick: 0.5·0.6 + 0.7 = 1.0 ≥ θ fires, and the reset and
        // the refractory period start on this very tick.
        let tick = lif.step(&mut carried, &mut refrac, 0.7);
        assert_eq!(tick, LifTick { fired: true, potential: Some(1.0) });
        assert_eq!((carried, refrac), (0.0, 2));
        // Refractory window: however strong the drive, no integration and
        // no spike for exactly `refrac_steps` ticks.
        for left in [1u32, 0] {
            let tick = lif.step(&mut carried, &mut refrac, 100.0);
            assert_eq!(tick, LifTick { fired: false, potential: None });
            assert_eq!((carried, refrac), (0.0, left));
        }
        assert!(lif.step(&mut carried, &mut refrac, 100.0).fired);
        // Zero drive from rest stays silent forever.
        let (mut carried, mut refrac) = (0.0f32, 0u32);
        for _ in 0..50 {
            assert!(!lif.step(&mut carried, &mut refrac, 0.0).fired);
        }
        assert_eq!(carried, 0.0);
    }

    #[test]
    fn every_layer_kind_obeys_the_lif_invariants() {
        for (net, input) in one_layer_nets() {
            let kind = net.layers()[0].kind();
            let lif = *net.layers()[0].lif().unwrap();
            let trace = net.forward(&input, RecordOptions::full());
            let lt = &trace.layers[0];
            let (out, pot, gate) = (
                lt.output.as_slice(),
                lt.potential.as_ref().unwrap().as_slice(),
                lt.gate.as_ref().unwrap().as_slice(),
            );
            let n = net.output_features();
            assert!(out.iter().all(|&s| s == 0.0 || s == 1.0), "{kind}: non-binary spike");
            assert!(out.iter().sum::<f32>() > 0.0, "{kind}: stimulus too weak to test anything");
            for i in 0..n {
                let mut rest = 0u32;
                for t in 0..trace.steps {
                    let at = t * n + i;
                    if rest > 0 {
                        // Inside the refractory window: no integration, no spike.
                        assert_eq!(
                            (out[at], gate[at], pot[at]),
                            (0.0, 0.0, 0.0),
                            "{kind} t={t} i={i}"
                        );
                        rest -= 1;
                        continue;
                    }
                    assert_eq!(gate[at], 1.0, "{kind} t={t} i={i}");
                    // The spike lands on the crossing tick, and only there.
                    assert_eq!(out[at] == 1.0, pot[at] >= lif.threshold, "{kind} t={t} i={i}");
                    if out[at] == 1.0 {
                        rest = lif.refrac_steps;
                    }
                }
            }
            let silent = net.forward(&Tensor::zeros(input.shape().clone()), RecordOptions::full());
            assert_eq!(silent.output().sum(), 0.0, "{kind}: zero input must stay silent");
        }
    }

    #[test]
    fn golden_recording_changes_no_spike_and_resumes_exactly() {
        for (net, input) in one_layer_nets() {
            let layer = &net.layers()[0];
            let kind = layer.kind();
            let plain = net.forward(&input, RecordOptions::spikes_only());
            // Layer 0 is the `from` layer: only the recurrent kind keeps
            // its pre-state there; from = 1 > 0 is past the end, no record.
            let (trace, records) = net.forward_golden(&input, 0);
            assert_eq!(trace, plain, "{kind}");
            assert!(net.forward_golden(&input, 1).1[0].is_none(), "{kind}");
            let rec = records[0].as_ref().unwrap();
            let (steps, n, f) = (trace.steps, net.output_features(), net.input_features());
            assert_eq!(rec.drive.len(), steps * n, "{kind}");
            let recurrent = matches!(layer, Layer::Recurrent(_));
            assert_eq!(rec.carried_pre.len(), if recurrent { steps * n } else { 0 }, "{kind}");
            assert_eq!(rec.feedback.len(), if recurrent { steps * n } else { 0 }, "{kind}");

            // A two-layer copy makes this layer a downstream one, which
            // records its pre-state whatever its kind.
            let mut layers = vec![Layer::Pool(PoolLayer::new(f, (1, 1), 1))];
            layers.push(layer.clone());
            let deep = Network::new(Shape::d3(f, 1, 1), layers);
            let (deep_trace, deep_records) = deep.forward_golden(&input, 0);
            assert_eq!(deep_trace.layers[1], plain.layers[0], "{kind}");
            let rec = deep_records[1].as_ref().unwrap();
            assert_eq!(rec.drive.len(), steps * n, "{kind}");
            assert!(rec.refrac_pre.iter().any(|&r| r > 0), "{kind}: nothing ever rested");
            // Its pre-tick state is the reference's, bit for bit, at every
            // tick: the packed engine resumes a layer from exactly here.
            let (_, carried_pre, refrac_pre) = per_tick_reference(layer, &input, None);
            assert_eq!(bits(&rec.carried_pre), bits(&carried_pre), "{kind}");
            assert_eq!(rec.refrac_pre, refrac_pre, "{kind}");
        }
    }

    /// The simulation loop the sequence drives and the row-stepped sweep
    /// replaced, kept as the reference: one [`Layer::feedforward`] per tick
    /// (`ops::matvec` or the single-row convolution, every product
    /// taken), feedback through `ops::matvec`, [`LifParams::step`] per
    /// neuron — with `fault` applied to its one neuron. Returns `[spikes,
    /// potential, gate, drive, feedforward, feedback]` and the membrane
    /// potential and refractory counter carried into each tick, each
    /// `[T × n]`.
    fn per_tick_reference(
        layer: &Layer,
        input: &Tensor,
        fault: Option<(usize, NeuronBehaviorFault)>,
    ) -> ([Vec<f32>; 6], Vec<f32>, Vec<u32>) {
        let (f, n) = (layer.in_features(), layer.out_features());
        let nominal = *layer.lif().unwrap();
        let steps = input.shape().dim(0);
        let mut cols: [Vec<f32>; 6] = std::array::from_fn(|_| vec![0.0; steps * n]);
        let (mut carried, mut refrac) = (vec![0.0f32; n], vec![0u32; n]);
        let (mut carried_pre, mut refrac_pre) = (Vec::new(), Vec::new());
        let (mut z, mut z_rec, mut prev) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        for t in 0..steps {
            let row = t * n..(t + 1) * n;
            layer.feedforward(&input.as_slice()[t * f..(t + 1) * f], &mut z);
            cols[4][row.clone()].copy_from_slice(&z);
            if let (Layer::Recurrent(l), true) = (layer, t > 0) {
                ops::matvec(&l.w_rec, &prev, &mut z_rec);
                cols[5][row.clone()].copy_from_slice(&z_rec);
                z.iter_mut().zip(&z_rec).for_each(|(zi, ri)| *zi += ri);
            }
            cols[3][row.clone()].copy_from_slice(&z);
            carried_pre.extend_from_slice(&carried);
            refrac_pre.extend_from_slice(&refrac);
            for i in 0..n {
                let fault = fault.filter(|&(at, _)| at == i).map(|(_, fault)| fault);
                if let Some(spike) = fault.and_then(|fault| fault.forced()) {
                    prev[i] = f32::from(u8::from(spike));
                    cols[0][row.start + i] = prev[i];
                    continue;
                }
                let lif = fault.map_or(nominal, |fault| fault.lif(&nominal));
                let tick = lif.step(&mut carried[i], &mut refrac[i], z[i]);
                prev[i] = f32::from(u8::from(tick.fired));
                cols[0][row.start + i] = prev[i];
                if let Some(v) = tick.potential {
                    cols[1][row.start + i] = v;
                    cols[2][row.start + i] = 1.0;
                }
            }
        }
        (cols, carried_pre, refrac_pre)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_and_its_golden_drives_match_a_per_tick_reference() {
        for (net, spikes) in one_layer_nets() {
            let layer = &net.layers()[0];
            let kind = layer.kind();
            // What a pooling stage hands on: quarters, and both zeros.
            let mut input = spikes.clone();
            for (at, v) in input.as_mut_slice().iter_mut().enumerate() {
                *v = match (*v > 0.0, at % 5) {
                    (true, k) => (1 + k % 4) as f32 / 4.0,
                    (false, 0) => -0.0,
                    (false, _) => 0.0,
                };
            }
            for input in [&spikes, &input] {
                let ([out, pot, gate, drive, feedforward, feedback], ..) =
                    per_tick_reference(layer, input, None);
                let trace = net.forward(input, RecordOptions::full());
                let lt = &trace.layers[0];
                assert_eq!(bits(lt.output.as_slice()), bits(&out), "{kind}");
                assert_eq!(bits(lt.potential.as_ref().unwrap().as_slice()), bits(&pot), "{kind}");
                assert_eq!(bits(lt.gate.as_ref().unwrap().as_slice()), bits(&gate), "{kind}");
                assert!(out.iter().sum::<f32>() > 0.0, "{kind}: nothing fired");

                // The golden record *is* the buffer the drives were
                // computed in, so it must hold the reference's drives.
                let (_, records) = net.forward_golden(input, 0);
                let rec = records[0].as_ref().unwrap();
                assert_eq!(bits(&rec.drive), bits(&drive), "{kind}");
                if matches!(layer, Layer::Recurrent(_)) {
                    assert_eq!(bits(&rec.feedforward), bits(&feedforward), "{kind}");
                    assert_eq!(bits(&rec.feedback), bits(&feedback), "{kind}");
                }
            }
        }

        // Pooling has no LIF state: its whole output is the per-tick transform.
        let mut rng = StdRng::seed_from_u64(22);
        let pool = Layer::Pool(PoolLayer::new(2, (4, 6), 2));
        let net = Network::new(Shape::d3(2, 4, 6), vec![pool.clone()]);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(9, 48), 0.5);
        let trace = net.forward(&input, RecordOptions::spikes_only());
        let mut want = vec![0.0f32; 9 * 12];
        for t in 0..9 {
            pool.feedforward(&input.as_slice()[t * 48..(t + 1) * 48], &mut want[t * 12..][..12]);
        }
        assert_eq!(bits(trace.output().as_slice()), bits(&want));
    }

    /// A layer with one faulty neuron leaves the row-stepped sweep for the
    /// per-neuron loop: the faulty neuron follows its own parameters (the
    /// row sweep would have stepped it with the layer's, as the fault-free
    /// run does), and every neuron keeps the reference's bits.
    #[test]
    fn one_faulty_neuron_takes_the_exact_per_neuron_path() {
        let faults = [
            NeuronBehaviorFault::Dead,
            NeuronBehaviorFault::Saturated,
            NeuronBehaviorFault::ParamScale {
                threshold_scale: 0.5,
                leak_scale: 0.7,
                refrac_delta: 1,
            },
        ];
        for (net, input) in one_layer_nets() {
            let layer = &net.layers()[0];
            let (kind, n) = (layer.kind(), layer.out_features());
            let nominal = net.forward(&input, RecordOptions::full());
            // The busiest neuron: silencing it shows as surely as forcing it.
            let counts = nominal.layers[0].spike_counts();
            let at = (0..n).max_by(|&a, &b| counts[a].total_cmp(&counts[b])).unwrap();
            for fault in faults {
                let ([out, pot, gate, ..], ..) =
                    per_tick_reference(layer, &input, Some((at, fault)));
                let map = NeuronFaultMap::single(0, at, fault);
                let trace = net.forward_faulty(&input, RecordOptions::full(), &map);
                let lt = &trace.layers[0];
                assert_eq!(bits(lt.output.as_slice()), bits(&out), "{kind} {fault:?}");
                assert_eq!(
                    bits(lt.potential.as_ref().unwrap().as_slice()),
                    bits(&pot),
                    "{kind} {fault:?}"
                );
                assert_eq!(bits(lt.gate.as_ref().unwrap().as_slice()), bits(&gate), "{kind}");
                let train = |t: &Trace| -> Vec<f32> {
                    t.output().as_slice().iter().skip(at).step_by(n).copied().collect()
                };
                assert_ne!(train(&trace), train(&nominal), "{kind} {fault:?}: fault not applied");
            }
        }
    }

    #[test]
    fn recurrent_record_splits_the_drive_into_its_two_sums() {
        let (net, input) = one_layer_nets().pop().unwrap();
        let (trace, records) = net.forward_golden(&input, 0);
        let rec = records[0].as_ref().unwrap();
        let n = net.output_features();
        // Tick 0 has no feedback; afterwards drive = feedforward + feedback,
        // the same `f32` addition the simulator performed.
        assert_eq!(rec.drive[..n], rec.feedforward[..n]);
        assert!(rec.feedback[..n].iter().all(|&v| v == 0.0));
        for at in n..trace.steps * n {
            assert_eq!(rec.drive[at].to_bits(), (rec.feedforward[at] + rec.feedback[at]).to_bits());
        }
        assert!(rec.feedback.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn forward_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .dense(3)
            .build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(9, 16), 0.4);
        let a = net.forward(&input, RecordOptions::full());
        let b = net.forward(&input, RecordOptions::full());
        assert_eq!(a, b);
    }
}
