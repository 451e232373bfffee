//! The packed kernel: one pack of up to 64 fault variants simulated
//! *differentially* against the golden run and swept lane-parallel over
//! the layers behind the fault.
//!
//! # Shape of a sweep
//!
//! Every fault in a pack sits at the same spiking layer `ℓ`. Whatever a
//! lane does is stated as its **flips**: the `(tick, neuron)` positions
//! where its spike differs from the golden one. The sweep runs in two
//! stages:
//!
//! * **Fault-layer stage** — redo at layer `ℓ` only what the fault can
//!   change, on golden drives wherever they still hold. The dense weight
//!   members of a pack go together, the members as the vector axis: their
//!   patched rows are transposed once per pack, and a tick is one product
//!   of the input row with them — one drive per member — and one LIF step
//!   of the members' faulty neurons as a row ([`dense_weights`]). Every
//!   other member goes on its own: one neuron column for a neuron fault,
//!   one output channel for a conv kernel weight (convolved with the
//!   patched kernel by the model's own kernel, a block of ticks a call),
//!   and for a recurrent layer the faulty neuron alone until its spikes
//!   leave the golden train, then the whole layer for as long as it stays
//!   off it. A lane without flips is resolved right here: undetected by
//!   this test.
//! * **Downstream** — flips toggle the lane's bit in packed `u64` spike
//!   words (golden rows broadcast to every lane), which carry the lanes
//!   from one spiking layer to the next. Per spiking layer, a per-tick
//!   [`row_diff_mask`] against the golden rows finds which lanes still
//!   differ; each such lane is *materialized lazily*: from its first
//!   divergent tick `t0` onward the layer is re-simulated in `f32` from
//!   the recorded golden pre-tick state, with the stored golden drive on
//!   ticks where the lane's input row is golden and a recomputed one
//!   otherwise — pooling layers on the way are applied to the lane's row
//!   then and there. Lanes whose output reconverges drop out; at the last
//!   layer the flips *are* the verdict.
//!
//! What a diverged lane costs follows what diverged. A recomputed drive
//! is the sum of the transposed weight's columns at the lane's spikes
//! ([`lane_matvec`], [`ops::matvec_skip_zeros`]; the transposed copies
//! are made once per campaign), never a full product; a tick of a layer
//! is one [`LifParams::step_row`] and one folded comparison with the
//! golden row; and every buffer a lane touches belongs to its worker
//! thread's [`Scratch`] — a lane allocates nothing of its own, only
//! [`ops::conv2d`] sets up its tap tables per call. The clock is read
//! once per stage of a pack ([`Laps`]), not per lane.
//!
//! # Bit-exactness
//!
//! Verdicts must be bit-identical to the scalar engine's (the chunk
//! `verdict_digest` is gated on it):
//!
//! * **same step function** — a membrane update is [`LifParams::step`],
//!   the update the model's own forward pass runs, or — a whole row under
//!   one set of parameters — [`LifParams::step_row`], a second spelling
//!   held to `step` by a property test on spikes and state bits; the
//!   golden drives and pre-tick states are records *of* that forward
//!   pass ([`Network::forward_golden`](snn_model::Network::forward_golden));
//! * **same additions in the same order** — a drive is recomputed by the
//!   function the model computes it with: [`Layer::feedforward`] for conv
//!   and pooling rows, [`ops::matvec_skip_zeros`] for matrices, and
//!   [`ops::conv2d`] on a one-channel spec for a faulty conv channel,
//!   whose pixels sum their taps as the whole layer's do. The dense
//!   weight members' drives are `matvec_skip_zeros` over their transposed
//!   patched rows: member `j`'s adds `x[c] · w` over its patched row for
//!   each non-zero input `c`, ascending, from `+0.0` — the additions the
//!   model's product over the patched layer makes for `j`'s neuron.
//!   [`lane_matvec`] and [`row_dot`] make `matvec`'s non-zero additions
//!   per output in `matvec`'s order;
//! * **exact zeroes** — a drive is reused where every input the fault
//!   touches is an exact zero, whose products never move an accumulator
//!   (see `snn_tensor::packed`); by the same token a dense weight member,
//!   recomputed on every tick, has the golden drive's bits wherever its
//!   own input is silent;
//! * **exact resume** — a lane equal to the golden run before `t0` has
//!   the golden state entering `t0`, so resuming from the record is the
//!   computation the scalar engine performs from tick 0;
//! * **exact verdict** — the L1 distance over binary spike trains is the
//!   flip count, a sum of exact `1.0`s, so counting and converting the
//!   integer to `f32` reproduces the scalar accumulation bitwise (output
//!   layers are far below the 2^24 exactness bound); per-class
//!   spike-count diffs are differences of exact integer-valued `f32`
//!   sums, so signed integer deltas converted to `f32` match — including
//!   `+0.0` for untouched classes.

use crate::sim::{record_faults_detected, record_faults_simulated};
use crate::{Fault, FaultOutcome, FaultSimConfig, FaultSite, Injection};
use snn_model::{Layer, LifParams, LifRecord, Network, RecurrentLayer, Trace};
use snn_obs::clock::monotonic;
use snn_obs::phase::{LocalPhases, Phase};
use snn_tensor::ops::{self, Conv2dSpec};
use snn_tensor::packed::{
    broadcast_row, lane_matvec, row_diff_mask, row_dot, set_lane_bit, unpack_lane,
};
use snn_tensor::{Shape, Tensor};
use std::time::Duration;

use super::plan::Pack;

/// The fault-free run of one test input: the baseline trace plus the
/// per-layer records the model's forward pass kept for reuse.
pub(crate) struct Golden {
    pub trace: Trace,
    pub lif: Vec<Option<LifRecord>>,
}

/// Column-major copies ([`ops::transposed`]) of one layer's weight
/// matrices, the layout the sweep multiplies a lane's spikes in and a
/// dense fault layer's weight members gather their rows from. Empty where
/// neither happens: conv and pooling layers, and layers no fault sits at
/// or before.
#[derive(Default)]
pub(crate) struct Transposed {
    /// A dense layer's `weight`, a recurrent layer's `w_in`.
    pub input: Vec<f32>,
    /// A recurrent layer's `w_rec`.
    pub feedback: Vec<f32>,
}

/// Read-only campaign state shared by every pack run.
pub(crate) struct Ctx<'a> {
    pub net: &'a Network,
    /// Per layer, made once per campaign.
    pub transposed: &'a [Transposed],
    pub cfg: FaultSimConfig,
    pub faults: &'a [Fault],
    pub injections: &'a [Injection],
    pub tests: &'a [Tensor],
    /// Golden run per test input.
    pub golden: &'a [Golden],
}

impl Ctx<'_> {
    /// Golden view of spiking layer `idx` under test `k`.
    fn gold(&self, k: usize, idx: usize) -> Gold<'_> {
        let layer = &self.net.layers()[idx];
        let golden = &self.golden[k];
        let (Some(lif), Some(rec)) = (layer.lif(), golden.lif[idx].as_ref()) else {
            // The planner admits spiking fault layers only, the sweep
            // skips pooling layers, and the golden forward recorded every
            // spiking layer from the first fault layer on.
            unreachable!("packed engine addressed layer {idx}, which has no golden record")
        };
        let out = &golden.trace.layers[idx].output;
        Gold {
            layer,
            lif,
            n: layer.out_features(),
            steps: out.shape().dim(0),
            out: out.as_slice(),
            rec,
        }
    }

    /// Fault-free input rows of `layer` under test `k` (`[T × in]`).
    fn layer_input(&self, k: usize, layer: usize) -> &[f32] {
        if layer == 0 {
            self.tests[k].as_slice()
        } else {
            self.golden[k].trace.layers[layer - 1].output.as_slice()
        }
    }
}

/// Golden trajectory of one spiking layer under one test input.
struct Gold<'a> {
    layer: &'a Layer,
    lif: &'a LifParams,
    /// Neurons in the layer.
    n: usize,
    /// Simulated ticks.
    steps: usize,
    /// Golden output spikes, `[T × n]` row-major (binary).
    out: &'a [f32],
    rec: &'a LifRecord,
}

impl Gold<'_> {
    /// `true` when golden neuron `q` spikes at tick `t`.
    fn spike(&self, t: usize, q: usize) -> bool {
        self.out[t * self.n + q] != 0.0
    }

    /// Tick `t`'s row of a `[T × n]` record.
    fn row<'b, V>(&self, data: &'b [V], t: usize) -> &'b [V] {
        &data[t * self.n..(t + 1) * self.n]
    }

    /// Fills `words` with the layer's output, the golden row in every
    /// lane.
    fn broadcast(&self, words: &mut Vec<u64>) {
        words.resize(self.out.len(), 0);
        broadcast_row(self.out, words);
    }
}

/// One worker thread's buffers, made once per campaign and thread and
/// reused by every pack, test and lane the thread runs: the sweep
/// allocates per pack (verdicts and outcomes), never per lane — only the
/// convolution kernel it calls sets up tables per call.
pub(crate) struct Scratch {
    lane: LaneScratch,
    /// Output words of the spiking layer a sweep step reads …
    words: Vec<u64>,
    /// … and of the one it writes; swapped as the sweep moves on.
    words_out: Vec<u64>,
    /// Per tick, the lanes whose row in `words` differs from golden's.
    diffmask: Vec<u64>,
    /// Per-class spike-count deltas of the lane at the output layer.
    delta: Vec<i32>,
    /// The pack's patched weight rows, one slot of equal length per
    /// member.
    patched: Vec<f32>,
    /// The pack's dense weight members, stepped together.
    dense: DenseMembers,
}

/// What simulating one lane at one layer needs: rows as wide as the
/// widest layer, used up to the layer at hand.
struct LaneScratch {
    carried: Vec<f32>,
    refrac: Vec<u32>,
    z: Vec<f32>,
    spikes: Vec<f32>,
    /// Recurrent layers: the lane's own previous spikes while they differ
    /// from golden's, and the feedback they drive.
    prev: Vec<f32>,
    fb: Vec<f32>,
    /// The lane's row on its way through pooling layers.
    row: Vec<f32>,
    pooled: Vec<f32>,
    /// Conv weight faults: the patched kernel of the faulty channel, and
    /// that channel's drive over a block of [`CONV_TICKS`] ticks.
    kernel: Tensor,
    drive: Vec<f32>,
}

/// A pack's dense weight members, simulated together with the members as
/// the vector axis ([`dense_weights`]). The buffers follow the pack — its
/// member count and its layer's input width — and grow on demand.
#[derive(Default)]
struct DenseMembers {
    /// Per member simulated here, in pack order: its index in the pack and
    /// its faulty neuron.
    members: Vec<(usize, usize)>,
    /// The members' patched rows transposed, `[inputs × members]`.
    rows_t: Vec<f32>,
    /// One tick's drives, and the members' neuron state and spikes.
    z: Vec<f32>,
    carried: Vec<f32>,
    refrac: Vec<u32>,
    spikes: Vec<f32>,
    /// Per member, the ticks of the test at hand where its neuron's spike
    /// differs from golden's, and whether it fired.
    flips: Vec<Vec<(usize, bool)>>,
}

impl DenseMembers {
    /// Takes the weight members of a pack at a dense layer — none at any
    /// other — and builds their patched rows transposed: row `c` gathers
    /// input `c`'s weights of the members' neurons from the layer's
    /// transposed weight, and each member's faulty value is put in place.
    fn load(&mut self, ctx: &Ctx<'_>, pack: &Pack) {
        self.members.clear();
        let Layer::Dense(l) = &ctx.net.layers()[pack.layer] else { return };
        let (n, cols) = (l.weight.shape().dim(0), l.weight.shape().dim(1));
        let weight = |fi: usize| match &ctx.injections[fi] {
            Injection::Weight { at, value } => Some((at.offset, *value)),
            Injection::Neuron(_) => None,
        };
        for (i, &fi) in pack.members.iter().enumerate() {
            if let Some((offset, _)) = weight(fi) {
                self.members.push((i, offset / cols));
            }
        }
        let m = self.members.len();
        self.rows_t.resize(cols * m, 0.0);
        for (c, row) in self.rows_t.chunks_exact_mut(m.max(1)).enumerate() {
            let wt_c = &ctx.transposed[pack.layer].input[c * n..(c + 1) * n];
            for (w, &(_, q)) in row.iter_mut().zip(&self.members) {
                *w = wt_c[q];
            }
        }
        for (j, &(i, _)) in self.members.iter().enumerate() {
            if let Some((offset, value)) = weight(pack.members[i]) {
                self.rows_t[offset % cols * m + j] = value;
            }
        }
        for row in [&mut self.z, &mut self.carried, &mut self.spikes] {
            row.resize(m, 0.0);
        }
        self.refrac.resize(m, 0);
        if self.flips.len() < m {
            self.flips.resize_with(m, Vec::new);
        }
    }
}

impl Scratch {
    pub(crate) fn new(net: &Network) -> Self {
        let widest = net.layers().iter().map(Layer::out_features).max().unwrap_or(0);
        let row = || vec![0.0f32; widest];
        Self {
            lane: LaneScratch {
                carried: row(),
                refrac: vec![0; widest],
                z: row(),
                spikes: row(),
                prev: row(),
                fb: row(),
                row: row(),
                pooled: row(),
                kernel: Tensor::zeros(Shape::d1(0)),
                drive: Vec::new(),
            },
            words: Vec::new(),
            words_out: Vec::new(),
            diffmask: Vec::new(),
            delta: vec![0; widest],
            patched: Vec::new(),
            dense: DenseMembers::default(),
        }
    }
}

/// The pack's phase clock. A lap is read once, where a stage of the pack
/// ends — a fault-layer loop, a layer of the sweep — and is credited
/// whole to the phase that stage mostly is: the clock is never read per
/// lane or per fault.
struct Laps {
    local: LocalPhases,
    started: Duration,
    mark: Duration,
}

impl Laps {
    fn start() -> Self {
        let started = monotonic();
        Self { local: LocalPhases::new(), started, mark: started }
    }

    fn lap(&mut self) -> Duration {
        let now = monotonic();
        let lap = now.saturating_sub(self.mark);
        self.mark = now;
        lap
    }

    fn end(&mut self, phase: Phase) {
        let lap = self.lap();
        self.local.add(phase, lap);
    }

    fn end_forward(&mut self, layer: usize) {
        let lap = self.lap();
        self.local.add_forward(layer, lap);
    }
}

/// Where a lane's flips at one layer go.
enum Sink<'a> {
    /// The output layer: the flips are the verdict.
    Verdict { count: u32, delta: &'a mut [i32] },
    /// An inner layer: the flips set the lane's bit in the layer's output
    /// words, which hold the golden row in every lane.
    Words { words: &'a mut [u64], n: usize, lane: u32, any: bool },
}

impl<'a> Sink<'a> {
    /// A lane's sink at a layer of `delta.len()` neurons: into the
    /// layer's output `words`, or — the output layer has none — a
    /// verdict tallied in `delta`, which the previous lane left dirty.
    fn new(words: Option<&'a mut [u64]>, delta: &'a mut [i32], lane: u32) -> Self {
        match words {
            Some(words) => Sink::Words { words, n: delta.len(), lane, any: false },
            None => {
                delta.fill(0);
                Sink::Verdict { count: 0, delta }
            }
        }
    }

    /// Closes the lane's sink: `true` when the lane leaves an inner layer
    /// diverged; an output-layer sink folds into the lane's `verdict`.
    fn finish(self, cfg: &FaultSimConfig, verdict: &mut LaneVerdict) -> bool {
        match self {
            Sink::Words { any, .. } => any,
            Sink::Verdict { count, delta } => {
                verdict.update(cfg, count, delta);
                false
            }
        }
    }

    /// Neuron `q` of the lane spikes (`fired`) or stays silent at tick
    /// `t` where the golden neuron does the opposite.
    #[inline]
    fn flip(&mut self, t: usize, q: usize, fired: bool) {
        match self {
            Sink::Verdict { count, delta } => {
                *count += 1;
                delta[q] += if fired { 1 } else { -1 };
            }
            Sink::Words { words, n, lane, any } => {
                set_lane_bit(&mut words[t * *n + q], *lane, fired);
                *any = true;
            }
        }
    }

    /// Reports the flips of one tick of neurons `base..base + spikes.len()`:
    /// wherever the lane's `spikes` differ from the `golden` ones. Both
    /// rows hold exact `0.0`/`1.0`, so one or-folded xor of their bits
    /// settles the usual case — no flip — without a look at any neuron.
    /// `true` when there was one.
    #[inline]
    fn flips(&mut self, t: usize, base: usize, spikes: &[f32], golden: &[f32]) -> bool {
        let differ = |s: &f32, g: &f32| s.to_bits() ^ g.to_bits();
        if spikes.iter().zip(golden).fold(0, |acc, (s, g)| acc | differ(s, g)) == 0 {
            return false;
        }
        for (p, (s, g)) in spikes.iter().zip(golden).enumerate() {
            if differ(s, g) != 0 {
                self.flip(t, base + p, s.to_bits() != 0);
            }
        }
        true
    }
}

/// One lane's running verdict across the campaign's test inputs,
/// mirroring the scalar engine's accumulator exactly (same `> 0.0`
/// detection test, same strict `>` best-distance update, same
/// conditional class-diff recording).
#[derive(Default)]
struct LaneVerdict {
    detected: bool,
    best_distance: f32,
    best_diff: Option<Vec<f32>>,
}

impl LaneVerdict {
    /// Folds in one test's output-layer flips.
    fn update(&mut self, cfg: &FaultSimConfig, count: u32, delta: &[i32]) {
        // Exact small-integer conversions: both counts are bounded by the
        // output tensor volume, far below `f32`'s 2^24 integer-exactness
        // bound.
        // snn-lint: allow(L-CAST): flip counts are small exact integers
        let distance = count as f32;
        if distance > 0.0 {
            self.detected = true;
            if distance > self.best_distance {
                self.best_distance = distance;
                if cfg.record_class_diffs {
                    // snn-lint: allow(L-CAST): spike-count deltas are small exact integers
                    self.best_diff = Some(delta.iter().map(|&d| d as f32).collect());
                }
            }
        }
    }
}

/// Saturating `usize → u64` for metric increments.
pub(crate) fn as_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// The weight matrix a synapse fault in `tensor` of `layer` patches, and
/// the length of its rows — the weights of one neuron or output channel.
fn weight_rows(layer: &Layer, tensor: usize) -> (&Tensor, usize) {
    let w = match layer {
        Layer::Dense(l) => &l.weight,
        Layer::Conv(l) => &l.weight,
        Layer::Recurrent(l) if tensor == 0 => &l.w_in,
        Layer::Recurrent(l) => &l.w_rec,
        Layer::Pool(_) => unreachable!("pooling layers have no weights to fault"),
    };
    (w, w.len() / w.shape().dim(0))
}

/// Runs one pack over every test input, returning per-member outcomes in
/// member order. Phase accounting is recorded into a pack-local scratch
/// and folded into the process-wide accumulator via `merge_pack`, which
/// scales *counts* (not nanoseconds) by the lane width so per-fault
/// normalization stays meaningful.
pub(crate) fn run_pack(ctx: &Ctx<'_>, pack: &Pack, scratch: &mut Scratch) -> Vec<FaultOutcome> {
    let mut pack_span = snn_obs::span!("batch.pack");
    pack_span.attr("layer", pack.layer);
    pack_span.attr("lanes", pack.lanes());
    let mut laps = Laps::start();
    let mut verdicts: Vec<LaneVerdict> = Vec::new();
    verdicts.resize_with(pack.members.len(), LaneVerdict::default);

    // Injection: every weight fault's row with the faulty value in place,
    // built once for all test inputs — a dense layer's all in one
    // transposed matrix, the others in a slot each.
    let layer = &ctx.net.layers()[pack.layer];
    scratch.dense.load(ctx, pack);
    // (Only a recurrent layer has a second matrix, with rows of its own
    // length.)
    let slot = match layer {
        Layer::Dense(_) => 0,
        _ => weight_rows(layer, 0).1.max(weight_rows(layer, 1).1),
    };
    scratch.patched.resize(pack.members.len() * slot, 0.0);
    for (&fi, row) in pack.members.iter().zip(scratch.patched.chunks_exact_mut(slot.max(1))) {
        if let Injection::Weight { at, value } = &ctx.injections[fi] {
            let (w, cols) = weight_rows(layer, at.tensor);
            let q = at.offset / cols;
            row[..cols].copy_from_slice(&w.as_slice()[q * cols..(q + 1) * cols]);
            row[at.offset % cols] = *value;
        }
    }
    laps.end(Phase::Inject);

    for k in 0..ctx.tests.len() {
        run_test(ctx, pack, k, slot, &mut verdicts, scratch, &mut laps);
    }

    let Laps { mut local, started, mark } = laps;
    let pack_elapsed = mark.saturating_sub(started);
    local.add(Phase::Fault, pack_elapsed);
    let members = pack.members.len();
    let detected = verdicts.iter().filter(|v| v.detected).count();
    snn_obs::counter!("snn_batch_packs_total", "Packs executed by the packed engine.").inc();
    snn_obs::counter!("snn_batch_lanes_total", "Fault variants simulated in packed lanes.")
        .add(as_u64(members));
    record_faults_simulated(as_u64(members));
    if detected > 0 {
        record_faults_detected(as_u64(detected));
    }
    snn_obs::histogram!(
        "snn_batch_pack_seconds",
        "Per-pack packed-sweep time.",
        snn_obs::metrics::FINE_DURATION_BUCKETS
    )
    .observe_duration(pack_elapsed);
    snn_obs::phase::faultsim().merge_pack(&local, as_u64(members));
    pack_span.attr("detected", detected);

    pack.members
        .iter()
        .zip(verdicts)
        .map(|(&fi, v)| FaultOutcome {
            fault_id: ctx.faults[fi].id,
            detected: v.detected,
            distance: v.best_distance,
            class_diff: v.best_diff,
        })
        .collect()
}

/// Sweeps the pack under test input `k`; member `i`'s patched weight row
/// is the `i`-th `slot` of `scratch.patched`, and the pack's dense weight
/// members are loaded into `scratch.dense`.
fn run_test(
    ctx: &Ctx<'_>,
    pack: &Pack,
    k: usize,
    slot: usize,
    verdicts: &mut [LaneVerdict],
    scratch: &mut Scratch,
    laps: &mut Laps,
) {
    let ell = pack.layer;
    let gold = ctx.gold(k, ell);
    let last = ell == ctx.net.layers().len() - 1;

    // Layer ℓ's output words: golden rows broadcast to every lane, then
    // each lane's flips applied by its fault-layer stage. A lane without
    // flips equals the golden run everywhere and is resolved; at the
    // output layer there are no words and the flips are the verdict.
    if !last {
        gold.broadcast(&mut scratch.words);
        laps.end(Phase::PackRun);
    }
    if !scratch.dense.members.is_empty() {
        dense_weights(ctx.layer_input(k, ell), &gold, &mut scratch.dense);
    }
    // The dense weight members' flips are in, in pack order; every other
    // member runs its own stage here.
    let mut dense = scratch.dense.members.iter().zip(&scratch.dense.flips).peekable();
    let mut live = 0u64;
    for (i, &fi) in pack.members.iter().enumerate() {
        let lane = pack.lane(i);
        let words = (!last).then_some(&mut scratch.words[..]);
        let mut sink = Sink::new(words, &mut scratch.delta[..gold.n], lane);
        if let Some((&(_, q), flips)) = dense.next_if(|((member, _), _)| *member == i) {
            for &(t, fired) in flips {
                sink.flip(t, q, fired);
            }
        } else {
            let patched = &scratch.patched[i * slot..(i + 1) * slot];
            fault_stage(ctx, k, fi, &gold, patched, &mut scratch.lane, &mut sink);
        }
        live |= u64::from(sink.finish(&ctx.cfg, &mut verdicts[i])) << lane;
    }
    laps.end_forward(ell);
    if live != 0 {
        downstream(ctx, pack, k, live, verdicts, scratch, laps);
    }
}

/// The fault-layer stage of one member fault `fi` — any but a dense
/// weight, which [`dense_weights`] runs with the pack's others: simulates
/// what the fault changes at its own layer under test `k` and reports the
/// flips. `patched` is the member's slot of patched weight rows.
fn fault_stage(
    ctx: &Ctx<'_>,
    k: usize,
    fi: usize,
    gold: &Gold<'_>,
    patched: &[f32],
    s: &mut LaneScratch,
    sink: &mut Sink<'_>,
) {
    let ell = ctx.faults[fi].site.layer();
    // What the fault is, in the terms the simulator applies it in. The
    // injections were realized via `for_fault`, which rejects site/kind
    // mismatches before any pack runs.
    match (&ctx.injections[fi], ctx.faults[fi].site) {
        (Injection::Neuron(map), FaultSite::Neuron { layer, index }) => {
            let Some(behaviour) = map.get(layer, index) else {
                unreachable!("neuron injection without an override at its own site")
            };
            let (forced, lif) = (behaviour.forced(), behaviour.lif(gold.lif));
            match gold.layer {
                Layer::Recurrent(l) => {
                    let site = RecurrentSite { q: index, forced, lif, patch: None };
                    let w_rec_t = &ctx.transposed[ell].feedback;
                    recurrent_site(ctx.layer_input(k, ell), l, w_rec_t, gold, &site, s, sink);
                }
                // A feed-forward neuron's drive does not depend on its own
                // behaviour: the golden drive column under other constants,
                // and no synaptic arithmetic at all.
                _ => column(gold, index, forced, &lif, sink),
            }
        }
        (Injection::Weight { at, .. }, _) => {
            let x = ctx.layer_input(k, ell);
            let cols = weight_rows(gold.layer, at.tensor).1;
            // The faulty weight is input `c` of neuron (or channel) `q`.
            let (q, c, row) = (at.offset / cols, at.offset % cols, &patched[..cols]);
            match gold.layer {
                Layer::Conv(l) => conv_weight(x, l, gold, (q, row), s, sink),
                Layer::Recurrent(l) => {
                    let patch = Some(RowPatch { feedback: at.tensor != 0, row, c });
                    let site = RecurrentSite { q, forced: None, lif: *gold.lif, patch };
                    let w_rec_t = &ctx.transposed[ell].feedback;
                    recurrent_site(x, l, w_rec_t, gold, &site, s, sink);
                }
                Layer::Dense(_) => unreachable!("a pack's dense weight members run together"),
                Layer::Pool(_) => unreachable!("pooling layers have no weights to fault"),
            }
        }
        (Injection::Neuron(_), FaultSite::Synapse(_)) => {
            unreachable!("neuron injection at a synapse site")
        }
    }
}

/// Neuron `q` alone, from rest, over the whole run: forced to a constant
/// output, or integrating its golden drive under `lif`.
fn column(gold: &Gold<'_>, q: usize, forced: Option<bool>, lif: &LifParams, sink: &mut Sink<'_>) {
    let (mut carried, mut refrac) = (0.0f32, 0u32);
    for t in 0..gold.steps {
        let drive = gold.rec.drive[t * gold.n + q];
        let fired = forced.unwrap_or_else(|| lif.step(&mut carried, &mut refrac, drive).fired);
        if fired != gold.spike(t, q) {
            sink.flip(t, q, fired);
        }
    }
}

/// Every dense weight member of the pack under one test, at once: member
/// `j`'s neuron integrates, from rest, the drive of its patched row over
/// the layer's input `x`. A tick's drives are one
/// [`ops::matvec_skip_zeros`] of the input row with the transposed
/// patched rows — output `j` is what the model's product over the patched
/// layer computes for `j`'s neuron — and the members' neurons, all under
/// the layer's constants, take one [`LifParams::step_row`]. Each member's
/// flips against the golden spikes of its neuron go to its buffer.
fn dense_weights(x: &[f32], gold: &Gold<'_>, d: &mut DenseMembers) {
    let cols = d.rows_t.len() / d.members.len();
    d.carried.fill(0.0);
    d.refrac.fill(0);
    for flips in &mut d.flips {
        flips.clear();
    }
    for (t, x_t) in x.chunks_exact(cols).enumerate() {
        ops::matvec_skip_zeros(&d.rows_t, x_t, &mut d.z);
        gold.lif.step_row(&mut d.carried, &mut d.refrac, &d.z, &mut d.spikes, None);
        for ((&(_, q), s), flips) in d.members.iter().zip(&d.spikes).zip(&mut d.flips) {
            let fired = *s != 0.0;
            if fired != gold.spike(t, q) {
                flips.push((t, fired));
            }
        }
    }
}

/// Ticks of a conv weight fault's channel convolved per call: four of
/// the kernel's 16-tick blocks, so the drive buffer is one channel × this
/// many ticks whatever the test length.
const CONV_TICKS: usize = 64;

/// A conv kernel weight of output channel `oc`, whose patched kernel is
/// `w_oc`. Only channel `oc` can change, and its drive is what the scalar
/// engine computes for it: [`ops::conv2d`] over the layer's input, on a
/// one-channel spec with the kernel `w_oc`, [`CONV_TICKS`] ticks a call.
/// Each tick of the channel — one set of LIF parameters — is then stepped
/// as a row.
fn conv_weight(
    x: &[f32],
    l: &snn_model::ConvLayer,
    gold: &Gold<'_>,
    (oc, w_oc): (usize, &[f32]),
    s: &mut LaneScratch,
    sink: &mut Sink<'_>,
) {
    let ((h, w), (oh, ow)) = (l.in_hw, l.out_hw());
    let one = Conv2dSpec { out_channels: 1, ..l.spec };
    let (pixels, base, in_features) = (oh * ow, oc * oh * ow, one.in_channels * h * w);
    if *s.kernel.shape() != one.weight_shape() {
        s.kernel = Tensor::zeros(one.weight_shape());
    }
    s.kernel.as_mut_slice().copy_from_slice(w_oc);
    s.drive.resize(CONV_TICKS * pixels, 0.0);
    let (carried, refrac) = (&mut s.carried[..pixels], &mut s.refrac[..pixels]);
    let spikes = &mut s.spikes[..pixels];
    carried.fill(0.0);
    refrac.fill(0);
    for t0 in (0..gold.steps).step_by(CONV_TICKS) {
        let ticks = CONV_TICKS.min(gold.steps - t0);
        let drive = &mut s.drive[..ticks * pixels];
        let x_block = &x[t0 * in_features..(t0 + ticks) * in_features];
        ops::conv2d(&one, x_block, h, w, &s.kernel, drive);
        for (t, z) in (t0..).zip(drive.chunks_exact(pixels)) {
            gold.lif.step_row(carried, refrac, z, spikes, None);
            let channel = t * gold.n + base..t * gold.n + base + pixels;
            sink.flips(t, base, spikes, &gold.out[channel]);
        }
    }
}

/// One patched row of a recurrent layer's `W_in` or (`feedback`) `W_rec`.
struct RowPatch<'a> {
    feedback: bool,
    /// The faulty neuron's weight row with the faulty value at `c`.
    row: &'a [f32],
    c: usize,
}

/// A fault at neuron `q` of a recurrent layer: other constants or a
/// forced output, or one patched weight in `q`'s row.
struct RecurrentSite<'a> {
    q: usize,
    forced: Option<bool>,
    lif: LifParams,
    patch: Option<RowPatch<'a>>,
}

/// A recurrent-site fault. While the lane's spikes equal the golden ones
/// every neuron but `q` is on the golden trajectory by construction, so
/// only `q` is stepped, on golden feed-forward and feedback sums (its own
/// patched row redone where the patched input carries traffic). Once a
/// spike differs, the others leave the trajectory through the feedback:
/// they resume from the recorded state of the next tick and the whole
/// layer is stepped as a row, `W_rec · s[t−1]` recomputed on the ticks
/// whose previous spikes differ from golden's — until spikes and state
/// are back on the record, and `q` runs alone again.
fn recurrent_site(
    x: &[f32],
    l: &RecurrentLayer,
    w_rec_t: &[f32],
    gold: &Gold<'_>,
    site: &RecurrentSite<'_>,
    s: &mut LaneScratch,
    sink: &mut Sink<'_>,
) {
    let (n, steps, rec, q) = (gold.n, gold.steps, gold.rec, site.q);
    let in_features = l.w_in.shape().dim(1);
    // Lane-private state: `q`'s always, the others' while `desynced`.
    let (carried, refrac) = (&mut s.carried[..n], &mut s.refrac[..n]);
    carried.fill(0.0);
    refrac.fill(0);
    let mut desynced = false;
    // The lane's spikes of the previous tick, kept while they differ from
    // the golden ones (`prev_differs`, which implies `desynced`).
    let (mut prev, mut spikes) = (&mut s.prev[..n], &mut s.spikes[..n]);
    let mut prev_differs = false;
    let (z, fb) = (&mut s.z[..n], &mut s.fb[..n]);

    for t in 0..steps {
        if desynced {
            if prev_differs {
                ops::matvec_skip_zeros(w_rec_t, prev, fb);
            } else {
                fb.copy_from_slice(gold.row(&rec.feedback, t));
            }
        } else {
            fb[q] = rec.feedback[t * n + q];
        }
        let mut ff_q = rec.feedforward[t * n + q];
        if let Some(patch) = &site.patch {
            // Exact-zero reuse: the patched sum is redone only where the
            // patched input carries traffic.
            let live = |row: &[f32]| row[patch.c] != 0.0;
            if !patch.feedback {
                let x_t = &x[t * in_features..(t + 1) * in_features];
                if live(x_t) {
                    ff_q = row_dot(patch.row, x_t);
                }
            } else if t > 0 {
                let prev_t = if prev_differs { &prev[..] } else { gold.row(gold.out, t - 1) };
                if live(prev_t) {
                    fb[q] = row_dot(patch.row, prev_t);
                }
            }
        }
        // The two halves are rounded separately and then added, like the
        // model's recurrent drive; there is no feedback on the first tick.
        let drive = |ff: f32, fb: f32| if t > 0 { ff + fb } else { ff };

        if desynced {
            // Everyone under the layer's constants, `q` included: its
            // state is put back and stepped under its own below.
            for ((zi, ff), fb) in z.iter_mut().zip(gold.row(&rec.feedforward, t)).zip(fb.iter()) {
                *zi = drive(*ff, *fb);
            }
            let own = (carried[q], refrac[q]);
            gold.lif.step_row(carried, refrac, z, spikes, None);
            (carried[q], refrac[q]) = own;
        }
        let fired_q = site.forced.unwrap_or_else(|| {
            site.lif.step(&mut carried[q], &mut refrac[q], drive(ff_q, fb[q])).fired
        });
        let row_differs = if desynced {
            spikes[q] = f32::from(u8::from(fired_q));
            let differs = sink.flips(t, 0, spikes, gold.row(gold.out, t));
            std::mem::swap(&mut prev, &mut spikes);
            differs
        } else {
            let differs = fired_q != gold.spike(t, q);
            if differs {
                sink.flip(t, q, fired_q);
                prev.copy_from_slice(gold.row(gold.out, t));
                prev[q] = f32::from(u8::from(fired_q));
            }
            differs
        };
        prev_differs = row_differs;

        if t + 1 < steps {
            let (carried_next, refrac_next) =
                (gold.row(&rec.carried_pre, t + 1), gold.row(&rec.refrac_pre, t + 1));
            if row_differs && !desynced {
                // The others were golden through this tick: they enter
                // the next one in the recorded state.
                let own = (carried[q], refrac[q]);
                carried.copy_from_slice(carried_next);
                refrac.copy_from_slice(refrac_next);
                (carried[q], refrac[q]) = own;
                desynced = true;
            } else if desynced && !row_differs {
                desynced = (0..n).any(|i| {
                    i != q
                        && (carried[i].to_bits() != carried_next[i].to_bits()
                            || refrac[i] != refrac_next[i])
                });
            }
        }
    }
}

/// Carries diverged lanes through the spiking layers behind `pack.layer`,
/// materializing lanes lazily and resolving verdicts at the last layer.
/// `scratch.words` are the fault layer's output words, `live` its
/// diverged lanes.
fn downstream(
    ctx: &Ctx<'_>,
    pack: &Pack,
    k: usize,
    mut live: u64,
    verdicts: &mut [LaneVerdict],
    scratch: &mut Scratch,
    laps: &mut Laps,
) {
    let layers = ctx.net.layers();
    let member_shift = usize::from(pack.golden_lane);
    let Scratch { lane: lane_scratch, words, words_out, diffmask, delta, .. } = scratch;

    // `src` is the spiking layer whose output the words hold; pooling
    // layers between it and the next spiking layer `d` carry no words.
    let mut src = pack.layer;
    for d in pack.layer + 1..layers.len() {
        if !layers[d].is_spiking() {
            continue;
        }
        let gin = ctx.gold(k, src);
        let gd = ctx.gold(k, d);
        let (n_in, n_d) = (gin.n, gd.n);

        // Which lanes' rows at `src` differ from the golden rows, and at
        // which ticks. Lanes with no divergent tick reconverged at the
        // previous layer — their remaining suffix is provably golden.
        let watched = live | u64::from(pack.golden_lane);
        diffmask.clear();
        diffmask.extend((0..gd.steps).map(|t| {
            row_diff_mask(&words[t * n_in..(t + 1) * n_in], gin.row(gin.out, t), watched)
        }));
        // Exactly the lanes that reported flips differ — in particular
        // not the fault-free lane 0 of a pack that reserves it.
        debug_assert_eq!(
            diffmask.iter().fold(0, |union, mask| union | mask),
            live,
            "golden self-check lane diverged, or a lane lost its flips"
        );
        laps.end(Phase::Compare);

        let last = d == layers.len() - 1;
        if !last {
            gd.broadcast(words_out);
            laps.end(Phase::PackRun);
        }
        let mut next_live = 0u64;
        let mut rest = live;
        while rest != 0 {
            let lane = rest.trailing_zeros();
            rest &= rest - 1;
            let member = lane as usize - member_shift;
            let mut sink =
                Sink::new((!last).then_some(&mut words_out[..]), &mut delta[..n_d], lane);
            let input = LaneInput { src, words, n_in, lane, diffmask };
            lane_layer(ctx, d, &gd, &input, lane_scratch, &mut sink);
            next_live |= u64::from(sink.finish(&ctx.cfg, &mut verdicts[member])) << lane;
        }
        laps.end_forward(d);

        live = next_live;
        if live == 0 {
            return;
        }
        std::mem::swap(words, words_out);
        src = d;
    }
}

/// One lane's input to a spiking layer: the output words of the spiking
/// layer `src` before it, and the ticks at which the lane's row there
/// differs from the golden row.
struct LaneInput<'a> {
    src: usize,
    words: &'a [u64],
    n_in: usize,
    lane: u32,
    diffmask: &'a [u64],
}

impl LaneInput<'_> {
    fn diverges(&self, t: usize) -> bool {
        (self.diffmask[t] >> self.lane) & 1 == 1
    }

    /// The lane's feed-forward drive of layer `d` at a divergent tick:
    /// its spike row at `src`, through the pooling layers in between and
    /// the layer's own input transform, with the bits the model's forward
    /// pass gives the same row. A weight matrix is multiplied from its
    /// transposed copy, by the lane's spikes alone: straight off the
    /// words when the layer sits right behind `src`, and through
    /// [`ops::matvec_skip_zeros`] — the forward pass's own product —
    /// once pooling has made the row fractional.
    fn drive(&self, ctx: &Ctx<'_>, d: usize, t: usize, s: &mut LaneScratch) {
        let layers = ctx.net.layers();
        let wt = &ctx.transposed[d].input;
        let z = &mut s.z[..layers[d].out_features()];
        let row_words = &self.words[t * self.n_in..(t + 1) * self.n_in];
        if self.src + 1 == d && !wt.is_empty() {
            lane_matvec(wt, row_words, self.lane, z);
            return;
        }
        let (row, pooled) = (&mut s.row, &mut s.pooled);
        let mut width = self.n_in;
        unpack_lane(row_words, self.lane, &mut row[..width]);
        for pool in &layers[self.src + 1..d] {
            let out = pool.out_features();
            pool.feedforward(&row[..width], &mut pooled[..out]);
            std::mem::swap(row, pooled);
            width = out;
        }
        if wt.is_empty() {
            layers[d].feedforward(&row[..width], z);
        } else {
            ops::matvec_skip_zeros(wt, &row[..width], z);
        }
    }
}

/// Materializes one lane through spiking layer `d` from its first
/// divergent input tick `t0`: before `t0` the lane's input rows are
/// golden, so its state *entering* `t0` is exactly the recorded golden
/// pre-tick state. A tick's drive is read from the golden record where
/// nothing it depends on has diverged; otherwise the feed-forward half
/// comes from [`LaneInput::drive`] (or the record) and a recurrent layer
/// adds its feedback, golden while the lane's own previous spikes are.
/// The layer's neurons share one set of LIF parameters and are stepped as
/// a row.
fn lane_layer(
    ctx: &Ctx<'_>,
    d: usize,
    gd: &Gold<'_>,
    input: &LaneInput<'_>,
    s: &mut LaneScratch,
    sink: &mut Sink<'_>,
) {
    let (n, steps, rec) = (gd.n, gd.steps, gd.rec);
    let Some(t0) = (0..steps).find(|&t| input.diverges(t)) else {
        // A lane is live because its words differ from golden somewhere.
        unreachable!("live lane without a divergent tick")
    };
    let w_rec_t = Some(&ctx.transposed[d].feedback).filter(|wt| !wt.is_empty());
    s.carried[..n].copy_from_slice(gd.row(&rec.carried_pre, t0));
    s.refrac[..n].copy_from_slice(gd.row(&rec.refrac_pre, t0));
    // Recurrent layers: the lane's own previous spikes (in `s.prev`) differ
    // from the golden ones.
    let mut prev_differs = false;

    for t in t0..steps {
        let feedback = w_rec_t.filter(|_| t > 0);
        let off_record = input.diverges(t) || (prev_differs && feedback.is_some());
        if off_record {
            if input.diverges(t) {
                input.drive(ctx, d, t, s);
            } else {
                s.z[..n].copy_from_slice(gd.row(&rec.feedforward, t));
            }
            if let Some(w_rec_t) = feedback {
                if prev_differs {
                    ops::matvec_skip_zeros(w_rec_t, &s.prev[..n], &mut s.fb[..n]);
                }
                let fb = if prev_differs { &s.fb[..n] } else { gd.row(&rec.feedback, t) };
                for (zi, ri) in s.z[..n].iter_mut().zip(fb) {
                    *zi += ri;
                }
            }
        }
        // Input row and own previous spikes golden: the drive is the
        // recorded one — bitwise (same functions over the same spikes) —
        // and is read where it lies.
        let z = if off_record { &s.z[..n] } else { gd.row(&rec.drive, t) };
        gd.lif.step_row(&mut s.carried[..n], &mut s.refrac[..n], z, &mut s.spikes[..n], None);
        prev_differs = sink.flips(t, 0, &s.spikes[..n], gd.row(gd.out, t));
        if prev_differs {
            std::mem::swap(&mut s.prev, &mut s.spikes);
        }
    }
}
