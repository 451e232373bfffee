//! The packed kernel: one run of fault variants simulated
//! *differentially* against the golden run, each distinct divergence
//! swept once, lane-parallel, over the layers behind the fault.
//!
//! # Shape of a sweep
//!
//! Every fault in a run sits at the same spiking layer `ℓ`. Whatever a
//! variant does is stated as its **flips**: the `(tick, neuron)` positions
//! where its spike differs from the golden one. Per test the run goes
//! through three stages:
//!
//! * **Fault-layer stage** — redo at layer `ℓ` only what the fault can
//!   change, on golden drives wherever they still hold. The dense weight
//!   members of a run go together, 64 at a time, the members as the
//!   vector axis: their patched rows are transposed, and a tick is one product
//!   of the input row with them — one drive per member — and one LIF step
//!   of the members' faulty neurons as a row ([`dense_weights`]). Every
//!   other member goes on its own: one neuron column for a neuron fault,
//!   one output channel for a conv kernel weight (convolved with the
//!   patched kernel by the model's own kernel, a block of ticks a call,
//!   only on the ticks its input channel carries traffic — the record
//!   holds on the others), and for a recurrent layer the faulty neuron
//!   alone until its spikes
//!   leave the golden train, then the whole layer for as long as it stays
//!   off it. Each member's flips go to the run's [`Divergences`], in
//!   (tick, neuron) order. A member without flips is resolved right here:
//!   undetected by this test; at the output layer the flips are the
//!   verdict.
//! * **Collapse** — members whose flips are equal diverge alike: behind
//!   `ℓ` a variant reads nothing but the golden records and its own bits,
//!   so equal flips at `ℓ` are equal flips at every later layer. The
//!   diverged members are grouped by equal flip lists (a hash finds the
//!   candidates, equality decides), and only the first member of each
//!   group, its representative, is swept. A dense fault's flips stay in
//!   its neuron, and the universe lists a neuron's synapse faults side by
//!   side, which is why a run is wider than a sweep.
//! * **Downstream** — the representatives go in blocks of up to 64 bit
//!   lanes, lane 0 a fault-free self-check in a block that is not full.
//!   Flips toggle the lane's bit in packed `u64` spike
//!   words (golden rows broadcast to every lane), which carry the lanes
//!   from one spiking layer to the next. Per spiking layer, a per-tick
//!   [`row_diff_mask`] against the golden rows finds which lanes still
//!   differ, and those lanes are stepped together as one [`Block`]:
//!   lane-minor `[n × lanes]` state in `f32`, entered at the first tick
//!   any of them diverges in the recorded golden pre-tick state. Each
//!   tick broadcasts the stored golden drive into the block and
//!   recomputes it only for the lanes whose input row (or, in a
//!   recurrent layer, own previous spikes) differs — pooling layers on
//!   the way applied to the lane's row then and there, to the one channel
//!   a conv fault layer's lane can differ in, over the golden pooled row
//!   — then steps the whole block at once. Lanes whose output reconverges
//!   drop out; at the last layer the flips *are* the verdict, and every
//!   member of a group folds its representative's into its own.
//!
//! What a diverged lane costs follows what diverged. A recomputed drive
//! is the sum of the transposed weight's columns at the lane's spikes
//! ([`lane_matvec`], [`ops::matvec_skip_zeros`]; the transposed copies
//! are made once per campaign), never a full product; a tick of a layer
//! is one [`LifParams::step_row`] over the block and one folded
//! comparison per neuron row with its golden spike; and every buffer a
//! run touches belongs to its worker thread's [`Scratch`] — a lane
//! allocates nothing of its own, only [`ops::conv2d`] sets up its tap
//! tables per call. The clock is read once per stage of a run
//! ([`Laps`]), not per lane.
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
//!   and pooling rows ([`ops::avg_pool2d`] on one plane for a conv fault
//!   layer's channel: planes pool alone), [`ops::matvec_skip_zeros`] for
//!   matrices, and [`ops::conv2d`] on a one-channel spec for a faulty
//!   conv channel, whose pixels sum their taps as the whole layer's do.
//!   The dense weight members' drives are `matvec_skip_zeros` over their
//!   transposed patched rows: member `j`'s adds `x[c] · w` over its
//!   patched row for each non-zero input `c`, ascending, from `+0.0` —
//!   the additions the model's product over the patched layer makes for
//!   `j`'s neuron.
//!   [`lane_matvec`] and [`row_dot`] make `matvec`'s non-zero additions
//!   per output in `matvec`'s order;
//! * **exact zeroes** — a drive is reused where every input the fault
//!   touches is an exact zero, whose products never move an accumulator
//!   (see `snn_tensor::packed`) — a conv weight's channel where its input
//!   channel is silent; by the same token a dense weight member,
//!   recomputed on every tick, has the golden drive's bits wherever its
//!   own input is silent;
//! * **exact resume** — a lane equal to the golden run before `t0` has
//!   the golden state entering `t0`, so resuming from the record is the
//!   computation the scalar engine performs from tick 0; a lane that
//!   joins a block before its own first divergent tick steps the
//!   recorded drives from the recorded state, and stays on the record;
//! * **exact sharing** — a member takes its representative's flip count
//!   and class deltas test by test, and folds them into its own verdict
//!   in test order, as it would its own;
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
    broadcast_row, lane_matvec, row_diff_mask, row_dot, set_lane_bit, unpack_lane, LANES,
};
use snn_tensor::{Shape, Tensor};
use std::ops::Range;
use std::time::Duration;

use super::plan::Run;

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

/// Read-only campaign state shared by every run.
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
/// reused by every run, test and lane the thread runs: the sweep
/// allocates per run (verdicts and outcomes), never per lane — only the
/// convolution kernel it calls sets up tables per call.
pub(crate) struct Scratch {
    lane: LaneScratch,
    /// Output words of the spiking layer a sweep step reads …
    words: Vec<u64>,
    /// … and of the one it writes; swapped as the sweep moves on.
    words_out: Vec<u64>,
    /// Per tick, the lanes whose row in `words` differs from golden's.
    diffmask: Vec<u64>,
    /// A weight member's patched row: its neuron's (or channel's) weights
    /// with the faulty value in place.
    patched: Vec<f32>,
    /// The run's dense weight members, stepped together.
    dense: DenseMembers,
    /// The members' flips at the fault layer, and who sweeps for whom.
    div: Divergences,
    /// The live lanes at a layer behind the fault, stepped together.
    block: Block,
}

/// What one lane needs at its fault layer, and what recomputing one
/// lane's drive behind it needs: rows as wide as the widest layer, used up
/// to the layer at hand.
struct LaneScratch {
    carried: Vec<f32>,
    refrac: Vec<u32>,
    z: Vec<f32>,
    spikes: Vec<f32>,
    /// Recurrent layers: a lane's own previous spikes while they differ
    /// from golden's, and the feedback they drive.
    prev: Vec<f32>,
    fb: Vec<f32>,
    /// A lane's row on its way through pooling layers.
    row: Vec<f32>,
    pooled: Vec<f32>,
    /// Conv weight faults: the patched kernel of the faulty channel; up
    /// to [`CONV_TICKS`] ticks on which its input channel carries traffic,
    /// their input rows, and the faulty channel's drive on them.
    kernel: Tensor,
    ticks: Vec<usize>,
    inputs: Vec<f32>,
    drive: Vec<f32>,
}

/// A run's dense weight members, simulated together with the members as
/// the vector axis ([`dense_weights`]), up to 64 at a time. The buffers
/// grow on demand.
#[derive(Default)]
struct DenseMembers {
    /// Per member simulated here, in run order: its index in the run and
    /// its faulty neuron.
    members: Vec<(usize, usize)>,
    /// Up to 64 members' patched rows transposed, `[inputs × members]`.
    rows_t: Vec<f32>,
    /// One tick's drives, and the members' neuron state and spikes.
    z: Vec<f32>,
    carried: Vec<f32>,
    refrac: Vec<u32>,
    spikes: Vec<f32>,
    /// Per tick of the test at hand, a bit per member (`⌈members / 64⌉`
    /// words a tick): set where its neuron's spike differs from golden's.
    flipped: Vec<u64>,
    /// Per member, where its next flip goes while they are placed.
    cursor: Vec<usize>,
}

impl DenseMembers {
    /// Takes the weight members of a run at a dense layer — none at any
    /// other.
    fn load(&mut self, ctx: &Ctx<'_>, run: &Run) {
        self.members.clear();
        let Layer::Dense(l) = &ctx.net.layers()[run.layer] else { return };
        let cols = l.weight.shape().dim(1);
        for (i, &fi) in run.members.iter().enumerate() {
            if let Injection::Weight { at, .. } = &ctx.injections[fi] {
                self.members.push((i, at.offset / cols));
            }
        }
        for row in [&mut self.z, &mut self.carried, &mut self.spikes] {
            row.resize(LANES, 0.0);
        }
        self.refrac.resize(LANES, 0);
    }

    /// Appends the members' flips to `flips` as positions into the
    /// layer's `[T × n]` output, member after member, each in tick order,
    /// and sets each member's span in `spans` (by run member): one pass
    /// over the set bits counts them, a second places them.
    fn flips_into(&mut self, n: usize, flips: &mut Vec<usize>, spans: &mut [Range<usize>]) {
        let Self { members, flipped, cursor, .. } = self;
        let words = members.len().div_ceil(LANES);
        cursor.clear();
        cursor.resize(members.len(), 0);
        for_each_bit(flipped, words, |_, j| cursor[j] += 1);
        let mut end = flips.len();
        for (&(i, _), at) in members.iter().zip(cursor.iter_mut()) {
            let start = end;
            end += *at;
            spans[i] = start..end;
            *at = start;
        }
        flips.resize(end, 0);
        for_each_bit(flipped, words, |t, j| {
            flips[cursor[j]] = t * n + members[j].1;
            cursor[j] += 1;
        });
    }
}

/// Calls `f(t, j)` for each set bit `j` of row `t` of a bitmap of `words`
/// words a row, row after row.
fn for_each_bit(bitmap: &[u64], words: usize, mut f: impl FnMut(usize, usize)) {
    for (t, row) in bitmap.chunks_exact(words).enumerate() {
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(t, w * LANES + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
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
                ticks: Vec::with_capacity(CONV_TICKS),
                inputs: Vec::new(),
                drive: Vec::new(),
            },
            words: Vec::new(),
            words_out: Vec::new(),
            diffmask: Vec::new(),
            patched: Vec::new(),
            dense: DenseMembers::default(),
            div: Divergences::default(),
            block: Block::default(),
        }
    }
}

/// The run's phase clock. A lap is read once, where a stage of the run
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

/// Where a member's flips at its fault layer go: the run's flip list, as
/// positions `t · n + q` of the layer's `[T × n]` output.
struct Sink<'a> {
    flips: &'a mut Vec<usize>,
    n: usize,
}

impl Sink<'_> {
    /// Neuron `q` spikes at tick `t` where the golden neuron is silent, or
    /// the other way round.
    #[inline]
    fn flip(&mut self, t: usize, q: usize) {
        self.flips.push(t * self.n + q);
    }

    /// Reports the flips of one tick of neurons `base..base + spikes.len()`:
    /// wherever the member's `spikes` differ from the `golden` ones. Both
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
                self.flip(t, base + p);
            }
        }
        true
    }
}

/// A run's members under one test: their flips at the fault layer, and
/// which of them sweep the layers behind it for the others.
#[derive(Default)]
struct Divergences {
    /// Every member's flips, each member's in ascending position order.
    flips: Vec<usize>,
    /// Per member, where its flips are in `flips`.
    spans: Vec<Range<usize>>,
    /// The diverged members, by the hash of their flips.
    keys: Vec<(u64, usize)>,
    /// Per diverged member, its representative: the first member with
    /// the same flips, itself if there is none before it.
    rep: Vec<Option<usize>>,
    /// The representatives, the members swept, by their first flip: a
    /// block of lanes is stepped from the first tick any of them diverges,
    /// so lanes that diverge at about the same tick go together.
    reps: Vec<usize>,
    /// Per representative (by member index), the flip count and per-class
    /// deltas (`[members × classes]`) its sweep left at the output layer.
    count: Vec<u32>,
    delta: Vec<i32>,
}

impl Divergences {
    /// Member `i`'s flips.
    fn of(&self, i: usize) -> &[usize] {
        flips_of(&self.flips, &self.spans, i)
    }

    /// Groups the diverged members by equal flips and picks each group's
    /// representative, returning the number of members that diverged.
    fn group(&mut self) -> usize {
        let Self { flips, spans, keys, rep, reps, .. } = self;
        keys.clear();
        for i in 0..spans.len() {
            let own = flips_of(flips, spans, i);
            if !own.is_empty() {
                let hash = own.iter().fold(as_u64(own.len()), |h, &p| {
                    (h.rotate_left(5) ^ as_u64(p)).wrapping_mul(0x517c_c1b7_2722_0a95)
                });
                keys.push((hash, i));
            }
        }
        keys.sort_unstable();
        rep.clear();
        rep.resize(spans.len(), None);
        reps.clear();
        // Members of one hash come in member order; each is compared with
        // the representatives its hash has so far — one, unless two lists
        // collide.
        let mut a = 0;
        while a < keys.len() {
            let hash = keys[a].0;
            let end = a + keys[a..].partition_point(|key| key.0 == hash);
            let first = reps.len();
            for &(_, i) in &keys[a..end] {
                let own = flips_of(flips, spans, i);
                let found = reps[first..].iter().find(|&&r| flips_of(flips, spans, r) == own);
                rep[i] = Some(found.copied().unwrap_or(i));
                if rep[i] == Some(i) {
                    reps.push(i);
                }
            }
            a = end;
        }
        reps.sort_unstable_by_key(|&r| (flips_of(flips, spans, r)[0], r));
        keys.len()
    }
}

/// Member `i`'s flips in a run's flip list.
fn flips_of<'a>(flips: &'a [usize], spans: &[Range<usize>], i: usize) -> &'a [usize] {
    &flips[spans[i].clone()]
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
        #[expect(clippy::cast_precision_loss, reason = "flip counts are small exact integers")]
        let distance = count as f32;
        if distance > 0.0 {
            self.detected = true;
            if distance > self.best_distance {
                self.best_distance = distance;
                #[expect(
                    clippy::cast_precision_loss,
                    reason = "spike-count deltas are small exact integers"
                )]
                if cfg.record_class_diffs {
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

/// Runs one run over every test input, returning per-member outcomes in
/// member order. Phase accounting is recorded into a run-local scratch
/// and folded into the process-wide accumulator via `merge_pack`, which
/// scales *counts* (not nanoseconds) by the member count so per-fault
/// normalization stays meaningful.
pub(crate) fn run_faults(ctx: &Ctx<'_>, run: &Run, scratch: &mut Scratch) -> Vec<FaultOutcome> {
    let mut run_span = snn_obs::span!("batch.run");
    run_span.attr("layer", run.layer);
    run_span.attr("members", run.members.len());
    let mut laps = Laps::start();
    let mut verdicts: Vec<LaneVerdict> = Vec::new();
    verdicts.resize_with(run.members.len(), LaneVerdict::default);

    scratch.dense.load(ctx, run);
    laps.end(Phase::Inject);

    let (mut distinct, mut shared) = (0, 0);
    for k in 0..ctx.tests.len() {
        let (diverged, swept) = run_test(ctx, run, k, &mut verdicts, scratch, &mut laps);
        distinct += swept;
        shared += diverged - swept;
    }

    let Laps { mut local, started, mark } = laps;
    let run_elapsed = mark.saturating_sub(started);
    local.add(Phase::Fault, run_elapsed);
    let members = run.members.len();
    let detected = verdicts.iter().filter(|v| v.detected).count();
    snn_obs::counter!("snn_batch_runs_total", "Runs executed by the packed engine.").inc();
    snn_obs::counter!("snn_batch_lanes_total", "Fault variants simulated in packed lanes.")
        .add(as_u64(members));
    snn_obs::counter!(
        "snn_batch_lanes_shared_total",
        "Diverged fault variants resolved by another variant's sweep, per test."
    )
    .add(as_u64(shared));
    record_faults_simulated(as_u64(members));
    if detected > 0 {
        record_faults_detected(as_u64(detected));
    }
    snn_obs::histogram!(
        "snn_batch_run_seconds",
        "Per-run packed-sweep time.",
        snn_obs::metrics::FINE_DURATION_BUCKETS
    )
    .observe_duration(run_elapsed);
    snn_obs::phase::faultsim().merge_pack(&local, as_u64(members));
    run_span.attr("distinct", distinct);
    run_span.attr("detected", detected);

    run.members
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

/// Runs the run under test input `k`; the run's dense weight members are
/// loaded into `scratch.dense`. Returns how many members
/// diverged at the fault layer and how many of them were swept behind it.
fn run_test(
    ctx: &Ctx<'_>,
    run: &Run,
    k: usize,
    verdicts: &mut [LaneVerdict],
    scratch: &mut Scratch,
    laps: &mut Laps,
) -> (usize, usize) {
    let ell = run.layer;
    let gold = ctx.gold(k, ell);

    // Every member's flips at layer ℓ: the dense weight members' from
    // `dense_weights`, every other member's from its own stage.
    let div = &mut scratch.div;
    div.flips.clear();
    div.spans.clear();
    div.spans.resize(run.members.len(), 0..0);
    if !scratch.dense.members.is_empty() {
        dense_weights(ctx, run, ctx.layer_input(k, ell), &gold, &mut scratch.dense);
        scratch.dense.flips_into(gold.n, &mut div.flips, &mut div.spans);
    }
    let mut dense = scratch.dense.members.iter().peekable();
    for (i, &fi) in run.members.iter().enumerate() {
        if dense.next_if(|&&(member, _)| member == i).is_none() {
            let start = div.flips.len();
            let mut sink = Sink { flips: &mut div.flips, n: gold.n };
            fault_stage(ctx, k, fi, &gold, &mut scratch.patched, &mut scratch.lane, &mut sink);
            div.spans[i] = start..div.flips.len();
        }
    }
    laps.end_forward(ell);

    // A member without flips equals the golden run everywhere; the others
    // diverge alike in groups, one representative each. At the output
    // layer a representative's flips are its verdict; at any other its
    // sweep behind the layer finds it, the representatives in blocks of
    // up to 64 lanes.
    let diverged = div.group();
    let outputs = ctx.net.layers().last().map_or(0, Layer::out_features);
    div.count.clear();
    div.count.resize(run.members.len(), 0);
    div.delta.resize(run.members.len() * outputs, 0);
    let distinct = div.reps.len();
    let last = ell + 1 == ctx.net.layers().len();
    if last {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a flip count is bounded by the output tensor volume"
        )]
        for &r in &div.reps {
            let flips = flips_of(&div.flips, &div.spans, r);
            let delta = &mut div.delta[r * outputs..(r + 1) * outputs];
            delta.fill(0);
            for &p in flips {
                delta[p % outputs] += if gold.out[p] == 0.0 { 1 } else { -1 };
            }
            div.count[r] = flips.len() as u32;
        }
    }
    laps.end(Phase::Compare);
    let swept = if last { 0 } else { distinct };
    for start in (0..swept).step_by(LANES) {
        let block = start..distinct.min(start + LANES);
        let shift = usize::from(block.len() < LANES);
        gold.broadcast(&mut scratch.words);
        for (j, &r) in scratch.div.reps[block.clone()].iter().enumerate() {
            for &p in scratch.div.of(r) {
                scratch.words[p] ^= 1u64 << (j + shift);
            }
        }
        laps.end(Phase::PackRun);
        let live = (u64::MAX >> (LANES - block.len())) << shift;
        downstream(ctx, run, k, block, live, scratch, laps);
    }

    // Every diverged member takes its representative's verdict of this
    // test.
    let div = &scratch.div;
    for (verdict, r) in verdicts.iter_mut().zip(&div.rep) {
        if let &Some(r) = r {
            verdict.update(&ctx.cfg, div.count[r], &div.delta[r * outputs..(r + 1) * outputs]);
        }
    }
    laps.end(Phase::Compare);
    (diverged, distinct)
}

/// The fault-layer stage of one member fault `fi` — any but a dense
/// weight, which [`dense_weights`] runs with the run's others: simulates
/// what the fault changes at its own layer under test `k` and reports the
/// flips. A weight fault's patched row goes to `patched`.
fn fault_stage(
    ctx: &Ctx<'_>,
    k: usize,
    fi: usize,
    gold: &Gold<'_>,
    patched: &mut Vec<f32>,
    s: &mut LaneScratch,
    sink: &mut Sink<'_>,
) {
    let ell = ctx.faults[fi].site.layer();
    // What the fault is, in the terms the simulator applies it in. The
    // injections were realized via `for_fault`, which rejects site/kind
    // mismatches before any run starts.
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
        (Injection::Weight { at, value }, _) => {
            let x = ctx.layer_input(k, ell);
            let (w, cols) = weight_rows(gold.layer, at.tensor);
            // The faulty weight is input `c` of neuron (or channel) `q`.
            let (q, c) = (at.offset / cols, at.offset % cols);
            patched.clear();
            patched.extend_from_slice(&w.as_slice()[q * cols..(q + 1) * cols]);
            patched[c] = *value;
            let row = &patched[..];
            match gold.layer {
                Layer::Conv(l) => {
                    let ic = c / (l.spec.kernel * l.spec.kernel);
                    conv_weight(x, l, gold, (q, ic, row), s, sink);
                }
                Layer::Recurrent(l) => {
                    let patch = Some(RowPatch { feedback: at.tensor != 0, row, c });
                    let site = RecurrentSite { q, forced: None, lif: *gold.lif, patch };
                    let w_rec_t = &ctx.transposed[ell].feedback;
                    recurrent_site(x, l, w_rec_t, gold, &site, s, sink);
                }
                Layer::Dense(_) => unreachable!("a run's dense weight members go together"),
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
            sink.flip(t, q);
        }
    }
}

/// Every dense weight member of the run under one test, 64 at a time:
/// member `j`'s neuron integrates, from rest, the drive of its patched row
/// over the layer's input `x`. The members' patched rows are transposed
/// into `[inputs × members]` — row `c` gathers input `c`'s weights of the
/// members' neurons from the layer's transposed weight, with each member's
/// faulty value in place — and a tick's drives are one
/// [`ops::matvec_skip_zeros`] of the input row with them: output `j` is
/// what the model's product over the patched layer computes for `j`'s
/// neuron. The members' neurons, all under the layer's constants, take one
/// [`LifParams::step_row`]. Each member's flips against the golden spikes
/// of its neuron set its bits in `flipped`.
fn dense_weights(ctx: &Ctx<'_>, run: &Run, x: &[f32], gold: &Gold<'_>, d: &mut DenseMembers) {
    let DenseMembers { members, rows_t, z, carried, refrac, spikes, flipped, .. } = d;
    let (n, words) = (gold.n, members.len().div_ceil(LANES));
    let (cols, wt) = (x.len() / gold.steps, &ctx.transposed[run.layer].input);
    flipped.clear();
    flipped.resize(gold.steps * words, 0);
    for (w, chunk) in members.chunks(LANES).enumerate() {
        let m = chunk.len();
        rows_t.resize(cols * m, 0.0);
        for (row, wt_c) in rows_t.chunks_exact_mut(m).zip(wt.chunks_exact(n)) {
            for (w, &(_, q)) in row.iter_mut().zip(chunk) {
                *w = wt_c[q];
            }
        }
        for (j, &(i, _)) in chunk.iter().enumerate() {
            if let Injection::Weight { at, value } = &ctx.injections[run.members[i]] {
                rows_t[at.offset % cols * m + j] = *value;
            }
        }
        let (z, carried, refrac, spikes) =
            (&mut z[..m], &mut carried[..m], &mut refrac[..m], &mut spikes[..m]);
        carried.fill(0.0);
        refrac.fill(0);
        for (t, x_t) in x.chunks_exact(cols).enumerate() {
            ops::matvec_skip_zeros(rows_t, x_t, z);
            gold.lif.step_row(carried, refrac, z, spikes, None);
            for (j, (&(_, q), s)) in chunk.iter().zip(spikes.iter()).enumerate() {
                if (*s != 0.0) != gold.spike(t, q) {
                    flipped[t * words + w] |= 1 << j;
                }
            }
        }
    }
}

/// Ticks of a conv weight fault's channel convolved per call: four of
/// the kernel's 16-tick blocks, so the input and drive buffers are this
/// many rows whatever the test length.
const CONV_TICKS: usize = 64;

/// A conv kernel weight `(oc, ic, ky, kx)`, whose patched kernel of
/// output channel `oc` is `w_oc`. Only channel `oc` can change, and only
/// through input channel `ic`: on a tick where `ic`'s plane is all zero
/// the patched product adds the same `±0.0` as the golden one, so the
/// recorded drive holds. The other ticks' input rows are gathered and
/// channel `oc`'s drive is what the scalar engine computes for it:
/// [`ops::conv2d`] on a one-channel spec with the kernel `w_oc`,
/// [`CONV_TICKS`] rows a call. Each tick of the channel — one set of LIF
/// parameters — is then stepped as a row.
fn conv_weight(
    x: &[f32],
    l: &snn_model::ConvLayer,
    gold: &Gold<'_>,
    (oc, ic, w_oc): (usize, usize, &[f32]),
    s: &mut LaneScratch,
    sink: &mut Sink<'_>,
) {
    let ((h, w), (oh, ow)) = (l.in_hw, l.out_hw());
    let one = Conv2dSpec { out_channels: 1, ..l.spec };
    let (pixels, base, in_features) = (oh * ow, oc * oh * ow, one.in_channels * h * w);
    let plane = ic * h * w..(ic + 1) * h * w;
    if *s.kernel.shape() != one.weight_shape() {
        s.kernel = Tensor::zeros(one.weight_shape());
    }
    s.kernel.as_mut_slice().copy_from_slice(w_oc);
    s.inputs.resize(CONV_TICKS * in_features, 0.0);
    s.drive.resize(CONV_TICKS * pixels, 0.0);
    let (carried, refrac) = (&mut s.carried[..pixels], &mut s.refrac[..pixels]);
    let spikes = &mut s.spikes[..pixels];
    carried.fill(0.0);
    refrac.fill(0);
    let mut t0 = 0;
    while t0 < gold.steps {
        // Ticks `t0..t1` hold the next (up to) `CONV_TICKS` live ones.
        s.ticks.clear();
        let mut t1 = t0;
        while t1 < gold.steps && s.ticks.len() < CONV_TICKS {
            let x_t = &x[t1 * in_features..(t1 + 1) * in_features];
            if x_t[plane.clone()].iter().any(|&v| v != 0.0) {
                let row = s.ticks.len() * in_features;
                s.inputs[row..row + in_features].copy_from_slice(x_t);
                s.ticks.push(t1);
            }
            t1 += 1;
        }
        let drive = &mut s.drive[..s.ticks.len() * pixels];
        ops::conv2d(&one, &s.inputs[..s.ticks.len() * in_features], h, w, &s.kernel, drive);
        let mut live = s.ticks.iter().zip(drive.chunks_exact(pixels)).peekable();
        for t in t0..t1 {
            let channel = t * gold.n + base..t * gold.n + base + pixels;
            let z = match live.next_if(|(&tick, _)| tick == t) {
                Some((_, z)) => z,
                None => &gold.rec.drive[channel.clone()],
            };
            gold.lif.step_row(carried, refrac, z, spikes, None);
            sink.flips(t, base, spikes, &gold.out[channel]);
        }
        t0 = t1;
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
                sink.flip(t, q);
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

/// Carries a block of representatives through the spiking layers behind
/// `run.layer`, stepping a layer's live lanes together as one [`Block`]
/// and leaving each representative's flip count and class deltas at the
/// last layer in `scratch.div`. The block is `scratch.div.reps[block]`,
/// representative `j` at lane `j`, shifted past a golden lane 0 when the
/// block is not full; `scratch.words` are the fault layer's output words,
/// `live` its diverged lanes.
fn downstream(
    ctx: &Ctx<'_>,
    run: &Run,
    k: usize,
    block: Range<usize>,
    mut live: u64,
    scratch: &mut Scratch,
    laps: &mut Laps,
) {
    let layers = ctx.net.layers();
    let Scratch { lane: lane_scratch, words, words_out, diffmask, block: lanes, div, .. } = scratch;
    let reps = &div.reps[block];
    let golden_lane = reps.len() < LANES;
    let shift = usize::from(golden_lane);
    let mut channels = conv_channels(ctx, run, reps, shift);

    // `src` is the spiking layer whose output the words hold; pooling
    // layers between it and the next spiking layer `d` carry no words.
    let mut src = run.layer;
    for d in run.layer + 1..layers.len() {
        if !layers[d].is_spiking() {
            continue;
        }
        let gin = ctx.gold(k, src);
        let gd = ctx.gold(k, d);
        let n_in = gin.n;

        // Which lanes' rows at `src` differ from the golden rows, and at
        // which ticks. Lanes with no divergent tick reconverged at the
        // previous layer — their remaining suffix is provably golden.
        let watched = live | u64::from(golden_lane);
        diffmask.clear();
        diffmask.extend((0..gd.steps).map(|t| {
            row_diff_mask(&words[t * n_in..(t + 1) * n_in], gin.row(gin.out, t), watched)
        }));
        // Exactly the lanes that reported flips differ — in particular
        // not the fault-free lane 0 of a block that reserves it.
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
        let one_channel = channels.take().map(|of_lane| (of_lane, ctx.layer_input(k, d)));
        let input = Input { src, words, n_in, live, diffmask, one_channel };
        let out = (!last).then_some(&mut words_out[..]);
        let next_live = lanes.run(ctx, d, &gd, &input, lane_scratch, out);
        if last {
            for (j, &lane) in lanes.lanes.iter().enumerate() {
                let r = reps[lane as usize - shift];
                div.count[r] = lanes.count[j];
                div.delta[r * gd.n..(r + 1) * gd.n]
                    .copy_from_slice(&lanes.delta[j * gd.n..(j + 1) * gd.n]);
            }
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

/// Per lane of a block at a conv fault layer, the one output channel in
/// which the lane can differ from golden: its representative's weight
/// fault's output channel, or its neuron fault's pixel's channel. `None`
/// at any other layer.
fn conv_channels(ctx: &Ctx<'_>, run: &Run, reps: &[usize], shift: usize) -> Option<[usize; 64]> {
    let layer = &ctx.net.layers()[run.layer];
    let Layer::Conv(l) = layer else { return None };
    let (pixels, cols) = (l.out_hw().0 * l.out_hw().1, weight_rows(layer, 0).1);
    let mut channels = [0; 64];
    for (j, &r) in reps.iter().enumerate() {
        channels[j + shift] = match ctx.faults[run.members[r]].site {
            FaultSite::Neuron { index, .. } => index / pixels,
            FaultSite::Synapse(at) => at.offset / cols,
        };
    }
    Some(channels)
}

/// The lanes' input to a spiking layer: the output words of the spiking
/// layer `src` before it, the `live` lanes whose rows there differ from
/// the golden rows, and per tick the lanes whose row does. When `src` is
/// a conv fault layer, `one_channel` holds per lane the channel it
/// differs in, and the golden input rows of the layer.
struct Input<'a> {
    src: usize,
    words: &'a [u64],
    n_in: usize,
    live: u64,
    diffmask: &'a [u64],
    one_channel: Option<([usize; 64], &'a [f32])>,
}

impl Input<'_> {
    /// The feed-forward drive of layer `d` at tick `t` for `lane`, whose
    /// input row differs from golden's there: its spike row at `src`,
    /// through the pooling layers in between and the layer's own input
    /// transform, with the bits the model's forward pass gives the same
    /// row, into `s.z`. A weight matrix is multiplied from its transposed
    /// copy, by the lane's spikes alone: straight off the words when the
    /// layer sits right behind `src`, and through
    /// [`ops::matvec_skip_zeros`] — the forward pass's own product — once
    /// pooling has made the row fractional. Pooling runs plane by plane,
    /// so a lane that differs in one channel takes the golden pooled row
    /// with that channel's plane re-pooled from its bits.
    fn drive(&self, ctx: &Ctx<'_>, d: usize, t: usize, lane: u32, s: &mut LaneScratch) {
        let layers = ctx.net.layers();
        let wt = &ctx.transposed[d].input;
        let z = &mut s.z[..layers[d].out_features()];
        let row_words = &self.words[t * self.n_in..(t + 1) * self.n_in];
        if self.src + 1 == d && !wt.is_empty() {
            lane_matvec(wt, row_words, lane, z);
            return;
        }
        let (row, pooled) = (&mut s.row, &mut s.pooled);
        let pools = &layers[self.src + 1..d];
        let x = if let (Some((channels, golden)), Some(Layer::Pool(first))) =
            (self.one_channel, pools.first())
        {
            let (c, mut width) = (channels[lane as usize], self.n_in / first.channels);
            unpack_lane(&row_words[c * width..(c + 1) * width], lane, &mut row[..width]);
            for pool in pools {
                let Layer::Pool(p) = pool else { unreachable!("only pooling sits between") };
                let out = width / (p.k * p.k);
                ops::avg_pool2d(&row[..width], 1, p.in_hw.0, p.in_hw.1, p.k, &mut pooled[..out]);
                std::mem::swap(row, pooled);
                width = out;
            }
            let n = layers[d - 1].out_features();
            pooled[..n].copy_from_slice(&golden[t * n..(t + 1) * n]);
            pooled[c * width..(c + 1) * width].copy_from_slice(&row[..width]);
            &pooled[..n]
        } else {
            let mut width = self.n_in;
            unpack_lane(row_words, lane, &mut row[..width]);
            for pool in pools {
                let out = pool.out_features();
                pool.feedforward(&row[..width], &mut pooled[..out]);
                std::mem::swap(row, pooled);
                width = out;
            }
            &row[..width]
        };
        if wt.is_empty() {
            layers[d].feedforward(x, z);
        } else {
            ops::matvec_skip_zeros(wt, x, z);
        }
    }
}

/// A block's live lanes at one spiking layer behind the fault, stepped
/// together: the layer's neuron state, drives and spikes for every lane,
/// lane-minor `[n × lanes]` — neuron `i`'s row holds lane after lane, in
/// ascending lane order. Every buffer is sized by the layer and the live
/// lane count of the step at hand and grows on demand.
#[derive(Default)]
struct Block {
    /// Column `j`'s bit lane.
    lanes: Vec<u32>,
    carried: Vec<f32>,
    refrac: Vec<u32>,
    z: Vec<f32>,
    spikes: Vec<f32>,
    /// At the output layer, per column: the flip count, and the
    /// per-class spike-count deltas (`[lanes × n]`).
    count: Vec<u32>,
    delta: Vec<i32>,
}

impl Block {
    /// Steps the live lanes through spiking layer `d`; returns the lanes
    /// whose output differs from golden's, whose flips went to `out` (the
    /// layer's output words) or, at the output layer, to `count`/`delta`.
    ///
    /// The block enters at the first tick any live lane's input diverges,
    /// in the recorded pre-tick state: before its own first divergent tick
    /// a lane's inputs are golden, so it steps the recorded drives from the
    /// recorded state and stays on the record (exact resume). A tick
    /// broadcasts the recorded drive and redoes only an off-record lane's
    /// column — input row diverged ([`Input::drive`]; else the recorded
    /// feed-forward half), plus a recurrent layer's feedback, recomputed
    /// from the lane's own previous spikes while they differ from golden's
    /// — then steps the block with one [`LifParams::step_row`] (the layer's
    /// neurons share their parameters) and compares each neuron row with
    /// its golden spike by one or-folded xor, scanning only a row that
    /// differs.
    fn run(
        &mut self,
        ctx: &Ctx<'_>,
        d: usize,
        gd: &Gold<'_>,
        input: &Input<'_>,
        s: &mut LaneScratch,
        mut out: Option<&mut [u64]>,
    ) -> u64 {
        let (n, steps, rec) = (gd.n, gd.steps, gd.rec);
        let Some(t0) = input.diffmask.iter().position(|&mask| mask != 0) else {
            // The lanes are live because their words differ from golden
            // somewhere.
            unreachable!("live lanes without a divergent tick")
        };
        self.lanes.clear();
        self.lanes.extend((0..64u32).filter(|lane| (input.live >> lane) & 1 == 1));
        let m = self.lanes.len();
        for v in [&mut self.carried, &mut self.z, &mut self.spikes] {
            v.resize(n * m, 0.0);
        }
        self.refrac.resize(n * m, 0);
        for (i, (c, r)) in
            self.carried.chunks_exact_mut(m).zip(self.refrac.chunks_exact_mut(m)).enumerate()
        {
            c.fill(rec.carried_pre[t0 * n + i]);
            r.fill(rec.refrac_pre[t0 * n + i]);
        }
        if out.is_none() {
            self.count.clear();
            self.count.resize(m, 0);
            self.delta.clear();
            self.delta.resize(m * n, 0);
        }
        let w_rec_t = Some(&ctx.transposed[d].feedback).filter(|wt| !wt.is_empty());
        let mut next_live = 0u64;
        // The lanes whose own spikes of the previous tick differ from
        // golden's; a recurrent layer feeds them back.
        let mut prev_differs = 0u64;

        for t in t0..steps {
            for (zi, &g) in self.z.chunks_exact_mut(m).zip(gd.row(&rec.drive, t)) {
                zi.fill(g);
            }
            let feedback = w_rec_t.filter(|_| t > 0);
            let mut off = input.diffmask[t];
            if feedback.is_some() {
                off |= prev_differs;
            }
            while off != 0 {
                let lane = off.trailing_zeros();
                off &= off - 1;
                let j = self.lanes.partition_point(|&l| l < lane);
                if (input.diffmask[t] >> lane) & 1 == 1 {
                    input.drive(ctx, d, t, lane, s);
                } else {
                    s.z[..n].copy_from_slice(gd.row(&rec.feedforward, t));
                }
                if let Some(w_rec_t) = feedback {
                    let own = (prev_differs >> lane) & 1 == 1;
                    if own {
                        for (p, row) in s.prev[..n].iter_mut().zip(self.spikes.chunks_exact(m)) {
                            *p = row[j];
                        }
                        ops::matvec_skip_zeros(w_rec_t, &s.prev[..n], &mut s.fb[..n]);
                    }
                    let fb = if own { &s.fb[..n] } else { gd.row(&rec.feedback, t) };
                    for (zi, ri) in s.z[..n].iter_mut().zip(fb) {
                        *zi += ri;
                    }
                }
                for (row, &zi) in self.z.chunks_exact_mut(m).zip(&s.z[..n]) {
                    row[j] = zi;
                }
            }
            gd.lif.step_row(&mut self.carried, &mut self.refrac, &self.z, &mut self.spikes, None);

            // Both sides hold exact `0.0`/`1.0`: a neuron row without a
            // flip xors to zero in every lane.
            prev_differs = 0;
            for (q, (row, g)) in self.spikes.chunks_exact(m).zip(gd.row(gd.out, t)).enumerate() {
                let g = g.to_bits();
                if row.iter().fold(0, |acc, s| acc | (s.to_bits() ^ g)) == 0 {
                    continue;
                }
                for (j, s) in row.iter().enumerate() {
                    if s.to_bits() == g {
                        continue;
                    }
                    let (lane, fired) = (self.lanes[j], s.to_bits() != 0);
                    prev_differs |= 1 << lane;
                    match out.as_deref_mut() {
                        Some(words) => set_lane_bit(&mut words[t * n + q], lane, fired),
                        None => {
                            self.count[j] += 1;
                            self.delta[j * n + q] += if fired { 1 } else { -1 };
                        }
                    }
                }
            }
            next_live |= prev_differs;
        }
        next_live
    }
}
