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
//! * **Fault-layer stage** — per lane, redo at layer `ℓ` only what the
//!   fault can change, on golden drives wherever they still hold:
//!   one neuron column for a neuron fault or a dense weight fault, one
//!   output channel for a conv kernel weight (re-accumulating only the
//!   windows whose tapped input pixel carries traffic), and for a
//!   recurrent layer the faulty neuron alone until its spikes leave the
//!   golden train, then the whole layer for as long as it stays off it.
//!   A lane without flips is resolved right here: undetected by this
//!   test.
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
//! # Bit-exactness
//!
//! Verdicts must be bit-identical to the scalar engine's (the chunk
//! `verdict_digest` is gated on it):
//!
//! * **same step function** — every membrane update is
//!   [`LifParams::step`], the update the model's own forward pass runs,
//!   and the golden drives and pre-tick states are records *of* that
//!   forward pass ([`Network::forward_golden`](snn_model::Network::forward_golden));
//! * **exact-zero reuse** — a drive is recomputed by the function the
//!   model computes it with ([`Layer::feedforward`], `matvec`,
//!   [`conv2d_window`]) or by [`lane_row_dot`] / [`row_dot`], bitwise
//!   equal to `matvec` rows; it is reused where every input the fault
//!   touches is an exact zero, whose products never move an accumulator
//!   (see `snn_tensor::packed`);
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

use snn_faults::{
    provably_undetectable, ActivitySummary, Fault, FaultOutcome, FaultSimConfig, FaultSite,
    Injection,
};
use snn_model::{Layer, LifParams, LifRecord, Network, RecurrentLayer, Trace};
use snn_obs::clock::monotonic;
use snn_obs::phase::{LocalPhases, Phase};
use snn_tensor::ops::{self, conv2d_window};
use snn_tensor::packed::{
    broadcast_row, lane_row_dot, row_diff_mask, row_dot, set_lane_bit, unpack_lane,
};
use snn_tensor::Tensor;

use crate::plan::Pack;

/// The fault-free run of one test input: the baseline trace plus the
/// per-layer records the model's forward pass kept for reuse.
pub(crate) struct Golden {
    pub trace: Trace,
    pub lif: Vec<Option<LifRecord>>,
}

/// Read-only campaign state shared by every pack run.
pub(crate) struct Ctx<'a> {
    pub net: &'a Network,
    pub cfg: FaultSimConfig,
    pub faults: &'a [Fault],
    pub injections: &'a [Injection],
    pub tests: &'a [Tensor],
    /// Golden run per test input.
    pub golden: &'a [Golden],
    /// Per-test activity summaries; empty unless `cfg.activity_filter`.
    pub activity: &'a [ActivitySummary],
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
        // snn-lint: allow(L-FLOATEQ): spikes are exact 0.0/1.0 values
        self.out[t * self.n + q] != 0.0
    }

    /// Tick `t`'s row of a `[T × n]` record.
    fn row<'b, V>(&self, data: &'b [V], t: usize) -> &'b [V] {
        &data[t * self.n..(t + 1) * self.n]
    }

    fn row_mut<'b, V>(&self, data: &'b mut [V], t: usize) -> &'b mut [V] {
        &mut data[t * self.n..(t + 1) * self.n]
    }

    /// The layer's output words with the golden row in every lane.
    fn broadcast(&self, local: &mut LocalPhases) -> Vec<u64> {
        let run_started = monotonic();
        let mut words = vec![0u64; self.steps * self.n];
        for t in 0..self.steps {
            broadcast_row(self.row(self.out, t), self.row_mut(&mut words, t));
        }
        local.add(Phase::PackRun, monotonic().saturating_sub(run_started));
        words
    }

    /// The part of the golden drive that depends on the layer's input
    /// alone: all of it, except in a recurrent layer.
    fn feedforward(&self) -> &[f32] {
        if self.rec.feedforward.is_empty() {
            &self.rec.drive
        } else {
            &self.rec.feedforward
        }
    }
}

/// Where a lane's flips at one layer go.
enum Sink<'a> {
    /// The output layer: the flips are the verdict.
    Verdict { count: u32, delta: Vec<i32> },
    /// An inner layer: the flips set the lane's bit in the layer's output
    /// words, which hold the golden row in every lane.
    Words { words: &'a mut [u64], n: usize, lane: u32, any: bool },
}

impl<'a> Sink<'a> {
    /// A lane's sink at a layer of `n` neurons: into the layer's output
    /// `words`, or — the output layer has none — a verdict.
    fn new(words: Option<&'a mut [u64]>, n: usize, lane: u32) -> Self {
        match words {
            Some(words) => Sink::Words { words, n, lane, any: false },
            None => Sink::Verdict { count: 0, delta: vec![0; n] },
        }
    }

    /// Closes the lane's sink: `true` when the lane leaves an inner layer
    /// diverged; an output-layer sink folds into the lane's `verdict`.
    fn finish(
        self,
        cfg: &FaultSimConfig,
        verdict: &mut LaneVerdict,
        local: &mut LocalPhases,
    ) -> bool {
        match self {
            Sink::Words { any, .. } => any,
            Sink::Verdict { count, delta } => {
                let compare_started = monotonic();
                verdict.update(cfg, count, &delta);
                local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
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

/// Runs one pack over every test input, returning per-member outcomes in
/// member order. Phase accounting is recorded into a pack-local scratch
/// and folded into the process-wide accumulator via `merge_pack`, which
/// scales *counts* (not nanoseconds) by the lane width so per-fault
/// normalization stays meaningful.
pub(crate) fn run_pack(ctx: &Ctx<'_>, pack: &Pack) -> Vec<FaultOutcome> {
    let mut pack_span = snn_obs::span!("batch.pack");
    pack_span.attr("layer", pack.layer);
    pack_span.attr("lanes", pack.lanes());
    let pack_started = monotonic();
    let mut local = LocalPhases::new();
    let mut verdicts: Vec<LaneVerdict> = Vec::new();
    verdicts.resize_with(pack.members.len(), LaneVerdict::default);

    for k in 0..ctx.tests.len() {
        run_test(ctx, pack, k, &mut verdicts, &mut local);
    }

    let pack_elapsed = monotonic().saturating_sub(pack_started);
    local.add(Phase::Fault, pack_elapsed);
    let members = pack.members.len();
    let detected = verdicts.iter().filter(|v| v.detected).count();
    snn_obs::counter!("snn_batch_packs_total", "Packs executed by the packed engine.").inc();
    snn_obs::counter!("snn_batch_lanes_total", "Fault variants simulated in packed lanes.")
        .add(as_u64(members));
    snn_faults::record_faults_simulated(as_u64(members));
    if detected > 0 {
        snn_faults::record_faults_detected(as_u64(detected));
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

/// Sweeps the pack under test input `k`.
fn run_test(
    ctx: &Ctx<'_>,
    pack: &Pack,
    k: usize,
    verdicts: &mut [LaneVerdict],
    local: &mut LocalPhases,
) {
    let ell = pack.layer;
    let gold = ctx.gold(k, ell);
    let n = gold.n;
    let last = ell == ctx.net.layers().len() - 1;
    let testable = |fi: usize| {
        !(ctx.cfg.activity_filter
            && provably_undetectable(ctx.net, &ctx.activity[k], &ctx.faults[fi]))
    };

    // Layer ℓ's output words: golden rows broadcast to every lane, then
    // each lane's flips applied by its fault-layer stage. A lane without
    // flips equals the golden run everywhere and is resolved; at the
    // output layer there are no words and the flips are the verdict.
    let mut words = (!last).then(|| gold.broadcast(local));
    let mut live = 0u64;
    for (i, &fi) in pack.members.iter().enumerate() {
        if testable(fi) {
            let lane = pack.lane(i);
            let mut sink = Sink::new(words.as_deref_mut(), n, lane);
            fault_stage(ctx, k, fi, &gold, &mut sink, local);
            live |= u64::from(sink.finish(&ctx.cfg, &mut verdicts[i], local)) << lane;
        }
    }
    if let (Some(words), true) = (words, live != 0) {
        downstream(ctx, pack, k, words, live, verdicts, local);
    }
}

/// The fault-layer stage: simulates what member fault `fi` changes at its
/// own layer under test `k` and reports the flips.
fn fault_stage(
    ctx: &Ctx<'_>,
    k: usize,
    fi: usize,
    gold: &Gold<'_>,
    sink: &mut Sink<'_>,
    local: &mut LocalPhases,
) {
    let ell = ctx.faults[fi].site.layer();
    let started = monotonic();
    // Building a patched weight row counts as injection, the rest as
    // forward simulation of the fault layer.
    let mut forward_started = started;
    let mut patched_row = |w: &Tensor, offset: usize, value: f32| {
        let cols = w.shape().dim(1);
        let (q, c) = (offset / cols, offset % cols);
        let mut row = w.as_slice()[q * cols..(q + 1) * cols].to_vec();
        row[c] = value;
        forward_started = monotonic();
        local.add(Phase::Inject, forward_started.saturating_sub(started));
        (q, c, row)
    };
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
                    recurrent_site(ctx.layer_input(k, ell), l, gold, &site, sink);
                }
                // A feed-forward neuron's drive does not depend on its own
                // behaviour: the golden drive column under other constants,
                // and no synaptic arithmetic at all.
                _ => {
                    column(gold, index, forced, &lif, |t| gold.rec.drive[t * gold.n + index], sink)
                }
            }
        }
        (Injection::Weight { at, value }, _) => {
            let x = ctx.layer_input(k, ell);
            match gold.layer {
                Layer::Dense(l) => {
                    let (q, c, patched) = patched_row(&l.weight, at.offset, *value);
                    let cols = patched.len();
                    let drive = |t: usize| {
                        let x_t = &x[t * cols..(t + 1) * cols];
                        // z reuse: when input feature c carries no traffic
                        // this tick, the old and new products at c are both
                        // exact zeroes, which never change the accumulator
                        // (see snn_tensor::packed), so the patched row's dot
                        // product is bitwise the stored golden drive. This
                        // also covers fractional (pooled) inputs — an average
                        // of zero spikes is exactly +0.0.
                        // snn-lint: allow(L-FLOATEQ): exact-zero traffic test; spikes and their averages are exact values
                        if x_t[c] != 0.0 {
                            row_dot(&patched, x_t)
                        } else {
                            gold.rec.drive[t * gold.n + q]
                        }
                    };
                    column(gold, q, None, gold.lif, drive, sink);
                }
                Layer::Conv(l) => conv_weight(x, l, gold, at.offset, *value, sink),
                Layer::Recurrent(l) => {
                    let w = if at.tensor == 0 { &l.w_in } else { &l.w_rec };
                    let (q, c, row) = patched_row(w, at.offset, *value);
                    let patch = Some(RowPatch { feedback: at.tensor != 0, row, c });
                    let site = RecurrentSite { q, forced: None, lif: *gold.lif, patch };
                    recurrent_site(x, l, gold, &site, sink);
                }
                Layer::Pool(_) => unreachable!("pooling layers have no weights to fault"),
            }
        }
        (Injection::Neuron(_), FaultSite::Synapse(_)) => {
            unreachable!("neuron injection at a synapse site")
        }
    }
    local.add_forward(ell, monotonic().saturating_sub(forward_started));
}

/// Neuron `q` alone, from rest, over the whole run: forced to a constant
/// output, or integrating `drive(t)` under `lif`.
fn column(
    gold: &Gold<'_>,
    q: usize,
    forced: Option<bool>,
    lif: &LifParams,
    mut drive: impl FnMut(usize) -> f32,
    sink: &mut Sink<'_>,
) {
    let (mut carried, mut refrac) = (0.0f32, 0u32);
    for t in 0..gold.steps {
        let fired = forced.unwrap_or_else(|| lif.step(&mut carried, &mut refrac, drive(t)).fired);
        if fired != gold.spike(t, q) {
            sink.flip(t, q, fired);
        }
    }
}

/// A conv kernel weight `(oc, ic, ky, kx)` holding `value`: only channel
/// `oc` can change, and at a given tick only the output pixels whose
/// tapped input pixel is non-zero — every other window's golden drive is
/// reused (exact-zero products; taps in the padding are skipped by the
/// kernel altogether).
fn conv_weight(
    x: &[f32],
    l: &snn_model::ConvLayer,
    gold: &Gold<'_>,
    offset: usize,
    value: f32,
    sink: &mut Sink<'_>,
) {
    let (spec, (h, w), (oh, ow)) = (&l.spec, l.in_hw, l.out_hw());
    let k = spec.kernel;
    let per_channel = spec.in_channels * k * k;
    let (oc, tap) = (offset / per_channel, offset % per_channel);
    let (ic, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
    let mut w_oc = l.weight.as_slice()[oc * per_channel..(oc + 1) * per_channel].to_vec();
    w_oc[tap] = value;

    let (pixels, base, in_features) = (oh * ow, oc * oh * ow, spec.in_channels * h * w);
    // Input index each output pixel reads through the faulty weight.
    let tapped: Vec<Option<usize>> = (0..pixels)
        .map(|p| Some((ic * h + spec.tap(p / ow, ky, h)?) * w + spec.tap(p % ow, kx, w)?))
        .collect();
    let mut carried = vec![0.0f32; pixels];
    let mut refrac = vec![0u32; pixels];
    for t in 0..gold.steps {
        let x_t = &x[t * in_features..(t + 1) * in_features];
        for p in 0..pixels {
            let q = base + p;
            // snn-lint: allow(L-FLOATEQ): exact-zero traffic test; spikes and their averages are exact values
            let z = if tapped[p].is_some_and(|j| x_t[j] != 0.0) {
                conv2d_window(spec, x_t, h, w, &w_oc, p / ow, p % ow)
            } else {
                gold.rec.drive[t * gold.n + q]
            };
            let fired = gold.lif.step(&mut carried[p], &mut refrac[p], z).fired;
            if fired != gold.spike(t, q) {
                sink.flip(t, q, fired);
            }
        }
    }
}

/// One patched row of a recurrent layer's `W_in` or (`feedback`) `W_rec`.
struct RowPatch {
    feedback: bool,
    /// The faulty neuron's weight row with the faulty value at `c`.
    row: Vec<f32>,
    c: usize,
}

/// A fault at neuron `q` of a recurrent layer: other constants or a
/// forced output, or one patched weight in `q`'s row.
struct RecurrentSite {
    q: usize,
    forced: Option<bool>,
    lif: LifParams,
    patch: Option<RowPatch>,
}

/// A recurrent-site fault. While the lane's spikes equal the golden ones
/// every neuron but `q` is on the golden trajectory by construction, so
/// only `q` is stepped, on golden feed-forward and feedback sums (its own
/// patched row redone where the patched input carries traffic). Once a
/// spike differs, the others leave the trajectory through the feedback:
/// they resume from the recorded state of the next tick and the whole
/// layer is stepped, `W_rec · s[t−1]` recomputed on the ticks whose
/// previous spikes differ from golden's — until spikes and state are
/// back on the record, and `q` runs alone again.
fn recurrent_site(
    x: &[f32],
    l: &RecurrentLayer,
    gold: &Gold<'_>,
    site: &RecurrentSite,
    sink: &mut Sink<'_>,
) {
    let (n, steps, rec, q) = (gold.n, gold.steps, gold.rec, site.q);
    let in_features = l.w_in.shape().dim(1);
    // Lane-private state: `q`'s always, the others' while `desynced`.
    let mut carried = vec![0.0f32; n];
    let mut refrac = vec![0u32; n];
    let mut desynced = false;
    // The lane's spikes of the previous tick, kept while they differ from
    // the golden ones (`prev_differs`, which implies `desynced`).
    let mut prev = vec![0.0f32; n];
    let mut prev_differs = false;
    let mut fb = vec![0.0f32; n];

    for t in 0..steps {
        if desynced {
            if prev_differs {
                ops::matvec(&l.w_rec, &prev, &mut fb);
            } else {
                fb.copy_from_slice(gold.row(&rec.feedback, t));
            }
        } else {
            fb[q] = rec.feedback[t * n + q];
        }
        let mut ff_q = rec.feedforward[t * n + q];
        if let Some(patch) = &site.patch {
            // Exact-zero reuse, as for a dense row: the patched sum is
            // redone only where the patched input carries traffic.
            // snn-lint: allow(L-FLOATEQ): exact-zero traffic test; spikes and their averages are exact values
            let live = |row: &[f32]| row[patch.c] != 0.0;
            if !patch.feedback {
                let x_t = &x[t * in_features..(t + 1) * in_features];
                if live(x_t) {
                    ff_q = row_dot(&patch.row, x_t);
                }
            } else if t > 0 {
                let prev_t = if prev_differs { &prev[..] } else { gold.row(gold.out, t - 1) };
                if live(prev_t) {
                    fb[q] = row_dot(&patch.row, prev_t);
                }
            }
        }
        // The two halves are rounded separately and then added, like the
        // model's recurrent drive; there is no feedback on the first tick.
        let drive = |ff: f32, fb: f32| if t > 0 { ff + fb } else { ff };

        let fired_q = site.forced.unwrap_or_else(|| {
            site.lif.step(&mut carried[q], &mut refrac[q], drive(ff_q, fb[q])).fired
        });
        let mut row_differs = fired_q != gold.spike(t, q);
        if row_differs {
            sink.flip(t, q, fired_q);
        }
        if desynced {
            for i in 0..n {
                let fired = if i == q {
                    fired_q
                } else {
                    let z = drive(rec.feedforward[t * n + i], fb[i]);
                    gold.lif.step(&mut carried[i], &mut refrac[i], z).fired
                };
                prev[i] = f32::from(u8::from(fired));
                if i != q && fired != gold.spike(t, i) {
                    sink.flip(t, i, fired);
                    row_differs = true;
                }
            }
        } else if row_differs {
            prev.copy_from_slice(gold.row(gold.out, t));
            prev[q] = f32::from(u8::from(fired_q));
        }
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
/// `words` are the fault layer's output words, `live` its diverged lanes.
fn downstream(
    ctx: &Ctx<'_>,
    pack: &Pack,
    k: usize,
    mut words: Vec<u64>,
    mut live: u64,
    verdicts: &mut [LaneVerdict],
    local: &mut LocalPhases,
) {
    let layers = ctx.net.layers();
    let member_shift = usize::from(pack.golden_lane);
    // Per-lane rows on the way from `src` to the next spiking layer.
    let widest = layers.iter().map(Layer::out_features).max().unwrap_or(0);
    let mut rows = (vec![0.0f32; widest], vec![0.0f32; widest]);

    // `src` is the spiking layer whose output the words hold; pooling
    // layers between it and the next spiking layer `d` carry no words.
    let mut src = pack.layer;
    for d in pack.layer + 1..layers.len() {
        if !layers[d].is_spiking() {
            continue;
        }
        let gin = ctx.gold(k, src);
        let gd = ctx.gold(k, d);
        let (steps, n_in, n_d) = (gd.steps, gin.n, gd.n);

        // Which lanes' rows at `src` differ from the golden rows, and at
        // which ticks. Lanes with no divergent tick reconverged at the
        // previous layer — their remaining suffix is provably golden.
        let compare_started = monotonic();
        let mut diffmask = vec![0u64; steps];
        let mut union = 0u64;
        let watched = live | u64::from(pack.golden_lane);
        for (t, mask) in diffmask.iter_mut().enumerate() {
            *mask = row_diff_mask(&words[t * n_in..(t + 1) * n_in], gin.row(gin.out, t), watched);
            union |= *mask;
        }
        local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
        // Exactly the lanes that reported flips differ — in particular
        // not the fault-free lane 0 of a pack that reserves it.
        debug_assert_eq!(union, live, "golden self-check lane diverged, or a lane lost its flips");

        let last = d == layers.len() - 1;
        let mut words_out = (!last).then(|| gd.broadcast(local));
        let mut next_live = 0u64;
        let mut rest = live;
        while rest != 0 {
            let lane = rest.trailing_zeros();
            rest &= rest - 1;
            let member = lane as usize - member_shift;
            let mut sink = Sink::new(words_out.as_deref_mut(), n_d, lane);
            let forward_started = monotonic();
            let input = LaneInput { src, words: &words, n_in, lane, diffmask: &diffmask };
            lane_layer(ctx.net, d, &gd, &input, &mut rows, &mut sink);
            local.add_forward(d, monotonic().saturating_sub(forward_started));
            next_live |= u64::from(sink.finish(&ctx.cfg, &mut verdicts[member], local)) << lane;
        }

        live = next_live;
        match words_out {
            Some(words_out) if live != 0 => words = words_out,
            _ => return,
        }
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
    /// the layer's own input transform — the functions the model's
    /// forward pass chains. A dense layer right behind `src` dots its
    /// weight rows with the lane's bits in place.
    fn drive(
        &self,
        net: &Network,
        d: usize,
        t: usize,
        rows: &mut (Vec<f32>, Vec<f32>),
        z: &mut [f32],
    ) {
        let layers = net.layers();
        let row_words = &self.words[t * self.n_in..(t + 1) * self.n_in];
        if let (Layer::Dense(l), true) = (&layers[d], self.src + 1 == d) {
            let wd = l.weight.as_slice();
            for (q, zq) in z.iter_mut().enumerate() {
                *zq = lane_row_dot(&wd[q * self.n_in..(q + 1) * self.n_in], row_words, self.lane);
            }
            return;
        }
        let (row, pooled) = rows;
        let mut width = self.n_in;
        unpack_lane(row_words, self.lane, &mut row[..width]);
        for pool in &layers[self.src + 1..d] {
            let out = pool.out_features();
            pool.feedforward(&row[..width], &mut pooled[..out]);
            std::mem::swap(row, pooled);
            width = out;
        }
        layers[d].feedforward(&row[..width], z);
    }
}

/// Materializes one lane through spiking layer `d` from its first
/// divergent input tick `t0`: before `t0` the lane's input rows are
/// golden, so its state *entering* `t0` is exactly the recorded golden
/// pre-tick state. The feed-forward drive comes from the golden record
/// on non-divergent ticks and from [`LaneInput::drive`] otherwise; a
/// recurrent layer adds its feedback, golden while the lane's own
/// previous spikes are.
fn lane_layer(
    net: &Network,
    d: usize,
    gd: &Gold<'_>,
    input: &LaneInput<'_>,
    rows: &mut (Vec<f32>, Vec<f32>),
    sink: &mut Sink<'_>,
) {
    let (n, steps, rec) = (gd.n, gd.steps, gd.rec);
    let Some(t0) = (0..steps).find(|&t| input.diverges(t)) else {
        // A lane is live because its words differ from golden somewhere.
        unreachable!("live lane without a divergent tick")
    };
    let w_rec = match gd.layer {
        Layer::Recurrent(l) => Some(&l.w_rec),
        _ => None,
    };
    let mut carried = gd.row(&rec.carried_pre, t0).to_vec();
    let mut refrac = gd.row(&rec.refrac_pre, t0).to_vec();
    let mut z = vec![0.0f32; n];
    // Recurrent layers: the lane's own previous spikes, while they differ
    // from the golden ones.
    let feedback_width = if w_rec.is_some() { n } else { 0 };
    let mut prev = vec![0.0f32; feedback_width];
    let mut fb = vec![0.0f32; feedback_width];
    let mut prev_differs = false;

    for t in t0..steps {
        if input.diverges(t) {
            input.drive(net, d, t, rows, &mut z);
        } else {
            // The lane's input row is golden this tick, so this half of
            // its drive is the golden one — bitwise (same function over
            // the same spikes).
            z.copy_from_slice(gd.row(gd.feedforward(), t));
        }
        if let (Some(w_rec), true) = (w_rec, t > 0) {
            if prev_differs {
                ops::matvec(w_rec, &prev, &mut fb);
            }
            let fb = if prev_differs { &fb[..] } else { gd.row(&rec.feedback, t) };
            for (zi, ri) in z.iter_mut().zip(fb) {
                *zi += ri;
            }
        }
        prev_differs = false;
        for q in 0..n {
            let fired = gd.lif.step(&mut carried[q], &mut refrac[q], z[q]).fired;
            if fired != gd.spike(t, q) {
                sink.flip(t, q, fired);
                prev_differs = true;
            }
            if let Some(p) = prev.get_mut(q) {
                *p = f32::from(u8::from(fired));
            }
        }
    }
}
