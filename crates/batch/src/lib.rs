//! Bit-packed fault-parallel simulation: fault plan → lane assignment →
//! packed differential run.
//!
//! A detection campaign asks one question per (fault, test) pair: does
//! the faulty output spike train differ from the fault-free one? The
//! scalar engine answers it by re-simulating the network once per fault.
//! This crate answers it for up to 64 faults at once, and for each of
//! them *differentially*: the fault-free ("golden") run is simulated once
//! per test by the model's own forward pass, which records its drives
//! and pre-tick states; a fault variant reuses those wherever it still
//! equals the golden run and redoes arithmetic only where it does not.
//! Variants travel between layers as bit *lanes* inside `u64` spike
//! words — per-lane `f32` state is materialized lazily, only for lanes
//! that actually diverge, and only from their first divergent tick.
//!
//! Behind its fault a diverged lane costs what diverged: a drive is read
//! from the golden record on the ticks where nothing it depends on
//! differs, and is otherwise the sum of the transposed weight's columns
//! at the lane's spikes (the transposed copies are made once per
//! campaign); a tick of a layer is one vectorisable
//! [`LifParams::step_row`](snn_model::LifParams::step_row) and one
//! folded comparison with the golden row; the buffers belong to the
//! worker thread, not to the lane; and the phase clock is read per pack
//! and layer.
//!
//! The pipeline:
//!
//! 1. [`plan`] — group the fault list by fault layer into *packs* of
//!    ≤ 64 variants. Every fault of every spiking layer kind (dense,
//!    conv, recurrent) is packable as long as the network's last layer
//!    is spiking; otherwise the list is the scalar engine's;
//! 2. lane assignment — each pack member gets a bit lane, with lane 0
//!    reserved as a fault-free self-check in non-full packs;
//! 3. packed run — per pack, per test: a per-site fault-layer stage
//!    yields each lane's divergence from the golden spikes at the fault
//!    layer, then the layers behind it are swept lane-parallel.
//!
//! [`engine_detect`] is the drop-in campaign entry point: it resolves
//! the configured [`Engine`], runs the packs and returns a
//! [`CampaignOutcome`] **bit-identical** to
//! [`FaultSimulator::detect_with`] — same per-fault detection flags,
//! distances, class diffs and therefore the same
//! [`verdict_digest`](snn_faults::verdict_digest). Cluster chunking,
//! collapsed-universe expansion and reliability campaigns ride on top
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pack;
pub mod plan;

use std::sync::atomic::{AtomicUsize, Ordering};

use snn_faults::{
    parallel, ActivitySummary, CampaignError, CampaignOutcome, CancelToken, Engine, Fault,
    FaultOutcome, FaultSimConfig, FaultSimulator, FaultUniverse, Injection, InjectionError,
    Progress, ProgressSink,
};
use snn_model::{Layer, Network};
use snn_obs::clock::monotonic;
use snn_obs::phase::LocalPhases;
use snn_tensor::{ops, Tensor};

use pack::{as_u64, Golden};

pub use plan::{dense_suffix_start, FaultPlan, Pack};

/// Resolves a requested engine against the network: [`Engine::Auto`]
/// (and `None`) picks [`Engine::Packed`] when the network's last layer is
/// spiking — the packed sweep reads its verdict off binary output spikes
/// and then takes every fault — and [`Engine::Scalar`] otherwise. Never
/// returns `Auto`.
pub fn resolve_engine(net: &Network, requested: Option<Engine>) -> Engine {
    match requested.unwrap_or(Engine::Auto) {
        Engine::Auto => {
            if net.layers().last().is_some_and(Layer::is_spiking) {
                Engine::Packed
            } else {
                Engine::Scalar
            }
        }
        explicit => explicit,
    }
}

/// Runs a detection campaign under the engine configured in
/// `cfg.engine` (resolved via [`resolve_engine`]). The outcome is
/// bit-identical to [`FaultSimulator::detect_with`] whichever engine
/// runs — the packed path is an execution strategy, not a semantics
/// change.
///
/// # Panics
///
/// Panics if `tests` is empty (matching the scalar engine).
///
/// # Errors
///
/// [`CampaignError::Injection`] for an ill-formed fault (before any
/// simulation), [`CampaignError::Cancelled`] once `cancel` trips.
pub fn engine_detect(
    net: &Network,
    cfg: FaultSimConfig,
    universe: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
    sink: &dyn ProgressSink,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    match resolve_engine(net, cfg.engine) {
        Engine::Scalar => scalar_detect(net, cfg, universe, faults, tests, sink, cancel),
        _ => packed_detect(net, cfg, universe, faults, tests, sink, cancel),
    }
}

/// The reference engine.
fn scalar_detect(
    net: &Network,
    cfg: FaultSimConfig,
    universe: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
    sink: &dyn ProgressSink,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    let cfg = FaultSimConfig { engine: Some(Engine::Scalar), ..cfg };
    FaultSimulator::new(net, cfg).detect_with(universe, faults, tests, sink, cancel)
}

/// The packed campaign: plan → one golden forward per test →
/// lane-parallel pack fan-out. Observable behaviour (spans, counters,
/// progress stream shape, error order) mirrors the scalar `detect_with`.
fn packed_detect(
    net: &Network,
    cfg: FaultSimConfig,
    universe: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
    sink: &dyn ProgressSink,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    assert!(!tests.is_empty(), "detection campaign needs at least one test input");
    let mut campaign_span = snn_obs::span!("faultsim.campaign");
    campaign_span.attr("faults", faults.len());
    let start = monotonic();

    // Campaign-level phase scratch: planning and lane assignment land
    // here and merge into the process accumulator at the end.
    let mut campaign_local = LocalPhases::new();
    let plan = {
        let mut plan_span = snn_obs::span!("batch.plan");
        let threads = parallel::effective_threads(cfg.threads);
        let plan = plan::plan(net, faults, threads, &mut campaign_local);
        plan_span.attr("packs", plan.packs.len());
        plan_span.attr("fallback", plan.fallback.len());
        plan
    };
    if !plan.fallback.is_empty() {
        // A network whose output is not spikes (or a fault addressed to a
        // layer without neurons): the reference engine runs the campaign.
        snn_obs::counter!(
            "snn_batch_scalar_fallback_faults_total",
            "Faults the packed engine handed to the scalar fallback."
        )
        .add(as_u64(plan.fallback.len()));
        return scalar_detect(net, cfg, universe, faults, tests, sink, cancel);
    }

    // Realize every fault up front so ill-formed ones are rejected
    // before any simulation work starts (typed, like the scalar path).
    let injections: Vec<Injection> = faults
        .iter()
        .map(|f| Injection::for_fault(net, universe, f))
        .collect::<Result<_, InjectionError>>()?;

    let phases = snn_obs::phase::faultsim();
    let phases_before = phases.snapshot();

    // The one golden forward per test: the baseline every verdict is
    // against and, from the first fault layer on, the records every pack
    // reuses.
    let baseline_span = snn_obs::span!("faultsim.baseline");
    let first_fault_layer = plan.packs.first().map_or(0, |pk| pk.layer);
    let golden: Vec<Golden> = tests
        .iter()
        .map(|t| {
            let (trace, lif) = net.forward_golden(t, first_fault_layer);
            Golden { trace, lif }
        })
        .collect();
    let activity: Vec<ActivitySummary> = if cfg.activity_filter {
        tests.iter().zip(&golden).map(|(t, g)| ActivitySummary::new(net, t, &g.trace)).collect()
    } else {
        Vec::new()
    };
    // Column-major weight copies for the layers a diverged lane is
    // carried through: every matrix behind the first fault layer, and a
    // recurrent fault layer's own feedback matrix.
    let transposed: Vec<pack::Transposed> = (net.layers().iter().enumerate())
        .map(|(idx, layer)| match layer {
            Layer::Dense(l) if idx > first_fault_layer => {
                pack::Transposed { input: ops::transposed(&l.weight), feedback: Vec::new() }
            }
            Layer::Recurrent(l) if idx >= first_fault_layer => pack::Transposed {
                input: if idx > first_fault_layer { ops::transposed(&l.w_in) } else { Vec::new() },
                feedback: ops::transposed(&l.w_rec),
            },
            _ => pack::Transposed::default(),
        })
        .collect();
    drop(baseline_span);

    let done = AtomicUsize::new(0);
    let detected_total = AtomicUsize::new(0);
    let ctx = pack::Ctx {
        net,
        transposed: &transposed,
        cfg,
        faults,
        injections: &injections,
        tests,
        golden: &golden,
        activity: &activity,
    };
    let pack_outcomes = parallel::try_map_indexed(
        plan.packs.len(),
        cfg.threads,
        cancel,
        || pack::Scratch::new(net),
        |scratch, pi| {
            let pk = &plan.packs[pi];
            let outcomes = pack::run_pack(&ctx, pk, scratch);
            let det = outcomes.iter().filter(|o| o.detected).count();
            let detected = detected_total.fetch_add(det, Ordering::Relaxed) + det;
            let done_now = done.fetch_add(pk.members.len(), Ordering::Relaxed) + pk.members.len();
            sink.emit(Progress::FaultsSimulated { done: done_now, total: faults.len(), detected });
            outcomes
        },
    )?;
    let mut per_fault: Vec<Option<FaultOutcome>> = Vec::new();
    per_fault.resize_with(faults.len(), || None);
    for (pk, outcomes) in plan.packs.iter().zip(pack_outcomes) {
        for (&fi, o) in pk.members.iter().zip(outcomes) {
            per_fault[fi] = Some(o);
        }
    }
    let per_fault: Vec<FaultOutcome> = per_fault
        .into_iter()
        // snn-lint: allow(L-PANIC): with an empty fallback the plan assigns every fault index to exactly one pack
        .map(|o| o.expect("every fault assigned to a pack"))
        .collect();

    phases.merge(&campaign_local);
    let elapsed = monotonic().saturating_sub(start);
    if let Some(parent) = campaign_span.id() {
        let delta = phases.snapshot().delta_since(&phases_before);
        snn_obs::phase::emit_spans(&delta, Some(parent));
    }
    campaign_span.attr("detected", detected_total.load(Ordering::Relaxed));
    Ok(CampaignOutcome { per_fault, elapsed })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only shorthand
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_faults::{verdict_digest, FaultKind, NullSink};
    use snn_model::{LifParams, NetworkBuilder};
    use snn_tensor::Shape;
    use std::sync::Mutex;

    fn dense_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(10)
            .dense(4)
            .build(&mut rng)
    }

    fn tests_for(net: &Network, seed: u64, count: usize) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                snn_tensor::init::bernoulli(&mut rng, Shape::d2(16, net.input_features()), 0.4)
            })
            .collect()
    }

    fn scalar_cfg() -> FaultSimConfig {
        FaultSimConfig { threads: 1, engine: Some(Engine::Scalar), ..FaultSimConfig::default() }
    }

    fn packed_cfg() -> FaultSimConfig {
        FaultSimConfig { threads: 1, engine: Some(Engine::Packed), ..FaultSimConfig::default() }
    }

    fn assert_engines_agree(net: &Network, cfg_extra: impl Fn(FaultSimConfig) -> FaultSimConfig) {
        let u = FaultUniverse::standard(net);
        let tests = tests_for(net, 7, 3);
        let cancel = CancelToken::new();
        let scalar =
            engine_detect(net, cfg_extra(scalar_cfg()), &u, u.faults(), &tests, &NullSink, &cancel)
                .unwrap();
        let packed =
            engine_detect(net, cfg_extra(packed_cfg()), &u, u.faults(), &tests, &NullSink, &cancel)
                .unwrap();
        assert_eq!(scalar.per_fault.len(), packed.per_fault.len());
        for (s, p) in scalar.per_fault.iter().zip(packed.per_fault.iter()) {
            assert_eq!(s.fault_id, p.fault_id);
            assert_eq!(s.detected, p.detected, "fault {}", s.fault_id);
            assert_eq!(s.distance.to_bits(), p.distance.to_bits(), "fault {}", s.fault_id);
            assert_eq!(s.class_diff, p.class_diff, "fault {}", s.fault_id);
        }
        assert_eq!(verdict_digest(&scalar.per_fault), verdict_digest(&packed.per_fault));
    }

    #[test]
    fn packed_matches_scalar_on_a_dense_network() {
        assert_engines_agree(&dense_net(11), |c| c);
    }

    #[test]
    fn packed_matches_scalar_with_class_diffs_and_activity_filter() {
        assert_engines_agree(&dense_net(12), |c| FaultSimConfig {
            record_class_diffs: true,
            activity_filter: true,
            ..c
        });
    }

    #[test]
    fn packed_matches_scalar_on_conv_pool_and_recurrent_sites() {
        let mut rng = StdRng::seed_from_u64(13);
        let conv = NetworkBuilder::new_spatial(1, 6, 6, LifParams::default())
            .conv(2, 3, 1, 1)
            .avg_pool(2)
            .dense(5)
            .build(&mut rng);
        assert_engines_agree(&conv, |c| FaultSimConfig { record_class_diffs: true, ..c });
        let recurrent =
            NetworkBuilder::new(6, LifParams::default()).recurrent(7).dense(4).build(&mut rng);
        assert_engines_agree(&recurrent, |c| FaultSimConfig { record_class_diffs: true, ..c });
    }

    #[test]
    fn a_network_ending_in_a_pool_runs_on_the_scalar_engine_whole() {
        let mut rng = StdRng::seed_from_u64(14);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .avg_pool(2)
            .build(&mut rng);
        assert_engines_agree(&net, |c| c);
    }

    #[test]
    fn auto_resolution_follows_the_last_layer() {
        let dense = dense_net(1);
        assert_eq!(resolve_engine(&dense, None), Engine::Packed);
        assert_eq!(resolve_engine(&dense, Some(Engine::Auto)), Engine::Packed);
        assert_eq!(resolve_engine(&dense, Some(Engine::Scalar)), Engine::Scalar);
        let mut rng = StdRng::seed_from_u64(2);
        let spatial = || NetworkBuilder::new_spatial(1, 4, 4, LifParams::default());
        // Any spiking last layer will do — conv and recurrent included.
        let conv = spatial().avg_pool(2).conv(2, 3, 1, 1).build(&mut rng);
        assert_eq!(resolve_engine(&conv, None), Engine::Packed);
        let recurrent = NetworkBuilder::new(5, LifParams::default()).recurrent(3).build(&mut rng);
        assert_eq!(resolve_engine(&recurrent, None), Engine::Packed);
        let pooled = spatial().conv(2, 3, 1, 1).avg_pool(2).build(&mut rng);
        assert_eq!(resolve_engine(&pooled, None), Engine::Scalar);
        assert_eq!(resolve_engine(&pooled, Some(Engine::Packed)), Engine::Packed);
    }

    #[test]
    fn ill_formed_fault_is_a_typed_error() {
        let net = dense_net(3);
        let u = FaultUniverse::standard(&net);
        let neuron_site =
            u.faults().iter().find(|f| f.kind == FaultKind::NeuronDead).copied().unwrap();
        let bad = Fault { kind: FaultKind::SynapseDead, ..neuron_site };
        let tests = tests_for(&net, 4, 1);
        let err =
            engine_detect(&net, packed_cfg(), &u, &[bad], &tests, &NullSink, &CancelToken::new())
                .unwrap_err();
        assert!(matches!(err, CampaignError::Injection(_)));
    }

    #[test]
    fn pre_cancelled_campaign_reports_cancelled() {
        let net = dense_net(5);
        let u = FaultUniverse::standard(&net);
        let tests = tests_for(&net, 6, 1);
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = engine_detect(&net, packed_cfg(), &u, u.faults(), &tests, &NullSink, &cancel)
            .unwrap_err();
        assert!(matches!(err, CampaignError::Cancelled));
    }

    #[test]
    fn progress_stream_covers_the_whole_campaign() {
        let net = dense_net(8);
        let u = FaultUniverse::standard(&net);
        let tests = tests_for(&net, 9, 2);
        let events = Mutex::new(Vec::new());
        let sink = |p: Progress| events.lock().unwrap().push(p);
        let outcome =
            engine_detect(&net, packed_cfg(), &u, u.faults(), &tests, &sink, &CancelToken::new())
                .unwrap();
        let events = events.into_inner().unwrap();
        let final_detected = events
            .iter()
            .filter_map(|e| match e {
                Progress::FaultsSimulated { done, total, detected } => {
                    assert_eq!(*total, u.len());
                    (*done == u.len()).then_some(*detected)
                }
                _ => None,
            })
            .next_back();
        assert_eq!(final_detected, Some(outcome.detected_count()));
    }
}
