//! The packed engine — bit-packed fault-parallel simulation: fault plan →
//! lane assignment → packed differential run.
//!
//! A detection campaign asks one question per (fault, test) pair: does
//! the faulty output spike train differ from the fault-free one? The
//! scalar engine answers it by re-simulating the network once per fault.
//! This module answers it for up to 64 faults at once, and for each of
//! them *differentially*: the fault-free ("golden") run is simulated once
//! per test by the model's own forward pass, which records its drives
//! and pre-tick states; a fault variant reuses those wherever it still
//! equals the golden run and redoes arithmetic only where it does not.
//! Variants travel between layers as bit *lanes* inside `u64` spike
//! words; at each layer behind the fault the lanes that actually diverge
//! share one `[neurons × lanes]` block of `f32` state, stepped together
//! from the first tick any of them diverges.
//!
//! Behind its fault a diverged lane costs what diverged: a drive is read
//! from the golden record on the ticks where nothing it depends on
//! differs, and is otherwise the sum of the transposed weight's columns
//! at the lane's spikes (the transposed copies are made once per
//! campaign); a tick of a layer is one vectorisable
//! [`LifParams::step_row`](snn_model::LifParams::step_row) over the
//! block and one folded comparison per neuron row with the golden spike;
//! the buffers belong to the worker thread, not to the lane; and the
//! phase clock is read per pack and layer.
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
//! [`detect`] is what [`FaultSimulator::detect_with`] runs under
//! [`Engine::Packed`](crate::Engine::Packed): it plans the packs, runs
//! them and returns outcomes **bit-identical** to the scalar engine's —
//! same per-fault detection flags, distances, class diffs and therefore
//! the same [`verdict_digest`](crate::verdict_digest). Cluster chunking
//! and reliability campaigns ride on top unchanged.
//!
//! [`FaultSimulator::detect_with`]: crate::FaultSimulator::detect_with

mod pack;
pub(crate) mod plan;

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::sim::{self, Campaign};
use crate::{parallel, Cancelled, FaultOutcome, Progress};
use snn_model::Layer;
use snn_obs::phase::LocalPhases;
use snn_tensor::ops;

use pack::{as_u64, Golden};

/// The packed campaign: plan → one golden forward per test →
/// lane-parallel pack fan-out, one progress event per pack. A plan that
/// leaves anything to the fallback — a network whose output is not
/// spikes, or a fault addressed to a layer without neurons — hands the
/// whole campaign to the scalar engine.
pub(crate) fn detect(c: &Campaign<'_>) -> Result<Vec<FaultOutcome>, Cancelled> {
    let Campaign { net, cfg, faults, tests, .. } = *c;
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
        snn_obs::counter!(
            "snn_batch_scalar_fallback_faults_total",
            "Faults the packed engine handed to the scalar fallback."
        )
        .add(as_u64(plan.fallback.len()));
        return sim::detect_reference(c);
    }

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
    // Column-major weight copies for the layers a diverged lane is
    // carried through — every matrix behind the first fault layer — and
    // for a fault layer's own weight members: a dense layer's weight, and
    // a recurrent layer's feedback matrix.
    let transposed: Vec<pack::Transposed> = (net.layers().iter().enumerate())
        .map(|(idx, layer)| match layer {
            Layer::Dense(l) if idx >= first_fault_layer => {
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
        injections: c.injections,
        tests,
        golden: &golden,
    };
    let pack_outcomes = parallel::try_map_indexed(
        plan.packs.len(),
        cfg.threads,
        c.cancel,
        || pack::Scratch::new(net),
        |scratch, pi| {
            let pk = &plan.packs[pi];
            let outcomes = pack::run_pack(&ctx, pk, scratch);
            let det = outcomes.iter().filter(|o| o.detected).count();
            let detected = detected_total.fetch_add(det, Ordering::Relaxed) + det;
            let done_now = done.fetch_add(pk.members.len(), Ordering::Relaxed) + pk.members.len();
            c.sink.emit(Progress::FaultsSimulated {
                done: done_now,
                total: faults.len(),
                detected,
            });
            outcomes
        },
    )?;
    snn_obs::phase::faultsim().merge(&campaign_local);
    let mut per_fault: Vec<Option<FaultOutcome>> = Vec::new();
    per_fault.resize_with(faults.len(), || None);
    for (pk, outcomes) in plan.packs.iter().zip(pack_outcomes) {
        for (&fi, o) in pk.members.iter().zip(outcomes) {
            per_fault[fi] = Some(o);
        }
    }
    Ok(per_fault
        .into_iter()
        // snn-lint: allow(L-PANIC): with an empty fallback the plan assigns every fault index to exactly one pack
        .map(|o| o.expect("every fault assigned to a pack"))
        .collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only shorthand
mod tests {
    use crate::{
        verdict_digest, CampaignError, CampaignOutcome, CancelToken, Engine, Fault, FaultKind,
        FaultSimConfig, FaultSimulator, FaultUniverse, NullSink, Progress, ProgressSink,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, Network, NetworkBuilder};
    use snn_tensor::{Shape, Tensor};
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

    fn detect(
        net: &Network,
        cfg: FaultSimConfig,
        u: &FaultUniverse,
        faults: &[Fault],
        tests: &[Tensor],
        sink: &dyn ProgressSink,
        cancel: &CancelToken,
    ) -> Result<CampaignOutcome, CampaignError> {
        FaultSimulator::new(net, cfg).detect_with(u, faults, tests, sink, cancel)
    }

    fn assert_engines_agree(net: &Network, cfg_extra: impl Fn(FaultSimConfig) -> FaultSimConfig) {
        let u = FaultUniverse::standard(net);
        let tests = tests_for(net, 7, 3);
        let cancel = CancelToken::new();
        let scalar =
            detect(net, cfg_extra(scalar_cfg()), &u, u.faults(), &tests, &NullSink, &cancel)
                .unwrap();
        let packed =
            detect(net, cfg_extra(packed_cfg()), &u, u.faults(), &tests, &NullSink, &cancel)
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
    fn packed_matches_scalar_with_class_diffs() {
        assert_engines_agree(&dense_net(12), |c| FaultSimConfig { record_class_diffs: true, ..c });
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
    fn ill_formed_fault_is_a_typed_error() {
        let net = dense_net(3);
        let u = FaultUniverse::standard(&net);
        let neuron_site =
            u.faults().iter().find(|f| f.kind == FaultKind::NeuronDead).copied().unwrap();
        let bad = Fault { kind: FaultKind::SynapseDead, ..neuron_site };
        let tests = tests_for(&net, 4, 1);
        let err = detect(&net, packed_cfg(), &u, &[bad], &tests, &NullSink, &CancelToken::new())
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
        let err =
            detect(&net, packed_cfg(), &u, u.faults(), &tests, &NullSink, &cancel).unwrap_err();
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
            detect(&net, packed_cfg(), &u, u.faults(), &tests, &sink, &CancelToken::new()).unwrap();
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
