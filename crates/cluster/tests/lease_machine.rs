//! In-process exercises of the coordinator's lease state machine:
//! expiry → re-issue under a bumped epoch, the exactly-once result gate,
//! heartbeat extension, parked lease requests, shutdown and cancellation.
//!
//! No TCP, no worker processes — these tests play the worker role by
//! calling the coordinator directly, using short real-time leases with
//! wide margins.

#![expect(clippy::unwrap_used, reason = "test-only shorthand")]

use snn_cluster::coordinator::{
    CampaignProgress, ClusterError, Coordinator, CoordinatorConfig, Grant,
};
use snn_cluster::wire::{CampaignSpec, ChunkOutcomes, ModelSpec};
use snn_faults::progress::CancelToken;
use snn_faults::{FaultOutcome, FaultSimConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Far longer than any of these tests waits: a parked `grant` that comes
/// back sooner was woken, not timed out.
const NEVER_MS: u64 = 60_000;
/// How long a woken call may take to come back on a loaded machine.
const PROMPT: Duration = Duration::from_secs(10);

/// A campaign over the fault ids `0..faults`. The coordinator never
/// materializes the payload — only workers do — so a nominal spec is
/// enough here.
fn spec(faults: usize) -> CampaignSpec {
    CampaignSpec {
        id: 0,
        model: ModelSpec::Synthetic { inputs: 3, hidden: vec![4], outputs: 2, seed: 7 },
        events: vec!["# snn-mtfc test: 1 ticks x 3 features, 1 chunks\n0 0\n".into()],
        sim: FaultSimConfig::default(),
        faults,
        reliability: None,
    }
}

fn coordinator(chunk_size: usize, lease_ms: u64) -> Coordinator {
    Coordinator::new(CoordinatorConfig { chunk_size, lease_ms, heartbeat_ms: 20, idle_retry_ms: 5 })
}

/// A coordinator whose lease requests park for `idle_retry_ms`, and a
/// thread already asking it for work as `worker` (again after every
/// `Idle`, as a worker does). The thread reports on the channel just
/// before it calls `grant`; the pause after that gives it time to park
/// (a test that loses this race still passes — it just exercises the
/// unparked path).
fn parked_grant(
    lease_ms: u64,
    idle_retry_ms: u64,
    worker: &'static str,
) -> (Arc<Coordinator>, std::thread::JoinHandle<Grant>) {
    let coord = Arc::new(Coordinator::new(CoordinatorConfig {
        chunk_size: 2,
        lease_ms,
        heartbeat_ms: 20,
        idle_retry_ms,
    }));
    coord.hello(worker);
    let (asking, asked) = std::sync::mpsc::channel();
    let handle = {
        let coord = Arc::clone(&coord);
        std::thread::spawn(move || {
            asking.send(()).unwrap();
            loop {
                match coord.grant(worker) {
                    Grant::Idle { .. } => {}
                    answer => return answer,
                }
            }
        })
    };
    asked.recv().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    (coord, handle)
}

#[test]
fn a_parked_grant_gets_its_lease_when_a_campaign_is_submitted() {
    let (coord, parked) = parked_grant(5000, NEVER_MS, "w1");
    let submitted = Instant::now();
    coord.submit(spec(3), None);
    let Grant::Lease(grant) = parked.join().unwrap() else { panic!("expected a lease") };
    assert!(submitted.elapsed() < PROMPT, "woken by submit, not by the {NEVER_MS} ms bound");
    assert_eq!(grant.chunk.range(), 0..2);
    let held = coord.status().workers[0].lease.expect("the parked worker now holds the lease");
    assert_eq!(held.lease, grant.lease);
}

#[test]
fn a_parked_grant_answers_idle_once_the_bound_passes() {
    let coord = Coordinator::new(CoordinatorConfig {
        chunk_size: 2,
        lease_ms: 5000,
        heartbeat_ms: 20,
        idle_retry_ms: 60,
    });
    coord.hello("w1");
    let asked = Instant::now();
    assert_eq!(coord.grant("w1"), Grant::Idle { retry_ms: 60 });
    assert!(asked.elapsed() >= Duration::from_millis(60), "parked for the whole bound");
}

#[test]
fn shutdown_wakes_a_parked_grant() {
    let (coord, parked) = parked_grant(5000, NEVER_MS, "w1");
    let stopped = Instant::now();
    coord.shutdown();
    assert_eq!(parked.join().unwrap(), Grant::Shutdown);
    assert!(stopped.elapsed() < PROMPT, "woken by shutdown, not by the {NEVER_MS} ms bound");
}

/// A worker whose connection drops while its lease request is parked
/// swallows the grant that request eventually gets. Nothing releases
/// that chunk early: it comes back by lease expiry, like the chunk of a
/// worker that dies mid-simulation.
#[test]
fn a_grant_swallowed_by_a_vanished_worker_costs_one_lease_period() {
    let lease = Duration::from_millis(200);
    // The server's own short bound: every `Idle` turns into a fresh
    // request, and a fresh request sweeps for expired leases.
    let (coord, ghost) = parked_grant(200, 20, "ghost");
    coord.hello("w2");
    let submitted = Instant::now();
    let campaign = coord.submit(spec(6), None);
    let Grant::Lease(swallowed) = ghost.join().unwrap() else { panic!("expected a lease") };

    let live = {
        let coord = Arc::clone(&coord);
        std::thread::spawn(move || loop {
            match coord.grant("w2") {
                Grant::Lease(g) => {
                    let rows = fake_outcomes(g.chunk.range());
                    assert!(coord.result(
                        "w2",
                        g.lease,
                        campaign,
                        g.chunk.index,
                        g.epoch,
                        rows,
                        None
                    ));
                }
                Grant::Idle { .. } => {}
                Grant::Shutdown => return,
            }
        })
    };
    let merged = coord.wait(campaign, &CancelToken::new(), |_| {}).unwrap();
    let took = submitted.elapsed();
    coord.shutdown();
    live.join().unwrap();

    assert_eq!(merged, fake_rows(0..6), "verdicts are exact despite the lost grant");
    assert!(took >= lease, "the swallowed chunk waited for its lease to expire ({took:?})");
    assert!(took < lease + PROMPT, "and for nothing else ({took:?})");
    let status = coord.status();
    assert_eq!(status.chunks_reissued, 1, "only chunk {} ran twice", swallowed.chunk.index);
    assert_eq!(status.results_stale, 0);
    assert_eq!(status.chunks_completed, 3);
}

fn fake_rows(ids: std::ops::Range<usize>) -> Vec<FaultOutcome> {
    ids.map(|id| FaultOutcome {
        fault_id: id,
        detected: id % 2 == 0,
        distance: id as f32 * 0.5,
        class_diff: None,
    })
    .collect()
}

fn fake_outcomes(ids: std::ops::Range<usize>) -> ChunkOutcomes {
    ChunkOutcomes::from_rows(fake_rows(ids))
}

#[test]
fn idle_until_a_campaign_arrives() {
    let coord = coordinator(4, 5000);
    coord.hello("w1");
    assert!(matches!(coord.grant("w1"), Grant::Idle { .. }));
    coord.submit(spec(3), None);
    assert!(matches!(coord.grant("w1"), Grant::Lease(_)));
}

#[test]
fn expired_lease_is_reissued_under_a_bumped_epoch_and_stale_results_bounce() {
    let coord = coordinator(4, 80);
    coord.hello("w1");
    coord.hello("w2");
    let campaign = coord.submit(spec(10), None);

    let Grant::Lease(first) = coord.grant("w1") else { panic!("expected a lease") };
    assert_eq!(first.epoch, 0);
    assert_eq!(first.chunk.range(), 0..4);

    // Let the lease rot well past its deadline, then hand out work again:
    // the same chunk comes back first, under a new lease and epoch 1.
    std::thread::sleep(Duration::from_millis(300));
    let Grant::Lease(second) = coord.grant("w2") else { panic!("expected a re-issue") };
    assert_eq!(second.chunk.index, first.chunk.index, "expired chunk is re-issued first");
    assert_eq!(second.epoch, 1, "re-issue bumps the epoch");
    assert_ne!(second.lease, first.lease, "re-issue gets a fresh lease id");

    // The presumed-dead worker limps home: its result must be discarded.
    let stale = coord.result(
        "w1",
        first.lease,
        campaign,
        first.chunk.index,
        first.epoch,
        fake_outcomes(first.chunk.range()),
        None,
    );
    assert!(!stale, "stale (lease, epoch) results are rejected");

    // The live lease's result lands.
    let fresh = coord.result(
        "w2",
        second.lease,
        campaign,
        second.chunk.index,
        second.epoch,
        fake_outcomes(second.chunk.range()),
        None,
    );
    assert!(fresh, "live results are accepted");

    let status = coord.status();
    assert_eq!(status.results_stale, 1);
    assert!(status.chunks_reissued >= 1);
    assert_eq!(status.chunks_completed, 1);
}

#[test]
fn heartbeats_keep_a_slow_lease_alive() {
    let coord = coordinator(8, 150);
    coord.hello("w1");
    let campaign = coord.submit(spec(8), None);
    let Grant::Lease(grant) = coord.grant("w1") else { panic!("expected a lease") };

    // Simulate a slow chunk: 6 × 60 ms ≫ the 150 ms lease, kept alive by
    // heartbeats.
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(60));
        assert!(coord.heartbeat("w1", grant.lease), "heartbeat extends a live lease");
    }
    assert!(coord.result(
        "w1",
        grant.lease,
        campaign,
        grant.chunk.index,
        grant.epoch,
        fake_outcomes(grant.chunk.range()),
        None,
    ));
    assert!(!coord.heartbeat("w1", grant.lease), "a completed lease no longer beats");
    assert_eq!(coord.status().chunks_reissued, 0, "no expiry happened");
}

/// Columns that do not each hold one entry per leased fault bounce as
/// stale; the lease stays live, so the campaign can still complete.
#[test]
fn wrong_length_results_are_rejected() {
    let coord = coordinator(4, 5000);
    coord.hello("w1");
    let campaign = coord.submit(spec(4), None);
    let Grant::Lease(grant) = coord.grant("w1") else { panic!("expected a lease") };
    let good = fake_outcomes(grant.chunk.range());

    let fewer_rows = fake_outcomes(0..2);
    let more_rows = fake_outcomes(0..5);
    let mut short_distance = good.clone();
    short_distance.distance.pop();
    let mut long_detected = good.clone();
    long_detected.detected.push(true);
    let mut short_diffs = good.clone();
    short_diffs.class_diff = Some(vec![None; 3]);
    let malformed = [fewer_rows, more_rows, short_distance, long_detected, short_diffs];
    let bounced = malformed.len() as u64;
    for bad in malformed {
        let (lease, chunk, epoch) = (grant.lease, grant.chunk.index, grant.epoch);
        assert!(!coord.result("w1", lease, campaign, chunk, epoch, bad, None));
    }
    assert_eq!(coord.status().results_stale, bounced);
    assert_eq!(coord.status().chunks_leased, 1, "a bounced result does not end the lease");

    assert!(coord.result("w1", grant.lease, campaign, grant.chunk.index, grant.epoch, good, None));
    let merged = coord.wait(campaign, &CancelToken::new(), |_| {}).unwrap();
    assert_eq!(merged, fake_rows(grant.chunk.range()));
}

/// The coordinator stamps accepted outcomes with the ids it leased, so a
/// result cannot speak for a fault outside its chunk: rows a worker built
/// for the ids 0..3 and sent under the lease of chunk 4..7 are the
/// outcomes of 4, 5 and 6.
#[test]
fn accepted_outcomes_carry_the_leased_ids_not_the_senders() {
    let coord = coordinator(4, 5000);
    coord.hello("w1");
    let campaign = coord.submit(spec(7), None);
    let Grant::Lease(first) = coord.grant("w1") else { panic!("expected a lease") };
    let rows = fake_outcomes(first.chunk.range());
    assert!(coord.result("w1", first.lease, campaign, 0, first.epoch, rows, None));
    let Grant::Lease(g) = coord.grant("w1") else { panic!("expected a lease") };
    assert_eq!(g.chunk.range(), 4..7);
    let relabelled = fake_outcomes(0..3);
    assert!(coord.result("w1", g.lease, campaign, g.chunk.index, g.epoch, relabelled, None));
    let merged = coord.wait(campaign, &CancelToken::new(), |_| {}).unwrap();
    assert_eq!(merged.iter().map(|o| o.fault_id).collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
    let sent: Vec<bool> = fake_rows(0..3).iter().map(|o| o.detected).collect();
    assert_eq!(merged[4..].iter().map(|o| o.detected).collect::<Vec<_>>(), sent);
}

/// Chunks last a millisecond or two, so busy time must not be rounded
/// down to whole milliseconds chunk by chunk.
#[test]
fn busy_time_accumulates_below_a_millisecond() {
    let coord = coordinator(1, 5000);
    coord.hello("w1");
    let campaign = coord.submit(spec(20), None);
    while let Grant::Lease(g) = coord.grant("w1") {
        std::thread::sleep(Duration::from_micros(300));
        let rows = fake_outcomes(g.chunk.range());
        assert!(coord.result("w1", g.lease, campaign, g.chunk.index, g.epoch, rows, None));
    }
    let busy_ms = coord.status().workers[0].busy_ms;
    assert!(busy_ms >= 6, "20 chunks of at least 0.3 ms each, got {busy_ms} ms");
}

#[test]
fn completed_campaign_merges_in_fault_list_order() {
    let coord = coordinator(3, 5000);
    coord.hello("w1");
    let campaign = coord.submit(spec(10), None);

    // Merge order is fault-list order, not arrival order. A single
    // worker cannot drain the queue out of chunk order through grant()
    // (it hands chunks in order), but results can arrive in any order;
    // complete them reversed.
    let mut grants = Vec::new();
    while let Grant::Lease(g) = coord.grant("w1") {
        grants.push(g);
    }
    assert_eq!(grants.len(), 4, "10 faults at chunk size 3 = 4 chunks");
    for g in grants.iter().rev() {
        assert!(coord.result(
            "w1",
            g.lease,
            campaign,
            g.chunk.index,
            g.epoch,
            fake_outcomes(g.chunk.range()),
            None
        ));
    }

    let mut seen = Vec::new();
    let merged =
        coord.wait(campaign, &CancelToken::new(), |p: CampaignProgress| seen.push(p)).unwrap();
    let got: Vec<usize> = merged.iter().map(|o| o.fault_id).collect();
    assert_eq!(got, (0..10).collect::<Vec<_>>(), "merged outcomes follow fault-list order");
    assert_eq!(merged, fake_rows(0..10), "verdicts survive the round trip");

    let status = coord.status();
    assert_eq!(status.campaigns_active, 0, "waited campaigns are retired");
    let w1 = &status.workers[0];
    assert_eq!(w1.chunks_completed, 4);
}

#[test]
fn empty_campaign_completes_immediately() {
    let coord = coordinator(4, 5000);
    let campaign = coord.submit(spec(0), None);
    let merged = coord.wait(campaign, &CancelToken::new(), |_| {}).unwrap();
    assert!(merged.is_empty());
}

#[test]
fn waiting_on_an_unknown_campaign_is_a_typed_error() {
    let coord = coordinator(4, 5000);
    let err = coord.wait(42, &CancelToken::new(), |_| {}).unwrap_err();
    assert_eq!(err, ClusterError::UnknownCampaign { campaign: 42 });
}

#[test]
fn cancellation_aborts_a_wait() {
    let coord = coordinator(4, 5000);
    let campaign = coord.submit(spec(4), None);
    let cancel = CancelToken::new();
    cancel.cancel();
    let err = coord.wait(campaign, &cancel, |_| {}).unwrap_err();
    assert_eq!(err, ClusterError::Cancelled);
}

#[test]
fn shutdown_reaches_waiters_and_workers() {
    let coord = std::sync::Arc::new(coordinator(4, 5000));
    let campaign = coord.submit(spec(4), None);
    let waiter = {
        let coord = std::sync::Arc::clone(&coord);
        std::thread::spawn(move || coord.wait(campaign, &CancelToken::new(), |_| {}))
    };
    std::thread::sleep(Duration::from_millis(50));
    coord.shutdown();
    assert_eq!(waiter.join().unwrap().unwrap_err(), ClusterError::Shutdown);
    coord.hello("w1");
    assert!(matches!(coord.grant("w1"), Grant::Shutdown));
}

#[test]
fn wait_for_workers_reports_the_shortfall() {
    let coord = coordinator(4, 5000);
    coord.hello("only-one");
    let err =
        coord.wait_for_workers(3, &CancelToken::new(), Duration::from_millis(80)).unwrap_err();
    assert_eq!(err, ClusterError::WorkersUnavailable { expected: 3, seen: 1 });
    coord.hello("two");
    coord.hello("three");
    coord.wait_for_workers(3, &CancelToken::new(), Duration::from_millis(80)).unwrap();
}

#[test]
fn progress_reports_are_monotonic_while_chunks_land() {
    let coord = std::sync::Arc::new(coordinator(2, 5000));
    coord.hello("w1");
    let campaign = coord.submit(spec(6), None);
    let worker = {
        let coord = std::sync::Arc::clone(&coord);
        std::thread::spawn(move || {
            while let Grant::Lease(g) = coord.grant("w1") {
                std::thread::sleep(Duration::from_millis(30));
                assert!(coord.result(
                    "w1",
                    g.lease,
                    campaign,
                    g.chunk.index,
                    g.epoch,
                    fake_outcomes(g.chunk.range()),
                    None
                ));
            }
        })
    };
    let mut seen: Vec<CampaignProgress> = Vec::new();
    let merged = coord.wait(campaign, &CancelToken::new(), |p| seen.push(p)).unwrap();
    worker.join().unwrap();
    assert_eq!(merged.len(), 6);
    assert!(!seen.is_empty());
    assert!(seen.windows(2).all(|w| w[0].done <= w[1].done), "progress never regresses");
    assert!(seen.iter().all(|p| p.total == 6));
}
