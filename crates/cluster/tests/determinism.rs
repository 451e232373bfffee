//! Satellite property: distributed campaigns are bit-identical to the
//! single-process path — merged coverage and per-fault verdicts match
//! bitwise across worker counts 0/1/2/4 and chunk sizes 1/7/64.
//!
//! Workers here are in-process threads playing the wire-free coordinator
//! API (grant → payload → run_chunk → result), each materializing its
//! own [`PreparedCampaign`] exactly as a worker process would.

#![expect(clippy::unwrap_used, reason = "test-only shorthand")]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_cluster::coordinator::{Coordinator, CoordinatorConfig, Grant};
use snn_cluster::wire::{CampaignSpec, ChunkOutcomes, ModelSpec};
use snn_cluster::{build_model, PreparedCampaign};
use snn_faults::progress::CancelToken;
use snn_faults::{
    verdict_digest, Engine, FaultOutcome, FaultSimConfig, FaultSimulator, FaultUniverse,
};
use std::sync::Arc;

/// Builds a self-contained campaign spec with `stimuli` random
/// bernoulli test inputs over a synthetic network.
fn campaign_spec(
    seed: u64,
    inputs: usize,
    hidden: usize,
    outputs: usize,
    ticks: usize,
) -> CampaignSpec {
    let model = ModelSpec::Synthetic { inputs, hidden: vec![hidden], outputs, seed };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let stim = snn_tensor::init::bernoulli(&mut rng, snn_tensor::Shape::d2(ticks, inputs), 0.4);
    let test = snn_testgen::GeneratedTest::from_chunks(vec![stim], inputs, vec![false; 3]);
    let mut events = Vec::new();
    test.write_events(&mut events).unwrap();
    CampaignSpec {
        id: 0,
        model,
        events: vec![String::from_utf8(events).unwrap()],
        sim: FaultSimConfig { threads: 1, ..FaultSimConfig::default() },
        faults: 0,
        reliability: None,
    }
}

/// The zero-worker reference: one process, whole fault list at once, on
/// the scalar engine.
fn local_campaign(spec: &CampaignSpec) -> Vec<FaultOutcome> {
    let net = build_model(&spec.model).unwrap();
    let universe = FaultUniverse::standard(&net);
    let prepared = PreparedCampaign::new(spec, None).unwrap();
    let sim =
        FaultSimulator::new(&net, FaultSimConfig { engine: Some(Engine::Scalar), ..spec.sim });
    sim.detect(&universe, universe.faults(), &prepared.tests).per_fault
}

/// Runs the campaign through the coordinator with `workers` in-process
/// worker threads and the given chunk size.
fn distributed_campaign(
    spec: &CampaignSpec,
    workers: usize,
    chunk_size: usize,
) -> Vec<FaultOutcome> {
    let net = build_model(&spec.model).unwrap();
    let spec = CampaignSpec { faults: FaultUniverse::standard(&net).len(), ..spec.clone() };

    let coord = Arc::new(Coordinator::new(CoordinatorConfig {
        chunk_size,
        lease_ms: 60_000,
        heartbeat_ms: 1000,
        idle_retry_ms: 1,
    }));
    let campaign = coord.submit(spec, None);

    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let coord = Arc::clone(&coord);
            std::thread::spawn(move || {
                let name = format!("w{w}");
                coord.hello(&name);
                let mut prepared: Option<PreparedCampaign> = None;
                loop {
                    match coord.grant(&name) {
                        Grant::Lease(grant) => {
                            let p = match &prepared {
                                Some(p) => p,
                                None => {
                                    let spec = coord.payload(grant.campaign).expect("payload");
                                    prepared = Some(
                                        PreparedCampaign::new(&spec, Some(1)).expect("prepare"),
                                    );
                                    prepared.as_ref().unwrap()
                                }
                            };
                            let outcomes = p
                                .run_chunk(grant.chunk.range(), &CancelToken::new())
                                .expect("chunk");
                            assert!(coord.result(
                                &name,
                                grant.lease,
                                grant.campaign,
                                grant.chunk.index,
                                grant.epoch,
                                ChunkOutcomes::from_rows(outcomes),
                                None
                            ));
                        }
                        // No pending chunks left; any still-leased ones
                        // belong to live sibling threads.
                        Grant::Idle { .. } | Grant::Shutdown => return,
                    }
                }
            })
        })
        .collect();

    let merged = coord.wait(campaign, &CancelToken::new(), |_| {}).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    merged
}

fn assert_bit_identical(local: &[FaultOutcome], merged: &[FaultOutcome], tag: &str) {
    assert_eq!(local.len(), merged.len(), "{tag}: fault count");
    for (l, m) in local.iter().zip(merged) {
        assert_eq!(l.fault_id, m.fault_id, "{tag}: fault order");
        assert_eq!(l.detected, m.detected, "{tag}: fault {} detection", l.fault_id);
        assert_eq!(
            l.distance.to_bits(),
            m.distance.to_bits(),
            "{tag}: fault {} distance bits",
            l.fault_id
        );
        assert_eq!(l.class_diff, m.class_diff, "{tag}: fault {} class diff", l.fault_id);
    }
    assert_eq!(verdict_digest(local), verdict_digest(merged), "{tag}: digest");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small networks and stimuli: the merged distributed result
    /// equals the local result bit-for-bit, whatever the worker count
    /// and chunk size.
    #[test]
    fn distributed_campaigns_are_bit_identical_to_local(
        seed in 0u64..1000,
        inputs in 3usize..6,
        hidden in 4usize..9,
        outputs in 2usize..4,
        ticks in 8usize..16,
        workers_idx in 0usize..3,
        chunk_idx in 0usize..3,
    ) {
        let workers = [1usize, 2, 4][workers_idx];
        let chunk_size = [1usize, 7, 64][chunk_idx];
        let spec = campaign_spec(seed, inputs, hidden, outputs, ticks);
        let local = local_campaign(&spec);
        let merged = distributed_campaign(&spec, workers, chunk_size);
        assert_bit_identical(&local, &merged, &format!("w={workers} c={chunk_size}"));
    }
}

/// The fixed-grid companion of the property test: one campaign, every
/// worker count the issue names (0 = the local path), every chunk size.
#[test]
fn worker_count_grid_is_bit_identical() {
    let spec = campaign_spec(77, 5, 8, 3, 12);
    let local = local_campaign(&spec);
    for workers in [1usize, 2, 4] {
        for chunk_size in [1usize, 7, 64] {
            let merged = distributed_campaign(&spec, workers, chunk_size);
            assert_bit_identical(&local, &merged, &format!("w={workers} c={chunk_size}"));
        }
    }
}
