//! Satellite properties of reliability campaigns:
//!
//! * fault-map sampling is deterministic — the same seed and BER yield
//!   an identical fault universe however the campaign is split across
//!   workers (1/2/4) and chunk sizes (1/7/64), with digest-equal merges;
//! * mitigation soundness — range restriction never lowers fault-free
//!   accuracy on example networks (it is the identity on clean weights).

#![expect(clippy::float_cmp, reason = "soundness asserts exact accuracy values")]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_faults::chunk::{merge_chunks, plan};
use snn_faults::progress::CancelToken;
use snn_faults::{verdict_digest, FaultOutcome};
use snn_model::{LifParams, Network, NetworkBuilder};
use snn_reliability::{
    sample_config, EvalSpec, FaultMapSpec, Mitigation, MitigationKind, RangeRestriction,
    ReliabilityEvaluator, ReliabilitySpec, WeightFaultModel,
};

fn example_net(seed: u64, inputs: usize, hidden: usize, outputs: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new(inputs, LifParams::default()).dense(hidden).dense(outputs).build(&mut rng)
}

fn spec(
    net: &Network,
    weight_ber: f32,
    neuron_ber: f32,
    configs: usize,
    seed: u64,
) -> ReliabilitySpec {
    ReliabilitySpec {
        map: FaultMapSpec::uniform(
            net,
            weight_ber,
            neuron_ber,
            configs,
            seed,
            WeightFaultModel::StuckSat,
            None,
        ),
        eval: EvalSpec { samples: 4, steps: 10, rate: 0.35, seed: 9 },
        mitigation: MitigationKind::RangeRestriction,
    }
}

/// The single-process reference: one evaluator, the whole id list.
fn whole_campaign(net: &Network, rspec: &ReliabilitySpec) -> Vec<FaultOutcome> {
    let eval = ReliabilityEvaluator::new(net.clone(), rspec.clone()).unwrap();
    eval.evaluate_chunk(0..rspec.map.configs, 1, &CancelToken::new()).unwrap()
}

/// Splits the campaign into `chunk_size` chunks dealt round-robin to
/// `workers` evaluators — each built independently from the spec, as a
/// worker process would — and merges the parts in chunk order.
fn split_campaign(
    net: &Network,
    rspec: &ReliabilitySpec,
    workers: usize,
    chunk_size: usize,
) -> Vec<FaultOutcome> {
    let evaluators: Vec<ReliabilityEvaluator> = (0..workers)
        .map(|_| ReliabilityEvaluator::new(net.clone(), rspec.clone()).unwrap())
        .collect();
    let chunks = plan(rspec.map.configs, chunk_size);
    let parts: Vec<Vec<FaultOutcome>> = chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            evaluators[i % workers].evaluate_chunk(chunk.range(), 1, &CancelToken::new()).unwrap()
        })
        .collect();
    merge_chunks(&chunks, parts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed + BER ⇒ identical fault universe: every worker split
    /// and chunk size merges to the bit-identical outcome list.
    #[test]
    fn fault_map_campaigns_are_split_invariant(
        seed in 0u64..500,
        net_seed in 0u64..100,
        weight_ber in 0.005f32..0.08,
        workers_idx in 0usize..3,
        chunk_idx in 0usize..3,
    ) {
        let workers = [1usize, 2, 4][workers_idx];
        let chunk_size = [1usize, 7, 64][chunk_idx];
        let net = example_net(net_seed, 5, 8, 3);
        let rspec = spec(&net, weight_ber, 0.01, 9, seed);

        // Sampling itself is a pure function of (spec, topology, index).
        for k in 0..rspec.map.configs {
            let a = sample_config(&net, &rspec.map, k);
            let b = sample_config(&net, &rspec.map, k);
            prop_assert_eq!(&a.hits, &b.hits, "config {} hits", k);
            prop_assert_eq!(a.realize(&net), b.realize(&net), "config {} patches", k);
        }

        let whole = whole_campaign(&net, &rspec);
        let merged = split_campaign(&net, &rspec, workers, chunk_size);
        prop_assert_eq!(&whole, &merged, "w={} c={}", workers, chunk_size);
        prop_assert_eq!(verdict_digest(&whole), verdict_digest(&merged));
    }
}

/// The fixed-grid companion: one campaign, every worker count × chunk
/// size the issue names, digest-equal throughout.
#[test]
fn worker_chunk_grid_merges_digest_equal() {
    let net = example_net(3, 6, 10, 4);
    let rspec = spec(&net, 0.03, 0.02, 13, 77);
    let whole = whole_campaign(&net, &rspec);
    let reference = verdict_digest(&whole);
    for workers in [1usize, 2, 4] {
        for chunk_size in [1usize, 7, 64] {
            let merged = split_campaign(&net, &rspec, workers, chunk_size);
            assert_eq!(whole, merged, "w={workers} c={chunk_size}");
            assert_eq!(verdict_digest(&merged), reference, "w={workers} c={chunk_size}");
        }
    }
}

/// Range restriction is sound: on a fault-free network (zero BER, so
/// every sampled configuration is empty) it changes nothing, and the
/// mitigated accuracy equals the clean baseline on example nets.
#[test]
fn range_restriction_never_lowers_fault_free_accuracy() {
    for net_seed in [0u64, 5, 11] {
        let net = example_net(net_seed, 5, 9, 3);
        // An explicit zero-BER region: addressed, but sampling no faults.
        // (`uniform` omits rate-0 regions entirely, and a fault map must
        // address at least one region to validate.)
        let mut rspec = spec(&net, 0.5, 0.0, 4, 21);
        rspec.map.regions = vec![snn_reliability::RegionSpec {
            region: snn_reliability::MemoryRegion::Weights { layer: 0, tensor: 0 },
            ber: 0.0,
        }];

        // No faults sampled ⇒ no patches: the mitigation is the identity.
        for k in 0..rspec.map.configs {
            let config = sample_config(&net, &rspec.map, k);
            assert!(config.is_empty(), "zero BER must sample empty configs");
            assert!(RangeRestriction.patches(&net, &config).is_empty());
        }

        let outcomes = whole_campaign(&net, &rspec);
        let report = snn_reliability::ReliabilityReport::build(&net, &rspec, &outcomes).unwrap();
        assert_eq!(report.baseline_accuracy, 1.0);
        assert_eq!(
            report.mitigated_accuracy, report.baseline_accuracy,
            "net {net_seed}: range restriction lowered fault-free accuracy"
        );
        assert_eq!(report.faulty_accuracy, 1.0, "no faults, no drop");
    }
}

/// Under nonzero BER with saturating stuck-at faults, range restriction
/// must not do worse than no mitigation — and on these nets it strictly
/// recovers accuracy.
#[test]
fn range_restriction_recovers_accuracy_under_nonzero_ber() {
    let net = example_net(7, 6, 12, 4);
    let mut rspec = spec(&net, 0.05, 0.0, 12, 11);
    rspec.eval.samples = 8;
    rspec.eval.steps = 14;
    let outcomes = whole_campaign(&net, &rspec);
    let report = snn_reliability::ReliabilityReport::build(&net, &rspec, &outcomes).unwrap();
    assert!(
        report.mitigated_accuracy >= report.faulty_accuracy,
        "mitigation made things worse: {} < {}",
        report.mitigated_accuracy,
        report.faulty_accuracy
    );
    assert!(
        report.recovered() > 0.0,
        "expected measurable recovery at BER 0.05, got {:+}",
        report.recovered()
    );
}
