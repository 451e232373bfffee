//! Soundness validation of fault collapsing: a full-universe campaign
//! and a collapsed-then-expanded campaign must report identical
//! per-fault detection. The property test samples random pruned
//! networks (both members of every equivalence class are actually
//! simulated by the full campaign); the exact test pins down a crafted
//! network where every collapse rule fires.

#![allow(clippy::float_cmp)] // campaigns are compared for exact equality

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snn_analyze::{analyze, CollapseReason};
use snn_faults::{
    CancelToken, Engine, FaultModelConfig, FaultSimConfig, FaultSimulator, FaultUniverse, NullSink,
};
use snn_model::{DenseLayer, Layer, LifParams, Network, NetworkBuilder};
use snn_tensor::{Shape, Tensor};

fn binary_tests(rng: &mut StdRng, count: usize, steps: usize, features: usize) -> Vec<Tensor> {
    (0..count)
        .map(|_| {
            let data: Vec<f32> =
                (0..steps * features).map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 }).collect();
            Tensor::from_vec(Shape::d2(steps, features), data).unwrap()
        })
        .collect()
}

/// Runs both campaigns and asserts outcome equivalence. Returns the
/// collapse count so callers can assert yield.
fn assert_campaigns_agree(net: &Network, universe: &FaultUniverse, tests: &[Tensor]) -> usize {
    let analysis = analyze(net, universe);
    let errors = analysis.collapsed.self_check(net, universe);
    assert!(errors.is_empty(), "self-check: {errors:?}");

    // The reference side is the scalar engine over the full universe; the
    // collapsed campaign must expand to the same outcomes under either
    // engine.
    let on = |engine| FaultSimConfig { engine: Some(engine), ..FaultSimConfig::default() };
    let full =
        FaultSimulator::new(net, on(Engine::Scalar)).detect(universe, universe.faults(), tests);
    let collapsed = |engine| {
        analysis
            .collapsed
            .detect_collapsed(net, universe, tests, on(engine), &NullSink, &CancelToken::new())
            .expect("collapsed campaign")
    };
    let expanded = collapsed(Engine::Packed);
    assert_eq!(expanded.per_fault, collapsed(Engine::Scalar).per_fault);

    assert_eq!(full.per_fault.len(), expanded.per_fault.len());
    let saturated: std::collections::HashSet<usize> = analysis
        .collapsed
        .collapses()
        .iter()
        .filter(|c| matches!(c.reason, CollapseReason::SaturatedOutput { .. }))
        .map(|c| c.fault_id)
        .collect();
    for (f, e) in full.per_fault.iter().zip(&expanded.per_fault) {
        assert_eq!(f.fault_id, e.fault_id);
        assert_eq!(
            f.detected, e.detected,
            "fault {} detection differs (full {} vs expanded {})",
            f.fault_id, f.detected, e.detected
        );
        // Expanded distance is exact except for the saturated-output
        // rule, whose 1.0 is a provable lower bound, not the simulated
        // distance.
        if !saturated.contains(&f.fault_id) {
            assert_eq!(f.distance, e.distance, "fault {} distance differs", f.fault_id);
        } else {
            assert!(f.distance >= 1.0, "saturated-output fault {} distance", f.fault_id);
        }
    }
    assert_eq!(full.fault_coverage(), expanded.fault_coverage());
    analysis.collapsed.collapses().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random pruned dense networks, optionally with the extended fault
    /// universe: full and collapsed campaigns agree fault-for-fault.
    #[test]
    fn collapsed_campaign_equals_full_campaign(
        seed in 0u64..200,
        inputs in 3usize..6,
        hidden in 4usize..8,
        outputs in 2usize..4,
        sparsity in 0.3f64..0.9,
        timing in proptest::bool::ANY,
        bitflips in proptest::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NetworkBuilder::new(inputs, LifParams::default())
            .dense(hidden)
            .dense(outputs)
            .build(&mut rng);
        snn_analyze::magnitude_prune(&mut net, sparsity);
        // Force neuron 0 of layer 0 dead (negative fan-in) on half the
        // cases so the dead-neuron rules get exercised, not just
        // identical-weight.
        if seed % 2 == 0 {
            for g in 0..inputs {
                let r = net.locate_weight(g);
                let w = net.weight(r);
                net.set_weight(r, -w.abs() - 0.1);
            }
        }
        let bits: &[u8] = if bitflips { &[0, 7] } else { &[] };
        let universe =
            FaultUniverse::with_config(&net, FaultModelConfig::default(), timing, bits);
        let tests = binary_tests(&mut rng, 2, 6, inputs);
        assert_campaigns_agree(&net, &universe, &tests);
    }
}

#[test]
fn exact_equality_on_crafted_network_with_every_rule() {
    let lif = LifParams::default(); // threshold 1.0, leak 0.9, refrac 2
    let l0 = Tensor::from_vec(
        Shape::d2(3, 3),
        vec![
            0.8, -0.4, 0.0, // neuron 0: one pruned weight
            -0.5, -0.2, -0.1, // neuron 1: provably dead (all-negative fan-in)
            2.0, 1.5, 0.3, // neuron 2: excitable
        ],
    )
    .unwrap();
    let l1 = Tensor::from_vec(
        Shape::d2(2, 3),
        vec![
            0.9, 5.0, 0.7, // weight 5.0 reads the dead neuron: silent source
            0.4, -3.0, 1.2,
        ],
    )
    .unwrap();
    let net = Network::new(
        Shape::d1(3),
        vec![Layer::Dense(DenseLayer::new(l0, lif)), Layer::Dense(DenseLayer::new(l1, lif))],
    );
    let universe = FaultUniverse::standard(&net);
    let analysis = analyze(&net, &universe);

    let rules: std::collections::HashSet<&'static str> =
        analysis.collapsed.collapses().iter().map(|c| c.reason.rule()).collect();
    assert!(rules.contains("identical-weight"), "{rules:?}");
    assert!(rules.contains("silent-source"), "{rules:?}");
    assert!(rules.contains("dead-target"), "{rules:?}");
    assert!(rules.contains("dead-neuron"), "{rules:?}");
    assert!(rules.contains("saturated-output"), "{rules:?}");

    let mut rng = StdRng::seed_from_u64(11);
    let mut tests = binary_tests(&mut rng, 1, 8, 3);
    tests.push(Tensor::from_vec(Shape::d2(8, 3), vec![1.0; 24]).unwrap());
    let collapsed = assert_campaigns_agree(&net, &universe, &tests);
    assert!(collapsed >= 10, "expected a rich collapse set, got {collapsed}");
}

#[test]
fn alias_rule_copies_outcomes_in_extended_universe() {
    // With bit-flip faults, a flip can reproduce another fault's exact
    // injected value at the same site (e.g. quantized 2^bit → 0 == the
    // SynapseDead value on some weights after pruning).
    let mut rng = StdRng::seed_from_u64(5);
    let mut net = NetworkBuilder::new(4, LifParams::default()).dense(5).dense(2).build(&mut rng);
    snn_analyze::magnitude_prune(&mut net, 0.6);
    let universe = FaultUniverse::with_config(
        &net,
        FaultModelConfig::default(),
        false,
        &[0, 1, 2, 3, 4, 5, 6, 7],
    );
    let tests = binary_tests(&mut rng, 2, 6, 4);
    assert_campaigns_agree(&net, &universe, &tests);
}

#[test]
fn expand_rejects_short_tests_when_saturated_output_collapses_exist() {
    let mut rng = StdRng::seed_from_u64(9);
    let net = NetworkBuilder::new(3, LifParams::default()).dense(2).build(&mut rng);
    let universe = FaultUniverse::standard(&net);
    let analysis = analyze(&net, &universe);
    assert!(analysis
        .collapsed
        .collapses()
        .iter()
        .any(|c| matches!(c.reason, CollapseReason::SaturatedOutput { .. })));
    let cfg = FaultSimConfig::default();
    let sim = FaultSimulator::new(&net, cfg);
    let tests = binary_tests(&mut rng, 1, 4, 3);
    let reps = sim.detect(&universe, analysis.collapsed.representatives(), &tests);
    let err = analysis.collapsed.expand(&reps.per_fault, 1).unwrap_err();
    assert_eq!(err, snn_analyze::ExpandError::TestTooShort { steps: 1 });
    assert!(analysis.collapsed.expand(&reps.per_fault, 4).is_ok());
}

#[test]
fn expand_requires_every_representative_outcome() {
    let mut rng = StdRng::seed_from_u64(2);
    let net = NetworkBuilder::new(3, LifParams::default()).dense(2).build(&mut rng);
    let universe = FaultUniverse::standard(&net);
    let analysis = analyze(&net, &universe);
    let err = analysis.collapsed.expand(&[], 8).unwrap_err();
    assert!(matches!(err, snn_analyze::ExpandError::MissingRepresentative { .. }));
}
