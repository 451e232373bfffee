//! End-to-end integration tests across all workspace crates: the full
//! train → enumerate faults → generate test → verify coverage pipeline of
//! the paper, at a miniature scale so the suite stays fast.

#![expect(clippy::float_cmp, reason = "tests assert exact spike values")]

use rand::SeedableRng;
use snn_mtfc::datasets::{materialize, materialize_inputs, NmnistLike, SpikeDataset};
use snn_mtfc::faults::{
    criticality, CoverageReport, FaultSimConfig, FaultSimulator, FaultUniverse,
};
use snn_mtfc::model::train::{evaluate, TrainConfig, Trainer};
use snn_mtfc::model::{LifParams, Network, NetworkBuilder, RecordOptions};
use snn_mtfc::testgen::{activity_map, TestGenConfig, TestGenerator};
use snn_tensor::Shape;

fn tiny_trained_net(seed: u64) -> (Network, NmnistLike) {
    let ds = NmnistLike::new(12, 24, 300, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = NetworkBuilder::new_spatial(2, 12, 12, LifParams::default())
        .avg_pool(2)
        .dense(20)
        .dense(10)
        .build(&mut rng);
    let train = materialize(&ds, 0..60);
    let mut trainer = Trainer::new(&net, TrainConfig::default());
    for _ in 0..3 {
        for batch in train.chunks(10) {
            trainer.train_batch(&mut net, batch);
        }
    }
    (net, ds)
}

#[test]
fn full_pipeline_produces_verifiable_coverage() {
    let (net, ds) = tiny_trained_net(11);
    let universe = FaultUniverse::standard(&net);
    assert_eq!(universe.len(), 2 * net.neuron_count() + 3 * net.synapse_count());

    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let test = TestGenerator::new(&net, TestGenConfig::fast()).generate(&mut rng);
    assert!(!test.chunks.is_empty());
    let stimulus = test.assembled();
    assert!(stimulus.is_binary(), "test stimulus must be a spike tensor");

    let sim = FaultSimulator::new(&net, FaultSimConfig::default());
    let campaign = sim.detect(&universe, universe.faults(), std::slice::from_ref(&stimulus));
    let fc = campaign.fault_coverage();
    assert!(fc > 0.3, "optimized test coverage {fc} suspiciously low");

    // Labels + coverage report compose.
    let inputs = materialize_inputs(&ds, 60..70);
    let labels = criticality::classify(
        &net,
        &universe,
        universe.faults(),
        &inputs,
        criticality::CriticalityConfig { threads: 0, max_samples: Some(4) },
    );
    let report = CoverageReport::compute(universe.faults(), &labels.critical, &campaign.per_fault);
    assert_eq!(report.overall().total, universe.len());
    assert_eq!(report.overall().detected, campaign.detected_count());
    // The method optimizes for fault detection: critical coverage should
    // not trail overall coverage by much.
    assert!(report.critical_neuron.fc() >= report.benign_neuron.fc() * 0.8);
}

#[test]
fn optimized_test_beats_a_single_dataset_sample_on_activation() {
    let (net, ds) = tiny_trained_net(21);
    let mut rng = rand::rngs::StdRng::seed_from_u64(22);
    let test = TestGenerator::new(&net, TestGenConfig::fast()).generate(&mut rng);
    let stimulus = test.assembled();

    let opt_map = activity_map(&net, &net.forward(&stimulus, RecordOptions::spikes_only()), 1.0);
    let (sample, _) = ds.sample(0);
    let sample_map = activity_map(&net, &net.forward(&sample, RecordOptions::spikes_only()), 1.0);
    // The paper's Fig. 8 claim: optimized ≫ random sample.
    assert!(
        opt_map.fraction() >= sample_map.fraction(),
        "optimized {:.2} < sample {:.2}",
        opt_map.fraction(),
        sample_map.fraction()
    );
}

#[test]
fn detection_is_consistent_between_campaign_and_manual_forward() {
    let (net, _) = tiny_trained_net(31);
    let universe = FaultUniverse::standard(&net);
    let mut rng = rand::rngs::StdRng::seed_from_u64(32);
    let stimulus = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, net.input_features()), 0.3);

    let sim = FaultSimulator::new(&net, FaultSimConfig::default());
    let campaign = sim.detect(&universe, universe.faults(), std::slice::from_ref(&stimulus));

    // Re-check 20 outcomes by brute force (clone + patch + full forward).
    let baseline = net.forward(&stimulus, RecordOptions::spikes_only());
    for fault in universe.faults().iter().step_by(universe.len() / 20) {
        let outcome = &campaign.per_fault[fault.id];
        let injection = snn_mtfc::faults::Injection::for_fault(&net, &universe, fault)
            .expect("universe faults are well-formed");
        let faulty_out = match injection {
            snn_mtfc::faults::Injection::Weight { at, value } => {
                let mut patched = net.clone();
                patched.set_weight(at, value);
                patched.forward(&stimulus, RecordOptions::spikes_only())
            }
            snn_mtfc::faults::Injection::Neuron(map) => {
                net.forward_faulty(&stimulus, RecordOptions::spikes_only(), &map)
            }
        };
        let distance = baseline.output_distance(&faulty_out);
        assert_eq!(
            outcome.detected,
            distance > 0.0,
            "fault {} campaign/manual disagreement",
            fault.id
        );
        assert!(
            (outcome.distance - distance).abs() < 1e-4,
            "fault {} distance mismatch: {} vs {distance}",
            fault.id,
            outcome.distance
        );
    }
}

#[test]
fn training_then_testing_keeps_functionality() {
    // Generating a test must not mutate the network (it is read-only).
    let (net, ds) = tiny_trained_net(41);
    let test_set = materialize(&ds, 60..90);
    let acc_before = evaluate(&net, &test_set);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let _ = TestGenerator::new(&net, TestGenConfig::fast()).generate(&mut rng);
    let acc_after = evaluate(&net, &test_set);
    assert_eq!(acc_before, acc_after);
}

#[test]
fn eq7_eq8_assembly_matches_simulated_reset_behaviour() {
    // After each chunk the zero gap must fully reset all membranes: the
    // response to {I, 0, I} must contain the response to I twice.
    let (net, _) = tiny_trained_net(51);
    let mut rng = rand::rngs::StdRng::seed_from_u64(52);
    let mut cfg = TestGenConfig::fast();
    cfg.max_iterations = 2;
    let test = TestGenerator::new(&net, cfg).generate(&mut rng);
    if test.chunks.len() < 2 {
        return; // single-chunk run: nothing to check
    }
    let t0 = test.chunks[0].shape().dim(0);
    let assembled = test.assembled();
    let full_trace = net.forward(&assembled, RecordOptions::spikes_only());
    let chunk_trace = net.forward(&test.chunks[0], RecordOptions::spikes_only());

    // First T0 ticks of the assembled response equal the chunk response.
    let full_out = full_trace.output().as_slice();
    let chunk_out = chunk_trace.output().as_slice();
    let classes = net.output_features();
    assert_eq!(&full_out[..t0 * classes], chunk_out);
}
