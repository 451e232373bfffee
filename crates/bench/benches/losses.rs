//! Evaluation cost of the five loss functions L1–L5.
//!
//! The paper's central complexity claim is that these losses replace a
//! fault-simulation campaign (`T_FS`) inside the optimization loop; these
//! numbers quantify how cheap the replacement is (compare against
//! `faultsim` benches).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_bench::{build_dataset, build_network, BenchmarkKind, Scale};
use snn_model::{InjectedGrads, RecordOptions};
use snn_tensor::Shape;
use snn_testgen::losses;
use std::hint::black_box;

fn bench_losses(c: &mut Criterion) {
    let mut group = c.benchmark_group("losses");
    group.sample_size(20);
    let kind = BenchmarkKind::Ibm; // largest repro network
    let mut rng = StdRng::seed_from_u64(3);
    let net = build_network(kind, Scale::Repro, &mut rng);
    let ds = build_dataset(kind, Scale::Repro, 3);
    let input =
        snn_tensor::init::bernoulli(&mut rng, Shape::d2(ds.steps(), net.input_features()), 0.1);
    let trace = net.forward(&input, RecordOptions::full());
    let mask = losses::full_mask(&net);
    let n_layers = net.layers().len();
    let reference = trace.output().clone();

    group.bench_function("L1_output_activation", |b| {
        b.iter(|| {
            let mut inj = InjectedGrads::none(n_layers);
            black_box(losses::l1_output_activation(&net, &trace, 1.0, &mut inj))
        })
    });
    group.bench_function("L2_neuron_activation", |b| {
        b.iter(|| {
            let mut inj = InjectedGrads::none(n_layers);
            black_box(losses::l2_neuron_activation(&net, &trace, &mask, 1.0, &mut inj))
        })
    });
    group.bench_function("L3_temporal_diversity", |b| {
        b.iter(|| {
            let mut inj = InjectedGrads::none(n_layers);
            black_box(losses::l3_temporal_diversity(&net, &trace, &mask, 4.0, 1.0, &mut inj))
        })
    });
    group.bench_function("L4_contribution_variance", |b| {
        b.iter(|| {
            let mut inj = InjectedGrads::none(n_layers);
            black_box(losses::l4_contribution_variance(&net, &trace, 1.0, &mut inj))
        })
    });
    group.bench_function("L5_hidden_activity", |b| {
        b.iter(|| {
            let mut inj = InjectedGrads::none(n_layers);
            black_box(losses::l5_hidden_activity(&net, &trace, 1.0, &mut inj))
        })
    });
    group.bench_function("output_preservation", |b| {
        b.iter(|| {
            let mut inj = InjectedGrads::none(n_layers);
            black_box(losses::output_preservation(&net, &trace, &reference, 4.0, &mut inj))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_losses);
criterion_main!(benches);
