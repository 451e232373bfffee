//! Cost of the input-relaxation pipeline: Gumbel-Softmax sampling (Eq. 17),
//! STE binarization (Eq. 18) and the logit-gradient backward step — the
//! per-iteration overhead of the paper's Fig. 3 on top of forward/backward.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_model::gumbel::GumbelSample;
use snn_tensor::{Shape, Tensor};
use std::hint::black_box;

fn bench_gumbel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gumbel");
    // IBM-repro-sized input: 48 ticks × 1152 features.
    let shape = Shape::d2(48, 2 * 24 * 24);
    let mut rng = StdRng::seed_from_u64(5);
    let logits = snn_tensor::init::uniform(&mut rng, shape.clone(), -1.0, 1.0);
    let mut grad = Tensor::full(shape, 0.5);

    group.bench_function("stochastic_sample", |b| {
        b.iter(|| black_box(GumbelSample::stochastic(&mut rng, black_box(&logits), 0.9)))
    });
    group.bench_function("deterministic_sample", |b| {
        b.iter(|| black_box(GumbelSample::deterministic(black_box(&logits), 0.9)))
    });
    let sample = GumbelSample::deterministic(&logits, 0.9);
    group.bench_function("grad_logits", |b| b.iter(|| sample.grad_logits(black_box(&mut grad))));
    group.finish();
}

criterion_group!(benches, bench_gumbel);
criterion_main!(benches);
