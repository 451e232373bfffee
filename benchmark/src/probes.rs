//! Layer probes of the traced run: each calls one layer's public entry
//! point directly, on the workload's own network and the stimulus its
//! reference pass produced, for a fixed short time budget.

use crate::pipeline::{detect, sample, Verified};
use crate::stats::median;
use crate::workload::Plan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_mtfc::batch::dense_suffix_start;
use snn_mtfc::faults::{Engine, Fault};
use snn_mtfc::model::{InjectedGrads, Layer, RecordOptions, Surrogate};
use snn_mtfc::tensor::ops::{self, Conv2dSpec};
use snn_mtfc::tensor::{init, Shape, Tensor};
use snn_mtfc::testgen::losses::full_mask;
use snn_mtfc::testgen::{Stage, StageConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each rate probe measures in this many slices and reports the median
/// slice, so that a stall of the machine spoils one slice, not the rate.
const PROBE_SLICES: usize = 9;
/// Wall time of one slice.
const PROBE_SLICE: Duration = Duration::from_millis(25);

/// Calls per second of `f`; the first call is not timed.
fn calls_per_s(mut f: impl FnMut()) -> f64 {
    f();
    let rates: Vec<f64> = (0..PROBE_SLICES)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                f();
                calls += 1;
                let elapsed = start.elapsed();
                if elapsed >= PROBE_SLICE {
                    return calls as f64 / elapsed.as_secs_f64();
                }
            }
        })
        .collect();
    median(&rates)
}

/// `(name, value)` pairs of the `tensor`, `model`, `testgen`, `faults`,
/// `batch` and `analyze` probes.
pub fn run(plan: &Plan, v: &Verified, seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let net = &v.net;
    let mut rng = StdRng::seed_from_u64(seed);

    // tensor: the network's widest dense matrix and its first conv layer
    // (the IBM example's conv shape when it has none).
    let dense = net
        .layers()
        .iter()
        .filter_map(|l| match l {
            Layer::Dense(d) => Some(&d.weight),
            Layer::Recurrent(r) => Some(&r.w_in),
            _ => None,
        })
        .max_by_key(|w| w.len())
        .ok_or("network has no dense matrix")?;
    let (rows, cols) = (dense.shape().dim(0), dense.shape().dim(1));
    let x = init::bernoulli(&mut rng, Shape::d1(cols), 0.5);
    let mut y = vec![0.0f32; rows];
    let per_s = calls_per_s(|| ops::matvec(black_box(dense), black_box(x.as_slice()), &mut y));
    out.push(("tensor.matvec_gflops", per_s * (2 * rows * cols) as f64 / 1e9));

    let (spec, (h, w), weight) = net
        .layers()
        .iter()
        .find_map(|l| match l {
            Layer::Conv(c) => Some((c.spec, c.in_hw, c.weight.clone())),
            _ => None,
        })
        .unwrap_or_else(|| {
            let spec = Conv2dSpec::new(2, 6, 5, 1, 2);
            (spec, (12, 12), init::uniform(&mut rng, spec.weight_shape(), -1.0, 1.0))
        });
    let (oh, ow) = spec.out_hw(h, w);
    let input = init::bernoulli(&mut rng, Shape::d1(spec.in_channels * h * w), 0.5);
    let mut conv_out = vec![0.0f32; spec.out_channels * oh * ow];
    // Multiply-adds of a full window per output pixel; padding skips some.
    let conv_flops = (2 * conv_out.len() * spec.in_channels * spec.kernel * spec.kernel) as f64;
    let per_s = calls_per_s(|| {
        ops::conv2d(&spec, black_box(input.as_slice()), h, w, &weight, &mut conv_out);
    });
    out.push(("tensor.conv2d_gflops", per_s * conv_flops / 1e9));
    // A gradient without zeros: both backward kernels skip zero entries.
    let out_grad = init::uniform(&mut rng, Shape::d1(conv_out.len()), 0.5, 1.0);
    let mut in_grad = vec![0.0f32; input.len()];
    let mut w_grad = Tensor::zeros(spec.weight_shape());
    let per_s = calls_per_s(|| {
        let g = black_box(out_grad.as_slice());
        ops::conv2d_backward_input(&spec, g, h, w, &weight, &mut in_grad);
        ops::conv2d_backward_weight(&spec, g, input.as_slice(), h, w, &mut w_grad);
    });
    out.push(("tensor.conv2d_bwd_gflops", per_s * 2.0 * conv_flops / 1e9));

    // model: forward and BPTT backward over the generated stimulus.
    let ticks = v.stimulus.shape().dim(0) as f64;
    let per_s = calls_per_s(|| {
        black_box(net.forward(black_box(&v.stimulus), RecordOptions::full()));
    });
    out.push(("model.forward_ticks_per_s", per_s * ticks));
    let trace = net.forward(&v.stimulus, RecordOptions::full());
    let last = net.layers().len() - 1;
    let mut injected = InjectedGrads::none(net.layers().len());
    injected.set(last, Tensor::full(trace.layers[last].output.shape().clone(), 1.0));
    let per_s = calls_per_s(|| {
        black_box(net.backward(&v.stimulus, &trace, &injected, Surrogate::default(), false));
    });
    out.push(("model.backward_ticks_per_s", per_s * ticks));

    // testgen: a fixed number of optimizer steps of each stage.
    let steps = if plan.smoke { 4 } else { 16 };
    let t_in = plan.gen.t_in_min.unwrap_or(16);
    let stage = Stage::new(
        net,
        StageConfig {
            steps,
            lr: plan.gen.lr,
            tau: plan.gen.tau,
            td_min: (t_in as f32 / plan.gen.td_min_divisor).max(1.0),
            mu: plan.gen.mu,
            ..StageConfig::default()
        },
    );
    let logits = init::uniform(&mut rng, Shape::d2(t_in, net.input_features()), -1.0, 1.0);
    let t0 = Instant::now();
    let s1 = stage.run_stage1(&mut rng, logits, &full_mask(net));
    out.push(("testgen.stage1_step_ms", t0.elapsed().as_secs_f64() * 1e3 / steps as f64));
    let t0 = Instant::now();
    black_box(stage.run_stage2(&mut rng, &s1));
    out.push(("testgen.stage2_step_ms", t0.elapsed().as_secs_f64() * 1e3 / steps as f64));

    // faults: the scalar simulator alone, one thread.
    let scalar_sample = sample(&v.faults, 512);
    let t0 = Instant::now();
    detect(net, &v.universe, &scalar_sample, &v.stimulus, Engine::Scalar, 1)?;
    out.push((
        "faults.scalar_faults_per_s",
        scalar_sample.len() as f64 / t0.elapsed().as_secs_f64(),
    ));

    // batch: the packed engine alone, on faults it can pack, at one and
    // at two threads.
    let suffix = dense_suffix_start(net);
    let packable: Vec<Fault> =
        v.faults.iter().filter(|f| f.site.layer() >= suffix).copied().collect();
    out.push(("batch.packable_share", packable.len() as f64 / v.faults.len() as f64));
    let packed_sample = sample(&packable, 4096);
    if packed_sample.is_empty() {
        return Err("the campaign has no fault the packed engine can take".into());
    }
    let packed_per_s = |threads: usize| -> Result<f64, String> {
        let mut failure = None;
        let per_s = calls_per_s(|| {
            let run =
                detect(net, &v.universe, &packed_sample, &v.stimulus, Engine::Packed, threads);
            failure = failure.take().or(run.err());
        });
        failure.map_or(Ok(per_s * packed_sample.len() as f64), Err)
    };
    let one = packed_per_s(1)?;
    let two = packed_per_s(2)?;
    out.push(("batch.packed_faults_per_s", one));
    out.push(("batch.thread_scaling", two / one));

    // analyze: interval analysis and fault collapsing of the universe.
    let t0 = Instant::now();
    let analysis = snn_mtfc::analyze::analyze(net, &v.universe);
    out.push(("analyze.analyze_s", t0.elapsed().as_secs_f64()));
    out.push(("analyze.collapse_ratio", analysis.summary.collapse_fraction));

    Ok(out)
}
