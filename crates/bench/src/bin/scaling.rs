//! Scalability demonstration at the paper's full network sizes.
//!
//! The paper's key scaling claim is that test generation cost is governed
//! by SNN inference time and is *independent of the fault-model size*,
//! while fault-simulation-based flows explode with it. This binary builds
//! the three **paper-scale** architectures (IBM: 25,099 neurons /
//! 1,059,616 synapses — Table I exact), measures on this machine:
//!
//! * one forward pass, one BPTT backward pass, and one full optimization
//!   step (the unit cost `M` of the generation loop),
//! * per-fault cost of the verification campaign on a 500-fault random
//!   sample,
//!
//! and extrapolates: total generation cost for the paper's 2000+1000
//! optimizer steps per iteration vs one full fault-simulation campaign —
//! reproducing the O(M+T_FS) vs O(M·T_FS) argument with measured
//! constants at true scale.
//!
//! Usage: `cargo run -p snn-bench --bin scaling --release`

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_bench::{build_dataset, build_network, fmt_duration, print_table, BenchmarkKind, Scale};
use snn_faults::{FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_model::{gumbel::GumbelSample, InjectedGrads, RecordOptions, Surrogate};
use snn_tensor::Shape;
use std::time::Instant;

fn main() {
    let mut rows = Vec::new();
    for kind in BenchmarkKind::ALL {
        eprintln!("[scaling] building paper-scale {}…", kind.name());
        let mut rng = StdRng::seed_from_u64(5);
        let net = build_network(kind, Scale::Paper, &mut rng);
        let ds = build_dataset(kind, Scale::Paper, 5);
        // Short optimization window (test chunks are much shorter than a
        // full sample; use ~1/4 sample length).
        let steps = (ds.steps() / 4).max(8);
        let features = net.input_features();
        let logits = snn_tensor::init::uniform(&mut rng, Shape::d2(steps, features), -1.0, 1.0);

        // Forward.
        let sample = GumbelSample::stochastic(&mut rng, &logits, 0.9);
        let t0 = Instant::now();
        let trace = net.forward(&sample.binary, RecordOptions::full());
        let fwd = t0.elapsed();

        // Backward with an L2-shaped injected gradient on every layer.
        let mut inj = InjectedGrads::none(net.layers().len());
        for (idx, layer) in net.layers().iter().enumerate() {
            if layer.is_spiking() {
                inj.set(
                    idx,
                    snn_tensor::Tensor::full(Shape::d2(steps, layer.out_features()), -1.0),
                );
            }
        }
        let t1 = Instant::now();
        let mut grads = net.backward(&sample.binary, &trace, &inj, Surrogate::default(), false);
        let bwd = t1.elapsed();
        sample.grad_logits(&mut grads.input);
        let step_cost = fwd + bwd;

        // Per-fault verification cost on a 500-fault random sample.
        let universe = FaultUniverse::standard(&net);
        let faults = universe.sample(&mut rng, 500);
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let outcome = sim.detect(&universe, &faults, std::slice::from_ref(&sample.binary));
        let per_fault = outcome.elapsed / faults.len() as u32;

        // Extrapolations.
        let gen_per_iter = step_cost * 3000; // 2000 stage-1 + 1000 stage-2 steps
        let full_campaign = per_fault * universe.len() as u32;
        rows.push(vec![
            kind.name().to_string(),
            format!("{}", net.neuron_count()),
            format!("{}", net.synapse_count()),
            fmt_duration(fwd),
            fmt_duration(bwd),
            fmt_duration(gen_per_iter),
            format!("{:?}", per_fault),
            fmt_duration(full_campaign),
        ]);
        eprintln!(
            "[scaling] {}: generation iteration ≈ {}, one full fault campaign ≈ {}",
            kind.name(),
            fmt_duration(gen_per_iter),
            fmt_duration(full_campaign)
        );
    }
    print_table(
        "Scalability at paper-scale network sizes (single CPU core)",
        &[
            "Benchmark",
            "Neurons",
            "Synapses",
            "Forward",
            "Backward",
            "Gen. iter (3000 steps)",
            "Per-fault sim",
            "Full campaign (est.)",
        ],
        &rows,
    );
    println!(
        "\nReading: generation cost scales with inference time only; a prior-art\n\
         flow re-running the campaign after every candidate pays the last column\n\
         once per candidate, and the paper's datasets have hundreds of candidates."
    );
}
