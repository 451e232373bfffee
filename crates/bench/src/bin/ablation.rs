//! Ablation study of the design choices DESIGN.md calls out: what each
//! ingredient of the test-generation algorithm buys, measured on the
//! NMNIST-like benchmark.
//!
//! Variants:
//! * `full`            — stages 1+2, all losses, stochastic Gumbel (the paper's method)
//! * `no-stage2`       — stage 1 only (no hidden-activity pruning)
//! * `no-L3`           — without the temporal-diversity loss
//! * `no-L4`           — without the contribution-variance loss
//! * `deterministic`   — no Gumbel noise in the relaxation
//!
//! For each variant: test duration, activated neurons, hidden spike count
//! of the stimulus, and fault coverage (overall and critical).
//!
//! Usage: `cargo run -p snn-bench --bin ablation --release`
//! (`SNN_MTFC_FAST=1` shrinks the run).

use snn_bench::{fmt_duration, print_table, Benchmark, BenchmarkKind, PrepConfig, Scale};
use snn_faults::{criticality, Fault, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_model::RecordOptions;
use snn_testgen::{TestGenConfig, TestGenerator};

fn main() {
    let fast = std::env::var("SNN_MTFC_FAST").is_ok();
    let prep = if fast { PrepConfig::fast() } else { PrepConfig::repro() };

    eprintln!("[ablation] preparing NMNIST benchmark…");
    let b = Benchmark::prepare(BenchmarkKind::Nmnist, Scale::Repro, 42, prep);
    let universe = FaultUniverse::standard(&b.net);
    let labels = criticality::classify(
        &b.net,
        &universe,
        universe.faults(),
        &b.test_inputs(),
        criticality::CriticalityConfig { threads: 0, max_samples: Some(if fast { 4 } else { 10 }) },
    );
    let critical: Vec<Fault> = universe
        .faults()
        .iter()
        .zip(labels.critical.iter())
        .filter(|(_, &c)| c)
        .map(|(f, _)| *f)
        .collect();

    let base = if fast { TestGenConfig::fast() } else { TestGenConfig::repro() };
    let variants: Vec<(&str, TestGenConfig)> = vec![
        ("full", base.clone()),
        ("no-stage2", TestGenConfig { use_stage2: false, ..base.clone() }),
        ("no-L3", TestGenConfig { use_l3: false, ..base.clone() }),
        ("no-L4", TestGenConfig { use_l4: false, ..base.clone() }),
        ("deterministic", TestGenConfig { stochastic: false, ..base.clone() }),
    ];

    let coverage_of = |faults: &[Fault], stimulus: &snn_tensor::Tensor| {
        FaultSimulator::new(&b.net, FaultSimConfig::default())
            .detect(&universe, faults, std::slice::from_ref(stimulus))
            .fault_coverage()
    };
    let mut rows = Vec::new();
    for (name, cfg) in variants {
        eprintln!("[ablation] variant {name}…");
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
        let test = TestGenerator::new(&b.net, cfg).generate(&mut rng);
        let stimulus = test.assembled();

        // Hidden spike count of the full stimulus (stage 2's objective).
        let trace = b.net.forward(&stimulus, RecordOptions::spikes_only());
        let last = b.net.layers().len() - 1;
        let hidden: f32 = b
            .net
            .layers()
            .iter()
            .enumerate()
            .filter(|(idx, l)| *idx != last && l.is_spiking())
            .map(|(idx, _)| trace.layers[idx].output.sum())
            .sum();

        let overall = coverage_of(universe.faults(), &stimulus);
        let crit = coverage_of(&critical, &stimulus);

        rows.push(vec![
            name.to_string(),
            fmt_duration(test.runtime),
            format!("{} ticks", test.test_steps()),
            format!("{:.1}%", test.activated_fraction() * 100.0),
            format!("{hidden:.0}"),
            format!("{:.2}%", crit * 100.0),
            format!("{:.2}%", overall * 100.0),
        ]);
    }

    print_table(
        "Ablation: generator variants (NMNIST-like)",
        &[
            "Variant",
            "Gen. time",
            "Duration",
            "Activated",
            "Hidden spikes",
            "FC critical",
            "FC overall",
        ],
        &rows,
    );
    println!(
        "\nExpectations: `no-stage2` leaves more hidden spikes (weaker fault-effect\n\
         propagation); `no-L3`/`no-L4` trade away coverage; `deterministic` tends\n\
         to explore less. Same seed and network for all variants."
    );
}
