//! Regenerates **Table III — Test generation efficiency metrics**: the
//! headline experiment. For each benchmark it trains the SNN, runs the
//! proposed two-stage test generation, verifies the optimized stimulus
//! with one fault-simulation campaign, and reports runtime, test duration
//! (ticks and dataset samples), activated-neuron percentage, fault
//! coverage per class, and the worst escape's accuracy drop.
//!
//! Usage: `cargo run -p snn-bench --bin table3 --release`
//!   `SNN_MTFC_FAST=1`    — smoke-run sizes
//!   `SNN_MTFC_SAMPLES=n` — criticality sample cap (default 12, 4 under
//!   `SNN_MTFC_FAST`)

use snn_bench::{fmt_duration, print_table, Benchmark, BenchmarkKind, PrepConfig, Scale};
use snn_faults::{
    criticality, escape_max_accuracy_drop, CoverageReport, Fault, FaultSimConfig, FaultSimulator,
    FaultUniverse,
};
use snn_testgen::{TestGenConfig, TestGenerator};
use std::io::Write;

fn main() {
    let fast = std::env::var("SNN_MTFC_FAST").is_ok();
    let prep = if fast { PrepConfig::fast() } else { PrepConfig::repro() };
    let max_samples: usize = std::env::var("SNN_MTFC_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 4 } else { 12 });
    let gen_cfg = if fast { TestGenConfig::fast() } else { TestGenConfig::repro() };

    let paper: [[&str; 9]; 3] = [
        [
            "1.5 h",
            "~8.76",
            "4.96 s",
            "98.71%",
            "99.97%",
            "96.96%",
            "47.26%",
            "78.02%",
            "0.1% (1.1%)",
        ],
        [
            "2.5 h",
            "~11.48",
            "31.86 s",
            "82.81%",
            "99.86%",
            "99.42%",
            "82.29%",
            "58.98%",
            "0.4% (0.9%)",
        ],
        [
            "2 h",
            "~7.82",
            "14.64 s",
            "91.33%",
            "98.99%",
            "97.25%",
            "21.43%",
            "54.40%",
            "0.3% (1.5%)",
        ],
    ];

    for (i, kind) in BenchmarkKind::ALL.iter().enumerate() {
        eprintln!("[table3] preparing {}…", kind.name());
        let b = Benchmark::prepare(*kind, Scale::Repro, 42, prep);
        let universe = FaultUniverse::standard(&b.net);

        eprintln!("[table3] {}: criticality labelling…", kind.name());
        let labels = criticality::classify(
            &b.net,
            &universe,
            universe.faults(),
            &b.test_inputs(),
            criticality::CriticalityConfig { threads: 0, max_samples: Some(max_samples) },
        );

        eprintln!("[table3] {}: generating test…", kind.name());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let test = TestGenerator::new(&b.net, gen_cfg.clone()).generate(&mut rng);
        let stimulus = test.assembled();

        eprintln!(
            "[table3] {}: verification campaign over {} faults…",
            kind.name(),
            universe.len()
        );
        let campaign = FaultSimulator::new(&b.net, FaultSimConfig::default()).detect(
            &universe,
            universe.faults(),
            std::slice::from_ref(&stimulus),
        );
        eprintln!("[table3] {}: campaign took {}", kind.name(), fmt_duration(campaign.elapsed));
        let coverage =
            CoverageReport::compute(universe.faults(), &labels.critical, &campaign.per_fault);

        // Escape analysis: worst accuracy drop among undetected critical
        // faults (capped per category to bound runtime).
        let cap = if fast { 5 } else { 20 };
        let escapes = |neuron: bool| -> Vec<Fault> {
            universe
                .faults()
                .iter()
                .zip(labels.critical.iter())
                .zip(campaign.per_fault.iter())
                .filter(|((f, &c), o)| c && !o.detected && f.kind.is_neuron() == neuron)
                .map(|((f, _), _)| *f)
                .take(cap)
                .collect()
        };
        let test_labeled = b.test_set();
        let drop_of = |faults: &[Fault]| -> f64 {
            escape_max_accuracy_drop(&b.net, &universe, faults, &test_labeled, 0)
                .map(|(d, _)| d * 100.0)
                .unwrap_or(0.0)
        };
        let drop_neuron = drop_of(&escapes(true));
        let drop_syn = drop_of(&escapes(false));

        let sample_steps = b.dataset.steps();
        // One small table per benchmark, printed as soon as it is done: a
        // run that is cut short keeps what it finished.
        let rows = [
            vec![
                format!("{} (repro)", kind.name()),
                fmt_duration(test.runtime),
                format!("~{:.2}", test.duration_samples(sample_steps)),
                format!("{} ticks", test.test_steps()),
                format!("{:.2}%", test.activated_fraction() * 100.0),
                format!("{:.2}%", coverage.critical_neuron.percent()),
                format!("{:.2}%", coverage.critical_synapse.percent()),
                format!("{:.2}%", coverage.benign_neuron.percent()),
                format!("{:.2}%", coverage.benign_synapse.percent()),
                format!("{drop_neuron:.1}% ({drop_syn:.1}%)"),
                fmt_duration(campaign.elapsed),
            ],
            std::iter::once(format!("{} (paper)", kind.name()))
                .chain(paper[i].iter().map(|cell| cell.to_string()))
                .chain(std::iter::once("-".to_string()))
                .collect(),
        ];
        print_table(
            &format!("Table III: Test generation efficiency metrics — {}", kind.name()),
            &[
                "Benchmark",
                "Gen. runtime",
                "Dur. (samples)",
                "Dur. (time)",
                "Activated",
                "FC crit.N",
                "FC crit.S",
                "FC ben.N",
                "FC ben.S",
                "Max drop N (S)",
                "Campaign",
            ],
            &rows,
        );
        // A pipe or file is block-buffered; a kill must not lose the rows.
        let _ = std::io::stdout().flush();
    }

    println!(
        "\nShape check: critical coverage should be near-perfect and far above\n\
         benign coverage; test duration should be ~10 sample lengths; generation\n\
         runtime is CPU-bound here vs A100 in the paper."
    );
}
