//! Regenerates **Table II — Fault simulation results**: the number of
//! critical and benign neuron/synapse faults and the labelling campaign
//! time, per benchmark.
//!
//! The paper runs this campaign over the full dataset on an A100 (days of
//! wall clock at paper scale — the very cost the proposed method avoids);
//! here it runs at repro scale over the first samples of the test split,
//! one detection campaign per sample on all cores.
//!
//! Usage: `cargo run -p snn-bench --bin table2 --release`
//!   `SNN_MTFC_FAST=1`     — fewer samples/faults for smoke runs
//!   `SNN_MTFC_SAMPLES=n`  — criticality sample cap (default 12, 4 under
//!   `SNN_MTFC_FAST`)

use snn_bench::{fmt_duration, print_table, Benchmark, BenchmarkKind, PrepConfig, Scale};
use snn_faults::{criticality, FaultKind, FaultUniverse};

fn main() {
    let fast = std::env::var("SNN_MTFC_FAST").is_ok();
    let prep = if fast { PrepConfig::fast() } else { PrepConfig::repro() };
    let max_samples: usize = std::env::var("SNN_MTFC_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 4 } else { 12 });

    let paper: [[&str; 5]; 3] = [
        ["2922", "658", "96203", "89521", "~5 days (A100)"],
        ["25378", "24820", "934872", "2243976", "~19 days (A100)"],
        ["794", "14", "311955", "62829", "~8 days (A100)"],
    ];

    let mut rows = Vec::new();
    for (i, kind) in BenchmarkKind::ALL.iter().enumerate() {
        eprintln!("[table2] preparing {} benchmark…", kind.name());
        let b = Benchmark::prepare(*kind, Scale::Repro, 42, prep);
        let universe = FaultUniverse::standard(&b.net);
        let inputs = b.test_inputs();

        eprintln!(
            "[table2] {}: labelling {} faults against {} samples…",
            kind.name(),
            universe.len(),
            max_samples.min(inputs.len())
        );
        let report = criticality::classify(
            &b.net,
            &universe,
            universe.faults(),
            &inputs,
            criticality::CriticalityConfig { threads: 0, max_samples: Some(max_samples) },
        );

        let mut crit_neuron = 0usize;
        let mut ben_neuron = 0usize;
        let mut crit_syn = 0usize;
        let mut ben_syn = 0usize;
        for (f, &c) in universe.faults().iter().zip(report.critical.iter()) {
            match (f.kind.is_neuron(), c) {
                (true, true) => crit_neuron += 1,
                (true, false) => ben_neuron += 1,
                (false, true) => crit_syn += 1,
                (false, false) => ben_syn += 1,
            }
        }
        // Sanity: universe multiplicity follows the paper (2/neuron,
        // 3/synapse).
        debug_assert_eq!(
            universe.faults().iter().filter(|f| f.kind == FaultKind::NeuronDead).count() * 2,
            universe.neuron_fault_count()
        );

        rows.push(vec![
            format!("{} (repro)", kind.name()),
            crit_neuron.to_string(),
            ben_neuron.to_string(),
            crit_syn.to_string(),
            ben_syn.to_string(),
            fmt_duration(report.elapsed),
        ]);
        rows.push(vec![
            format!("{} (paper)", kind.name()),
            paper[i][0].into(),
            paper[i][1].into(),
            paper[i][2].into(),
            paper[i][3].into(),
            paper[i][4].into(),
        ]);
    }

    print_table(
        "Table II: Fault simulation results",
        &[
            "Benchmark",
            "Crit. neuron",
            "Benign neuron",
            "Crit. synapse",
            "Benign synapse",
            "Sim time",
        ],
        &rows,
    );
    println!(
        "\nNote: criticality is labelled against {max_samples} test samples (paper: full\n\
         dataset). Fault totals are exactly 2/neuron + 3/synapse, as in the paper."
    );
}
