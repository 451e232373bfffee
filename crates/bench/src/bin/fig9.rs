//! Regenerates **Fig. 9 — Per-class spike-count difference distribution**
//! over the detected faults of the optimized test on the IBM-DVS-like
//! benchmark: for each output class, a histogram of
//! `count_faulty − count_fault_free`, rendered as an ASCII log-scale bar
//! chart. While a difference of one spike suffices for detection (Eq. 3),
//! the optimized stimulus spreads fault effects widely — the distribution
//! should show heavy tails.
//!
//! Usage: `cargo run -p snn-bench --bin fig9 --release`
//! (`SNN_MTFC_FAST=1` shrinks the run).

use snn_bench::{Benchmark, BenchmarkKind, PrepConfig, Scale};
use snn_faults::{FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_testgen::{TestGenConfig, TestGenerator};

fn main() {
    let fast = std::env::var("SNN_MTFC_FAST").is_ok();
    let prep = if fast { PrepConfig::fast() } else { PrepConfig::repro() };

    eprintln!("[fig9] preparing IBM benchmark…");
    let b = Benchmark::prepare(BenchmarkKind::Ibm, Scale::Repro, 42, prep);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let cfg = if fast { TestGenConfig::fast() } else { TestGenConfig::repro() };
    eprintln!("[fig9] generating test…");
    let test = TestGenerator::new(&b.net, cfg).generate(&mut rng);
    let stimulus = test.assembled();

    let universe = FaultUniverse::standard(&b.net);
    eprintln!("[fig9] campaign with class-difference recording…");
    let sim_cfg = FaultSimConfig { record_class_diffs: true, ..FaultSimConfig::default() };
    let campaign = FaultSimulator::new(&b.net, sim_cfg).detect(
        &universe,
        universe.faults(),
        std::slice::from_ref(&stimulus),
    );

    // Collect signed per-class differences over detected faults.
    let classes = b.net.output_features();
    let mut per_class: Vec<Vec<f32>> = vec![Vec::new(); classes];
    for o in &campaign.per_fault {
        if let Some(diff) = &o.class_diff {
            for (k, &d) in diff.iter().enumerate() {
                if d != 0.0 {
                    per_class[k].push(d);
                }
            }
        }
    }

    println!(
        "Fig. 9: per-class output spike-count difference over {} detected faults",
        campaign.detected_count()
    );
    // Histogram bins mirroring the paper's broken x-axis: small, medium,
    // tail.
    let bins: &[(f32, f32, &str)] = &[
        (f32::NEG_INFINITY, -50.0, "(-inf,-50)"),
        (-50.0, -10.0, "[-50,-10)"),
        (-10.0, -1.0, "[-10,-1)"),
        (-1.0, 1.0, "[-1,1)"),
        (1.0, 10.0, "[1,10)"),
        (10.0, 50.0, "[10,50)"),
        (50.0, f32::INFINITY, "[50,inf)"),
    ];
    println!("{:<8} {}", "class", bins.iter().map(|b| format!("{:>12}", b.2)).collect::<String>());
    for (k, diffs) in per_class.iter().enumerate() {
        let mut row = format!("{k:<8}");
        for &(lo, hi, _) in bins {
            let n = diffs.iter().filter(|&&d| d >= lo && d < hi).count();
            row.push_str(&format!("{n:>12}"));
        }
        println!("{row}");
    }

    // Log-scale bar chart of the pooled absolute differences.
    let pooled: Vec<f32> = per_class.iter().flatten().copied().collect();
    println!("\npooled |difference| distribution (log-scale bars):");
    let abs_bins: &[(f32, f32, &str)] = &[
        (1.0, 2.0, "1"),
        (2.0, 5.0, "2-4"),
        (5.0, 10.0, "5-9"),
        (10.0, 25.0, "10-24"),
        (25.0, 50.0, "25-49"),
        (50.0, 100.0, "50-99"),
        (100.0, f32::INFINITY, "100+"),
    ];
    for &(lo, hi, label) in abs_bins {
        let n = pooled.iter().filter(|&&d| d.abs() >= lo && d.abs() < hi).count();
        let bar = "#".repeat(((n.max(1) as f64).log10() * 10.0).ceil() as usize);
        println!("{label:>6} | {bar} {n}");
    }
    let max_abs = pooled.iter().map(|d| d.abs()).fold(0.0f32, f32::max);
    println!(
        "\ndetected faults: {}, max |class diff|: {max_abs:.0} spikes — a single\n\
         spike suffices for detection, so mass beyond 1 shows the optimized test\n\
         propagates fault effects strongly (paper Fig. 9's heavy tails).",
        campaign.detected_count()
    );
}
