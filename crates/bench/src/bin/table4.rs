//! Regenerates **Table IV — Comparison with previous works** on the
//! NMNIST benchmark: the proposed optimized test vs the dataset-greedy
//! method of \[18\], the adversarial method of \[17\]/\[19\], and the random
//! method of \[20\] — all implemented in `snn-baselines` and run against
//! the *same* network and fault model.
//!
//! Reported per method: test stimulus type, generation time, number of
//! fault-simulation campaigns spent during generation (the paper's
//! `O(M·T_FS)` vs `O(M+T_FS)` argument), number of test configurations,
//! test duration in samples and ticks, and achieved coverage of critical
//! faults.
//!
//! Usage: `cargo run -p snn-bench --bin table4 --release`
//!   `SNN_MTFC_FAST=1` — smoke-run sizes

use snn_baselines::{
    adversarial_greedy, dataset_greedy, random_inputs, AdversarialConfig, BaselineConfig,
};
use snn_bench::{fmt_duration, print_table, Benchmark, BenchmarkKind, PrepConfig, Scale};
use snn_faults::{criticality, Fault, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_testgen::{TestGenConfig, TestGenerator};

fn main() {
    let fast = std::env::var("SNN_MTFC_FAST").is_ok();
    let prep = if fast { PrepConfig::fast() } else { PrepConfig::repro() };

    eprintln!("[table4] preparing NMNIST benchmark…");
    let b = Benchmark::prepare(BenchmarkKind::Nmnist, Scale::Repro, 42, prep);
    let universe = FaultUniverse::standard(&b.net);
    let sample_steps = b.dataset.steps();

    // Compare on the critical faults (the paper's primary target).
    eprintln!("[table4] criticality labelling…");
    let labels = criticality::classify(
        &b.net,
        &universe,
        universe.faults(),
        &b.test_inputs(),
        criticality::CriticalityConfig { threads: 0, max_samples: Some(if fast { 4 } else { 12 }) },
    );
    let critical: Vec<Fault> = universe
        .faults()
        .iter()
        .zip(labels.critical.iter())
        .filter(|(_, &c)| c)
        .map(|(f, _)| *f)
        .collect();
    eprintln!("[table4] {} critical faults in play", critical.len());

    let pool_size = if fast { 6 } else { 40 };
    let pool = snn_datasets::materialize_inputs(b.dataset.as_ref(), 0..pool_size);
    let base_cfg =
        BaselineConfig { target_coverage: 0.99, max_inputs: if fast { 5 } else { 60 }, threads: 0 };
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);

    // --- Proposed method -------------------------------------------------
    eprintln!("[table4] proposed method…");
    let gen_cfg = if fast { TestGenConfig::fast() } else { TestGenConfig::repro() };
    let ours = TestGenerator::new(&b.net, gen_cfg).generate(&mut rng);
    let stimulus = ours.assembled();
    let ours_cov = FaultSimulator::new(&b.net, FaultSimConfig::default())
        .detect(&universe, &critical, std::slice::from_ref(&stimulus))
        .fault_coverage();

    // --- Baselines --------------------------------------------------------
    eprintln!("[table4] dataset-greedy [18]…");
    let greedy = dataset_greedy(&b.net, &universe, &critical, &pool, &base_cfg);
    eprintln!("[table4] adversarial [17]/[19]…");
    let adv = adversarial_greedy(
        &b.net,
        &universe,
        &critical,
        &pool,
        AdversarialConfig { steps: if fast { 6 } else { 30 }, ..AdversarialConfig::default() },
        &mut rng,
        &base_cfg,
    );
    eprintln!("[table4] random [20]…");
    let random = random_inputs(&b.net, &universe, &critical, sample_steps, &mut rng, &base_cfg);

    let rows = vec![
        vec![
            "This work".into(),
            "Optimized".into(),
            fmt_duration(ours.runtime),
            "0".into(),
            "1".into(),
            format!("~{:.2}", ours.duration_samples(sample_steps)),
            format!("{} ticks", ours.test_steps()),
            format!("{:.2}%", ours_cov * 100.0),
        ],
        vec![
            "[18] greedy".into(),
            "Dataset".into(),
            fmt_duration(greedy.generation_time),
            greedy.fault_sim_campaigns.to_string(),
            "1".into(),
            format!("{:.2}", greedy.duration_samples(sample_steps)),
            format!("{} ticks", greedy.test_steps()),
            format!("{:.2}%", greedy.coverage() * 100.0),
        ],
        vec![
            "[17]/[19] adv.".into(),
            "Adversarial".into(),
            fmt_duration(adv.generation_time),
            adv.fault_sim_campaigns.to_string(),
            "1".into(),
            format!("{:.2}", adv.duration_samples(sample_steps)),
            format!("{} ticks", adv.test_steps()),
            format!("{:.2}%", adv.coverage() * 100.0),
        ],
        vec![
            "[20] random".into(),
            "Random".into(),
            fmt_duration(random.generation_time),
            random.fault_sim_campaigns.to_string(),
            "1".into(),
            format!("{:.2}", random.duration_samples(sample_steps)),
            format!("{} ticks", random.test_steps()),
            format!("{:.2}%", random.coverage() * 100.0),
        ],
    ];

    print_table(
        "Table IV: Comparison with previous works (NMNIST, critical faults)",
        &[
            "Method",
            "Stimulus",
            "Gen. time",
            "FS campaigns",
            "Configs",
            "Dur. (samples)",
            "Dur. (time)",
            "FC critical",
        ],
        &rows,
    );
    println!(
        "\nPaper reference (NMNIST, paper scale): this work 1.5 h / ~8.76 samples /\n\
         4.96 s; [18] 10 days / 195 samples; [17] 26.19 days / 302 samples;\n\
         [19] 662 samples over 18 configs; [20] 190 samples over 44 configs.\n\
         Shape check: the proposed test should need ~an order of magnitude fewer\n\
         sample-lengths at comparable critical-fault coverage, with zero fault-\n\
         simulation campaigns during generation."
    );
}
