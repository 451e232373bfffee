//! Benchmark harness regenerating every table and figure of the paper.
//!
//! The three benchmarks (NMNIST-like, IBM-DVS-like, SHD-like) exist at two
//! scales:
//!
//! * [`Scale::Repro`] — spatially downscaled networks and datasets on
//!   which the *entire* pipeline (training, fault campaign, test
//!   generation, baselines) runs in minutes on a laptop CPU. All `tableN`
//!   / `figN` binaries default to this scale.
//! * [`Scale::Paper`] — the paper's geometries (for the IBM benchmark the
//!   architecture reproduces Table I's neuron/synapse counts exactly).
//!   Static characteristics are always printable; running the full
//!   pipeline at this scale is a multi-hour job, as in the paper.
//!
//! Shape, not absolute numbers: the simulator is a CPU process, not an
//! A100 + SLAYER stack, so wall-clock entries differ from the paper; the
//! comparisons that matter (who wins, by what factor, where coverage
//! saturates) are preserved and printed next to the paper's values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use snn_datasets::{GestureLike, NmnistLike, ShdLike, SpikeDataset};
use snn_model::train::{evaluate, TrainConfig, Trainer};
use snn_model::{LifParams, Network, NetworkBuilder};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Benchmark identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkKind {
    /// NMNIST-like digit recognition (dense network).
    Nmnist,
    /// IBM-DVS-Gesture-like recognition (convolutional network).
    Ibm,
    /// SHD-like spoken digits (recurrent network).
    Shd,
}

impl BenchmarkKind {
    /// All three benchmarks in paper order.
    pub const ALL: [BenchmarkKind; 3] =
        [BenchmarkKind::Nmnist, BenchmarkKind::Ibm, BenchmarkKind::Shd];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkKind::Nmnist => "NMNIST",
            BenchmarkKind::Ibm => "IBM",
            BenchmarkKind::Shd => "SHD",
        }
    }
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale geometry; the default for all binaries.
    Repro,
    /// The paper's geometry.
    Paper,
}

/// Builds the dataset of a benchmark at a scale.
pub fn build_dataset(kind: BenchmarkKind, scale: Scale, seed: u64) -> Box<dyn SpikeDataset> {
    match (kind, scale) {
        (BenchmarkKind::Nmnist, Scale::Repro) => Box::new(NmnistLike::new(16, 48, 2_000, seed)),
        (BenchmarkKind::Nmnist, Scale::Paper) => Box::new(NmnistLike::paper(seed)),
        (BenchmarkKind::Ibm, Scale::Repro) => Box::new(GestureLike::new(24, 48, 1_100, seed)),
        (BenchmarkKind::Ibm, Scale::Paper) => Box::new(GestureLike::paper(seed)),
        (BenchmarkKind::Shd, Scale::Repro) => Box::new(ShdLike::new(140, 50, 2_000, seed)),
        (BenchmarkKind::Shd, Scale::Paper) => Box::new(ShdLike::paper(seed)),
    }
}

/// Builds the (untrained) benchmark network at a scale.
///
/// The paper-scale IBM topology reproduces Table I exactly:
/// `pool4 → conv16c5p2 → pool2 → conv32c3p1 → pool2 → dense512 → dense11`
/// gives 24,576 + 512 + 11 = 25,099 neurons and 1,059,616 weights.
pub fn build_network(kind: BenchmarkKind, scale: Scale, rng: &mut StdRng) -> Network {
    let lif = LifParams { threshold: 1.0, leak: 0.9, refrac_steps: 1 };
    match (kind, scale) {
        (BenchmarkKind::Nmnist, Scale::Repro) => {
            NetworkBuilder::new_spatial(2, 16, 16, lif).avg_pool(2).dense(48).dense(10).build(rng)
        }
        (BenchmarkKind::Nmnist, Scale::Paper) => {
            // ≈ Table I: 1,790 neurons / 61,908 synapses. This topology
            // gives 1,734 + 35 + 10 = 1,779 neurons (−0.6%) and
            // 300 + 60,690 + 350 = 61,340 weights (−0.9%).
            NetworkBuilder::new_spatial(2, 34, 34, lif)
                .conv(6, 5, 2, 2)
                .dense(35)
                .dense(10)
                .build(rng)
        }
        (BenchmarkKind::Ibm, Scale::Repro) => NetworkBuilder::new_spatial(2, 24, 24, lif)
            .avg_pool(2)
            .conv(6, 5, 1, 2)
            .avg_pool(2)
            .dense(32)
            .dense(11)
            .build(rng),
        (BenchmarkKind::Ibm, Scale::Paper) => NetworkBuilder::new_spatial(2, 128, 128, lif)
            .avg_pool(4)
            .conv(16, 5, 1, 2)
            .avg_pool(2)
            .conv(32, 3, 1, 1)
            .avg_pool(2)
            .dense(512)
            .dense(11)
            .build(rng),
        (BenchmarkKind::Shd, Scale::Repro) => {
            NetworkBuilder::new(140, lif).recurrent(32).dense(20).build(rng)
        }
        (BenchmarkKind::Shd, Scale::Paper) => {
            // ≈ Table I: 404 neurons / 124,928 synapses. 700→128→256→20
            // gives exactly 404 neurons and 127,488 weights (+2.0%); the
            // repro-scale variant keeps a recurrent layer to exercise that
            // architecture class (the paper's SHD models are recurrent).
            NetworkBuilder::new(700, lif).dense(128).dense(256).dense(20).build(rng)
        }
    }
}

/// A trained, ready-to-test benchmark.
pub struct Benchmark {
    /// Benchmark identity.
    pub kind: BenchmarkKind,
    /// Scale it was built at.
    pub scale: Scale,
    /// The trained network.
    pub net: Network,
    /// Its dataset.
    pub dataset: Box<dyn SpikeDataset>,
    /// Sample indices used for training.
    pub train_range: Range<usize>,
    /// Sample indices used for evaluation / criticality labelling.
    pub test_range: Range<usize>,
    /// Top-1 accuracy on the test range after training.
    pub accuracy: f64,
    /// Wall-clock training time.
    pub train_time: Duration,
}

/// Training effort for benchmark preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepConfig {
    /// Training samples to materialize.
    pub train_samples: usize,
    /// Test samples for accuracy/criticality.
    pub test_samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
}

impl PrepConfig {
    /// Default preparation at repro scale.
    pub fn repro() -> Self {
        Self { train_samples: 160, test_samples: 60, epochs: 6, batch: 8 }
    }

    /// Quick preparation for smoke tests.
    pub fn fast() -> Self {
        Self { train_samples: 40, test_samples: 20, epochs: 2, batch: 8 }
    }
}

impl Benchmark {
    /// Builds and trains a benchmark.
    pub fn prepare(kind: BenchmarkKind, scale: Scale, seed: u64, prep: PrepConfig) -> Benchmark {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = build_dataset(kind, scale, seed);
        let mut net = build_network(kind, scale, &mut rng);

        let train_range = 0..prep.train_samples.min(dataset.len());
        let test_start = train_range.end;
        let test_range = test_start..(test_start + prep.test_samples).min(dataset.len());

        let started = Instant::now();
        let train_set = snn_datasets::materialize(dataset.as_ref(), train_range.clone());
        let mut trainer = Trainer::new(&net, TrainConfig { lr: 0.015, ..TrainConfig::default() });
        for _ in 0..prep.epochs {
            for chunk in train_set.chunks(prep.batch) {
                trainer.train_batch(&mut net, chunk);
            }
        }
        let train_time = started.elapsed();

        let test_set = snn_datasets::materialize(dataset.as_ref(), test_range.clone());
        let accuracy = f64::from(evaluate(&net, &test_set));

        Benchmark { kind, scale, net, dataset, train_range, test_range, accuracy, train_time }
    }

    /// Materialized `(input, label)` test set.
    pub fn test_set(&self) -> Vec<(snn_tensor::Tensor, usize)> {
        snn_datasets::materialize(self.dataset.as_ref(), self.test_range.clone())
    }

    /// Materialized test inputs only.
    pub fn test_inputs(&self) -> Vec<snn_tensor::Tensor> {
        snn_datasets::materialize_inputs(self.dataset.as_ref(), self.test_range.clone())
    }
}

/// Renders an ASCII table with a title, headers and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
    println!("\n== {title} ==");
    println!("+{line}+");
    let fmt_row = |cells: &[String]| {
        let body: Vec<String> =
            cells.iter().zip(widths.iter()).map(|(c, w)| format!(" {c:<w$} ")).collect();
        println!("|{}|", body.join("|"));
    };
    fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("+{line}+");
    for row in rows {
        fmt_row(row);
    }
    println!("+{line}+");
}

/// Formats a `Duration` compactly (`1.52s`, `2.3min`).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.0}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_networks_chain_correctly() {
        let mut rng = StdRng::seed_from_u64(0);
        for kind in BenchmarkKind::ALL {
            let ds = build_dataset(kind, Scale::Repro, 0);
            let net = build_network(kind, Scale::Repro, &mut rng);
            assert_eq!(
                net.input_features(),
                ds.input_shape().len(),
                "{}: dataset/network geometry mismatch",
                kind.name()
            );
            assert_eq!(net.output_features(), ds.classes());
        }
    }

    #[test]
    fn paper_ibm_counts_match_table1_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = build_network(BenchmarkKind::Ibm, Scale::Paper, &mut rng);
        assert_eq!(net.neuron_count(), 25_099);
        assert_eq!(net.synapse_count(), 1_059_616);
    }

    #[test]
    fn paper_nmnist_and_shd_counts_are_close_to_table1() {
        let mut rng = StdRng::seed_from_u64(2);
        // Table I: NMNIST 1,790 neurons / 61,908 synapses — within 1%.
        let nm = build_network(BenchmarkKind::Nmnist, Scale::Paper, &mut rng);
        assert_eq!(nm.neuron_count(), 1_779);
        assert_eq!(nm.synapse_count(), 61_340);
        // Table I: SHD 404 neurons (exact) / 124,928 synapses — within 3%.
        let shd = build_network(BenchmarkKind::Shd, Scale::Paper, &mut rng);
        assert_eq!(shd.neuron_count(), 404);
        assert_eq!(shd.synapse_count(), 127_488);
    }

    #[test]
    fn fast_preparation_learns_something() {
        let b = Benchmark::prepare(BenchmarkKind::Nmnist, Scale::Repro, 7, PrepConfig::fast());
        // 10 classes ⇒ chance is 0.1; a briefly trained net should beat it.
        assert!(b.accuracy > 0.1, "accuracy {}", b.accuracy);
        assert!(!b.test_set().is_empty());
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(fmt_duration(Duration::from_millis(500)), "500ms");
        assert_eq!(fmt_duration(Duration::from_secs(20)), "20.00s");
        assert!(fmt_duration(Duration::from_secs(600)).ends_with("min"));
    }
}
