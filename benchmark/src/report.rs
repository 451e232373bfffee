//! The metric catalogue and the result a run prints and saves.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and bounds; a unit test keeps the two in step.

use crate::stats::Summary;
use serde::{json, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A user-visible metric: reported by the untraced run of every
/// workload, never zero, and bounded — `bound` is the share of the
/// parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A single layer's metric: reported by the traced run, unbounded.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states it; the catalogue test compares.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("campaign_faults_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("test_ticks", "ticks", Better::Lower, 0.10),
    e2e("fault_coverage", "ratio", Better::Higher, 0.15),
];

pub const PER_LAYER: [PerLayer; 42] = [
    higher("tensor.matvec_gflops", "gflop/s"),
    higher("tensor.conv2d_gflops", "gflop/s"),
    higher("tensor.conv2d_bwd_gflops", "gflop/s"),
    lower("model.load_s", "s"),
    higher("model.forward_ticks_per_s", "1/s"),
    higher("model.backward_ticks_per_s", "1/s"),
    lower("testgen.generate_s", "s"),
    lower("testgen.stage1_step_ms", "ms"),
    lower("testgen.stage2_step_ms", "ms"),
    lower("testgen.iterations", "count"),
    lower("testgen.growths", "count"),
    lower("testgen.chunks", "count"),
    lower("testgen.chunks_kept", "count"),
    higher("testgen.activated_fraction", "ratio"),
    lower("testgen.compact_s", "s"),
    lower("testgen.events_io_s", "s"),
    lower("faults.universe_s", "s"),
    lower("faults.universe_faults", "count"),
    lower("faults.campaign_faults", "count"),
    higher("faults.detected", "count"),
    lower("faults.digest_s", "s"),
    higher("faults.scalar_faults_per_s", "1/s"),
    lower("batch.campaign_s", "s"),
    higher("batch.packable_share", "ratio"),
    higher("batch.packed_faults_per_s", "1/s"),
    higher("batch.thread_scaling", "ratio"),
    lower("analyze.analyze_s", "s"),
    higher("analyze.collapse_ratio", "ratio"),
    lower("service.ping_rtt_us", "us"),
    lower("service.submit_rtt_ms", "ms"),
    lower("service.generation_ms", "ms"),
    lower("service.fault_sim_ms", "ms"),
    lower("service.overhead_ms", "ms"),
    lower("cluster.chunks_completed", "count"),
    lower("cluster.chunks_reissued", "count"),
    lower("cluster.results_stale", "count"),
    lower("cluster.ms_per_chunk", "ms"),
    higher("cluster.worker_busy_share", "ratio"),
    lower("cluster.local_fault_sim_ms", "ms"),
    higher("cluster.efficiency_vs_local", "ratio"),
    higher("bench.attributed_share", "ratio"),
    lower("bench.trace_overhead_ratio", "ratio"),
];

/// One reported value. `summary` carries the quartiles and the sample
/// count when the value is a median over repetitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub summary: Option<Summary>,
}

/// What one run of one workload produced; saved as JSON under
/// `benchmark/out/` and read back by `compare`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub reps: usize,
    /// Operations attempted and failed, set-up passes included.
    pub attempted: usize,
    pub failed: usize,
    /// Verdict digest every repetition reproduced.
    pub digest: String,
    /// Where and on what the run was made (git rev, host cores, rustc),
    /// gathered by the caller and passed in as flags.
    pub meta: BTreeMap<String, String>,
    pub metrics: Vec<Measured>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The last line of a run's standard output.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ];
                (m.name.clone(), Value::Map(body))
            })
            .collect();
        json::to_string(&Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]))
    }

    /// `workload metric value unit` lines, one per metric, with the
    /// quartiles and sample count of medians.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{} {} {} {}", self.workload, m.name, m.value, m.unit));
            if let Some(s) = m.summary {
                out.push_str(&format!("  (q1 {} q3 {} n {})", s.q1, s.q3, s.n));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            workload: "pipeline-dense".into(),
            seed: 7,
            trace: false,
            reps: 12,
            attempted: 15,
            failed: 0,
            digest: "00ff00ff00ff00ff".into(),
            meta: BTreeMap::from([("host_cores".to_string(), "2".to_string())]),
            metrics: vec![
                Measured {
                    name: "wall_s".into(),
                    unit: "s".into(),
                    value: 0.4375,
                    summary: Some(Summary { median: 0.4375, q1: 0.43, q3: 0.45, n: 12 }),
                },
                Measured {
                    name: "test_ticks".into(),
                    unit: "ticks".into(),
                    value: 96.0,
                    summary: None,
                },
            ],
        }
    }

    #[test]
    fn saved_result_round_trips() {
        let report = sample_report();
        let text = json::to_string_pretty(&report);
        assert_eq!(json::from_str::<Report>(&text).unwrap(), report);
        assert!(json::from_str::<Report>("{}").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample_report().result_line();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_map("result").unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_num("value").unwrap(), 0.4375);
        assert_eq!(wall.get("unit").unwrap().as_str("unit").unwrap(), "s");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            v.get(key)
                .unwrap()
                .as_seq(key)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str(k).unwrap().to_string();
                    let bound = m.get("bound").map(|b| b.as_num("bound").unwrap());
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let word = |b: Better| if b == Better::Lower { "lower" } else { "higher" }.to_string();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), word(m.better), Some(m.bound)))
            .collect();
        assert_eq!(listed("end_to_end"), ours);
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), word(m.better), None))
            .collect();
        assert_eq!(listed("per_layer"), ours);
        let workloads: Vec<String> = v
            .get("workloads")
            .unwrap()
            .as_seq("workloads")
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str("name").unwrap().to_string())
            .collect();
        let ours: Vec<_> = crate::workload::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
