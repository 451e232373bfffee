//! `snn-benchmark` — the repository's benchmark harness.
//!
//! ```text
//! snn-benchmark run --workload W --seed N --seconds S --trace 0|1
//!                   [--out-dir DIR] [--meta KEY=VALUE]... [--smoke]
//! snn-benchmark compare A/ B/
//! ```
//!
//! `run` measures one workload in this process and prints, as the last
//! line of its standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. The same result,
//! with quartiles and sample counts, is saved as
//! `<out-dir>/<workload>.json` (`<workload>.trace.json` when traced).
//! `compare` judges two directories of saved end-to-end results against
//! the bounds of the metric catalogue. See `benchmark/README.md`.

mod cluster;
mod compare;
mod pipeline;
mod probes;
mod procfs;
mod report;
mod run;
mod span;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// Arguments of `run`.
pub struct RunArgs {
    pub workload: Workload,
    /// Seed of the generator's random stream (`snn-mtfc generate --seed`).
    pub seed: u64,
    /// How long the timed repetitions go on.
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes, for the harness's own tests.
    pub smoke: bool,
    /// Results, the trace and the run's scratch files go here.
    pub out_dir: PathBuf,
    /// Stamped into the saved result.
    pub meta: BTreeMap<String, String>,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Self {
            workload: Workload::PipelineDense,
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
            meta: BTreeMap::new(),
        };
        let mut workload = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                parsed.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value)?),
                "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                        return Err(bad(&"must be in (0, 600]"));
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                "--out-dir" => parsed.out_dir = PathBuf::from(value),
                "--meta" => {
                    let (k, v) = value.split_once('=').ok_or_else(|| bad(&"expected KEY=VALUE"))?;
                    parsed.meta.insert(k.to_string(), v.to_string());
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        parsed.workload = workload.ok_or("missing --workload")?;
        Ok(parsed)
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = RunArgs::parse(args)?;
    let report = run::run(&args)?;
    let suffix = if args.trace { ".trace.json" } else { ".json" };
    let path = args.out_dir.join(format!("{}{suffix}", report.workload));
    std::fs::write(&path, serde::json::to_string_pretty(&report))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(report.failed == 0)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("usage: snn-benchmark compare A/ B/".into()) };
    Ok(compare::compare(Path::new(a), Path::new(b))? == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err("usage: snn-benchmark run|compare ... (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    /// Every workload, untraced and traced, on the toy network: all code
    /// paths including the 2-worker cluster, in seconds.
    #[test]
    fn smoke_run_reports_every_named_metric() {
        let out_dir =
            std::env::temp_dir().join(format!("snn-benchmark-smoke-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = RunArgs {
                    workload,
                    seed: 3,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                    out_dir: out_dir.clone(),
                    meta: BTreeMap::new(),
                };
                let report = run::run(&args).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert_eq!(report.failed, 0, "{}", workload.name());
                assert!(report.attempted >= 1 && report.reps >= 1);
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
                let want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(names, want, "{} trace={trace}", workload.name());
                for m in &report.metrics {
                    assert!(m.value.is_finite(), "{} {} = {}", workload.name(), m.name, m.value);
                }
                if !trace {
                    for m in &report.metrics {
                        assert!(m.value > 0.0, "{} {} = {}", workload.name(), m.name, m.value);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn run_flags_are_validated() {
        let parse = |s: &str| {
            RunArgs::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).map(|_| ())
        };
        assert!(parse("--workload cluster-dense --seed 4 --seconds 10 --trace 1").is_ok());
        assert!(parse("--seed 4").unwrap_err().contains("missing --workload"));
        assert!(parse("--workload nope").unwrap_err().contains("unknown workload"));
        assert!(parse("--workload cluster-dense --trace 2").unwrap_err().contains("0 or 1"));
        assert!(parse("--workload cluster-dense --seconds 0").is_err());
        assert!(parse("--workload cluster-dense --seed").unwrap_err().contains("needs a value"));
    }
}
