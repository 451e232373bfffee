//! `compare A/ B/`: two sets of saved end-to-end results, metric by
//! metric, judged against the catalogue's bounds.

use crate::report::{Better, EndToEnd, Measured, Report, END_TO_END};
use crate::workload::Workload;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The medians are known less precisely than the bound, so the
    /// bound cannot be checked.
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the base `a`.
pub fn judge(metric: &EndToEnd, a: &Measured, b: &Measured) -> Verdict {
    // A median of n repetitions moves between runs by about the
    // repetitions' own inter-quartile spread over the root of n.
    let spread = |m: &Measured| m.summary.map_or(0.0, |s| s.spread() / (s.n as f64).sqrt());
    if spread(a) > metric.bound || spread(b) > metric.bound {
        return Verdict::Unresolved;
    }
    let worsening = match metric.better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(dir: &Path, workload: Workload) -> Result<Report, String> {
    let path = dir.join(format!("{}.json", workload.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    serde::json::from_str(&text).map_err(|e| format!("{path:?}: {e}"))
}

/// Prints one row per workload × end-to-end metric; returns how many
/// rows are `worse` or `unresolved`.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<usize, String> {
    let mut flagged = 0;
    println!("workload metric A B B/A(base A) bound verdict");
    for workload in Workload::ALL {
        let (a, b) = (load(a_dir, workload)?, load(b_dir, workload)?);
        let cores = |r: &Report| r.meta.get("host_cores").cloned();
        if cores(&a) != cores(&b) {
            return Err(format!(
                "{}: host_cores differ ({:?} vs {:?}); results compare only at equal core counts",
                workload.name(),
                cores(&a),
                cores(&b)
            ));
        }
        for metric in &END_TO_END {
            let find = |r: &Report| {
                r.metric(metric.name)
                    .cloned()
                    .ok_or_else(|| format!("{}: no metric {}", workload.name(), metric.name))
            };
            let (ma, mb) = (find(&a)?, find(&b)?);
            let verdict = judge(metric, &ma, &mb);
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                flagged += 1;
            }
            println!(
                "{} {} {} {} {:.4} {} {}",
                workload.name(),
                metric.name,
                ma.value,
                mb.value,
                mb.value / ma.value,
                metric.bound,
                verdict.word()
            );
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    /// A median of 16 repetitions whose quartiles lie `spread` apart.
    fn measured(value: f64, spread: f64) -> Measured {
        let half = value * spread / 2.0;
        Measured {
            name: "m".into(),
            unit: "s".into(),
            value,
            summary: Some(Summary { median: value, q1: value - half, q3: value + half, n: 16 }),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = EndToEnd { name: "m", unit: "s", better: Better::Lower, bound: 0.10 };
        let higher = EndToEnd { better: Better::Higher, ..lower };
        let base = measured(1.0, 0.02);
        assert_eq!(judge(&lower, &base, &measured(1.05, 0.02)), Verdict::WithinBound);
        assert_eq!(judge(&lower, &base, &measured(1.2, 0.02)), Verdict::Worse);
        assert_eq!(judge(&lower, &base, &measured(0.8, 0.02)), Verdict::Better);
        assert_eq!(judge(&higher, &base, &measured(1.2, 0.02)), Verdict::Better);
        assert_eq!(judge(&higher, &base, &measured(0.8, 0.02)), Verdict::Worse);
        assert_eq!(judge(&lower, &base, &measured(1.2, 0.3)), Verdict::Worse);
        assert_eq!(judge(&lower, &base, &measured(1.2, 0.5)), Verdict::Unresolved);
        assert_eq!(judge(&lower, &measured(1.0, 0.5), &measured(1.0, 0.0)), Verdict::Unresolved);
    }
}
