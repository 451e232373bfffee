//! Span-tree aggregation and rendering for `snn profile`.
//!
//! A JSONL trace is a flat list of [`SpanRecord`]s; this module folds it
//! into a tree of [`ProfileNode`]s, merging same-named siblings (so 400
//! `stage1` iterations render as one line with `count = 400`), and
//! renders the tree with per-node **total** and **self** time, where
//! `total == self + Σ children.total` by construction.

use crate::trace::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One aggregated node of the span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name shared by every span merged into this node.
    pub name: String,
    /// Number of spans merged into this node.
    pub count: u64,
    /// Summed wall-clock duration of the merged spans.
    pub total: Duration,
    /// `total` minus the children's totals: time spent in this span
    /// itself.
    pub self_time: Duration,
    /// Aggregated children, descending by total (name-ascending ties).
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Finds a node by name anywhere in this subtree (pre-order).
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Folds a flat trace into aggregated root nodes.
///
/// Spans whose parent id is absent from the trace are treated as roots
/// (this happens when a trace is filtered or truncated mid-write).
pub fn build(records: &[SpanRecord]) -> Vec<ProfileNode> {
    let known: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut children_of: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for record in records {
        match record.parent.filter(|p| known.contains_key(p)) {
            Some(parent) => children_of.entry(parent).or_default().push(record),
            None => roots.push(record),
        }
    }
    aggregate(&roots, &children_of)
}

/// Groups `spans` (siblings) by name into one node each, recursing into
/// their children.
fn aggregate(
    spans: &[&SpanRecord],
    children_of: &BTreeMap<u64, Vec<&SpanRecord>>,
) -> Vec<ProfileNode> {
    let mut groups: BTreeMap<&str, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        groups.entry(span.name.as_str()).or_default().push(span);
    }
    let mut nodes: Vec<ProfileNode> = groups
        .into_iter()
        .map(|(name, members)| {
            let total: Duration = members.iter().map(|s| s.duration()).sum();
            let grandchildren: Vec<&SpanRecord> = members
                .iter()
                .flat_map(|m| children_of.get(&m.id).into_iter().flatten().copied())
                .collect();
            let children = aggregate(&grandchildren, children_of);
            let child_total: Duration = children.iter().map(|c| c.total).sum();
            ProfileNode {
                name: name.to_string(),
                count: members.len() as u64,
                total,
                self_time: total.saturating_sub(child_total),
                children,
            }
        })
        .collect();
    nodes.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
    nodes
}

/// Renders the aggregated tree as an indented table:
///
/// ```text
///      TOTAL       SELF  COUNT  SPAN
///    12.003s     0.413s      1  generate
///    11.590s    11.590s    400    stage1
/// ```
pub fn render(roots: &[ProfileNode]) -> String {
    let mut out = String::from("     TOTAL       SELF   COUNT  SPAN\n");
    for root in roots {
        render_node(&mut out, root, 0);
    }
    out
}

fn render_node(out: &mut String, node: &ProfileNode, depth: usize) {
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>7}  {}{}",
        fmt_duration(node.total),
        fmt_duration(node.self_time),
        node.count,
        "  ".repeat(depth),
        node.name,
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

/// One aggregated row of the kernel-phase table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase span name (`phase.inject`, `phase.forward.l0`, …).
    pub name: String,
    /// Summed sample count across the trace's `phase.*` spans (each
    /// synthetic span carries its sample count in a `count` attribute;
    /// spans without one count as a single sample).
    pub count: u64,
    /// Summed wall time of the phase.
    pub total: Duration,
}

/// Aggregates every synthetic `phase.*` span in a trace — wherever it
/// sits in the tree — into one row per phase name, sorted by fixed slot
/// order: the order [`PhaseSnapshot::entries`](crate::phase::PhaseSnapshot::entries)
/// emits, which `phase.*` names sort to lexicographically.
pub fn phase_rows(records: &[SpanRecord]) -> Vec<PhaseRow> {
    let mut rows: BTreeMap<&str, (u64, Duration)> = BTreeMap::new();
    for record in records {
        if !record.name.starts_with("phase.") {
            continue;
        }
        let count = record
            .attrs
            .iter()
            .find(|(k, _)| k == "count")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .unwrap_or(1);
        let row = rows.entry(record.name.as_str()).or_insert((0, Duration::ZERO));
        row.0 += count;
        row.1 += record.duration();
    }
    rows.into_iter()
        .map(|(name, (count, total))| PhaseRow { name: name.to_string(), count, total })
        .collect()
}

/// Renders the kernel-phase table plus an attribution line:
///
/// ```text
/// KERNEL PHASES
///      TOTAL   COUNT  PHASE
///     1.204s    5140  phase.forward.l0
///     …
/// attributed: 98.2% of 2.510s fault-simulation time
/// ```
///
/// The denominator is the per-fault envelope (`phase.fault`) plus the
/// campaign-level phases that run outside it — the packed engine's
/// plan/assign stages (`phase.pack.plan`, `phase.pack.assign`); the
/// numerator is every
/// other phase plus those campaign-level phases. With no phase samples
/// in the trace the table says so instead.
pub fn render_phases(records: &[SpanRecord]) -> String {
    let rows = phase_rows(records);
    if rows.is_empty() {
        return String::from("KERNEL PHASES\n(no phase.* samples in this trace)\n");
    }
    let mut out = String::from("KERNEL PHASES\n     TOTAL   COUNT  PHASE\n");
    let mut fault = Duration::ZERO;
    let mut campaign_level = Duration::ZERO;
    let mut attributed = Duration::ZERO;
    for row in &rows {
        let _ = writeln!(out, "{:>10} {:>7}  {}", fmt_duration(row.total), row.count, row.name);
        match row.name.as_str() {
            "phase.fault" => fault += row.total,
            "phase.pack.plan" | "phase.pack.assign" => {
                campaign_level += row.total;
                attributed += row.total;
            }
            _ => attributed += row.total,
        }
    }
    let denominator = fault + campaign_level;
    if denominator > Duration::ZERO {
        let pct = 100.0 * attributed.as_secs_f64() / denominator.as_secs_f64();
        let _ = writeln!(
            out,
            "attributed: {pct:.1}% of {} fault-simulation time",
            fmt_duration(denominator)
        );
    }
    out
}

/// Fixed-precision human duration: seconds above 1 s, milliseconds above
/// 1 ms, microseconds below.
fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if us >= 1_000 {
        format!("{:.3}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord { id, parent, name: name.to_string(), start_us, end_us, attrs: Vec::new() }
    }

    #[test]
    fn same_named_siblings_merge() {
        let records = vec![
            span(1, None, "generate", 0, 1000),
            span(2, Some(1), "stage1", 0, 300),
            span(3, Some(1), "stage1", 300, 700),
        ];
        let roots = build(&records);
        assert_eq!(roots.len(), 1);
        let generate = &roots[0];
        assert_eq!(generate.count, 1);
        assert_eq!(generate.children.len(), 1);
        let stage1 = &generate.children[0];
        assert_eq!(stage1.count, 2);
        assert_eq!(stage1.total, Duration::from_micros(700));
        assert_eq!(generate.self_time, Duration::from_micros(300));
    }

    #[test]
    fn total_is_self_plus_children() {
        let records = vec![
            span(1, None, "root", 0, 10_000),
            span(2, Some(1), "a", 0, 4_000),
            span(3, Some(1), "b", 4_000, 7_000),
            span(4, Some(2), "a.inner", 0, 1_000),
        ];
        let roots = build(&records);
        let root = &roots[0];
        let child_total: Duration = root.children.iter().map(|c| c.total).sum();
        assert_eq!(root.total, root.self_time + child_total);
        for child in &root.children {
            let grand: Duration = child.children.iter().map(|c| c.total).sum();
            assert_eq!(child.total, child.self_time + grand);
        }
    }

    #[test]
    fn orphaned_spans_become_roots() {
        let records = vec![span(7, Some(99), "orphan", 0, 100)];
        let roots = build(&records);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "orphan");
    }

    #[test]
    fn children_sort_by_descending_total() {
        let records = vec![
            span(1, None, "root", 0, 1000),
            span(2, Some(1), "small", 0, 100),
            span(3, Some(1), "big", 100, 900),
        ];
        let roots = build(&records);
        let names: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["big", "small"]);
    }

    #[test]
    fn find_walks_the_tree() {
        let records = vec![
            span(1, None, "root", 0, 1000),
            span(2, Some(1), "mid", 0, 500),
            span(3, Some(2), "leaf", 0, 100),
        ];
        let roots = build(&records);
        assert!(roots[0].find("leaf").is_some());
        assert!(roots[0].find("missing").is_none());
    }

    #[test]
    fn phase_rows_aggregate_by_name_with_count_attrs() {
        let mut a = span(1, Some(9), "phase.inject", 0, 2_000);
        a.attrs.push(("count".to_string(), "100".to_string()));
        let mut b = span(2, Some(10), "phase.inject", 0, 3_000);
        b.attrs.push(("count".to_string(), "50".to_string()));
        let c = span(3, Some(9), "phase.fault", 0, 10_000); // no count attr → 1
        let rows = phase_rows(&[a, b, c, span(4, None, "generate", 0, 99)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "phase.fault");
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[1].name, "phase.inject");
        assert_eq!(rows[1].count, 150);
        assert_eq!(rows[1].total, Duration::from_micros(5_000));
    }

    #[test]
    fn render_phases_reports_attribution_against_fault_plus_campaign_level_phases() {
        let records = vec![
            span(1, None, "phase.inject", 0, 2_000),
            span(2, None, "phase.forward.l0", 0, 5_000),
            span(3, None, "phase.compare", 0, 1_000),
            span(4, None, "phase.fault", 0, 8_000),
            span(5, None, "phase.pack.plan", 0, 2_000),
        ];
        let text = render_phases(&records);
        assert!(text.contains("phase.forward.l0"), "{text}");
        // numerator 2+5+1+2 = 10 ms, denominator 8+2 = 10 ms → 100%
        assert!(text.contains("attributed: 100.0%"), "{text}");
    }

    #[test]
    fn render_phases_without_samples_says_so() {
        let text = render_phases(&[span(1, None, "generate", 0, 100)]);
        assert!(text.contains("no phase.* samples"), "{text}");
    }

    #[test]
    fn render_indents_and_formats() {
        let records =
            vec![span(1, None, "generate", 0, 2_500_000), span(2, Some(1), "stage1", 0, 1_500_000)];
        let text = render(&build(&records));
        assert!(text.contains("generate"), "{text}");
        assert!(text.contains("  stage1"), "{text}");
        assert!(text.contains("2.500s"), "{text}");
        assert!(text.contains("1.500s"), "{text}");
        assert!(fmt_duration(Duration::from_micros(250)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms"));
    }
}
