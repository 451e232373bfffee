//! Telemetry names, checked over the workspace sources.
//!
//! Every metric a `counter!` / `gauge!` / `histogram!` site registers is
//! `snn_`-prefixed snake case with a Prometheus suffix (counters end in
//! `_total`, histograms in a base unit) and a non-empty help string, and
//! is registered at one site only, so kind and help cannot diverge. Every
//! `span!` / `enter_with_parent` name is declared in [`SPAN_NAMES`] and
//! every declared name is used. A site counts when it sits in
//! `crates/*/src` or `src` before its file's first `#[cfg(test)]` line
//! (the convention of ci.sh's line budget); span sites in `crates/obs`
//! itself are the registry and the macro definitions, so they are left
//! out. Only literal names are checkable.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use snn_obs::span_names::SPAN_NAMES;

const MACROS: [&str; 5] = ["counter!(", "gauge!(", "histogram!(", "span!(", "enter_with_parent("];

/// One literal-named site.
#[derive(Debug)]
struct Site {
    /// `counter`, `gauge`, `histogram`, `span` or `enter_with_parent`.
    kind: &'static str,
    name: String,
    /// The second literal argument of a metric macro.
    help: Option<String>,
    /// `file:line`.
    at: String,
}

impl Site {
    fn is_span(&self) -> bool {
        matches!(self.kind, "span" | "enter_with_parent")
    }
}

/// `source` with every comment blanked to spaces (newlines kept, string
/// and char literals untouched), so doc examples are not sites.
fn code_of(source: &str) -> String {
    let b = source.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'\'' if b.get(i + 1) == Some(&b'\\') || b.get(i + 2) == Some(&b'\'') => {
                i += if b[i + 1] == b'\\' { 3 } else { 2 };
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
            }
            b'/' if matches!(b.get(i + 1), Some(b'/' | b'*')) => {
                let end = if b[i + 1] == b'/' {
                    source[i..].find('\n').map_or(b.len(), |n| i + n)
                } else {
                    source[i + 2..].find("*/").map_or(b.len(), |n| i + n + 4)
                };
                for c in &mut out[i..end] {
                    if *c != b'\n' {
                        *c = b' ';
                    }
                }
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The string literal at the start of `s` (after whitespace), and the
/// rest of `s` behind it.
fn literal(s: &str) -> Option<(String, &str)> {
    let s = s.trim_start().strip_prefix('"')?;
    let mut escaped = false;
    let end = s.char_indices().find(|&(_, c)| {
        let close = c == '"' && !escaped;
        escaped = c == '\\' && !escaped;
        close
    })?;
    Some((s[..end.0].to_string(), &s[end.0 + 1..]))
}

/// The literal-named sites of one file's non-test code, in source order.
fn sites(file: &str, source: &str) -> Vec<Site> {
    let live = source.find("\n#[cfg(test)]").map_or(source, |n| &source[..n]);
    let code = code_of(live);
    let mut out = Vec::new();
    for mac in MACROS {
        for (at, _) in code.match_indices(mac) {
            let before = code[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let Some((name, rest)) = literal(&code[at + mac.len()..]) else { continue };
            let help = rest.trim_start().strip_prefix(',').and_then(literal).map(|(h, _)| h);
            let line = code[..at].matches('\n').count() + 1;
            let kind = mac.trim_end_matches('(').trim_end_matches('!');
            out.push((at, Site { kind, name, help, at: format!("{file}:{line}") }));
        }
    }
    out.sort_by_key(|&(at, _)| at);
    out.into_iter().map(|(_, site)| site).collect()
}

/// Prometheus naming findings for the metric sites.
fn naming_findings(sites: &[Site]) -> Vec<String> {
    let mut out = Vec::new();
    for s in sites.iter().filter(|s| !s.is_span()) {
        let (at, name, kind) = (&s.at, s.name.as_str(), s.kind);
        let well_formed = name.len() > 4
            && name.starts_with("snn_")
            && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !well_formed {
            out.push(format!("{at}: metric name {name:?} must match `snn_[a-z0-9_]+`"));
            continue;
        }
        if (kind == "counter") != name.ends_with("_total") {
            out.push(format!(
                "{at}: `{name}`: `_total` ends a counter's name and only a counter's"
            ));
        }
        let unit = ["_seconds", "_bytes", "_ratio"].iter().any(|u| name.ends_with(u));
        if kind == "histogram" && !unit {
            out.push(format!(
                "{at}: histogram `{name}` needs a `_seconds`, `_bytes` or `_ratio` suffix"
            ));
        }
        if s.help.as_deref() == Some("") {
            out.push(format!("{at}: metric `{name}` has an empty help string"));
        }
    }
    out
}

/// One registration site per metric name, and span names agreeing with
/// the `registry` both ways.
fn registry_findings(sites: &[Site], registry: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut first: BTreeMap<&str, &str> = BTreeMap::new();
    for s in sites.iter().filter(|s| !s.is_span()) {
        if let Some(prev) = first.insert(&s.name, &s.at) {
            out.push(format!("{}: metric `{}` is also registered at {prev}", s.at, s.name));
        }
    }
    let used: BTreeSet<&str> = sites.iter().filter(|s| s.is_span()).map(|s| &*s.name).collect();
    for s in sites.iter().filter(|s| s.is_span() && !registry.contains(&&*s.name)) {
        out.push(format!("{}: span name {:?} is not declared in SPAN_NAMES", s.at, s.name));
    }
    for name in registry.iter().filter(|n| !used.contains(*n)) {
        out.push(format!("SPAN_NAMES entry {name:?} is used by no span site"));
    }
    out
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_workspace_telemetry_names_are_consistent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let mut crates: Vec<PathBuf> =
        std::fs::read_dir(root.join("crates")).unwrap().flatten().map(|e| e.path()).collect();
    crates.sort();
    for dir in crates {
        rust_files(&dir.join("src"), &mut files);
    }
    let mut all = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
        let in_obs = rel.starts_with("crates/obs/src/");
        let source = std::fs::read_to_string(path).unwrap();
        all.extend(sites(&rel, &source).into_iter().filter(|s| !(in_obs && s.is_span())));
    }
    assert!(all.iter().filter(|s| !s.is_span()).count() > 30, "metric sites went missing");
    assert!(all.iter().filter(|s| s.is_span()).count() > 20, "span sites went missing");
    let mut findings = naming_findings(&all);
    findings.extend(registry_findings(&all, SPAN_NAMES));
    assert!(findings.is_empty(), "telemetry name findings:\n{}", findings.join("\n"));
}

#[test]
fn bad_metric_names_are_found_and_good_ones_pass() {
    let src = "pub fn f() {
    snn_obs::counter!(\"snn_requests\", \"Requests.\").inc();
    snn_obs::histogram!(\"snn_latency_total\", \"Latency.\", &[1.0]).observe(1.0);
    snn_obs::gauge!(\"depth\", \"Depth.\").set(1.0);
    snn_obs::counter!(
        \"snn_jobs_total\",
        \"\"
    )
    .inc();
}
";
    let found = naming_findings(&sites("crates/core/src/m.rs", src));
    let lines: Vec<&str> = found.iter().map(|f| f.split(": ").next().unwrap()).collect();
    // Line 3 fires twice: `_total` on a histogram, and no unit suffix.
    let want = ["crates/core/src/m.rs:2", "crates/core/src/m.rs:3", "crates/core/src/m.rs:3"];
    assert_eq!(lines, [&want[..], &["crates/core/src/m.rs:4", "crates/core/src/m.rs:5"]].concat());
    let good = "pub fn g() {\n    counter!(\"snn_jobs_total\", \"Jobs.\").inc();\n    \
                histogram!(\"snn_wait_seconds\", \"Wait.\", &[1.0]).observe(0.1);\n}\n";
    assert_eq!(naming_findings(&sites("crates/core/src/g.rs", good)), Vec::<String>::new());
}

#[test]
fn a_metric_registered_in_two_files_is_found() {
    let mut all =
        sites("crates/core/src/a.rs", "pub fn f() { counter!(\"snn_x_total\", \"X.\"); }");
    all.extend(sites("crates/core/src/b.rs", "pub fn g() { counter!(\"snn_x_total\", \"Y.\"); }"));
    let found = registry_findings(&all, &[]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].starts_with("crates/core/src/b.rs:1") && found[0].contains("a.rs:1"));
}

#[test]
fn span_names_are_checked_against_the_registry_both_ways() {
    let used =
        sites("crates/core/src/a.rs", "pub fn f() { let _s = snn_obs::span!(\"rogue.span\"); }");
    let found = registry_findings(&used, &["declared.but.unused"]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].contains("rogue.span") && found[1].contains("declared.but.unused"));
    assert_eq!(registry_findings(&used, &["rogue.span"]), Vec::<String>::new());
}

#[test]
fn comments_and_test_modules_hold_no_sites() {
    let src = "/// counter!(\"bad\", \"doc example\")\n// span!(\"nope\")\n\
               pub fn f() { let s = \"// not a comment\"; span!(\"real.one\"); }\n\
               #[cfg(test)]\nmod tests { fn t() { counter!(\"bad\", \"\"); } }\n";
    let found: Vec<(String, String)> =
        sites("crates/core/src/c.rs", src).into_iter().map(|s| (s.name, s.at)).collect();
    assert_eq!(found, [("real.one".to_string(), "crates/core/src/c.rs:3".to_string())]);
}
