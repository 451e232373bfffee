//! `snn-lint`: repo-native static analysis for the snn-mtfc workspace.
//!
//! Grown from a `rust-lang/rust` `tidy`-style token linter into a small
//! analysis engine: a minimal Rust lexer ([`lexer`]), a tolerant
//! item/body/expression parser ([`parser`]), per-function control-flow
//! graphs ([`cfg`]) with a worklist dataflow framework ([`dataflow`]),
//! workspace-level fact extraction ([`facts`]), a registry of repo-
//! specific lint passes ([`passes`]) and a vendored-dependency integrity
//! check ([`vendor`]), wired into CI via `cargo run -p snn-lint`.
//!
//! The passes encode this repository's history: the seed's one real bug
//! was a silent mixed-precision cast (`L-CAST`), PR 1 introduced typed
//! errors that casual `unwrap()`s bypass (`L-PANIC`), the service crate
//! is multi-threaded with an ordered lock discipline (`L-HELDLOCK`,
//! `L-LOCKGRAPH`), and the telemetry surface promises stable metric/span
//! names (`L-OBS`). Float equality is clippy's `float_cmp`, and the wire
//! protocol is pinned by its own encoder's tests. See DESIGN.md §15 for
//! the analysis model and each pass's soundness/completeness contract.
//!
//! Findings are suppressed in-source with a mandatory justification:
//!
//! ```text
//! // snn-lint: allow(L-CAST): usize count fits f32 exactly below 2^24
//! ```
//!
//! A trailing directive covers its own line; a standalone one covers the
//! next line. Unused or unjustified directives are themselves findings
//! (`L-ALLOW`), so the allow list can never silently rot.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod facts;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod sarif;
pub mod taint;
pub mod vendor;

pub use diag::Diagnostic;
pub use passes::{ALLOW_ID, VENDOR_ID};

use passes::FileContext;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Result of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by file, line, id.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files scanned.
    pub checked_files: usize,
}

impl Report {
    /// `true` when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// One scanned file: source derivatives shared by every pass.
pub struct FileData {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Lexed tokens and comments.
    pub lexed: lexer::Lexed,
    /// Live-token mask (test code masked out).
    pub live: Vec<bool>,
    /// The parse.
    pub parsed: parser::ParsedFile,
}

impl FileData {
    fn parse(path: &str, source: &str) -> FileData {
        let lexed = lexer::lex(source);
        let live = passes::live_mask(&lexed.tokens);
        let parsed = parser::parse(&lexed.tokens, &live);
        FileData { path: path.to_string(), lexed, live, parsed }
    }
}

/// Lints the workspace rooted at `root`.
///
/// Phases: (1) read + lex + parse every file; (2) build workspace facts
/// (lock maps, blocking closure, LOCK_ORDER, span registry); (3) run the
/// per-file pass registry; (4) run the workspace-level checks (lock
/// registration and graph, obs consistency); (5) apply allow directives
/// per file.
///
/// # Errors
///
/// Returns a message when `root` is not a workspace (no `Cargo.toml`) or
/// a source file cannot be read.
pub fn run(root: &Path) -> Result<Report, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!("{} is not a cargo workspace (no Cargo.toml)", root.display()));
    }
    let lock_order = load_lock_order(root);
    let span_registry = load_span_registry(root);
    let rels = workspace_files(root)?;
    let checked_files = rels.len();

    let mut files: Vec<FileData> = Vec::with_capacity(rels.len());
    for rel in rels {
        let source =
            fs::read_to_string(root.join(&rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        files.push(FileData::parse(&rel, &source));
    }

    let inputs: Vec<facts::FileInput<'_>> =
        files.iter().map(|f| facts::FileInput { path: &f.path, parsed: &f.parsed }).collect();
    let facts = facts::Facts::build(&inputs, lock_order);

    let registry = passes::registry();
    let known = passes::known_ids();

    let mut extra = facts::check_locks(&inputs, &facts);
    extra.extend(facts::check_obs_consistency(&inputs, span_registry.as_deref()));

    // Route workspace findings to their file so in-source allows apply;
    // findings anchored outside the scanned set pass through untouched.
    let scanned: HashSet<&str> = files.iter().map(|f| f.path.as_str()).collect();
    let mut by_extra: HashMap<String, Vec<Diagnostic>> = HashMap::new();
    let mut orphans = Vec::new();
    for d in extra {
        if scanned.contains(d.file.as_str()) {
            by_extra.entry(d.file.clone()).or_default().push(d);
        } else {
            orphans.push(d);
        }
    }

    let mut diagnostics = Vec::new();
    for f in &files {
        let mut findings = per_file_findings(f, &registry, &facts);
        if let Some(more) = by_extra.remove(&f.path) {
            findings.extend(more);
        }
        let (directives, out) = diag::parse_directives(&f.path, &f.lexed.comments);
        diagnostics.extend(out);
        diagnostics.extend(diag::apply_directives(&f.path, findings, directives, &known));
    }
    diagnostics.extend(orphans);
    diagnostics.extend(vendor::check(root));
    diag::sort(&mut diagnostics);
    Ok(Report { diagnostics, checked_files })
}

/// Lints one source text as if it lived at workspace-relative path
/// `rel_path` (which decides pass scopes), with the lock checks run over
/// this one file. The obs cross-file check is skipped — it needs the
/// whole workspace. Used by the fixture tests.
pub fn lint_source(rel_path: &str, source: &str, lock_order: &[String]) -> Vec<Diagnostic> {
    let f = FileData::parse(rel_path, source);
    let inputs = [facts::FileInput { path: rel_path, parsed: &f.parsed }];
    let facts = facts::Facts::build(&inputs, lock_order.to_vec());
    let mut findings = per_file_findings(&f, &passes::registry(), &facts);
    findings.extend(facts::check_locks(&inputs, &facts));
    let (directives, mut out) = diag::parse_directives(rel_path, &f.lexed.comments);
    out.extend(diag::apply_directives(rel_path, findings, directives, &passes::known_ids()));
    diag::sort(&mut out);
    out
}

/// The findings of every registry pass whose scope includes `f`.
fn per_file_findings(
    f: &FileData,
    registry: &[passes::Pass],
    facts: &facts::Facts,
) -> Vec<Diagnostic> {
    let ctx = FileContext {
        path: &f.path,
        tokens: &f.lexed.tokens,
        live: &f.live,
        parsed: &f.parsed,
        facts,
    };
    registry.iter().filter(|p| p.applies(&f.path)).flat_map(|p| p.check(&ctx)).collect()
}

/// The workspace's documented lock-order list, parsed from
/// `crates/cluster/src/lock_order.rs` (the string literals of the
/// `LOCK_ORDER` const, in order). Empty when absent.
pub fn load_lock_order(root: &Path) -> Vec<String> {
    let Ok(source) = fs::read_to_string(root.join("crates/cluster/src/lock_order.rs")) else {
        return Vec::new();
    };
    const_str_list(&source, "LOCK_ORDER").into_iter().map(|(name, _)| name).collect()
}

/// The observability span-name registry (`SPAN_NAMES` in
/// `crates/obs/src/span_names.rs`) with each entry's source line; `None`
/// when the registry file is absent (span cross-checks are then skipped).
pub fn load_span_registry(root: &Path) -> Option<Vec<(String, u32)>> {
    let source = fs::read_to_string(root.join("crates/obs/src/span_names.rs")).ok()?;
    Some(const_str_list(&source, "SPAN_NAMES"))
}

/// String literals (with lines) of `const <name>: … = [ "…", … ]`.
fn const_str_list(source: &str, name: &str) -> Vec<(String, u32)> {
    let lexed = lexer::lex(source);
    let tokens = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident(name) {
            let mut j = i + 1;
            // Skip the type annotation: capture only after the `=`.
            let mut seen_eq = false;
            let mut started = false;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct("=") {
                    seen_eq = true;
                } else if seen_eq && t.is_punct("[") {
                    started = true;
                } else if started && t.kind == lexer::TokenKind::Str {
                    out.push((t.text.clone(), t.line));
                } else if started && t.is_punct("]") {
                    return out;
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// Collects every workspace-relative source path to scan, sorted:
/// `src/**/*.rs` and `crates/*/src/**/*.rs`. Vendored stand-ins, test
/// trees, benches, examples and fixtures are excluded — the tool lints
/// the product, the compiler and `cargo test` own the rest.
fn workspace_files(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read crates/: {e}"))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "tests" | "benches" | "examples" | "fixtures" | "target") {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace root", path.display()))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_runs_scoped_passes_and_allows() {
        let src = "fn f(x: f64) -> f32 {\n\
                   // snn-lint: allow(L-CAST): precision loss acceptable in this test helper\n\
                   x as f32\n}";
        let out = lint_source("crates/tensor/src/ops.rs", src, &[]);
        assert!(out.is_empty(), "{out:?}");
        let out = lint_source("crates/tensor/src/ops.rs", "fn f(x: f64) -> f32 { x as f32 }", &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, "L-CAST");
    }

    #[test]
    fn out_of_scope_paths_are_untouched() {
        // datasets is not a kernel crate: no L-CAST there.
        let out = lint_source(
            "crates/datasets/src/gesture_like.rs",
            "fn f(x: f64) -> f32 { x as f32 }",
            &[],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lock_order_parsing_from_source() {
        let dir = std::env::temp_dir().join(format!("snn-lint-order-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/cluster/src")).unwrap();
        fs::write(
            dir.join("crates/cluster/src/lock_order.rs"),
            "pub const LOCK_ORDER: &[&str] = &[\n    \"service.queue\",\n    \"service.store.jobs\",\n];\n",
        )
        .unwrap();
        let order = load_lock_order(&dir);
        assert_eq!(order, vec!["service.queue".to_string(), "service.store.jobs".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
