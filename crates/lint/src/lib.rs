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
//! is multi-threaded with an ordered lock discipline (`L-LOCK`,
//! `L-HELDLOCK`, `L-LOCKGRAPH`), the cluster protocol promises v1–v4
//! decode compatibility (`L-WIRE`), and the telemetry surface promises
//! stable metric/span names (`L-OBS`). See DESIGN.md §15 for the
//! analysis model and each pass's soundness/completeness contract.
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
pub use passes::{ALLOW_ID, LOCKGRAPH_ID, VENDOR_ID, WIRE_ID};

use passes::FileContext;
use std::collections::{BTreeSet, HashMap, HashSet};
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

/// Tuning for [`run_with_options`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// When set, only findings anchored in these workspace-relative files
    /// are reported. The whole workspace is still parsed (workspace-level
    /// facts would otherwise be wrong), so this trades report scope for
    /// nothing — it exists to keep `--changed-only` output focused.
    pub report_only: Option<BTreeSet<String>>,
    /// Worker threads for the per-file phases (1 = sequential).
    pub threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { report_only: None, threads: default_threads() }
    }
}

/// Default lint parallelism: the machine's parallelism, capped at 8
/// (the workspace has ~60 files; more threads only add spawn cost).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(8)
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

/// Lints the workspace rooted at `root` with default options.
///
/// # Errors
///
/// Returns a message when `root` is not a workspace (no `Cargo.toml`) or
/// a source file cannot be read.
pub fn run(root: &Path) -> Result<Report, String> {
    run_with_options(root, &RunOptions::default())
}

/// Lints the workspace rooted at `root`.
///
/// Phases: (1) read + lex + parse every file (parallel); (2) build
/// workspace facts (lock maps, blocking closure, LOCK_ORDER registries,
/// span registry — sequential, cheap); (3) run the per-file pass registry
/// (parallel); (4) run the workspace-level checks (lock graph, wire
/// baseline, obs consistency); (5) apply allow directives per file.
///
/// # Errors
///
/// Returns a message when `root` is not a workspace (no `Cargo.toml`) or
/// a source file cannot be read.
pub fn run_with_options(root: &Path, opts: &RunOptions) -> Result<Report, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!("{} is not a cargo workspace (no Cargo.toml)", root.display()));
    }
    let lock_order = load_lock_order(root);
    let span_registry = load_span_registry(root);
    let rels = workspace_files(root)?;
    let checked_files = rels.len();

    let mut sources: Vec<(String, String)> = Vec::with_capacity(rels.len());
    for rel in rels {
        let source =
            fs::read_to_string(root.join(&rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        sources.push((rel, source));
    }
    let files: Vec<FileData> =
        par_map(&sources, opts.threads, |(rel, source)| FileData::parse(rel, source));
    drop(sources);

    let inputs: Vec<facts::FileInput<'_>> =
        files.iter().map(|f| facts::FileInput { path: &f.path, parsed: &f.parsed }).collect();
    let facts = facts::Facts::build(&inputs, lock_order.clone());

    let registry = passes::registry();
    let known = passes::known_ids();

    let per_file: Vec<Vec<Diagnostic>> = par_map(&files, opts.threads, |f| {
        let ctx = FileContext {
            path: &f.path,
            tokens: &f.lexed.tokens,
            live: &f.live,
            lock_order: &lock_order,
            parsed: &f.parsed,
            facts: &facts,
        };
        let mut findings = Vec::new();
        for pass in &registry {
            if pass.applies(&f.path) {
                findings.extend(pass.check(&ctx));
            }
        }
        findings
    });

    // Workspace-level checks.
    let mut edges = Vec::new();
    for f in &files {
        edges.extend(facts::lock_edges(&f.path, &f.parsed, &facts));
    }
    let mut extra = facts::check_lock_graph(&edges, &lock_order);
    extra.extend(wire_findings(root, &inputs));
    extra.extend(facts::check_obs_consistency(&inputs, span_registry.as_deref()));

    // Route workspace findings to their file so in-source allows apply;
    // findings anchored outside the scanned set (e.g. a missing baseline)
    // pass through untouched.
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
    for (f, mut findings) in files.iter().zip(per_file) {
        if let Some(more) = by_extra.remove(&f.path) {
            findings.extend(more);
        }
        let (directives, mut out) = diag::parse_directives(&f.path, &f.lexed.comments);
        out.extend(diag::apply_directives(&f.path, findings, directives, &known));
        if opts.report_only.as_ref().is_none_or(|set| set.contains(&f.path)) {
            diagnostics.extend(out);
        }
    }
    diagnostics.extend(orphans);
    diagnostics.extend(vendor::check(root));
    diag::sort(&mut diagnostics);
    Ok(Report { diagnostics, checked_files })
}

/// Lints one source text as if it lived at workspace-relative path
/// `rel_path` (which decides pass scopes). Workspace-level checks (lock
/// graph, wire baseline, obs cross-file consistency) are skipped — they
/// need the whole workspace. Used by `run` and by the fixture tests.
pub fn lint_source(rel_path: &str, source: &str, lock_order: &[String]) -> Vec<Diagnostic> {
    let registry = passes::registry();
    let known = passes::known_ids();
    let f = FileData::parse(rel_path, source);
    let inputs = [facts::FileInput { path: rel_path, parsed: &f.parsed }];
    let facts = facts::Facts::build(&inputs, lock_order.to_vec());
    let ctx = FileContext {
        path: rel_path,
        tokens: &f.lexed.tokens,
        live: &f.live,
        lock_order,
        parsed: &f.parsed,
        facts: &facts,
    };
    let mut findings = Vec::new();
    for pass in &registry {
        if pass.applies(rel_path) {
            findings.extend(pass.check(&ctx));
        }
    }
    let (directives, mut out) = diag::parse_directives(rel_path, &f.lexed.comments);
    out.extend(diag::apply_directives(rel_path, findings, directives, &known));
    diag::sort(&mut out);
    out
}

/// Extracts the current wire-protocol schema text from the workspace's
/// wire files (see [`facts::WIRE_FILES`]).
///
/// # Errors
///
/// Returns a message when a wire file cannot be read.
pub fn extract_wire_schema(root: &Path) -> Result<String, String> {
    let mut datas = Vec::new();
    for wf in facts::WIRE_FILES {
        let source =
            fs::read_to_string(root.join(wf)).map_err(|e| format!("cannot read {wf}: {e}"))?;
        datas.push(FileData::parse(wf, &source));
    }
    let inputs: Vec<facts::FileInput<'_>> =
        datas.iter().map(|f| facts::FileInput { path: &f.path, parsed: &f.parsed }).collect();
    Ok(facts::wire_schema_text(&inputs))
}

/// L-WIRE findings for the workspace: structural breaking changes against
/// the committed baseline, plus byte-level drift (the baseline must
/// reproduce exactly, so additive changes also require a regen + commit).
fn wire_findings(root: &Path, inputs: &[facts::FileInput<'_>]) -> Vec<Diagnostic> {
    if !facts::WIRE_FILES.iter().any(|wf| inputs.iter().any(|i| i.path == *wf)) {
        return Vec::new(); // not a workspace with wire files (unit-test trees)
    }
    let current = facts::wire_schema_text(inputs);
    let Ok(baseline) = fs::read_to_string(root.join(facts::WIRE_BASELINE_PATH)) else {
        return vec![Diagnostic {
            file: facts::WIRE_BASELINE_PATH.to_string(),
            line: 1,
            id: passes::WIRE_ID,
            message: "wire-schema baseline is missing — generate and commit it with \
                      `cargo run -p snn-lint -- --write-wire-baseline`"
                .to_string(),
        }];
    };
    let lines = facts::wire_type_lines(inputs);
    let mut out = facts::wire_breaking_changes(&baseline, &current, &lines);
    if out.is_empty() && baseline != current {
        out.push(Diagnostic {
            file: facts::WIRE_BASELINE_PATH.to_string(),
            line: 1,
            id: passes::WIRE_ID,
            message: "wire schema drifted from the committed baseline (non-breaking \
                      additions) — regenerate with `cargo run -p snn-lint -- \
                      --write-wire-baseline` and commit so the baseline stays byte-identical"
                .to_string(),
        });
    }
    out
}

/// Runs `f` over `items` on up to `threads` workers (vendored scoped
/// threads); preserves input order. Falls back to a sequential pass when
/// a worker panics, so a pass bug degrades to slow-but-diagnosable.
fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    let fref = &f;
    let ok = crossbeam::thread::scope(|s| {
        for (ichunk, ochunk) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            s.spawn(move |_| {
                for (item, slot) in ichunk.iter().zip(ochunk.iter_mut()) {
                    *slot = Some(fref(item));
                }
            });
        }
    })
    .is_ok();
    if ok && slots.iter().all(Option::is_some) {
        slots.into_iter().flatten().collect()
    } else {
        items.iter().map(&f).collect()
    }
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

/// Parses `git diff --name-status -M` output into the set of changed
/// `.rs` paths. Renames/copies (`R<score>`/`C<score>` lines carrying
/// `old\tnew`) contribute their *new* path — a plain `--name-only` diff
/// silently drops renamed files. Deletions are skipped (nothing to lint).
pub fn parse_git_name_status(output: &str) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for line in output.lines() {
        let mut fields = line.split('\t');
        let Some(status) = fields.next().map(str::trim) else { continue };
        let path = match status.chars().next() {
            Some('D') | None => continue,
            Some('R' | 'C') => fields.next_back(),
            _ => fields.next(),
        };
        if let Some(path) = path.map(str::trim) {
            if path.ends_with(".rs") {
                set.insert(path.to_string());
            }
        }
    }
    set
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

    #[test]
    fn git_name_status_keeps_rename_targets() {
        let out = parse_git_name_status(
            "M\tcrates/lint/src/lib.rs\n\
             A\tcrates/lint/src/taint.rs\n\
             R087\tcrates/lint/src/old.rs\tcrates/lint/src/new.rs\n\
             C100\tcrates/a/src/x.rs\tcrates/b/src/x.rs\n\
             D\tcrates/lint/src/gone.rs\n\
             M\tREADME.md\n",
        );
        let want: Vec<&str> = vec![
            "crates/b/src/x.rs",
            "crates/lint/src/lib.rs",
            "crates/lint/src/new.rs",
            "crates/lint/src/taint.rs",
        ];
        assert_eq!(out.iter().map(String::as_str).collect::<Vec<_>>(), want);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, 4, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let out = par_map(&items, 1, |&x| x + 1);
        assert_eq!(out.len(), 100);
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, 4, |&x: &usize| x).is_empty());
    }
}
