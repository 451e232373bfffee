//! `snn-lint`: the workspace's lock-discipline checks.
//!
//! Clippy and rustc carry every other rule of the workspace (DESIGN.md
//! "Lints"). What they cannot say is how the service, cluster and
//! reliability crates hold their locks, so this crate keeps a minimal
//! Rust lexer ([`lexer`]), a tolerant item/body parser ([`parser`]),
//! per-function control-flow graphs ([`cfg`]) with a guard dataflow
//! ([`dataflow`]) and the workspace lock facts ([`facts`]), and runs two
//! passes ([`passes`]) over them:
//!
//! - `L-HELDLOCK`: no lock guard is live across a blocking call;
//! - `L-LOCKGRAPH`: every lock is named and registered in `LOCK_ORDER`,
//!   and the acquisition graph is acyclic, rank-ordered and free of
//!   re-entry.
//!
//! `ci.sh` runs it as `cargo run -p snn-lint`.

#![forbid(unsafe_code)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]

pub mod cfg;
pub mod dataflow;
pub mod facts;
pub mod lexer;
pub mod parser;
pub mod passes;

use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Lint id, `L-HELDLOCK` or `L-LOCKGRAPH`.
    pub id: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The single-line text form, `file:line: [ID] message`.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.id, self.message)
    }
}

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

/// Lints the lock-disciplined crates of the workspace rooted at `root`:
/// every file is read and parsed, the workspace lock facts are built
/// once, then L-HELDLOCK runs per file and L-LOCKGRAPH over all of them.
///
/// # Errors
///
/// Returns a message when `root` is not a workspace (no `Cargo.toml`) or
/// a source file cannot be read.
pub fn run(root: &Path) -> Result<Report, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!("{} is not a cargo workspace (no Cargo.toml)", root.display()));
    }
    let mut rels = Vec::new();
    for key in facts::LOCK_CRATES {
        collect_rs(&root.join("crates").join(key).join("src"), root, &mut rels)?;
    }
    let mut sources = Vec::with_capacity(rels.len());
    for rel in &rels {
        let source =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        sources.push((rel.as_str(), source));
    }
    let diagnostics = lint_files(&sources, load_lock_order(root));
    Ok(Report { diagnostics, checked_files: rels.len() })
}

/// Lints one source text as if it lived at workspace-relative path
/// `rel_path` (which decides whether the lock passes cover it), with the
/// lock facts of this one file. Used by the fixture tests.
pub fn lint_source(rel_path: &str, source: &str, lock_order: &[String]) -> Vec<Diagnostic> {
    lint_files(&[(rel_path, source.to_string())], lock_order.to_vec())
}

/// Both passes over `(path, source)` pairs, findings sorted.
fn lint_files(sources: &[(&str, String)], lock_order: Vec<String>) -> Vec<Diagnostic> {
    let parsed: Vec<(&str, parser::ParsedFile)> = sources
        .iter()
        .map(|(path, source)| {
            let tokens = lexer::lex(source);
            (*path, parser::parse(&tokens, &passes::live_mask(&tokens)))
        })
        .collect();
    let inputs: Vec<facts::FileInput<'_>> =
        parsed.iter().map(|(path, parsed)| facts::FileInput { path, parsed }).collect();
    let facts = facts::Facts::build(&inputs, lock_order);
    let mut out = facts::check_locks(&inputs, &facts);
    for f in inputs.iter().filter(|f| facts::in_lock_crates(f.path)) {
        out.extend(passes::check_heldlock(f.path, f.parsed, &facts));
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.id).cmp(&(b.file.as_str(), b.line, b.id)));
    out
}

/// The workspace's documented lock-order list, parsed from
/// `crates/cluster/src/lock_order.rs`: the string literals of the
/// `LOCK_ORDER` const, in order. Empty when absent.
pub fn load_lock_order(root: &Path) -> Vec<String> {
    let Ok(source) = fs::read_to_string(root.join("crates/cluster/src/lock_order.rs")) else {
        return Vec::new();
    };
    let tokens = lexer::lex(&source);
    let Some(at) = tokens.iter().position(|t| t.is_ident("LOCK_ORDER")) else {
        return Vec::new();
    };
    // Past the type annotation: the literals of the array after the `=`.
    tokens[at..]
        .iter()
        .skip_while(|t| !t.is_punct("="))
        .skip_while(|t| !t.is_punct("["))
        .take_while(|t| !t.is_punct("]"))
        .filter(|t| t.kind == lexer::TokenKind::Str)
        .map(|t| t.text.clone())
        .collect()
}

/// Collects the workspace-relative paths of the `.rs` files under `dir`,
/// sorted.
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
    fn files_outside_the_lock_crates_are_untouched() {
        let src = "fn f() { let m = Mutex::new(0); }";
        assert!(lint_source("crates/core/src/stage.rs", src, &[]).is_empty());
        assert_eq!(lint_source("crates/service/src/server.rs", src, &[]).len(), 1);
    }
}
