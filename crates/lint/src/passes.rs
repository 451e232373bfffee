//! The lint pass registry.
//!
//! Every pass has a stable id, a path-based scope, and a token-level
//! checker. Passes only see *live* tokens: `#[cfg(test)]` items and
//! `#[test]` functions are masked out before any pass runs, because test
//! code legitimately unwraps and reads clocks.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::facts::{self, Facts};
use crate::lexer::{Token, TokenKind};
use crate::parser::ParsedFile;
use crate::{cfg, dataflow};

/// Everything a pass can see about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// The full token stream.
    pub tokens: &'a [Token],
    /// `live[i] == false` marks token `i` as test-only code.
    pub live: &'a [bool],
    /// The file's parse (items, fn bodies, lock bindings, obs sites).
    pub parsed: &'a ParsedFile,
    /// Workspace-level facts (lock maps, blocking closure, LOCK_ORDER).
    pub facts: &'a Facts,
}

impl FileContext<'_> {
    fn diag(&self, line: u32, id: &'static str, message: String) -> Diagnostic {
        Diagnostic { file: self.path.to_string(), line, id, message }
    }
}

/// One registered lint pass.
pub struct Pass {
    /// Stable id, e.g. `L-PANIC`.
    pub id: &'static str,
    /// One-line summary (shown by `--list`).
    pub summary: &'static str,
    /// Human description of the files the pass runs on.
    pub scope: &'static str,
    /// Rule and rationale paragraph (shown by `--explain <ID>`; the same
    /// table DESIGN.md renders).
    pub explain: &'static str,
    applies: fn(&str) -> bool,
    check: fn(&FileContext<'_>) -> Vec<Diagnostic>,
}

impl Pass {
    /// `true` when this pass runs on `path`.
    pub fn applies(&self, path: &str) -> bool {
        (self.applies)(path)
    }

    /// Runs the pass over one file.
    pub fn check(&self, ctx: &FileContext<'_>) -> Vec<Diagnostic> {
        (self.check)(ctx)
    }
}

/// Id used for allow-directive misuse findings (not a pass: directives
/// are checked by the driver).
pub const ALLOW_ID: &str = "L-ALLOW";

/// Id used for vendored-dependency drift findings (not a per-file token
/// pass: see [`crate::vendor`]).
pub const VENDOR_ID: &str = "L-VENDOR";

/// The registry, in reporting order.
pub fn registry() -> Vec<Pass> {
    vec![
        Pass {
            id: "L-PANIC",
            summary: "no unwrap/expect/panic!/todo!/unimplemented! in library code",
            scope: "crate libraries (crates/*/src, src/lib.rs); binaries, benches and \
                    test code are exempt",
            explain: "Library code must surface failures through each crate's typed error \
                      so callers can recover; a panic in a worker thread silently kills a \
                      campaign shard. Binaries and tests may panic (that is their error \
                      channel).",
            applies: is_library_code,
            check: check_panic,
        },
        Pass {
            id: "L-CAST",
            summary: "narrowing numeric `as` casts in kernel crates need a justification",
            scope: "crates/tensor, crates/core, crates/snn, crates/faults",
            explain: "The seed's one real bug was a silent f64→f32 truncation in a numeric \
                      kernel. Narrowing `as` casts there must be replaced with explicit \
                      conversions or justified with an allow stating the value range.",
            applies: is_kernel_crate,
            check: check_cast,
        },
        Pass {
            id: "L-DET-CLOCK",
            summary: "wall-clock, entropy, thread-id or env source in reproducible code",
            scope: "crates/core, crates/faults, crates/obs, crates/reliability",
            explain: "Campaign outcomes must be bitwise-reproducible from the seed \
                      (digest equality across workers). This token pass bans the raw \
                      nondeterminism sources — Instant::now/SystemTime, thread_rng/\
                      from_entropy/rand::random, ThreadId, env::var*, pointer-as-value \
                      casts — outside the one sanctioned `snn_obs::clock` read. \
                      Subsumes and retires the v1 L-NONDET pass.",
            applies: is_reproducible_crate,
            check: check_det_clock,
        },
        Pass {
            id: "L-DET-FLOW",
            summary: "taint flow from a nondeterminism source into a serialized result",
            scope: "crates/faults, crates/cluster, crates/reliability, crates/analyze",
            explain: "Interprocedural may-taint analysis: wall-clock/RNG/thread-id/env \
                      reads and HashMap/HashSet iteration taint values, taint propagates \
                      through assignments, call arguments and return-value summaries, and \
                      must never reach verdict_digest/FNV inputs, wire writes \
                      (`write_line`) or result files (`fs::write`). The finding prints the \
                      full propagation chain. In-place `sort*` calls sanitize.",
            applies: is_digest_crate,
            check: check_det_flow,
        },
        Pass {
            id: "L-DET-ITER",
            summary: "HashMap/HashSet iteration in digest-equality code",
            scope: "crates/faults, crates/cluster, crates/reliability, crates/analyze",
            explain: "Iteration order over HashMap/HashSet differs per process, and \
                      pattern bindings (`for (k, v) in …`) defeat flow tracking — so in \
                      merge/report/serialization crates any unordered-collection \
                      iteration is flagged even without proven sink reach. Fix by \
                      switching to BTreeMap/BTreeSet or sorting before use.",
            applies: is_digest_crate,
            check: check_det_iter,
        },
        Pass {
            id: "L-HELDLOCK",
            summary: "no MutexGuard/RwLock guard live across a blocking operation",
            scope: "crates/service, crates/cluster, crates/reliability",
            explain: "Guard dataflow over each function's CFG: a blocking call (network, \
                      disk, channel recv, thread join — including transitively through \
                      the name-resolved call graph) while a named guard may be live \
                      stalls every thread behind that lock. Fix by narrowing the guard \
                      scope, not by allowing.",
            applies: facts::in_lock_crates,
            check: check_heldlock,
        },
        Pass {
            id: "L-OBS",
            summary: "snn_* metric naming conventions and one-registry span names",
            scope: "crate libraries (same as L-PANIC); cross-file half runs \
                    workspace-wide",
            explain: "Metrics: `snn_` prefix, counters end `_total`, histograms carry a \
                      base-unit suffix, one registration site per name. Spans: every \
                      span!/enter_with_parent name must be declared in SPAN_NAMES and \
                      every declared name used.",
            applies: is_library_code,
            check: check_obs,
        },
    ]
}

/// One id the tool can report, as `--list`, `--explain` and SARIF show it.
pub struct Lint {
    /// Stable id, e.g. `L-PANIC`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Human description of the files it covers.
    pub scope: &'static str,
    /// Rule and rationale paragraph.
    pub explain: &'static str,
}

/// Id of the workspace-level lock check (not a per-file pass: it
/// consumes the lock sites and guard dataflow of every lock-disciplined
/// file at once).
pub const LOCKGRAPH_ID: &str = "L-LOCKGRAPH";

/// Every id the tool can report, in `--list` order: the per-file
/// registry, then the workspace-level and driver-level ids.
pub fn catalog() -> Vec<Lint> {
    let mut lints: Vec<Lint> = registry()
        .iter()
        .map(|p| Lint { id: p.id, summary: p.summary, scope: p.scope, explain: p.explain })
        .collect();
    lints.extend([
        Lint {
            id: LOCKGRAPH_ID,
            summary: "locks named and registered; acquisition graph acyclic, \
                      LOCK_ORDER-consistent, no re-entry",
            scope: "crates/service, crates/cluster, crates/reliability (whole-workspace)",
            explain: "Every Mutex/RwLock construction must be `::named(\"<name>\", …)` with \
                      a string literal registered in LOCK_ORDER \
                      (crates/cluster/src/lock_order.rs), so the graph can rank it and the \
                      runtime detector can see it. The check then collects every (held, \
                      acquired) lock pair from the guard dataflow of all lock-disciplined \
                      files at once and requires the graph to be acyclic, free of \
                      re-entrant acquisition, and consistent with the LOCK_ORDER ranks. \
                      Cycle findings print the full lock path.",
        },
        Lint {
            id: ALLOW_ID,
            summary: "unused or unjustified allow directives (driver-level)",
            scope: "all scanned files",
            explain: "Findings are suppressed in-source with `// snn-lint: allow(<ID>): \
                      <why>`. A directive with no justification text, one naming an unknown \
                      lint id (e.g. a retired pass), or one that no longer suppresses \
                      anything is itself a finding, so the allow list can never silently rot.",
        },
        Lint {
            id: VENDOR_ID,
            summary: "vendored dependency drift vs vendor/README.md pins",
            scope: "vendor/, Cargo.toml",
            explain: "Vendored dependencies are pinned in vendor/README.md; this check \
                      detects drift between the pins, the vendored sources and the \
                      workspace Cargo.toml patch table.",
        },
    ]);
    lints
}

/// Ids of every finding the tool can emit.
pub fn known_ids() -> Vec<&'static str> {
    catalog().iter().map(|l| l.id).collect()
}

/// The entry behind `--explain <ID>`; `None` for unknown ids.
pub fn explain(id: &str) -> Option<Lint> {
    catalog().into_iter().find(|l| l.id == id)
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

fn is_library_code(path: &str) -> bool {
    if path.contains("/bin/") || path == "src/main.rs" {
        return false;
    }
    if path.starts_with("crates/bench/") {
        return false;
    }
    (path.starts_with("crates/") && path.contains("/src/")) || path == "src/lib.rs"
}

fn is_kernel_crate(path: &str) -> bool {
    // crates/faults holds a numeric kernel too: the packed engine's LIF
    // sweep promises bitwise equality with the scalar path, so a silent
    // narrowing cast there is exactly the bug class this pass exists for.
    ["crates/tensor/src/", "crates/core/src/", "crates/snn/src/", "crates/faults/src/"]
        .iter()
        .any(|p| path.starts_with(p))
}

fn is_reproducible_crate(path: &str) -> bool {
    // crates/obs is in scope so that the single sanctioned
    // `Instant::now()` in its clock module stays the only raw monotonic
    // read — every other crate goes through `snn_obs::clock`.
    // crates/reliability is in scope because campaign scoring must be a
    // pure function of the spec — any wall-clock or entropy read there
    // would break digest equality across workers.
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/faults/src/")
        || path.starts_with("crates/obs/src/")
        || path.starts_with("crates/reliability/src/")
}

fn is_digest_crate(path: &str) -> bool {
    // The crates whose outputs are gated on digest equality: fault
    // verdicts (faults), sharded merge (cluster), campaign distribution
    // (reliability) and the dead mask that shapes stimuli (analyze). crates/service is
    // deliberately out: job metadata legitimately carries wall-clock
    // timestamps and never feeds a verdict digest.
    crate::taint::in_digest_crates(path)
}

// ---------------------------------------------------------------------------
// Token-pattern helpers
// ---------------------------------------------------------------------------

/// Iterator over live token indices.
fn live_indices<'a>(ctx: &'a FileContext<'_>) -> impl Iterator<Item = usize> + 'a {
    (0..ctx.tokens.len()).filter(|&i| ctx.live[i])
}

fn prev_live<'a>(ctx: &FileContext<'a>, i: usize) -> Option<&'a Token> {
    (0..i).rev().find(|&j| ctx.live[j]).map(|j| &ctx.tokens[j])
}

fn next_live<'a>(ctx: &FileContext<'a>, i: usize) -> Option<&'a Token> {
    (i + 1..ctx.tokens.len()).find(|&j| ctx.live[j]).map(|j| &ctx.tokens[j])
}

// ---------------------------------------------------------------------------
// L-PANIC
// ---------------------------------------------------------------------------

const PANICKY_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANICKY_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

fn check_panic(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in live_indices(ctx) {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if PANICKY_METHODS.contains(&t.text.as_str())
            && prev_live(ctx, i).is_some_and(|p| p.is_punct("."))
            && next_live(ctx, i).is_some_and(|n| n.is_punct("("))
        {
            out.push(ctx.diag(
                t.line,
                "L-PANIC",
                format!(
                    "`.{}()` in library code — return the crate's typed error instead \
                     (or justify with an allow)",
                    t.text
                ),
            ));
        }
        if PANICKY_MACROS.contains(&t.text.as_str())
            && next_live(ctx, i).is_some_and(|n| n.is_punct("!"))
            && !prev_live(ctx, i).is_some_and(|p| p.is_punct("::"))
        {
            out.push(ctx.diag(
                t.line,
                "L-PANIC",
                format!(
                    "`{}!` in library code — return the crate's typed error instead \
                     (or justify with an allow)",
                    t.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L-CAST
// ---------------------------------------------------------------------------

/// Target types a numeric `as` cast can narrow into. `f32` is the class
/// of the seed bug (an f64 intermediate silently truncated); the small
/// integer types cover float→int truncation and integer narrowing.
const NARROW_TARGETS: &[&str] = &["f32", "i8", "u8", "i16", "u16", "i32", "u32"];

fn check_cast(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in live_indices(ctx) {
        let t = &ctx.tokens[i];
        if !t.is_ident("as") {
            continue;
        }
        let Some(target) = next_live(ctx, i) else { continue };
        if target.kind == TokenKind::Ident && NARROW_TARGETS.contains(&target.text.as_str()) {
            out.push(ctx.diag(
                t.line,
                "L-CAST",
                format!(
                    "potentially lossy `as {}` cast in a numeric kernel — make the \
                     conversion explicit (From/TryFrom, or keep one precision) or \
                     justify with an allow",
                    target.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L-DET-CLOCK (token half of the determinism family; subsumes v1 L-NONDET)
// ---------------------------------------------------------------------------

fn check_det_clock(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Live tokens in order, for multi-token lookahead patterns.
    let idx: Vec<usize> = live_indices(ctx).collect();
    let tok = |p: usize| idx.get(p).map(|&i| &ctx.tokens[i]);
    for (p, &ti) in idx.iter().enumerate() {
        let t = &ctx.tokens[ti];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = p.checked_sub(1).and_then(&tok);
        let prev2 = p.checked_sub(2).and_then(&tok);
        let finding = match t.text.as_str() {
            "Instant" if tok(p + 1).is_some_and(|n| n.is_punct("::")) => {
                Some("`Instant::now()` is a wall-clock read".to_string())
            }
            "SystemTime" => Some("`SystemTime` is a wall-clock read".to_string()),
            "thread_rng" => Some("`thread_rng()` is unseeded — use a seeded StdRng".to_string()),
            "from_entropy" => Some("`from_entropy()` is unseeded — use seed_from_u64".to_string()),
            "random"
                if prev.is_some_and(|x| x.is_punct("::"))
                    && tok(p + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                Some("`rand::random()` is unseeded — use a seeded StdRng".to_string())
            }
            "ThreadId" => Some("`ThreadId` values differ across runs".to_string()),
            "current"
                if prev.is_some_and(|x| x.is_punct("::"))
                    && prev2.is_some_and(|x| x.is_ident("thread"))
                    && tok(p + 1).is_some_and(|n| n.is_punct("(")) =>
            {
                Some("`thread::current()` exposes thread identity".to_string())
            }
            "var" | "vars" | "var_os"
                if prev.is_some_and(|x| x.is_punct("::"))
                    && prev2.is_some_and(|x| x.is_ident("env")) =>
            {
                Some(format!("`env::{}()` reads ambient process state", t.text))
            }
            "as_ptr" | "as_mut_ptr"
                if tok(p + 1).is_some_and(|n| n.is_punct("("))
                    && tok(p + 2).is_some_and(|n| n.is_punct(")"))
                    && tok(p + 3).is_some_and(|n| n.is_ident("as"))
                    && tok(p + 4).is_some_and(|n| {
                        matches!(n.text.as_str(), "usize" | "u64" | "isize" | "i64")
                    }) =>
            {
                Some(format!(
                    "`{}() as {}` turns an allocation address into a value; addresses \
                     differ per run (ASLR)",
                    t.text,
                    tok(p + 4).map_or("usize", |n| n.text.as_str())
                ))
            }
            _ => None,
        };
        if let Some(msg) = finding {
            out.push(ctx.diag(
                t.line,
                "L-DET-CLOCK",
                format!(
                    "{msg}; results must be reproducible from the seed — route time \
                     through `snn_obs::clock` and randomness through a seeded StdRng \
                     (wall-clock budgets are legitimate — justify them with an allow)"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L-DET-FLOW / L-DET-ITER (dataflow half; see crate::taint)
// ---------------------------------------------------------------------------

fn check_det_flow(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    crate::taint::flow_findings(ctx.path, ctx.parsed, ctx.facts)
}

fn check_det_iter(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    crate::taint::iter_findings(ctx.path, ctx.parsed, ctx.facts)
}

// ---------------------------------------------------------------------------
// L-HELDLOCK
// ---------------------------------------------------------------------------

/// Flags blocking calls reached while a named-lock guard may still be
/// live, per function, via the guard dataflow of [`crate::dataflow`].
fn check_heldlock(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let lock_of = ctx.facts.lock_of(ctx.path);
    // The parser records nested fns both standalone and inside their
    // parent's body, so identical findings can surface twice: dedup.
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for fun in &ctx.parsed.fns {
        let g = cfg::build(fun, &lock_of);
        if g.guards.is_empty() {
            continue;
        }
        let flow = dataflow::held_guards(&g);
        for (i, node) in g.nodes.iter().enumerate() {
            let cfg::Node::Call(c) = node else { continue };
            let Some(held) = flow[i].as_ref().filter(|h| !h.is_empty()) else { continue };
            let Some(reason) = facts::blocking_reason(c, ctx.facts) else { continue };
            let held_desc: Vec<String> = held
                .iter()
                .filter_map(|&gid| g.guards.get(gid))
                .map(|gi| format!("`{}` (acquired line {})", gi.lock, gi.line))
                .collect();
            let message = format!(
                "blocking operation while holding {}: {reason} — narrow the guard scope \
                 (drop or end the guard's block before blocking) so one stalled peer \
                 cannot wedge every thread behind the lock",
                held_desc.join(", ")
            );
            if seen.insert((c.line, message.clone())) {
                out.push(ctx.diag(c.line, "L-HELDLOCK", message));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L-OBS (per-file half; the cross-file half lives in crate::facts)
// ---------------------------------------------------------------------------

fn check_obs(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    facts::metric_naming_findings(ctx.path, ctx.parsed)
}

// ---------------------------------------------------------------------------
// Test-code masking
// ---------------------------------------------------------------------------

/// Computes the live-token mask: tokens belonging to `#[cfg(test)]` /
/// `#[test]` items (attribute included) are dead.
pub fn live_mask(tokens: &[Token]) -> Vec<bool> {
    let mut live = vec![true; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let (attr_end, is_test) = scan_attribute(tokens, i + 1);
            if is_test {
                let item_end = scan_item_end(tokens, attr_end);
                for slot in live.iter_mut().take(item_end).skip(i) {
                    *slot = false;
                }
                i = item_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    live
}

/// Scans one `[…]` attribute starting at its `[`; returns the index one
/// past the closing `]` and whether the attribute marks test-only code.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        } else if t.kind == TokenKind::Ident {
            if t.text == "test" {
                has_test = true;
            } else if t.text == "not" {
                has_not = true;
            }
        }
        j += 1;
    }
    (j, has_test && !has_not)
}

/// From the token after a test attribute, finds the end of the annotated
/// item: past any further attributes, then either a top-level `;` or the
/// matching `}` of the item's first brace.
fn scan_item_end(tokens: &[Token], mut i: usize) -> usize {
    // Skip stacked attributes (e.g. `#[cfg(test)] #[allow(…)] mod t {…}`).
    while i < tokens.len()
        && tokens[i].is_punct("#")
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
    {
        let (end, _) = scan_attribute(tokens, i + 1);
        i = end;
    }
    let mut brace_depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            brace_depth += 1;
        } else if t.is_punct("}") {
            brace_depth = brace_depth.saturating_sub(1);
            if brace_depth == 0 {
                return i + 1;
            }
        } else if t.is_punct(";") && brace_depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_pass(id: &str, path: &str, src: &str) -> Vec<Diagnostic> {
        run_pass_with_locks(id, path, src, &[])
    }

    fn run_pass_with_locks(
        id: &str,
        path: &str,
        src: &str,
        lock_order: &[String],
    ) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let live = live_mask(&lexed.tokens);
        let parsed = crate::parser::parse(&lexed.tokens, &live);
        let inputs = [facts::FileInput { path, parsed: &parsed }];
        let facts = Facts::build(&inputs, lock_order.to_vec());
        let ctx = FileContext {
            path,
            tokens: &lexed.tokens,
            live: &live,
            parsed: &parsed,
            facts: &facts,
        };
        let passes = registry();
        let pass = passes.iter().find(|p| p.id == id).expect("pass exists");
        assert!(pass.applies(path), "scope must include {path}");
        pass.check(&ctx)
    }

    #[test]
    fn panic_pass_flags_unwrap_expect_and_macros() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); todo!(); }";
        let out = run_pass("L-PANIC", "crates/snn/src/sim.rs", src);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn panic_pass_ignores_non_panicking_lookalikes() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); std::panic::catch_unwind(g); }";
        let out = run_pass("L-PANIC", "crates/snn/src/sim.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_is_masked() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        let out = run_pass("L-PANIC", "crates/snn/src/sim.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }";
        let out = run_pass("L-PANIC", "crates/snn/src/sim.rs", src);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cast_pass_flags_narrowing_only() {
        let src = "fn f(x: f64, n: usize) -> f32 { let _ = n as f64; (x as f32) + n as f32 }";
        let out = run_pass("L-CAST", "crates/tensor/src/ops.rs", src);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.id == "L-CAST"));
    }

    #[test]
    fn det_clock_flags_clocks_and_entropy() {
        let src = "fn f() { let t = Instant::now(); let r = StdRng::from_entropy(); }";
        let out = run_pass("L-DET-CLOCK", "crates/core/src/generator.rs", src);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.id == "L-DET-CLOCK"));
    }

    #[test]
    fn det_clock_flags_new_source_classes() {
        let src = "fn f(v: &[u8]) -> u64 {\n    let x: u64 = rand::random();\n    \
                   let e = env::var(\"SNN_SEED\");\n    let t = thread::current();\n    \
                   let p = v.as_ptr() as usize;\n    x\n}";
        let out = run_pass("L-DET-CLOCK", "crates/core/src/generator.rs", src);
        assert_eq!(out.len(), 4, "{out:?}");
    }

    #[test]
    fn det_clock_ignores_benign_lookalikes() {
        // `random` as a method (seeded rng.random()), `var` without the
        // env:: path, as_ptr without an `as usize` cast.
        let src = "fn f(rng: &mut StdRng, v: &[u8]) -> f32 {\n    let x: f32 = rng.random();\n    \
                   let var = 1.0;\n    let p = v.as_ptr();\n    x + var\n}";
        let out = run_pass("L-DET-CLOCK", "crates/core/src/generator.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn scopes_exclude_binaries_and_bench() {
        assert!(!is_library_code("src/main.rs"));
        assert!(!is_library_code("crates/bench/src/lib.rs"));
        assert!(!is_library_code("crates/bench/src/bin/scaling.rs"));
        assert!(is_library_code("crates/service/src/server.rs"));
        assert!(is_library_code("src/lib.rs"));
        assert!(!is_kernel_crate("crates/datasets/src/gesture_like.rs"));
        assert!(is_kernel_crate("crates/faults/src/sim.rs"));
    }

    #[test]
    fn heldlock_flags_blocking_call_under_guard() {
        let order = vec!["service.queue".to_string()];
        let src = "fn mk() { let queue = Mutex::named(\"service.queue\", Vec::new()); }\n\
                   fn f(s: &S) {\n    let g = s.queue.lock();\n    s.stream.write_all(b\"x\");\n}\n";
        let out = run_pass_with_locks("L-HELDLOCK", "crates/service/src/server.rs", src, &order);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("service.queue"));
    }

    #[test]
    fn heldlock_accepts_narrowed_guard() {
        let order = vec!["service.queue".to_string()];
        let src = "fn mk() { let queue = Mutex::named(\"service.queue\", Vec::new()); }\n\
                   fn f(s: &S) {\n    { let g = s.queue.lock(); g.push(1); }\n    \
                   s.stream.write_all(b\"x\");\n}\n";
        let out = run_pass_with_locks("L-HELDLOCK", "crates/service/src/server.rs", src, &order);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn obs_pass_checks_metric_naming() {
        let src = "fn f() {\n    counter!(\"snn_jobs\", \"jobs\").inc();\n    \
                   histogram!(\"snn_latency_seconds\", \"latency\").observe(0.1);\n}\n";
        let out = run_pass("L-OBS", "crates/service/src/metrics.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("_total"));
    }

    #[test]
    fn item_without_body_is_skipped_correctly() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn f() { x.unwrap(); }";
        let out = run_pass("L-PANIC", "crates/snn/src/sim.rs", src);
        assert_eq!(out.len(), 1, "code after the bodyless item stays live");
    }
}
