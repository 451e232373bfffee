//! Interprocedural determinism-taint analysis (L-DET-FLOW, L-DET-ITER).
//!
//! The repo's load-bearing guarantee — the dead mask that shapes a
//! stimulus, cluster merge, reliability distribution — is
//! *bitwise-identical* verdicts and FNV digests. This module proves, statically and
//! conservatively, that no nondeterministic value can flow into a
//! serialized result:
//!
//! - **Sources** introduce taint: wall-clock reads outside the sanctioned
//!   `snn_obs::clock` module, unseeded RNG (`thread_rng`, `from_entropy`,
//!   `rand::random`), thread identity, environment variables, and — the
//!   big one — iteration over `HashMap`/`HashSet`, whose order differs
//!   per process.
//! - **Propagation** flows through assignments (statement [`cfg::Node::Bind`]
//!   nodes commit expression taint to `let` bindings), through arguments
//!   and receivers of further calls, and *interprocedurally* through
//!   return values via per-function summaries ([`summaries`]) resolved by
//!   the same name-based, stoplist-guarded call graph that powers
//!   L-HELDLOCK.
//! - **Sinks** are anything serialized into a result: `verdict_digest` /
//!   `verdict_digest_hex` (FNV digest inputs), `write_line` (the wire
//!   protocol), and `fs::write` (result files).
//!
//! The analysis is a forward may-analysis over the per-function CFG: the
//! fact is a map from live binding names to their taint origin plus the
//! taint of the value currently being built by the statement. Everything
//! over-approximates (any tainted argument taints a call's value; loops
//! and branches join) except pattern bindings (`if let`, `for` patterns,
//! destructuring `let`), which are not tracked — a documented
//! incompleteness, partially covered by L-DET-ITER flagging unordered
//! iteration *without* requiring proven sink reach.
//!
//! Sanitizers: in-place `sort*` method calls clear a binding's taint
//! (sorting is exactly the documented fix for iteration-order taint).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::cfg::{self, Node};
use crate::dataflow::{self, Analysis};
use crate::diag::Diagnostic;
use crate::facts::{self, Facts, FileInput};
use crate::parser::{Block, CallEvent, Stmt};

/// Methods whose iteration order over `HashMap`/`HashSet` is
/// nondeterministic per process.
pub const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter"];

/// Method-call prefixes that deterministically reorder a collection in
/// place, clearing its taint.
const SANITIZER_METHODS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Crates whose serialized results must be bitwise-reproducible; the
/// L-DET-FLOW and L-DET-ITER passes run here.
pub const DIGEST_CRATES: &[&str] = &["faults", "cluster", "reliability", "analyze"];

/// `true` when `path` is in a digest-equality crate.
pub fn in_digest_crates(path: &str) -> bool {
    facts::crate_key(path).is_some_and(|k| DIGEST_CRATES.contains(&k))
}

// ---------------------------------------------------------------------------
// Sources, sinks, unordered-collection facts.
// ---------------------------------------------------------------------------

/// Collects, per *file*, the binding/field identifiers holding an
/// unordered collection (`HashMap` / `HashSet`): struct fields whose type
/// mentions one, and simple `let` bindings constructed from one.
///
/// File granularity (not crate) keeps resolution precise: binding names
/// are file-local, and the repo keeps a struct's iterating code next to
/// its definition. A field iterated from a *different* file than the one
/// defining it is out of scope — and crate-wide name matching is worse,
/// not better: one file's `campaigns: HashMap` cache must not flag
/// another file's `campaigns: BTreeMap` as unordered.
pub fn unordered_idents(files: &[FileInput<'_>]) -> HashMap<String, BTreeSet<String>> {
    let mut out: HashMap<String, BTreeSet<String>> = HashMap::new();
    for f in files {
        let set = out.entry(f.path.to_string()).or_default();
        for field in &f.parsed.fields {
            if field.ty.contains("HashMap") || field.ty.contains("HashSet") {
                set.insert(field.name.clone());
            }
        }
        for fun in &f.parsed.fns {
            collect_unordered_lets(&fun.body, set);
        }
    }
    out
}

/// `let m = HashMap::new()` / `HashSet::with_capacity(..)` bindings.
fn collect_unordered_lets(block: &Block, set: &mut BTreeSet<String>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { name: Some(name), calls, .. }
                if calls.iter().any(|c| {
                    c.path_prefix.as_deref().is_some_and(|p| p == "HashMap" || p == "HashSet")
                }) =>
            {
                set.insert(name.clone());
            }
            Stmt::If { then_b, else_b, .. } => {
                collect_unordered_lets(then_b, set);
                if let Some(e) = else_b {
                    collect_unordered_lets(e, set);
                }
            }
            Stmt::While { body, .. }
            | Stmt::For { body, .. }
            | Stmt::Loop { body, .. }
            | Stmt::Sub { body, .. } => collect_unordered_lets(body, set),
            Stmt::Match { arms, .. } => {
                for arm in arms {
                    collect_unordered_lets(arm, set);
                }
            }
            _ => {}
        }
    }
}

/// Classifies one call as a taint source. `unordered` is the enclosing
/// file's unordered-collection ident set. Returns the human description
/// of the nondeterminism introduced.
pub fn classify_source(c: &CallEvent, unordered: &BTreeSet<String>) -> Option<String> {
    if let Some(prefix) = c.path_prefix.as_deref() {
        return match (prefix, c.name.as_str()) {
            ("Instant", "now") => Some("`Instant::now()` (wall clock)".into()),
            ("SystemTime", "now") => Some("`SystemTime::now()` (wall clock)".into()),
            ("rand", "random") => Some("`rand::random()` (unseeded RNG)".into()),
            ("env", "var" | "vars" | "var_os") => {
                Some(format!("`env::{}()` (environment read)", c.name))
            }
            ("thread", "current") => Some("`thread::current()` (thread identity)".into()),
            _ => None,
        };
    }
    match c.name.as_str() {
        "thread_rng" => Some("`thread_rng()` (unseeded RNG)".into()),
        "from_entropy" => Some("`from_entropy()` (unseeded RNG)".into()),
        name if c.is_method && ITER_METHODS.contains(&name) => {
            let recv = c.receiver.as_deref()?;
            unordered.contains(recv).then(|| {
                format!("iteration over unordered `{recv}` (`.{name}()` on a HashMap/HashSet)")
            })
        }
        _ => None,
    }
}

/// Classifies one call as a serialization sink; returns its description.
pub fn sink_desc(c: &CallEvent) -> Option<&'static str> {
    match c.name.as_str() {
        "verdict_digest" | "verdict_digest_hex" => Some("the FNV verdict digest"),
        "write_line" if !c.is_method => Some("a wire-protocol record (`write_line`)"),
        "write" if c.path_prefix.as_deref() == Some("fs") => Some("a result file (`fs::write`)"),
        _ => None,
    }
}

/// `true` when a method call deterministically reorders its receiver in
/// place (clearing iteration-order taint).
fn is_sanitizer(c: &CallEvent) -> bool {
    c.is_method && SANITIZER_METHODS.contains(&c.name.as_str())
}

// ---------------------------------------------------------------------------
// Interprocedural summaries.
// ---------------------------------------------------------------------------

/// The namespace function a taint-relevant call may resolve to: bare or
/// method calls whose name is summarized and not stoplisted. Mirrors the
/// blocking-closure resolution rules.
fn summary_callee<'a>(c: &CallEvent, summaries: &'a BTreeMap<String, String>) -> Option<&'a str> {
    if c.path_prefix.is_some() || c.name == "drop" || facts::is_stoplisted(&c.name) {
        return None;
    }
    summaries.get_key_value(c.name.as_str()).map(|(k, _)| k.as_str())
}

/// Calls in return position: every `return` statement plus the
/// function's top-level tail expression. Nested construct tails (`if` /
/// `match` arms as tail values) are not walked — a documented
/// under-approximation.
fn return_calls(block: &Block, top: bool, out: &mut Vec<CallEvent>) {
    let last = block.stmts.len().saturating_sub(1);
    for (i, stmt) in block.stmts.iter().enumerate() {
        match stmt {
            Stmt::Return { calls, .. } => out.extend(calls.iter().cloned()),
            Stmt::Expr { calls, .. } if top && i == last => out.extend(calls.iter().cloned()),
            Stmt::If { then_b, else_b, .. } => {
                return_calls(then_b, false, out);
                if let Some(e) = else_b {
                    return_calls(e, false, out);
                }
            }
            Stmt::While { body, .. }
            | Stmt::For { body, .. }
            | Stmt::Loop { body, .. }
            | Stmt::Sub { body, .. } => return_calls(body, false, out),
            Stmt::Match { arms, .. } => {
                for arm in arms {
                    return_calls(arm, false, out);
                }
            }
            _ => {}
        }
    }
}

/// Builds per-function taint summaries: fn name → description of the
/// nondeterminism its return value may carry, with the interprocedural
/// chain rendered `source -> \`callee()\` -> …`. `crates/obs/src` is
/// exempt: its clock module holds the one sanctioned raw clock read, and
/// values routed through `snn_obs::clock` are deterministic by contract
/// (the monotonic epoch is pinned per process run, and campaign results
/// never embed it).
pub fn summaries(
    files: &[FileInput<'_>],
    unordered: &HashMap<String, BTreeSet<String>>,
) -> BTreeMap<String, String> {
    let empty = BTreeSet::new();
    // fn name → its return-position calls (BTreeMap: deterministic
    // fixpoint, so the chain locked in by `or_insert` is stable).
    let mut rets: BTreeMap<String, Vec<(CallEvent, String)>> = BTreeMap::new();
    let mut out: BTreeMap<String, String> = BTreeMap::new();
    for f in files {
        if facts::crate_key(f.path).is_none() || f.path.starts_with("crates/obs/src/") {
            continue;
        }
        let file_unordered = unordered.get(f.path).unwrap_or(&empty);
        for fun in &f.parsed.fns {
            let mut calls = Vec::new();
            return_calls(&fun.body, true, &mut calls);
            for c in calls {
                if let Some(desc) = classify_source(&c, file_unordered) {
                    out.entry(fun.name.clone()).or_insert(desc);
                }
                rets.entry(fun.name.clone()).or_default().push((c, f.path.to_string()));
            }
        }
    }
    // Fixpoint: a function returning a summarized callee's value inherits
    // its taint, with the chain extended.
    loop {
        let mut changed = false;
        for (name, calls) in &rets {
            if out.contains_key(name) {
                continue;
            }
            for (c, _) in calls {
                let Some(callee) = summary_callee(c, &out) else { continue };
                if callee == name {
                    continue;
                }
                let chained = format!("{} -> `{callee}()`", out[callee]);
                out.insert(name.clone(), chained);
                changed = true;
                break;
            }
        }
        if !changed {
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The dataflow instance.
// ---------------------------------------------------------------------------

/// Where a tainted value came from, with the propagation chain already
/// rendered into `desc`. Ordered line-first so joins pick a deterministic
/// representative.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaintOrigin {
    /// Line where the taint entered this function.
    pub line: u32,
    /// Human chain: ``"`thread_rng()` (unseeded RNG) -> `entropy()` -> `x`"``.
    pub desc: String,
}

/// The dataflow fact: taint of live bindings plus the taint of the value
/// the current statement is building.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaintFact {
    /// Binding name → origin of its taint.
    pub vars: BTreeMap<String, TaintOrigin>,
    /// Taint of the in-flight statement value (cleared at each
    /// [`Node::Bind`]).
    pub expr: Option<TaintOrigin>,
}

/// Forward may-analysis instance: see the module docs for the lattice.
pub struct TaintState<'a> {
    /// The enclosing file's unordered-collection idents.
    pub unordered: &'a BTreeSet<String>,
    /// Interprocedural return-taint summaries.
    pub summaries: &'a BTreeMap<String, String>,
}

fn min_origin(a: Option<TaintOrigin>, b: Option<TaintOrigin>) -> Option<TaintOrigin> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

impl TaintState<'_> {
    /// The origin of any tainted input to `c` (receiver or argument) in
    /// `fact`, or the in-flight expression taint.
    fn tainted_input(&self, c: &CallEvent, fact: &TaintFact) -> Option<TaintOrigin> {
        let mut origin = fact.expr.clone();
        if let Some(recv) = c.receiver.as_deref() {
            origin = min_origin(origin, fact.vars.get(recv).cloned());
        }
        for arg in &c.arg_idents {
            origin = min_origin(origin, fact.vars.get(arg).cloned());
        }
        origin
    }
}

impl Analysis for TaintState<'_> {
    type Fact = TaintFact;

    fn boundary(&self) -> TaintFact {
        TaintFact::default()
    }

    fn join(&self, a: &TaintFact, b: &TaintFact) -> TaintFact {
        let mut vars = a.vars.clone();
        for (name, origin) in &b.vars {
            vars.entry(name.clone())
                .and_modify(|o| {
                    if origin < o {
                        *o = origin.clone();
                    }
                })
                .or_insert_with(|| origin.clone());
        }
        TaintFact { vars, expr: min_origin(a.expr.clone(), b.expr.clone()) }
    }

    fn transfer(&self, node: &Node, fact: &TaintFact) -> TaintFact {
        let mut out = fact.clone();
        match node {
            Node::Call(c) => {
                if is_sanitizer(c) {
                    if let Some(recv) = c.receiver.as_deref() {
                        out.vars.remove(recv);
                    }
                    return out;
                }
                if let Some(desc) = classify_source(c, self.unordered) {
                    out.expr = min_origin(out.expr, Some(TaintOrigin { line: c.line, desc }));
                } else if let Some(callee) = summary_callee(c, self.summaries) {
                    let desc = format!("{} -> `{callee}()`", self.summaries[callee]);
                    out.expr = min_origin(out.expr, Some(TaintOrigin { line: c.line, desc }));
                } else if let Some(origin) = self.tainted_input(c, fact) {
                    // A tainted receiver or argument taints the value the
                    // statement keeps building.
                    out.expr = min_origin(out.expr, Some(origin));
                }
            }
            Node::Bind { name, .. } => {
                if let (Some(name), Some(origin)) = (name, out.expr.take()) {
                    let desc = format!("{} -> `{name}`", origin.desc);
                    out.vars.insert(name.clone(), TaintOrigin { line: origin.line, desc });
                }
                out.expr = None;
            }
            _ => {}
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The passes.
// ---------------------------------------------------------------------------

/// L-DET-FLOW: source→sink findings for one file, with the full
/// propagation chain in the message (like L-LOCKGRAPH cycle reports).
pub fn flow_findings(
    path: &str,
    parsed: &crate::parser::ParsedFile,
    facts: &Facts,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let empty = BTreeSet::new();
    let unordered = facts.unordered.get(path).unwrap_or(&empty);
    let lock_of = facts.lock_of(path);
    let analysis = TaintState { unordered, summaries: &facts.fn_taint };
    // Nested fns appear twice in the parse (standalone + inline): dedup.
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    for fun in &parsed.fns {
        let g = cfg::build(fun, &lock_of);
        let flow = dataflow::solve(&g, &analysis);
        for (i, node) in g.nodes.iter().enumerate() {
            let Node::Call(c) = node else { continue };
            let Some(sink) = sink_desc(c) else { continue };
            let Some(fact) = flow[i].as_ref() else { continue };
            let origin = analysis
                .tainted_input(c, fact)
                .or_else(|| nested_arg_taint(&g, &flow, i, &analysis));
            let Some(origin) = origin else { continue };
            let message = format!(
                "nondeterministic value reaches {sink}: {} flows into `{}` — make the \
                 value deterministic at its origin (seeded RNG, `snn_obs::clock`, \
                 BTreeMap/sorted order) so digests stay bitwise-reproducible",
                origin.desc, c.name
            );
            if seen.insert((c.line, message.clone())) {
                out.push(Diagnostic {
                    file: path.to_string(),
                    line: c.line,
                    id: "L-DET-FLOW",
                    message,
                });
            }
        }
    }
    out
}

/// Token order puts a sink's *nested* argument calls after the sink node
/// (`verdict_digest(tainted())` lexes callee-first), so the entry fact at
/// the sink misses them. Scan the statement's remaining call chain — the
/// straight-line `Call` successors up to the next statement boundary —
/// for sources, summarized callees, or tainted-variable uses.
fn nested_arg_taint(
    g: &cfg::FnCfg,
    flow: &[Option<TaintFact>],
    sink: usize,
    analysis: &TaintState<'_>,
) -> Option<TaintOrigin> {
    let mut best: Option<TaintOrigin> = None;
    let mut i = sink;
    loop {
        let succ = g.succ.get(i)?;
        if succ.len() != 1 {
            break;
        }
        i = succ[0];
        let Node::Call(c) = &g.nodes[i] else { break };
        if let Some(desc) = classify_source(c, analysis.unordered) {
            best = min_origin(best, Some(TaintOrigin { line: c.line, desc }));
        } else if let Some(callee) = summary_callee(c, analysis.summaries) {
            let desc = format!("{} -> `{callee}()`", analysis.summaries[callee]);
            best = min_origin(best, Some(TaintOrigin { line: c.line, desc }));
        } else if let Some(fact) = flow[i].as_ref() {
            best = min_origin(best, analysis.tainted_input(c, fact));
        }
    }
    best
}

/// L-DET-ITER: unordered-collection iteration in digest-equality code,
/// flagged even without proven sink reach (pattern bindings defeat the
/// flow analysis, so iteration order gets its own sound-by-scope pass).
pub fn iter_findings(
    path: &str,
    parsed: &crate::parser::ParsedFile,
    facts: &Facts,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(unordered) = facts.unordered.get(path) else { return out };
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    for fun in &parsed.fns {
        let mut calls = Vec::new();
        facts::all_calls(&fun.body, &mut calls);
        for c in calls {
            if !(c.is_method && ITER_METHODS.contains(&c.name.as_str())) {
                continue;
            }
            let Some(recv) = c.receiver.as_deref() else { continue };
            if !unordered.contains(recv) {
                continue;
            }
            let message = format!(
                "iteration over unordered collection `{recv}` (`.{}()`) in digest-equality \
                 code — its order differs per process; use a BTreeMap/BTreeSet, or collect \
                 and sort before the order can reach a result",
                c.name
            );
            if seen.insert((c.line, message.clone())) {
                out.push(Diagnostic {
                    file: path.to_string(),
                    line: c.line,
                    id: "L-DET-ITER",
                    message,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser;
    use crate::passes::live_mask;

    fn inputs_of(_path: &str, src: &str) -> (parser::ParsedFile, Vec<crate::lexer::Token>) {
        let lexed = lex(src);
        let live = live_mask(&lexed.tokens);
        (parser::parse(&lexed.tokens, &live), lexed.tokens)
    }

    #[test]
    fn unordered_idents_from_fields_and_lets() {
        let (parsed, _) = inputs_of(
            "crates/cluster/src/x.rs",
            "struct S { workers: HashMap<String,W>, names: Vec<String> }\n\
             fn f() { let mut cache = HashMap::new(); let v = Vec::new(); }\n",
        );
        let files = [FileInput { path: "crates/cluster/src/x.rs", parsed: &parsed }];
        let map = unordered_idents(&files);
        let set = &map["crates/cluster/src/x.rs"];
        assert!(set.contains("workers") && set.contains("cache"));
        assert!(!set.contains("names") && !set.contains("v"));
    }

    #[test]
    fn summaries_chain_through_calls() {
        let (parsed, _) = inputs_of(
            "crates/cluster/src/x.rs",
            "fn entropy() -> u64 { thread_rng() }\n\
             fn indirection() -> u64 { entropy() }\n",
        );
        let files = [FileInput { path: "crates/cluster/src/x.rs", parsed: &parsed }];
        let sums = summaries(&files, &unordered_idents(&files));
        assert!(sums["entropy"].contains("thread_rng"));
        assert!(sums["indirection"].contains("entropy"), "{sums:?}");
    }

    #[test]
    fn obs_clock_is_exempt_from_summaries() {
        let (parsed, _) = inputs_of(
            "crates/obs/src/clock.rs",
            "fn raw_instant() -> Instant { Instant::now() }\n",
        );
        let files = [FileInput { path: "crates/obs/src/clock.rs", parsed: &parsed }];
        assert!(summaries(&files, &HashMap::new()).is_empty());
    }

    #[test]
    fn source_classification() {
        let (parsed, _) = inputs_of(
            "crates/cluster/src/x.rs",
            "fn f(m: &M) { Instant::now(); env::var(\"X\"); m.map.keys(); m.v.iter(); }\n",
        );
        let mut calls = Vec::new();
        facts::all_calls(&parsed.fns[0].body, &mut calls);
        let unordered: BTreeSet<String> = ["map".to_string()].into();
        let descs: Vec<Option<String>> =
            calls.iter().map(|c| classify_source(c, &unordered)).collect();
        assert!(descs[0].as_deref().unwrap().contains("wall clock"));
        assert!(descs[1].as_deref().unwrap().contains("environment"));
        assert!(descs[2].as_deref().unwrap().contains("unordered `map`"));
        assert!(descs[3].is_none(), "Vec iteration is ordered");
    }
}
