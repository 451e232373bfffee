//! Workspace-level lock facts and the lock-graph check (L-LOCKGRAPH).
//!
//! L-HELDLOCK in [`crate::passes`] consumes a [`Facts`] snapshot
//! built once per lint run from every parsed file:
//!
//! - per-crate maps from receiver identifier to registered lock name
//!   (`queue` → `service.queue`), sourced from `Mutex::named` sites;
//! - the set of *transitively blocking* functions in the lock-disciplined
//!   crates (a function is blocking when it performs a blocking primitive
//!   or calls, by name, another namespace function that does);
//! - the set of lock names each namespace function transitively acquires
//!   (for lock-graph edges through calls).
//!
//! Name-based call resolution is deliberately conservative: method names
//! that collide with common `std` collection/iterator methods
//! ([`STD_METHOD_STOPLIST`]) are never resolved through the namespace, so
//! `state.campaigns.get(..)` cannot alias `JobStore::get`. The cost is
//! documented incompleteness (a blocking namespace fn named `get` would
//! be missed), which is the right trade for a zero-false-positive gate.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::parser::{Block, CallEvent, ParsedFile, Stmt};
use crate::Diagnostic;
use crate::{cfg, dataflow};

/// Crates whose locks and blocking behaviour are analysed. They share
/// one process-wide lock-order registry (first registration wins), so
/// each must name every lock from it. crates/reliability holds no locks
/// today; keeping it in scope means any future lock there must be named
/// and registered from day one.
pub const LOCK_CRATES: &[&str] = &["service", "cluster", "reliability"];

/// Blocking path calls: (`prefix`, `name`) as in `TcpStream::connect`.
/// Filesystem writes are included deliberately: persisting a job record
/// under a hot lock stalls every other thread on disk latency, which is
/// exactly the class of bug L-HELDLOCK exists to catch.
const BLOCKING_PATH: &[(&str, &str)] = &[
    ("TcpStream", "connect"),
    ("TcpStream", "connect_timeout"),
    ("thread", "sleep"),
    ("fs", "write"),
    ("fs", "rename"),
    ("fs", "read_to_string"),
    ("fs", "create_dir_all"),
    ("fs", "read_dir"),
    ("fs", "remove_file"),
    ("fs", "remove_dir_all"),
    ("File", "create"),
    ("File", "open"),
];

/// Blocking bare function calls (workspace wire helpers).
const BLOCKING_BARE: &[&str] = &["write_line", "read_line", "read_raw_line"];

/// Blocking method calls. `try_send` / `try_recv` are intentionally
/// absent (non-blocking by contract); `join` blocks only in its
/// zero-argument `JoinHandle` form (`PathBuf::join` takes an argument).
const BLOCKING_METHOD: &[&str] = &[
    "recv",
    "recv_timeout",
    "accept",
    "write_all",
    "flush",
    "read_exact",
    "read_to_string",
    "read_until",
    "read_line",
    "send",
    "connect",
];

/// Condvar methods: called with a guard by design, and `wait*` releases
/// the mutex while parked — never a held-lock finding.
const CONDVAR_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
    "notify_one",
    "notify_all",
];

/// Method names never resolved through the namespace call graph because
/// they collide with ubiquitous `std` methods (see module docs).
const STD_METHOD_STOPLIST: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "values_mut",
    "keys",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "clone",
    "cloned",
    "copied",
    "collect",
    "map",
    "and_then",
    "filter",
    "next",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "retain",
    "sort",
    "sort_by",
    "sort_unstable",
    "extend",
    "drain",
    "take",
    "replace",
    "swap",
    "min",
    "max",
    "abs",
    "to_string",
    "to_owned",
    "as_str",
    "as_ref",
    "as_mut",
    "into",
    "from",
    "new",
    "default",
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "push_str",
    "starts_with",
    "ends_with",
    "split",
    "trim",
    "parse",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "unwrap",
    "expect",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "elapsed",
    "as_secs_f64",
    "saturating_sub",
    "enumerate",
    "zip",
    "rev",
    "any",
    "all",
    "find",
    "position",
    "count",
    "sum",
    "chain",
];

/// One parsed file handed to [`Facts::build`].
pub struct FileInput<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Its parse.
    pub parsed: &'a ParsedFile,
}

/// Workspace-level facts shared by every per-file pass.
#[derive(Debug, Default)]
pub struct Facts {
    /// crate key (`service`) → receiver ident (`queue`) → lock name.
    pub locks: HashMap<String, HashMap<String, String>>,
    /// Namespace fn name → human reason why it (transitively) blocks.
    pub blocking: HashMap<String, String>,
    /// Namespace fn name → lock names it (transitively) acquires.
    pub fn_acquires: HashMap<String, BTreeSet<String>>,
    /// The service crate's `LOCK_ORDER` (rank = index).
    pub lock_order: Vec<String>,
}

/// The crate key of a workspace path (`crates/service/src/…` → `service`).
pub fn crate_key(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// `true` when `path` belongs to a lock-disciplined crate.
pub fn in_lock_crates(path: &str) -> bool {
    crate_key(path).is_some_and(|k| LOCK_CRATES.contains(&k))
}

/// Collects every call event in a function body, in token order.
pub fn all_calls(block: &Block, out: &mut Vec<CallEvent>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { calls, .. } | Stmt::Expr { calls, .. } | Stmt::Return { calls, .. } => {
                out.extend(calls.iter().cloned());
            }
            Stmt::If { head, then_b, else_b, .. } => {
                out.extend(head.iter().cloned());
                all_calls(then_b, out);
                if let Some(e) = else_b {
                    all_calls(e, out);
                }
            }
            Stmt::While { head, body, .. } | Stmt::For { head, body, .. } => {
                out.extend(head.iter().cloned());
                all_calls(body, out);
            }
            Stmt::Loop { body, .. } | Stmt::Sub { body, .. } => all_calls(body, out),
            Stmt::Match { head, arms, .. } => {
                out.extend(head.iter().cloned());
                for arm in arms {
                    all_calls(arm, out);
                }
            }
        }
    }
}

impl Facts {
    /// Builds facts from every parsed workspace file.
    pub fn build(files: &[FileInput<'_>], lock_order: Vec<String>) -> Facts {
        let mut facts = Facts { lock_order, ..Facts::default() };

        // Lock binding maps, per crate.
        for f in files {
            let Some(key) = crate_key(f.path) else { continue };
            if !LOCK_CRATES.contains(&key) {
                continue;
            }
            let map = facts.locks.entry(key.to_string()).or_default();
            for site in &f.parsed.locks {
                if let (Some(ident), Some(lock)) = (&site.ident, &site.lock) {
                    map.insert(ident.clone(), lock.clone());
                }
            }
        }

        // Per-function direct facts over the namespace crates. BTreeMap:
        // the fixpoint below locks in the first blocking reason it sees
        // per function, so iteration order must be deterministic.
        let mut calls_of: BTreeMap<String, Vec<CallEvent>> = BTreeMap::new();
        let mut fn_names: HashSet<String> = HashSet::new();
        let mut crate_of_fn: HashMap<String, Vec<String>> = HashMap::new();
        for f in files {
            let Some(key) = crate_key(f.path) else { continue };
            if !LOCK_CRATES.contains(&key) {
                continue;
            }
            for fun in &f.parsed.fns {
                let mut calls = Vec::new();
                all_calls(&fun.body, &mut calls);
                calls_of.entry(fun.name.clone()).or_default().extend(calls);
                fn_names.insert(fun.name.clone());
                crate_of_fn.entry(fun.name.clone()).or_default().push(key.to_string());
            }
        }

        // Direct blocking + direct acquisitions.
        for (name, calls) in &calls_of {
            for c in calls {
                if let Some(reason) = direct_blocking(c) {
                    facts.blocking.entry(name.clone()).or_insert(reason);
                }
            }
            let mut acquired = BTreeSet::new();
            for key in crate_of_fn.get(name).into_iter().flatten() {
                let Some(map) = facts.locks.get(key) else { continue };
                for c in calls {
                    if is_acquire(c) {
                        if let Some(lock) = c.receiver.as_deref().and_then(|r| map.get(r)) {
                            acquired.insert(lock.clone());
                        }
                    }
                }
            }
            if !acquired.is_empty() {
                facts.fn_acquires.insert(name.clone(), acquired);
            }
        }

        // Fixpoint: propagate blocking and acquisitions through name-based
        // calls (stoplisted names excluded).
        loop {
            let mut changed = false;
            for (name, calls) in &calls_of {
                for c in calls {
                    let Some(callee) = resolvable_callee(c, &fn_names) else { continue };
                    if callee == *name {
                        continue;
                    }
                    if let Some(reason) = facts.blocking.get(&callee).cloned() {
                        facts.blocking.entry(name.clone()).or_insert_with(|| {
                            changed = true;
                            format!("calls `{callee}` which {reason}")
                        });
                    }
                    if let Some(acq) = facts.fn_acquires.get(&callee).cloned() {
                        let own = facts.fn_acquires.entry(name.clone()).or_default();
                        for lock in acq {
                            changed |= own.insert(lock);
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        facts
    }

    /// Receiver-ident → lock-name resolver for one file.
    pub fn lock_of<'a>(&'a self, path: &str) -> impl Fn(&str) -> Option<String> + 'a {
        let map = crate_key(path).and_then(|k| self.locks.get(k));
        move |recv: &str| map.and_then(|m| m.get(recv).cloned())
    }
}

/// `true` for a no-arg `.lock()` / `.read()` / `.write()` method call.
fn is_acquire(c: &CallEvent) -> bool {
    c.is_method && c.no_args && matches!(c.name.as_str(), "lock" | "read" | "write")
}

/// Direct blocking classification of one call (no namespace resolution).
fn direct_blocking(c: &CallEvent) -> Option<String> {
    if c.is_method && CONDVAR_METHODS.contains(&c.name.as_str()) {
        return None;
    }
    if let Some(prefix) = &c.path_prefix {
        if BLOCKING_PATH.iter().any(|(p, n)| p == prefix && *n == c.name) {
            return Some(format!("performs `{prefix}::{}`", c.name));
        }
        return None;
    }
    if c.is_method {
        if BLOCKING_METHOD.contains(&c.name.as_str()) {
            return Some(format!("performs `.{}()`", c.name));
        }
        if c.name == "join" && c.no_args {
            return Some("performs `.join()` on a thread handle".to_string());
        }
        return None;
    }
    if BLOCKING_BARE.contains(&c.name.as_str()) {
        return Some(format!("performs `{}()`", c.name));
    }
    None
}

/// The namespace function a call may resolve to, if any (stoplist and
/// primitive-shape aware).
fn resolvable_callee(c: &CallEvent, fn_names: &HashSet<String>) -> Option<String> {
    if c.path_prefix.is_some() {
        return None; // path calls resolve only against primitives
    }
    if c.name == "drop" || STD_METHOD_STOPLIST.contains(&c.name.as_str()) {
        return None;
    }
    if c.is_method && CONDVAR_METHODS.contains(&c.name.as_str()) {
        return None;
    }
    fn_names.contains(&c.name).then(|| c.name.clone())
}

/// Why a call is considered blocking, for L-HELDLOCK messages. `None`
/// when the call cannot block.
pub fn blocking_reason(c: &CallEvent, facts: &Facts) -> Option<String> {
    if let Some(reason) = direct_blocking(c) {
        return Some(reason);
    }
    if c.path_prefix.is_some() || c.name == "drop" {
        return None;
    }
    if STD_METHOD_STOPLIST.contains(&c.name.as_str())
        || (c.is_method && CONDVAR_METHODS.contains(&c.name.as_str()))
    {
        return None;
    }
    facts.blocking.get(&c.name).map(|r| format!("calls `{}` which {r}", c.name))
}

// ---------------------------------------------------------------------------
// Lock registration and the lock graph (L-LOCKGRAPH).
// ---------------------------------------------------------------------------

/// L-LOCKGRAPH over the lock-disciplined files among `files`: every lock
/// constructed `::named` with a literal registered in LOCK_ORDER, and the
/// acquisition graph of all of them acyclic, rank-consistent and free of
/// re-entry.
pub fn check_locks(files: &[FileInput<'_>], facts: &Facts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut edges = Vec::new();
    for f in files.iter().filter(|f| in_lock_crates(f.path)) {
        out.extend(f.parsed.locks.iter().filter_map(|site| {
            let (ty, ctor) = (&site.ty, &site.ctor);
            let message = match &site.lock {
                Some(name) if facts.lock_order.contains(name) => return None,
                Some(name) => format!(
                    "lock name {name:?} is not registered in LOCK_ORDER \
                     (crates/cluster/src/lock_order.rs) — add it at its acquisition rank"
                ),
                None if ctor == "named" => format!(
                    "`{ty}::named` must take a string literal name so the lock-order list \
                     can be checked statically"
                ),
                None => format!(
                    "unnamed `{ty}::{ctor}` in a lock-disciplined crate — construct with \
                     `{ty}::named(\"<name>\", …)` using a name from LOCK_ORDER \
                     (crates/cluster/src/lock_order.rs)"
                ),
            };
            Some(Diagnostic {
                file: f.path.to_string(),
                line: site.line,
                id: "L-LOCKGRAPH",
                message,
            })
        }));
        edges.extend(lock_edges(f.path, f.parsed, facts));
    }
    out.extend(check_lock_graph(&edges, &facts.lock_order));
    out
}

/// One lock-order edge observed at a source location: `held` was live
/// when `acquired` was (transitively) taken.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LockEdge {
    /// The lock already held.
    held: String,
    /// The lock being acquired.
    acquired: String,
    /// File of the acquisition site.
    file: String,
    /// Line of the acquisition site.
    line: u32,
}

/// Extracts lock-graph edges from one file's functions (guard dataflow
/// per function; call edges resolved through `fn_acquires`).
fn lock_edges(path: &str, parsed: &ParsedFile, facts: &Facts) -> Vec<LockEdge> {
    let mut edges = Vec::new();
    let lock_of = facts.lock_of(path);
    for fun in &parsed.fns {
        let g = cfg::build(fun, &lock_of);
        let flow = dataflow::held_guards(&g);
        for (i, node) in g.nodes.iter().enumerate() {
            let Some(held) = flow[i].as_ref().filter(|h| !h.is_empty()) else { continue };
            let held_locks: Vec<&str> = held
                .iter()
                .filter_map(|&gid| g.guards.get(gid))
                .map(|gi| gi.lock.as_str())
                .collect();
            match node {
                cfg::Node::Acquire { guard } => {
                    if let Some(info) = g.guards.get(*guard) {
                        for h in &held_locks {
                            edges.push(LockEdge {
                                held: (*h).to_string(),
                                acquired: info.lock.clone(),
                                file: path.to_string(),
                                line: info.line,
                            });
                        }
                    }
                }
                cfg::Node::Call(c) => {
                    let Some(callee) = resolvable_callee_for_edges(c) else { continue };
                    let Some(acq) = facts.fn_acquires.get(&callee) else { continue };
                    for lock in acq {
                        for h in &held_locks {
                            edges.push(LockEdge {
                                held: (*h).to_string(),
                                acquired: lock.clone(),
                                file: path.to_string(),
                                line: c.line,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    edges
}

/// Stoplist-aware callee resolution for edge extraction (no fn-name set
/// needed: `fn_acquires` lookup already restricts to namespace fns).
fn resolvable_callee_for_edges(c: &CallEvent) -> Option<String> {
    if c.path_prefix.is_some() || c.name == "drop" {
        return None;
    }
    if STD_METHOD_STOPLIST.contains(&c.name.as_str())
        || (c.is_method && CONDVAR_METHODS.contains(&c.name.as_str()))
    {
        return None;
    }
    Some(c.name.clone())
}

/// Checks the collected lock graph: rank consistency against LOCK_ORDER,
/// re-entrancy, and acyclicity.
fn check_lock_graph(edges: &[LockEdge], lock_order: &[String]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let rank = |name: &str| lock_order.iter().position(|o| o == name);
    // Deduplicate edges, keeping the first site (deterministic: callers
    // collect files in sorted order).
    let mut seen: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for e in edges {
        seen.entry((e.held.clone(), e.acquired.clone()))
            .or_insert_with(|| (e.file.clone(), e.line));
    }
    for ((held, acquired), (file, line)) in &seen {
        if held == acquired {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                id: "L-LOCKGRAPH",
                message: format!(
                    "re-entrant acquisition: `{held}` is (transitively) taken while a guard \
                     for it is already live — this deadlocks a non-reentrant mutex"
                ),
            });
            continue;
        }
        if let (Some(rh), Some(ra)) = (rank(held), rank(acquired)) {
            if rh >= ra {
                out.push(Diagnostic {
                    file: file.clone(),
                    line: *line,
                    id: "L-LOCKGRAPH",
                    message: format!(
                        "lock-order violation: `{acquired}` (rank {ra}) acquired while \
                         holding `{held}` (rank {rh}) — LOCK_ORDER requires strictly \
                         increasing ranks (crates/cluster/src/lock_order.rs)"
                    ),
                });
            }
        }
    }
    // Cycle detection over the deduplicated graph (covers locks that are
    // not in LOCK_ORDER at all).
    let nodes: BTreeSet<&String> = seen.keys().flat_map(|(a, b)| [a, b]).collect();
    let mut succ: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (a, b) in seen.keys() {
        succ.entry(a).or_default().push(b);
    }
    let mut state: BTreeMap<&String, u8> = BTreeMap::new(); // 0 new, 1 open, 2 done
    for start in &nodes {
        if state.get(*start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Iterative DFS with an explicit path for cycle reporting.
        let mut stack: Vec<(&String, usize)> = vec![(*start, 0)];
        state.insert(*start, 1);
        let mut path: Vec<&String> = vec![*start];
        while let Some((node, idx)) = stack.last_mut() {
            let next = succ.get(*node).and_then(|s| s.get(*idx)).copied();
            *idx += 1;
            match next {
                Some(n) => {
                    let st = state.get(n).copied().unwrap_or(0);
                    if st == 1 {
                        // Found a cycle: report it once, anchored at the
                        // first recorded edge site inside the cycle.
                        let from = path.iter().position(|p| *p == n).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            path[from..].iter().map(|s| (*s).clone()).collect();
                        cycle.push(n.clone());
                        let anchor = seen
                            .get(&(cycle[0].clone(), cycle[1].clone()))
                            .cloned()
                            .unwrap_or_else(|| ("crates/cluster/src/lock_order.rs".into(), 1));
                        out.push(Diagnostic {
                            file: anchor.0,
                            line: anchor.1,
                            id: "L-LOCKGRAPH",
                            message: format!(
                                "lock-acquisition cycle: {} — no total order can schedule \
                                 these guards; break the cycle by narrowing one guard scope",
                                cycle.join(" -> ")
                            ),
                        });
                        // Stop after the first cycle through this edge to
                        // avoid duplicate reports of the same loop.
                        state.insert(n, 2);
                    } else if st == 0 {
                        state.insert(n, 1);
                        stack.push((n, 0));
                        path.push(n);
                    }
                }
                None => {
                    state.insert(*node, 2);
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    out
}
