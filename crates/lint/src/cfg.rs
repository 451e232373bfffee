//! Per-function control-flow graphs over the parsed statement tree.
//!
//! Nodes are *events* the concurrency passes care about — lock
//! acquisitions, releases, and calls — rather than raw statements. The
//! builder encodes the Rust 2021 temporary-lifetime rules that matter for
//! guard analysis:
//!
//! - a let-bound guard lives until `drop(name)` or the end of its
//!   enclosing block;
//! - a statement temporary (`self.queue.lock().len()`) dies at the end of
//!   its statement;
//! - an `if let` / `while let` / `match` scrutinee temporary lives until
//!   the end of the *whole* construct (the 2021 rule that makes
//!   `if let Some(x) = m.lock().get(k) { … }` hold the guard across the
//!   body);
//! - a `for` loop iterator temporary lives for the entire loop;
//! - plain `if` / `while` condition temporaries die when the condition
//!   finishes evaluating.
//!
//! `break` / `continue` are approximated as ordinary fall-through and
//! `loop` bodies get a synthetic exit edge; both over-approximate the set
//! of live guards, which is the safe direction for L-HELDLOCK and
//! L-LOCKGRAPH (possible false positives, no false negatives from control
//! flow).

use crate::parser::{Block, CallEvent, FnDef, Stmt};

/// One CFG node.
#[derive(Debug)]
pub enum Node {
    /// Function entry.
    Entry,
    /// Function exit (also the target of `return`).
    Exit,
    /// Control-flow join (no event).
    Join,
    /// A named-lock acquisition creating guard `guard`.
    Acquire {
        /// Index into [`FnCfg::guards`].
        guard: usize,
    },
    /// Guard `guard` goes out of scope or is dropped.
    Release {
        /// Index into [`FnCfg::guards`].
        guard: usize,
    },
    /// Any other call event (blocking-op and call-graph analysis).
    Call(CallEvent),
}

/// Static information about one acquisition site.
#[derive(Debug)]
pub struct GuardInfo {
    /// Registered lock name (`"service.queue"`).
    pub lock: String,
    /// Source line of the acquisition.
    pub line: u32,
}

/// A function CFG: nodes, successor lists, and the guard table.
#[derive(Debug)]
pub struct FnCfg {
    /// Nodes; index 0 is always [`Node::Entry`], index 1 [`Node::Exit`].
    pub nodes: Vec<Node>,
    /// Successor edges per node.
    pub succ: Vec<Vec<usize>>,
    /// Acquisition sites referenced by `Acquire` / `Release` nodes.
    pub guards: Vec<GuardInfo>,
}

/// Entry node index.
pub const ENTRY: usize = 0;
/// Exit node index.
pub const EXIT: usize = 1;

/// Method names that acquire a guard when called with no arguments on a
/// known lock binding.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Builds the CFG for one function. `lock_of` maps a receiver identifier
/// to its registered lock name (`queue` → `service.queue`).
pub fn build(f: &FnDef, lock_of: &dyn Fn(&str) -> Option<String>) -> FnCfg {
    let mut b = Builder {
        nodes: vec![Node::Entry, Node::Exit],
        succ: vec![Vec::new(), Vec::new()],
        guards: Vec::new(),
        scopes: vec![ScopeFrame::default()],
        lock_of,
    };
    let tails = b.block(&f.body, vec![ENTRY]);
    let frame = b.scopes.pop().unwrap_or_default();
    let tails = b.release_frame(tails, &frame);
    for t in tails {
        b.edge(t, EXIT);
    }
    FnCfg { nodes: b.nodes, succ: b.succ, guards: b.guards }
}

/// Guards opened in one lexical scope, for block-end release.
///
/// A `drop(name)` emits a `Release` on its own path but does NOT remove
/// the entry: the sibling paths that skipped the drop still hold the
/// guard, so the scope-end `Release` must stay. Releasing an
/// already-released guard is a no-op in the dataflow (set removal), so
/// double releases on the drop path are harmless.
#[derive(Default, Clone)]
struct ScopeFrame {
    /// (binding name if let-bound, guard id).
    guards: Vec<(Option<String>, usize)>,
}

struct Builder<'a> {
    nodes: Vec<Node>,
    succ: Vec<Vec<usize>>,
    guards: Vec<GuardInfo>,
    /// Lexical scope stack; `drop(name)` searches from the innermost
    /// frame outwards, so dropping an outer binding inside a nested block
    /// is modelled correctly.
    scopes: Vec<ScopeFrame>,
    lock_of: &'a dyn Fn(&str) -> Option<String>,
}

impl Builder<'_> {
    fn edge(&mut self, from: usize, to: usize) {
        if !self.succ[from].contains(&to) {
            self.succ[from].push(to);
        }
    }

    fn push(&mut self, node: Node, preds: Vec<usize>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.succ.push(Vec::new());
        for p in preds {
            self.edge(p, id);
        }
        id
    }

    /// Emits the event chain for one run of calls. Acquisitions of known
    /// locks become `Acquire` nodes; `bound_to` receives the guard id when
    /// the run is a single acquisition bound by a `let`. Returns the new
    /// tails and the temp guard ids created by this run.
    fn calls(
        &mut self,
        calls: &[CallEvent],
        mut tails: Vec<usize>,
        bind_single: bool,
    ) -> (Vec<usize>, Vec<usize>, Option<usize>) {
        let mut temps = Vec::new();
        let mut bound = None;
        for (idx, c) in calls.iter().enumerate() {
            let acquired_lock =
                if c.is_method && c.no_args && ACQUIRE_METHODS.contains(&c.name.as_str()) {
                    c.receiver.as_deref().and_then(|r| (self.lock_of)(r))
                } else {
                    None
                };
            if let Some(lock) = acquired_lock {
                let guard = self.guards.len();
                self.guards.push(GuardInfo { lock, line: c.line });
                let n = self.push(Node::Acquire { guard }, tails);
                tails = vec![n];
                if bind_single && calls.len() == 1 && idx == 0 {
                    bound = Some(guard);
                } else {
                    temps.push(guard);
                }
            } else {
                let n = self.push(Node::Call(c.clone()), tails);
                tails = vec![n];
            }
        }
        (tails, temps, bound)
    }

    /// Emits `Release` nodes for a set of guard ids.
    fn release(&mut self, guards: &[usize], mut tails: Vec<usize>) -> Vec<usize> {
        for &g in guards {
            let n = self.push(Node::Release { guard: g }, tails);
            tails = vec![n];
        }
        tails
    }

    /// Releases every guard of one frame (reverse order).
    fn release_frame(&mut self, mut tails: Vec<usize>, frame: &ScopeFrame) -> Vec<usize> {
        for (_, g) in frame.guards.iter().rev() {
            let n = self.push(Node::Release { guard: *g }, tails);
            tails = vec![n];
        }
        tails
    }

    /// Releases every still-live guard on the whole scope stack (used on
    /// `return` paths).
    fn release_all_scopes(&mut self, mut tails: Vec<usize>) -> Vec<usize> {
        let frames = self.scopes.clone();
        for frame in frames.iter().rev() {
            tails = self.release_frame(tails, frame);
        }
        tails
    }

    /// Handles `drop(name)` against let-bound guards, innermost scope
    /// first (shadowing-aware). Emits a path-local `Release`; the scope
    /// entry stays so sibling paths still release at scope end.
    fn handle_drop(&mut self, calls: &[CallEvent], tails: &mut Vec<usize>) {
        for c in calls {
            if c.is_method || c.name != "drop" {
                continue;
            }
            let Some(arg) = &c.arg_ident else { continue };
            let mut found = None;
            'search: for frame in self.scopes.iter().rev() {
                for entry in frame.guards.iter().rev() {
                    if entry.0.as_deref() == Some(arg.as_str()) {
                        found = Some(entry.1);
                        break 'search;
                    }
                }
            }
            if let Some(g) = found {
                let n = self.push(Node::Release { guard: g }, std::mem::take(tails));
                *tails = vec![n];
            }
        }
    }

    /// Builds a nested block with its own scope; returns its tails after
    /// scope-end releases.
    fn nested(&mut self, body: &Block, preds: Vec<usize>) -> Vec<usize> {
        self.scopes.push(ScopeFrame::default());
        let tails = self.block(body, preds);
        let frame = self.scopes.pop().unwrap_or_default();
        self.release_frame(tails, &frame)
    }

    fn block(&mut self, b: &Block, mut tails: Vec<usize>) -> Vec<usize> {
        for stmt in &b.stmts {
            tails = self.stmt(stmt, tails);
        }
        tails
    }

    fn stmt(&mut self, stmt: &Stmt, tails: Vec<usize>) -> Vec<usize> {
        match stmt {
            Stmt::Let { name, calls } => {
                let (mut tails, temps, bound) = self.calls(calls, tails, name.is_some());
                self.handle_drop(calls, &mut tails);
                // Statement temporaries die here; a let-bound guard joins
                // the scope.
                let tails = self.release(&temps, tails);
                if let Some(g) = bound {
                    if let Some(frame) = self.scopes.last_mut() {
                        frame.guards.push((name.clone(), g));
                    }
                }
                tails
            }
            Stmt::Expr { calls } | Stmt::Return { calls } => {
                let (mut tails, temps, _) = self.calls(calls, tails, false);
                self.handle_drop(calls, &mut tails);
                let tails = self.release(&temps, tails);
                if matches!(stmt, Stmt::Return { .. }) {
                    // Every scope's guards are released on return.
                    let tails = self.release_all_scopes(tails);
                    for t in tails {
                        self.edge(t, EXIT);
                    }
                    return Vec::new();
                }
                tails
            }
            Stmt::If { head, is_let, then_b, else_b } => {
                let (head_tails, temps, _) = self.calls(head, tails, false);
                // Plain-if condition temporaries die before branching; the
                // 2021 if-let scrutinee lives across both branches.
                let head_tails =
                    if *is_let { head_tails } else { self.release(&temps, head_tails) };
                let then_tails = self.nested(then_b, head_tails.clone());
                let else_tails = match else_b {
                    Some(e) => self.nested(e, head_tails.clone()),
                    None => head_tails.clone(),
                };
                let join = self.push(Node::Join, [then_tails, else_tails].concat());
                if *is_let {
                    self.release(&temps, vec![join])
                } else {
                    vec![join]
                }
            }
            Stmt::While { head, is_let, body } => {
                let head_entry = self.push(Node::Join, tails);
                let (head_tails, temps, _) = self.calls(head, vec![head_entry], false);
                let head_tails =
                    if *is_let { head_tails } else { self.release(&temps, head_tails) };
                let body_tails = self.nested(body, head_tails.clone());
                for t in body_tails {
                    self.edge(t, head_entry);
                }
                let after = self.push(Node::Join, head_tails);
                if *is_let {
                    self.release(&temps, vec![after])
                } else {
                    vec![after]
                }
            }
            Stmt::For { head, body } => {
                // The iterator expression is evaluated once; its
                // temporaries (e.g. a guard in `for x in m.lock().iter()`)
                // live for the whole loop.
                let (head_tails, temps, _) = self.calls(head, tails, false);
                let head_entry = self.push(Node::Join, head_tails);
                let body_tails = self.nested(body, vec![head_entry]);
                for t in body_tails {
                    self.edge(t, head_entry);
                }
                let after = self.push(Node::Join, vec![head_entry]);
                self.release(&temps, vec![after])
            }
            Stmt::Loop { body } => {
                let head_entry = self.push(Node::Join, tails);
                let body_tails = self.nested(body, vec![head_entry]);
                for t in &body_tails {
                    self.edge(*t, head_entry);
                }
                // Synthetic exit edge: `break` is not tracked, so pretend
                // the loop can fall through from its head and body ends.
                let mut preds = body_tails;
                preds.push(head_entry);
                vec![self.push(Node::Join, preds)]
            }
            Stmt::Match { head, arms } => {
                let (head_tails, temps, _) = self.calls(head, tails, false);
                let mut arm_tails = Vec::new();
                for arm in arms {
                    arm_tails.extend(self.nested(arm, head_tails.clone()));
                }
                if arm_tails.is_empty() {
                    arm_tails = head_tails;
                }
                let join = self.push(Node::Join, arm_tails);
                // Scrutinee temporaries live across every arm.
                self.release(&temps, vec![join])
            }
            Stmt::Sub { body } => self.nested(body, tails),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser;
    use crate::passes::live_mask;

    fn cfg_of(src: &str) -> FnCfg {
        let tokens = lex(src);
        let live = live_mask(&tokens);
        let parsed = parser::parse(&tokens, &live);
        let lock_of = |r: &str| match r {
            "queue" => Some("service.queue".to_string()),
            "running" => Some("service.running".to_string()),
            _ => None,
        };
        build(&parsed.fns[0], &lock_of)
    }

    fn count_acquires(cfg: &FnCfg) -> usize {
        cfg.nodes.iter().filter(|n| matches!(n, Node::Acquire { .. })).count()
    }

    #[test]
    fn let_bound_guard_released_by_drop() {
        let cfg =
            cfg_of("fn f(s: &S) {\n    let g = s.queue.lock();\n    drop(g);\n    s.send();\n}\n");
        assert_eq!(count_acquires(&cfg), 1);
        // The drop releases on its path; the scope end releases again (a
        // dataflow no-op) so sibling paths that skip a conditional drop
        // stay correct.
        let releases = cfg.nodes.iter().filter(|n| matches!(n, Node::Release { .. })).count();
        assert_eq!(releases, 2);
        // The send call must come after the drop's release.
        let rel = cfg.nodes.iter().position(|n| matches!(n, Node::Release { .. })).unwrap();
        let send =
            cfg.nodes.iter().position(|n| matches!(n, Node::Call(c) if c.name == "send")).unwrap();
        assert!(rel < send);
    }

    #[test]
    fn conditional_drop_keeps_sibling_path_release() {
        // drop() on one branch must not eat the scope-end release that
        // the other branch relies on; and a later acquisition in a loop
        // must not see the guard as still held via the back edge.
        let cfg = cfg_of(
            "fn f(s: &S, c: bool) {\n    loop {\n        let g = s.queue.lock();\n        if c {\n            drop(g);\n            continue;\n        }\n        drop(g);\n    }\n}\n",
        );
        let flow = crate::dataflow::held_guards(&cfg);
        for (i, node) in cfg.nodes.iter().enumerate() {
            if let Node::Acquire { .. } = node {
                let held = flow[i].clone().unwrap_or_default();
                assert!(held.is_empty(), "no guard may survive the back edge: {held:?}");
            }
        }
    }

    #[test]
    fn statement_temp_released_same_statement() {
        let cfg = cfg_of("fn f(s: &S) {\n    s.queue.lock().len();\n    s.send();\n}\n");
        // Order must be Acquire, Call(len), Release, Call(send).
        let kinds: Vec<&str> = cfg
            .nodes
            .iter()
            .map(|n| match n {
                Node::Acquire { .. } => "acq",
                Node::Release { .. } => "rel",
                Node::Call(c) => {
                    if c.name == "send" {
                        "send"
                    } else {
                        "call"
                    }
                }
                _ => "-",
            })
            .collect();
        let acq = kinds.iter().position(|k| *k == "acq").unwrap();
        let rel = kinds.iter().position(|k| *k == "rel").unwrap();
        let send = kinds.iter().position(|k| *k == "send").unwrap();
        assert!(acq < rel && rel < send);
    }

    #[test]
    fn if_let_scrutinee_guard_spans_body() {
        let cfg = cfg_of(
            "fn f(s: &S) {\n    if let Some(t) = s.running.lock().get(&1) {\n        t.cancel();\n    }\n}\n",
        );
        assert_eq!(count_acquires(&cfg), 1);
        // The release node must come after the join (i.e. after the body).
        let rel = cfg.nodes.iter().position(|n| matches!(n, Node::Release { .. })).unwrap();
        let cancel = cfg
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Call(c) if c.name == "cancel"))
            .unwrap();
        assert!(cancel < rel, "guard must outlive the if-let body");
    }
}
