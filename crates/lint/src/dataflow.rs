//! A tiny intraprocedural forward-dataflow framework over [`crate::cfg`]
//! graphs, plus the held-guard analysis used by L-HELDLOCK and
//! L-LOCKGRAPH.
//!
//! The framework is a classic worklist fixpoint for *may* analyses: facts
//! are joined over predecessors, the transfer function is applied per
//! node, and nodes are revisited until nothing changes. CFGs here are tiny
//! (one function each), so no ordering heuristics are needed.

use std::collections::BTreeSet;

use crate::cfg::{FnCfg, Node, ENTRY};

/// A forward dataflow analysis over CFG nodes.
pub trait Analysis {
    /// The lattice element propagated along edges.
    type Fact: Clone + PartialEq;

    /// The fact holding at function entry.
    fn boundary(&self) -> Self::Fact;

    /// Join of two facts (least upper bound for a may-analysis).
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Applies one node's effect to the incoming fact.
    fn transfer(&self, node: &Node, fact: &Self::Fact) -> Self::Fact;
}

/// Runs `analysis` to fixpoint; returns the fact holding *on entry to*
/// each node (`None` for unreachable nodes).
pub fn solve<A: Analysis>(cfg: &FnCfg, analysis: &A) -> Vec<Option<A::Fact>> {
    let n = cfg.nodes.len();
    let mut input: Vec<Option<A::Fact>> = vec![None; n];
    input[ENTRY] = Some(analysis.boundary());
    let mut work: Vec<usize> = vec![ENTRY];
    while let Some(node) = work.pop() {
        let Some(in_fact) = input[node].clone() else { continue };
        let out = analysis.transfer(&cfg.nodes[node], &in_fact);
        for &succ in &cfg.succ[node] {
            let merged = match &input[succ] {
                Some(existing) => analysis.join(existing, &out),
                None => out.clone(),
            };
            if input[succ].as_ref() != Some(&merged) {
                input[succ] = Some(merged);
                if !work.contains(&succ) {
                    work.push(succ);
                }
            }
        }
    }
    input
}

/// May-held guard analysis: the fact is the set of guard ids (indices
/// into [`FnCfg::guards`]) that may be live on entry to a node.
pub struct HeldGuards;

impl Analysis for HeldGuards {
    type Fact = BTreeSet<usize>;

    fn boundary(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        a.union(b).copied().collect()
    }

    fn transfer(&self, node: &Node, fact: &Self::Fact) -> Self::Fact {
        let mut out = fact.clone();
        match node {
            Node::Acquire { guard } => {
                out.insert(*guard);
            }
            Node::Release { guard } => {
                out.remove(guard);
            }
            _ => {}
        }
        out
    }
}

/// Convenience: the held-guard fact on entry to every node.
pub fn held_guards(cfg: &FnCfg) -> Vec<Option<BTreeSet<usize>>> {
    solve(cfg, &HeldGuards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use crate::lexer::lex;
    use crate::parser;
    use crate::passes::live_mask;

    fn held_at_call(src: &str, callee: &str) -> Vec<String> {
        let tokens = lex(src);
        let live = live_mask(&tokens);
        let parsed = parser::parse(&tokens, &live);
        let lock_of = |r: &str| match r {
            "queue" => Some("service.queue".to_string()),
            "jobs" => Some("service.store.jobs".to_string()),
            _ => None,
        };
        let g = cfg::build(&parsed.fns[0], &lock_of);
        let facts = held_guards(&g);
        for (i, node) in g.nodes.iter().enumerate() {
            if let Node::Call(c) = node {
                if c.name == callee {
                    let held = facts[i].clone().unwrap_or_default();
                    return held.iter().map(|&gid| g.guards[gid].lock.clone()).collect();
                }
            }
        }
        panic!("no call to {callee} found");
    }

    #[test]
    fn guard_held_across_call_in_same_block() {
        let held = held_at_call(
            "fn f(s: &S) {\n    let g = s.queue.lock();\n    s.store.persist();\n}\n",
            "persist",
        );
        assert_eq!(held, vec!["service.queue"]);
    }

    #[test]
    fn drop_clears_the_guard() {
        let held = held_at_call(
            "fn f(s: &S) {\n    let g = s.queue.lock();\n    drop(g);\n    s.store.persist();\n}\n",
            "persist",
        );
        assert!(held.is_empty());
    }

    #[test]
    fn scoped_block_clears_the_guard() {
        let held = held_at_call(
            "fn f(s: &S) {\n    {\n        let g = s.queue.lock();\n        g.push(1);\n    }\n    s.store.persist();\n}\n",
            "persist",
        );
        assert!(held.is_empty());
    }

    #[test]
    fn may_analysis_joins_branches() {
        // Guard acquired only on one branch: the join point may hold it.
        let held = held_at_call(
            "fn f(s: &S, c: bool) {\n    let g = s.queue.lock();\n    if c {\n        drop(g);\n    }\n    s.store.persist();\n}\n",
            "persist",
        );
        // drop() inside the branch refers to the outer binding; the else
        // path still holds it, so the may-set is non-empty.
        assert_eq!(held, vec!["service.queue"]);
    }

    #[test]
    fn nested_guards_stack() {
        let held = held_at_call(
            "fn f(s: &S) {\n    let q = s.queue.lock();\n    let j = s.jobs.lock();\n    s.net.send_all();\n}\n",
            "send_all",
        );
        assert_eq!(held, vec!["service.queue", "service.store.jobs"]);
    }
}
