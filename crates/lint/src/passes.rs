//! The two lock passes and the test-code mask.
//!
//! L-HELDLOCK runs per file over each function's guard dataflow;
//! L-LOCKGRAPH runs once over every lock-disciplined file
//! ([`facts::check_locks`]). Both see only *live* tokens: `#[cfg(test)]`
//! items and `#[test]` functions are masked out before parsing.

use std::collections::BTreeSet;

use crate::facts::{self, Facts};
use crate::lexer::{Token, TokenKind};
use crate::parser::ParsedFile;
use crate::{cfg, dataflow, Diagnostic};

/// One id the tool reports, as `--list` shows it.
pub struct Lint {
    /// Stable id, e.g. `L-HELDLOCK`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The files it covers.
    pub scope: &'static str,
}

/// Every id the tool reports, in `--list` order.
pub const LINTS: [Lint; 2] = [
    Lint {
        id: "L-HELDLOCK",
        summary: "no MutexGuard/RwLock guard live across a blocking operation",
        scope: "crates/service, crates/cluster, crates/reliability",
    },
    Lint {
        id: "L-LOCKGRAPH",
        summary: "locks named and registered; acquisition graph acyclic, \
                  LOCK_ORDER-consistent, no re-entry",
        scope: "crates/service, crates/cluster, crates/reliability (whole-workspace)",
    },
];

// ---------------------------------------------------------------------------
// L-HELDLOCK
// ---------------------------------------------------------------------------

/// Flags blocking calls reached while a named-lock guard may still be
/// live, per function, via the guard dataflow of [`crate::dataflow`].
pub fn check_heldlock(path: &str, parsed: &ParsedFile, facts: &Facts) -> Vec<Diagnostic> {
    let lock_of = facts.lock_of(path);
    // The parser records nested fns both standalone and inside their
    // parent's body, so identical findings can surface twice: dedup.
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for fun in &parsed.fns {
        let g = cfg::build(fun, &lock_of);
        if g.guards.is_empty() {
            continue;
        }
        let flow = dataflow::held_guards(&g);
        for (i, node) in g.nodes.iter().enumerate() {
            let cfg::Node::Call(c) = node else { continue };
            let Some(held) = flow[i].as_ref().filter(|h| !h.is_empty()) else { continue };
            let Some(reason) = facts::blocking_reason(c, facts) else { continue };
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
                let file = path.to_string();
                out.push(Diagnostic { file, line: c.line, id: "L-HELDLOCK", message });
            }
        }
    }
    out
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

    fn run_heldlock(path: &str, src: &str, lock_order: &[String]) -> Vec<Diagnostic> {
        let tokens = lex(src);
        let parsed = crate::parser::parse(&tokens, &live_mask(&tokens));
        let inputs = [facts::FileInput { path, parsed: &parsed }];
        check_heldlock(path, &parsed, &Facts::build(&inputs, lock_order.to_vec()))
    }

    /// The live `unwrap` identifiers of `src`.
    fn live_unwraps(src: &str) -> usize {
        let tokens = lex(src);
        let live = live_mask(&tokens);
        tokens.iter().zip(live).filter(|(t, l)| *l && t.is_ident("unwrap")).count()
    }

    #[test]
    fn test_code_is_masked() {
        assert_eq!(
            live_unwraps("fn ok() {}\n#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }"),
            0
        );
        assert_eq!(live_unwraps("#[test]\nfn t() { x.unwrap(); }\nfn g() { y.unwrap(); }"), 1);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        assert_eq!(live_unwraps("#[cfg(not(test))]\nfn f() { x.unwrap(); }"), 1);
    }

    #[test]
    fn item_without_body_is_skipped_correctly() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn f() { x.unwrap(); }";
        assert_eq!(live_unwraps(src), 1, "code after the bodyless item stays live");
    }

    #[test]
    fn heldlock_flags_blocking_call_under_guard() {
        let order = vec!["service.queue".to_string()];
        let src = "fn mk() { let queue = Mutex::named(\"service.queue\", Vec::new()); }\n\
                   fn f(s: &S) {\n    let g = s.queue.lock();\n    s.stream.write_all(b\"x\");\n}\n";
        let out = run_heldlock("crates/service/src/server.rs", src, &order);
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
        let out = run_heldlock("crates/service/src/server.rs", src, &order);
        assert!(out.is_empty(), "{out:?}");
    }
}
