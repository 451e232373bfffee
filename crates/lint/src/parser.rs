//! A lightweight, tolerant Rust parser for dataflow-based lint passes.
//!
//! This is deliberately *not* a full Rust grammar. It recovers exactly the
//! structure the lock passes need from the token
//! stream: function bodies as statement trees (so a CFG can be built) and
//! lock construction sites (`Mutex::named("…", …)` and the identifier
//! each is bound to). Everything else — types, generics, trait
//! resolution, macro expansion — is skipped or flattened.
//!
//! Design rules that keep the parser sound for its consumers:
//!
//! - Only *live* tokens are parsed (`#[cfg(test)]` / `#[test]` code is
//!   masked out by `passes::live_mask` before parsing).
//! - The parser never fails: unrecognised constructs degrade to flat
//!   expression statements whose calls are still extracted in token order.
//! - Closures are not treated as execution boundaries: calls inside a
//!   closure body are attributed to the enclosing statement, as if they ran
//!   at the call site. This models the immediate-invocation idiom
//!   (`retain(|s| …)`, `map(|x| …)`) and over-approximates deferred
//!   closures (`thread::spawn`), which is the safe direction for
//!   held-lock analysis.

use crate::lexer::{Token, TokenKind};

/// Everything the passes need from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item (including nested fns, parsed independently).
    pub fns: Vec<FnDef>,
    /// `Mutex` / `RwLock` construction sites.
    pub locks: Vec<LockSite>,
}

/// One function definition with its parsed body.
#[derive(Debug)]
pub struct FnDef {
    /// The function name (no path or impl owner — collisions across types
    /// are resolved conservatively by the passes).
    pub name: String,
    /// The body as a statement tree.
    pub body: Block,
}

/// A `{ … }` block: a sequence of statements.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement, at the granularity the CFG needs.
#[derive(Debug)]
pub enum Stmt {
    /// `let NAME = …;` — `name` is `None` for non-trivial patterns.
    Let { name: Option<String>, calls: Vec<CallEvent> },
    /// Any other expression statement (including `break` / `continue`).
    Expr { calls: Vec<CallEvent> },
    /// `if` / `if let`, with an optional else branch (else-if chains nest).
    If { head: Vec<CallEvent>, is_let: bool, then_b: Block, else_b: Option<Block> },
    /// `while` / `while let`.
    While { head: Vec<CallEvent>, is_let: bool, body: Block },
    /// `for PAT in EXPR { … }` — iterator temporaries live for the loop.
    For { head: Vec<CallEvent>, body: Block },
    /// Bare `loop { … }`.
    Loop { body: Block },
    /// `match EXPR { arms }` — scrutinee temporaries live across the arms.
    Match { head: Vec<CallEvent>, arms: Vec<Block> },
    /// A nested `{ … }` (or `unsafe { … }`) block with its own scope.
    Sub { body: Block },
    /// `return …;` — edges to the function exit in the CFG.
    Return { calls: Vec<CallEvent> },
}

/// One call observed inside a statement, in token order.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// Callee name (`lock`, `write_line`, `recv_timeout`, …).
    pub name: String,
    /// For method calls: the last identifier of the dotted receiver chain
    /// (`self.queue.lock()` → `queue`). `None` when the receiver is not a
    /// simple path (e.g. a call result).
    pub receiver: Option<String>,
    /// For path calls (`TcpStream::connect`): the segment before `::`.
    pub path_prefix: Option<String>,
    /// `true` for `.name(…)` method syntax.
    pub is_method: bool,
    /// `true` when the argument list is empty (`join()` vs `join(x)`).
    pub no_args: bool,
    /// For bare `drop(ident)` calls: the single-identifier argument.
    pub arg_ident: Option<String>,
    /// Source line of the callee identifier.
    pub line: u32,
}

/// A `Mutex` / `RwLock` construction site (`::new`, `::default` or
/// `::named`) with the identifier it is bound to.
#[derive(Debug)]
pub struct LockSite {
    /// `Mutex` or `RwLock`.
    pub ty: String,
    /// `new`, `default` or `named`.
    pub ctor: String,
    /// The string literal a `::named` call registers the lock under;
    /// `None` for `new` / `default` and for a name that is not a literal.
    pub lock: Option<String>,
    /// Identifier the lock is stored under (struct field init or let
    /// binding), when there is one.
    pub ident: Option<String>,
    /// Source line of the constructor.
    pub line: u32,
}

/// Parses the live tokens of one file. `live` must be the
/// `passes::live_mask` of `tokens`.
pub fn parse(tokens: &[Token], live: &[bool]) -> ParsedFile {
    let toks: Vec<Token> =
        tokens.iter().zip(live).filter(|(_, l)| **l).map(|(t, _)| t.clone()).collect();
    let mut out = ParsedFile::default();
    collect_fns(&toks, &mut out);
    collect_locks(&toks, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Function bodies.
// ---------------------------------------------------------------------------

/// Finds every `fn` item (any nesting depth) and parses its body.
fn collect_fns(toks: &[Token], out: &mut ParsedFile) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
            let name = toks[i + 1].text.clone();
            // Walk to the body `{` (or a `;` for trait/extern decls),
            // counting only paren/bracket nesting: return types and where
            // clauses cannot contain a top-level `{`.
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if depth == 0 && t.is_punct("{") {
                    body = Some(j);
                    break;
                } else if depth == 0 && t.is_punct(";") {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                let close = matching_brace(toks, open);
                out.fns.push(FnDef { name, body: parse_block(&toks[open + 1..close]) });
                // Continue scanning *inside* the body too: nested fns are
                // parsed as their own defs (their calls are additionally
                // attributed to the enclosing fn, which over-approximates).
                i = open + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct("{") {
            depth += 1;
        } else if toks[j].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Advances past one balanced bracket group starting at `i` (which must be
/// an opening bracket); returns the index just past the closer.
fn skip_group(toks: &[Token], i: usize) -> usize {
    let (open, close) = match toks[i].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return i + 1,
    };
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Parses the token slice of a block interior into statements.
fn parse_block(toks: &[Token]) -> Block {
    let mut stmts = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        // Skip attributes and stray semicolons.
        if t.is_punct("#") {
            i += 1;
            if i < toks.len() && toks[i].is_punct("[") {
                i = skip_group(toks, i);
            }
            continue;
        }
        if t.is_punct(";") {
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "let" => {
                    i = parse_let(toks, i, &mut stmts);
                    continue;
                }
                "if" => {
                    let (stmt, ni) = parse_if(toks, i);
                    stmts.push(stmt);
                    i = ni;
                    continue;
                }
                "while" => {
                    let (head, is_let, open) = parse_head(toks, i + 1);
                    let close = matching_brace(toks, open);
                    stmts.push(Stmt::While {
                        head,
                        is_let,
                        body: parse_block(&toks[open + 1..close]),
                    });
                    i = close + 1;
                    continue;
                }
                "for" => {
                    let (head, _, open) = parse_head(toks, i + 1);
                    let close = matching_brace(toks, open);
                    stmts.push(Stmt::For { head, body: parse_block(&toks[open + 1..close]) });
                    i = close + 1;
                    continue;
                }
                "loop" if toks.get(i + 1).is_some_and(|t| t.is_punct("{")) => {
                    let close = matching_brace(toks, i + 1);
                    stmts.push(Stmt::Loop { body: parse_block(&toks[i + 2..close]) });
                    i = close + 1;
                    continue;
                }
                "match" => {
                    let (head, _, open) = parse_head(toks, i + 1);
                    let close = matching_brace(toks, open);
                    stmts.push(Stmt::Match { head, arms: parse_arms(&toks[open + 1..close]) });
                    i = close + 1;
                    continue;
                }
                "unsafe" if toks.get(i + 1).is_some_and(|t| t.is_punct("{")) => {
                    let close = matching_brace(toks, i + 1);
                    stmts.push(Stmt::Sub { body: parse_block(&toks[i + 2..close]) });
                    i = close + 1;
                    continue;
                }
                "return" => {
                    let (end, calls, subs) = flat_stmt(toks, i + 1);
                    for body in subs {
                        stmts.push(Stmt::Sub { body });
                    }
                    stmts.push(Stmt::Return { calls });
                    i = end;
                    continue;
                }
                // Nested items inside fn bodies: parsed separately by
                // `collect_fns`; here we just skip to their body so their
                // statements also appear in this block (over-approximate).
                _ => {}
            }
        }
        if t.is_punct("{") {
            let close = matching_brace(toks, i);
            stmts.push(Stmt::Sub { body: parse_block(&toks[i + 1..close]) });
            i = close + 1;
            continue;
        }
        // Plain expression statement; its brace groups (closure bodies,
        // block expressions) become scoped sub-statements.
        let (end, calls, subs) = flat_stmt(toks, i);
        for body in subs {
            stmts.push(Stmt::Sub { body });
        }
        stmts.push(Stmt::Expr { calls });
        i = end;
    }
    Block { stmts }
}

/// Parses a `let` statement starting at the `let` keyword; returns the
/// index just past its `;`. Handles `let … else { … }` by modelling the
/// diverging else block as an `If`.
fn parse_let(toks: &[Token], i: usize, stmts: &mut Vec<Stmt>) -> usize {
    let mut j = i + 1;
    if j < toks.len() && toks[j].is_ident("mut") {
        j += 1;
    }
    // Simple binding: `let [mut] name =` — anything else (tuple or enum
    // pattern) yields `name: None`, i.e. statement-temporary semantics.
    let name = if toks.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
        && toks.get(j + 1).is_some_and(|t| t.is_punct("=") || t.is_punct(":"))
    {
        Some(toks[j].text.clone())
    } else {
        None
    };
    // Consume the initializer to the terminating `;` at bracket depth 0,
    // watching for a top-level `else` (let-else).
    let mut depth = 0i32;
    let mut k = j;
    let start = j;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(";") {
            let (calls, subs) = split_expr(&toks[start..k]);
            for body in subs {
                stmts.push(Stmt::Sub { body });
            }
            stmts.push(Stmt::Let { name, calls });
            return k + 1;
        } else if depth == 0 && t.is_ident("else") {
            // let-else: binding either succeeds or the else block diverges.
            let (calls, subs) = split_expr(&toks[start..k]);
            for body in subs {
                stmts.push(Stmt::Sub { body });
            }
            let open = k + 1;
            if toks.get(open).is_some_and(|t| t.is_punct("{")) {
                let close = matching_brace(toks, open);
                stmts.push(Stmt::If {
                    head: calls,
                    is_let: true,
                    then_b: parse_block(&toks[open + 1..close]),
                    else_b: None,
                });
                let mut end = close + 1;
                if toks.get(end).is_some_and(|t| t.is_punct(";")) {
                    end += 1;
                }
                return end;
            }
            stmts.push(Stmt::Let { name, calls });
            return k + 1;
        }
        k += 1;
    }
    let (calls, subs) = split_expr(&toks[start..k]);
    for body in subs {
        stmts.push(Stmt::Sub { body });
    }
    stmts.push(Stmt::Let { name, calls });
    k
}

/// Parses an `if` statement starting at the `if` keyword; returns the
/// statement and the index just past it (including any else chain).
fn parse_if(toks: &[Token], i: usize) -> (Stmt, usize) {
    let (head, is_let, open) = parse_head(toks, i + 1);
    let close = matching_brace(toks, open);
    let then_b = parse_block(&toks[open + 1..close]);
    let mut end = close + 1;
    let mut else_b = None;
    if toks.get(end).is_some_and(|t| t.is_ident("else")) {
        if toks.get(end + 1).is_some_and(|t| t.is_ident("if")) {
            // else-if chain: nest the tail as a one-statement block.
            let (tail, ni) = parse_if(toks, end + 1);
            else_b = Some(Block { stmts: vec![tail] });
            end = ni;
        } else if toks.get(end + 1).is_some_and(|t| t.is_punct("{")) {
            let eclose = matching_brace(toks, end + 1);
            else_b = Some(parse_block(&toks[end + 2..eclose]));
            end = eclose + 1;
        }
    }
    (Stmt::If { head, is_let, then_b, else_b }, end)
}

/// Parses a condition / scrutinee / iterator head: tokens from `start` to
/// the `{` that opens the body (at bracket depth 0). Rust forbids bare
/// struct literals in these positions, so the first top-level `{` is the
/// body. Returns (calls, saw `let`, index of the `{`).
fn parse_head(toks: &[Token], start: usize) -> (Vec<CallEvent>, bool, usize) {
    let mut depth = 0i32;
    let mut j = start;
    let mut is_let = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct("{") {
            break;
        } else if depth == 0 && t.is_ident("let") {
            is_let = true;
        }
        j += 1;
    }
    (extract_calls(&toks[start..j.min(toks.len())]), is_let, j.min(toks.len().saturating_sub(1)))
}

/// Splits a match body into arms; each arm body becomes a `Block` (calls
/// in the pattern/guard are prepended as an expression statement).
fn parse_arms(toks: &[Token]) -> Vec<Block> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // Skip attributes and separators between arms.
        if toks[i].is_punct("#") {
            i += 1;
            if i < toks.len() && toks[i].is_punct("[") {
                i = skip_group(toks, i);
            }
            continue;
        }
        if toks[i].is_punct(",") {
            i += 1;
            continue;
        }
        // Pattern (+ optional guard) up to `=>` at depth 0.
        let pat_start = i;
        let mut depth = 0i32;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if depth == 0 && t.is_punct("=>") {
                break;
            }
            i += 1;
        }
        if i >= toks.len() {
            break;
        }
        let guard_calls = extract_calls(&toks[pat_start..i]);
        i += 1; // past `=>`
        let mut body = if toks.get(i).is_some_and(|t| t.is_punct("{")) {
            let close = matching_brace(toks, i);
            let b = parse_block(&toks[i + 1..close]);
            i = close + 1;
            b
        } else {
            // Expression arm: consume to `,` at depth 0 (or end).
            let expr_start = i;
            let mut depth = 0i32;
            while i < toks.len() {
                let t = &toks[i];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    depth -= 1;
                } else if depth == 0 && t.is_punct(",") {
                    break;
                }
                i += 1;
            }
            let (calls, subs) = split_expr(&toks[expr_start..i]);
            let mut stmts: Vec<Stmt> = subs.into_iter().map(|body| Stmt::Sub { body }).collect();
            stmts.push(Stmt::Expr { calls });
            Block { stmts }
        };
        if !guard_calls.is_empty() {
            body.stmts.insert(0, Stmt::Expr { calls: guard_calls });
        }
        arms.push(body);
    }
    arms
}

/// Consumes one flat expression statement starting at `i`: to the `;` at
/// bracket depth 0 (or end of slice). Returns (index past the statement,
/// extracted calls, nested brace-group blocks).
fn flat_stmt(toks: &[Token], i: usize) -> (usize, Vec<CallEvent>, Vec<Block>) {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(";") {
            let (calls, subs) = split_expr(&toks[i..j]);
            return (j + 1, calls, subs);
        }
        j += 1;
    }
    let (calls, subs) = split_expr(&toks[i..j]);
    (j, calls, subs)
}

/// Splits an expression token run into its brace-free calls and the
/// brace-enclosed groups it contains, each parsed as a nested block.
/// This is what gives closure bodies and block expressions
/// (`let x = { let g = m.lock(); … };`, `spawn(move || { … })`) their own
/// lexical scope instead of flattening their guards into the enclosing
/// statement.
fn split_expr(toks: &[Token]) -> (Vec<CallEvent>, Vec<Block>) {
    let mut calls = Vec::new();
    let mut subs = Vec::new();
    let mut seg_start = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("{") {
            calls.extend(extract_calls(&toks[seg_start..i]));
            let close = matching_brace(toks, i);
            subs.push(parse_block(&toks[i + 1..close.min(toks.len())]));
            i = (close + 1).min(toks.len());
            seg_start = i;
            continue;
        }
        i += 1;
    }
    calls.extend(extract_calls(&toks[seg_start..]));
    (calls, subs)
}

/// Extracts every call event from a token run, in token order. Macro
/// invocations (`name!(…)`) are not calls; their argument tokens still
/// flow through this scan, so calls inside macro arguments are seen.
fn extract_calls(toks: &[Token]) -> Vec<CallEvent> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        if !next.is_punct("(") {
            continue;
        }
        // `name!(…)` is a macro, not a call — but the previous token being
        // `!` only means macro when it *follows* the ident.
        if i > 0 && toks[i - 1].is_punct("!") {
            continue;
        }
        let name = toks[i].text.clone();
        if is_keyword(&name) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let (is_method, receiver, path_prefix) = match prev {
            Some(p) if p.is_punct(".") => (true, receiver_chain(toks, i - 1), None),
            Some(p) if p.is_punct("::") => {
                let prefix = i
                    .checked_sub(2)
                    .map(|q| &toks[q])
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone());
                (false, None, prefix)
            }
            _ => (false, None, None),
        };
        let no_args = toks.get(i + 2).is_some_and(|t| t.is_punct(")"));
        // `drop(ident)`: capture the single-identifier argument.
        let arg_ident = if !is_method
            && path_prefix.is_none()
            && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
        {
            Some(toks[i + 2].text.clone())
        } else {
            None
        };
        out.push(CallEvent {
            name,
            receiver,
            path_prefix,
            is_method,
            no_args,
            arg_ident,
            line: toks[i].line,
        });
    }
    out
}

/// For a method call whose `.` is at `dot`, walks the dotted receiver
/// chain backwards and returns its last identifier (`self.queue.lock()` →
/// `queue`). Returns `None` when the receiver ends in a call or index.
fn receiver_chain(toks: &[Token], dot: usize) -> Option<String> {
    let j = dot.checked_sub(1)?;
    let t = &toks[j];
    if t.kind == TokenKind::Ident && !t.is_ident("self") {
        return Some(t.text.clone());
    }
    if t.is_ident("self") {
        return Some("self".to_string());
    }
    None
}

/// Reserved words that can precede `(` without being calls.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "fn"
            | "let"
            | "loop"
            | "in"
            | "as"
            | "move"
            | "mut"
            | "ref"
            | "else"
            | "pub"
            | "crate"
            | "unsafe"
            | "where"
            | "impl"
            | "dyn"
            | "box"
            | "await"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "const"
            | "static"
            | "type"
    )
}

// ---------------------------------------------------------------------------
// Named locks.
// ---------------------------------------------------------------------------

/// Finds `Mutex::{new, default, named}` / `RwLock::…` sites, the literal
/// name of a `named` one, and the identifier each lock is bound to.
fn collect_locks(toks: &[Token], out: &mut ParsedFile) {
    for i in 0..toks.len() {
        if !(toks[i].is_ident("Mutex") || toks[i].is_ident("RwLock"))
            || !toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
        {
            continue;
        }
        let Some(ctor) = toks
            .get(i + 2)
            .filter(|t| t.is_ident("new") || t.is_ident("default") || t.is_ident("named"))
        else {
            continue;
        };
        let lock = (ctor.is_ident("named") && toks.get(i + 3).is_some_and(|t| t.is_punct("(")))
            .then(|| toks.get(i + 4))
            .flatten()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.clone());
        // Walk back over constructor wrappers (`Arc::new(`, path prefixes)
        // to the binding: `ident:` (field init) or `let [mut] ident =`.
        let mut j = i;
        let ident = loop {
            let Some(p) = j.checked_sub(1) else { break None };
            j = p;
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("::") || t.kind == TokenKind::Ident {
                continue;
            }
            if t.is_punct(":") || t.is_punct("=") {
                break j
                    .checked_sub(1)
                    .map(|q| &toks[q])
                    .filter(|t| t.kind == TokenKind::Ident && !t.is_ident("mut"))
                    .map(|t| t.text.clone())
                    .or_else(|| {
                        j.checked_sub(2)
                            .map(|q| &toks[q])
                            .filter(|t| t.kind == TokenKind::Ident)
                            .map(|t| t.text.clone())
                    });
            }
            break None;
        };
        out.locks.push(LockSite {
            ty: toks[i].text.clone(),
            ctor: ctor.text.clone(),
            lock,
            ident,
            line: toks[i].line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::passes::live_mask;

    fn parsed(src: &str) -> ParsedFile {
        let tokens = lex(src);
        let live = live_mask(&tokens);
        parse(&tokens, &live)
    }

    #[test]
    fn fn_bodies_and_call_events() {
        let p = parsed(
            "impl S {\n    fn go(&self) {\n        let g = self.queue.lock();\n        write_line(&mut w, \"x\");\n        drop(g);\n    }\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "go");
        assert_eq!(f.body.stmts.len(), 3);
        match &f.body.stmts[0] {
            Stmt::Let { name, calls, .. } => {
                assert_eq!(name.as_deref(), Some("g"));
                assert_eq!(calls.len(), 1);
                assert_eq!(calls[0].name, "lock");
                assert_eq!(calls[0].receiver.as_deref(), Some("queue"));
                assert!(calls[0].is_method && calls[0].no_args);
            }
            other => panic!("expected let, got {other:?}"),
        }
        match &f.body.stmts[2] {
            Stmt::Expr { calls, .. } => {
                assert_eq!(calls[0].name, "drop");
                assert_eq!(calls[0].arg_ident.as_deref(), Some("g"));
            }
            other => panic!("expected drop stmt, got {other:?}"),
        }
    }

    #[test]
    fn if_let_and_match_structure() {
        let p = parsed(
            "fn f(m: &M) {\n    if let Some(t) = m.running.lock().get(&1) {\n        t.cancel();\n    }\n    match m.kind() {\n        K::A => m.a(),\n        K::B => { m.b(); }\n    }\n}\n",
        );
        let f = &p.fns[0];
        assert_eq!(f.body.stmts.len(), 2);
        match &f.body.stmts[0] {
            Stmt::If { head, is_let, then_b, .. } => {
                assert!(is_let);
                assert!(head.iter().any(|c| c.name == "lock"));
                assert_eq!(then_b.stmts.len(), 1);
            }
            other => panic!("expected if-let, got {other:?}"),
        }
        match &f.body.stmts[1] {
            Stmt::Match { arms, .. } => assert_eq!(arms.len(), 2),
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn lock_sites_field_and_let_forms() {
        let p = parsed(
            "fn b() -> S {\n    let session = Arc::new(Mutex::named(\"cluster.worker.session\", 0));\n    S { queue: Mutex::named(\"service.queue\", Vec::new()), rogue: RwLock::new(0), session }\n}\n",
        );
        let sites: Vec<(&str, &str, Option<&str>, Option<&str>)> = p
            .locks
            .iter()
            .map(|l| (l.ty.as_str(), l.ctor.as_str(), l.lock.as_deref(), l.ident.as_deref()))
            .collect();
        assert_eq!(
            sites,
            vec![
                ("Mutex", "named", Some("cluster.worker.session"), Some("session")),
                ("Mutex", "named", Some("service.queue"), Some("queue")),
                ("RwLock", "new", None, Some("rogue")),
            ]
        );
    }

    #[test]
    fn test_code_is_masked_out() {
        let p = parsed("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn dead() { x.lock(); }\n}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "live");
    }
}
