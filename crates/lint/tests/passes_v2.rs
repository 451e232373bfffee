//! Fixture tests for the two lock passes: L-HELDLOCK (guard live across
//! a blocking call) and L-LOCKGRAPH (static acquisition graph). Each pass
//! gets a bad fixture that must fire on the expected line and a good twin
//! — the same logic with the guard narrowed or the nesting consistent —
//! that must stay silent.

use snn_lint::{facts, lexer, lint_source, parser, passes};

const LOCKS: &[&str] = &["service.queue", "service.store.jobs", "cluster.coordinator"];

fn lock_order() -> Vec<String> {
    LOCKS.iter().map(|s| s.to_string()).collect()
}

/// Findings as compact `(line, id)` pairs.
fn findings(path: &str, source: &str) -> Vec<(u32, &'static str)> {
    lint_source(path, source, &lock_order()).into_iter().map(|d| (d.line, d.id)).collect()
}

fn parse(source: &str) -> parser::ParsedFile {
    let tokens = lexer::lex(source);
    parser::parse(&tokens, &passes::live_mask(&tokens))
}

// ---------------------------------------------------------------- L-HELDLOCK

/// A guard held across `TcpStream::write_all` — the socket peer controls
/// how long the lock stays held.
const HELDLOCK_BAD: &str = "\
use std::io::Write;
pub struct S { q: parking_lot::Mutex<Vec<u8>> }
impl S {
    pub fn new() -> Self { Self { q: parking_lot::Mutex::named(\"service.queue\", Vec::new()) } }
    pub fn stream_out(&self, stream: &mut std::net::TcpStream) {
        let buf = self.q.lock();
        let _ = stream.write_all(&buf);
    }
}
";

/// The narrowed twin: clone under a scoped guard, write after release.
const HELDLOCK_GOOD: &str = "\
use std::io::Write;
pub struct S { q: parking_lot::Mutex<Vec<u8>> }
impl S {
    pub fn new() -> Self { Self { q: parking_lot::Mutex::named(\"service.queue\", Vec::new()) } }
    pub fn stream_out(&self, stream: &mut std::net::TcpStream) {
        let buf = { let q = self.q.lock(); q.clone() };
        let _ = stream.write_all(&buf);
    }
}
";

#[test]
fn heldlock_fires_on_guard_across_tcp_write() {
    let got = findings("crates/service/src/fixture.rs", HELDLOCK_BAD);
    assert_eq!(got, vec![(7, "L-HELDLOCK")], "write_all under service.queue must fire: {got:?}");
}

#[test]
fn heldlock_silent_when_guard_is_scoped_before_the_write() {
    assert_eq!(findings("crates/service/src/fixture.rs", HELDLOCK_GOOD), vec![]);
}

#[test]
fn heldlock_resolves_blocking_through_the_call_graph() {
    // The blocking `fs::write` is one call away: `save` itself is fine,
    // holding the guard across the *call to* `save` is not.
    let src = "\
pub struct S { q: parking_lot::Mutex<u32> }
impl S {
    pub fn new() -> Self { Self { q: parking_lot::Mutex::named(\"service.queue\", 0) } }
    fn save(&self, v: u32) { let _ = std::fs::write(\"state\", v.to_string()); }
    pub fn bump(&self) {
        let mut g = self.q.lock();
        *g += 1;
        self.save(*g);
    }
}
";
    let got = findings("crates/service/src/fixture.rs", src);
    assert_eq!(got, vec![(8, "L-HELDLOCK")], "transitive fs::write must fire: {got:?}");
    let msg = &lint_source("crates/service/src/fixture.rs", src, &lock_order())[0].message;
    assert!(
        msg.contains("service.queue") && msg.contains("save"),
        "message must name the held lock and the blocking path: {msg}"
    );
}

#[test]
fn heldlock_ignores_condvar_waits() {
    // `wait_for` releases the mutex while parked — the canonical pattern
    // must stay silent.
    let src = "\
pub struct S { q: parking_lot::Mutex<u32>, cv: parking_lot::Condvar }
impl S {
    pub fn new() -> Self {
        Self { q: parking_lot::Mutex::named(\"service.queue\", 0), cv: parking_lot::Condvar::new() }
    }
    pub fn wait_nonzero(&self) -> u32 {
        let mut g = self.q.lock();
        while *g == 0 {
            self.cv.wait_for(&mut g, std::time::Duration::from_millis(100));
        }
        *g
    }
}
";
    assert_eq!(findings("crates/service/src/fixture.rs", src), vec![]);
}

// ---------------------------------------------------------------- L-LOCKGRAPH

/// Two functions acquiring the same pair of registered locks in opposite
/// orders: a textbook ABBA deadlock, visible statically as a cycle.
const LOCKGRAPH_CYCLIC: &str = "\
pub struct S { q: parking_lot::Mutex<u32>, j: parking_lot::Mutex<u32> }
impl S {
    pub fn new() -> Self {
        Self {
            q: parking_lot::Mutex::named(\"service.queue\", 0),
            j: parking_lot::Mutex::named(\"service.store.jobs\", 0),
        }
    }
    pub fn forward(&self) {
        let _a = self.q.lock();
        let _b = self.j.lock();
    }
    pub fn backward(&self) {
        let _b = self.j.lock();
        let _a = self.q.lock();
    }
}
";

fn lockgraph_findings(source: &str) -> Vec<snn_lint::Diagnostic> {
    let parsed = parse(source);
    let path = "crates/service/src/fixture.rs";
    let inputs = [facts::FileInput { path, parsed: &parsed }];
    facts::check_locks(&inputs, &facts::Facts::build(&inputs, lock_order()))
}

#[test]
fn lockgraph_reports_the_abba_cycle_and_the_rank_violation() {
    let got = lockgraph_findings(LOCKGRAPH_CYCLIC);
    assert!(
        got.iter().any(|d| d.message.contains("cycle")),
        "opposite-order acquisitions must surface as a cycle: {got:?}"
    );
    assert!(
        got.iter().any(|d| d.message.contains("LOCK_ORDER")
            && d.message.contains("service.store.jobs")
            && d.message.contains("service.queue")),
        "the backward edge must also violate the registered rank order: {got:?}"
    );
}

#[test]
fn lockgraph_accepts_consistent_nesting() {
    // Only the rank-respecting direction: one edge, no cycle, no finding.
    let consistent = LOCKGRAPH_CYCLIC.replace(
        "    pub fn backward(&self) {\n        let _b = self.j.lock();\n        let _a = self.q.lock();\n    }\n",
        "",
    );
    assert_ne!(consistent, LOCKGRAPH_CYCLIC, "fixture edit must apply");
    let got = lockgraph_findings(&consistent);
    assert!(got.is_empty(), "rank-respecting nesting must be clean: {got:?}");
}

#[test]
fn lockgraph_flags_reentrant_acquisition() {
    let src = "\
pub struct S { q: parking_lot::Mutex<u32> }
impl S {
    pub fn new() -> Self { Self { q: parking_lot::Mutex::named(\"service.queue\", 0) } }
    pub fn twice(&self) {
        let _a = self.q.lock();
        let _b = self.q.lock();
    }
}
";
    let got = lockgraph_findings(src);
    assert!(
        got.iter().any(|d| d.message.contains("re-entrant") || d.message.contains("reentrant")),
        "self-edge must be reported as re-entrant: {got:?}"
    );
}
