//! Fixture-based tests: known-bad source snippets must produce exactly
//! the expected lint ids on the expected lines, allow directives must
//! suppress them, and out-of-scope code (test modules, vendored files)
//! must be skipped.

use snn_lint::lint_source;

/// Findings as compact `(line, id)` pairs for easy assertions.
fn findings(path: &str, source: &str) -> Vec<(u32, &'static str)> {
    lint_source(
        path,
        source,
        &[
            "service.queue".to_string(),
            "service.store.jobs".to_string(),
            "cluster.coordinator".to_string(),
        ],
    )
    .into_iter()
    .map(|d| (d.line, d.id))
    .collect()
}

#[test]
fn unwrap_in_library_code_is_flagged_at_its_line() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(findings("crates/core/src/lib.rs", src), vec![(2, "L-PANIC")]);
}

#[test]
fn expect_and_panic_are_flagged() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    let v = x.expect(\"set\");\n    if v > 9 { panic!(\"too big\") }\n    v\n}\n";
    assert_eq!(findings("crates/snn/src/lib.rs", src), vec![(2, "L-PANIC"), (3, "L-PANIC")]);
}

#[test]
fn lossy_cast_in_kernel_crate_is_flagged() {
    let src = "pub fn f(x: f64) -> f32 {\n    x as f32\n}\n";
    assert_eq!(findings("crates/tensor/src/ops.rs", src), vec![(2, "L-CAST")]);
}

#[test]
fn widening_cast_is_not_flagged() {
    // The pass is token-level: it keys on the *target* type, so widening
    // targets (f64, i64, usize) never fire.
    let src = "pub fn f(x: f32, n: u32) -> f64 {\n    let _w = n as i64;\n    x as f64\n}\n";
    assert_eq!(findings("crates/tensor/src/ops.rs", src), vec![]);
}

#[test]
fn cast_outside_kernel_crates_is_not_flagged() {
    let src = "pub fn f(x: f64) -> f32 {\n    x as f32\n}\n";
    assert_eq!(findings("crates/service/src/server.rs", src), vec![]);
}

#[test]
fn instant_now_in_generator_is_flagged() {
    let src = "use std::time::Instant;\npub fn f() {\n    let _t = Instant::now();\n}\n";
    assert_eq!(findings("crates/core/src/generator.rs", src), vec![(3, "L-DET-CLOCK")]);
}

#[test]
fn unregistered_mutex_in_service_is_flagged() {
    let src = "pub struct S {\n    q: parking_lot::Mutex<u32>,\n}\nimpl S {\n    pub fn new() -> Self {\n        Self { q: parking_lot::Mutex::new(0) }\n    }\n}\n";
    assert_eq!(findings("crates/service/src/server.rs", src), vec![(6, "L-LOCKGRAPH")]);
}

#[test]
fn named_registered_mutex_in_service_is_clean() {
    let src = "pub struct S {\n    q: parking_lot::Mutex<u32>,\n}\nimpl S {\n    pub fn new() -> Self {\n        Self { q: parking_lot::Mutex::named(\"service.queue\", 0) }\n    }\n}\n";
    assert_eq!(findings("crates/service/src/server.rs", src), vec![]);
}

#[test]
fn unregistered_mutex_in_cluster_is_flagged() {
    // The cluster crate shares the service crate's lock-order registry,
    // so L-LOCKGRAPH covers it with the same rules.
    let src = "pub struct C {\n    s: parking_lot::Mutex<u32>,\n}\nimpl C {\n    pub fn new() -> Self {\n        Self { s: parking_lot::Mutex::named(\"cluster.rogue\", 0) }\n    }\n}\n";
    assert_eq!(findings("crates/cluster/src/worker.rs", src), vec![(6, "L-LOCKGRAPH")]);
}

#[test]
fn instant_now_in_reliability_is_flagged() {
    // Reliability campaigns must be pure functions of the spec, so the
    // crate sits in the L-DET-CLOCK reproducibility scope.
    let src = "use std::time::Instant;\npub fn f() {\n    let _t = Instant::now();\n}\n";
    assert_eq!(findings("crates/reliability/src/campaign.rs", src), vec![(3, "L-DET-CLOCK")]);
}

#[test]
fn unregistered_mutex_in_reliability_is_flagged() {
    // snn-reliability registers no locks today, so *any* mutex there is
    // unregistered until it is named and added to LOCK_ORDER.
    let src = "pub struct R {\n    m: parking_lot::Mutex<u32>,\n}\nimpl R {\n    pub fn new() -> Self {\n        Self { m: parking_lot::Mutex::new(0) }\n    }\n}\n";
    assert_eq!(findings("crates/reliability/src/report.rs", src), vec![(6, "L-LOCKGRAPH")]);
}

#[test]
fn named_registered_mutex_in_cluster_is_clean() {
    let src = "pub struct C {\n    s: parking_lot::Mutex<u32>,\n}\nimpl C {\n    pub fn new() -> Self {\n        Self { s: parking_lot::Mutex::named(\"cluster.coordinator\", 0) }\n    }\n}\n";
    assert_eq!(findings("crates/cluster/src/coordinator.rs", src), vec![]);
}

#[test]
fn lock_registration_names_the_unnamed_and_the_unregistered() {
    for (path, order, src) in [
        (
            "crates/service/src/server.rs",
            "service.queue",
            "fn f() { let a = Mutex::new(1); let b = Mutex::named(\"service.queue\", 2); \
             let c = RwLock::named(\"service.rogue\", 3); }",
        ),
        (
            "crates/cluster/src/coordinator.rs",
            "cluster.coordinator",
            "fn f() { let a = Mutex::new(1); let b = Mutex::named(\"cluster.coordinator\", 2); \
             let c = Mutex::named(\"cluster.rogue\", 3); }",
        ),
    ] {
        let out = lint_source(path, src, &[order.to_string()]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.id == "L-LOCKGRAPH"), "{out:?}");
        assert!(out[0].message.contains("unnamed"), "{out:?}");
        assert!(out[1].message.contains(".rogue"), "{out:?}");
    }
}

#[test]
fn standalone_allow_suppresses_the_next_line() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // snn-lint: allow(L-PANIC): invariant, x is always Some here\n    x.unwrap()\n}\n";
    assert_eq!(findings("crates/core/src/lib.rs", src), vec![]);
}

#[test]
fn trailing_allow_suppresses_its_own_line() {
    let src = "pub fn f(x: f64) -> f32 {\n    x as f32 // snn-lint: allow(L-CAST): precision loss is the point here\n}\n";
    assert_eq!(findings("crates/tensor/src/ops.rs", src), vec![]);
}

#[test]
fn allow_without_justification_is_itself_a_finding() {
    let src =
        "pub fn f(x: Option<u32>) -> u32 {\n    // snn-lint: allow(L-PANIC):\n    x.unwrap()\n}\n";
    let got = findings("crates/core/src/lib.rs", src);
    assert!(got.contains(&(2, "L-ALLOW")), "unjustified allow must be reported, got {got:?}");
}

#[test]
fn unused_allow_is_itself_a_finding() {
    let src = "pub fn f() -> u32 {\n    // snn-lint: allow(L-PANIC): nothing here panics any more\n    7\n}\n";
    assert_eq!(findings("crates/core/src/lib.rs", src), vec![(2, "L-ALLOW")]);
}

#[test]
fn allow_for_a_different_id_does_not_suppress() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // snn-lint: allow(L-CAST): wrong id on purpose\n    x.unwrap()\n}\n";
    let got = findings("crates/core/src/lib.rs", src);
    assert!(got.contains(&(3, "L-PANIC")), "finding must survive a mismatched allow, got {got:?}");
}

#[test]
fn test_module_code_is_skipped() {
    let src = "pub fn lib_side() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x: Option<u32> = Some(1);\n        assert_eq!(x.unwrap(), 1);\n        let _ = 0.5f32 == 0.5f32;\n    }\n}\n";
    assert_eq!(findings("crates/core/src/lib.rs", src), vec![]);
}

#[test]
fn integration_test_files_are_skipped() {
    let src = "fn main() {\n    let x: Option<u32> = None;\n    x.unwrap();\n}\n";
    assert_eq!(findings("crates/snn/tests/invariants.rs", src), vec![]);
    assert_eq!(findings("tests/pipeline.rs", src), vec![]);
}

#[test]
fn vendor_files_are_skipped() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(findings("vendor/rand/src/lib.rs", src), vec![]);
}

// ------------------------------------------------- crates/faults/src/packed
// The packed engine is in scope for the kernel, determinism and panic
// passes: its verdicts feed the same digest-equality gate as the scalar
// engine's, so the same discipline applies.

#[test]
fn unwrap_in_batch_library_code_is_flagged() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(findings("crates/faults/src/packed/plan.rs", src), vec![(2, "L-PANIC")]);
}

#[test]
fn lossy_cast_in_batch_kernel_is_flagged() {
    let src = "pub fn f(x: f64) -> f32 {\n    x as f32\n}\n";
    assert_eq!(findings("crates/faults/src/packed/pack.rs", src), vec![(2, "L-CAST")]);
}

#[test]
fn justified_cast_in_batch_kernel_is_clean() {
    let src = "pub fn f(c: u32) -> f32 {\n    // snn-lint: allow(L-CAST): diff-bit counts are exact below 2^24\n    c as f32\n}\n";
    assert_eq!(findings("crates/faults/src/packed/pack.rs", src), vec![]);
}

#[test]
fn instant_now_in_batch_is_flagged() {
    let src = "use std::time::Instant;\npub fn f() {\n    let _t = Instant::now();\n}\n";
    assert_eq!(findings("crates/faults/src/packed/golden.rs", src), vec![(3, "L-DET-CLOCK")]);
}

#[test]
fn hashmap_iteration_in_batch_is_flagged() {
    let src = "struct P {\n    packs: HashMap<usize, u64>,\n}\nfn f(p: &P) -> u64 {\n    let mut acc = 0;\n    for (_, v) in p.packs.iter() {\n        acc += v;\n    }\n    acc\n}\n";
    let got = findings("crates/faults/src/packed/plan.rs", src);
    assert!(got.contains(&(6, "L-DET-ITER")), "unordered iteration must be flagged, got {got:?}");
}
