//! Fixture tests for lock registration: known-bad snippets must produce
//! L-LOCKGRAPH on the expected lines, and code outside the lock crates'
//! sources (test modules, integration tests, vendored files) is skipped.

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

const UNNAMED: &str = "pub struct S {\n    q: parking_lot::Mutex<u32>,\n}\nimpl S {\n    pub fn new() -> Self {\n        Self { q: parking_lot::Mutex::new(0) }\n    }\n}\n";

#[test]
fn unregistered_mutex_in_service_is_flagged() {
    assert_eq!(findings("crates/service/src/server.rs", UNNAMED), vec![(6, "L-LOCKGRAPH")]);
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
fn unregistered_mutex_in_reliability_is_flagged() {
    // snn-reliability registers no locks today, so *any* mutex there is
    // unregistered until it is named and added to LOCK_ORDER.
    assert_eq!(findings("crates/reliability/src/report.rs", UNNAMED), vec![(6, "L-LOCKGRAPH")]);
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
fn test_module_code_is_skipped() {
    let src = "pub fn lib_side() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let m = parking_lot::Mutex::new(1);\n        assert_eq!(*m.lock(), 1);\n    }\n}\n";
    assert_eq!(findings("crates/service/src/server.rs", src), vec![]);
}

#[test]
fn files_outside_the_lock_crates_sources_are_skipped() {
    for path in [
        "crates/service/tests/service.rs",
        "tests/pipeline.rs",
        "vendor/parking_lot/src/lib.rs",
        "crates/core/src/generator.rs",
    ] {
        assert_eq!(findings(path, UNNAMED), vec![], "{path}");
    }
}
