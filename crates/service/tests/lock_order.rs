//! Deliberate lock-order inversion: proves the vendored `parking_lot`
//! runtime detector actually fires for the service's registered order.
//!
//! Debug builds only — the detector compiles out in release, where this
//! file is empty.

#![cfg(debug_assertions)]

use parking_lot::Mutex;

#[test]
fn inverting_the_documented_service_order_panics() {
    snn_service::lock_order::register();
    let queue = Mutex::named("service.queue", ());
    let jobs = Mutex::named("service.store.jobs", ());

    // The documented direction is fine: queue before store.jobs.
    {
        let _q = queue.lock();
        let _j = jobs.lock();
    }

    // The inversion must panic, naming both locks and both acquisition
    // sites.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _j = jobs.lock();
        let _q = queue.lock();
    }));
    let payload = result.expect_err("lock-order inversion must panic under debug_assertions");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a message");
    assert!(msg.contains("lock-order violation"), "unexpected panic message: {msg}");
    assert!(msg.contains("service.queue"), "message must name the violating lock: {msg}");
    assert!(msg.contains("service.store.jobs"), "message must name the held lock: {msg}");
    assert!(msg.contains("lock_order.rs"), "message must carry acquisition sites: {msg}");
}

#[test]
fn cluster_locks_rank_after_every_service_lock() {
    snn_service::lock_order::register();
    let queue = Mutex::named("service.queue", ());
    let coordinator = Mutex::named("cluster.coordinator", ());

    // Documented direction: the coordinator may be taken while a service
    // lock is held (the scheduler hands work to the coordinator from the
    // job execution path).
    {
        let _q = queue.lock();
        let _c = coordinator.lock();
    }

    // The reverse — touching service state while holding the coordinator
    // — is the cross-crate deadlock this PR's lock registry exists to
    // catch, and must panic deterministically.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _c = coordinator.lock();
        let _q = queue.lock();
    }));
    let payload = result.expect_err("coordinator-then-queue must panic under debug_assertions");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a message");
    assert!(msg.contains("lock-order violation"), "unexpected panic message: {msg}");
    assert!(msg.contains("cluster.coordinator"), "message must name the held lock: {msg}");
    assert!(msg.contains("service.queue"), "message must name the violating lock: {msg}");
}
