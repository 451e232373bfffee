//! Deliberate lock-order violations: prove the vendored `parking_lot`
//! runtime detector actually fires for the service's registered order.
//!
//! Debug builds only — the detector compiles out in release, where this
//! file is empty.

#![cfg(debug_assertions)]

use snn_service::lock_order::{mutex, Rank};

/// The message of the panic `f` must raise.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("the violation must panic under debug_assertions");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a message")
}

#[test]
fn inverting_the_documented_service_order_panics() {
    let queue = mutex(Rank::Queue, ());
    let jobs = mutex(Rank::Store, ());

    // The documented direction is fine: queue before store.jobs.
    {
        let _q = queue.lock();
        let _j = jobs.lock();
    }

    // The inversion must panic, naming both locks and both acquisition
    // sites.
    let msg = panic_message(|| {
        let _j = jobs.lock();
        let _q = queue.lock();
    });
    assert!(msg.contains("lock-order violation"), "unexpected panic message: {msg}");
    assert!(msg.contains("service.queue"), "message must name the violating lock: {msg}");
    assert!(msg.contains("service.store.jobs"), "message must name the held lock: {msg}");
    assert_eq!(msg.matches("lock_order.rs:").count(), 2, "both acquisition sites: {msg}");
}

#[test]
fn reacquiring_a_held_lock_panics_instead_of_deadlocking() {
    let queue = mutex(Rank::Queue, ());
    let msg = panic_message(|| {
        let _first = queue.lock();
        let _second = queue.lock();
    });
    assert!(msg.contains("re-acquiring \"service.queue\""), "unexpected panic message: {msg}");
    assert_eq!(msg.matches("lock_order.rs:").count(), 2, "both acquisition sites: {msg}");
    // The first guard was released by the unwind: the lock works again.
    drop(queue.lock());
}

#[test]
fn a_condvar_wait_under_its_own_mutex_is_not_a_reentry() {
    let queue = mutex(Rank::Queue, false);
    let ready = parking_lot::Condvar::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            *queue.lock() = true;
            ready.notify_all();
        });
        let mut done = queue.lock();
        while !*done {
            ready.wait_for(&mut done, std::time::Duration::from_millis(50));
        }
    });
}

#[test]
fn cluster_locks_rank_after_every_service_lock() {
    let queue = mutex(Rank::Queue, ());
    let coordinator = mutex(Rank::Coordinator, ());

    // Documented direction: the coordinator may be taken while a service
    // lock is held (the scheduler hands work to the coordinator from the
    // job execution path).
    {
        let _q = queue.lock();
        let _c = coordinator.lock();
    }

    // The reverse — touching service state while holding the coordinator
    // — is the cross-crate deadlock the shared order exists to catch,
    // and must panic deterministically.
    let msg = panic_message(|| {
        let _c = coordinator.lock();
        let _q = queue.lock();
    });
    assert!(msg.contains("lock-order violation"), "unexpected panic message: {msg}");
    assert!(msg.contains("cluster.coordinator"), "message must name the held lock: {msg}");
    assert!(msg.contains("service.queue"), "message must name the violating lock: {msg}");
}
