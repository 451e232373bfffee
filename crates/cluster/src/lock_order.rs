//! The workspace's one lock acquisition order.
//!
//! The runtime detector in the vendored `parking_lot` accepts exactly
//! one order list per process (first registration wins), and a server
//! process holds service and cluster locks side by side, so the order of
//! both crates is published here, in the lower of the two, and
//! `snn-service` re-exports it. Every lock of the two crates is built
//! with `Mutex::named(..)` on a name from [`LOCK_ORDER`] (`snn-lint` pass
//! `L-LOCKGRAPH`); in debug builds, acquiring one while holding a lock that
//! ranks after it panics with both acquisition sites — an ABBA deadlock
//! becomes a deterministic single-run test failure.

/// Lock names in their required acquisition order (earlier first).
///
/// Since the guard narrowing driven by `snn-lint`'s `L-HELDLOCK` pass
/// (DESIGN.md §9), the progress sink is the one place where a service
/// lock nests inside another. The ranks document the only nestings that
/// would ever be legal, and the runtime detector still catches
/// regressions reaching a lock through a path the static pass cannot
/// see (trait objects, function pointers).
///
/// * `service.queue` guards only the queue itself: the capacity check,
///   the push and the pop each take it briefly. `JobStore::submit`
///   persists to disk and therefore runs *between* two short queue
///   critical sections, not under one.
/// * `service.sink.last_persist` orders one job's progress events: the
///   stale-tally check, the in-memory store update and the bus publish
///   (hence its rank before both) are one critical section, so crossed
///   emissions of campaign threads cannot be forwarded out of order. The
///   persisting `JobStore::update` runs after the guard is released.
/// * `service.running` is held only to insert/remove/clone cancellation
///   tokens — tokens are cloned out before `cancel()` is called. It sits
///   between the queue and the store so a future "queue → running"
///   handoff under both locks would stay legal.
/// * `service.bus.subscribers` ranks last among the service locks:
///   event fan-out must never acquire another service lock while
///   delivering.
/// * `cluster.coordinator` ranks after every service lock because job
///   workers call into the coordinator (submit, wait, status) from code
///   that also takes service locks. Today every such call site releases
///   its service guard first (`snn-lint`'s `L-LOCKGRAPH` pass proves the
///   static acquisition graph has no service→cluster edge), but ranking
///   the coordinator below keeps any future nesting one-directional. The
///   coordinator itself calls nothing while locked.
/// * `cluster.worker.session` is a leaf in the worker process: the
///   heartbeat thread and the lease loop exchange the current lease
///   through it and acquire nothing else while holding it. Worker
///   processes never take service locks, but a single combined order
///   keeps in-process tests (coordinator and worker in one process)
///   checkable.
pub const LOCK_ORDER: &[&str] = &[
    "service.queue",
    "service.running",
    "service.sink.last_persist",
    "service.store.jobs",
    "service.bus.subscribers",
    "cluster.coordinator",
    "cluster.worker.session",
];

/// Registers [`LOCK_ORDER`] with the runtime detector. Idempotent —
/// every entry point (coordinator constructor, worker entry, server
/// bind, store open, bus construction) calls it defensively so partial
/// uses of the crates are still checked.
pub fn register() {
    parking_lot::lock_order::register(LOCK_ORDER);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_names_are_unique_and_crate_prefixed() {
        for (i, name) in LOCK_ORDER.iter().enumerate() {
            assert!(
                name.starts_with("service.") || name.starts_with("cluster."),
                "lock name {name} must be crate-prefixed"
            );
            assert!(!LOCK_ORDER[i + 1..].contains(name), "duplicate lock name {name}");
        }
        assert!(
            LOCK_ORDER
                .windows(2)
                .any(|w| w[0] == "service.bus.subscribers" && w[1] == "cluster.coordinator"),
            "cluster locks must rank directly after the service locks"
        );
    }
}
