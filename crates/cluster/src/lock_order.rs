//! The workspace's one lock acquisition order, as a type.
//!
//! Every lock of the `service` and `cluster` crates is a private field of
//! an owner type (`JobStore`, `EventBus`, the server's queue, running set
//! and sink throttle, `Coordinator`, the worker session) and is built by
//! [`mutex`] on a [`Rank`]: clippy.toml bans `Mutex::new`/`named` and the
//! other lock constructors, so an unnamed or unregistered lock cannot be
//! written. The same ban covers
//! `Mutex::lock` and `Condvar::wait`/`wait_for`, so a guard is taken only
//! inside an owner method that carries its own
//! `#[expect(clippy::disallowed_methods, ..)]` and returns owned values.
//!
//! The runtime detector in the vendored `parking_lot` accepts exactly
//! one order list per process (first registration wins), and a server
//! process holds service and cluster locks side by side, so the order of
//! both crates is published here, in the lower of the two, and
//! `snn-service` re-exports it. In debug builds, acquiring a lock while
//! holding one of a higher rank, or re-acquiring a lock the thread
//! already holds, panics with both acquisition sites — an ABBA or
//! self-deadlock becomes a deterministic single-run test failure.

use parking_lot::Mutex;

/// Lock ranks in their required acquisition order (earlier first).
///
/// The progress sink is the one place where a service lock nests inside
/// another: `ServiceSink::forward` takes the sink throttle, then the
/// store, then the bus. The ranks document the only nestings that would ever be
/// legal, and the runtime detector checks them.
#[derive(Debug, Clone, Copy)]
pub enum Rank {
    /// `service.queue` guards only the queue itself: the capacity check,
    /// the push and the pop each take it briefly. `JobStore::submit`
    /// persists to disk and therefore runs *between* two short queue
    /// critical sections, not under one.
    Queue,
    /// `service.running` is held only to insert/remove/clone
    /// cancellation tokens — tokens are cloned out before `cancel()` is
    /// called. It sits between the queue and the store so a future
    /// "queue → running" handoff under both locks would stay legal.
    Running,
    /// `service.sink.last_persist` orders one job's progress events: the
    /// stale-tally check, the in-memory store update and the bus publish
    /// (hence its rank before both) are one critical section, so crossed
    /// emissions of campaign threads cannot be forwarded out of order.
    /// The persisting `JobStore::update` runs after the guard is released.
    Sink,
    /// `service.store.jobs`: the in-memory job records.
    Store,
    /// `service.bus.subscribers` ranks last among the service locks:
    /// event fan-out must never acquire another service lock while
    /// delivering.
    Bus,
    /// `cluster.coordinator` ranks after every service lock because job
    /// workers call into the coordinator (submit, wait, status) from code
    /// that also takes service locks. Every such call site releases its
    /// service guard first, but ranking the coordinator below keeps any
    /// future nesting one-directional. The coordinator itself calls
    /// nothing while locked.
    Coordinator,
    /// `cluster.worker.session` is a leaf in the worker process: the
    /// heartbeat thread and the lease loop exchange the current lease
    /// through it and acquire nothing else while holding it. Worker
    /// processes never take service locks, but a single combined order
    /// keeps in-process tests (coordinator and worker in one process)
    /// checkable.
    WorkerSession,
}

impl Rank {
    /// Every rank, in acquisition order.
    pub const ALL: [Rank; 7] = [
        Rank::Queue,
        Rank::Running,
        Rank::Sink,
        Rank::Store,
        Rank::Bus,
        Rank::Coordinator,
        Rank::WorkerSession,
    ];

    /// The name the runtime detector reports.
    pub const fn name(self) -> &'static str {
        match self {
            Rank::Queue => "service.queue",
            Rank::Running => "service.running",
            Rank::Sink => "service.sink.last_persist",
            Rank::Store => "service.store.jobs",
            Rank::Bus => "service.bus.subscribers",
            Rank::Coordinator => "cluster.coordinator",
            Rank::WorkerSession => "cluster.worker.session",
        }
    }
}

/// The one constructor of a service or cluster lock: a mutex that the
/// runtime detector tracks under `rank`. It registers the order of
/// [`Rank::ALL`] (the detector keeps the first registration).
#[expect(clippy::disallowed_methods, reason = "the one place a ranked mutex is built")]
pub fn mutex<T>(rank: Rank, value: T) -> Mutex<T> {
    parking_lot::lock_order::register(&Rank::ALL.map(Rank::name));
    Mutex::named(rank.name(), value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_cluster_locks_rank_after_service_locks() {
        let names = Rank::ALL.map(Rank::name);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(Rank::ALL[i] as usize, i, "ALL lists {name} out of declaration order");
            assert!(!names[i + 1..].contains(name), "duplicate lock name {name}");
        }
        let services = names.iter().take_while(|n| n.starts_with("service.")).count();
        assert!(
            names[services..].iter().all(|n| n.starts_with("cluster.")),
            "{names:?}: service locks first, then cluster locks"
        );
    }
}
