//! Minimal crossbeam-based data parallelism for fault campaigns.
//!
//! A fault-simulation campaign is embarrassingly parallel over faults, but
//! each worker needs mutable scratch state: the packed engine's buffers,
//! reused run after run, or the scalar engine's network clone to patch.
//! [`try_map_indexed`] provides exactly that shape: the caller supplies a
//! per-worker state factory and a per-item function.

use crate::progress::{CancelToken, Cancelled};
use crossbeam::thread;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use given a requested count (0 = all
/// available cores).
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Applies `f(state, index)` to every index in `0..n`, in parallel over
/// `threads` workers (0 = all cores), returning results in index order.
/// The calling thread is one of the workers: `threads - 1` are spawned,
/// and `make_state` is called once per worker to create its scratch
/// state. Workers poll `cancel` before every item and stop claiming once
/// it trips, after which the call returns `Err(Cancelled)` (partial
/// results are discarded).
///
/// Items are claimed one at a time from a shared counter, so workers stay
/// busy however unevenly the items cost (runs of the packed engine
/// differ by orders of magnitude); results still come back in index
/// order.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn try_map_indexed<S, T, F, M>(
    n: usize,
    threads: usize,
    cancel: &CancelToken,
    make_state: M,
    f: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
    M: Fn() -> S + Sync,
{
    let workers = effective_threads(threads).min(n.max(1));
    if workers <= 1 || n == 0 {
        let mut state = make_state();
        let mut out = Vec::with_capacity(n);
        let busy_started = snn_obs::clock::monotonic();
        for i in 0..n {
            cancel.check()?;
            out.push(f(&mut state, i));
        }
        record_busy(busy_started);
        return Ok(out);
    }
    // The next unclaimed index. It publishes no data — an item's result
    // reaches the caller through its worker's join — so `Relaxed` is
    // enough for every index to be handed out exactly once.
    let next = AtomicUsize::new(0);
    // Spawned workers have no implicit span parent; hand them the caller's.
    let parent_span = snn_obs::trace::current_id();
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    let work = || {
        let mut worker_span = snn_obs::trace::enter_with_parent("faultsim.worker", parent_span);
        let mut state = make_state();
        let mut out = Vec::new();
        let busy_started = snn_obs::clock::monotonic();
        while !cancel.is_cancelled() {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            out.push((i, f(&mut state, i)));
        }
        record_busy(busy_started);
        worker_span.attr("items", out.len());
        out
    };
    #[expect(
        clippy::expect_used,
        reason = "the scope only fails if a worker panicked, which is documented to propagate"
    )]
    thread::scope(|scope| {
        // The caller is one of the workers. A thread that spawned every
        // worker and slept in `join` left their placement to the kernel,
        // which put both of two fresh threads on the one idle core in
        // four campaigns of ten and took a scheduler tick (4 ms) to move
        // one away — nothing to a 100 ms campaign, half of a 10 ms one.
        // A caller that keeps its own core busy leaves the idle ones to
        // the `workers - 1` threads it spawns.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(|_| work())).collect();
        for (i, value) in work() {
            slots[i] = Some(value);
        }
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "documented behaviour — worker panics propagate to the caller"
            )]
            for (i, value) in h.join().expect("worker thread panicked") {
                slots[i] = Some(value);
            }
        }
    })
    .expect("crossbeam scope failed");
    cancel.check()?;
    // A worker stops claiming only past `n` or on a tripped token, and a
    // tripped token has returned above: every slot is filled.
    slots.into_iter().collect::<Option<Vec<T>>>().ok_or(Cancelled)
}

/// Adds the wall-clock spent since `busy_started` to the worker busy-time
/// counter.
fn record_busy(busy_started: std::time::Duration) {
    let busy = snn_obs::clock::monotonic().saturating_sub(busy_started);
    snn_obs::counter!(
        "snn_faultsim_worker_busy_microseconds_total",
        "Cumulative busy time of fault-simulation workers."
    )
    .add(u64::try_from(busy.as_micros()).unwrap_or(u64::MAX));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_all<S, T: Send>(
        n: usize,
        threads: usize,
        make_state: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Vec<T> {
        try_map_indexed(n, threads, &CancelToken::new(), make_state, f).unwrap()
    }

    #[test]
    fn preserves_index_order() {
        let out = map_all(100, 4, || (), |_, i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    /// Dynamic claiming under a skewed cost function: a few items cost
    /// hundreds of times the rest (like conv-weight packs among dense
    /// ones), yet every index is processed exactly once and the output
    /// is in index order, at any worker count.
    #[test]
    fn skewed_costs_keep_exactly_once_and_index_order() {
        for workers in [1, 2, 4] {
            let n = 97;
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = map_all(
                n,
                workers,
                || (),
                |_, i| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    let spins = if i % 13 == 0 { 200_000u64 } else { 500 };
                    let mut acc = i as u64;
                    for k in 0..spins {
                        acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005) ^ k);
                    }
                    (i, acc)
                },
            );
            assert_eq!(out.iter().map(|(i, _)| *i).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "workers={workers}");
        }
    }

    /// Two items that each wait for the other to be claimed need two
    /// workers; with `threads = 2` one of them is the calling thread.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test asserts which thread ran the work")]
    fn the_caller_is_one_of_the_workers() {
        let both_claimed = std::sync::Barrier::new(2);
        let ran_on = map_all(
            2,
            2,
            || (),
            |_, _| {
                both_claimed.wait();
                std::thread::current().id()
            },
        );
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on.contains(&std::thread::current().id()));
    }

    #[test]
    fn single_thread_path_works() {
        let out = map_all(5, 1, || 10usize, |s, i| *s + i);
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = map_all(0, 4, || (), |_, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn state_factory_called_once_per_worker() {
        let calls = AtomicUsize::new(0);
        let _ = map_all(
            16,
            4,
            || {
                calls.fetch_add(1, Ordering::SeqCst);
            },
            |_, i| i,
        );
        let c = calls.load(Ordering::SeqCst);
        assert!((1..=4).contains(&c), "factory calls = {c}");
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = map_all(3, 64, || (), |_, i| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn pre_cancelled_token_aborts_immediately() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = try_map_indexed(100, 1, &cancel, || (), |_, i| i);
        assert_eq!(out, Err(Cancelled));
        let out = try_map_indexed(100, 4, &cancel, || (), |_, i| i);
        assert_eq!(out, Err(Cancelled));
    }

    #[test]
    fn mid_run_cancellation_stops_the_sweep() {
        let cancel = CancelToken::new();
        let done = AtomicUsize::new(0);
        let out = try_map_indexed(
            10_000,
            2,
            &cancel,
            || (),
            |_, i| {
                done.fetch_add(1, Ordering::SeqCst);
                if i == 5 {
                    cancel.cancel();
                }
                i
            },
        );
        assert_eq!(out, Err(Cancelled));
        assert!(done.load(Ordering::SeqCst) < 10_000, "should stop early");
    }

    #[test]
    fn effective_threads_passthrough_and_detect() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }
}
