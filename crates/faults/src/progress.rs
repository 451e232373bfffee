//! Progress reporting and cooperative cancellation for long-running
//! algorithms (test generation, fault-simulation campaigns).
//!
//! Both the generator's outer loop and the fault simulator accept a
//! [`ProgressSink`] to stream structured [`Progress`] events to, and a
//! [`CancelToken`] they poll at safe points. The CLI wires a no-op sink;
//! the job server (`snn-service`) wires an event bus that fans events out
//! to TCP subscribers.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A structured progress event from a long-running algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Progress {
    /// One outer test-generation iteration committed a chunk.
    Iteration {
        /// Zero-based iteration index.
        iteration: usize,
        /// Ticks in the chunk this iteration produced.
        chunk_steps: usize,
        /// Neurons newly activated by this iteration.
        newly_activated: usize,
        /// Total activated neurons (`|𝒩_A|`) after this iteration.
        activated: usize,
        /// Total spiking neurons in the network (`|𝒩|`).
        total_neurons: usize,
        /// Duration growths this iteration needed before progressing.
        growths: usize,
    },
    /// Running tally of a fault-simulation campaign.
    FaultsSimulated {
        /// Faults simulated so far.
        done: usize,
        /// Faults in the campaign.
        total: usize,
        /// Detections so far.
        detected: usize,
    },
}

/// Receiver of [`Progress`] events.
///
/// Sinks must be `Sync`: the fault simulator emits from parallel workers.
pub trait ProgressSink: Sync {
    /// Delivers one event. Implementations should be cheap and
    /// non-blocking; slow consumers must buffer or drop internally.
    fn emit(&self, event: Progress);
}

/// Sink that discards every event (the CLI default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn emit(&self, _event: Progress) {}
}

/// Any `Sync` closure is a sink.
impl<F: Fn(Progress) + Sync> ProgressSink for F {
    fn emit(&self, event: Progress) {
        self(event)
    }
}

/// Cooperative cancellation token shared between a running algorithm and
/// its controller. Cloning shares the underlying flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the algorithm's
    /// next poll point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// `Err(Cancelled)` once cancelled — for `?`-style poll points.
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Error returned by cancellable operations that observed their token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("operation cancelled")
    }
}

impl std::error::Error for Cancelled {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        assert!(a.check().is_ok());
        b.cancel();
        assert!(a.is_cancelled());
        assert_eq!(a.check(), Err(Cancelled));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a test sink collecting events")]
    fn closure_sinks_collect_events() {
        let seen = Mutex::new(Vec::new());
        let sink = |e: Progress| seen.lock().unwrap().push(e);
        sink.emit(Progress::FaultsSimulated { done: 1, total: 2, detected: 0 });
        NullSink.emit(Progress::FaultsSimulated { done: 2, total: 2, detected: 1 });
        assert_eq!(
            *seen.lock().unwrap(),
            vec![Progress::FaultsSimulated { done: 1, total: 2, detected: 0 }]
        );
    }

    #[test]
    fn progress_round_trips_through_json() {
        let e = Progress::Iteration {
            iteration: 3,
            chunk_steps: 40,
            newly_activated: 5,
            activated: 17,
            total_neurons: 20,
            growths: 1,
        };
        let s = serde::json::to_string(&e);
        assert_eq!(serde::json::from_str::<Progress>(&s).unwrap(), e);
    }
}
