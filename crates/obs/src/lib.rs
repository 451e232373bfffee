//! Observability for the snn-mtfc pipeline: spans, metrics, profiling.
//!
//! The paper this workspace reproduces ("Minimum Time Maximum Fault
//! Coverage Testing of Spiking Neural Networks") is at its core a claim
//! about *time* — so the workspace needs to be able to say where a second
//! of wall-clock goes. This crate is the shared instrumentation layer:
//!
//! * [`clock`] — the [`Clock`] trait with the workspace's **single**
//!   sanctioned `Instant::now()` call site ([`RealClock`]) plus a
//!   deterministic [`ManualClock`] for tests. Everything else in the
//!   reproducibility-critical crates measures time through this.
//! * [`trace`] — hierarchical spans via the [`span!`] macro and a
//!   thread-safe [`Collector`], serializable to a JSONL trace
//!   (`--trace-out` on the CLI). Disabled-path cost is one atomic load.
//! * [`metrics`] — a global [`Registry`](metrics::Registry) of lock-free
//!   [`Counter`](metrics::Counter)s, [`Gauge`](metrics::Gauge)s and
//!   fixed-bucket [`Histogram`](metrics::Histogram)s, with a serializable
//!   snapshot (served by `Request::Metrics` on the job-server protocol)
//!   and Prometheus text-format 0.0.4 rendering.
//! * [`profile`] — folds a trace into an aggregated span tree with
//!   total/self time per node (the `snn profile` subcommand).
//! * [`phase`] — atomics-only kernel-phase accumulator splitting
//!   per-fault time into inject / forward-per-layer / compare,
//!   published as synthetic `phase.*` spans and the
//!   `snn profile --phases` table.
//!
//! Metric names follow `snn_<subsystem>_<name>_<unit>`; span names are
//! lower-case dotted paths (`generate`, `stage.update`,
//! `faultsim.worker`). DESIGN.md §11 documents both conventions.

#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]
// Results are a pure function of the seed: no clock, environment, thread
// identity, address or hash order reaches them (clippy.toml lists the bans).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod clock;
pub mod metrics;
pub mod phase;
pub mod profile;
pub mod span_names;
pub mod trace;

pub use clock::{Clock, ManualClock, RealClock};
pub use metrics::{MetricsSnapshot, Registry};
pub use phase::{LocalPhases, Phase, PhaseAccumulator, PhaseSnapshot};
pub use trace::{Collector, SpanGuard, SpanRecord};
