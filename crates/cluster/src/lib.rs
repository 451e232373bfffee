//! Distributed fault-simulation campaigns: sharding, lease-based
//! scheduling and exact result merging across worker processes.
//!
//! A fault-detection campaign (Eq. (3)/(4) of the source paper) is
//! embarrassingly parallel across *faults*: each fault's verdict is a
//! pure function of the network, the test stimuli and the simulator
//! configuration. This crate exploits that to spread one campaign over
//! worker *processes* — potentially on other machines — without changing
//! a single verdict bit:
//!
//! * [`wire`] — protocol v10: the newline-JSON messages workers and the
//!   coordinator exchange ([`wire::WorkerMsg`], [`wire::CoordMsg`]), the
//!   self-contained [`wire::CampaignSpec`] payload — detection stimuli
//!   or an optional reliability payload whose "fault ids" are
//!   fault-map configuration indices — the columnar
//!   [`wire::ChunkOutcomes`] a result carries, and the
//!   [`wire::ClusterStatus`] snapshot served to CLI clients.
//! * [`coordinator`] — the lease state machine. Chunks move
//!   `Pending → Leased → Done`; a lease that misses its heartbeat
//!   deadline returns the chunk to `Pending` under a bumped *epoch*, and
//!   a result is merged only while its `(lease, epoch)` matches — so
//!   execution is at-least-once but accounting is exactly-once, even
//!   when a presumed-dead worker limps home late.
//! * [`campaign`] — deterministic rematerialization: a worker rebuilds
//!   the network (synthetic specs are pure functions of their seed),
//!   re-parses the stimuli (the events text format is an exact transport
//!   for spike tensors) and runs its chunk with the campaign's exact
//!   simulator configuration, so chunk outcomes are bit-identical to the
//!   same fault ids inside a single-process run. The job server runs an
//!   in-process campaign through the same [`PreparedCampaign`], built
//!   from the values the job already holds.
//! * [`worker`] — the worker runtime: lease → fetch → simulate → result,
//!   each result sent together with the next lease request, with a
//!   heartbeat side-channel that cancels a chunk the moment its lease
//!   dies elsewhere.
//!
//! Merged campaign results are bit-identical to the single-process path
//! (`snn_faults::chunk` provides the digest that CI gates on), so
//! distribution is purely an execution detail — never a numerics one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]
// Results are a pure function of the seed: no clock, environment, thread
// identity, address or hash order reaches them (clippy.toml lists the bans).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod campaign;
pub mod coordinator;
pub mod lock_order;
pub mod wire;
pub mod worker;

pub use campaign::{build_model, PreparedCampaign};
pub use coordinator::{CampaignProgress, ClusterError, Coordinator, CoordinatorConfig, Grant};
pub use wire::{CampaignSpec, ChunkOutcomes, ClusterStatus, ModelSpec, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerConfig, WorkerError, WorkerReport};
