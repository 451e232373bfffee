//! # snn-mtfc — Minimum-Time Maximum-Fault-Coverage testing of SNNs
//!
//! Façade crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *"Minimum Time Maximum Fault Coverage Testing of Spiking
//! Neural Networks"* (Raptis & Stratigopoulos, DATE 2025).
//!
//! The workspace contains:
//!
//! * [`tensor`] — dense `f32` tensors and conv/matmul/pool kernels,
//! * [`model`] — the clocked LIF SNN simulator with surrogate-gradient
//!   BPTT, plus an event-driven cross-check engine, training, int8
//!   quantization, magnitude pruning and a binary model format,
//! * [`faults`] — behavioural fault models and the fault simulator, one
//!   campaign entry point over two engines with bit-identical verdicts
//!   (`--engine packed|scalar|auto`): the scalar reference and the
//!   bit-packed fault-parallel engine (fault plan → lane assignment →
//!   differential packed run over `u64` spike words, reusing the golden
//!   run wherever a variant still equals it); plus criticality
//!   labelling, statistical coverage estimation and fault dictionaries
//!   for diagnosis,
//! * [`datasets`] — synthetic NMNIST / DVS-gesture / SHD-like event
//!   datasets and rate/TTFS encoders,
//! * [`testgen`] — the paper's contribution: the two-stage loss-driven
//!   test generation algorithm, plus test compaction,
//! * [`analyze`] — static testability analysis: LIF interval analysis
//!   and the provably-dead-neuron mask the generator excludes,
//! * [`baselines`] — prior-art test generation methods for comparison,
//! * [`obs`] — dependency-free observability: hierarchical spans with a
//!   JSONL trace collector, a lock-free metrics registry with Prometheus
//!   text rendering, and the profile-tree renderer behind
//!   `snn-mtfc profile`,
//! * [`service`] — a concurrent job server daemonizing test generation:
//!   TCP newline-delimited-JSON protocol, worker pool, live progress
//!   streaming, cooperative cancellation and a restart-safe job store,
//! * [`cluster`] — distributed fault-simulation campaigns: a lease-based
//!   coordinator shards the fault universe into chunks farmed out to
//!   `snn-mtfc worker` processes, with epoch-fenced exactly-once
//!   accounting and results merged bit-identically to the single-process
//!   path,
//! * [`reliability`] — fault-map-driven reliability campaigns: per-region
//!   bit-error-rate fault maps sampled into deterministic fault
//!   configurations, transient injection windows, accuracy-impact
//!   scoring over an oracle-labelled evaluation set, and mitigation
//!   evaluation (range restriction, fault-aware mapping) as
//!   (baseline, faulty, mitigated) accuracy triples.
//!
//! A CLI (`snn-mtfc new/info/generate/verify/reliability` plus the
//! service commands `serve/submit/status/watch/cancel` and the cluster
//! commands `worker/cluster-status`) drives the flow over
//! model and event-list files; see the repository README.
//!
//! # Quickstart
//!
//! ```
//! use snn_mtfc::model::{LifParams, Network, NetworkBuilder};
//! use snn_mtfc::tensor::{Shape, Tensor};
//!
//! // A tiny fully-connected SNN: 4 inputs → 8 hidden → 2 outputs.
//! let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
//! let net = NetworkBuilder::new(4, LifParams::default())
//!     .dense(8)
//!     .dense(2)
//!     .build(&mut rng);
//! assert_eq!(net.neuron_count(), 10);
//! ```

// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]

pub use snn_analyze as analyze;
pub use snn_baselines as baselines;
/// The two names the repository benchmark (`benchmark/`) links by this
/// path; campaigns go through [`faults::FaultSimulator`].
pub mod batch {
    pub use snn_faults::{dense_suffix_start, engine_detect};
}
pub use snn_cluster as cluster;
pub use snn_datasets as datasets;
pub use snn_faults as faults;
pub use snn_model as model;
pub use snn_obs as obs;
pub use snn_reliability as reliability;
pub use snn_service as service;
pub use snn_tensor as tensor;
pub use snn_testgen as testgen;
