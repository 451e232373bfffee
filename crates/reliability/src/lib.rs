//! Fault-map-driven reliability campaigns for spiking neural networks:
//! accuracy-impact scoring and mitigation evaluation.
//!
//! The detection campaigns of the source paper ask *"does a test detect
//! this fault?"*; the reliability literature (ReSpawn, SoftSNN,
//! RescueSNN — see PAPERS.md) asks the dual question: *"how much
//! accuracy does a fault cost, and does a mitigation recover it?"* This
//! crate points the workspace's existing fault machinery at that
//! question:
//!
//! * [`fault_map`] — per-memory-region bit-error-rate specs
//!   ([`FaultMapSpec`]) deterministically sampled into concrete fault
//!   configurations ([`FaultConfig`]) from a seed. Sampling is a pure
//!   function of `(spec, topology, config index)`, so distributed
//!   workers re-sample instead of receiving fault lists over the wire.
//! * transient injection windows — faults live only for `[t0, t1)`
//!   timesteps, via [`snn_faults::TransientWindow`] and one windowed
//!   forward pass ([`snn_faults::windowed_forward`]).
//! * [`campaign`] — the accuracy-impact campaign: each configuration is
//!   scored on a deterministic oracle-labelled evaluation set as a
//!   (baseline, faulty, mitigated) accuracy triple plus spike-activity
//!   delta, encoded as mergeable [`snn_faults::FaultOutcome`]s so the
//!   cluster's chunking, leases and FNV-1a verdict digest apply
//!   unchanged.
//! * [`mitigation`] — strategies behind the [`Mitigation`] trait:
//!   SoftSNN-style weight [`RangeRestriction`] and ReSpawn-style
//!   [`FaultAwareMapping`].
//! * [`report`] — drop distributions (mean/p95/worst), per-region
//!   criticality ranking and the campaign digest.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use snn_reliability::{
//!     EvalSpec, FaultMapSpec, MitigationKind, ReliabilityEvaluator, ReliabilityReport,
//!     ReliabilitySpec, WeightFaultModel,
//! };
//! use snn_model::{LifParams, NetworkBuilder};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new(4, LifParams::default()).dense(6).dense(2).build(&mut rng);
//! let spec = ReliabilitySpec {
//!     map: FaultMapSpec::uniform(&net, 0.05, 0.0, 4, 42, WeightFaultModel::StuckSat, None),
//!     eval: EvalSpec { samples: 3, steps: 10, rate: 0.4, seed: 7 },
//!     mitigation: MitigationKind::RangeRestriction,
//! };
//! let eval = ReliabilityEvaluator::new(net.clone(), spec.clone()).unwrap();
//! let outcomes = eval
//!     .evaluate_chunk(0..spec.map.configs, 1, &snn_faults::CancelToken::new())
//!     .unwrap();
//! let report = ReliabilityReport::build(&net, &spec, &outcomes).unwrap();
//! assert_eq!(report.configs, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]
// Results are a pure function of the seed: no clock, environment, thread
// identity, address or hash order reaches them (clippy.toml lists the bans).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod campaign;
pub mod fault_map;
pub mod mitigation;
pub mod report;

pub use campaign::{eval_inputs, ConfigOutcome, EvalSpec, ReliabilityEvaluator, ReliabilitySpec};
pub use fault_map::{
    sample_config, FaultConfig, FaultMapSpec, MemoryRegion, RegionSpec, WeightCorruption,
    WeightFaultModel, WeightHit, STUCK_SAT_FACTOR,
};
pub use mitigation::{
    FaultAwareMapping, Mitigation, MitigationKind, RangeRestriction, Unmitigated,
};
pub use report::{DropStats, RegionCriticality, ReliabilityReport};
