//! The paper's contribution: minimum-time maximum-fault-coverage test
//! generation for spiking neural networks.
//!
//! This crate implements Section IV of *"Minimum Time Maximum Fault
//! Coverage Testing of Spiking Neural Networks"* (Raptis & Stratigopoulos,
//! DATE 2025): a two-stage, gradient-based optimization that crafts a
//! short binary spike stimulus achieving near-perfect hardware fault
//! coverage — without running a single fault simulation inside the
//! optimization loop.
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`losses`] — the five loss functions:
//!   `L1` (Eq. 9, every output neuron spikes), `L2` (Eq. 10, every
//!   targeted neuron spikes), `L3` (Eq. 12, temporal diversity ≥
//!   `TD_min`), `L4` (Eq. 13, uniform synapse contributions) and `L5`
//!   (Eq. 16, minimal hidden activity) with the output-preservation
//!   penalty realizing the Eq. 15 constraint;
//! * [`Stage`] — one input-optimization stage (Fig. 3): Gumbel-Softmax
//!   relaxation + straight-through estimator + Adam with annealed
//!   temperature and learning rate, driven through the simulator's BPTT;
//! * [`TestGenerator`] — the outer loop (Fig. 2): iterate stages over the
//!   not-yet-activated target set, grow the input duration by a doubling
//!   `β` when an iteration stalls, and stop at full activation or the
//!   time limit;
//! * [`GeneratedTest`] — the final stimulus: optimized chunks interleaved
//!   with equal-length zero (reset) inputs, Eq. (7)/(8), plus the metrics
//!   the paper's Table III reports.
//!
//! # Example: generate a test for a small SNN
//!
//! ```
//! use rand::SeedableRng;
//! use snn_model::{LifParams, NetworkBuilder};
//! use snn_testgen::{TestGenConfig, TestGenerator};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let net = NetworkBuilder::new(6, LifParams::default())
//!     .dense(10)
//!     .dense(3)
//!     .build(&mut rng);
//!
//! let cfg = TestGenConfig::fast(); // scaled-down iteration counts
//! let test = TestGenerator::new(&net, cfg).generate(&mut rng);
//! assert!(!test.chunks.is_empty());
//! let stimulus = test.assembled();
//! assert_eq!(stimulus.shape().dim(1), net.input_features());
//! assert_eq!(stimulus.shape().dim(0), test.test_steps());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]
// A kernel's numeric conversions are exact or say why they may round;
// test code, as for panics, is exempt.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_precision_loss))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss, clippy::cast_possible_wrap))]
// Results are a pure function of the seed: no clock, environment, thread
// identity, address or hash order reaches them (clippy.toml lists the bans).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

mod compact;
mod generator;
mod metrics;
mod stage;
mod testset;

pub mod losses;

pub use compact::compact_by_activation;
pub use generator::{calibrate_t_in_min, TestGenConfig, TestGenerator};
pub use metrics::{activity_map, runtimes_from_spans, ActivityMap, TestMetrics};
pub use snn_faults::progress;
pub use stage::{Stage, StageConfig, StageOutcome};
pub use testset::{parse_events, GeneratedTest, IterationStats};
