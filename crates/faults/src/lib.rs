//! Behavioural fault models, fault injection and parallel fault simulation
//! for spiking neural networks.
//!
//! Implements Section III of *"Minimum Time Maximum Fault Coverage Testing
//! of Spiking Neural Networks"* (DATE 2025):
//!
//! * [`FaultUniverse`] — enumeration of the behavioural fault space. The
//!   paper's campaign uses exactly **2 faults per neuron** (saturated,
//!   dead) and **3 faults per synapse** (dead, positively saturated,
//!   negatively saturated) — recoverable from its Table II, where fault
//!   totals are exactly 2× the neuron count and 3× the synapse count.
//!   Timing-variation neuron faults and memory bit-flip synapse faults are
//!   available as extensions.
//! * [`Injection`] — how a [`Fault`] is realized on a network: weight
//!   faults patch the weight tensor; neuron faults use the simulator's
//!   behavioural hooks.
//! * [`FaultSimulator`] — the detection campaign of Eq. (3)/(4): a fault is
//!   detected by a test input if it changes the output spike trains. One
//!   entry point, [`FaultSimulator::detect_with`], over two engines with
//!   bit-identical verdicts, chosen by [`FaultSimConfig::engine`]
//!   ([`resolve_engine`]): the **scalar** engine is the reference — per
//!   fault it re-simulates the network from the fault's layer on (a fault
//!   in layer ℓ cannot alter activity before ℓ) and compares outputs; the
//!   **packed** engine simulates up to 64 faults at once, each
//!   *differentially* against one recorded fault-free run, as bit lanes of
//!   `u64` spike words. Both fan out over a crossbeam thread pool.
//! * [`chunk`] — chunk-addressable campaigns: deterministic sharding of
//!   a fault list, subset simulation by explicit fault ids, exact chunk
//!   merging and the campaign verdict digest backing `snn-cluster`'s
//!   bit-identical distributed execution.
//! * [`criticality`] — labels each fault critical (alters a top-1
//!   prediction on at least one dataset sample) or benign.
//! * [`CoverageReport`] — fault-coverage accounting in the four classes the
//!   paper reports (critical/benign × neuron/synapse), plus escape
//!   (undetected-critical) accuracy-drop analysis.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use snn_faults::{FaultSimConfig, FaultSimulator, FaultUniverse};
//! use snn_model::{LifParams, NetworkBuilder};
//! use snn_tensor::{Shape, Tensor};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new(4, LifParams::default())
//!     .dense(6)
//!     .dense(2)
//!     .build(&mut rng);
//! let universe = FaultUniverse::standard(&net);
//! assert_eq!(universe.len(), 2 * net.neuron_count() + 3 * net.synapse_count());
//!
//! let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 4), 0.5);
//! let sim = FaultSimulator::new(&net, FaultSimConfig::default());
//! let outcome = sim.detect(&universe, universe.faults(), std::slice::from_ref(&test));
//! assert_eq!(outcome.per_fault.len(), universe.len());
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

mod coverage;
mod engine;
mod estimate;
mod inject;
mod packed;
mod sim;
mod universe;

pub mod chunk;
pub mod criticality;
pub mod parallel;
pub mod progress;
pub mod transient;

pub use chunk::{verdict_digest, verdict_digest_hex, ChunkCampaignError, ChunkRange, MergeError};
pub use coverage::{escape_max_accuracy_drop, ClassCoverage, CoverageReport};
pub use engine::{resolve_engine, Engine, ParseEngineError};
pub use estimate::{estimate_coverage, CoverageEstimate};
pub use inject::{bit_flip_int8, Injection, InjectionError};
pub use packed::plan::{dense_suffix_start, FaultPlan};
pub use progress::{CancelToken, Cancelled, NullSink, Progress, ProgressSink};
pub use sim::{
    engine_detect, CampaignError, CampaignOutcome, FaultOutcome, FaultSimConfig, FaultSimulator,
};
pub use transient::{windowed_forward, TransientWindow};
pub use universe::{Fault, FaultKind, FaultModelConfig, FaultSite, FaultUniverse};
