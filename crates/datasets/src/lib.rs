//! Synthetic event-stream datasets standing in for NMNIST, IBM DVS128
//! Gesture and Spiking Heidelberg Digits (SHD).
//!
//! The paper trains and evaluates on three real neuromorphic datasets.
//! Those datasets are not redistributable here, and — importantly for the
//! reproduction — the proposed test-generation algorithm never inspects
//! dataset *content*: samples only matter for (a) training the benchmark
//! SNNs, (b) labelling faults critical/benign, (c) defining the
//! sample-length unit of "test duration (samples)", and (d) the
//! dataset-driven baselines. The generators in this crate therefore
//! produce *procedural* event streams with the same input geometry, class
//! counts and temporal structure as the originals:
//!
//! * [`NmnistLike`] — digit glyphs observed by a simulated DVS performing
//!   the three-saccade motion of the NMNIST recording rig (2 polarity
//!   channels, 34×34 pixels, 10 classes).
//! * [`GestureLike`] — 11 parametric hand/arm motion patterns (swipes,
//!   rotations, waves) rendered to ON/OFF events (2×128×128 at paper
//!   scale).
//! * [`ShdLike`] — 20 spoken-digit classes (10 digits × 2 languages) as
//!   formant-sweep spike patterns over 700 frequency channels.
//!
//! Every sample is generated deterministically from `(dataset seed, index)`
//! so datasets need no storage and experiments are exactly reproducible.
//!
//! # Example
//!
//! ```
//! use snn_datasets::{NmnistLike, SpikeDataset};
//!
//! let ds = NmnistLike::repro(42);
//! let (input, label) = ds.sample(0);
//! assert_eq!(input.shape().dim(0), ds.steps());
//! assert_eq!(input.shape().dim(1), ds.input_shape().len());
//! assert!(label < ds.classes());
//! assert!(input.is_binary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]

mod dataset;
mod event;
mod gesture_like;
mod nmnist_like;
mod shd_like;

pub mod encoding;

pub use dataset::{materialize, materialize_inputs, SpikeDataset};
pub use event::{events_to_tensor, Event};
pub use gesture_like::GestureLike;
pub use nmnist_like::NmnistLike;
pub use shd_like::ShdLike;
