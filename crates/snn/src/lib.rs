//! Clocked Leaky-Integrate-and-Fire (LIF) spiking neural network simulator
//! with surrogate-gradient backpropagation-through-time (BPTT).
//!
//! This crate is the substrate that replaces SLAYER/PyTorch in the Rust
//! reproduction of *"Minimum Time Maximum Fault Coverage Testing of Spiking
//! Neural Networks"* (DATE 2025). It provides:
//!
//! * [`LifParams`] — the discrete-time LIF neuron model of the paper's
//!   Fig. 1: leaky integration, threshold firing, reset, refractory period;
//! * [`Layer`] — dense, 2-D convolutional, recurrent and (non-spiking)
//!   average-pooling layers;
//! * [`Network`] / [`NetworkBuilder`] — a layer-sequential SNN with exact
//!   neuron and synapse (weight) accounting, matching the way the paper's
//!   Table I counts network elements;
//! * [`Trace`] — full spatio-temporal state recording of a forward pass
//!   (spike trains `O`, membrane potentials, integration gates);
//! * behavioural neuron-fault hooks ([`NeuronBehaviorFault`]) that let the
//!   fault-injection crate force neurons dead/saturated or perturb their
//!   parameters without touching the simulator internals;
//! * [`Network::backward`] — hand-written BPTT with configurable
//!   [`Surrogate`] spike derivatives and per-layer *injected* spike-train
//!   gradients, which is exactly what the paper's loss functions L1–L5 need
//!   (they differentiate w.r.t. hidden spike trains, not just the output);
//! * [`optim`] — Adam with annealing schedules;
//! * [`gumbel`] — the binary-concrete (Gumbel-Softmax) input relaxation and
//!   straight-through estimator of the paper's Fig. 3;
//! * [`train`] — surrogate-gradient training so benchmark networks have
//!   realistic, trained weights.
//!
//! # Example: simulate a small SNN
//!
//! ```
//! use rand::SeedableRng;
//! use snn_model::{LifParams, NetworkBuilder, RecordOptions};
//! use snn_tensor::{Shape, Tensor};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new(4, LifParams::default())
//!     .dense(8)
//!     .dense(2)
//!     .build(&mut rng);
//!
//! // 10 timesteps of all-ones input spikes.
//! let input = Tensor::full(Shape::d2(10, 4), 1.0);
//! let trace = net.forward(&input, RecordOptions::spikes_only());
//! assert_eq!(trace.output().shape().dims(), &[10, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]
// A kernel's numeric conversions are exact or say why they may round;
// test code, as for panics, is exempt.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_precision_loss))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss, clippy::cast_possible_wrap))]

mod backward;
mod builder;
mod event_sim;
mod fault_hooks;
mod io;
mod layer;
mod network;
mod params;
mod prune;
mod sim;

pub mod gumbel;
pub mod optim;
pub mod train;

pub use backward::{BackwardError, Gradients, InjectedGrads};
pub use builder::NetworkBuilder;
pub use event_sim::{event_forward, EventStats};
pub use fault_hooks::{NeuronBehaviorFault, NeuronFaultMap};
pub use layer::{ConvLayer, DenseLayer, Layer, PoolLayer, RecurrentLayer};
pub use network::{Network, WeightRef};
pub use params::{LifParams, LifTick, Surrogate};
pub use prune::magnitude_prune;
pub use sim::{top1, LayerTrace, LifRecord, RecordOptions, Trace};
