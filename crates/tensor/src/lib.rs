//! Minimal dense `f32` tensor library for the `snn-mtfc` workspace.
//!
//! This crate provides exactly the linear-algebra substrate the spiking
//! neural network simulator and the test-generation algorithm need:
//!
//! * [`Shape`] — a small dimension descriptor with row-major strides,
//! * [`Tensor`] — a contiguous, row-major, owned `f32` tensor,
//! * [`ops`] — matrix–vector products, 2-D convolution and average pooling,
//!   each with the corresponding backward (gradient) computations used by
//!   backpropagation-through-time,
//! * [`init`] — reproducible random initializers.
//!
//! The library is deliberately *not* a general-purpose array crate: no
//! broadcasting, no views, no lazy evaluation. Everything is eager,
//! contiguous and simple enough to audit, which is what a test-generation
//! flow for safety-critical neuromorphic hardware wants.
//!
//! # Example
//!
//! ```
//! use snn_tensor::{Shape, Tensor};
//!
//! let t = Tensor::zeros(Shape::d2(3, 4));
//! assert_eq!(t.len(), 12);
//! assert_eq!(t.shape().dims(), &[3, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]
// A kernel's numeric conversions are exact or say why they may round;
// test code, as for panics, is exempt.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_precision_loss))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss, clippy::cast_possible_wrap))]

mod error;
mod shape;
mod tensor;

pub mod init;
pub mod ops;
pub mod packed;
pub mod sanitize;

pub use error::ShapeError;
pub use shape::Shape;
pub use tensor::Tensor;
