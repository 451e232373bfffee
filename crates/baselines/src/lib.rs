//! Prior-art SNN functional test generation baselines.
//!
//! The paper's Table IV compares against four earlier methods; this crate
//! implements their algorithmic cores so the comparison can be reproduced
//! end-to-end:
//!
//! * [`dataset_greedy`] — compact functional testing à la \[18\]
//!   (El-Sayed et al., TCAD 2023): fault-simulate every candidate dataset
//!   sample, then greedily select the sample covering the most
//!   still-undetected faults until coverage saturates.
//! * [`random_inputs`] — random test compression à la \[20\]: keep adding
//!   random Bernoulli spike inputs while they improve coverage.
//! * [`adversarial_greedy`] — adversarial-example testing à la \[17\]/\[19\]:
//!   perturb dataset samples by gradient ascent against the network's own
//!   prediction margin (through the surrogate-gradient BPTT pipeline),
//!   then greedily select among the adversarial pool.
//!
//! All three share the structural weakness the paper exploits: they must
//! run a **fault-simulation campaign per candidate input** (cost
//! `O(M·T_FS)`), whereas the proposed method's loss-driven optimization
//! needs none during generation (`O(M + T_FS)`). Each
//! [`BaselineResult`] therefore records how many campaigns were spent.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use snn_baselines::{random_inputs, BaselineConfig};
//! use snn_faults::FaultUniverse;
//! use snn_model::{LifParams, NetworkBuilder};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
//! let u = FaultUniverse::standard(&net);
//! let cfg = BaselineConfig { target_coverage: 0.9, max_inputs: 5, threads: 1 };
//! let result = random_inputs(&net, &u, u.faults(), 15, &mut rng, &cfg);
//! assert!(result.fault_sim_campaigns > 0);
//! assert_eq!(result.detected.len(), u.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]

mod adversarial;
mod greedy;
mod random;
mod result;

pub use adversarial::{adversarial_greedy, AdversarialConfig};
pub use greedy::dataset_greedy;
pub use random::random_inputs;
pub use result::{BaselineConfig, BaselineResult};

pub(crate) use greedy::greedy_cover;
