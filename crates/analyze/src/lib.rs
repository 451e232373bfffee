//! `snn-analyze`: static testability analysis of an SNN model.
//!
//! The paper's test-generation and fault-simulation loops spend their
//! entire budget on dynamic simulation, yet some facts about a network
//! are decidable before any simulation runs:
//!
//! * [`interval`] bounds every LIF neuron's membrane potential under
//!   worst-/best-case `[0,1]` input and classifies neurons as
//!   provably-excitable, provably-dead, or undecided. A provably-dead
//!   neuron's `NeuronDead` fault is untestable. Nothing else in the
//!   workspace acts on the classes: the generator targets every neuron.
//! * [`report`] renders the results as human text or JSON.
//!
//! The dead classification is *sound*, not heuristic: the crate's
//! property tests assert that no dead-masked neuron ever spikes under
//! random binary stimuli.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]
// Results are a pure function of the seed: no clock, environment, thread
// identity, address or hash order reaches them (clippy.toml lists the bans).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod interval;
pub mod report;

pub use interval::{IntervalAnalysis, LayerAnalysis, NeuronClass};

use serde::{Deserialize, Serialize};
use snn_faults::FaultUniverse;
use snn_model::Network;

/// Compact, serializable result of an analysis run — small enough to
/// embed in service job results and CLI records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisSummary {
    /// Spiking neurons in the network.
    pub neurons: usize,
    /// Provably-dead neurons (their `NeuronDead` faults are untestable).
    pub dead_neurons: usize,
    /// Provably-excitable neurons.
    pub excitable_neurons: usize,
    /// Neurons with no conclusive bound.
    pub undecided_neurons: usize,
    /// Faults in the analyzed universe.
    pub faults: usize,
    /// Always `0.0`; kept because `benchmark/src/probes.rs` reads it.
    pub collapse_fraction: f64,
}

/// Full analysis result: interval facts and the serializable summary.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-neuron membrane-potential bounds and classes.
    pub intervals: IntervalAnalysis,
    /// Serializable totals.
    pub summary: AnalysisSummary,
}

/// Runs the full static analysis of `net` against `universe`.
pub fn analyze(net: &Network, universe: &FaultUniverse) -> Analysis {
    let mut root_span = snn_obs::span!("analyze");
    root_span.attr("faults", universe.len());
    let intervals = {
        let _span = snn_obs::span!("analyze.intervals");
        IntervalAnalysis::new(net)
    };
    let (dead, excitable, undecided) = intervals.counts();
    let summary = AnalysisSummary {
        neurons: net.neuron_count(),
        dead_neurons: dead,
        excitable_neurons: excitable,
        undecided_neurons: undecided,
        faults: universe.len(),
        collapse_fraction: 0.0,
    };
    Analysis { intervals, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn net() -> Network {
        let mut rng = StdRng::seed_from_u64(7);
        NetworkBuilder::new(6, LifParams::default()).dense(8).dense(3).build(&mut rng)
    }

    #[test]
    fn summary_totals_are_consistent() {
        let net = net();
        let universe = FaultUniverse::standard(&net);
        let a = analyze(&net, &universe);
        assert_eq!(a.summary.neurons, net.neuron_count());
        assert_eq!(a.summary.faults, universe.len());
        assert_eq!(
            a.summary.dead_neurons + a.summary.excitable_neurons + a.summary.undecided_neurons,
            a.summary.neurons
        );
    }

    #[test]
    fn summary_round_trips_through_json() {
        let net = net();
        let universe = FaultUniverse::standard(&net);
        let summary = analyze(&net, &universe).summary;
        let json = serde::json::to_string(&summary);
        let back: AnalysisSummary = serde::json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }
}
