use crate::{BaselineConfig, BaselineResult};
use rand::Rng;
use snn_faults::{Fault, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_model::Network;
use snn_tensor::Shape;
use std::time::Instant;

/// Random-input test generation à la \[20\]: draw Bernoulli spike tensors
/// and keep each one that detects at least one still-undetected fault,
/// until the coverage target, the input budget, or a patience limit.
///
/// Every candidate costs one fault-simulation campaign over the remaining
/// undetected faults — the unbounded `O(M·T_FS)` loop the paper's method
/// avoids.
///
/// See the crate-level example for usage.
pub fn random_inputs(
    net: &Network,
    universe: &FaultUniverse,
    faults: &[Fault],
    steps_per_input: usize,
    rng: &mut impl Rng,
    cfg: &BaselineConfig,
) -> BaselineResult {
    let started = Instant::now();
    let sim = FaultSimulator::new(
        net,
        FaultSimConfig { threads: cfg.threads, ..FaultSimConfig::default() },
    );

    let mut detected = vec![false; faults.len()];
    let mut inputs = Vec::new();
    let mut history = Vec::new();
    let mut campaigns = 0usize;
    // Give up after this many consecutive useless candidates.
    let patience = 8usize;
    let mut stale = 0usize;

    while inputs.len() < cfg.max_inputs && stale < patience {
        let coverage = detected.iter().filter(|&&d| d).count() as f64 / faults.len().max(1) as f64;
        if coverage >= cfg.target_coverage {
            break;
        }
        // Vary the spike density across candidates — pure 0.5 noise tends
        // to saturate refractory periods and stops helping early.
        let density = rng.gen_range(0.05..0.6);
        let candidate = snn_tensor::init::bernoulli(
            rng,
            Shape::d2(steps_per_input, net.input_features()),
            density,
        );

        // Only the still-undetected faults need simulation.
        let remaining: Vec<Fault> =
            faults.iter().zip(detected.iter()).filter(|(_, &d)| !d).map(|(f, _)| *f).collect();
        let outcome = sim.detect(universe, &remaining, std::slice::from_ref(&candidate));
        campaigns += 1;

        let mut gained = 0usize;
        for (f, o) in remaining.iter().zip(outcome.per_fault.iter()) {
            if o.detected {
                // Map back via fault id order (faults slice is id-aligned
                // with `detected` by position).
                #[expect(
                    clippy::expect_used,
                    reason = "`remaining` is filtered from `faults` above, so the id is always present"
                )]
                let pos = faults
                    .iter()
                    .position(|g| g.id == f.id)
                    .expect("remaining fault comes from the fault list");
                if !detected[pos] {
                    detected[pos] = true;
                    gained += 1;
                }
            }
        }
        if gained > 0 {
            inputs.push(candidate);
            history
                .push(detected.iter().filter(|&&d| d).count() as f64 / faults.len().max(1) as f64);
            stale = 0;
        } else {
            stale += 1;
        }
    }

    BaselineResult {
        inputs,
        detected,
        generation_time: started.elapsed(),
        coverage_history: history,
        fault_sim_campaigns: campaigns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn setup() -> (Network, FaultUniverse) {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new(5, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(8)
            .dense(3)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        (net, u)
    }

    #[test]
    fn random_accumulates_coverage() {
        let (net, u) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = BaselineConfig { target_coverage: 0.8, max_inputs: 30, threads: 1 };
        let r = random_inputs(&net, &u, u.faults(), 20, &mut rng, &cfg);
        assert!(r.coverage() > 0.2, "coverage {}", r.coverage());
        assert!(!r.inputs.is_empty());
        assert_eq!(r.inputs.len(), r.coverage_history.len());
        for w in r.coverage_history.windows(2) {
            assert!(w[1] > w[0], "kept inputs must add coverage");
        }
        assert!(r.fault_sim_campaigns >= r.inputs.len());
    }

    #[test]
    fn input_budget_is_respected() {
        let (net, u) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = BaselineConfig { target_coverage: 1.0, max_inputs: 2, threads: 1 };
        let r = random_inputs(&net, &u, u.faults(), 15, &mut rng, &cfg);
        assert!(r.inputs.len() <= 2);
    }

    #[test]
    fn reaching_target_stops_early() {
        let (net, u) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = BaselineConfig { target_coverage: 0.05, max_inputs: 50, threads: 1 };
        let r = random_inputs(&net, &u, u.faults(), 20, &mut rng, &cfg);
        assert!(r.coverage() >= 0.05);
        assert!(r.inputs.len() <= 3, "should stop almost immediately");
    }
}
