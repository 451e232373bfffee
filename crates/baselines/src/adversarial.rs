use crate::{greedy_cover, BaselineConfig, BaselineResult};
use rand::Rng;
use snn_faults::{Fault, FaultSimConfig, FaultSimulator, FaultUniverse};
use snn_model::{
    gumbel::GumbelSample, optim::Adam, InjectedGrads, Network, RecordOptions, Surrogate,
};
use snn_tensor::{Shape, Tensor};
use std::time::Instant;

/// Knobs of the adversarial perturbation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarialConfig {
    /// Gradient-ascent steps per sample.
    pub steps: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gumbel temperature for the relaxed input.
    pub tau: f32,
    /// Surrogate derivative for BPTT.
    pub surrogate: Surrogate,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        Self { steps: 40, lr: 0.1, tau: 0.7, surrogate: Surrogate::default() }
    }
}

/// Adversarial-example test generation à la \[17\]/\[19\]: each dataset
/// sample is perturbed by gradient ascent against the network's own
/// prediction margin (pushing the runner-up class over the predicted
/// one), producing inputs that sit near decision boundaries; the
/// adversarial pool is then fault-simulated per candidate and greedily
/// compacted — the same `O(M·T_FS)` structure as the other baselines.
///
/// # Panics
///
/// Panics if `pool` is empty or the network has fewer than 2 output
/// classes.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_baselines::{adversarial_greedy, AdversarialConfig, BaselineConfig};
/// use snn_faults::FaultUniverse;
/// use snn_model::{LifParams, NetworkBuilder};
/// use snn_tensor::Shape;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
/// let u = FaultUniverse::standard(&net);
/// let pool = vec![snn_tensor::init::bernoulli(&mut rng, Shape::d2(12, 4), 0.4)];
/// let cfg = BaselineConfig { max_inputs: 2, ..BaselineConfig::default() };
/// let adv = AdversarialConfig { steps: 10, ..AdversarialConfig::default() };
/// let r = adversarial_greedy(&net, &u, u.faults(), &pool, adv, &mut rng, &cfg);
/// assert_eq!(r.fault_sim_campaigns, 1);
/// ```
pub fn adversarial_greedy(
    net: &Network,
    universe: &FaultUniverse,
    faults: &[Fault],
    pool: &[Tensor],
    adv: AdversarialConfig,
    rng: &mut impl Rng,
    cfg: &BaselineConfig,
) -> BaselineResult {
    assert!(!pool.is_empty(), "candidate pool must be non-empty");
    assert!(net.output_features() >= 2, "adversarial margin attack needs at least two classes");
    let started = Instant::now();

    // 1. Perturb every pool sample into an adversarial candidate.
    let adversarial_pool: Vec<Tensor> =
        pool.iter().map(|sample| perturb(net, sample, adv, rng)).collect();

    // 2. Detection matrix + greedy cover, as in the dataset baseline.
    let sim = FaultSimulator::new(
        net,
        FaultSimConfig { threads: cfg.threads, ..FaultSimConfig::default() },
    );
    let detection: Vec<Vec<bool>> = adversarial_pool
        .iter()
        .map(|input| {
            sim.detect(universe, faults, std::slice::from_ref(input))
                .per_fault
                .into_iter()
                .map(|o| o.detected)
                .collect()
        })
        .collect();
    let (selected, detected, history) =
        greedy_cover(&detection, cfg.target_coverage, cfg.max_inputs);

    BaselineResult {
        inputs: selected.iter().map(|&i| adversarial_pool[i].clone()).collect(),
        detected,
        generation_time: started.elapsed(),
        coverage_history: history,
        fault_sim_campaigns: adversarial_pool.len(),
    }
}

/// Margin attack on one sample: minimize `count[pred] − count[runner-up]`
/// through BPTT + STE, starting from the sample's own spike pattern.
fn perturb(net: &Network, sample: &Tensor, adv: AdversarialConfig, rng: &mut impl Rng) -> Tensor {
    let steps = sample.shape().dim(0);
    let classes = net.output_features();
    let num_layers = net.layers().len();

    // Initialize logits so the deterministic binarization reproduces the
    // sample exactly (±2 logits), then let gradient ascent deform it.
    let mut logits = sample.map(|v| if v >= 0.5 { 2.0 } else { -2.0 });
    let mut adam = Adam::new(logits.shape().clone());

    // Fixed attack target: the clean prediction.
    let clean = net.forward(sample, RecordOptions::spikes_only());
    let pred = clean.predict();

    let mut best = sample.clone();
    let mut best_margin = f32::INFINITY;
    for _ in 0..adv.steps {
        let relaxed = GumbelSample::stochastic(rng, &logits, adv.tau);
        let trace = net.forward(&relaxed.binary, RecordOptions::full());
        let counts = trace.class_counts();
        #[expect(
            clippy::expect_used,
            reason = "spike counts are finite sums of 0.0/1.0, so partial_cmp cannot return None, and the caller's network has ≥ 2 output classes"
        )]
        let runner = (0..classes)
            .filter(|&k| k != pred)
            .max_by(|&a, &b| counts[a].partial_cmp(&counts[b]).expect("finite counts"))
            .expect("at least two classes");
        let margin = counts[pred] - counts[runner];
        if margin < best_margin {
            best_margin = margin;
            best = relaxed.binary.clone();
        }

        // ∂margin/∂count: +1 on the predicted class, −1 on the runner-up,
        // replicated over ticks (count = Σ_t s[t]).
        let mut grad = Tensor::zeros(Shape::d2(steps, classes));
        {
            let gd = grad.as_mut_slice();
            for t in 0..steps {
                gd[t * classes + pred] = 1.0;
                gd[t * classes + runner] = -1.0;
            }
        }
        let mut inj = InjectedGrads::none(num_layers);
        inj.set(num_layers - 1, grad);
        let mut grads = net.backward(&relaxed.binary, &trace, &inj, adv.surrogate, false);
        relaxed.grad_logits(&mut grads.input);
        adam.step(&mut logits, &grads.input, adv.lr);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn setup() -> (Network, FaultUniverse, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(6);
        let net = NetworkBuilder::new(5, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(8)
            .dense(3)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let pool: Vec<_> =
            (0..3).map(|_| snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 5), 0.4)).collect();
        (net, u, pool)
    }

    #[test]
    fn perturbation_reduces_the_prediction_margin() {
        let (net, _, pool) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let sample = &pool[0];
        let clean = net.forward(sample, RecordOptions::spikes_only());
        let counts = clean.class_counts();
        let pred = clean.predict();
        let clean_margin = counts[pred]
            - counts
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != pred)
                .map(|(_, &c)| c)
                .fold(f32::NEG_INFINITY, f32::max);

        let advd = perturb(&net, sample, AdversarialConfig::default(), &mut rng);
        let adv_trace = net.forward(&advd, RecordOptions::spikes_only());
        let adv_counts = adv_trace.class_counts();
        let adv_margin = adv_counts[pred]
            - adv_counts
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != pred)
                .map(|(_, &c)| c)
                .fold(f32::NEG_INFINITY, f32::max);
        assert!(adv_margin <= clean_margin, "margin grew: {clean_margin} → {adv_margin}");
    }

    #[test]
    fn adversarial_greedy_runs_one_campaign_per_candidate() {
        let (net, u, pool) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = BaselineConfig { threads: 1, ..BaselineConfig::default() };
        let adv = AdversarialConfig { steps: 8, ..AdversarialConfig::default() };
        let r = adversarial_greedy(&net, &u, u.faults(), &pool, adv, &mut rng, &cfg);
        assert_eq!(r.fault_sim_campaigns, 3);
        assert!(r.inputs.len() <= pool.len());
        assert_eq!(r.detected.len(), u.len());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn requires_pool() {
        let (net, u, _) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let _ = adversarial_greedy(
            &net,
            &u,
            u.faults(),
            &[],
            AdversarialConfig::default(),
            &mut rng,
            &BaselineConfig::default(),
        );
    }
}
