//! The input-optimization stages of the paper's Fig. 3 and Eqs. 14–15.
//! [`Stage`] runs stage 1 (activate the target neurons) and stage 2
//! (prune hidden activity with the output pinned); both, and the
//! `T_in,min` calibration, run their steps through one routine,
//! `Descent`.
//!
//! A stochastic descent runs on two threads (DESIGN.md §19.7). The
//! generator thread binarises each step's sample and runs the forward
//! pass, the losses, BPTT and Adam. A noise thread draws the logistic
//! noise a step ahead, and makes the relaxation `σ((l + g)/τ)`, which
//! only the step's input gradient reads, while the forward pass runs.
//! The random stream, the stimuli and every loss value are those of the
//! serial sampler.

use crate::losses::{self, L4Layout, TargetMask};
use rand::Rng;
use snn_model::{
    gumbel::{logistic_noise, soften, GumbelSample},
    optim::{Adam, Schedule},
    Gradients, InjectedGrads, Network, RecordOptions, Surrogate, Trace,
};
use snn_tensor::{Shape, Tensor};
use std::sync::mpsc;

/// Evaluates one loss expression, recording its wall-clock cost in a
/// `snn_testgen_<name>_eval_seconds` histogram and its last value in a
/// `snn_testgen_<name>_value` gauge, then yields the value.
macro_rules! timed_loss {
    ($name:literal, $eval:expr) => {{
        let t0 = snn_obs::clock::monotonic();
        let value = $eval;
        snn_obs::histogram!(
            concat!("snn_testgen_", $name, "_eval_seconds"),
            concat!("Per-step ", $name, " evaluation time."),
            snn_obs::metrics::FINE_DURATION_BUCKETS
        )
        .observe_duration(snn_obs::clock::monotonic().saturating_sub(t0));
        snn_obs::gauge!(
            concat!("snn_testgen_", $name, "_value"),
            concat!("Last ", $name, " loss value.")
        )
        .set(f64::from(value));
        value
    }};
}

/// Hyper-parameters of one input-optimization stage (paper Fig. 3 and
/// Section V-C).
#[derive(Debug, Clone, PartialEq)]
pub struct StageConfig {
    /// Optimization steps (`N_steps^{stage#}`; paper: 2000 for stage 1,
    /// half that for stage 2).
    pub steps: usize,
    /// Learning-rate annealing (paper: Adam starting at 0.1).
    pub lr: Schedule,
    /// Gumbel-Softmax temperature annealing (paper: maximum 0.9).
    pub tau: Schedule,
    /// Surrogate spike derivative for BPTT.
    pub surrogate: Surrogate,
    /// Sample the binary-concrete relaxation with logistic noise
    /// (`true`, the paper's setting) or deterministically.
    pub stochastic: bool,
    /// Minimum temporal diversity `TD_min` for `L3`.
    pub td_min: f32,
    /// Weight `μ` of the output-preservation penalty in stage 2.
    pub mu: f32,
    /// Include `L3` (temporal diversity) in stage 1 — ablation toggle.
    pub use_l3: bool,
    /// Include `L4` (contribution variance) in stage 1 — ablation toggle.
    pub use_l4: bool,
    /// Include the `L6` saturation-margin extension loss (this repo's
    /// future-work experiment; off by default = paper-faithful).
    pub use_l6: bool,
    /// Margin for `L6` (fraction of the physical maximum firing rate).
    pub l6_margin: f32,
}

impl Default for StageConfig {
    fn default() -> Self {
        Self {
            steps: 200,
            lr: Schedule::Cosine { initial: 0.1, min: 0.01, period: 200 },
            tau: Schedule::Cosine { initial: 0.9, min: 0.3, period: 200 },
            surrogate: Surrogate::default(),
            stochastic: true,
            td_min: 2.0,
            mu: 4.0,
            use_l3: true,
            use_l4: true,
            use_l6: false,
            l6_margin: 0.85,
        }
    }
}

/// Result of one optimization stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutcome {
    /// Best binary stimulus found (`[T × input_features]`).
    pub best_input: Tensor,
    /// Logits (`I_real`) at the best point — the warm start for stage 2.
    pub best_logits: Tensor,
    /// Best scalarized loss value.
    pub best_loss: f32,
    /// Forward trace of `best_input` (spike trains of every layer).
    pub best_trace: Trace,
    /// Scalarized loss per optimization step (for convergence reporting).
    pub loss_history: Vec<f32>,
}

impl StageOutcome {
    /// Per-layer activation masks of the best stimulus: `true` where the
    /// neuron fired at least `min_spikes` times. Non-spiking layers yield
    /// empty masks.
    pub fn activation_masks(&self, net: &Network, min_spikes: f32) -> Vec<Vec<bool>> {
        net.layers()
            .iter()
            .enumerate()
            .map(|(idx, layer)| {
                if !layer.is_spiking() {
                    return Vec::new();
                }
                self.best_trace.layers[idx]
                    .spike_counts()
                    .into_iter()
                    .map(|c| c >= min_spikes)
                    .collect()
            })
            .collect()
    }
}

/// The optimizer state and the buffers one stage owns for all of its
/// steps, and the one place the input-optimization step is spelled out:
/// sample → forward → losses → BPTT → STE → Adam (paper Fig. 3). Stage 1,
/// stage 2 and the `T_in,min` calibration differ only in the losses they
/// hand to [`run`](Self::run).
pub(crate) struct Descent<'a> {
    net: &'a Network,
    cfg: &'a StageConfig,
    logits: Tensor,
    adam: Adam,
    sample: GumbelSample,
    inj: InjectedGrads,
    /// The best stimulus so far, by the scores `run`'s callers report.
    best: Option<StageOutcome>,
}

/// What step `k`'s forward pass, losses and BPTT leave for its update:
/// the score if it beats the best so far, the trace, and the gradient at
/// the input unless no loss had one.
struct Pass {
    improved: Option<f32>,
    trace: Trace,
    grads: Option<Gradients>,
}

impl<'a> Descent<'a> {
    /// A descent from `logits`, to beat `best` if given.
    pub(crate) fn new(
        net: &'a Network,
        cfg: &'a StageConfig,
        logits: Tensor,
        best: Option<StageOutcome>,
    ) -> Self {
        Self {
            net,
            cfg,
            adam: Adam::new(logits.shape().clone()),
            sample: GumbelSample::unsampled(&logits),
            inj: InjectedGrads::none(net.layers().len()),
            logits,
            best,
        }
    }

    /// Runs optimization steps `0..steps`. `losses` evaluates the
    /// caller's loss terms on a step's trace, adding their scaled
    /// gradients into the (cleared) accumulator it is handed, and returns
    /// the step's score if its stimulus may stand as the best so far —
    /// lower wins. Stops early, leaving the logits as they were, once no
    /// loss has any gradient left — there is nothing more to optimize —
    /// and returns whether it did.
    ///
    /// A stochastic descent keeps the relaxation off the generator
    /// thread's path (DESIGN.md §19.7). A helper thread draws the noise
    /// ahead of the steps into two buffers the two threads hand back and
    /// forth; each block comes with the generator state it was drawn
    /// from, so that `rng` ends where drawing the consumed blocks in line
    /// would have left it. A step binarises its block on the generator
    /// thread and sends the logits, the `soft` buffer and the block to the
    /// helper, which makes `soft` while the generator thread runs the
    /// forward pass, the losses and BPTT, sends the pair back and then
    /// draws the block of the step after next. A deterministic descent
    /// relaxes in line, draws nothing and spawns nothing.
    pub(crate) fn run<R: Rng + Clone + Send>(
        &mut self,
        rng: &mut R,
        steps: usize,
        mut losses: impl FnMut(&Trace, &mut InjectedGrads) -> Option<f32>,
    ) -> bool {
        let len = self.logits.len();
        if !self.cfg.stochastic || steps == 0 {
            let zeros = vec![0.0f32; len];
            return (0..steps).any(|k| {
                let span = snn_obs::span!("stage.sample");
                let tau = self.tau(k);
                self.sample.relax(&zeros, &self.logits, tau);
                drop(span);
                let pass = self.pass(&mut losses);
                !self.update(k, pass)
            });
        }
        let mut ring = vec![0.0f32; 2 * len];
        let (first, second) = ring.split_at_mut(len);
        // While the helper holds the logits and `soft`, these stand in.
        let (mut logits_stand_in, mut soft_stand_in) =
            (Tensor::zeros(Shape::d1(0)), Tensor::zeros(Shape::d1(0)));
        let stage_span = snn_obs::trace::current_id();
        std::thread::scope(|scope| {
            // Step k's logits, `soft` buffer, noise block and temperature.
            let (to_soften, to_soften_rx) =
                mpsc::sync_channel::<(Tensor, Tensor, &mut [f32], f32)>(1);
            let (softened_tx, softened) = mpsc::sync_channel(1);
            let (drawn_tx, drawn) = mpsc::sync_channel(2);
            let mut ahead = rng.clone();
            let helper = scope.spawn(move || {
                // A block is free to draw into once its step's `soft` is made.
                let freed = to_soften_rx.into_iter().map_while(|(logits, mut soft, block, tau)| {
                    let span = snn_obs::trace::enter_with_parent("stage.soften", stage_span);
                    soften(&mut soft, block, &logits, tau);
                    drop(span);
                    softened_tx.send((logits, soft)).ok().map(|()| block)
                });
                for (drawn_before, block) in [first, second].into_iter().chain(freed).enumerate() {
                    if drawn_before >= steps {
                        continue;
                    }
                    let _span = snn_obs::trace::enter_with_parent("stage.noise", stage_span);
                    let drawn_from = ahead.clone();
                    logistic_noise(&mut ahead, block);
                    if drawn_tx.send((block, drawn_from)).is_err() {
                        break;
                    }
                }
                ahead
            });
            // Only a helper that died hangs up early, and its panic resumes
            // at the join below: the sends and receives here may fail, and
            // the loop then ends.
            let mut stopped = false;
            for k in 0..steps {
                let span = snn_obs::span!("stage.sample");
                let Ok((block, _)) = drawn.recv() else { break };
                let tau = self.tau(k);
                self.sample.binarize(block, &self.logits, tau);
                let logits = std::mem::replace(&mut self.logits, logits_stand_in);
                let soft = std::mem::replace(&mut self.sample.soft, soft_stand_in);
                let _ = to_soften.send((logits, soft, block, tau));
                drop(span);
                let pass = self.pass(&mut losses);
                let span = snn_obs::span!("stage.wait");
                let Ok((logits, soft)) = softened.recv() else { break };
                logits_stand_in = std::mem::replace(&mut self.logits, logits);
                soft_stand_in = std::mem::replace(&mut self.sample.soft, soft);
                drop(span);
                if !self.update(k, pass) {
                    stopped = true;
                    break;
                }
            }
            // The helper draws at most the blocks it already holds; the
            // first one still in the channel is the first unconsumed.
            drop(to_soften);
            let next = drawn.recv().ok();
            match helper.join() {
                Ok(end) => *rng = next.map_or(end, |(_, drawn_from)| drawn_from),
                Err(panic) => std::panic::resume_unwind(panic),
            }
            stopped
        })
    }

    /// Step `k`'s temperature, also reported as a gauge.
    fn tau(&self, k: usize) -> f32 {
        let tau = self.cfg.tau.at(k);
        snn_obs::gauge!("snn_testgen_gumbel_tau", "Current Gumbel-Softmax temperature.")
            .set(f64::from(tau));
        tau
    }

    /// The forward pass, the losses and BPTT of the step whose spikes the
    /// sample holds; they read neither the logits nor `soft`.
    fn pass(&mut self, losses: &mut impl FnMut(&Trace, &mut InjectedGrads) -> Option<f32>) -> Pass {
        let input = &self.sample.binary;
        let trace = self.net.forward(input, RecordOptions::full());
        self.inj.clear();
        let score = {
            let _span = snn_obs::span!("stage.losses");
            losses(&trace, &mut self.inj)
        };
        let improved = score.filter(|&s| self.best.as_ref().is_none_or(|b| s < b.best_loss));
        let grads = (!self.inj.is_empty())
            .then(|| self.net.backward(input, &trace, &self.inj, self.cfg.surrogate, false));
        Pass { improved, trace, grads }
    }

    /// The rest of optimization step `k`, once the logits and `soft` are
    /// back: the best-so-far bookkeeping, the STE's backward pass and
    /// Adam; `false` when no loss has a gradient left.
    fn update(&mut self, k: usize, pass: Pass) -> bool {
        let _span = snn_obs::span!("stage.update");
        let input = &self.sample.binary;
        if let Some(best_loss) = pass.improved {
            // BPTT is done with the trace, so it moves instead of being
            // cloned; the logits are still those the sample was drawn from,
            // and both tensors go into the buffers of the best they replace.
            match &mut self.best {
                Some(best) => {
                    best.best_input.clone_from(input);
                    best.best_logits.clone_from(&self.logits);
                    (best.best_loss, best.best_trace) = (best_loss, pass.trace);
                }
                None => {
                    self.best = Some(StageOutcome {
                        best_input: input.clone(),
                        best_logits: self.logits.clone(),
                        best_loss,
                        best_trace: pass.trace,
                        loss_history: Vec::new(),
                    });
                }
            }
        }
        let Some(mut grads) = pass.grads else { return false };
        self.sample.grad_logits(&mut grads.input);
        self.adam.step(&mut self.logits, &grads.input, self.cfg.lr.at(k));
        true
    }
}

/// One gradient-based input-optimization stage over a fixed network.
///
/// See the crate-level example; stages are normally driven by
/// [`TestGenerator`](crate::TestGenerator).
#[derive(Debug)]
pub struct Stage<'a> {
    net: &'a Network,
    cfg: StageConfig,
    /// `L4`'s layout of `net`'s weights, if the stage uses `L4`.
    l4: Option<L4Layout>,
}

impl<'a> Stage<'a> {
    /// Creates a stage runner for `net`.
    pub fn new(net: &'a Network, cfg: StageConfig) -> Self {
        let l4 = cfg.use_l4.then(|| L4Layout::new(net));
        Self { net, cfg, l4 }
    }

    /// The stage configuration.
    pub fn config(&self) -> &StageConfig {
        &self.cfg
    }

    /// Stage 1 (Eq. 14): minimize `Σ αᵢ·Lᵢ` for `i = 1..4` over the input,
    /// targeting the neurons selected by `mask`.
    ///
    /// `logits` is the initial `I_real` (`[T × input_features]`); pass
    /// fresh uniform noise for a cold start.
    ///
    /// # Panics
    ///
    /// Panics if `logits` feature count mismatches the network.
    pub fn run_stage1(
        &self,
        rng: &mut (impl Rng + Clone + Send),
        logits: Tensor,
        mask: &TargetMask,
    ) -> StageOutcome {
        assert_eq!(
            logits.shape().dim(1),
            self.net.input_features(),
            "logit feature count mismatch"
        );
        assert!(self.cfg.steps > 0, "stage needs at least one optimization step");
        let mut stage_span = snn_obs::span!("stage1");
        stage_span.attr("steps", self.cfg.steps);
        let mut descent = Descent::new(self.net, &self.cfg, logits, None);
        let mut alphas: Option<Vec<f32>> = None;
        let mut history = Vec::with_capacity(self.cfg.steps);

        // A perfect loss ends the descent early: nothing left to optimize.
        descent.run(rng, self.cfg.steps, |trace, inj| {
            let a = alphas.get_or_insert_with(|| {
                // The weights come from the first step's loss values, so
                // that step evaluates the losses twice: unscaled for the
                // values, then again for the scaled gradients.
                let values = self.stage1_losses(trace, mask, &[1.0; 5], inj);
                inj.clear();
                losses::balance_weights(&values)
            });
            let values = self.stage1_losses(trace, mask, a, inj);
            let total: f32 = values.iter().zip(a.iter()).map(|(v, al)| v * al).sum();
            history.push(total);
            Some(total)
        });

        #[expect(
            clippy::expect_used,
            reason = "the entry assert guarantees steps ≥ 1, and the first step's score always stands"
        )]
        let mut out = descent.best.expect("stage ran at least one step");
        out.loss_history = history;
        out
    }

    /// The stage-1 losses `L1..L4` (plus the optional `L6` extension) on
    /// `trace`, each adding `alphas[i]` times its gradient into `inj`;
    /// a loss the configuration turns off reads 0.
    fn stage1_losses(
        &self,
        trace: &Trace,
        mask: &TargetMask,
        alphas: &[f32],
        inj: &mut InjectedGrads,
    ) -> [f32; 5] {
        let (net, cfg) = (self.net, &self.cfg);
        let mut values = [0.0f32; 5];
        values[0] = timed_loss!("l1", losses::l1_output_activation(net, trace, alphas[0], inj));
        values[1] =
            timed_loss!("l2", losses::l2_neuron_activation(net, trace, mask, alphas[1], inj));
        if cfg.use_l3 {
            values[2] = timed_loss!(
                "l3",
                losses::l3_temporal_diversity(net, trace, mask, cfg.td_min, alphas[2], inj)
            );
        }
        if let Some(l4) = &self.l4 {
            values[3] = timed_loss!("l4", l4.contribution_variance(net, trace, alphas[3], inj));
        }
        if cfg.use_l6 {
            values[4] = timed_loss!(
                "l6",
                losses::l6_saturation_margin(net, trace, cfg.l6_margin, alphas[4], inj)
            );
        }
        values
    }

    /// Stage 2 (Eq. 15): starting from the stage-1 optimum, minimize the
    /// hidden activity `L5` while keeping the output spike trains exactly
    /// equal to the stage-1 output (enforced as a hard acceptance guard on
    /// top of the `μ`-weighted penalty).
    pub fn run_stage2(
        &self,
        rng: &mut (impl Rng + Clone + Send),
        stage1: &StageOutcome,
    ) -> StageOutcome {
        let mut stage_span = snn_obs::span!("stage2");
        stage_span.attr("steps", self.cfg.steps);
        let reference = stage1.best_trace.output();
        let mut history = Vec::with_capacity(self.cfg.steps);

        // Baseline: the stage-1 stimulus itself.
        let baseline = StageOutcome {
            best_input: stage1.best_input.clone(),
            best_logits: stage1.best_logits.clone(),
            best_loss: hidden_spikes(self.net, &stage1.best_trace),
            best_trace: stage1.best_trace.clone(),
            loss_history: Vec::new(),
        };
        let alpha5 = 1.0 / baseline.best_loss.max(1e-3);
        let mut descent =
            Descent::new(self.net, &self.cfg, stage1.best_logits.clone(), Some(baseline));

        descent.run(rng, self.cfg.steps, |trace, inj| {
            let l5 = timed_loss!("l5", losses::l5_hidden_activity(self.net, trace, alpha5, inj));
            let penalty = losses::output_preservation(self.net, trace, reference, self.cfg.mu, inj);
            history.push(alpha5 * l5 + penalty);
            // Hard guard: accept only exact output preservation.
            (penalty == 0.0).then_some(l5)
        });

        #[expect(
            clippy::expect_used,
            reason = "the descent started from the stage-1 baseline, so a best always exists"
        )]
        let mut best = descent.best.expect("stage 2 starts from a baseline");
        best.loss_history = history;
        best
    }
}

/// Total hidden spike count of a trace (the raw `L5` value).
fn hidden_spikes(net: &Network, trace: &Trace) -> f32 {
    let last = net.layers().len() - 1;
    net.layers()
        .iter()
        .enumerate()
        .filter(|(idx, l)| *idx != last && l.is_spiking())
        .map(|(idx, _)| trace.layers[idx].output.sum())
        .sum()
}

/// Fresh uniform logits in `[-1, 1)` for a cold-started stage.
pub(crate) fn init_logits(rng: &mut impl Rng, steps: usize, features: usize) -> Tensor {
    snn_tensor::init::uniform(rng, Shape::d2(steps, features), -1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::losses::full_mask;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(12)
            .dense(4)
            .build(&mut rng)
    }

    fn cfg(steps: usize) -> StageConfig {
        StageConfig {
            steps,
            lr: Schedule::Constant(0.08),
            tau: Schedule::Constant(0.7),
            ..StageConfig::default()
        }
    }

    #[test]
    fn stage1_reduces_the_scalarized_loss() {
        let net = net(1);
        let mut rng = StdRng::seed_from_u64(2);
        let stage = Stage::new(&net, cfg(80));
        let logits = init_logits(&mut rng, 25, 6);
        let out = stage.run_stage1(&mut rng, logits, &full_mask(&net));
        let first = out.loss_history.first().copied().unwrap();
        assert!(out.best_loss <= first, "best {} should not exceed initial {first}", out.best_loss);
        assert!(out.best_input.is_binary());
        assert_eq!(out.best_input.shape().dims(), &[25, 6]);
    }

    #[test]
    fn stage1_activates_more_neurons_than_a_random_input() {
        let net = net(3);
        let mut rng = StdRng::seed_from_u64(4);
        let stage = Stage::new(&net, cfg(120));
        let logits = init_logits(&mut rng, 30, 6);
        let random_input = GumbelSample::deterministic(&logits, 0.9).binary;
        let random_trace = net.forward(&random_input, RecordOptions::spikes_only());
        let random_active: usize = (0..2).map(|i| random_trace.layers[i].activated_count()).sum();

        let out = stage.run_stage1(&mut rng, logits, &full_mask(&net));
        let opt_active: usize = (0..2).map(|i| out.best_trace.layers[i].activated_count()).sum();
        assert!(opt_active >= random_active, "optimized {opt_active} < random {random_active}");
        assert!(opt_active > 0);
    }

    #[test]
    fn stage2_never_breaks_the_output_and_never_increases_hidden_spikes() {
        let net = net(5);
        let mut rng = StdRng::seed_from_u64(6);
        let stage = Stage::new(&net, cfg(60));
        let logits = init_logits(&mut rng, 25, 6);
        let s1 = stage.run_stage1(&mut rng, logits, &full_mask(&net));
        let s1_hidden = hidden_spikes(&net, &s1.best_trace);

        let s2 = stage.run_stage2(&mut rng, &s1);
        let s2_hidden = hidden_spikes(&net, &s2.best_trace);
        assert!(s2_hidden <= s1_hidden, "stage 2 increased hidden spikes");
        assert_eq!(
            s2.best_trace.output(),
            s1.best_trace.output(),
            "stage 2 must preserve O^L exactly"
        );
    }

    #[test]
    fn activation_masks_match_trace_counts() {
        let net = net(7);
        let mut rng = StdRng::seed_from_u64(8);
        let stage = Stage::new(&net, cfg(20));
        let logits = init_logits(&mut rng, 20, 6);
        let out = stage.run_stage1(&mut rng, logits, &full_mask(&net));
        let masks = out.activation_masks(&net, 1.0);
        for (idx, mask) in masks.iter().enumerate() {
            let counts = out.best_trace.layers[idx].spike_counts();
            for (m, c) in mask.iter().zip(counts.iter()) {
                assert_eq!(*m, *c >= 1.0);
            }
        }
    }

    /// A loss that panics on the optimizer's thread one step in, with the
    /// noise helper running and blocks in flight, surfaces as that panic:
    /// the helper is released and joined, not left waiting.
    #[test]
    #[should_panic(expected = "loss panicked on step 1")]
    fn a_panicking_loss_propagates_out_of_the_descent() {
        let (net, cfg) = (net(1), cfg(20));
        let (stage, mask) = (Stage::new(&net, cfg.clone()), full_mask(&net));
        let mut rng = StdRng::seed_from_u64(2);
        let logits = init_logits(&mut rng, 10, 6);
        let mut k = 0;
        // Step 0 must have a gradient, or the descent stops before step 1.
        Descent::new(&net, &cfg, logits, None).run(&mut rng, cfg.steps, |trace, inj| {
            assert!(k == 0, "loss panicked on step {k}");
            k += 1;
            Some(stage.stage1_losses(trace, &mask, &[1.0; 5], inj).iter().sum())
        });
    }

    /// A loss that panics on step 0 runs while the noise thread holds
    /// the logits and the `soft` buffer: the panic still surfaces as
    /// itself, and the helper is released and joined.
    #[test]
    #[should_panic(expected = "loss panicked on step 0")]
    fn a_loss_panicking_while_the_noise_thread_holds_the_logits_propagates() {
        let (net, cfg) = (net(1), cfg(20));
        let mut rng = StdRng::seed_from_u64(2);
        let logits = init_logits(&mut rng, 10, 6);
        Descent::new(&net, &cfg, logits, None).run(&mut rng, cfg.steps, |_, _| {
            panic!("loss panicked on step 0");
        });
    }

    /// A descent that stops at step `k` ends with the logits, and the
    /// best stimulus's logits, that `k` full steps left: the logits come
    /// back from the noise thread before the stop, and Adam does not run.
    #[test]
    fn an_early_stop_leaves_the_logits_as_the_step_found_them() {
        let (net, cfg) = (net(1), cfg(20));
        let (stage, mask) = (Stage::new(&net, cfg.clone()), full_mask(&net));
        let logits = init_logits(&mut StdRng::seed_from_u64(2), 10, 6);
        for stop in [0, 3] {
            let descend = |steps: usize, stop: Option<usize>| {
                let mut descent = Descent::new(&net, &cfg, logits.clone(), None);
                let mut k = 0;
                let stopped = descent.run(&mut StdRng::seed_from_u64(3), steps, |trace, inj| {
                    stage.stage1_losses(trace, &mask, &[1.0; 5], inj);
                    if Some(k) == stop {
                        inj.clear();
                    }
                    k += 1;
                    // Every step's score stands: the best is the last step's.
                    Some(-(k as f32))
                });
                (stopped, descent)
            };
            let (stopped, early) = descend(cfg.steps, Some(stop));
            assert!(stopped, "the descent must stop at step {stop}");
            let (_, full) = descend(stop, None);
            assert_eq!(early.logits, full.logits, "stopped at step {stop}");
            let best = early.best.unwrap();
            assert_eq!(best.best_logits, full.logits, "stopped at step {stop}");
            assert_eq!(best.best_input, early.sample.binary);
        }
    }

    #[test]
    fn deterministic_mode_is_reproducible() {
        let net = net(9);
        let mut cfg = cfg(15);
        cfg.stochastic = false;
        let stage = Stage::new(&net, cfg);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let logits = init_logits(&mut rng, 15, 6);
            stage.run_stage1(&mut rng, logits, &full_mask(&net))
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.best_input, b.best_input);
        assert_eq!(a.loss_history, b.loss_history);
    }
}
