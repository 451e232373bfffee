use crate::losses::{self, TargetMask};
use crate::stage::{init_logits, Descent, Stage, StageConfig, StageOutcome};
use crate::testset::{GeneratedTest, IterationStats};
use rand::Rng;
use snn_faults::progress::{CancelToken, Cancelled, NullSink, Progress, ProgressSink};
use snn_model::{optim::Schedule, Network, Surrogate};
use std::time::Duration;

/// Configuration of the full test-generation algorithm (paper Fig. 2 and
/// Section V-C).
#[derive(Debug, Clone, PartialEq)]
pub struct TestGenConfig {
    /// Stage-1 optimization steps per iteration (`N¹_steps`; paper: 2000).
    pub stage1_steps: usize,
    /// Stage-2 optimization steps (`N²_steps`; paper: `N¹_steps / 2`).
    pub stage2_steps: usize,
    /// Learning-rate schedule (paper: Adam from 0.1, annealed).
    pub lr: Schedule,
    /// Gumbel temperature schedule (paper: annealed, maximum 0.9).
    pub tau: Schedule,
    /// Surrogate spike derivative.
    pub surrogate: Surrogate,
    /// Stochastic (`true`, paper) or deterministic relaxation sampling.
    pub stochastic: bool,
    /// Initial input duration in ticks. `None` calibrates `T_in,min` by
    /// minimizing `L1` alone, as in Section V-C.
    pub t_in_min: Option<usize>,
    /// `TD_min = T_in / td_min_divisor` (paper: divisor 10).
    pub td_min_divisor: f32,
    /// Input-duration increment `β` in ticks (paper: 10 ms; doubles on
    /// every growth).
    pub beta: usize,
    /// Maximum duration growths per iteration before the chunk is accepted
    /// as-is.
    pub max_growths: usize,
    /// Wall-clock budget (`t_limit`; paper: 3 h).
    pub t_limit: Duration,
    /// Hard cap on outer iterations (safety net for tiny budgets).
    pub max_iterations: usize,
    /// Spike-count threshold for considering a neuron "activated" when
    /// updating `𝒩_A` (the paper uses `|O^{ℓi}| > 1`).
    pub activation_min_spikes: f32,
    /// Output-preservation weight `μ` in stage 2.
    pub mu: f32,
    /// Run stage 2 (hidden-activity pruning) — ablation toggle.
    pub use_stage2: bool,
    /// Include `L3` (temporal diversity) in stage 1 — ablation toggle.
    pub use_l3: bool,
    /// Include `L4` (contribution variance) in stage 1 — ablation toggle.
    pub use_l4: bool,
    /// Include the `L6` saturation-margin extension loss (off =
    /// paper-faithful; see `losses::l6_saturation_margin`).
    pub use_l6: bool,
}

impl TestGenConfig {
    /// Paper-faithful parameters (Section V-C). Intended for paper-scale
    /// runs; expect hours of wall clock.
    pub fn paper() -> Self {
        Self {
            stage1_steps: 2000,
            stage2_steps: 1000,
            lr: Schedule::Cosine { initial: 0.1, min: 0.005, period: 2000 },
            tau: Schedule::Cosine { initial: 0.9, min: 0.2, period: 2000 },
            surrogate: Surrogate::default(),
            stochastic: true,
            t_in_min: None,
            td_min_divisor: 10.0,
            beta: 10,
            max_growths: 4,
            t_limit: Duration::from_secs(3 * 3600),
            max_iterations: 64,
            activation_min_spikes: 2.0,
            mu: 4.0,
            use_stage2: true,
            use_l3: true,
            use_l4: true,
            use_l6: false,
        }
    }

    /// Scaled-down parameters for repro-scale benchmarks: same structure,
    /// two orders of magnitude fewer optimizer steps, and an iteration cap
    /// keeping the assembled test within the ~10-sample-lengths regime the
    /// paper reports.
    pub fn repro() -> Self {
        Self {
            stage1_steps: 250,
            stage2_steps: 125,
            lr: Schedule::Cosine { initial: 0.1, min: 0.01, period: 250 },
            tau: Schedule::Cosine { initial: 0.9, min: 0.3, period: 250 },
            t_limit: Duration::from_secs(900),
            max_iterations: 10,
            max_growths: 2,
            ..Self::paper()
        }
    }

    /// Minimal parameters for unit tests and doc examples (seconds).
    pub fn fast() -> Self {
        Self {
            stage1_steps: 60,
            stage2_steps: 30,
            lr: Schedule::Constant(0.08),
            tau: Schedule::Constant(0.7),
            t_in_min: Some(20),
            t_limit: Duration::from_secs(30),
            max_iterations: 4,
            max_growths: 1,
            activation_min_spikes: 1.0,
            ..Self::paper()
        }
    }

    /// The preset named `name`: `fast`, `repro` or `paper`.
    pub fn preset(name: &str) -> Result<Self, String> {
        match name {
            "fast" => Ok(Self::fast()),
            "repro" => Ok(Self::repro()),
            "paper" => Ok(Self::paper()),
            other => Err(format!("unknown preset {other:?} (expected fast, repro or paper)")),
        }
    }
}

/// Calibrates the minimum input duration `T_in,min`: the shortest duration
/// (growing from `start` by doubling) at which optimizing `L1` alone makes
/// every output neuron fire (Section V-C).
///
/// Returns the calibrated duration, capped at `max`.
pub fn calibrate_t_in_min(
    net: &Network,
    rng: &mut (impl Rng + Clone + Send),
    cfg: &TestGenConfig,
    start: usize,
    max: usize,
) -> usize {
    let stage_cfg = StageConfig {
        lr: cfg.lr,
        tau: cfg.tau,
        surrogate: cfg.surrogate,
        stochastic: cfg.stochastic,
        ..StageConfig::default()
    };
    let steps = (cfg.stage1_steps / 4).max(10);
    let mut t = start.max(1);
    loop {
        // Short L1-only optimization at duration t. L1 has no gradient
        // left exactly when every output neuron fired.
        let logits = init_logits(rng, t, net.input_features());
        let satisfied =
            Descent::new(net, &stage_cfg, logits, None).run(rng, steps, |trace, inj| {
                losses::l1_output_activation(net, trace, 1.0, inj);
                None
            });
        if satisfied || t >= max {
            return t.min(max);
        }
        t *= 2;
    }
}

/// The outer test-generation loop of the paper's Fig. 2.
///
/// Each iteration optimizes one input chunk against the still-unactivated
/// target set `𝒩_T = 𝒩 \ 𝒩_A` (stage 1), prunes its excess hidden
/// activity (stage 2), and grows the chunk duration by a doubling `β` if
/// no new neurons were activated. Generation ends at full activation, the
/// iteration cap, or the wall-clock limit.
#[derive(Debug)]
pub struct TestGenerator<'a> {
    net: &'a Network,
    cfg: TestGenConfig,
}

impl<'a> TestGenerator<'a> {
    /// Creates a generator over a trained network.
    pub fn new(net: &'a Network, cfg: TestGenConfig) -> Self {
        Self { net, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TestGenConfig {
        &self.cfg
    }

    /// Runs the full algorithm, producing the compact test stimulus.
    #[expect(
        clippy::expect_used,
        reason = "a fresh private token is never cancelled, so Err is unreachable"
    )]
    pub fn generate(&self, rng: &mut (impl Rng + Clone + Send)) -> GeneratedTest {
        self.generate_with(rng, &NullSink, &CancelToken::new())
            .expect("fresh token is never cancelled")
    }

    /// [`generate`](Self::generate) with progress streaming and cooperative
    /// cancellation: emits a [`Progress::Iteration`] event after every
    /// committed chunk and polls `cancel` at iteration and duration-growth
    /// boundaries, returning `Err(Cancelled)` once it trips (partial chunks
    /// are discarded).
    pub fn generate_with(
        &self,
        rng: &mut (impl Rng + Clone + Send),
        sink: &dyn ProgressSink,
        cancel: &CancelToken,
    ) -> Result<GeneratedTest, Cancelled> {
        // Wall-clock budget: elapsed time gates the iteration count, never
        // the stimulus values. Reads go through the snn-obs clock so the
        // only raw `Instant::now()` site in the workspace is its RealClock.
        let mut root_span = snn_obs::span!("generate");
        let started = snn_obs::clock::monotonic();
        let elapsed = || snn_obs::clock::monotonic().saturating_sub(started);
        let cfg = &self.cfg;
        let t_in_min = cfg.t_in_min.unwrap_or_else(|| {
            let _span = snn_obs::span!("generate.calibrate");
            calibrate_t_in_min(self.net, rng, cfg, 8, 512)
        });

        let layout = self.net.neuron_layout();
        // Per-layer activation bookkeeping (𝒩_A).
        let mut activated: Vec<Vec<bool>> = self
            .net
            .layers()
            .iter()
            .map(|l| if l.is_spiking() { vec![false; l.out_features()] } else { Vec::new() })
            .collect();
        let total_neurons: usize = layout.iter().map(|&(_, n)| n).sum();

        let mut chunks = Vec::new();
        let mut iterations = Vec::new();

        for iter in 0..cfg.max_iterations {
            cancel.check()?;
            let _iteration_span = snn_obs::span!("generate.iteration");
            let remaining = activated.iter().flatten().filter(|&&a| !a).count();
            if remaining == 0 || elapsed() >= cfg.t_limit {
                break;
            }

            // Target set 𝒩_T: everything not yet activated.
            let mask: TargetMask = activated
                .iter()
                .enumerate()
                .map(|(idx, m)| {
                    if self.net.layers()[idx].is_spiking() {
                        Some(m.iter().map(|&a| !a).collect())
                    } else {
                        None
                    }
                })
                .collect();

            let mut t_cur = t_in_min;
            let mut beta = cfg.beta;
            let mut growths = 0usize;
            let (outcome, newly) = loop {
                cancel.check()?;
                let stage_cfg = StageConfig {
                    steps: cfg.stage1_steps,
                    lr: cfg.lr,
                    tau: cfg.tau,
                    surrogate: cfg.surrogate,
                    stochastic: cfg.stochastic,
                    #[expect(
                        clippy::cast_precision_loss,
                        reason = "simulation durations stay far below f32's 2^24 exact-integer limit"
                    )]
                    td_min: (t_cur as f32 / cfg.td_min_divisor).max(1.0),
                    mu: cfg.mu,
                    use_l3: cfg.use_l3,
                    use_l4: cfg.use_l4,
                    use_l6: cfg.use_l6,
                    ..StageConfig::default()
                };
                let stage = Stage::new(self.net, stage_cfg.clone());
                let logits = init_logits(rng, t_cur, self.net.input_features());
                let s1 = stage.run_stage1(rng, logits, &mask);
                let s2 = if cfg.use_stage2 {
                    let stage2 =
                        Stage::new(self.net, StageConfig { steps: cfg.stage2_steps, ..stage_cfg });
                    stage2.run_stage2(rng, &s1)
                } else {
                    s1.clone()
                };

                let newly = self.count_new_activations(&s2, &activated);
                if newly > 0 || growths >= cfg.max_growths || elapsed() >= cfg.t_limit {
                    break ((s1, s2), newly);
                }
                // No progress: grow the duration (β doubles, Section V-C).
                t_cur += beta;
                beta *= 2;
                growths += 1;
            };
            let (s1, s2) = outcome;

            // Commit the chunk and update 𝒩_A from its activity.
            for (idx, masks) in
                s2.activation_masks(self.net, cfg.activation_min_spikes).into_iter().enumerate()
            {
                for (i, hit) in masks.into_iter().enumerate() {
                    if hit {
                        activated[idx][i] = true;
                    }
                }
            }
            iterations.push(IterationStats {
                steps: s2.best_input.shape().dim(0),
                stage1_loss: s1.best_loss,
                stage2_hidden_spikes: s2.best_loss,
                newly_activated: newly,
                growths,
            });
            let active_now = activated.iter().flat_map(|m| m.iter()).filter(|&&a| a).count();
            snn_obs::counter!("snn_testgen_iterations_total", "Committed outer-loop iterations.")
                .inc();
            snn_obs::counter!(
                "snn_testgen_growths_total",
                "Chunk duration growths (beta doublings)."
            )
            .add(growths as u64);
            #[expect(
                clippy::cast_precision_loss,
                reason = "neuron counts are far below 2^53, so they convert exactly"
            )]
            snn_obs::gauge!("snn_testgen_activated_neurons", "Neurons activated so far (N_A).")
                .set(active_now as f64);
            sink.emit(Progress::Iteration {
                iteration: iter,
                chunk_steps: s2.best_input.shape().dim(0),
                newly_activated: newly,
                activated: active_now,
                total_neurons,
                growths,
            });
            chunks.push(s2.best_input);

            // An iteration that made no progress even after max growths
            // will not make progress next time either — stop.
            if newly == 0 {
                break;
            }
        }

        // Flatten per-layer activation into global neuron order.
        let mut global = Vec::with_capacity(total_neurons);
        for &(layer, count) in &layout {
            global.extend_from_slice(&activated[layer][..count]);
        }
        debug_assert_eq!(global.len(), total_neurons);

        let mut test = GeneratedTest::from_chunks(chunks, self.net.input_features(), global);
        test.runtime = elapsed();
        test.iterations = iterations;
        root_span.attr("iterations", test.iterations.len());
        root_span.attr("test_steps", test.test_steps());
        Ok(test)
    }

    /// Neurons activated by `outcome` that are not yet in `activated`.
    fn count_new_activations(&self, outcome: &StageOutcome, activated: &[Vec<bool>]) -> usize {
        outcome
            .activation_masks(self.net, self.cfg.activation_min_spikes)
            .into_iter()
            .zip(activated.iter())
            .map(|(mask, old)| {
                mask.into_iter().zip(old.iter()).filter(|(new, &old)| *new && !old).count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::init_logits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder, RecordOptions};

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(12)
            .dense(4)
            .build(&mut rng)
    }

    #[test]
    fn generate_produces_nonempty_test_within_budget() {
        let net = net(1);
        let mut rng = StdRng::seed_from_u64(2);
        let test = TestGenerator::new(&net, TestGenConfig::fast()).generate(&mut rng);
        assert!(!test.chunks.is_empty());
        assert!(test.runtime <= Duration::from_secs(60));
        assert_eq!(test.activated.len(), net.neuron_count());
        assert!(test.activated_count() > 0, "test should activate neurons");
        assert_eq!(test.iterations.len(), test.chunks.len());
    }

    #[test]
    fn activation_grows_monotonically_over_iterations() {
        let net = net(3);
        let mut rng = StdRng::seed_from_u64(4);
        let test = TestGenerator::new(&net, TestGenConfig::fast()).generate(&mut rng);
        // every committed iteration after the first must have added
        // neurons, except possibly the final stalled one
        for (i, it) in test.iterations.iter().enumerate() {
            if i + 1 < test.iterations.len() {
                assert!(it.newly_activated > 0, "iteration {i} made no progress");
            }
        }
    }

    #[test]
    fn optimized_test_beats_random_input_on_activation() {
        let net = net(5);
        let mut rng = StdRng::seed_from_u64(6);
        let test = TestGenerator::new(&net, TestGenConfig::fast()).generate(&mut rng);

        // A random stimulus of the same total duration.
        let steps = test.test_steps();
        let random = snn_tensor::init::bernoulli(&mut rng, snn_tensor::Shape::d2(steps, 6), 0.5);
        let trace = net.forward(&random, RecordOptions::spikes_only());
        let random_active: usize = (0..2)
            .map(|i| trace.layers[i].spike_counts().iter().filter(|&&c| c >= 1.0).count())
            .sum();
        assert!(
            test.activated_count() >= random_active,
            "optimized {} < random {random_active}",
            test.activated_count()
        );
    }

    #[test]
    fn iteration_cap_is_respected() {
        let net = net(7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut cfg = TestGenConfig::fast();
        cfg.max_iterations = 2;
        let test = TestGenerator::new(&net, cfg).generate(&mut rng);
        assert!(test.iterations.len() <= 2);
    }

    #[test]
    fn calibration_returns_duration_within_bounds() {
        let net = net(9);
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = TestGenConfig::fast();
        let t = calibrate_t_in_min(&net, &mut rng, &cfg, 4, 64);
        assert!((4..=64).contains(&t));
    }

    /// The calibration stops at the first step whose L1 has no gradient,
    /// while the helper thread has drawn noise for steps beyond it: the
    /// generator must still end where drawing only the noise of the steps
    /// that ran would have left it.
    #[test]
    fn an_early_stop_leaves_the_generator_where_drawing_in_line_would() {
        let net = net(7);
        let cfg = TestGenConfig::fast();
        let (t, steps) = (8, (cfg.stage1_steps / 4).max(10));
        let start = StdRng::seed_from_u64(10);
        let mut rng = start.clone();
        assert_eq!(calibrate_t_in_min(&net, &mut rng, &cfg, t, t), t);
        let next = rng.gen::<u64>();
        // The next draw after the logits and `steps_run` steps of noise.
        let in_line = |steps_run: usize| {
            let mut rng = start.clone();
            let _ = init_logits(&mut rng, t, net.input_features());
            for _ in 0..steps_run * t * net.input_features() {
                let _: f32 = rng.gen_range(f32::EPSILON..(1.0 - f32::EPSILON));
            }
            rng.gen::<u64>()
        };
        // L1 is satisfied at the fourth of fifteen steps on this net, and
        // the generator is where four steps of noise leave it.
        let steps_run: Vec<usize> = (1..=steps).filter(|&s| in_line(s) == next).collect();
        assert_eq!(steps_run, [4]);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a test sink collecting events")]
    fn generate_with_streams_one_event_per_iteration() {
        let net = net(1);
        let mut rng = StdRng::seed_from_u64(2);
        let events = std::sync::Mutex::new(Vec::new());
        let sink = |e: Progress| events.lock().unwrap().push(e);
        let test = TestGenerator::new(&net, TestGenConfig::fast())
            .generate_with(&mut rng, &sink, &CancelToken::new())
            .unwrap();
        let events = events.into_inner().unwrap();
        assert_eq!(events.len(), test.iterations.len());
        let mut prev_active = 0usize;
        for (i, e) in events.iter().enumerate() {
            let Progress::Iteration { iteration, activated, total_neurons, .. } = e else {
                panic!("unexpected event {e:?}");
            };
            assert_eq!(*iteration, i);
            assert_eq!(*total_neurons, net.neuron_count());
            assert!(*activated >= prev_active, "activation shrank");
            prev_active = *activated;
        }
        assert_eq!(prev_active, test.activated_count());
    }

    #[test]
    fn pre_cancelled_generation_returns_cancelled() {
        let net = net(1);
        let mut rng = StdRng::seed_from_u64(2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = TestGenerator::new(&net, TestGenConfig::fast())
            .generate_with(&mut rng, &NullSink, &cancel);
        assert_eq!(out.unwrap_err(), Cancelled);
    }

    #[test]
    fn cancellation_mid_generation_stops_at_iteration_boundary() {
        let net = net(3);
        let mut rng = StdRng::seed_from_u64(4);
        let cancel = CancelToken::new();
        // Cancel from inside the sink after the first committed iteration.
        let sink = |_e: Progress| cancel.cancel();
        let out =
            TestGenerator::new(&net, TestGenConfig::fast()).generate_with(&mut rng, &sink, &cancel);
        assert_eq!(out.unwrap_err(), Cancelled);
    }

    #[test]
    fn presets_are_named_and_an_unknown_name_lists_them() {
        assert_eq!(TestGenConfig::preset("fast"), Ok(TestGenConfig::fast()));
        assert_eq!(TestGenConfig::preset("repro"), Ok(TestGenConfig::repro()));
        assert_eq!(TestGenConfig::preset("paper"), Ok(TestGenConfig::paper()));
        assert_eq!(
            TestGenConfig::preset("x"),
            Err(r#"unknown preset "x" (expected fast, repro or paper)"#.to_string())
        );
    }

    #[test]
    fn time_limit_short_circuits() {
        let net = net(11);
        let mut rng = StdRng::seed_from_u64(12);
        let mut cfg = TestGenConfig::fast();
        cfg.t_limit = Duration::ZERO;
        let test = TestGenerator::new(&net, cfg).generate(&mut rng);
        assert!(test.chunks.is_empty());
    }
}
