use crate::engine::{resolve_engine, Engine};
use crate::inject::InjectionError;
use crate::packed::{self, plan::FaultPlan};
use crate::progress::{CancelToken, Cancelled, NullSink, Progress, ProgressSink};
use crate::{parallel, Fault, FaultUniverse, Injection};
use serde::{Deserialize, Serialize};
use snn_model::{Network, NeuronFaultMap, RecordOptions, Trace};
use snn_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Configuration of a fault-simulation campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSimConfig {
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Record the per-class output spike-count difference of each detected
    /// fault (needed to regenerate the paper's Fig. 9; costs memory).
    pub record_class_diffs: bool,
    /// Requested execution engine (`None` = [`Engine::Auto`]), resolved by
    /// [`FaultSimulator::detect_with`]. Carried in the config so job and
    /// campaign wire types transport it unchanged.
    pub engine: Option<Engine>,
}

/// Detection outcome for one fault, aggregated over all test inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// Id of the fault in its universe.
    pub fault_id: usize,
    /// `true` if any test input changed the output spike trains (Eq. 3).
    pub detected: bool,
    /// Largest L1 output-spike-train distance over the test inputs.
    pub distance: f32,
    /// Signed per-class spike-count difference (faulty − fault-free) of
    /// the test input realizing `distance`, when recording was requested.
    pub class_diff: Option<Vec<f32>>,
}

/// Result of a detection campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Per-fault outcomes, in the order the faults were supplied.
    pub per_fault: Vec<FaultOutcome>,
    /// Wall-clock duration of the campaign.
    pub elapsed: Duration,
}

impl CampaignOutcome {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.per_fault.iter().filter(|o| o.detected).count()
    }

    /// Fault coverage over the supplied fault list (Eq. 4).
    #[expect(
        clippy::cast_precision_loss,
        reason = "fault counts are far below 2^53, so they convert exactly"
    )]
    pub fn fault_coverage(&self) -> f64 {
        if self.per_fault.is_empty() {
            return 0.0;
        }
        self.detected_count() as f64 / self.per_fault.len() as f64
    }
}

/// Error from a [`FaultSimulator::detect_with`] campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignError {
    /// The cancel token tripped before the campaign finished.
    Cancelled,
    /// A supplied fault was ill-formed (site/kind mismatch).
    Injection(InjectionError),
}

impl From<Cancelled> for CampaignError {
    fn from(_: Cancelled) -> Self {
        Self::Cancelled
    }
}

impl From<InjectionError> for CampaignError {
    fn from(e: InjectionError) -> Self {
        Self::Injection(e)
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Cancelled => f.write_str("fault campaign cancelled"),
            Self::Injection(e) => write!(f, "ill-formed fault: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Injection(e) => Some(e),
            Self::Cancelled => None,
        }
    }
}

/// Bumps the campaign-wide simulated-faults counter. The one registration
/// site for this metric: both engines route through here so the kind/help
/// text can never diverge between them.
pub(crate) fn record_faults_simulated(n: u64) {
    snn_obs::counter!("snn_faultsim_faults_simulated_total", "Faults simulated across campaigns.")
        .add(n);
}

/// Bumps the campaign-wide detected-faults counter (single registration
/// site, shared by both engines — see [`record_faults_simulated`]).
pub(crate) fn record_faults_detected(n: u64) {
    snn_obs::counter!("snn_faultsim_faults_detected_total", "Faults detected across campaigns.")
        .add(n);
}

/// One campaign as an engine sees it: the network, the realized faults
/// and the test inputs, plus where progress goes and what stops it.
#[derive(Clone, Copy)]
pub(crate) struct Campaign<'a> {
    pub net: &'a Network,
    pub cfg: FaultSimConfig,
    pub faults: &'a [Fault],
    /// `injections[i]` realizes `faults[i]`.
    pub injections: &'a [Injection],
    pub tests: &'a [Tensor],
    pub sink: &'a dyn ProgressSink,
    pub cancel: &'a CancelToken,
}

/// Fault simulator over a fixed fault-free network: the one entry point of
/// a detection campaign, whichever [`Engine`] runs it.
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct FaultSimulator<'a> {
    net: &'a Network,
    cfg: FaultSimConfig,
}

impl<'a> FaultSimulator<'a> {
    /// Creates a simulator for `net`.
    pub fn new(net: &'a Network, cfg: FaultSimConfig) -> Self {
        Self { net, cfg }
    }

    /// How the packed engine would split `faults` at this simulator's
    /// thread count — what `verify` prints and tests assert run shapes on.
    pub fn plan(&self, faults: &[Fault]) -> FaultPlan {
        let threads = parallel::effective_threads(self.cfg.threads);
        packed::plan::plan(self.net, faults, threads, &mut snn_obs::phase::LocalPhases::new())
    }

    /// Runs the detection campaign of Eq. (3): each fault is applied in
    /// turn and simulated against every test input.
    ///
    /// `universe` supplies the fault magnitudes; `faults` may be the whole
    /// universe or any subset (e.g. a statistical sample); `tests` are
    /// `[T × input_features]` spike tensors.
    ///
    /// # Panics
    ///
    /// Panics if `tests` is empty or a fault's site/kind disagree (use
    /// [`detect_with`](Self::detect_with) to surface the latter as a typed
    /// [`CampaignError`] instead).
    #[expect(
        clippy::panic,
        reason = "documented panicking wrapper — detect_with is the fallible API"
    )]
    pub fn detect(
        &self,
        universe: &FaultUniverse,
        faults: &[Fault],
        tests: &[Tensor],
    ) -> CampaignOutcome {
        self.detect_with(universe, faults, tests, &NullSink, &CancelToken::new())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`detect`](Self::detect) with progress streaming and cooperative
    /// cancellation, and the campaign's one dispatch site: the engine is
    /// `cfg.engine` resolved by [`resolve_engine`], and the outcome is
    /// bit-identical whichever runs. Emits a [`Progress::FaultsSimulated`]
    /// tally after each simulated fault (scalar) or pack (packed) and
    /// polls `cancel` in between, returning [`CampaignError::Cancelled`]
    /// once it trips. Ill-formed faults are reported as
    /// [`CampaignError::Injection`] before any simulation runs.
    ///
    /// # Panics
    ///
    /// Panics if `tests` is empty.
    pub fn detect_with(
        &self,
        universe: &FaultUniverse,
        faults: &[Fault],
        tests: &[Tensor],
        sink: &dyn ProgressSink,
        cancel: &CancelToken,
    ) -> Result<CampaignOutcome, CampaignError> {
        assert!(!tests.is_empty(), "detection campaign needs at least one test input");
        // Wall-clock is reporting telemetry only — it never influences
        // detection results. Reads go through the snn-obs clock.
        let mut campaign_span = snn_obs::span!("faultsim.campaign");
        campaign_span.attr("faults", faults.len());
        let start = snn_obs::clock::monotonic();
        // Kernel-phase accounting: the engines record into the
        // process-wide accumulator; the campaign publishes its delta as
        // synthetic `phase.*` spans when tracing is on. (The accumulator
        // is shared, so campaigns running concurrently in one process
        // blend into each other's delta — dedicated worker processes and
        // single-campaign CLI runs, the cases that ship traces, run one
        // campaign at a time.)
        let phases = snn_obs::phase::faultsim();
        let phases_before = phases.snapshot();
        // Realize every fault up front so ill-formed ones are rejected
        // before any simulation work starts.
        let injections: Vec<Injection> = faults
            .iter()
            .map(|f| Injection::for_fault(self.net, universe, f))
            .collect::<Result<_, InjectionError>>()?;
        let campaign = Campaign {
            net: self.net,
            cfg: self.cfg,
            faults,
            injections: &injections,
            tests,
            sink,
            cancel,
        };
        let per_fault = match resolve_engine(self.net, self.cfg.engine) {
            Engine::Scalar => detect_reference(&campaign)?,
            _ => packed::detect(&campaign)?,
        };

        let elapsed = snn_obs::clock::monotonic().saturating_sub(start);
        if let Some(parent) = campaign_span.id() {
            let delta = phases.snapshot().delta_since(&phases_before);
            snn_obs::phase::emit_spans(&delta, Some(parent));
        }
        let outcome = CampaignOutcome { per_fault, elapsed };
        campaign_span.attr("detected", outcome.detected_count());
        Ok(outcome)
    }
}

/// [`FaultSimulator::detect_with`] as a free function. Kept because the
/// repository benchmark (`benchmark/`) links it by this name and signature.
pub fn engine_detect(
    net: &Network,
    cfg: FaultSimConfig,
    universe: &FaultUniverse,
    faults: &[Fault],
    tests: &[Tensor],
    sink: &dyn ProgressSink,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, CampaignError> {
    FaultSimulator::new(net, cfg).detect_with(universe, faults, tests, sink, cancel)
}

/// The scalar engine — the reference: one fault at a time, each test
/// input re-simulated from the fault's layer on and compared with the
/// fault-free output, one progress event per fault.
pub(crate) fn detect_reference(c: &Campaign<'_>) -> Result<Vec<FaultOutcome>, Cancelled> {
    use snn_obs::clock::monotonic;
    use snn_obs::phase::Phase;

    let Campaign { net, cfg, faults, tests, .. } = *c;
    let phases = snn_obs::phase::faultsim();
    let baseline_span = snn_obs::span!("faultsim.baseline");
    let baselines: Vec<Trace> =
        tests.iter().map(|t| net.forward(t, RecordOptions::spikes_only())).collect();
    let baseline_counts: Vec<Vec<f32>> = baselines.iter().map(Trace::class_counts).collect();
    drop(baseline_span);

    let done = AtomicUsize::new(0);
    let detected_total = AtomicUsize::new(0);
    parallel::try_map_indexed(
        faults.len(),
        cfg.threads,
        c.cancel,
        || net.clone(),
        |worker, i| {
            let fault_started = monotonic();
            let mut local = snn_obs::phase::LocalPhases::new();
            let mut detected = false;
            let mut best_distance = 0.0f32;
            let mut best_diff: Option<Vec<f32>> = None;
            for (k, (input, baseline)) in tests.iter().zip(baselines.iter()).enumerate() {
                let faulty = faulty_output(worker, baseline, input, &c.injections[i], &mut local);
                let compare_started = monotonic();
                let distance = faulty.output_distance(baseline);
                if distance > 0.0 {
                    detected = true;
                    if distance > best_distance {
                        best_distance = distance;
                        if cfg.record_class_diffs {
                            let counts = faulty.class_counts();
                            let bc = &baseline_counts[k];
                            best_diff =
                                Some(counts.iter().zip(bc.iter()).map(|(f, b)| f - b).collect());
                        }
                    }
                }
                local.add(Phase::Compare, monotonic().saturating_sub(compare_started));
            }
            if detected {
                detected_total.fetch_add(1, Ordering::Relaxed);
                record_faults_detected(1);
            }
            record_faults_simulated(1);
            let fault_elapsed = monotonic().saturating_sub(fault_started);
            local.add(Phase::Fault, fault_elapsed);
            snn_obs::histogram!(
                "snn_faultsim_fault_seconds",
                "Per-fault simulation time.",
                snn_obs::metrics::FINE_DURATION_BUCKETS
            )
            .observe_duration(fault_elapsed);
            snn_obs::histogram!(
                "snn_faultsim_phase_inject_seconds",
                "Per-fault time applying and restoring the fault patch.",
                snn_obs::metrics::FINE_DURATION_BUCKETS
            )
            .observe_duration(local.total(Phase::Inject));
            snn_obs::histogram!(
                "snn_faultsim_phase_forward_seconds",
                "Per-fault forward-simulation time summed over layers.",
                snn_obs::metrics::FINE_DURATION_BUCKETS
            )
            .observe_duration(local.forward_total());
            snn_obs::histogram!(
                "snn_faultsim_phase_compare_seconds",
                "Per-fault baseline-comparison and verdict time.",
                snn_obs::metrics::FINE_DURATION_BUCKETS
            )
            .observe_duration(local.total(Phase::Compare));
            phases.merge(&local);
            c.sink.emit(Progress::FaultsSimulated {
                done: done.fetch_add(1, Ordering::Relaxed) + 1,
                total: faults.len(),
                detected: detected_total.load(Ordering::Relaxed),
            });
            FaultOutcome {
                fault_id: faults[i].id,
                detected,
                distance: best_distance,
                class_diff: best_diff,
            }
        },
    )
}

/// Simulates `injection` against one test input and returns the faulty
/// run's trace **from the fault's layer on** (its
/// [`output`](Trace::output) is the faulty final-layer spike trains).
///
/// A fault confined to layer `ℓ` cannot change the activity of layers
/// before `ℓ`, so the run starts at `ℓ` on the fault-free activity of the
/// layer before it and goes to the end of the network.
fn faulty_output(
    worker: &mut Network,
    baseline: &Trace,
    input: &Tensor,
    injection: &Injection,
    local: &mut snn_obs::phase::LocalPhases,
) -> Trace {
    let start = injection.start_layer();
    let stage = if start == 0 { input } else { &baseline.layers[start - 1].output };
    let layers = with_fault(worker, injection, local, |net, map| {
        net.forward_from(start, stage, RecordOptions::spikes_only(), map)
    });
    Trace { steps: baseline.steps, layers }
}

/// Runs `simulate` on `worker` under `injection`: weight faults patch the
/// weight tensor of this scratch clone of the fault-free network for the
/// duration of the call (always restored before returning), neuron faults
/// ride on the override map handed to `simulate`. `local` accrues the
/// kernel-phase time: patch apply/restore under `inject`, the whole of
/// `simulate` under the `forward` slot of the fault's layer.
fn with_fault<R>(
    worker: &mut Network,
    injection: &Injection,
    local: &mut snn_obs::phase::LocalPhases,
    simulate: impl FnOnce(&Network, &NeuronFaultMap) -> R,
) -> R {
    use snn_obs::clock::monotonic;
    use snn_obs::phase::Phase;

    let inject_started = monotonic();
    let (fault_map, restore) = match injection {
        Injection::Weight { at, value } => {
            let old = worker.set_weight(*at, *value);
            (NeuronFaultMap::new(), Some((*at, old)))
        }
        Injection::Neuron(map) => (map.clone(), None),
    };
    let forward_started = monotonic();
    local.add(Phase::Inject, forward_started.saturating_sub(inject_started));

    let simulated = simulate(worker, &fault_map);
    let restore_started = monotonic();
    local.add_forward(injection.start_layer(), restore_started.saturating_sub(forward_started));

    if let Some((at, old)) = restore {
        worker.set_weight(at, old);
        local.add(Phase::Inject, monotonic().saturating_sub(restore_started));
    }
    simulated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultSite};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder};
    use snn_tensor::Shape;

    fn setup() -> (Network, FaultUniverse, Tensor) {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(6, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(10)
            .dense(4)
            .build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 6), 0.5);
        (net, u, test)
    }

    #[test]
    fn saturated_output_neuron_is_always_detected() {
        let (net, u, test) = setup();
        // Output-layer saturated neuron changes O^L by construction
        // (unless it already fires every tick, which it does not here).
        let fault = u
            .faults()
            .iter()
            .find(|f| {
                f.kind == FaultKind::NeuronSaturated
                    && matches!(f.site, FaultSite::Neuron { layer: 1, .. })
            })
            .unwrap();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let out = sim.detect(&u, std::slice::from_ref(fault), std::slice::from_ref(&test));
        assert!(out.per_fault[0].detected);
        assert!(out.per_fault[0].distance > 0.0);
    }

    /// Starting a faulty run at the fault's layer, on the fault-free
    /// activity of the layer before it, is the whole-network faulty
    /// forward pass — for every fault of the toy universe.
    #[test]
    fn suffix_run_from_the_fault_layer_is_the_whole_faulty_forward() {
        let (net, u, test) = setup();
        let baseline = net.forward(&test, RecordOptions::spikes_only());
        let mut worker = net.clone();
        let mut local = snn_obs::phase::LocalPhases::new();
        for fault in u.faults() {
            let injection = Injection::for_fault(&net, &u, fault).unwrap();
            let suffix = faulty_output(&mut worker, &baseline, &test, &injection, &mut local);
            assert_eq!(worker, net, "fault {}: the worker is restored", fault.id);
            let mut faulty_net = net.clone();
            let map = match &injection {
                Injection::Weight { at, value } => {
                    faulty_net.set_weight(*at, *value);
                    NeuronFaultMap::new()
                }
                Injection::Neuron(map) => map.clone(),
            };
            let whole = faulty_net.forward_faulty(&test, RecordOptions::spikes_only(), &map);
            assert_eq!(suffix.output(), whole.output(), "fault {}", fault.id);
        }
    }

    /// `cfg.engine` is what runs: one progress event per run under the
    /// packed engine, one per fault under the scalar one, the same
    /// outcomes, and `None` is the packed engine on a dense network.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "a test sink counting events")]
    fn detect_with_dispatches_on_the_configured_engine() {
        let (net, u, test) = setup();
        assert!(u.len() >= 200);
        let run = |engine| {
            let cfg = FaultSimConfig { threads: 1, engine, ..FaultSimConfig::default() };
            let sim = FaultSimulator::new(&net, cfg);
            let events = parking_lot::Mutex::new(0usize);
            let sink = |_: Progress| *events.lock() += 1;
            let out = sim
                .detect_with(
                    &u,
                    u.faults(),
                    std::slice::from_ref(&test),
                    &sink,
                    &CancelToken::new(),
                )
                .unwrap();
            (out.per_fault, events.into_inner(), sim.plan(u.faults()).run_count())
        };
        let (scalar, scalar_events, runs) = run(Some(Engine::Scalar));
        let (packed, packed_events, _) = run(Some(Engine::Packed));
        let (auto, auto_events, _) = run(None);
        assert!(runs < u.len());
        assert_eq!((scalar_events, packed_events, auto_events), (u.len(), runs, runs));
        assert_eq!(scalar, packed);
        assert_eq!(packed, auto);
    }

    #[test]
    fn zero_input_detects_saturated_but_not_dead() {
        let (net, u, _) = setup();
        let zero = Tensor::zeros(Shape::d2(20, 6));
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let out = sim.detect(&u, u.faults(), std::slice::from_ref(&zero));
        for (f, o) in u.faults().iter().zip(out.per_fault.iter()) {
            match f.kind {
                // With zero input nothing fires, so a dead neuron or dead
                // synapse is invisible…
                FaultKind::NeuronDead | FaultKind::SynapseDead => {
                    assert!(!o.detected, "fault {} should escape on zero input", f.id)
                }
                // …but saturated neurons self-activate. In the output
                // layer that directly corrupts O^L; a hidden saturated
                // neuron may still be masked by weak outgoing synapses.
                FaultKind::NeuronSaturated => {
                    if matches!(f.site, FaultSite::Neuron { layer: 1, .. }) {
                        assert!(o.detected, "fault {} should be caught on zero input", f.id)
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn multiple_inputs_only_improve_coverage() {
        let (net, u, test) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let test2 = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 6), 0.3);
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let one = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        let two = sim.detect(&u, u.faults(), &[test.clone(), test2]);
        assert!(two.detected_count() >= one.detected_count());
        for (a, b) in one.per_fault.iter().zip(two.per_fault.iter()) {
            if a.detected {
                assert!(b.detected, "adding inputs must not lose detections");
            }
        }
    }

    #[test]
    fn class_diff_recording_matches_distance() {
        let (net, u, test) = setup();
        let sim = FaultSimulator::new(
            &net,
            FaultSimConfig { record_class_diffs: true, ..FaultSimConfig::default() },
        );
        let out = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        for o in &out.per_fault {
            if o.detected {
                let diff = o.class_diff.as_ref().expect("recorded for detected faults");
                assert_eq!(diff.len(), net.output_features());
                // |Σ per-class count diff| cannot exceed the L1 spike-train
                // distance.
                let total: f32 = diff.iter().map(|d| d.abs()).sum();
                assert!(total <= o.distance + 1e-4);
            } else {
                assert!(o.class_diff.is_none());
            }
        }
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "asserting the exact 0.0 sentinel")]
    fn empty_campaign_coverage_is_zero_not_nan() {
        let out = CampaignOutcome { per_fault: Vec::new(), elapsed: Duration::ZERO };
        assert_eq!(out.fault_coverage(), 0.0);
        assert_eq!(out.detected_count(), 0);
    }

    #[test]
    fn coverage_accounting() {
        let (net, u, test) = setup();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let out = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        let fc = out.fault_coverage();
        assert!((0.0..=1.0).contains(&fc));
        assert_eq!(out.detected_count(), out.per_fault.iter().filter(|o| o.detected).count());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a test sink counting events")]
    fn detect_with_streams_progress_and_matches_detect() {
        let (net, u, test) = setup();
        let cfg = FaultSimConfig { threads: 2, engine: Some(Engine::Scalar), ..Default::default() };
        let sim = FaultSimulator::new(&net, cfg);
        let events = parking_lot::Mutex::new(Vec::new());
        let sink = |e: Progress| events.lock().push(e);
        let streamed = sim
            .detect_with(&u, u.faults(), std::slice::from_ref(&test), &sink, &CancelToken::new())
            .unwrap();
        let plain = sim.detect(&u, u.faults(), std::slice::from_ref(&test));
        assert_eq!(streamed.per_fault, plain.per_fault);

        let events = events.into_inner();
        assert_eq!(events.len(), u.len(), "one event per simulated fault");
        let last_detected = events
            .iter()
            .filter_map(|e| match e {
                Progress::FaultsSimulated { done, total, detected } => {
                    assert_eq!(*total, u.len());
                    (*done == u.len()).then_some(*detected)
                }
                _ => None,
            })
            .next()
            .expect("final tally event present");
        assert_eq!(last_detected, plain.detected_count());
    }

    #[test]
    fn detect_with_honours_cancellation() {
        let (net, u, test) = setup();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = sim.detect_with(&u, u.faults(), std::slice::from_ref(&test), &NullSink, &cancel);
        assert_eq!(out.unwrap_err(), CampaignError::Cancelled);
    }

    #[test]
    fn detect_with_rejects_ill_formed_faults_before_simulating() {
        let (net, u, test) = setup();
        let bad = Fault {
            id: 0,
            site: FaultSite::Neuron { layer: 0, index: 0 },
            kind: FaultKind::SynapseDead,
        };
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let out = sim.detect_with(
            &u,
            &[bad],
            std::slice::from_ref(&test),
            &NullSink,
            &CancelToken::new(),
        );
        assert!(matches!(out, Err(CampaignError::Injection(_))));
    }

    #[test]
    #[should_panic(expected = "at least one test input")]
    fn detect_requires_inputs() {
        let (net, u, _) = setup();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let _ = sim.detect(&u, u.faults(), &[]);
    }
}
