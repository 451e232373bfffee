//! Structural fault collapsing.
//!
//! Partitions a [`FaultUniverse`] into *representatives* (faults that
//! must be simulated) and *collapsed* faults whose campaign outcome is
//! decided statically, each carrying a machine-checkable
//! [`CollapseReason`] that [`CollapsedUniverse::self_check`] re-derives
//! from scratch. Every rule is an *exact* program-equivalence argument
//! about the f32 simulator — see DESIGN.md §10 for the soundness proof
//! of each rule; the one-line versions:
//!
//! * [`CollapseReason::IdenticalWeight`] — the injected value bit-equals
//!   the stored weight (`±0.0` counts: zero signs never change spike
//!   outputs), so the faulty network *is* the fault-free network.
//! * [`CollapseReason::SilentSource`] — the synapse's source feature is
//!   provably silent, so the weight is multiplied by 0 on every tick in
//!   both networks.
//! * [`CollapseReason::DeadTarget`] — the target neuron (conv: the whole
//!   out-channel) is provably dead and remains provably dead with the
//!   injected value substituted into its drive bound; a neuron that
//!   never fires in either network contributes identically (nothing)
//!   downstream.
//! * [`CollapseReason::DeadNeuron`] / [`CollapseReason::TimingOnDead`] —
//!   forcing a provably-dead neuron dead, or perturbing its parameters
//!   such that it provably stays dead, is a no-op.
//! * [`CollapseReason::AliasOf`] — same synapse, same injected value as
//!   an earlier representative: the two faulty networks are identical,
//!   so the outcome is copied.
//! * [`CollapseReason::SaturatedOutput`] — a saturated neuron in a
//!   spiking *final* layer fires every tick, while its healthy self has
//!   `refrac_steps ≥ 1` and therefore cannot; any test of ≥ 2 ticks
//!   distinguishes them at the (unmasked) output, so the fault is
//!   provably detected.

use crate::interval::{provably_dead, IntervalAnalysis};
use snn_faults::{
    CampaignError, CampaignOutcome, CancelToken, Fault, FaultKind, FaultOutcome, FaultSimConfig,
    FaultSimulator, FaultSite, FaultUniverse, Injection, ProgressSink,
};
use snn_model::{Layer, LifParams, Network, WeightRef};
use snn_tensor::Tensor;
use std::collections::HashMap;

/// Bit-exact f32 equality. The collapse rules reason about the exact
/// values the simulator will load; an epsilon comparison would be
/// *unsound* here (two almost-equal weights can produce different spike
/// trains), so this is the rare place where `==` on floats is correct.
#[allow(clippy::float_cmp)]
fn f32_eq(a: f32, b: f32) -> bool {
    a == b
}

/// The upstream feature a synaptic weight reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceRef {
    /// Input feature `feature` of layer `layer` (dense column /
    /// recurrent `w_in` column).
    InFeature {
        /// Layer owning the synapse.
        layer: usize,
        /// Feature index in that layer's input.
        feature: usize,
    },
    /// A whole input channel of a conv layer (one kernel weight touches
    /// every spatial position of the channel).
    InChannel {
        /// Layer owning the synapse.
        layer: usize,
        /// Input channel index.
        channel: usize,
    },
    /// Same-layer recurrent source unit (`w_rec` column).
    RecUnit {
        /// Layer owning the synapse.
        layer: usize,
        /// Source unit index.
        unit: usize,
    },
}

/// The neuron(s) a synaptic weight drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetRef {
    /// A single neuron (dense row / recurrent row).
    Neuron {
        /// Layer owning the synapse.
        layer: usize,
        /// Neuron index within the layer.
        index: usize,
    },
    /// A whole conv out-channel (one kernel weight drives every spatial
    /// position of the channel).
    Channel {
        /// Layer owning the synapse.
        layer: usize,
        /// Output channel index.
        channel: usize,
    },
}

/// Machine-checkable justification for one collapsed fault. Every
/// numeric field is re-derived by [`CollapsedUniverse::self_check`].
#[derive(Debug, Clone, PartialEq)]
pub enum CollapseReason {
    /// Injected value bit-equals the stored weight → ≡ fault-free.
    IdenticalWeight {
        /// The synapse.
        at: WeightRef,
        /// Stored weight (== injected value).
        weight: f32,
    },
    /// Source feature is provably silent → ≡ fault-free.
    SilentSource {
        /// The synapse.
        at: WeightRef,
        /// The silent source.
        source: SourceRef,
    },
    /// Target provably dead before and after substituting the injected
    /// value into its drive bound → ≡ fault-free.
    DeadTarget {
        /// The synapse.
        at: WeightRef,
        /// The dead target.
        target: TargetRef,
        /// Injected weight value.
        injected: f32,
        /// Drive bound of the target with `injected` substituted.
        z_max_faulty: f64,
    },
    /// `NeuronDead` on a provably-dead neuron → ≡ fault-free.
    DeadNeuron {
        /// Layer of the neuron.
        layer: usize,
        /// Neuron index within the layer.
        index: usize,
    },
    /// `NeuronTiming` on a provably-dead neuron that stays provably dead
    /// under the perturbed effective parameters → ≡ fault-free.
    TimingOnDead {
        /// Layer of the neuron.
        layer: usize,
        /// Neuron index within the layer.
        index: usize,
        /// The neuron's drive bound (unchanged by a timing fault).
        z_max: f64,
        /// Effective threshold after the fault's scaling and clamping.
        threshold_scaled: f32,
        /// Effective leak after the fault's scaling and clamping.
        leak_scaled: f32,
    },
    /// Same synapse and same injected value as representative fault
    /// `representative` → identical faulty network, outcome copied.
    AliasOf {
        /// Fault id of the representative.
        representative: usize,
        /// The shared synapse.
        at: WeightRef,
        /// The shared injected value.
        injected: f32,
    },
    /// `NeuronSaturated` on a spiking final-layer neuron with healthy
    /// `refrac_steps ≥ 1` → provably detected by any test of ≥ 2 ticks.
    SaturatedOutput {
        /// Final layer index.
        layer: usize,
        /// Neuron index within the layer.
        index: usize,
        /// Healthy refractory period (≥ 1).
        refrac_steps: u32,
    },
}

impl CollapseReason {
    /// `true` when the collapsed fault is equivalent to the fault-free
    /// network (undetectable); `false` for outcome-copying /
    /// provably-detected reasons.
    pub fn equivalent_to_fault_free(&self) -> bool {
        !matches!(self, CollapseReason::AliasOf { .. } | CollapseReason::SaturatedOutput { .. })
    }

    /// Short rule id for reports (stable, kebab-free uppercase).
    pub fn rule(&self) -> &'static str {
        match self {
            CollapseReason::IdenticalWeight { .. } => "identical-weight",
            CollapseReason::SilentSource { .. } => "silent-source",
            CollapseReason::DeadTarget { .. } => "dead-target",
            CollapseReason::DeadNeuron { .. } => "dead-neuron",
            CollapseReason::TimingOnDead { .. } => "timing-on-dead",
            CollapseReason::AliasOf { .. } => "alias",
            CollapseReason::SaturatedOutput { .. } => "saturated-output",
        }
    }
}

/// One collapsed fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Collapse {
    /// Id of the collapsed fault in its universe.
    pub fault_id: usize,
    /// Why its outcome is statically known.
    pub reason: CollapseReason,
}

/// Errors mapping representative outcomes back to the full universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// A representative's outcome is missing from the supplied slice.
    MissingRepresentative {
        /// The fault id without an outcome.
        fault_id: usize,
    },
    /// A `SaturatedOutput` collapse requires tests of at least 2 ticks.
    TestTooShort {
        /// The offending test length.
        steps: usize,
    },
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpandError::MissingRepresentative { fault_id } => {
                write!(f, "no outcome supplied for representative fault {fault_id}")
            }
            ExpandError::TestTooShort { steps } => {
                write!(f, "saturated-output collapses need tests of ≥ 2 ticks, got {steps}")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// Error running a collapsed campaign.
#[derive(Debug)]
pub enum CollapsedCampaignError {
    /// The underlying representative campaign failed.
    Campaign(CampaignError),
    /// Expansion back to the full universe failed.
    Expand(ExpandError),
}

impl std::fmt::Display for CollapsedCampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollapsedCampaignError::Campaign(e) => write!(f, "{e}"),
            CollapsedCampaignError::Expand(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CollapsedCampaignError {}

/// A fault universe partitioned into representatives and statically
/// decided faults.
#[derive(Debug, Clone)]
pub struct CollapsedUniverse {
    universe_len: usize,
    representatives: Vec<Fault>,
    collapses: Vec<Collapse>,
}

impl CollapsedUniverse {
    /// Partitions `universe` using the facts in `intervals` (which must
    /// come from the same `net`).
    pub fn build(net: &Network, universe: &FaultUniverse, intervals: &IntervalAnalysis) -> Self {
        let last_spiking_output = net.layers().last().is_some_and(Layer::is_spiking);
        let last_layer = net.layers().len().saturating_sub(1);
        let mut representatives = Vec::new();
        let mut collapses = Vec::new();
        let mut by_site_value: HashMap<(WeightRef, u32), usize> = HashMap::new();

        for fault in universe.faults() {
            let reason = match (fault.site, fault.kind) {
                (FaultSite::Neuron { layer, index }, FaultKind::NeuronDead) => {
                    if intervals.is_dead(layer, index) {
                        Some(CollapseReason::DeadNeuron { layer, index })
                    } else {
                        None
                    }
                }
                (FaultSite::Neuron { layer, index }, FaultKind::NeuronSaturated) => {
                    let healthy_refrac =
                        net.layers().get(layer).and_then(Layer::lif).map_or(0, |l| l.refrac_steps);
                    if last_spiking_output && layer == last_layer && healthy_refrac >= 1 {
                        Some(CollapseReason::SaturatedOutput {
                            layer,
                            index,
                            refrac_steps: healthy_refrac,
                        })
                    } else {
                        None
                    }
                }
                (
                    FaultSite::Neuron { layer, index },
                    FaultKind::NeuronTiming { threshold_scale, leak_scale, .. },
                ) => timing_on_dead(net, intervals, layer, index, threshold_scale, leak_scale),
                // Kind/site mismatches cannot be enumerated by
                // FaultUniverse; never collapse them.
                (FaultSite::Neuron { .. }, _) => None,
                (FaultSite::Synapse(at), _) => {
                    match Injection::for_fault(net, universe, fault) {
                        Ok(Injection::Weight { at: _, value }) => {
                            synapse_collapse(net, intervals, at, value, &by_site_value)
                        }
                        // An injection error is never collapsed; the
                        // simulator will surface it.
                        _ => None,
                    }
                }
            };
            match reason {
                Some(reason) => collapses.push(Collapse { fault_id: fault.id, reason }),
                None => {
                    if let (FaultSite::Synapse(at), Ok(Injection::Weight { value, .. })) =
                        (fault.site, Injection::for_fault(net, universe, fault))
                    {
                        by_site_value.entry((at, value.to_bits())).or_insert(fault.id);
                    }
                    representatives.push(*fault);
                }
            }
        }
        Self { universe_len: universe.len(), representatives, collapses }
    }

    /// Faults that must actually be simulated, in id order.
    pub fn representatives(&self) -> &[Fault] {
        &self.representatives
    }

    /// Statically decided faults, in id order.
    pub fn collapses(&self) -> &[Collapse] {
        &self.collapses
    }

    /// Size of the underlying universe.
    pub fn universe_len(&self) -> usize {
        self.universe_len
    }

    /// Fraction of the universe decided statically (0.0 for an empty
    /// universe).
    pub fn collapse_fraction(&self) -> f64 {
        if self.universe_len == 0 {
            return 0.0;
        }
        // snn-lint note: usize→f64 is exact below 2^53, far beyond any universe.
        self.collapses.len() as f64 / self.universe_len as f64
    }

    /// Maps representative outcomes back to a full-universe outcome
    /// vector, in fault-id order. `test_steps` is the shortest test
    /// length of the campaign (guards `SaturatedOutput` expansions).
    ///
    /// # Errors
    ///
    /// [`ExpandError::MissingRepresentative`] when `rep_outcomes` lacks a
    /// representative; [`ExpandError::TestTooShort`] when a
    /// `SaturatedOutput` collapse exists but `test_steps < 2`.
    pub fn expand(
        &self,
        rep_outcomes: &[FaultOutcome],
        test_steps: usize,
    ) -> Result<Vec<FaultOutcome>, ExpandError> {
        // Expansion is the post-loop kernel phase of a collapsed
        // campaign: account it alongside inject/forward/compare and
        // publish it as a synthetic `phase.expand` span when tracing.
        let expand_started = snn_obs::clock::monotonic();
        let result = self.expand_inner(rep_outcomes, test_steps);
        let elapsed = snn_obs::clock::monotonic().saturating_sub(expand_started);
        snn_obs::phase::faultsim().add(snn_obs::phase::Phase::Expand, elapsed);
        snn_obs::histogram!(
            "snn_analyze_expand_seconds",
            "Time expanding representative verdicts onto the full universe.",
            snn_obs::metrics::FINE_DURATION_BUCKETS
        )
        .observe_duration(elapsed);
        if let Some(collector) = snn_obs::trace::installed() {
            collector.push_synthetic(
                "phase.expand",
                snn_obs::trace::current_id(),
                elapsed,
                vec![("count".to_string(), "1".to_string())],
            );
        }
        result
    }

    fn expand_inner(
        &self,
        rep_outcomes: &[FaultOutcome],
        test_steps: usize,
    ) -> Result<Vec<FaultOutcome>, ExpandError> {
        let by_id: HashMap<usize, &FaultOutcome> =
            rep_outcomes.iter().map(|o| (o.fault_id, o)).collect();
        let reasons: HashMap<usize, &CollapseReason> =
            self.collapses.iter().map(|c| (c.fault_id, &c.reason)).collect();
        let mut out = Vec::with_capacity(self.universe_len);
        for id in 0..self.universe_len {
            if let Some(reason) = reasons.get(&id) {
                match reason {
                    CollapseReason::AliasOf { representative, .. } => {
                        let rep = by_id.get(representative).ok_or(
                            ExpandError::MissingRepresentative { fault_id: *representative },
                        )?;
                        out.push(FaultOutcome {
                            fault_id: id,
                            detected: rep.detected,
                            distance: rep.distance,
                            class_diff: rep.class_diff.clone(),
                        });
                    }
                    CollapseReason::SaturatedOutput { .. } => {
                        if test_steps < 2 {
                            return Err(ExpandError::TestTooShort { steps: test_steps });
                        }
                        // distance is a provable lower bound (the healthy
                        // and saturated output trains differ in ≥ 1 tick),
                        // not the simulated value.
                        out.push(FaultOutcome {
                            fault_id: id,
                            detected: true,
                            distance: 1.0,
                            class_diff: None,
                        });
                    }
                    _ => out.push(FaultOutcome {
                        fault_id: id,
                        detected: false,
                        distance: 0.0,
                        class_diff: None,
                    }),
                }
            } else {
                let rep =
                    by_id.get(&id).ok_or(ExpandError::MissingRepresentative { fault_id: id })?;
                out.push((*rep).clone());
            }
        }
        Ok(out)
    }

    /// Runs a campaign over the representatives only and expands the
    /// outcome to the full universe. Drop-in replacement for
    /// `FaultSimulator::detect_with` over `universe.faults()`.
    ///
    /// # Errors
    ///
    /// Propagates the representative campaign's error or the expansion
    /// error.
    pub fn detect_collapsed(
        &self,
        net: &Network,
        universe: &FaultUniverse,
        tests: &[Tensor],
        cfg: FaultSimConfig,
        sink: &dyn ProgressSink,
        cancel: &CancelToken,
    ) -> Result<CampaignOutcome, CollapsedCampaignError> {
        let outcome = FaultSimulator::new(net, cfg)
            .detect_with(universe, &self.representatives, tests, sink, cancel)
            .map_err(CollapsedCampaignError::Campaign)?;
        // The expansion of saturated-threshold justifications needs the
        // shortest test's length.
        let min_steps =
            tests.iter().map(|t| t.shape().dims().first().copied().unwrap_or(0)).min().unwrap_or(0);
        let per_fault =
            self.expand(&outcome.per_fault, min_steps).map_err(CollapsedCampaignError::Expand)?;
        Ok(CampaignOutcome { per_fault, elapsed: outcome.elapsed })
    }

    /// Re-derives every recorded justification from scratch against
    /// `net` and `universe`. Returns human-readable descriptions of any
    /// violation — an empty vector means the collapse set is sound.
    pub fn self_check(&self, net: &Network, universe: &FaultUniverse) -> Vec<String> {
        let intervals = IntervalAnalysis::new(net);
        let mut errors = Vec::new();
        if self.representatives.len() + self.collapses.len() != self.universe_len
            || self.universe_len != universe.len()
        {
            errors.push(format!(
                "partition mismatch: {} reps + {} collapses != universe of {}",
                self.representatives.len(),
                self.collapses.len(),
                universe.len()
            ));
        }
        let rep_ids: std::collections::HashSet<usize> =
            self.representatives.iter().map(|f| f.id).collect();
        let faults = universe.faults();
        for c in &self.collapses {
            let Some(fault) = faults.get(c.fault_id) else {
                errors.push(format!("collapse refers to unknown fault {}", c.fault_id));
                continue;
            };
            if let Some(e) = check_reason(net, universe, &intervals, fault, &c.reason, &rep_ids) {
                errors.push(format!("fault {}: {e}", c.fault_id));
            }
        }
        errors
    }
}

/// Effective parameters after a timing fault, mirroring the simulator's
/// clamping (`snn::sim::EffectiveParams`): `θ' = max(θ·ts, ε)`,
/// `λ' = clamp(λ·ls, ε, 1)`.
fn scaled_params(lif: &LifParams, threshold_scale: f32, leak_scale: f32) -> (f32, f32) {
    let threshold = (lif.threshold * threshold_scale).max(f32::EPSILON);
    let leak = (lif.leak * leak_scale).clamp(f32::EPSILON, 1.0);
    (threshold, leak)
}

fn timing_on_dead(
    net: &Network,
    intervals: &IntervalAnalysis,
    layer: usize,
    index: usize,
    threshold_scale: f32,
    leak_scale: f32,
) -> Option<CollapseReason> {
    if !intervals.is_dead(layer, index) {
        return None;
    }
    let lif = net.layers().get(layer).and_then(Layer::lif)?;
    let (threshold_scaled, leak_scaled) = scaled_params(lif, threshold_scale, leak_scale);
    let z_max = intervals.z_max(layer, index);
    let perturbed = LifParams { threshold: threshold_scaled, leak: leak_scaled, ..*lif };
    if provably_dead(z_max, &perturbed) {
        Some(CollapseReason::TimingOnDead { layer, index, z_max, threshold_scaled, leak_scaled })
    } else {
        None
    }
}

/// Decodes the source feature of a weight from its offset, mirroring
/// the layer weight layouts (`DenseLayer` `[out×in]`, `ConvLayer`
/// `[oc,ic,k,k]`, `RecurrentLayer` `[units×in]` + `[units×units]`).
pub fn source_of(net: &Network, at: WeightRef) -> Option<SourceRef> {
    match net.layers().get(at.layer)? {
        Layer::Dense(d) => {
            let cols = d.weight.shape().dims()[1];
            Some(SourceRef::InFeature { layer: at.layer, feature: at.offset % cols })
        }
        Layer::Conv(c) => {
            let k = c.spec.kernel;
            let ic = (at.offset / (k * k)) % c.spec.in_channels;
            Some(SourceRef::InChannel { layer: at.layer, channel: ic })
        }
        Layer::Recurrent(r) => {
            if at.tensor == 0 {
                let cols = r.w_in.shape().dims()[1];
                Some(SourceRef::InFeature { layer: at.layer, feature: at.offset % cols })
            } else {
                let units = r.w_rec.shape().dims()[0];
                Some(SourceRef::RecUnit { layer: at.layer, unit: at.offset % units })
            }
        }
        Layer::Pool(_) => None,
    }
}

/// Decodes the target neuron(s) of a weight from its offset.
pub fn target_of(net: &Network, at: WeightRef) -> Option<TargetRef> {
    match net.layers().get(at.layer)? {
        Layer::Dense(d) => {
            let cols = d.weight.shape().dims()[1];
            Some(TargetRef::Neuron { layer: at.layer, index: at.offset / cols })
        }
        Layer::Conv(c) => {
            let k = c.spec.kernel;
            let oc = at.offset / (c.spec.in_channels * k * k);
            Some(TargetRef::Channel { layer: at.layer, channel: oc })
        }
        Layer::Recurrent(r) => {
            let cols =
                if at.tensor == 0 { r.w_in.shape().dims()[1] } else { r.w_rec.shape().dims()[0] };
            Some(TargetRef::Neuron { layer: at.layer, index: at.offset / cols })
        }
        Layer::Pool(_) => None,
    }
}

/// `true` when the interval analysis proves the source feature silent.
fn source_silent(net: &Network, intervals: &IntervalAnalysis, source: SourceRef) -> bool {
    match source {
        SourceRef::InFeature { layer, feature } => intervals
            .layers()
            .get(layer)
            .and_then(|l| l.silent_in.get(feature))
            .copied()
            .unwrap_or(false),
        SourceRef::InChannel { layer, channel } => match net.layers().get(layer) {
            Some(Layer::Conv(c)) => {
                let silent_in = intervals.layers().get(layer).map(|l| l.silent_in.as_slice());
                silent_in
                    .map(|s| crate::interval::conv_channel_silent(c, s, channel))
                    .unwrap_or(false)
            }
            _ => false,
        },
        SourceRef::RecUnit { layer, unit } => intervals.is_dead(layer, unit),
    }
}

/// Representative neuron index of a target (conv: first position of the
/// channel), used to look up interval facts.
fn target_neuron_index(net: &Network, target: TargetRef) -> (usize, usize) {
    match target {
        TargetRef::Neuron { layer, index } => (layer, index),
        TargetRef::Channel { layer, channel } => {
            let per = match net.layers().get(layer) {
                Some(Layer::Conv(c)) => {
                    let (oh, ow) = c.out_hw();
                    oh * ow
                }
                _ => 1,
            };
            (layer, channel * per)
        }
    }
}

/// Drive bound of the target with `value` substituted for the stored
/// weight at `at`.
fn substituted_z_max(
    net: &Network,
    intervals: &IntervalAnalysis,
    at: WeightRef,
    value: f32,
) -> f64 {
    let Some(target) = target_of(net, at) else { return f64::INFINITY };
    let (layer, index) = target_neuron_index(net, target);
    let z_max = intervals.z_max(layer, index);
    let w = f64::from(net.weight(at));
    z_max - w.max(0.0) + f64::from(value).max(0.0)
}

fn synapse_collapse(
    net: &Network,
    intervals: &IntervalAnalysis,
    at: WeightRef,
    value: f32,
    by_site_value: &HashMap<(WeightRef, u32), usize>,
) -> Option<CollapseReason> {
    let current = net.weight(at);
    if f32_eq(value, current) {
        return Some(CollapseReason::IdenticalWeight { at, weight: current });
    }
    let source = source_of(net, at)?;
    if source_silent(net, intervals, source) {
        return Some(CollapseReason::SilentSource { at, source });
    }
    let target = target_of(net, at)?;
    let (layer, index) = target_neuron_index(net, target);
    if intervals.is_dead(layer, index) {
        let lif = net.layers().get(layer).and_then(Layer::lif)?;
        let z_max_faulty = substituted_z_max(net, intervals, at, value);
        if provably_dead(z_max_faulty, lif) {
            return Some(CollapseReason::DeadTarget { at, target, injected: value, z_max_faulty });
        }
    }
    by_site_value.get(&(at, value.to_bits())).map(|&representative| CollapseReason::AliasOf {
        representative,
        at,
        injected: value,
    })
}

/// Re-derives one recorded reason; `None` when it checks out.
fn check_reason(
    net: &Network,
    universe: &FaultUniverse,
    intervals: &IntervalAnalysis,
    fault: &Fault,
    reason: &CollapseReason,
    rep_ids: &std::collections::HashSet<usize>,
) -> Option<String> {
    let injected_value = || match Injection::for_fault(net, universe, fault) {
        Ok(Injection::Weight { value, .. }) => Some(value),
        _ => None,
    };
    match reason {
        CollapseReason::IdenticalWeight { at, weight } => {
            let Some(value) = injected_value() else {
                return Some("fault does not inject a weight".into());
            };
            if !f32_eq(net.weight(*at), *weight) {
                return Some(format!("recorded weight {weight} != stored {}", net.weight(*at)));
            }
            if !f32_eq(value, *weight) {
                return Some(format!("injected {value} != recorded weight {weight}"));
            }
            None
        }
        CollapseReason::SilentSource { at, source } => {
            if source_of(net, *at) != Some(*source) {
                return Some("recorded source does not match the weight layout".into());
            }
            if !source_silent(net, intervals, *source) {
                return Some(format!("source {source:?} is not provably silent"));
            }
            None
        }
        CollapseReason::DeadTarget { at, target, injected, z_max_faulty } => {
            let Some(value) = injected_value() else {
                return Some("fault does not inject a weight".into());
            };
            if !f32_eq(value, *injected) {
                return Some(format!("injected {value} != recorded {injected}"));
            }
            if target_of(net, *at) != Some(*target) {
                return Some("recorded target does not match the weight layout".into());
            }
            let (layer, index) = target_neuron_index(net, *target);
            if !intervals.is_dead(layer, index) {
                return Some(format!("target {target:?} is not provably dead"));
            }
            let recomputed = substituted_z_max(net, intervals, *at, value);
            if (recomputed - z_max_faulty).abs() > 1e-12 * z_max_faulty.abs().max(1.0) {
                return Some(format!(
                    "recorded faulty bound {z_max_faulty} != recomputed {recomputed}"
                ));
            }
            let Some(lif) = net.layers().get(layer).and_then(Layer::lif) else {
                return Some("target layer has no LIF parameters".into());
            };
            if !provably_dead(recomputed, lif) {
                return Some(format!("target not provably dead under faulty bound {recomputed}"));
            }
            None
        }
        CollapseReason::DeadNeuron { layer, index } => {
            if !intervals.is_dead(*layer, *index) {
                return Some(format!("neuron {layer}/{index} is not provably dead"));
            }
            None
        }
        CollapseReason::TimingOnDead { layer, index, z_max, threshold_scaled, leak_scaled } => {
            if !intervals.is_dead(*layer, *index) {
                return Some(format!("neuron {layer}/{index} is not provably dead"));
            }
            let FaultKind::NeuronTiming { threshold_scale, leak_scale, .. } = fault.kind else {
                return Some("timing-on-dead recorded for a non-timing fault".into());
            };
            let Some(lif) = net.layers().get(*layer).and_then(Layer::lif) else {
                return Some("neuron layer has no LIF parameters".into());
            };
            let (t, l) = scaled_params(lif, threshold_scale, leak_scale);
            if !f32_eq(t, *threshold_scaled) || !f32_eq(l, *leak_scaled) {
                return Some(format!(
                    "recorded scaled params ({threshold_scaled}, {leak_scaled}) != recomputed ({t}, {l})"
                ));
            }
            let recomputed = intervals.z_max(*layer, *index);
            if (recomputed - z_max).abs() > 1e-12 * z_max.abs().max(1.0) {
                return Some(format!("recorded z_max {z_max} != recomputed {recomputed}"));
            }
            let perturbed = LifParams { threshold: t, leak: l, ..*lif };
            if !provably_dead(recomputed, &perturbed) {
                return Some("neuron not provably dead under perturbed parameters".into());
            }
            None
        }
        CollapseReason::AliasOf { representative, at, injected } => {
            if !rep_ids.contains(representative) {
                return Some(format!("alias points at non-representative {representative}"));
            }
            let Some(value) = injected_value() else {
                return Some("fault does not inject a weight".into());
            };
            if !f32_eq(value, *injected) {
                return Some(format!("injected {value} != recorded {injected}"));
            }
            let rep_fault = universe.faults().get(*representative);
            let rep_inj = rep_fault.and_then(|f| match Injection::for_fault(net, universe, f) {
                Ok(Injection::Weight { at: rat, value: rv }) => Some((rat, rv)),
                _ => None,
            });
            match rep_inj {
                Some((rat, rv)) if rat == *at && f32_eq(rv, value) => None,
                _ => Some(format!(
                    "representative {representative} does not inject the same (site, value)"
                )),
            }
        }
        CollapseReason::SaturatedOutput { layer, index, refrac_steps } => {
            let last = net.layers().len().saturating_sub(1);
            if *layer != last || !net.layers().get(*layer).is_some_and(|l| l.is_spiking()) {
                return Some(format!("layer {layer} is not the spiking final layer"));
            }
            let healthy =
                net.layers().get(*layer).and_then(Layer::lif).map_or(0, |l| l.refrac_steps);
            if healthy < 1 || healthy != *refrac_steps {
                return Some(format!(
                    "recorded refrac {refrac_steps} != healthy {healthy} (must be ≥ 1)"
                ));
            }
            let count = net.layers().get(*layer).map_or(0, Layer::out_features);
            if *index >= count {
                return Some(format!("neuron index {index} out of range ({count})"));
            }
            None
        }
    }
}
