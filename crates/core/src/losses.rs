//! The paper's five loss functions over spike trains, with analytic
//! (sub)gradients delivered as per-layer [`InjectedGrads`] for BPTT.
//!
//! All losses take the full forward [`Trace`] and *add* `alpha` times
//! their gradient into an `InjectedGrads` accumulator, so a stage
//! scalarizes any subset with weights `α_i` (Eq. 6) into one set of
//! buffers and runs one backward pass. Each term `α_i·∂L_i` is rounded
//! before it is added, and terms arrive in the order the losses are
//! called in.
//!
//! Conventions:
//!
//! * Spike counts `‖O^{ℓi}‖₁` are differentiated as sums over time, so a
//!   count gradient `g` becomes `∂L/∂s[t, i] = g` at every tick.
//! * Hinges (`max(0, ·)`) use the standard subgradient (0 at the kink).
//! * `L4` follows Eq. 13's dense formulation and is applied to dense and
//!   recurrent (input-weight) layers; convolutional layers share kernel
//!   weights across space, which already equalizes per-synapse
//!   contributions, and their small fan-in makes masking rare (covered by
//!   `L2`/`L3`).

use snn_model::{InjectedGrads, Layer, Network, Trace};
use snn_tensor::Tensor;

/// Per-layer boolean masks selecting which neurons a loss targets
/// (`None` = all neurons of that layer). Aligned with `Network::layers()`.
pub type TargetMask = Vec<Option<Vec<bool>>>;

/// A mask targeting every neuron of every layer.
pub fn full_mask(net: &Network) -> TargetMask {
    vec![None; net.layers().len()]
}

/// Spike counts per neuron for layer `idx` of the trace.
fn counts(trace: &Trace, idx: usize) -> Vec<f32> {
    trace.layers[idx].spike_counts()
}

fn targeted(mask: &TargetMask, layer: usize, neuron: usize) -> bool {
    match &mask[layer] {
        None => true,
        Some(m) => m[neuron],
    }
}

/// Adds `coef[i]` to `∂L/∂s[t, i]` of `layer` at every tick `t`: the
/// gradient of a loss on spike *counts*, one contiguous row at a time.
fn inject_per_tick(inj: &mut InjectedGrads, layer: usize, steps: usize, coef: &[f32]) {
    for row in inj.accumulate(layer, steps, coef.len()).chunks_exact_mut(coef.len().max(1)) {
        for (g, c) in row.iter_mut().zip(coef) {
            *g += c;
        }
    }
}

/// The hinge `L1` and `L2` share: every selected neuron of `layer` that
/// never fired adds its deficit `1 − count` to `value` and is pushed up
/// by `alpha` at every tick.
fn inject_activation_deficit(
    trace: &Trace,
    layer: usize,
    selected: impl Fn(usize) -> bool,
    alpha: f32,
    inj: &mut InjectedGrads,
    value: &mut f32,
) {
    let c = counts(trace, layer);
    let mut coef = vec![0.0f32; c.len()];
    let mut any = false;
    for (i, &cnt) in c.iter().enumerate() {
        let deficit = 1.0 - cnt;
        if selected(i) && deficit > 0.0 {
            *value += deficit;
            any = true;
            coef[i] = -alpha;
        }
    }
    if any {
        inject_per_tick(inj, layer, trace.steps, &coef);
    }
}

/// `L1` (Eq. 9): every **output** neuron must fire at least once during
/// the inference window. Returns the loss value and adds `alpha·∂L1/∂O^L`.
pub fn l1_output_activation(
    net: &Network,
    trace: &Trace,
    alpha: f32,
    inj: &mut InjectedGrads,
) -> f32 {
    let mut value = 0.0;
    inject_activation_deficit(trace, net.layers().len() - 1, |_| true, alpha, inj, &mut value);
    value
}

/// `L2` (Eq. 10): every targeted neuron (all layers) must fire at least
/// once. The iteration loop passes the not-yet-activated set as `mask`.
pub fn l2_neuron_activation(
    net: &Network,
    trace: &Trace,
    mask: &TargetMask,
    alpha: f32,
    inj: &mut InjectedGrads,
) -> f32 {
    let mut value = 0.0;
    for (idx, layer) in net.layers().iter().enumerate() {
        if layer.is_spiking() {
            let selected = |i| targeted(mask, idx, i);
            inject_activation_deficit(trace, idx, selected, alpha, inj, &mut value);
        }
    }
    value
}

/// `L3` (Eq. 12): each targeted neuron's temporal diversity — the number
/// of state changes of its spike train (Eq. 11) — must reach `td_min`.
///
/// For binary trains `|O(j) − O(j−1)| = O(j) + O(j−1) − 2·O(j)·O(j−1)`,
/// giving the exact subgradient `∂TD/∂O(j) = (1 − 2·O(j−1)) + (1 − 2·O(j+1))`
/// (boundary terms drop the missing neighbour).
pub fn l3_temporal_diversity(
    net: &Network,
    trace: &Trace,
    mask: &TargetMask,
    td_min: f32,
    alpha: f32,
    inj: &mut InjectedGrads,
) -> f32 {
    let steps = trace.steps;
    let mut value = 0.0;
    for (idx, layer) in net.layers().iter().enumerate() {
        if !layer.is_spiking() {
            continue;
        }
        let n = layer.out_features();
        let out = trace.layers[idx].output.as_slice();
        // Every neuron's diversity at once, tick by tick along the rows.
        let mut td = vec![0.0f32; n];
        for (prev, next) in out.chunks_exact(n).zip(out.chunks_exact(n).skip(1)) {
            for ((td, a), b) in td.iter_mut().zip(prev).zip(next) {
                *td += (b - a).abs();
            }
        }
        let mut short = Vec::new();
        for (i, &td) in td.iter().enumerate() {
            let deficit = td_min - td;
            if targeted(mask, idx, i) && deficit > 0.0 {
                value += deficit;
                short.push(i);
            }
        }
        if short.is_empty() {
            continue;
        }
        // d(−TD)/dO(t): pushing TD up means flipping states.
        let gd = inj.accumulate(idx, steps, n);
        for t in 0..steps {
            for &i in &short {
                let mut d = 0.0f32;
                if t > 0 {
                    d += 1.0 - 2.0 * out[(t - 1) * n + i];
                }
                if t + 1 < steps {
                    d += 1.0 - 2.0 * out[(t + 1) * n + i];
                }
                gd[t * n + i] += -d * alpha;
            }
        }
    }
    value
}

/// `L4` (Eq. 13): the variance of per-synapse contributions
/// `c_j = w_{j,i} · ‖O^{ℓ−1,j}‖₁` to each post-synaptic neuron, summed
/// over dense/recurrent layers, so that strong synapses do not mask weak
/// ones. The layout holds what it reads of each layer it reaches: the
/// weights column-major, so that the post-synaptic rows are the lanes of
/// a vector, and each row's fan-in (its connected synapses). Both depend
/// on the network alone, so a stage builds them once for all of its steps
/// (DESIGN.md §19.4).
#[derive(Debug)]
pub(crate) struct L4Layout {
    layers: Vec<L4Layer>,
}

#[derive(Debug)]
struct L4Layer {
    /// The layer's position in `Network::layers()`.
    idx: usize,
    /// `[cols × rows]`: column `j` holds every row's weight from `j`.
    by_column: Vec<f32>,
    /// Each row's number of non-zero weights.
    fan_in: Vec<f32>,
}

/// The weights `L4` reads of `layer`: a dense layer's, a recurrent
/// layer's input weights.
fn l4_weight(layer: &Layer) -> Option<&Tensor> {
    match layer {
        Layer::Dense(l) => Some(&l.weight),
        Layer::Recurrent(l) => Some(&l.w_in),
        _ => None,
    }
}

impl L4Layout {
    /// The layout of `net`'s dense and recurrent layers after the first:
    /// contributions of the *stimulus* itself are what the input
    /// optimization already controls, so Eq. 13 starts at `ℓ = 2`.
    pub(crate) fn new(net: &Network) -> Self {
        let layers = net.layers().iter().enumerate().skip(1);
        let layers = layers.filter_map(|(idx, layer)| {
            let weight = l4_weight(layer)?;
            let (rows, cols) = (weight.shape().dim(0), weight.shape().dim(1));
            let w = weight.as_slice();
            let by_column = (0..cols * rows).map(|i| w[(i % rows) * cols + i / rows]).collect();
            #[expect(
                clippy::cast_precision_loss,
                reason = "fan-in counts stay far below f32's 2^24 exact-integer limit"
            )]
            let fan_in = w
                .chunks_exact(cols.max(1))
                .map(|row| row.iter().filter(|&&w| w != 0.0).count() as f32);
            Some(L4Layer { idx, by_column, fan_in: fan_in.collect() })
        });
        Self { layers: layers.collect() }
    }

    /// `L4` on `trace` of the network the layout was built from, adding
    /// `alpha` times its gradient into `inj`. A row's contributions are
    /// summed over its connected synapses in column order, as
    /// [`Iterator::sum`] over them would, but all rows at once: a column
    /// at a time, each row one lane, a disconnected synapse adding `−0.0`,
    /// which leaves every sum as it was. Rows with fewer than two synapses
    /// add nothing. `∂count_j` gathers the rows' terms in row order, all
    /// columns at once.
    pub(crate) fn contribution_variance(
        &self,
        net: &Network,
        trace: &Trace,
        alpha: f32,
        inj: &mut InjectedGrads,
    ) -> f32 {
        let mut value = 0.0;
        for layer in &self.layers {
            let Some(weight) = l4_weight(&net.layers()[layer.idx]) else { continue };
            let (rows, cols) = (layer.fan_in.len(), weight.shape().dim(1));
            let pre_counts = counts(trace, layer.idx - 1);
            debug_assert_eq!(pre_counts.len(), cols);
            debug_assert_eq!(layer.by_column.len(), rows * cols);
            // Per row, the sum of its contributions, then their mean, and
            // the sum of their squared deviations from it; `-0.0` is
            // where `Iterator::sum` starts.
            let mut lanes = vec![-0.0f32; 2 * rows];
            let (means, squares) = lanes.split_at_mut(rows);
            let columns = || layer.by_column.chunks_exact(rows.max(1)).zip(&pre_counts);
            for (column, &count) in columns() {
                for (sum, &w) in means.iter_mut().zip(column) {
                    *sum += if w != 0.0 { w * count } else { -0.0 };
                }
            }
            for (mean, &m) in means.iter_mut().zip(&layer.fan_in) {
                *mean = if m >= 2.0 { *mean / m } else { 0.0 };
            }
            for (column, &count) in columns() {
                for ((square, &w), &mean) in squares.iter_mut().zip(column).zip(&*means) {
                    // Squared before the select, which then vectorises.
                    let d = (w * count - mean) * (w * count - mean);
                    *square += if w != 0.0 { d } else { -0.0 };
                }
            }
            // dL/d(count_j) accumulated over all post-neurons of this layer.
            let mut dcount = vec![0.0f32; cols];
            let rows = weight.as_slice().chunks_exact(cols.max(1));
            for (((row, &mean), &square), &m) in rows.zip(&*means).zip(&*squares).zip(&layer.fan_in)
            {
                if m < 2.0 {
                    continue;
                }
                value += square / m;
                // ∂Var/∂c_k = 2(c_k − mean)/m ; ∂c_k/∂count_j = w_{j,r}
                let scale = 2.0 / m;
                for ((d, &w), &count) in dcount.iter_mut().zip(row).zip(&pre_counts) {
                    let term = (w * count - mean) * scale * w;
                    *d += if w != 0.0 { term } else { -0.0 };
                }
            }
            if dcount.iter().any(|&d| d != 0.0) {
                dcount.iter_mut().for_each(|d| *d *= alpha);
                inject_per_tick(inj, layer.idx - 1, trace.steps, &dcount);
            }
        }
        value
    }
}

/// `L5` (Eq. 16): total hidden spike count — stage 2 minimizes it to keep
/// fault effects from drowning in refractory periods.
pub fn l5_hidden_activity(
    net: &Network,
    trace: &Trace,
    alpha: f32,
    inj: &mut InjectedGrads,
) -> f32 {
    let last = net.layers().len() - 1;
    let mut value = 0.0;
    for (idx, layer) in net.layers().iter().enumerate() {
        if idx == last || !layer.is_spiking() {
            continue;
        }
        value += trace.layers[idx].output.sum();
        inject_per_tick(inj, idx, trace.steps, &vec![alpha; layer.out_features()]);
    }
    value
}

/// Output-preservation penalty realizing Eq. 15's constraint
/// `O^L = const`: `μ·‖O^L − O^L_ref‖₁` with the L1 subgradient.
///
/// # Panics
///
/// Panics if `reference` does not match the output shape.
pub fn output_preservation(
    net: &Network,
    trace: &Trace,
    reference: &Tensor,
    mu: f32,
    inj: &mut InjectedGrads,
) -> f32 {
    let last = net.layers().len() - 1;
    let out = trace.output();
    assert_eq!(out.shape(), reference.shape(), "reference output shape mismatch");
    let diff = out - reference;
    let value = mu * diff.l1_norm();
    if value > 0.0 {
        let grad = inj.accumulate(last, trace.steps, net.output_features());
        for (g, d) in grad.iter_mut().zip(diff.as_slice()) {
            *g += mu * d.signum();
        }
    }
    value
}

/// `L6` (extension, this repo): saturation-margin loss.
///
/// The paper's future work asks for new loss functions that further
/// improve coverage. A neuron that already fires at its maximum nominal
/// rate (every `refrac + 1` ticks) responds to the stimulus exactly like
/// its *saturated-fault* counterpart near the output — the fault becomes
/// undetectable by that stimulus. `L6` therefore penalizes neurons whose
/// spike count exceeds `margin` of their physical maximum, pushing the
/// stimulus to keep nominal responses distinguishable from stuck-firing
/// behaviour:
///
/// `L6 = Σ max(0, ‖O^{ℓi}‖₁ − margin·max_count(ℓ))`.
pub fn l6_saturation_margin(
    net: &Network,
    trace: &Trace,
    margin: f32,
    alpha: f32,
    inj: &mut InjectedGrads,
) -> f32 {
    assert!((0.0..=1.0).contains(&margin), "margin must be in [0, 1]");
    let steps = trace.steps;
    let mut value = 0.0;
    for (idx, layer) in net.layers().iter().enumerate() {
        let Some(lif) = layer.lif() else { continue };
        #[expect(
            clippy::cast_precision_loss,
            reason = "step counts and refractory periods stay far below f32's 2^24 exact-integer limit"
        )]
        let max_count = steps as f32 / (lif.refrac_steps as f32 + 1.0);
        let cap = margin * max_count;
        let c = counts(trace, idx);
        let mut coef = vec![0.0f32; c.len()];
        let mut any = false;
        for (i, &cnt) in c.iter().enumerate() {
            let excess = cnt - cap;
            if excess > 0.0 {
                value += excess;
                any = true;
                coef[i] = alpha; // push the count down
            }
        }
        if any {
            inject_per_tick(inj, idx, steps, &coef);
        }
    }
    value
}

/// Scalarization weights `α_i = 1 / max(L_i, ε)` (Section V-C: inverse of
/// the expected magnitude, so each term contributes comparably).
pub fn balance_weights(initial_losses: &[f32]) -> Vec<f32> {
    initial_losses.iter().map(|&l| 1.0 / l.max(1e-3)).collect()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snn_model::{LifParams, NetworkBuilder, RecordOptions};
    use snn_tensor::Shape;

    fn small_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(5, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(8)
            .dense(3)
            .build(&mut rng)
    }

    #[test]
    fn l1_is_zero_when_all_outputs_fire() {
        let net = small_net(0);
        let mut rng = StdRng::seed_from_u64(1);
        // dense all-ones drive fires everything eventually
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(40, 5), 0.9);
        let trace = net.forward(&input, RecordOptions::full());
        let mut inj = InjectedGrads::none(2);
        let v = l1_output_activation(&net, &trace, 1.0, &mut inj);
        let out_counts = trace.class_counts();
        if out_counts.iter().all(|&c| c >= 1.0) {
            assert_eq!(v, 0.0);
            assert!(inj.is_empty());
        } else {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn l1_counts_silent_output_neurons_on_zero_input() {
        let net = small_net(0);
        let input = Tensor::zeros(Shape::d2(10, 5));
        let trace = net.forward(&input, RecordOptions::full());
        let mut inj = InjectedGrads::none(2);
        let v = l1_output_activation(&net, &trace, 1.0, &mut inj);
        assert_eq!(v, 3.0); // three silent outputs, deficit 1 each
                            // gradient pushes spikes up (negative, since loss falls as count rises)
        let g = inj.layer(1).unwrap();
        assert!(g.as_slice().iter().all(|&x| x <= 0.0));
        assert!(g.l1_norm() > 0.0);
    }

    #[test]
    fn l2_respects_target_mask() {
        let net = small_net(0);
        let input = Tensor::zeros(Shape::d2(10, 5));
        let trace = net.forward(&input, RecordOptions::full());
        let mut mask = full_mask(&net);
        // target only neuron 2 of layer 0
        let mut layer0 = vec![false; 8];
        layer0[2] = true;
        mask[0] = Some(layer0);
        mask[1] = Some(vec![false; 3]);
        let mut inj = InjectedGrads::none(2);
        let v = l2_neuron_activation(&net, &trace, &mask, 1.0, &mut inj);
        assert_eq!(v, 1.0);
        let g = inj.layer(0).unwrap();
        // only column 2 non-zero
        for t in 0..10 {
            for i in 0..8 {
                let expect = if i == 2 { -1.0 } else { 0.0 };
                assert_eq!(g[[t, i]], expect);
            }
        }
        assert!(inj.layer(1).is_none());
    }

    #[test]
    fn l3_penalizes_low_diversity_only() {
        let net = small_net(0);
        let mut rng = StdRng::seed_from_u64(2);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 5), 0.8);
        let trace = net.forward(&input, RecordOptions::full());
        let mask = full_mask(&net);
        let mut inj = InjectedGrads::none(2);
        let v_low = l3_temporal_diversity(&net, &trace, &mask, 0.5, 1.0, &mut inj);
        let mut inj2 = InjectedGrads::none(2);
        let v_high = l3_temporal_diversity(&net, &trace, &mask, 100.0, 1.0, &mut inj2);
        assert!(v_high > v_low);
        assert!(v_high > 0.0);
    }

    #[test]
    fn l3_gradient_flips_isolated_quiet_train() {
        // Hand case: one neuron, constant-zero train, td_min = 2.
        // ∂TD/∂O(t) = 2 for interior ticks (both neighbours are 0), so the
        // injected gradient must be −2 (increase diversity by spiking).
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(1, LifParams::default()).dense(1).build(&mut rng);
        let input = Tensor::zeros(Shape::d2(5, 1));
        let trace = net.forward(&input, RecordOptions::full());
        let mut inj = InjectedGrads::none(1);
        let v = l3_temporal_diversity(&net, &trace, &full_mask(&net), 2.0, 1.0, &mut inj);
        assert_eq!(v, 2.0);
        let g = inj.layer(0).unwrap();
        assert_eq!(g[[2, 0]], -2.0);
        assert_eq!(g[[0, 0]], -1.0); // boundary has one neighbour
    }

    #[test]
    fn l4_zero_for_identical_contributions() {
        // Two inputs with equal weights and equal counts ⇒ zero variance.
        let lif = LifParams::default();
        let l0 = snn_model::DenseLayer::new(
            Tensor::from_vec(Shape::d2(2, 2), vec![0.6, 0.6, 0.6, 0.6]).unwrap(),
            lif,
        );
        let l1 = snn_model::DenseLayer::new(
            Tensor::from_vec(Shape::d2(1, 2), vec![0.5, 0.5]).unwrap(),
            lif,
        );
        let net = Network::new(Shape::d1(2), vec![Layer::Dense(l0), Layer::Dense(l1)]);
        let input = Tensor::full(Shape::d2(12, 2), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        let mut inj = InjectedGrads::none(2);
        let v = L4Layout::new(&net).contribution_variance(&net, &trace, 1.0, &mut inj);
        assert!(v.abs() < 1e-6, "v={v}");
    }

    #[test]
    fn l4_penalizes_imbalanced_contributions() {
        let lif = LifParams::default();
        let l0 = snn_model::DenseLayer::new(
            Tensor::from_vec(Shape::d2(2, 2), vec![0.9, 0.0, 0.0, 0.2]).unwrap(),
            lif,
        );
        // second layer with very unequal weights
        let l1 = snn_model::DenseLayer::new(
            Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 0.05]).unwrap(),
            lif,
        );
        let net = Network::new(Shape::d1(2), vec![Layer::Dense(l0), Layer::Dense(l1)]);
        let input = Tensor::full(Shape::d2(20, 2), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        let mut inj = InjectedGrads::none(2);
        let v = L4Layout::new(&net).contribution_variance(&net, &trace, 1.0, &mut inj);
        assert!(v > 0.0);
        assert!(inj.layer(0).is_some(), "gradient lands on pre-synaptic spikes");
    }

    /// `L4` in its straightforward spelling: per row, collect the
    /// connected synapses and their contributions, divide per synapse.
    /// Returns the value and, for each layer `ℓ − 1` the loss reaches (the
    /// others stay empty), every `∂L4/∂count_j` beside the sum of the
    /// absolute per-row terms in it.
    fn l4_reference(net: &Network, trace: &Trace) -> (f32, Vec<Vec<(f32, f32)>>) {
        let mut value = 0.0;
        let mut grads = vec![Vec::new(); net.layers().len()];
        for (idx, layer) in net.layers().iter().enumerate().skip(1) {
            let weight = match layer {
                Layer::Dense(l) => &l.weight,
                Layer::Recurrent(l) => &l.w_in,
                _ => continue,
            };
            let cols = weight.shape().dim(1);
            let pre_counts = counts(trace, idx - 1);
            let mut dcount = vec![(0.0f32, 0.0f32); cols];
            for row in weight.as_slice().chunks_exact(cols) {
                let active: Vec<usize> = (0..cols).filter(|&j| row[j] != 0.0).collect();
                let m = active.len();
                if m < 2 {
                    continue;
                }
                let contrib: Vec<f32> = active.iter().map(|&j| row[j] * pre_counts[j]).collect();
                let mean = contrib.iter().sum::<f32>() / m as f32;
                value += contrib.iter().map(|c| (c - mean) * (c - mean)).sum::<f32>() / m as f32;
                for (k, &j) in active.iter().enumerate() {
                    let term = 2.0 * (contrib[k] - mean) / m as f32 * row[j];
                    dcount[j].0 += term;
                    dcount[j].1 += term.abs();
                }
            }
            grads[idx - 1] = dcount;
        }
        (value, grads)
    }

    proptest::proptest! {
        /// The loss against its reference on random dense/recurrent
        /// shapes with an all-zero column, an all-zero row (a silent
        /// pre-synaptic neuron one layer on) and scattered exact zeros that
        /// leave narrow rows fewer than two synapses: the value to the
        /// bit, every gradient element to rounding.
        #[test]
        fn l4_matches_its_straightforward_spelling(
            (inputs, hidden, outputs) in (1usize..6, 2usize..9, 1usize..6),
            recurrent in 0usize..4,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let builder = NetworkBuilder::new(inputs, LifParams { refrac_steps: 1, ..LifParams::default() });
            let builder = if recurrent & 1 == 0 { builder.dense(hidden) } else { builder.recurrent(hidden) };
            let builder = if recurrent & 2 == 0 { builder.dense(outputs) } else { builder.recurrent(outputs) };
            let mut net = builder.build(&mut rng);
            let sparsify = |w: &mut Tensor, rng: &mut StdRng| {
                let cols = w.shape().dim(1);
                for (i, w) in w.as_mut_slice().iter_mut().enumerate() {
                    // Neuron 0 has no synapse (and, in a dense layer, never
                    // fires); the last input is connected to nothing.
                    if i < cols || i % cols == cols - 1 || rng.gen_bool(0.2) {
                        *w = 0.0;
                    }
                }
            };
            for layer in net.layers_mut() {
                match layer {
                    Layer::Dense(l) => sparsify(&mut l.weight, &mut rng),
                    Layer::Recurrent(l) => sparsify(&mut l.w_in, &mut rng),
                    _ => {}
                }
            }
            let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(16, inputs), 0.7);
            let trace = net.forward(&input, RecordOptions::full());

            let (want, want_grads) = l4_reference(&net, &trace);
            let mut inj = InjectedGrads::none(2);
            let got = L4Layout::new(&net).contribution_variance(&net, &trace, 1.0, &mut inj);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            for (idx, want) in want_grads.iter().enumerate() {
                let Some(got) = inj.layer(idx) else {
                    proptest::prop_assert!(want.iter().all(|&(d, _)| d == 0.0));
                    continue;
                };
                for (got, (d, terms)) in got.as_slice().iter().zip(want.iter().cycle()) {
                    proptest::prop_assert!((got - d).abs() <= 1e-6 * terms, "{got} vs {d} ({terms})");
                }
            }
        }
    }

    #[test]
    fn l5_counts_hidden_spikes_and_pushes_down() {
        let net = small_net(3);
        let mut rng = StdRng::seed_from_u64(4);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(25, 5), 0.9);
        let trace = net.forward(&input, RecordOptions::full());
        let mut inj = InjectedGrads::none(2);
        let v = l5_hidden_activity(&net, &trace, 1.0, &mut inj);
        assert_eq!(v, trace.layers[0].output.sum());
        let g = inj.layer(0).unwrap();
        assert!(g.as_slice().iter().all(|&x| x == 1.0));
        assert!(inj.layer(1).is_none(), "output layer is exempt from L5");
    }

    #[test]
    fn output_preservation_is_zero_on_match() {
        let net = small_net(5);
        let mut rng = StdRng::seed_from_u64(6);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(15, 5), 0.7);
        let trace = net.forward(&input, RecordOptions::full());
        let reference = trace.output().clone();
        let mut inj = InjectedGrads::none(2);
        let v = output_preservation(&net, &trace, &reference, 5.0, &mut inj);
        assert_eq!(v, 0.0);
        assert!(inj.is_empty());

        // Perturb the reference: penalty appears with signed gradient.
        let mut wrong = reference.clone();
        wrong[0] = 1.0 - wrong[0];
        let mut inj2 = InjectedGrads::none(2);
        let v2 = output_preservation(&net, &trace, &wrong, 5.0, &mut inj2);
        assert_eq!(v2, 5.0);
        assert!(inj2.layer(1).is_some());
    }

    #[test]
    fn l6_flags_only_max_rate_neurons() {
        // One neuron with a huge drive fires at its physical maximum
        // (every refrac+1 ticks); with margin 0.8 it must be penalized.
        let lif = LifParams { threshold: 0.5, leak: 1.0, refrac_steps: 1 };
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Dense(snn_model::DenseLayer::new(
                Tensor::from_vec(Shape::d2(2, 1), vec![5.0, 0.01]).unwrap(),
                lif,
            ))],
        );
        let input = Tensor::full(Shape::d2(20, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        // neuron 0 fires 10× (max for refrac 1 over 20 ticks), neuron 1 never
        assert_eq!(trace.layers[0].spike_counts(), vec![10.0, 0.0]);

        let mut inj = InjectedGrads::none(1);
        let v = l6_saturation_margin(&net, &trace, 0.8, 1.0, &mut inj);
        assert!(v > 0.0);
        let g = inj.layer(0).unwrap();
        assert_eq!(g[[0, 0]], 1.0, "saturated neuron pushed down");
        assert_eq!(g[[0, 1]], 0.0, "quiet neuron untouched");

        // With a permissive margin nothing is penalized.
        let mut inj2 = InjectedGrads::none(1);
        assert_eq!(l6_saturation_margin(&net, &trace, 1.0, 1.0, &mut inj2), 0.0);
        assert!(inj2.is_empty());
    }

    #[test]
    #[should_panic(expected = "margin must be in")]
    fn l6_rejects_bad_margin() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(1, LifParams::default()).dense(1).build(&mut rng);
        let trace = net.forward(&Tensor::zeros(Shape::d2(2, 1)), RecordOptions::full());
        let mut inj = InjectedGrads::none(1);
        let _ = l6_saturation_margin(&net, &trace, 1.5, 1.0, &mut inj);
    }

    #[test]
    fn balance_weights_inverts_magnitudes() {
        let w = balance_weights(&[2.0, 0.5, 0.0]);
        assert_eq!(w[0], 0.5);
        assert_eq!(w[1], 2.0);
        assert!((w[2] - 1000.0).abs() < 0.01); // ε-floored
    }
}
