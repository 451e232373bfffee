//! Interval analysis over LIF dynamics.
//!
//! Treats every feature entering a layer as an arbitrary per-tick value
//! in `[0, 1]` — a sound superset of everything the simulator can
//! produce (network stimuli are binary spikes, spiking layers emit
//! `{0, 1}`, average-pool layers emit `[0, 1]`). Under that model the
//! drive `z` of a neuron is bounded by
//!
//! ```text
//! z = Σ wᵢ·sᵢ   ≤   Σ max(wᵢ, 0) = z_max
//! ```
//!
//! and the membrane recursion `v ← λ·v + z` (carried potential resets
//! on spike, so the no-spike trajectory is the supremum) is bounded by
//! `v ≤ z_max / (1 − λ)` for `λ < 1`. A neuron whose bound provably
//! stays below its threshold can never fire — its `NeuronDead` fault is
//! untestable and it is silent towards every later layer
//! ([`IntervalAnalysis::dead_mask`]).
//!
//! Two guards keep the f64 bounds sound against the simulator's f32
//! arithmetic (see DESIGN.md §10 for the full argument):
//!
//! * **Dead** requires `z_max ≤ 0` (exact: an f32 sum of non-positive
//!   terms is non-positive, and thresholds are validated > 0), or a
//!   relative margin `v_sup < θ·(1 − 1e-3)` with `1 − λ ≥ 1e-4`.
//! * **Excitable** (report-only) is decided by iterating the f32
//!   recursion itself with a slightly *deflated* drive, so rounding can
//!   only lose excitable verdicts, never invent them.

use snn_model::{Layer, LifParams, Network};

/// Relative margin between a provable bound and the threshold: protects
/// the f64 bound arithmetic against the simulator's f32 rounding. Costs
/// only analysis yield (borderline neurons stay `Undecided`), never
/// soundness.
const MARGIN: f64 = 1e-3;

/// Ticks the excitability iteration is given to reach threshold.
const EXCITE_HORIZON: usize = 4096;

/// Static classification of one spiking neuron.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeuronClass {
    /// Provably reaches threshold under some binary input.
    Excitable,
    /// Provably never reaches threshold under any `[0,1]` input.
    Dead,
    /// Neither bound is conclusive.
    Undecided,
}

/// Per-layer analysis facts.
#[derive(Debug, Clone)]
pub struct LayerAnalysis {
    /// Class per output neuron. Empty for pool layers (no neurons).
    pub class: Vec<NeuronClass>,
    /// Upper drive bound per output neuron (conv: the per-out-channel
    /// bound, replicated across the channel's positions). Empty for
    /// pool layers.
    pub z_max: Vec<f64>,
    /// Silence of each *output* feature of this layer (`true` = the
    /// feature is provably 0 on every tick).
    pub silent_out: Vec<bool>,
}

/// Result of analyzing a whole network.
#[derive(Debug, Clone)]
pub struct IntervalAnalysis {
    layers: Vec<LayerAnalysis>,
}

impl IntervalAnalysis {
    /// Runs the analysis over `net`.
    pub fn new(net: &Network) -> Self {
        let mut silent = vec![false; net.input_features()];
        // Inputs to the current layer are freely choosable binary values
        // as long as only pool layers have been crossed: pool windows
        // are disjoint, so each pooled feature is still independently
        // drivable to exactly 0 or 1.
        let mut free = true;
        let mut layers = Vec::with_capacity(net.layers().len());
        for layer in net.layers() {
            let la = match layer {
                Layer::Pool(p) => pool_analysis(p, &silent),
                Layer::Dense(d) => {
                    let rows = d.weight.shape().dims()[0];
                    dense_like(&weights_rows(&d.weight, rows), &d.lif, &silent, free)
                }
                Layer::Recurrent(r) => recurrent_analysis(r, &silent, free),
                Layer::Conv(c) => conv_analysis(c, &silent),
            };
            if !matches!(layer, Layer::Pool(_)) {
                free = false;
            }
            silent.clone_from(&la.silent_out);
            layers.push(la);
        }
        Self { layers }
    }

    /// Per-layer facts, indexed like `Network::layers()`.
    pub fn layers(&self) -> &[LayerAnalysis] {
        &self.layers
    }

    /// Class of a spiking neuron; `Undecided` for out-of-range queries
    /// (pool layers have no entries).
    pub fn class(&self, layer: usize, index: usize) -> NeuronClass {
        self.layers
            .get(layer)
            .and_then(|l| l.class.get(index))
            .copied()
            .unwrap_or(NeuronClass::Undecided)
    }

    /// Per-layer dead-neuron masks shaped like the generator's
    /// activation bookkeeping: one `Vec<bool>` per layer, empty for
    /// non-spiking layers.
    pub fn dead_mask(&self, net: &Network) -> Vec<Vec<bool>> {
        net.layers()
            .iter()
            .zip(&self.layers)
            .map(|(layer, la)| {
                if layer.is_spiking() {
                    la.class.iter().map(|&c| c == NeuronClass::Dead).collect()
                } else {
                    Vec::new()
                }
            })
            .collect()
    }

    /// Totals: `(dead, excitable, undecided)` over all spiking neurons.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut dead = 0;
        let mut excitable = 0;
        let mut undecided = 0;
        for la in &self.layers {
            for c in &la.class {
                match c {
                    NeuronClass::Dead => dead += 1,
                    NeuronClass::Excitable => excitable += 1,
                    NeuronClass::Undecided => undecided += 1,
                }
            }
        }
        (dead, excitable, undecided)
    }
}

/// `true` when a neuron with upper drive bound `z_max` provably never
/// reaches `threshold`. Sound against f32 simulation: the `z_max ≤ 0`
/// case is exact, the margin case keeps a `MARGIN` gap and refuses
/// leaks within `1e-4` of 1 (where rounding amplification of the
/// geometric sum could eat a smaller margin).
fn provably_dead(z_max: f64, lif: &LifParams) -> bool {
    if z_max <= 0.0 {
        return true;
    }
    let leak = f64::from(lif.leak);
    let one_minus = 1.0 - leak;
    if one_minus < 1e-4 {
        return false;
    }
    let v_sup = z_max / one_minus;
    v_sup < f64::from(lif.threshold) * (1.0 - MARGIN)
}

/// `true` when a neuron is provably excitable: iterates the simulator's
/// own f32 recursion `v ← λ·v + z` under a deflated constant drive.
/// `terms` is the number of summands behind `z_pos` (bounds the f32
/// summation error the deflation must absorb).
fn provably_excitable(z_pos: f64, terms: usize, lif: &LifParams) -> bool {
    if z_pos <= 0.0 {
        return false;
    }
    let deflate = 1.0 - (terms as f64) * 1e-7 - 1e-6;
    if deflate <= 0.0 {
        return false;
    }
    let z = (z_pos * deflate) as f32;
    let mut v = 0.0f32;
    for _ in 0..EXCITE_HORIZON {
        v = lif.leak * v + z;
        if v >= lif.threshold {
            return true;
        }
    }
    false
}

/// Row-major `[out × in]` weight rows as slices.
fn weights_rows(weight: &snn_tensor::Tensor, rows: usize) -> Vec<&[f32]> {
    let data = weight.as_slice();
    let cols = data.len().checked_div(rows).unwrap_or(0);
    (0..rows).map(|r| &data[r * cols..(r + 1) * cols]).collect()
}

/// Upper drive bound of one weight row over its non-silent inputs.
fn bound_over(row: &[f32], silent: &[bool]) -> f64 {
    row.iter()
        .enumerate()
        .filter(|&(i, _)| !silent.get(i).copied().unwrap_or(false))
        .map(|(_, &w)| f64::from(w).max(0.0))
        .sum()
}

fn dense_like(rows: &[&[f32]], lif: &LifParams, silent_in: &[bool], free: bool) -> LayerAnalysis {
    let mut class = Vec::with_capacity(rows.len());
    let mut z_max = Vec::with_capacity(rows.len());
    for row in rows {
        let hi = bound_over(row, silent_in);
        let c = if provably_dead(hi, lif) {
            NeuronClass::Dead
        } else if free && provably_excitable(hi, row.len(), lif) {
            NeuronClass::Excitable
        } else {
            NeuronClass::Undecided
        };
        class.push(c);
        z_max.push(hi);
    }
    let silent_out = class.iter().map(|&c| c == NeuronClass::Dead).collect();
    LayerAnalysis { class, z_max, silent_out }
}

fn pool_analysis(p: &snn_model::PoolLayer, silent_in: &[bool]) -> LayerAnalysis {
    let (h, w) = p.in_hw;
    let (oh, ow) = p.out_hw();
    let k = p.k;
    let mut silent_out = Vec::with_capacity(p.channels * oh * ow);
    for c in 0..p.channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut all_silent = true;
                'window: for dy in 0..k {
                    for dx in 0..k {
                        let idx = c * h * w + (oy * k + dy) * w + (ox * k + dx);
                        if !silent_in.get(idx).copied().unwrap_or(false) {
                            all_silent = false;
                            break 'window;
                        }
                    }
                }
                silent_out.push(all_silent);
            }
        }
    }
    LayerAnalysis { class: Vec::new(), z_max: Vec::new(), silent_out }
}

/// `true` when every position of input channel `ic` is silent.
fn conv_channel_silent(c: &snn_model::ConvLayer, silent_in: &[bool], ic: usize) -> bool {
    let (h, w) = c.in_hw;
    (0..h * w).all(|p| silent_in.get(ic * h * w + p).copied().unwrap_or(false))
}

fn conv_analysis(c: &snn_model::ConvLayer, silent_in: &[bool]) -> LayerAnalysis {
    let k = c.spec.kernel;
    let in_c = c.spec.in_channels;
    let out_c = c.spec.out_channels;
    let (oh, ow) = c.out_hw();
    let data = c.weight.as_slice();
    let channel_silent: Vec<bool> =
        (0..in_c).map(|ic| conv_channel_silent(c, silent_in, ic)).collect();
    let mut class = Vec::with_capacity(out_c * oh * ow);
    let mut z_max = Vec::with_capacity(out_c * oh * ow);
    let mut silent_out = Vec::with_capacity(out_c * oh * ow);
    for oc in 0..out_c {
        let mut hi = 0.0f64;
        for (ic, &ch_silent) in channel_silent.iter().enumerate() {
            if ch_silent {
                continue;
            }
            let base = (oc * in_c + ic) * k * k;
            hi += data[base..base + k * k].iter().map(|&w| f64::from(w).max(0.0)).sum::<f64>();
        }
        // Padding and window clipping only remove summands, so the
        // full-kernel bound holds at every spatial position. Conv
        // excitability is not claimed (clipped positions may see less
        // drive than the channel bound), so non-dead channels stay
        // Undecided.
        let cls =
            if provably_dead(hi, &c.lif) { NeuronClass::Dead } else { NeuronClass::Undecided };
        for _ in 0..oh * ow {
            class.push(cls);
            z_max.push(hi);
            silent_out.push(cls == NeuronClass::Dead);
        }
    }
    LayerAnalysis { class, z_max, silent_out }
}

fn recurrent_analysis(
    r: &snn_model::RecurrentLayer,
    silent_in: &[bool],
    free: bool,
) -> LayerAnalysis {
    let units = r.w_rec.shape().dims()[0];
    let in_rows = weights_rows(&r.w_in, units);
    let rec = r.w_rec.as_slice();
    // Feedforward part of the bound, fixed across the fixpoint.
    let base: Vec<f64> = in_rows.iter().map(|row| bound_over(row, silent_in)).collect();
    // Monotone fixpoint: a neuron proven dead stops contributing its
    // recurrent weight to every other bound, which can only shrink
    // bounds and hence only grow the dead set — each pass either adds a
    // neuron or terminates, so the loop runs at most `units` passes.
    let mut dead = vec![false; units];
    loop {
        let mut changed = false;
        for j in 0..units {
            if dead[j] {
                continue;
            }
            let mut hi = base[j];
            for k in 0..units {
                if !dead[k] {
                    hi += f64::from(rec[j * units + k]).max(0.0);
                }
            }
            if provably_dead(hi, &r.lif) {
                dead[j] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut class = Vec::with_capacity(units);
    let mut z_max = Vec::with_capacity(units);
    for j in 0..units {
        let mut hi = base[j];
        for k in 0..units {
            if !dead[k] {
                hi += f64::from(rec[j * units + k]).max(0.0);
            }
        }
        let c = if dead[j] {
            NeuronClass::Dead
        } else if free {
            // Excitability under chosen inputs must survive whatever the
            // recurrent feedback does: assume every recurrent source
            // fires a worst-case (most negative) pattern.
            let mut rec_neg = 0.0f64;
            for k in 0..units {
                rec_neg += f64::from(rec[j * units + k]).min(0.0);
            }
            let drive = base[j] + rec_neg;
            if provably_excitable(drive, r.w_in.len() / units.max(1) + units, &r.lif) {
                NeuronClass::Excitable
            } else {
                NeuronClass::Undecided
            }
        } else {
            NeuronClass::Undecided
        };
        class.push(c);
        z_max.push(hi);
    }
    LayerAnalysis { class, z_max, silent_out: dead }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_model::{DenseLayer, LifParams, Network};
    use snn_tensor::{Shape, Tensor};

    fn lif() -> LifParams {
        LifParams { threshold: 1.0, leak: 0.5, refrac_steps: 1 }
    }

    fn dense_net(rows: usize, cols: usize, weights: Vec<f32>) -> Network {
        let t = Tensor::from_vec(Shape::d2(rows, cols), weights).unwrap();
        Network::new(Shape::d1(cols), vec![Layer::Dense(DenseLayer::new(t, lif()))])
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "asserting the exact 0.0 bound for all-negative fan-in")]
    fn all_negative_fanin_is_dead() {
        let net = dense_net(1, 3, vec![-0.5, -0.1, -2.0]);
        let a = IntervalAnalysis::new(&net);
        assert_eq!(a.class(0, 0), NeuronClass::Dead);
        assert_eq!(a.layers()[0].z_max[0], 0.0);
    }

    #[test]
    fn subthreshold_geometric_sum_is_dead() {
        // z_max = 0.4, leak 0.5 → v_sup = 0.8 < 1.0·(1 − margin).
        let net = dense_net(1, 2, vec![0.4, -1.0]);
        let a = IntervalAnalysis::new(&net);
        assert_eq!(a.class(0, 0), NeuronClass::Dead);
    }

    #[test]
    fn strong_drive_is_excitable() {
        let net = dense_net(1, 2, vec![1.5, -1.0]);
        let a = IntervalAnalysis::new(&net);
        assert_eq!(a.class(0, 0), NeuronClass::Excitable);
    }

    #[test]
    fn borderline_drive_is_undecided() {
        // v_sup = 1.0 exactly: inside the margin band on both sides.
        let net = dense_net(1, 1, vec![0.5]);
        let a = IntervalAnalysis::new(&net);
        assert_eq!(a.class(0, 0), NeuronClass::Undecided);
    }

    #[test]
    fn silence_propagates_through_layers() {
        // Layer 0 neuron is dead; layer 1 sees only the dead feature, so
        // its huge weight is inert and it is dead too.
        let l0 = Tensor::from_vec(Shape::d2(1, 1), vec![-1.0]).unwrap();
        let l1 = Tensor::from_vec(Shape::d2(1, 1), vec![50.0]).unwrap();
        let net = Network::new(
            Shape::d1(1),
            vec![
                Layer::Dense(DenseLayer::new(l0, lif())),
                Layer::Dense(DenseLayer::new(l1, lif())),
            ],
        );
        let a = IntervalAnalysis::new(&net);
        assert_eq!(a.class(0, 0), NeuronClass::Dead);
        assert!(a.layers()[0].silent_out[0]);
        assert_eq!(a.class(1, 0), NeuronClass::Dead);
        let (dead, _, _) = a.counts();
        assert_eq!(dead, 2);
    }

    #[test]
    fn dead_mask_matches_layout() {
        let net = dense_net(2, 2, vec![-1.0, -1.0, 2.0, 2.0]);
        let a = IntervalAnalysis::new(&net);
        let mask = a.dead_mask(&net);
        assert_eq!(mask, vec![vec![true, false]]);
    }

    #[test]
    fn recurrent_fixpoint_excludes_dead_sources() {
        use snn_model::RecurrentLayer;
        // Unit 0: w_in = -1 → dead regardless of recurrence (positive
        // rec weight comes only from itself, excluded after pass 1...
        // actually from unit 1). Unit 1 is driven only by unit 0's spike
        // through w_rec, so once unit 0 is proven dead, unit 1's bound
        // drops to its w_in part (0.2) and it is proven dead too.
        let w_in = Tensor::from_vec(Shape::d2(2, 1), vec![-1.0, 0.2]).unwrap();
        let w_rec = Tensor::from_vec(Shape::d2(2, 2), vec![0.0, 0.0, 5.0, 0.0]).unwrap();
        let net = Network::new(
            Shape::d1(1),
            vec![Layer::Recurrent(RecurrentLayer::new(w_in, w_rec, lif()))],
        );
        let a = IntervalAnalysis::new(&net);
        assert_eq!(a.class(0, 0), NeuronClass::Dead);
        assert_eq!(a.class(0, 1), NeuronClass::Dead);
    }
}
