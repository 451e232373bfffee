use crate::{Layer, Network, Surrogate, Trace};
use snn_tensor::{ops, Shape, Tensor};

/// Per-layer gradients `∂L/∂O^ℓ` injected directly on spike trains.
///
/// The paper's loss functions L1–L5 are defined on the spike trains of
/// *every* layer (not only the network output), so BPTT must accept a
/// gradient contribution at each layer in addition to what flows back from
/// downstream layers. An entry of `None` means the loss does not look at
/// that layer directly.
///
/// # Example
///
/// ```
/// use snn_model::InjectedGrads;
/// use snn_tensor::{Shape, Tensor};
///
/// let mut inj = InjectedGrads::none(3);
/// inj.set(2, Tensor::full(Shape::d2(10, 5), -1.0)); // push output spikes up
/// assert!(inj.layer(2).is_some());
/// assert!(inj.layer(0).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedGrads {
    per_layer: Vec<Option<Tensor>>,
    /// Buffers [`clear`](Self::clear) took out of `per_layer`, kept so an
    /// optimizer loop refills them instead of allocating every step.
    spare: Vec<Option<Tensor>>,
}

impl InjectedGrads {
    /// No injected gradients on any of the `num_layers` layers.
    pub fn none(num_layers: usize) -> Self {
        Self { per_layer: vec![None; num_layers], spare: vec![None; num_layers] }
    }

    /// Back to no injected gradients on any layer, keeping the buffers
    /// for the next [`accumulate`](Self::accumulate).
    pub fn clear(&mut self) {
        for (live, spare) in self.per_layer.iter_mut().zip(&mut self.spare) {
            if live.is_some() {
                *spare = live.take();
            }
        }
    }

    /// The gradient of `layer` (`[steps × n]`, row-major) for a loss to
    /// add its terms into; all zeros if nothing was injected there yet.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or a gradient of another shape is
    /// already registered there.
    pub fn accumulate(&mut self, layer: usize, steps: usize, n: usize) -> &mut [f32] {
        let shape = Shape::d2(steps, n);
        let spare = &mut self.spare[layer];
        let grad = self.per_layer[layer].get_or_insert_with(|| match spare.take() {
            Some(mut reused) if *reused.shape() == shape => {
                reused.fill_zero();
                reused
            }
            _ => Tensor::zeros(shape.clone()),
        });
        assert_eq!(*grad.shape(), shape, "injected gradient shape mismatch at layer {layer}");
        grad.as_mut_slice()
    }

    /// Injects `grad` (`[T × n_out]`) on layer `layer`, accumulating with
    /// any gradient already registered there.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or shapes disagree with a
    /// previously set gradient.
    pub fn set(&mut self, layer: usize, grad: Tensor) {
        match &mut self.per_layer[layer] {
            slot @ None => *slot = Some(grad),
            Some(existing) => existing.axpy(1.0, &grad),
        }
    }

    /// The injected gradient for `layer`, if any.
    pub fn layer(&self, layer: usize) -> Option<&Tensor> {
        self.per_layer.get(layer).and_then(|g| g.as_ref())
    }

    /// Number of layers this instance covers.
    pub fn len(&self) -> usize {
        self.per_layer.len()
    }

    /// `true` if no layer has an injected gradient.
    pub fn is_empty(&self) -> bool {
        self.per_layer.iter().all(|g| g.is_none())
    }
}

/// Typed failure of a backward pass: the forward trace was not recorded
/// with enough state for credit assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackwardError {
    /// The trace lacks membrane potentials for `layer`; record the forward
    /// pass with [`RecordOptions::full`](crate::RecordOptions::full).
    MissingPotentials {
        /// Index of the offending layer.
        layer: usize,
    },
    /// The trace lacks integration gates for `layer`; record the forward
    /// pass with [`RecordOptions::full`](crate::RecordOptions::full).
    MissingGates {
        /// Index of the offending layer.
        layer: usize,
    },
}

impl std::fmt::Display for BackwardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingPotentials { layer } => write!(
                f,
                "layer {layer}: trace lacks membrane potentials; record with RecordOptions::full()"
            ),
            Self::MissingGates { layer } => {
                write!(f, "layer {layer}: trace lacks gates; record with RecordOptions::full()")
            }
        }
    }
}

impl std::error::Error for BackwardError {}

/// Result of a BPTT backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// `∂L/∂I`: gradient w.r.t. the network input, `[T × input_features]`.
    pub input: Tensor,
    /// Per-layer weight gradients (aligned with
    /// [`Layer::weight_tensors`]); empty vectors when weight gradients were
    /// not requested or the layer has no weights.
    pub weights: Vec<Vec<Tensor>>,
}

/// Reverse-time credit assignment through one LIF layer.
///
/// Inputs: accumulated spike-train gradient `out_grad[t, i] = ∂L/∂s[t, i]`,
/// the recorded pre-spike potentials and integration gates, LIF constants.
/// Output: `delta_z[t, i] = ∂L/∂z[t, i]` (gradient on the synaptic drive),
/// from which input and weight gradients follow by linearity.
///
/// For recurrent layers, `w_rec` routes `W_recᵀ·δz[t]` into the spike
/// gradient of tick `t−1`; because the sweep runs in reverse time, the
/// extra contribution at `t−1` is always fully accumulated before that tick
/// is processed, so a single sweep is exact.
///
/// The reset path uses the standard "detached reset": the spike's effect on
/// the carried potential is treated as a constant, which is what SLAYER and
/// most surrogate-gradient frameworks do for stability.
#[expect(clippy::too_many_arguments, reason = "the LIF constants travel unpacked")]
fn lif_temporal_backward(
    steps: usize,
    n: usize,
    out_grad: &Tensor,
    spikes: &Tensor,
    potential: &Tensor,
    gate: &Tensor,
    threshold: f32,
    leak: f32,
    surrogate: Surrogate,
    w_rec: Option<&Tensor>,
) -> Tensor {
    let mut delta_z = Tensor::zeros(Shape::d2(steps, n));
    let mut delta_c = vec![0.0f32; n];
    // Recurrent spike-gradient contributions flowing from tick t+1 to t;
    // a feed-forward layer has none and reads one all-zero row instead.
    let mut extra = vec![0.0f32; if w_rec.is_some() { steps * n } else { n }];
    let og = out_grad.as_slice();
    snn_tensor::sanitize::debug_assert_finite("lif_temporal_backward", "out_grad", og);
    let sp = spikes.as_slice();
    let pot = potential.as_slice();
    let gt = gate.as_slice();
    let mut dz_row = vec![0.0f32; n];
    for t in (0..steps).rev() {
        let row = t * n..(t + 1) * n;
        let (og, pot, sp, gt) =
            (&og[row.clone()], &pot[row.clone()], &sp[row.clone()], &gt[row.clone()]);
        let extra_row = if w_rec.is_some() { &extra[row.clone()] } else { &extra[..] };
        for i in 0..n {
            if gt[i] == 0.0 {
                // Refractory (or forced) tick: spike is constant and the
                // carried potential is held at zero, so both gradient
                // paths are cut.
                delta_c[i] = 0.0;
                dz_row[i] = 0.0;
                continue;
            }
            let g_spike = og[i] + extra_row[i];
            let dv = g_spike * surrogate.grad(pot[i] - threshold) + delta_c[i] * (1.0 - sp[i]);
            dz_row[i] = dv;
            delta_c[i] = dv * leak;
        }
        delta_z.as_mut_slice()[row].copy_from_slice(&dz_row);
        if let Some(w) = w_rec {
            if t > 0 {
                ops::matvec_t_acc(w, &dz_row, &mut extra[(t - 1) * n..t * n]);
            }
        }
    }
    // A steep surrogate slope or exploding recurrent weights surface here
    // first — before the poisoned gradient reaches the optimiser.
    snn_tensor::sanitize::debug_assert_finite(
        "lif_temporal_backward",
        "delta_z",
        delta_z.as_slice(),
    );
    delta_z
}

impl Network {
    /// Backpropagation-through-time with surrogate spike derivatives.
    ///
    /// `trace` must have been recorded with [`RecordOptions::full`]
    /// (potentials and gates present) on a *fault-free* forward pass of
    /// `input`. `injected` supplies the per-layer spike-train gradients of
    /// the loss; downstream-layer contributions are chained automatically.
    ///
    /// Returns `∂L/∂I` and, if `want_weights`, `∂L/∂W` for every layer.
    ///
    /// # Panics
    ///
    /// Panics if the trace lacks potentials/gates, if shapes are
    /// inconsistent, or if `injected.len()` differs from the layer count.
    /// Use [`try_backward`](Self::try_backward) to handle missing trace
    /// state as a typed error instead.
    ///
    /// [`RecordOptions::full`]: crate::RecordOptions::full
    #[expect(
        clippy::panic,
        reason = "documented panicking wrapper — try_backward is the fallible API"
    )]
    pub fn backward(
        &self,
        input: &Tensor,
        trace: &Trace,
        injected: &InjectedGrads,
        surrogate: Surrogate,
        want_weights: bool,
    ) -> Gradients {
        self.try_backward(input, trace, injected, surrogate, want_weights)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`backward`](Self::backward): returns a [`BackwardError`]
    /// when `trace` was recorded without the potentials/gates BPTT needs,
    /// instead of panicking.
    ///
    /// # Panics
    ///
    /// Still panics on shape inconsistencies and on an `injected` length
    /// differing from the layer count — those are programming errors, not
    /// recoverable conditions.
    pub fn try_backward(
        &self,
        input: &Tensor,
        trace: &Trace,
        injected: &InjectedGrads,
        surrogate: Surrogate,
        want_weights: bool,
    ) -> Result<Gradients, BackwardError> {
        let _span = snn_obs::span!("snn.backward");
        let num_layers = self.layers.len();
        assert_eq!(
            injected.len(),
            num_layers,
            "injected gradients cover {} layers, network has {num_layers}",
            injected.len()
        );
        assert_eq!(trace.layers.len(), num_layers, "trace/network layer count mismatch");
        let steps = trace.steps;

        let mut weight_grads: Vec<Vec<Tensor>> = self
            .layers
            .iter()
            .map(|l| {
                if want_weights {
                    l.weight_tensors()
                        .into_iter()
                        .map(|t| Tensor::zeros(t.shape().clone()))
                        .collect()
                } else {
                    Vec::new()
                }
            })
            .collect();

        // Gradient flowing into the *output spikes* of the layer currently
        // being processed. Starts at the top with the injected output grad.
        let mut downstream: Option<Tensor> = None;

        for idx in (0..num_layers).rev() {
            let layer = &self.layers[idx];
            let lt = &trace.layers[idx];
            let n = layer.out_features();
            let in_features = layer.in_features();

            // Accumulate ∂L/∂s^idx from downstream chain + direct injection.
            let mut out_grad =
                downstream.take().unwrap_or_else(|| Tensor::zeros(Shape::d2(steps, n)));
            assert_eq!(
                out_grad.shape().dims(),
                &[steps, n],
                "downstream gradient shape mismatch at layer {idx}"
            );
            if let Some(inj) = injected.layer(idx) {
                assert_eq!(
                    inj.shape().dims(),
                    &[steps, n],
                    "injected gradient shape mismatch at layer {idx}"
                );
                out_grad.axpy(1.0, inj);
            }

            // Input sequence seen by this layer during the forward pass.
            let layer_input: &Tensor = if idx == 0 { input } else { &trace.layers[idx - 1].output };
            let li = layer_input.as_slice();
            let mut in_grad = Tensor::zeros(Shape::d2(steps, in_features));

            match layer {
                Layer::Pool(l) => {
                    // Linear pass-through, all ticks at once.
                    let (h, w) = l.in_hw;
                    let (ogd, igd) = (out_grad.as_slice(), in_grad.as_mut_slice());
                    ops::avg_pool2d_backward(ogd, l.channels, h, w, l.k, igd);
                }
                Layer::Dense(l) => {
                    let (pot, gt) = trace_state(lt, idx)?;
                    let delta_z = lif_temporal_backward(
                        steps,
                        n,
                        &out_grad,
                        &lt.output,
                        pot,
                        gt,
                        l.lif.threshold,
                        l.lif.leak,
                        surrogate,
                        None,
                    );
                    let dz = delta_z.as_slice();
                    let igd = in_grad.as_mut_slice();
                    for t in 0..steps {
                        ops::matvec_t_acc(
                            &l.weight,
                            &dz[t * n..(t + 1) * n],
                            &mut igd[t * in_features..(t + 1) * in_features],
                        );
                        if want_weights {
                            ops::outer_acc(
                                &mut weight_grads[idx][0],
                                &dz[t * n..(t + 1) * n],
                                &li[t * in_features..(t + 1) * in_features],
                            );
                        }
                    }
                }
                Layer::Conv(l) => {
                    let (pot, gt) = trace_state(lt, idx)?;
                    let delta_z = lif_temporal_backward(
                        steps,
                        n,
                        &out_grad,
                        &lt.output,
                        pot,
                        gt,
                        l.lif.threshold,
                        l.lif.leak,
                        surrogate,
                        None,
                    );
                    let dz = delta_z.as_slice();
                    let (h, w) = l.in_hw;
                    // All ticks at once: rows are independent and the
                    // kernel batches them sixteen at a time.
                    let igd = in_grad.as_mut_slice();
                    ops::conv2d_backward_input(&l.spec, dz, h, w, &l.weight, igd);
                    if want_weights {
                        let w_grad = &mut weight_grads[idx][0];
                        for (dz, x) in dz.chunks_exact(n).zip(li.chunks_exact(in_features)) {
                            ops::conv2d_backward_weight(&l.spec, dz, x, h, w, w_grad);
                        }
                    }
                }
                Layer::Recurrent(l) => {
                    let (pot, gt) = trace_state(lt, idx)?;
                    let delta_z = lif_temporal_backward(
                        steps,
                        n,
                        &out_grad,
                        &lt.output,
                        pot,
                        gt,
                        l.lif.threshold,
                        l.lif.leak,
                        surrogate,
                        Some(&l.w_rec),
                    );
                    let dz = delta_z.as_slice();
                    let sp = lt.output.as_slice();
                    let igd = in_grad.as_mut_slice();
                    for t in 0..steps {
                        ops::matvec_t_acc(
                            &l.w_in,
                            &dz[t * n..(t + 1) * n],
                            &mut igd[t * in_features..(t + 1) * in_features],
                        );
                        if want_weights {
                            ops::outer_acc(
                                &mut weight_grads[idx][0],
                                &dz[t * n..(t + 1) * n],
                                &li[t * in_features..(t + 1) * in_features],
                            );
                            if t > 0 {
                                ops::outer_acc(
                                    &mut weight_grads[idx][1],
                                    &dz[t * n..(t + 1) * n],
                                    &sp[(t - 1) * n..t * n],
                                );
                            }
                        }
                    }
                }
            }
            downstream = Some(in_grad);
        }

        #[expect(clippy::expect_used, reason = "Network::new asserts a layer, so the loop ran")]
        let input = downstream.expect("network has at least one layer");
        Ok(Gradients { input, weights: weight_grads })
    }
}

fn trace_state(lt: &crate::LayerTrace, idx: usize) -> Result<(&Tensor, &Tensor), BackwardError> {
    let pot = lt.potential.as_ref().ok_or(BackwardError::MissingPotentials { layer: idx })?;
    let gt = lt.gate.as_ref().ok_or(BackwardError::MissingGates { layer: idx })?;
    Ok((pot, gt))
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::{DenseLayer, LifParams, NetworkBuilder, PoolLayer, RecordOptions, RecurrentLayer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn single_neuron_net(weight: f32, lif: LifParams) -> Network {
        Network::new(
            Shape::d1(1),
            vec![Layer::Dense(DenseLayer::new(
                Tensor::from_vec(Shape::d2(1, 1), vec![weight]).unwrap(),
                lif,
            ))],
        )
    }

    /// Hand-computed case: w = 0.4, λ = 1, θ = 1, no refractory, 3 ticks of
    /// input spikes. v = 0.4, 0.8, 1.2 — one spike at t = 2.
    /// Inject ∂L/∂s[2] = 1 with a FastSigmoid(5) surrogate:
    /// surrogate(0.2) = 1/(1+1)² = 0.25 = δv₂, and with λ = 1, detach-reset
    /// the same δv propagates to t = 1, 0. Input grad = w·δv = 0.1 per tick;
    /// weight grad = Σ δz·input = 0.75.
    #[test]
    fn hand_computed_gradient_single_neuron() {
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let net = single_neuron_net(0.4, lif);
        let input = Tensor::full(Shape::d2(3, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        assert_eq!(trace.output().as_slice(), &[0.0, 0.0, 1.0]);

        let mut inj = InjectedGrads::none(1);
        let mut g = Tensor::zeros(Shape::d2(3, 1));
        g[[2, 0]] = 1.0;
        inj.set(0, g);
        let surrogate = Surrogate::FastSigmoid { slope: 5.0 };
        let grads = net.backward(&input, &trace, &inj, surrogate, true);

        for t in 0..3 {
            assert!((grads.input[[t, 0]] - 0.1).abs() < 1e-5, "t={t}: {}", grads.input[[t, 0]]);
        }
        assert!((grads.weights[0][0][0] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn zero_injection_gives_zero_gradients() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(6).dense(2).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(8, 4), 0.5);
        let trace = net.forward(&input, RecordOptions::full());
        let grads =
            net.backward(&input, &trace, &InjectedGrads::none(2), Surrogate::default(), true);
        assert_eq!(grads.input.l1_norm(), 0.0);
        assert_eq!(grads.weights[0][0].l1_norm(), 0.0);
    }

    /// Refractory ticks hold the carried potential at zero, so no gradient
    /// may flow backward across them.
    #[test]
    fn refractory_cuts_temporal_gradient_path() {
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 2 };
        let net = single_neuron_net(1.0, lif);
        let input = Tensor::full(Shape::d2(6, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        // spikes at t = 0 and t = 3
        assert_eq!(trace.output().as_slice(), &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);

        let mut inj = InjectedGrads::none(1);
        let mut g = Tensor::zeros(Shape::d2(6, 1));
        g[[3, 0]] = 1.0;
        inj.set(0, g);
        let grads = net.backward(&input, &trace, &inj, Surrogate::default(), false);
        // Gradient reaches the input only at t = 3; ticks 1, 2 are
        // refractory and t = 0's influence is cut by the held reset.
        assert!(grads.input[[3, 0]] > 0.0);
        for t in [0usize, 1, 2, 4, 5] {
            assert_eq!(grads.input[[t, 0]], 0.0, "unexpected grad at t={t}");
        }
    }

    /// Leak < 1 shrinks the gradient geometrically as it flows back in time.
    #[test]
    fn leak_discounts_past_inputs() {
        let lif = LifParams { threshold: 10.0, leak: 0.5, refrac_steps: 0 };
        let net = single_neuron_net(0.1, lif);
        let input = Tensor::full(Shape::d2(4, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        assert_eq!(trace.output().sum(), 0.0); // never fires

        let mut inj = InjectedGrads::none(1);
        let mut g = Tensor::zeros(Shape::d2(4, 1));
        g[[3, 0]] = 1.0;
        inj.set(0, g);
        let grads = net.backward(&input, &trace, &inj, Surrogate::default(), false);
        let gi: Vec<f32> = (0..4).map(|t| grads.input[[t, 0]]).collect();
        // each step back is ×0.5
        assert!(gi[3] > 0.0);
        assert!((gi[2] / gi[3] - 0.5).abs() < 1e-5);
        assert!((gi[1] / gi[2] - 0.5).abs() < 1e-5);
        assert!((gi[0] / gi[1] - 0.5).abs() < 1e-5);
    }

    /// Injecting gradient on a *hidden* layer reaches the input — the
    /// mechanism the paper's L2–L5 losses rely on.
    #[test]
    fn hidden_layer_injection_reaches_input() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetworkBuilder::new(4, LifParams { refrac_steps: 0, ..LifParams::default() })
            .dense(6)
            .dense(2)
            .build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(10, 4), 0.6);
        let trace = net.forward(&input, RecordOptions::full());
        let mut inj = InjectedGrads::none(2);
        inj.set(0, Tensor::full(Shape::d2(10, 6), -1.0));
        let grads = net.backward(&input, &trace, &inj, Surrogate::default(), false);
        assert!(grads.input.l1_norm() > 0.0);
    }

    #[test]
    fn pool_layer_backward_is_linear_passthrough() {
        let net = Network::new(
            Shape::d3(1, 2, 2),
            vec![
                Layer::Pool(PoolLayer::new(1, (2, 2), 2)),
                Layer::Dense(DenseLayer::new(
                    Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap(),
                    LifParams { threshold: 0.4, leak: 1.0, refrac_steps: 0 },
                )),
            ],
        );
        let input = Tensor::full(Shape::d2(2, 4), 1.0);
        let trace = net.forward(&input, RecordOptions::full());
        let mut inj = InjectedGrads::none(2);
        inj.set(1, Tensor::full(Shape::d2(2, 1), 1.0));
        let grads = net.backward(&input, &trace, &inj, Surrogate::default(), false);
        // avg-pool spreads gradient uniformly: all 4 pixels at a firing tick
        // get the same share.
        let row0: Vec<f32> = (0..4).map(|i| grads.input[[0, i]]).collect();
        assert!(row0.iter().all(|&v| (v - row0[0]).abs() < 1e-6));
        assert!(row0[0] != 0.0);
    }

    /// Recurrent credit: injecting on the unit's spike at t=1 must produce
    /// input gradient at t=0 through the recurrent weight.
    #[test]
    fn recurrent_backward_assigns_credit_through_time() {
        let lif = LifParams { threshold: 1.0, leak: 1.0, refrac_steps: 0 };
        let l = RecurrentLayer::new(
            Tensor::from_vec(Shape::d2(1, 1), vec![0.6]).unwrap(),
            Tensor::from_vec(Shape::d2(1, 1), vec![0.9]).unwrap(),
            lif,
        );
        let net = Network::new(Shape::d1(1), vec![Layer::Recurrent(l)]);
        let input = Tensor::full(Shape::d2(3, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::full());

        let mut inj = InjectedGrads::none(1);
        let mut g = Tensor::zeros(Shape::d2(3, 1));
        g[[1, 0]] = 1.0;
        inj.set(0, g);
        let grads = net.backward(&input, &trace, &inj, Surrogate::default(), true);
        // t=0 input influences s[1] two ways: via carried membrane (λ) and
        // via the recurrent synapse if s[0]=1. Either way grad ≠ 0.
        assert!(grads.input[[0, 0]] != 0.0);
        assert!(grads.input[[1, 0]] != 0.0);
        assert_eq!(grads.input[[2, 0]], 0.0); // future can't influence past
                                              // W_rec gradient exists only if the unit spiked before t=1.
        let spiked_at_0 = trace.output().as_slice()[0] == 1.0;
        if spiked_at_0 {
            assert!(grads.weights[0][1].l1_norm() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "RecordOptions::full")]
    fn backward_requires_full_trace() {
        let lif = LifParams::default();
        let net = single_neuron_net(0.5, lif);
        let input = Tensor::full(Shape::d2(2, 1), 1.0);
        let trace = net.forward(&input, RecordOptions::spikes_only());
        let mut inj = InjectedGrads::none(1);
        inj.set(0, Tensor::full(Shape::d2(2, 1), 1.0));
        let _ = net.backward(&input, &trace, &inj, Surrogate::default(), false);
    }

    #[test]
    fn injected_grads_accumulate_on_set() {
        let mut inj = InjectedGrads::none(1);
        inj.set(0, Tensor::full(Shape::d2(2, 2), 1.0));
        inj.set(0, Tensor::full(Shape::d2(2, 2), 2.0));
        assert_eq!(inj.layer(0).unwrap().as_slice(), &[3.0, 3.0, 3.0, 3.0]);
        assert!(!inj.is_empty());
    }
}
