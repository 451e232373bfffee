//! Surrogate-gradient training of SNN classifiers.
//!
//! The benchmarks of the paper are *trained* networks (Table I reports
//! their prediction accuracy); faults are labelled critical or benign by
//! their effect on the trained model's predictions. This module provides a
//! compact trainer: softmax cross-entropy on output spike counts
//! (rate-coded readout), BPTT through the simulator, Adam on all weights,
//! plus a mild spike-rate regularizer that keeps hidden activity alive —
//! standard practice in surrogate-gradient SNN training.

use crate::{optim::Adam, InjectedGrads, Network, RecordOptions, Surrogate, Trace};
use snn_tensor::{Shape, Tensor};

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Adam learning rate.
    pub lr: f32,
    /// Surrogate derivative for BPTT.
    pub surrogate: Surrogate,
    /// Weight of the hidden spike-rate regularizer pulling the mean hidden
    /// rate toward `target_rate` (0 disables it).
    pub rate_reg: f32,
    /// Target mean spikes-per-neuron-per-tick for hidden layers.
    pub target_rate: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { lr: 0.01, surrogate: Surrogate::default(), rate_reg: 0.01, target_rate: 0.08 }
    }
}

/// Mini-batch trainer owning per-tensor Adam state.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_model::train::{TrainConfig, Trainer};
/// use snn_model::{LifParams, NetworkBuilder};
/// use snn_tensor::{Shape, Tensor};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = NetworkBuilder::new(4, LifParams::default())
///     .dense(8)
///     .dense(2)
///     .build(&mut rng);
/// let mut trainer = Trainer::new(&net, TrainConfig::default());
/// let sample = (Tensor::full(Shape::d2(6, 4), 1.0), 1usize);
/// let loss = trainer.train_batch(&mut net, std::slice::from_ref(&sample));
/// assert!(loss.is_finite());
/// ```
#[derive(Debug)]
pub struct Trainer {
    cfg: TrainConfig,
    adam: Vec<Vec<Adam>>,
}

impl Trainer {
    /// Creates a trainer with fresh optimizer state matching `net`'s
    /// weight tensors.
    pub fn new(net: &Network, cfg: TrainConfig) -> Self {
        let adam = net
            .layers()
            .iter()
            .map(|l| l.weight_tensors().into_iter().map(|t| Adam::new(t.shape().clone())).collect())
            .collect();
        Self { cfg, adam }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Accumulates gradients over `batch` and applies one Adam update.
    /// Returns the mean cross-entropy loss over the batch.
    ///
    /// Each sample is `(input [T × features], class label)`.
    ///
    /// # Panics
    ///
    /// Panics if a label is out of range or input shapes mismatch the
    /// network.
    pub fn train_batch(&mut self, net: &mut Network, batch: &[(Tensor, usize)]) -> f32 {
        assert!(!batch.is_empty(), "training batch must be non-empty");
        let classes = net.output_features();
        let num_layers = net.layers().len();
        let mut acc: Vec<Vec<Tensor>> = net
            .layers()
            .iter()
            .map(|l| {
                l.weight_tensors().into_iter().map(|t| Tensor::zeros(t.shape().clone())).collect()
            })
            .collect();
        let mut total_loss = 0.0f32;

        for (input, label) in batch {
            assert!(*label < classes, "label {label} out of range (<{classes})");
            let trace = net.forward(input, RecordOptions::full());
            let steps = trace.steps;
            let (loss, grad_counts) = softmax_xent(&trace, *label);
            total_loss += loss;

            let mut injected = InjectedGrads::none(num_layers);
            // Output-layer gradient: count = Σ_t s[t], so ∂L/∂s[t,k] is the
            // count gradient replicated over time.
            let last = num_layers - 1;
            let mut g_out = Tensor::zeros(Shape::d2(steps, classes));
            {
                let gd = g_out.as_mut_slice();
                for t in 0..steps {
                    gd[t * classes..(t + 1) * classes].copy_from_slice(&grad_counts);
                }
            }
            injected.set(last, g_out);

            // Hidden-rate regularizer: ½·reg·(mean_rate − target)² per layer.
            if self.cfg.rate_reg > 0.0 {
                for (idx, layer) in net.layers().iter().enumerate() {
                    if idx == last || !layer.is_spiking() {
                        continue;
                    }
                    let n = layer.out_features();
                    #[expect(
                        clippy::cast_precision_loss,
                        reason = "steps×neurons stays far below f32's 2^24 exact-integer limit"
                    )]
                    let rate = trace.layers[idx].output.sum() / (steps * n) as f32;
                    #[expect(
                        clippy::cast_precision_loss,
                        reason = "steps×neurons stays far below f32's 2^24 exact-integer limit"
                    )]
                    let g = self.cfg.rate_reg * (rate - self.cfg.target_rate) / (steps * n) as f32;
                    injected.set(idx, Tensor::full(Shape::d2(steps, n), g));
                }
            }

            let grads = net.backward(input, &trace, &injected, self.cfg.surrogate, true);
            for (la, lg) in acc.iter_mut().zip(grads.weights) {
                for (ta, tg) in la.iter_mut().zip(lg) {
                    #[expect(
                        clippy::cast_precision_loss,
                        reason = "batch sizes are small, exactly representable in f32"
                    )]
                    ta.axpy(1.0 / batch.len() as f32, &tg);
                }
            }
        }

        for (layer_idx, layer) in net.layers_mut().iter_mut().enumerate() {
            for (tensor_idx, t) in layer.weight_tensors_mut().into_iter().enumerate() {
                self.adam[layer_idx][tensor_idx].step(t, &acc[layer_idx][tensor_idx], self.cfg.lr);
            }
        }
        #[expect(clippy::cast_precision_loss, reason = "batch sizes are small, exact in f32")]
        let batch_len = batch.len() as f32;
        total_loss / batch_len
    }
}

/// Softmax cross-entropy on output spike counts. Returns the loss and
/// `∂L/∂count` per class.
fn softmax_xent(trace: &Trace, label: usize) -> (f32, Vec<f32>) {
    let counts = trace.class_counts();
    let max = counts.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = counts.iter().map(|&c| (c - max).exp()).collect();
    let z: f32 = exps.iter().sum();
    let probs: Vec<f32> = exps.iter().map(|&e| e / z).collect();
    let loss = -probs[label].max(1e-9).ln();
    let grad =
        probs.iter().enumerate().map(|(k, &p)| p - if k == label { 1.0 } else { 0.0 }).collect();
    (loss, grad)
}

/// Top-1 accuracy of `net` over labelled samples (rate-coded readout).
#[expect(
    clippy::cast_precision_loss,
    reason = "sample counts stay far below f32's 2^24 exact-integer limit"
)]
pub fn evaluate(net: &Network, samples: &[(Tensor, usize)]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = samples
        .iter()
        .filter(|(input, label)| {
            net.forward(input, RecordOptions::spikes_only()).predict() == *label
        })
        .count();
    correct as f32 / samples.len() as f32
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::{LifParams, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two linearly separable "temporal rate" classes: class 0 spikes on
    /// the first half of channels, class 1 on the second half.
    fn toy_dataset(
        rng: &mut StdRng,
        n: usize,
        features: usize,
        steps: usize,
    ) -> Vec<(Tensor, usize)> {
        (0..n)
            .map(|i| {
                let label = i % 2;
                let mut input = Tensor::zeros(Shape::d2(steps, features));
                for t in 0..steps {
                    for f in 0..features {
                        let hot = if label == 0 { f < features / 2 } else { f >= features / 2 };
                        let p = if hot { 0.7 } else { 0.05 };
                        if rng.gen::<f32>() < p {
                            input[[t, f]] = 1.0;
                        }
                    }
                }
                (input, label)
            })
            .collect()
    }

    #[test]
    fn training_improves_accuracy_on_separable_task() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = NetworkBuilder::new(8, LifParams { refrac_steps: 1, ..LifParams::default() })
            .dense(16)
            .dense(2)
            .build(&mut rng);
        let train: Vec<_> = toy_dataset(&mut rng, 40, 8, 12);
        let test: Vec<_> = toy_dataset(&mut rng, 20, 8, 12);

        let before = evaluate(&net, &test);
        let mut trainer = Trainer::new(&net, TrainConfig { lr: 0.02, ..TrainConfig::default() });
        let mut last_loss = f32::INFINITY;
        for _epoch in 0..15 {
            for chunk in train.chunks(8) {
                last_loss = trainer.train_batch(&mut net, chunk);
            }
        }
        let after = evaluate(&net, &test);
        assert!(
            after >= before && after >= 0.8,
            "accuracy before={before} after={after} loss={last_loss}"
        );
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = NetworkBuilder::new(6, LifParams { refrac_steps: 0, ..LifParams::default() })
            .dense(10)
            .dense(2)
            .build(&mut rng);
        let data = toy_dataset(&mut rng, 16, 6, 10);
        let mut trainer = Trainer::new(&net, TrainConfig::default());
        let first = trainer.train_batch(&mut net, &data);
        let mut last = first;
        for _ in 0..20 {
            last = trainer.train_batch(&mut net, &data);
        }
        assert!(last < first, "loss did not decrease: {first} → {last}");
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(2, LifParams::default()).dense(2).build(&mut rng);
        assert_eq!(evaluate(&net, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn train_rejects_out_of_range_label() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = NetworkBuilder::new(2, LifParams::default()).dense(2).build(&mut rng);
        let mut trainer = Trainer::new(&net, TrainConfig::default());
        let bad = (Tensor::zeros(Shape::d2(3, 2)), 5usize);
        trainer.train_batch(&mut net, std::slice::from_ref(&bad));
    }

    #[test]
    fn softmax_xent_gradient_sums_to_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new(3, LifParams::default()).dense(4).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(8, 3), 0.5);
        let trace = net.forward(&input, RecordOptions::spikes_only());
        let (loss, grad) = softmax_xent(&trace, 2);
        assert!(loss >= 0.0);
        let s: f32 = grad.iter().sum();
        assert!(s.abs() < 1e-5);
        assert!(grad[2] <= 0.0); // true-class gradient pushes count up
    }
}
