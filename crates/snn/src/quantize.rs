//! Post-training weight edits: int8 quantization and magnitude pruning.
//!
//! Neuromorphic accelerators store synaptic weights in small integer
//! memories; the paper's bit-flip synapse fault model explicitly assumes
//! a digital weight word. This module provides per-tensor symmetric int8
//! quantization so that (a) benchmarks can be evaluated in their deployed
//! precision and (b) the bit-flip fault campaign runs against a model
//! whose weights actually live on the int8 grid.

use crate::{Layer, Network};
use serde::{Deserialize, Serialize};

/// Quantization report: per-tensor scales and the worst rounding error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantReport {
    /// Per-layer, per-tensor scale factors (`weight ≈ q · scale`).
    pub scales: Vec<Vec<f32>>,
    /// Largest absolute rounding error across all weights.
    pub max_abs_error: f32,
    /// Mean absolute rounding error.
    pub mean_abs_error: f32,
}

/// Quantizes every weight tensor of `net` in place to the int8 grid
/// (symmetric, per-tensor scale `max|w| / 127`), returning the report.
///
/// Weights become exactly representable as `i8 · scale`, so a subsequent
/// [`FaultKind::SynapseBitFlip`](../../snn_faults/enum.FaultKind.html)
/// injection flips bits of the true stored word.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_model::{quantize_weights, LifParams, NetworkBuilder};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
/// let report = quantize_weights(&mut net);
/// assert!(report.max_abs_error <= net.max_abs_weight() / 127.0 * 0.5 + 1e-6);
/// ```
pub fn quantize_weights(net: &mut Network) -> QuantReport {
    let mut scales = Vec::with_capacity(net.layers().len());
    let mut max_err = 0.0f32;
    let mut err_sum = 0.0f64;
    let mut err_count = 0usize;
    for layer in net.layers_mut() {
        let mut layer_scales = Vec::new();
        for tensor in layer.weight_tensors_mut() {
            let scale = tensor.as_slice().iter().fold(0.0f32, |acc, v| acc.max(v.abs())) / 127.0;
            layer_scales.push(scale);
            if scale == 0.0 {
                continue; // all-zero tensor: already on the grid
            }
            for w in tensor.as_mut_slice() {
                let q = (*w / scale).round().clamp(-128.0, 127.0);
                let dequant = q * scale;
                let err = (*w - dequant).abs();
                max_err = max_err.max(err);
                err_sum += f64::from(err);
                err_count += 1;
                *w = dequant;
            }
        }
        scales.push(layer_scales);
    }
    QuantReport {
        scales,
        max_abs_error: max_err,
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_precision_loss,
            reason = "a rounded element count changes the mean by ≤1 ulp, and the f32 narrowing is the report's precision"
        )]
        mean_abs_error: if err_count == 0 { 0.0 } else { (err_sum / err_count as f64) as f32 },
    }
}

/// `true` if every weight of `net` lies exactly on its tensor's int8 grid
/// (i.e. [`quantize_weights`] would be a no-op).
pub fn is_quantized(net: &Network) -> bool {
    for layer in net.layers() {
        if let Layer::Pool(_) = layer {
            continue;
        }
        for tensor in layer.weight_tensors() {
            let scale = tensor.as_slice().iter().fold(0.0f32, |acc, v| acc.max(v.abs())) / 127.0;
            if scale == 0.0 {
                continue;
            }
            for &w in tensor.as_slice() {
                let q = (w / scale).round();
                if (w - q * scale).abs() > scale * 1e-3 {
                    return false;
                }
            }
        }
    }
    true
}

/// Zeroes the `fraction` smallest-magnitude weights of `net` (global
/// magnitude pruning, ties broken by enumeration order). Returns the
/// number of weights newly set to zero. Used by `snn-mtfc new
/// --sparsity` to produce realistic sparse example networks.
pub fn magnitude_prune(net: &mut Network, fraction: f64) -> usize {
    let total = net.synapse_count();
    let clamped = fraction.clamp(0.0, 1.0);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss,
        reason = "usize→f64→usize round-trip is exact for any real synapse count; the clamp keeps the index in range"
    )]
    let keep_cutoff = ((total as f64) * clamped).floor() as usize;
    let mut refs: Vec<(f32, usize)> =
        (0..total).map(|g| (net.weight(net.locate_weight(g)).abs(), g)).collect();
    refs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut zeroed = 0;
    for &(_, g) in refs.iter().take(keep_cutoff) {
        let r = net.locate_weight(g);
        if net.set_weight(r, 0.0) != 0.0 {
            zeroed += 1;
        }
    }
    zeroed
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::{LifParams, NetworkBuilder, RecordOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_tensor::Shape;

    #[test]
    fn quantization_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net =
            NetworkBuilder::new(6, LifParams::default()).dense(10).dense(3).build(&mut rng);
        assert!(!is_quantized(&net));
        let r1 = quantize_weights(&mut net);
        assert!(is_quantized(&net));
        let before = net.clone();
        let r2 = quantize_weights(&mut net);
        assert_eq!(net, before, "second quantization must be a no-op");
        assert!(r1.max_abs_error > 0.0);
        assert!(r2.max_abs_error < r1.max_abs_error.max(1e-6));
    }

    #[test]
    fn error_is_bounded_by_half_a_step() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = NetworkBuilder::new(5, LifParams::default()).dense(8).build(&mut rng);
        let step = net.max_abs_weight() / 127.0;
        let report = quantize_weights(&mut net);
        assert!(report.max_abs_error <= step * 0.5 + 1e-6);
        assert!(report.mean_abs_error <= report.max_abs_error);
        assert_eq!(report.scales.len(), 1);
    }

    #[test]
    fn behaviour_is_approximately_preserved() {
        // Quantization noise is small relative to the threshold, so spike
        // counts should barely move on a moderately active network.
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(8, LifParams::default()).dense(16).dense(4).build(&mut rng);
        let mut quant = net.clone();
        quantize_weights(&mut quant);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 8), 0.4);
        let a = net.forward(&input, RecordOptions::spikes_only());
        let b = quant.forward(&input, RecordOptions::spikes_only());
        let total: f32 = a.output().sum().max(1.0);
        let diff = a.output_distance(&b);
        assert!(
            diff / total < 0.35,
            "quantization changed {:.0}% of output spikes",
            100.0 * diff / total
        );
    }

    #[test]
    fn zero_tensor_is_handled() {
        use crate::{DenseLayer, Layer, Network};
        let lif = LifParams::default();
        let mut net = Network::new(
            Shape::d1(2),
            vec![Layer::Dense(DenseLayer::new(snn_tensor::Tensor::zeros(Shape::d2(2, 2)), lif))],
        );
        let report = quantize_weights(&mut net);
        assert_eq!(report.max_abs_error, 0.0);
        assert!(is_quantized(&net));
    }

    #[test]
    fn magnitude_prune_zeroes_the_requested_fraction_once() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net =
            NetworkBuilder::new(6, LifParams::default()).dense(8).dense(3).build(&mut rng);
        let total = net.synapse_count();
        let zeroed = magnitude_prune(&mut net, 0.5);
        assert_eq!(zeroed, total / 2); // Kaiming init: no pre-existing zeros
        let zeros = (0..total).filter(|&g| net.weight(net.locate_weight(g)) == 0.0).count();
        assert_eq!(zeros, total / 2);
        assert_eq!(magnitude_prune(&mut net, 0.5), 0, "idempotent on zeroes");
    }
}
