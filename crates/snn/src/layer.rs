use crate::LifParams;
use serde::{Deserialize, Serialize};
use snn_tensor::ops::{self, Conv2dSpec};
use snn_tensor::{Shape, Tensor};

/// Fully-connected spiking layer: `z = W · s_in`, LIF dynamics per output
/// neuron. Weight layout is `[out_features × in_features]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Synaptic weight matrix `[out × in]`.
    pub weight: Tensor,
    /// Neuron parameters shared by the layer.
    pub lif: LifParams,
    pub(crate) in_features: usize,
    pub(crate) out_features: usize,
}

impl DenseLayer {
    /// Creates a dense layer from an explicit weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-2.
    pub fn new(weight: Tensor, lif: LifParams) -> Self {
        let dims = weight.shape().dims();
        assert_eq!(dims.len(), 2, "dense weight must be rank-2");
        let (out_features, in_features) = (dims[0], dims[1]);
        Self { weight, lif, in_features, out_features }
    }
}

/// 2-D convolutional spiking layer. Weight layout `[out_c, in_c, k, k]`;
/// the paper counts *unique weights* as synapses, which this layer reports
/// through [`Layer::weight_count`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvLayer {
    /// Convolution geometry.
    pub spec: Conv2dSpec,
    /// Kernel weights `[out_c, in_c, k, k]`.
    pub weight: Tensor,
    /// Neuron parameters shared by the layer.
    pub lif: LifParams,
    /// Input spatial extent (height, width).
    pub in_hw: (usize, usize),
}

impl ConvLayer {
    /// Creates a convolutional layer.
    ///
    /// # Panics
    ///
    /// Panics if the weight tensor does not match `spec` or the kernel
    /// does not fit the padded input.
    pub fn new(spec: Conv2dSpec, in_hw: (usize, usize), weight: Tensor, lif: LifParams) -> Self {
        assert_eq!(weight.len(), spec.weight_count(), "conv weight length must match spec");
        let _ = spec.out_hw(in_hw.0, in_hw.1); // asserts that the kernel fits, with the geometry
        Self { spec, weight, lif, in_hw }
    }

    /// Output spatial extent.
    pub fn out_hw(&self) -> (usize, usize) {
        self.spec.out_hw(self.in_hw.0, self.in_hw.1)
    }
}

/// Non-spiking average-pooling layer (window `k`, stride `k`).
///
/// Pooling in SLAYER-style accelerators is a fixed averaging synapse; it
/// contributes no neurons and no trainable weights — consistent with the
/// paper's Table I, whose neuron counts exclude pooling stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolLayer {
    /// Channel count (unchanged by pooling).
    pub channels: usize,
    /// Input spatial extent (height, width).
    pub in_hw: (usize, usize),
    /// Pooling window and stride.
    pub k: usize,
}

impl PoolLayer {
    /// Creates an average-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or does not divide both spatial extents.
    pub fn new(channels: usize, in_hw: (usize, usize), k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        assert!(
            in_hw.0.is_multiple_of(k) && in_hw.1.is_multiple_of(k),
            "pool window {k} must divide input extent {in_hw:?}"
        );
        Self { channels, in_hw, k }
    }

    /// Output spatial extent.
    pub fn out_hw(&self) -> (usize, usize) {
        (self.in_hw.0 / self.k, self.in_hw.1 / self.k)
    }
}

/// Recurrent spiking layer: `z[t] = W_in · s_in[t] + W_rec · s_self[t−1]`.
///
/// Used by the SHD-like benchmark, mirroring the recurrent architectures
/// evaluated on the Spiking Heidelberg Digits dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecurrentLayer {
    /// Input weight matrix `[units × in_features]`.
    pub w_in: Tensor,
    /// Recurrent weight matrix `[units × units]`.
    pub w_rec: Tensor,
    /// Neuron parameters shared by the layer.
    pub lif: LifParams,
    pub(crate) in_features: usize,
    pub(crate) units: usize,
}

impl RecurrentLayer {
    /// Creates a recurrent layer from explicit weight matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrices are not rank-2 or disagree on the unit count.
    pub fn new(w_in: Tensor, w_rec: Tensor, lif: LifParams) -> Self {
        let din = w_in.shape().dims();
        let drec = w_rec.shape().dims();
        assert_eq!(din.len(), 2, "recurrent input weight must be rank-2");
        assert_eq!(drec.len(), 2, "recurrent weight must be rank-2");
        assert_eq!(drec[0], drec[1], "recurrent weight must be square");
        assert_eq!(din[0], drec[0], "unit count mismatch between W_in and W_rec");
        Self { in_features: din[1], units: din[0], w_in, w_rec, lif }
    }
}

/// One layer of a [`Network`](crate::Network).
///
/// Spiking layers (dense / conv / recurrent) own LIF neurons and trainable
/// weights; the pooling layer is a fixed non-spiking reduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected spiking layer.
    Dense(DenseLayer),
    /// Convolutional spiking layer.
    Conv(ConvLayer),
    /// Non-spiking average pooling.
    Pool(PoolLayer),
    /// Recurrent spiking layer.
    Recurrent(RecurrentLayer),
}

impl Layer {
    /// Flattened input size per timestep.
    pub fn in_features(&self) -> usize {
        match self {
            Layer::Dense(l) => l.in_features,
            Layer::Conv(l) => l.spec.in_channels * l.in_hw.0 * l.in_hw.1,
            Layer::Pool(l) => l.channels * l.in_hw.0 * l.in_hw.1,
            Layer::Recurrent(l) => l.in_features,
        }
    }

    /// Flattened output size per timestep.
    pub fn out_features(&self) -> usize {
        match self {
            Layer::Dense(l) => l.out_features,
            Layer::Conv(l) => {
                let (oh, ow) = l.out_hw();
                l.spec.out_channels * oh * ow
            }
            Layer::Pool(l) => {
                let (oh, ow) = l.out_hw();
                l.channels * oh * ow
            }
            Layer::Recurrent(l) => l.units,
        }
    }

    /// Structured output shape (`[n]` for dense/recurrent, `[c×h×w]` for
    /// conv/pool). Used by activity-map reporting (paper Fig. 8).
    pub fn out_shape(&self) -> Shape {
        match self {
            Layer::Dense(l) => Shape::d1(l.out_features),
            Layer::Conv(l) => {
                let (oh, ow) = l.out_hw();
                Shape::d3(l.spec.out_channels, oh, ow)
            }
            Layer::Pool(l) => {
                let (oh, ow) = l.out_hw();
                Shape::d3(l.channels, oh, ow)
            }
            Layer::Recurrent(l) => Shape::d1(l.units),
        }
    }

    /// The layer's stateless input transform for one timestep: the
    /// synaptic drive `W·x` of a dense layer, the convolution of a conv
    /// layer, the input half `W_in·x` of a recurrent layer's drive (the
    /// simulator adds the feedback half) and, for a pooling layer, the
    /// averaging that is its whole output. `x` is one `[in_features]`
    /// row, `out` one `[out_features]` row.
    ///
    /// Differential fault simulation recomputes single drives here; the
    /// clocked simulator computes a whole sequence's through
    /// `feedforward_rows`, which returns the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the row lengths disagree with the layer.
    pub fn feedforward(&self, x: &[f32], out: &mut [f32]) {
        match self {
            Layer::Dense(l) => ops::matvec(&l.weight, x, out),
            Layer::Conv(l) => ops::conv2d(&l.spec, x, l.in_hw.0, l.in_hw.1, &l.weight, out),
            Layer::Pool(l) => ops::avg_pool2d(x, l.channels, l.in_hw.0, l.in_hw.1, l.k, out),
            Layer::Recurrent(l) => ops::matvec(&l.w_in, x, out),
        }
    }

    /// [`feedforward`](Self::feedforward) over every row of a sequence:
    /// `input` is `[T × in_features]`, `out` `[T × out_features]`, and each
    /// output row has the bits `feedforward` gives for its input row.
    ///
    /// The drive of a whole stimulus does not depend on LIF state, so the
    /// simulator computes it up front, and a matrix layer does so from a
    /// column-major copy of its weights that skips exact-zero inputs —
    /// most of a spike train ([`ops::matvec_skip_zeros`]). The copy is
    /// made per call: weights are public fields that fault injection and
    /// training write, so a copy cached on the layer could go stale.
    /// A conv layer hands the whole sequence to [`ops::conv2d`], whose
    /// time-batched kernel takes sixteen ticks at once, and a pooling
    /// layer to [`ops::avg_pool2d`].
    pub(crate) fn feedforward_rows(&self, input: &[f32], out: &mut [f32]) {
        match self {
            Layer::Dense(DenseLayer { weight, .. })
            | Layer::Recurrent(RecurrentLayer { w_in: weight, .. }) => {
                let wt = ops::transposed(weight);
                let rows = input
                    .chunks_exact(self.in_features().max(1))
                    .zip(out.chunks_exact_mut(self.out_features().max(1)));
                for (x, z) in rows {
                    ops::matvec_skip_zeros(&wt, x, z);
                }
            }
            Layer::Conv(l) => ops::conv2d(&l.spec, input, l.in_hw.0, l.in_hw.1, &l.weight, out),
            Layer::Pool(l) => ops::avg_pool2d(input, l.channels, l.in_hw.0, l.in_hw.1, l.k, out),
        }
    }

    /// `true` if the layer contains LIF neurons.
    pub fn is_spiking(&self) -> bool {
        !matches!(self, Layer::Pool(_))
    }

    /// The LIF parameters, if this is a spiking layer.
    pub fn lif(&self) -> Option<&LifParams> {
        match self {
            Layer::Dense(l) => Some(&l.lif),
            Layer::Conv(l) => Some(&l.lif),
            Layer::Recurrent(l) => Some(&l.lif),
            Layer::Pool(_) => None,
        }
    }

    /// Number of trainable weights ("synapses" in the paper's Table I
    /// accounting: unique weights, so convolutions count kernel parameters).
    pub fn weight_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.weight.len(),
            Layer::Conv(l) => l.weight.len(),
            Layer::Pool(_) => 0,
            Layer::Recurrent(l) => l.w_in.len() + l.w_rec.len(),
        }
    }

    /// Immutable references to the layer's weight tensors (0, 1 or 2 of
    /// them).
    pub fn weight_tensors(&self) -> Vec<&Tensor> {
        match self {
            Layer::Dense(l) => vec![&l.weight],
            Layer::Conv(l) => vec![&l.weight],
            Layer::Pool(_) => vec![],
            Layer::Recurrent(l) => vec![&l.w_in, &l.w_rec],
        }
    }

    /// Mutable references to the layer's weight tensors.
    pub fn weight_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Layer::Dense(l) => vec![&mut l.weight],
            Layer::Conv(l) => vec![&mut l.weight],
            Layer::Pool(_) => vec![],
            Layer::Recurrent(l) => vec![&mut l.w_in, &mut l.w_rec],
        }
    }

    /// Short kind name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Dense(_) => "dense",
            Layer::Conv(_) => "conv",
            Layer::Pool(_) => "pool",
            Layer::Recurrent(_) => "recurrent",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_tensor::Shape;

    fn lif() -> LifParams {
        LifParams::default()
    }

    #[test]
    fn dense_layer_reports_features() {
        let l = Layer::Dense(DenseLayer::new(Tensor::zeros(Shape::d2(3, 5)), lif()));
        assert_eq!(l.in_features(), 5);
        assert_eq!(l.out_features(), 3);
        assert_eq!(l.weight_count(), 15);
        assert!(l.is_spiking());
        assert_eq!(l.kind(), "dense");
    }

    #[test]
    fn conv_layer_geometry() {
        let spec = Conv2dSpec::new(2, 16, 5, 1, 2);
        let l =
            Layer::Conv(ConvLayer::new(spec, (32, 32), Tensor::zeros(spec.weight_shape()), lif()));
        assert_eq!(l.in_features(), 2 * 32 * 32);
        assert_eq!(l.out_features(), 16 * 32 * 32);
        assert_eq!(l.weight_count(), 16 * 2 * 25);
        assert_eq!(l.out_shape().dims(), &[16, 32, 32]);
    }

    #[test]
    fn pool_layer_has_no_neurons_or_weights() {
        let l = Layer::Pool(PoolLayer::new(2, (128, 128), 4));
        assert!(!l.is_spiking());
        assert!(l.lif().is_none());
        assert_eq!(l.weight_count(), 0);
        assert_eq!(l.out_features(), 2 * 32 * 32);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn pool_rejects_non_dividing_window() {
        PoolLayer::new(1, (34, 34), 4);
    }

    #[test]
    fn recurrent_layer_counts_both_matrices() {
        let l = Layer::Recurrent(RecurrentLayer::new(
            Tensor::zeros(Shape::d2(8, 20)),
            Tensor::zeros(Shape::d2(8, 8)),
            lif(),
        ));
        assert_eq!(l.in_features(), 20);
        assert_eq!(l.out_features(), 8);
        assert_eq!(l.weight_count(), 8 * 20 + 64);
        assert_eq!(l.weight_tensors().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unit count mismatch")]
    fn recurrent_rejects_mismatched_units() {
        RecurrentLayer::new(Tensor::zeros(Shape::d2(8, 20)), Tensor::zeros(Shape::d2(9, 9)), lif());
    }
}
