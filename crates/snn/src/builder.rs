use crate::{ConvLayer, DenseLayer, Layer, LifParams, Network, PoolLayer, RecurrentLayer};
use rand::Rng;
use snn_tensor::{init, ops::Conv2dSpec, Shape};

/// Incremental constructor for a [`Network`].
///
/// The builder tracks the running feature count and (for conv/pool stages)
/// spatial geometry, so layers only need their own hyper-parameters.
/// Weights are Kaiming-initialized with the supplied RNG at
/// [`NetworkBuilder::build`] time, making whole experiments seedable.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_model::{LifParams, NetworkBuilder};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// // IBM-DVS-like topology at reduced scale:
/// let net = NetworkBuilder::new_spatial(2, 32, 32, LifParams::default())
///     .conv(8, 5, 1, 2)
///     .avg_pool(2)
///     .conv(16, 3, 1, 1)
///     .avg_pool(2)
///     .dense(128)
///     .dense(11)
///     .build(&mut rng);
/// assert_eq!(net.output_features(), 11);
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    input_shape: Shape,
    // Running geometry: Some((c, h, w)) while the tensor is spatial.
    spatial: Option<(usize, usize, usize)>,
    features: usize,
    lif: LifParams,
    layers: Vec<PendingLayer>,
}

/// Kaiming initialization gain of every layer's input weights: large
/// enough that a fresh network spikes out of the box.
const GAIN: f32 = 2.5;

#[derive(Debug)]
enum PendingLayer {
    Dense { out: usize, lif: LifParams },
    Conv { spec: Conv2dSpec, in_hw: (usize, usize), lif: LifParams },
    Pool { channels: usize, in_hw: (usize, usize), k: usize },
    Recurrent { units: usize, lif: LifParams },
}

impl NetworkBuilder {
    /// Starts a network with a flat (vector) input of `input_features` per
    /// timestep — e.g. 700 for SHD-like audio.
    pub fn new(input_features: usize, lif: LifParams) -> Self {
        Self {
            input_shape: Shape::d1(input_features),
            spatial: None,
            features: input_features,
            lif,
            layers: Vec::new(),
        }
    }

    /// Starts a network with a spatial `c × h × w` input per timestep —
    /// e.g. `2 × 34 × 34` for an NMNIST-like DVS stream.
    pub fn new_spatial(c: usize, h: usize, w: usize, lif: LifParams) -> Self {
        Self {
            input_shape: Shape::d3(c, h, w),
            spatial: Some((c, h, w)),
            features: c * h * w,
            lif,
            layers: Vec::new(),
        }
    }

    /// Changes the LIF parameters used by layers added *after* this call.
    pub fn lif(mut self, lif: LifParams) -> Self {
        self.lif = lif;
        self
    }

    /// Appends a fully-connected spiking layer with `out` neurons.
    /// Any spatial structure is flattened.
    pub fn dense(mut self, out: usize) -> Self {
        self.layers.push(PendingLayer::Dense { out, lif: self.lif });
        self.features = out;
        self.spatial = None;
        self
    }

    /// Appends a recurrent spiking layer with `units` neurons.
    pub fn recurrent(mut self, units: usize) -> Self {
        self.layers.push(PendingLayer::Recurrent { units, lif: self.lif });
        self.features = units;
        self.spatial = None;
        self
    }

    /// Appends a convolutional spiking layer.
    ///
    /// # Panics
    ///
    /// Panics if the running tensor is not spatial (conv after dense).
    pub fn conv(
        mut self,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        #[expect(clippy::expect_used, reason = "documented `# Panics` contract — a mis-sequenced builder is a caller bug")]
        let (c, h, w) = self
            .spatial
            .expect("conv layer requires a spatial (c,h,w) input; use new_spatial or avoid conv after dense");
        let spec = Conv2dSpec::new(c, out_channels, kernel, stride, padding);
        let (oh, ow) = spec.out_hw(h, w);
        self.layers.push(PendingLayer::Conv { spec, in_hw: (h, w), lif: self.lif });
        self.spatial = Some((out_channels, oh, ow));
        self.features = out_channels * oh * ow;
        self
    }

    /// Appends a non-spiking average-pooling stage with window/stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if the running tensor is not spatial or `k` does not divide
    /// its extents.
    pub fn avg_pool(mut self, k: usize) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract — a mis-sequenced builder is a caller bug"
        )]
        let (c, h, w) = self.spatial.expect("avg_pool requires a spatial (c,h,w) input");
        let layer = PoolLayer::new(c, (h, w), k);
        let (oh, ow) = layer.out_hw();
        self.layers.push(PendingLayer::Pool { channels: c, in_hw: (h, w), k });
        self.spatial = Some((c, oh, ow));
        self.features = c * oh * ow;
        self
    }

    /// Materializes the network, initializing all weights with the given
    /// RNG.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added.
    pub fn build(self, rng: &mut impl Rng) -> Network {
        assert!(!self.layers.is_empty(), "builder has no layers");
        let mut features = self.input_shape.len();
        let mut layers = Vec::with_capacity(self.layers.len());
        for pending in self.layers {
            let layer = match pending {
                PendingLayer::Dense { out, lif } => {
                    let w = init::kaiming(rng, Shape::d2(out, features), features, GAIN);
                    features = out;
                    Layer::Dense(DenseLayer::new(w, lif))
                }
                PendingLayer::Conv { spec, in_hw, lif } => {
                    let fan_in = spec.in_channels * spec.kernel * spec.kernel;
                    let w = init::kaiming(rng, spec.weight_shape(), fan_in, GAIN);
                    let layer = ConvLayer::new(spec, in_hw, w, lif);
                    features = Layer::Conv(layer.clone()).out_features();
                    Layer::Conv(layer)
                }
                PendingLayer::Pool { channels, in_hw, k } => {
                    let layer = PoolLayer::new(channels, in_hw, k);
                    let (oh, ow) = layer.out_hw();
                    features = channels * oh * ow;
                    Layer::Pool(layer)
                }
                PendingLayer::Recurrent { units, lif } => {
                    let w_in = init::kaiming(rng, Shape::d2(units, features), features, GAIN);
                    // Recurrent weights are initialized weaker to keep the
                    // network stable out of the box.
                    let w_rec = init::kaiming(rng, Shape::d2(units, units), units, GAIN * 0.3);
                    features = units;
                    Layer::Recurrent(RecurrentLayer::new(w_in, w_rec, lif))
                }
            };
            layers.push(layer);
        }
        Network::new(self.input_shape, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builds_dense_chain() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(8).dense(3).build(&mut rng);
        assert_eq!(net.neuron_count(), 11);
        assert_eq!(net.layers().len(), 2);
    }

    #[test]
    fn builds_conv_pool_stack_with_consistent_geometry() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new_spatial(2, 32, 32, LifParams::default())
            .avg_pool(2)
            .conv(8, 5, 1, 2)
            .avg_pool(2)
            .dense(16)
            .build(&mut rng);
        // pool: no neurons; conv: 8×16×16 = 2048; dense: 16
        assert_eq!(net.neuron_count(), 2048 + 16);
        assert_eq!(net.output_features(), 16);
    }

    #[test]
    fn recurrent_layer_counts() {
        let mut rng = StdRng::seed_from_u64(2);
        let net =
            NetworkBuilder::new(10, LifParams::default()).recurrent(6).dense(3).build(&mut rng);
        assert_eq!(net.synapse_count(), 10 * 6 + 36 + 18);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(33);
            NetworkBuilder::new(5, LifParams::default()).dense(4).build(&mut rng)
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "spatial")]
    fn conv_after_dense_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ =
            NetworkBuilder::new(16, LifParams::default()).dense(8).conv(4, 3, 1, 1).build(&mut rng);
    }

    #[test]
    fn per_layer_lif_override_sticks() {
        let mut rng = StdRng::seed_from_u64(4);
        let slow = LifParams { refrac_steps: 9, ..LifParams::default() };
        let net = NetworkBuilder::new(4, LifParams::default())
            .dense(4)
            .lif(slow)
            .dense(2)
            .build(&mut rng);
        assert_eq!(net.layers()[0].lif().unwrap().refrac_steps, 2);
        assert_eq!(net.layers()[1].lif().unwrap().refrac_steps, 9);
    }
}
