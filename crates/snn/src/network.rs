use crate::Layer;
use serde::{Deserialize, Serialize};
use snn_tensor::Shape;

/// Address of a single synaptic weight inside a [`Network`].
///
/// `tensor` selects among a layer's weight tensors (0 for dense/conv
/// weights and recurrent `W_in`, 1 for recurrent `W_rec`); `offset` is the
/// row-major element index within that tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WeightRef {
    /// Layer index within the network.
    pub layer: usize,
    /// Weight-tensor index within the layer.
    pub tensor: usize,
    /// Row-major element offset within the tensor.
    pub offset: usize,
}

/// A layer-sequential spiking neural network.
///
/// The network is an ordered list of [`Layer`]s whose in/out feature counts
/// chain. Neuron and synapse accounting follows the paper's Table I
/// convention: only spiking layers contribute neurons, and synapses are the
/// *unique trainable weights* (so convolutions count kernel parameters, not
/// connections).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use snn_model::{LifParams, NetworkBuilder};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = NetworkBuilder::new(10, LifParams::default())
///     .dense(20)
///     .dense(5)
///     .build(&mut rng);
/// assert_eq!(net.neuron_count(), 25);
/// assert_eq!(net.synapse_count(), 10 * 20 + 20 * 5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    pub(crate) layers: Vec<Layer>,
    pub(crate) input_features: usize,
    pub(crate) input_shape: Shape,
}

impl Network {
    /// Assembles a network from explicit layers.
    ///
    /// `input_shape` describes one timestep of input (e.g. `[2×34×34]` for
    /// an NMNIST-like DVS stream, or `[700]` for SHD-like audio).
    ///
    /// # Panics
    ///
    /// Panics if consecutive layers disagree on feature counts or the first
    /// layer does not accept `input_shape.len()` features.
    pub fn new(input_shape: Shape, layers: Vec<Layer>) -> Self {
        let input_features = input_shape.len();
        assert!(!layers.is_empty(), "network needs at least one layer");
        let mut features = input_features;
        for (i, layer) in layers.iter().enumerate() {
            assert_eq!(
                layer.in_features(),
                features,
                "layer {i} ({}) expects {} input features, previous stage provides {features}",
                layer.kind(),
                layer.in_features()
            );
            features = layer.out_features();
        }
        Self { layers, input_features, input_shape }
    }

    /// Checks that every stage has something to compute: an input of at
    /// least one feature, and at least one output per layer. A dense or
    /// recurrent layer of no neurons and a conv layer of no output
    /// channels chain and serialize, but the generator and the simulator
    /// take rows of every layer and fail on an empty one.
    ///
    /// # Errors
    ///
    /// One line naming the first empty stage.
    pub fn validate_widths(&self) -> Result<(), String> {
        if self.input_features == 0 {
            return Err(format!("input {} has no features", self.input_shape));
        }
        match self.layers.iter().position(|l| l.out_features() == 0) {
            Some(i) => Err(format!("layer {i} ({}) has no outputs", self.layers[i].kind())),
            None => Ok(()),
        }
    }

    /// The layers in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by training and fault injection).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Flattened input feature count per timestep.
    pub fn input_features(&self) -> usize {
        self.input_features
    }

    /// Structured per-timestep input shape.
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// Number of output classes (features of the last layer).
    #[expect(
        clippy::expect_used,
        reason = "Network::new asserts at least one layer, so last() cannot fail"
    )]
    pub fn output_features(&self) -> usize {
        self.layers.last().expect("network is non-empty").out_features()
    }

    /// Total LIF neuron count (spiking layers only).
    pub fn neuron_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_spiking()).map(|l| l.out_features()).sum()
    }

    /// Total synapse count: unique trainable weights.
    pub fn synapse_count(&self) -> usize {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }

    /// Indices and sizes of the spiking layers, in order. Global neuron ids
    /// enumerate these blocks consecutively.
    pub fn neuron_layout(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_spiking())
            .map(|(i, l)| (i, l.out_features()))
            .collect()
    }

    /// Maps a global synapse id to a [`WeightRef`].
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    #[expect(
        clippy::panic,
        reason = "documented `# Panics` contract — out-of-range ids are caller bugs"
    )]
    pub fn locate_weight(&self, global: usize) -> WeightRef {
        let mut remaining = global;
        for (layer_idx, layer) in self.layers.iter().enumerate() {
            for (tensor_idx, t) in layer.weight_tensors().into_iter().enumerate() {
                if remaining < t.len() {
                    return WeightRef { layer: layer_idx, tensor: tensor_idx, offset: remaining };
                }
                remaining -= t.len();
            }
        }
        panic!(
            "global synapse id {global} out of range for network with {} synapses",
            self.synapse_count()
        );
    }

    /// Reads the weight addressed by `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn weight(&self, r: WeightRef) -> f32 {
        let tensors = self.layers[r.layer].weight_tensors();
        tensors[r.tensor].as_slice()[r.offset]
    }

    /// Overwrites the weight addressed by `r`, returning the old value.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn set_weight(&mut self, r: WeightRef, value: f32) -> f32 {
        let mut tensors = self.layers[r.layer].weight_tensors_mut();
        let slot = &mut tensors[r.tensor].as_mut_slice()[r.offset];
        std::mem::replace(slot, value)
    }

    /// Largest absolute weight in the network (used to choose saturation
    /// fault magnitudes).
    pub fn max_abs_weight(&self) -> f32 {
        self.layers
            .iter()
            .flat_map(|l| l.weight_tensors())
            .flat_map(|t| t.as_slice().iter().copied())
            .fold(0.0f32, |acc, v| acc.max(v.abs()))
    }

    /// Human-readable architecture summary, one line per layer.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "input {} → {} layers, {} neurons, {} synapses\n",
            self.input_shape,
            self.layers.len(),
            self.neuron_count(),
            self.synapse_count()
        );
        for (i, l) in self.layers.iter().enumerate() {
            out.push_str(&format!(
                "  [{i}] {:<9} {} → {} ({} weights)\n",
                l.kind(),
                l.in_features(),
                l.out_features(),
                l.weight_count()
            ));
        }
        out
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use crate::{DenseLayer, LifParams, PoolLayer, RecurrentLayer};
    use snn_tensor::Tensor;

    fn toy_network() -> Network {
        // input 8 → pool(2, on 2×2×2) is awkward; use dense chain instead
        let lif = LifParams::default();
        Network::new(
            Shape::d1(8),
            vec![
                Layer::Dense(DenseLayer::new(Tensor::zeros(Shape::d2(6, 8)), lif)),
                Layer::Dense(DenseLayer::new(Tensor::zeros(Shape::d2(4, 6)), lif)),
            ],
        )
    }

    #[test]
    fn counts_follow_table1_convention() {
        let net = toy_network();
        assert_eq!(net.neuron_count(), 10);
        assert_eq!(net.synapse_count(), 48 + 24);
        assert_eq!(net.output_features(), 4);
    }

    #[test]
    fn pool_layers_add_no_neurons() {
        let lif = LifParams::default();
        let net = Network::new(
            Shape::d3(1, 4, 4),
            vec![
                Layer::Pool(PoolLayer::new(1, (4, 4), 2)),
                Layer::Dense(DenseLayer::new(Tensor::zeros(Shape::d2(3, 4)), lif)),
            ],
        );
        assert_eq!(net.neuron_count(), 3);
        assert_eq!(net.neuron_layout(), vec![(1, 3)]);
    }

    #[test]
    fn locate_weight_covers_all_tensors() {
        let lif = LifParams::default();
        let net = Network::new(
            Shape::d1(3),
            vec![Layer::Recurrent(RecurrentLayer::new(
                Tensor::zeros(Shape::d2(2, 3)),
                Tensor::zeros(Shape::d2(2, 2)),
                lif,
            ))],
        );
        assert_eq!(net.synapse_count(), 10);
        let r = net.locate_weight(6); // first element of W_rec
        assert_eq!(r, WeightRef { layer: 0, tensor: 1, offset: 0 });
    }

    #[test]
    fn set_weight_round_trips() {
        let mut net = toy_network();
        let r = net.locate_weight(7);
        let old = net.set_weight(r, 3.5);
        assert_eq!(old, 0.0);
        assert_eq!(net.weight(r), 3.5);
        assert_eq!(net.max_abs_weight(), 3.5);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn new_rejects_feature_mismatch() {
        let lif = LifParams::default();
        Network::new(
            Shape::d1(8),
            vec![Layer::Dense(DenseLayer::new(Tensor::zeros(Shape::d2(6, 7)), lif))],
        );
    }

    #[test]
    fn summary_mentions_every_layer() {
        let s = toy_network().summary();
        assert!(s.contains("[0] dense"));
        assert!(s.contains("[1] dense"));
        assert!(s.contains("10 neurons"));
    }
}
