use crate::LifParams;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Behavioural neuron fault applied *inside* the simulator.
///
/// These are the neuron-level fault models of the paper's Section III:
/// a neuron can be saturated (fires every tick regardless of input), dead
/// (never propagates spikes), or suffer timing variations modelled as
/// perturbations of its LIF parameters.
///
/// # Example
///
/// ```
/// use snn_model::{NeuronBehaviorFault, NeuronFaultMap};
///
/// let mut map = NeuronFaultMap::new();
/// map.insert(0, 3, NeuronBehaviorFault::Dead);
/// assert!(!map.is_empty());
/// assert_eq!(map.get(0, 3), Some(&NeuronBehaviorFault::Dead));
/// assert_eq!(map.get(1, 3), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NeuronBehaviorFault {
    /// The neuron halts all spike propagation: its output is forced to 0.
    Dead,
    /// The neuron produces non-stop output spikes even without input.
    Saturated,
    /// Timing-variation fault: the neuron's parameters are perturbed.
    ParamScale {
        /// Multiplier on the firing threshold.
        threshold_scale: f32,
        /// Multiplier on the leak factor (clamped to `(0, 1]` at use).
        leak_scale: f32,
        /// Signed change of the refractory period in ticks.
        refrac_delta: i32,
    },
}

impl NeuronBehaviorFault {
    /// The constant output of a neuron this fault forces — `Some(false)`
    /// dead, `Some(true)` saturated — or `None` when the neuron still
    /// integrates.
    pub fn forced(&self) -> Option<bool> {
        match self {
            Self::Dead => Some(false),
            Self::Saturated => Some(true),
            Self::ParamScale { .. } => None,
        }
    }

    /// The LIF constants the faulty neuron integrates with, given the
    /// layer's `nominal` ones.
    pub fn lif(&self, nominal: &LifParams) -> LifParams {
        match *self {
            Self::ParamScale { threshold_scale, leak_scale, refrac_delta } => {
                nominal.perturbed(threshold_scale, leak_scale, refrac_delta)
            }
            Self::Dead | Self::Saturated => *nominal,
        }
    }
}

/// Sparse map from `(spiking-layer index, neuron index)` to a behavioural
/// fault, consumed by the forward simulator.
///
/// Layer indices refer to the network's layer vector (including non-spiking
/// layers); entries on non-spiking layers are ignored by the simulator.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NeuronFaultMap {
    per_layer: HashMap<usize, HashMap<usize, NeuronBehaviorFault>>,
}

impl NeuronFaultMap {
    /// Creates an empty fault map (fault-free simulation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a map containing a single fault — the common case during a
    /// fault-simulation campaign.
    pub fn single(layer: usize, neuron: usize, fault: NeuronBehaviorFault) -> Self {
        let mut map = Self::new();
        map.insert(layer, neuron, fault);
        map
    }

    /// Inserts (or replaces) the fault on `(layer, neuron)`.
    pub fn insert(&mut self, layer: usize, neuron: usize, fault: NeuronBehaviorFault) {
        self.per_layer.entry(layer).or_default().insert(neuron, fault);
    }

    /// The fault on `(layer, neuron)`, if any.
    pub fn get(&self, layer: usize, neuron: usize) -> Option<&NeuronBehaviorFault> {
        self.per_layer.get(&layer).and_then(|m| m.get(&neuron))
    }

    /// All faults on `layer`.
    pub fn layer_faults(&self, layer: usize) -> Option<&HashMap<usize, NeuronBehaviorFault>> {
        self.per_layer.get(&layer)
    }

    /// `true` if no faults are registered.
    pub fn is_empty(&self) -> bool {
        self.per_layer.values().all(|m| m.is_empty())
    }

    /// Smallest layer index carrying a fault (used for prefix-cached fault
    /// simulation), or `None` if empty.
    pub fn first_faulty_layer(&self) -> Option<usize> {
        self.per_layer.iter().filter(|(_, m)| !m.is_empty()).map(|(&l, _)| l).min()
    }

    /// Total number of registered faults.
    pub fn len(&self) -> usize {
        self.per_layer.values().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_reports_empty() {
        let m = NeuronFaultMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.first_faulty_layer(), None);
    }

    #[test]
    fn single_constructor_registers_one_fault() {
        let m = NeuronFaultMap::single(2, 7, NeuronBehaviorFault::Saturated);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(2, 7), Some(&NeuronBehaviorFault::Saturated));
        assert_eq!(m.first_faulty_layer(), Some(2));
    }

    #[test]
    fn first_faulty_layer_is_minimum() {
        let mut m = NeuronFaultMap::new();
        m.insert(3, 0, NeuronBehaviorFault::Dead);
        m.insert(1, 5, NeuronBehaviorFault::Dead);
        assert_eq!(m.first_faulty_layer(), Some(1));
    }

    #[test]
    fn insert_replaces_existing() {
        let mut m = NeuronFaultMap::new();
        m.insert(0, 0, NeuronBehaviorFault::Dead);
        m.insert(0, 0, NeuronBehaviorFault::Saturated);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0, 0), Some(&NeuronBehaviorFault::Saturated));
    }
}
