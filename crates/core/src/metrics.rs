use serde::{Deserialize, Serialize};
use snn_model::{Network, Trace};
use snn_tensor::Shape;
use std::time::Duration;

/// Per-layer neuron-activity map of one stimulus — the data behind the
/// paper's Fig. 8 grids (yellow = activated, purple = silent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityMap {
    /// Structured shape of each spiking layer (e.g. `[16×32×32]`).
    pub shapes: Vec<Shape>,
    /// Activation mask per spiking layer.
    pub active: Vec<Vec<bool>>,
}

impl ActivityMap {
    /// Total neurons across spiking layers.
    pub fn neuron_count(&self) -> usize {
        self.active.iter().map(|m| m.len()).sum()
    }

    /// Activated neurons.
    pub fn activated_count(&self) -> usize {
        self.active.iter().flat_map(|m| m.iter()).filter(|&&a| a).count()
    }

    /// Activated fraction in `[0, 1]`.
    #[expect(
        clippy::cast_precision_loss,
        reason = "neuron counts are far below 2^53, so they convert exactly"
    )]
    pub fn fraction(&self) -> f64 {
        let n = self.neuron_count();
        if n == 0 {
            0.0
        } else {
            self.activated_count() as f64 / n as f64
        }
    }

    /// ASCII rendering of layer `idx` (spatial layers render channel 0;
    /// `#` = active, `.` = silent). Useful for terminal Fig. 8 snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn render_layer(&self, idx: usize) -> String {
        let shape = &self.shapes[idx];
        let mask = &self.active[idx];
        let dims = shape.dims();
        let (h, w) = match dims.len() {
            3 => (dims[1], dims[2]),
            _ => (1, mask.len()),
        };
        let mut out = String::with_capacity(h * (w + 1));
        for y in 0..h {
            for x in 0..w {
                out.push(if mask[y * w + x] { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

/// Splits a recorded span trace into the paper's runtime phases: summed
/// wall-clock of the `generate` spans, of the `faultsim.campaign` spans,
/// and of everything (the root spans) — the source for
/// [`TestMetrics::generation_runtime`], [`TestMetrics::fault_sim_runtime`]
/// and [`TestMetrics::total_runtime`].
pub fn runtimes_from_spans(records: &[snn_obs::SpanRecord]) -> (Duration, Duration, Duration) {
    let sum_named = |name: &str| -> Duration {
        records.iter().filter(|r| r.name == name).map(snn_obs::SpanRecord::duration).sum()
    };
    let total =
        records.iter().filter(|r| r.parent.is_none()).map(snn_obs::SpanRecord::duration).sum();
    (sum_named("generate"), sum_named("faultsim.campaign"), total)
}

/// Builds the activity map of a forward trace: a neuron counts as active
/// when it fired at least `min_spikes` times.
pub fn activity_map(net: &Network, trace: &Trace, min_spikes: f32) -> ActivityMap {
    let mut shapes = Vec::new();
    let mut active = Vec::new();
    for (idx, layer) in net.layers().iter().enumerate() {
        if !layer.is_spiking() {
            continue;
        }
        shapes.push(layer.out_shape());
        active
            .push(trace.layers[idx].spike_counts().into_iter().map(|c| c >= min_spikes).collect());
    }
    ActivityMap { shapes, active }
}

/// The efficiency metrics of the paper's Table III for one benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestMetrics {
    /// Test generation wall-clock time.
    pub generation_runtime: Duration,
    /// Fault-simulation (coverage campaign) wall-clock time.
    pub fault_sim_runtime: Duration,
    /// Total wall-clock time of the run (generation + fault sim +
    /// everything between; at least the sum of the two phases).
    pub total_runtime: Duration,
    /// Test duration in ticks (Eq. 8).
    pub test_steps: usize,
    /// Test duration in dataset-sample lengths.
    pub duration_samples: f64,
    /// Activated-neuron percentage.
    pub activated_pct: f64,
    /// Fault coverage of critical neuron faults (%).
    pub fc_critical_neuron: f64,
    /// Fault coverage of critical synapse faults (%).
    pub fc_critical_synapse: f64,
    /// Fault coverage of benign neuron faults (%).
    pub fc_benign_neuron: f64,
    /// Fault coverage of benign synapse faults (%).
    pub fc_benign_synapse: f64,
    /// Maximum accuracy drop of an undetected critical neuron fault (%).
    pub max_drop_neuron_pct: f64,
    /// Maximum accuracy drop of an undetected critical synapse fault (%).
    pub max_drop_synapse_pct: f64,
}

impl std::fmt::Display for TestMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Test generation runtime     {:>10.2?}", self.generation_runtime)?;
        writeln!(f, "Fault simulation runtime    {:>10.2?}", self.fault_sim_runtime)?;
        writeln!(f, "Total runtime               {:>10.2?}", self.total_runtime)?;
        writeln!(f, "Test duration (ticks)       {:>10}", self.test_steps)?;
        writeln!(f, "Test duration (samples)     {:>10.2}", self.duration_samples)?;
        writeln!(f, "Activated neurons           {:>9.2}%", self.activated_pct)?;
        writeln!(f, "FC critical neuron faults   {:>9.2}%", self.fc_critical_neuron)?;
        writeln!(f, "FC critical synapse faults  {:>9.2}%", self.fc_critical_synapse)?;
        writeln!(f, "FC benign neuron faults     {:>9.2}%", self.fc_benign_neuron)?;
        writeln!(f, "FC benign synapse faults    {:>9.2}%", self.fc_benign_synapse)?;
        write!(
            f,
            "Max accuracy drop escapes   {:>6.2}% ({:.2}%)",
            self.max_drop_neuron_pct, self.max_drop_synapse_pct
        )
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, NetworkBuilder, RecordOptions};
    use snn_tensor::Tensor;

    #[test]
    fn activity_map_counts_and_fraction() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(6).dense(2).build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(30, 4), 0.8);
        let trace = net.forward(&input, RecordOptions::spikes_only());
        let map = activity_map(&net, &trace, 1.0);
        assert_eq!(map.neuron_count(), 8);
        assert!(map.fraction() <= 1.0);
        assert_eq!(
            map.activated_count(),
            trace.layers[0].activated_count() + trace.layers[1].activated_count()
        );
    }

    #[test]
    fn zero_input_gives_empty_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new(3, LifParams::default()).dense(5).build(&mut rng);
        let trace = net.forward(&Tensor::zeros(Shape::d2(10, 3)), RecordOptions::spikes_only());
        let map = activity_map(&net, &trace, 1.0);
        assert_eq!(map.activated_count(), 0);
        assert_eq!(map.fraction(), 0.0);
    }

    #[test]
    fn render_produces_grid() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new_spatial(1, 4, 4, LifParams::default())
            .conv(2, 3, 1, 1)
            .build(&mut rng);
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(20, 16), 0.9);
        let trace = net.forward(&input, RecordOptions::spikes_only());
        let map = activity_map(&net, &trace, 1.0);
        let grid = map.render_layer(0);
        let lines: Vec<&str> = grid.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == 4));
        assert!(grid.chars().all(|c| c == '#' || c == '.' || c == '\n'));
    }

    #[test]
    fn metrics_display_is_complete() {
        let m = TestMetrics {
            generation_runtime: Duration::from_secs(5),
            fault_sim_runtime: Duration::from_secs(2),
            total_runtime: Duration::from_secs(8),
            test_steps: 123,
            duration_samples: 2.05,
            activated_pct: 98.7,
            fc_critical_neuron: 99.97,
            fc_critical_synapse: 96.96,
            fc_benign_neuron: 47.26,
            fc_benign_synapse: 78.02,
            max_drop_neuron_pct: 0.1,
            max_drop_synapse_pct: 1.1,
        };
        let s = m.to_string();
        assert!(s.contains("99.97"));
        assert!(s.contains("Activated neurons"));
        assert!(s.contains("123"));
        assert!(s.contains("Test generation runtime"));
        assert!(s.contains("Fault simulation runtime"));
        assert!(s.contains("Total runtime"));
    }

    #[test]
    fn runtimes_from_spans_sums_phases() {
        let rec = |id, parent, name: &str, start_us, end_us| snn_obs::SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
            attrs: Vec::new(),
        };
        let spans = vec![
            rec(1, None, "generate", 0, 4_000_000),
            rec(2, Some(1), "stage1", 0, 3_000_000),
            rec(3, None, "faultsim.campaign", 4_000_000, 6_500_000),
        ];
        let (generation, fault_sim, total) = runtimes_from_spans(&spans);
        assert_eq!(generation, Duration::from_secs(4));
        assert_eq!(fault_sim, Duration::from_millis(2500));
        assert_eq!(total, Duration::from_millis(6500));
    }
}
