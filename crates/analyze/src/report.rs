//! Rendering of analysis results as human text or JSON.
//!
//! A finding is one provably-dead neuron. It has no meaningful source
//! line, so the JSON report anchors it to line 0 of the model file.

use crate::{Analysis, NeuronClass};
use serde::Serialize;
use std::fmt::Write as _;

/// Provably-dead neuron: its `NeuronDead` fault is untestable.
const DEAD_ID: &str = "A-DEAD";

/// One message per provably-dead neuron, in layer and neuron order.
fn dead_neurons(analysis: &Analysis) -> Vec<String> {
    let mut out = Vec::new();
    for (layer_idx, la) in analysis.intervals.layers().iter().enumerate() {
        for (index, class) in la.class.iter().enumerate() {
            if *class == NeuronClass::Dead {
                out.push(format!(
                    "neuron {index} of layer {layer_idx} provably never fires \
                     (drive bound {:.4}); its NeuronDead fault is untestable",
                    la.z_max.get(index).copied().unwrap_or(0.0)
                ));
            }
        }
    }
    out
}

/// Human-readable report.
pub fn render_text(model: &str, analysis: &Analysis) -> String {
    let s = &analysis.summary;
    let mut out = String::new();
    let _ = writeln!(out, "snn-analyze: {model}");
    let _ = writeln!(
        out,
        "  neurons: {} ({} excitable, {} dead, {} undecided)",
        s.neurons, s.excitable_neurons, s.dead_neurons, s.undecided_neurons
    );
    let _ = writeln!(out, "  faults:  {}", s.faults);
    for message in dead_neurons(analysis) {
        let _ = writeln!(out, "  [{DEAD_ID}] {message}");
    }
    out
}

#[derive(Serialize)]
struct JsonReport {
    model: String,
    summary: JsonSummary,
    diagnostics: Vec<JsonDiagnostic>,
}

#[derive(Serialize)]
struct JsonSummary {
    neurons: usize,
    dead_neurons: usize,
    excitable_neurons: usize,
    undecided_neurons: usize,
    faults: usize,
}

#[derive(Serialize)]
struct JsonDiagnostic {
    file: String,
    line: u32,
    id: &'static str,
    message: String,
}

/// JSON report: summary and lint-style diagnostics.
pub fn render_json(model: &str, analysis: &Analysis) -> String {
    let s = &analysis.summary;
    serde::json::to_string(&JsonReport {
        model: model.to_string(),
        summary: JsonSummary {
            neurons: s.neurons,
            dead_neurons: s.dead_neurons,
            excitable_neurons: s.excitable_neurons,
            undecided_neurons: s.undecided_neurons,
            faults: s.faults,
        },
        diagnostics: dead_neurons(analysis)
            .into_iter()
            .map(|message| JsonDiagnostic {
                file: model.to_string(),
                line: 0,
                id: DEAD_ID,
                message,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_faults::FaultUniverse;
    use snn_model::{DenseLayer, Layer, LifParams, Network};
    use snn_tensor::{Shape, Tensor};

    /// One dead neuron (all-negative fan-in) beside one excitable one.
    fn analysis() -> Analysis {
        let lif = LifParams { threshold: 1.0, leak: 0.5, refrac_steps: 1 };
        let w = Tensor::from_vec(Shape::d2(2, 2), vec![-1.0, -1.0, 2.0, 2.0]).unwrap();
        let net = Network::new(Shape::d1(2), vec![Layer::Dense(DenseLayer::new(w, lif))]);
        crate::analyze(&net, &FaultUniverse::standard(&net))
    }

    #[test]
    fn text_report_names_model_counts_and_dead_neurons() {
        let a = analysis();
        let out = render_text("m.snn", &a);
        assert!(out.contains("snn-analyze: m.snn"));
        assert!(out.contains("neurons: 2 (1 excitable, 1 dead, 0 undecided)"), "{out}");
        assert!(out.contains(&format!("faults:  {}", a.summary.faults)));
        assert!(out.contains("[A-DEAD] neuron 0 of layer 0"), "{out}");
    }

    #[test]
    fn json_report_carries_summary_and_diagnostics() {
        let a = analysis();
        let out = render_json("m.snn", &a);
        assert!(out.contains("\"model\":\"m.snn\""));
        assert!(out.contains(&format!("\"faults\":{}", a.summary.faults)));
        assert!(out.contains("\"dead_neurons\":1"));
        assert!(out.contains("\"diagnostics\":[{"), "{out}");
    }
}
