//! Rendering of analysis results as human text, JSON, or SARIF.
//!
//! Findings are [`Diagnostic`] records rendered by [`crate::sarif`].
//! Model findings have no meaningful source line; they anchor to line 0
//! (clamped to 1 in SARIF) of the model file.

use crate::sarif::{self, json_string, Diagnostic, SarifRule};
use crate::{Analysis, NeuronClass};
use std::fmt::Write as _;

/// Provably-dead neuron: its `NeuronDead` fault is untestable.
pub const DEAD_ID: &str = "A-DEAD";

/// Rule table for SARIF output.
pub fn sarif_rules() -> Vec<SarifRule> {
    vec![SarifRule {
        id: DEAD_ID,
        short_description: "neuron provably never reaches threshold; its NeuronDead fault \
                            is untestable"
            .into(),
    }]
}

/// Builds the diagnostic list for `analysis`: one `A-DEAD` per
/// provably-dead neuron. `model` is the file the diagnostics anchor to.
pub fn diagnostics(model: &str, analysis: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (layer_idx, la) in analysis.intervals.layers().iter().enumerate() {
        for (index, class) in la.class.iter().enumerate() {
            if *class == NeuronClass::Dead {
                out.push(Diagnostic {
                    file: model.to_string(),
                    line: 0,
                    id: DEAD_ID,
                    message: format!(
                        "neuron {index} of layer {layer_idx} provably never fires \
                         (drive bound {:.4}); its NeuronDead fault is untestable",
                        la.z_max.get(index).copied().unwrap_or(0.0)
                    ),
                });
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
    for d in diagnostics(model, analysis) {
        let _ = writeln!(out, "  [{}] {}", d.id, d.message);
    }
    out
}

/// JSON report: summary and lint-style diagnostics.
pub fn render_json(model: &str, analysis: &Analysis) -> String {
    let s = &analysis.summary;
    let mut out = String::new();
    let _ = write!(out, "{{\"model\":{},", json_string(model));
    let _ = write!(
        out,
        "\"summary\":{{\"neurons\":{},\"dead_neurons\":{},\"excitable_neurons\":{},\
         \"undecided_neurons\":{},\"faults\":{}}},",
        s.neurons, s.dead_neurons, s.excitable_neurons, s.undecided_neurons, s.faults
    );
    out.push_str("\"diagnostics\":[");
    for (i, d) in diagnostics(model, analysis).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"file\":{},\"line\":{},\"id\":{},\"message\":{}}}",
            json_string(&d.file),
            d.line,
            json_string(d.id),
            json_string(&d.message)
        );
    }
    out.push_str("]}");
    out
}

/// SARIF report via [`crate::sarif`].
pub fn render_sarif(model: &str, analysis: &Analysis) -> String {
    let ds = diagnostics(model, analysis);
    sarif::render("snn-analyze", "DESIGN.md", &sarif_rules(), &ds)
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

    #[test]
    fn sarif_report_is_wellformed_and_flags_dead_neurons_as_warnings() {
        let out = render_sarif("m.snn", &analysis());
        assert!(out.contains("\"name\":\"snn-analyze\""));
        assert!(out.contains("\"level\":\"warning\""));
        assert!(out.contains("A-DEAD"));
    }
}
