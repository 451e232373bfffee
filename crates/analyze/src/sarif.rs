//! The diagnostic record and its serialization: SARIF 2.1.0 output and
//! the JSON string escaper behind the hand-rolled JSON report.
//!
//! A batch of [`Diagnostic`]s becomes a single-run SARIF log so CI
//! systems can surface findings as annotations. The emitter covers
//! exactly the subset of SARIF the analyzer needs: one run, one driver, a
//! rule table, and physical locations with a line number; every result is
//! a warning.

use std::fmt::Write as _;

/// One finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The file the finding is about.
    pub file: String,
    /// 1-based line number; 0 when the file has no meaningful line.
    pub line: u32,
    /// Stable rule id, e.g. `A-DEAD`.
    pub id: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// A rule entry for the SARIF driver's rule table.
#[derive(Debug, Clone)]
pub struct SarifRule {
    /// Stable rule id (`A-DEAD`, …).
    pub id: &'static str,
    /// One-line description shown by SARIF viewers.
    pub short_description: String,
}

/// Renders diagnostics as a SARIF 2.1.0 log with a single run.
///
/// `tool_name` names the driver; `info_uri` points at the in-repo
/// documentation for the rule set. `rules` describes every id that may
/// appear; ids present in `diagnostics` but missing from `rules` still
/// render (SARIF does not require the table to be total).
pub fn render(
    tool_name: &str,
    info_uri: &str,
    rules: &[SarifRule],
    diagnostics: &[Diagnostic],
) -> String {
    let mut s = String::new();
    s.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    s.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    let _ = write!(
        s,
        "\"name\":{},\"informationUri\":{},\"rules\":[",
        json_string(tool_name),
        json_string(info_uri)
    );
    for (i, rule) in rules.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            json_string(rule.id),
            json_string(&rule.short_description)
        );
    }
    s.push_str("]}},\"results\":[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"ruleId\":{},\"level\":\"warning\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            json_string(d.id),
            json_string(&d.message),
            json_string(&d.file),
            d.line.max(1)
        );
    }
    s.push_str("]}]}");
    s
}

/// Escapes `v` as a JSON string per RFC 8259, including the surrounding
/// quotes.
pub fn json_string(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: u32, id: &'static str, message: &str) -> Diagnostic {
        Diagnostic { file: file.into(), line, id, message: message.into() }
    }

    #[test]
    fn renders_schema_run_and_result_shape() {
        let rules = vec![SarifRule { id: "A-DEAD", short_description: "dead neuron".into() }];
        let ds = vec![diag("m.snn", 12, "A-DEAD", "neuron 3 never fires")];
        let out = render("snn-analyze", "DESIGN.md", &rules, &ds);
        assert!(out.contains("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(out.contains("\"version\":\"2.1.0\""));
        assert!(out.contains("\"name\":\"snn-analyze\""));
        assert!(out.contains("\"id\":\"A-DEAD\""));
        assert!(out.contains("\"ruleId\":\"A-DEAD\""));
        assert!(out.contains("\"level\":\"warning\""));
        assert!(out.contains("\"uri\":\"m.snn\""));
        assert!(out.contains("\"startLine\":12"));
    }

    #[test]
    fn empty_inputs_render_valid_empty_run() {
        let out = render("snn-analyze", "DESIGN.md", &[], &[]);
        assert!(out.contains("\"rules\":[]"));
        assert!(out.contains("\"results\":[]"));
    }

    #[test]
    fn line_zero_is_clamped_to_one() {
        // Model-level findings have no meaningful source line; SARIF
        // requires startLine >= 1.
        let ds = vec![diag("model.snn", 0, "A-DEAD", "neuron can never fire")];
        let out = render("snn-analyze", "DESIGN.md", &[], &ds);
        assert!(out.contains("\"startLine\":1"));
    }

    #[test]
    fn escapes_strings_in_messages_and_paths() {
        let ds = vec![diag("a\"b.snn", 3, "A-DEAD", "tab\there\nline")];
        let out = render("snn-analyze", "DESIGN.md", &[], &ds);
        assert!(out.contains("a\\\"b.snn"));
        assert!(out.contains("tab\\there\\nline"));
    }
}
