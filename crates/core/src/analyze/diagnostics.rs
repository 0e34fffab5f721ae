//! The diagnostics model shared by every lint pass: severities, structured
//! diagnostics with stable codes, and the aggregate report surfaced through
//! `repro lint` and the engine's pre-sweep gate.

use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The space is provably broken (e.g. statically empty): a sweep would
    /// be a waste of machine time. The engine's `deny` gate refuses to run.
    Error,
    /// Almost certainly a mistake in the space description, but the sweep
    /// still produces meaningful results.
    Warning,
    /// Noteworthy structure, not necessarily wrong.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// One structured finding from a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (`BE001`…`BE008`); see `DESIGN.md`.
    pub code: &'static str,
    /// The definition the finding anchors to (constraint, iterator, derived
    /// or constant name).
    pub name: String,
    /// Human-readable explanation.
    pub message: String,
    /// Suggested fix, when the pass can propose one.
    pub suggestion: Option<String>,
}

/// Diagnostic counts by severity — the compact form embedded in
/// `SweepReport` JSON next to the pruning counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Number of error-severity diagnostics.
    pub errors: u64,
    /// Number of warning-severity diagnostics.
    pub warnings: u64,
    /// Number of info-severity diagnostics.
    pub infos: u64,
}

/// The result of running every lint pass over one lowered plan.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, sorted by (code, name) for deterministic output.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Counts by severity.
    pub fn summary(&self) -> LintSummary {
        let mut s = LintSummary::default();
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => s.errors += 1,
                Severity::Warning => s.warnings += 1,
                Severity::Info => s.infos += 1,
            }
        }
        s
    }

    /// True when any finding is error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Render as compiler-style text, one finding per line (plus an
    /// indented suggestion line when present).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}[{}] {}: {}\n",
                d.severity, d.code, d.name, d.message
            ));
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("  suggestion: {s}\n"));
            }
        }
        let sum = self.summary();
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s)\n",
            sum.errors, sum.warnings, sum.infos
        ));
        out
    }

    /// Render as a JSON document (hand-rolled like the telemetry module —
    /// the workspace deliberately has no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"severity\": \"{}\", \"code\": \"{}\", \"name\": \"",
                d.severity, d.code
            ));
            json_escape_into(&mut out, &d.name);
            out.push_str("\", \"message\": \"");
            json_escape_into(&mut out, &d.message);
            match &d.suggestion {
                Some(s) => {
                    out.push_str("\", \"suggestion\": \"");
                    json_escape_into(&mut out, s);
                    out.push_str("\"}");
                }
                None => out.push_str("\", \"suggestion\": null}"),
            }
        }
        let sum = self.summary();
        out.push_str(&format!(
            "\n  ],\n  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"infos\": {}}}\n}}\n",
            sum.errors, sum.warnings, sum.infos
        ));
        out
    }
}

/// Append `s` to `out` escaped for the inside of a JSON string literal
/// (quotes not included): `"`, `\`, `\n`, `\t`, `\r`, and every other
/// control character as `\u00XX`. The workspace's one JSON escaper — the
/// lint report and the engine's telemetry both write through it.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic {
                    severity: Severity::Error,
                    code: "BE001",
                    name: "impossible".into(),
                    message: "rejects every point".into(),
                    suggestion: Some("relax the \"bound\"".into()),
                },
                Diagnostic {
                    severity: Severity::Info,
                    code: "BE004",
                    name: "tex_a".into(),
                    message: "never read".into(),
                    suggestion: None,
                },
            ],
        }
    }

    #[test]
    fn summary_counts_by_severity() {
        let sum = sample().summary();
        assert_eq!(sum, LintSummary { errors: 1, warnings: 0, infos: 1 });
        assert!(sample().has_errors());
        assert!(!LintReport::default().has_errors());
    }

    #[test]
    fn text_rendering_is_compiler_style() {
        let text = sample().render_text();
        assert!(text.contains("error[BE001] impossible: rejects every point"));
        assert!(text.contains("  suggestion: relax"));
        assert!(text.contains("1 error(s), 0 warning(s), 1 info(s)"));
    }

    #[test]
    fn json_is_balanced_and_escaped() {
        let json = sample().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("relax the \\\"bound\\\""));
        assert!(json.contains("\"suggestion\": null"));
        assert!(json.contains("\"errors\": 1"));
    }
}
