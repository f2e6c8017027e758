//! The diagnostics framework: stable codes, severities, model paths.
//!
//! Every finding the analyzer emits is a [`Diagnostic`]: a stable
//! [`Code`] (`C001`, `C002`, …— never renumbered once published), a
//! [`Severity`], a *model path* locating the finding inside the system
//! model (`hierarchy/task[7]`, `mapping/node[2]`, `influence/entry[3,4]`)
//! and a human-readable message. A [`Report`] collects the diagnostics
//! for one model, renders them for humans, and serialises to the
//! `fcm-check/v1` JSON schema for machines.
//!
//! Determinism contract: a report's diagnostics are sorted by
//! `(code, path, message)` before rendering or export, and every rule
//! generates its findings in a deterministic model order, so the byte
//! output is identical whatever thread count the engine fanned out to.

use std::fmt;

use fcm_substrate::{Json, ToJson};

/// A stable diagnostic code, rendered `C001`, `C002`, …
///
/// Codes identify *rules*, not occurrences: one run may emit many
/// diagnostics with the same code. Codes are never reused or renumbered
/// once published (the `srclint` source gate checks the catalog for
/// duplicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub u16);

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{:03}", self.0)
    }
}

/// How severe a finding is.
///
/// `Error` findings make a model invalid: gates reject it and
/// `checktool` exits non-zero. `Warn` flags risky-but-legal designs
/// (e.g. a separation series close to its convergence bound). `Info` is
/// purely advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The model violates a hard rule; executing it is unsound.
    Error,
    /// Legal but suspicious; worth a human look.
    Warn,
    /// Advisory only.
    Info,
}

impl Severity {
    /// Lowercase name, as rendered and exported.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: code, severity, model path, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// Where in the model, e.g. `hierarchy/task[7]` or `mapping/node[2]`.
    pub path: String,
    /// What is wrong, human-readable.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(
        code: Code,
        severity: Severity,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            path: path.into(),
            message: message.into(),
        }
    }

    /// An `Error`-severity diagnostic.
    pub fn error(code: Code, path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Error, path, message)
    }

    /// A `Warn`-severity diagnostic.
    pub fn warn(code: Code, path: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, Severity::Warn, path, message)
    }

    /// One rendered line: `error[C001] hierarchy/task[7]: message`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity, self.code, self.path, self.message
        )
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        Json::object()
            .set("code", self.code.to_string())
            .set("severity", self.severity.as_str())
            .set("path", self.path.as_str())
            .set("message", self.message.as_str())
    }
}

/// All diagnostics for one analysed model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Name of the analysed model.
    pub model: String,
    /// The findings, sorted by `(code, path, message)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `model`.
    pub fn new(model: impl Into<String>) -> Report {
        Report {
            model: model.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Number of findings at `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any `Error`-severity finding is present (= model invalid).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Restores the canonical `(code, path, message)` order.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (a.code, &a.path, &a.message).cmp(&(b.code, &b.path, &b.message)));
    }

    /// Renders the report for humans: one line per finding plus a
    /// summary line (`<model>: clean` when nothing fired).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let (e, w, i) = (
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        );
        if self.diagnostics.is_empty() {
            out.push_str(&format!("{}: clean\n", self.model));
        } else {
            out.push_str(&format!(
                "{}: {e} error(s), {w} warning(s), {i} info\n",
                self.model
            ));
        }
        out
    }

    /// Just the `Error` lines, newline-joined — the message a caller
    /// rejects a model with when its gate finds errors.
    #[must_use]
    pub fn error_lines(&self) -> String {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        let counts = Json::object()
            .set("error", self.count(Severity::Error) as f64)
            .set("warn", self.count(Severity::Warn) as f64)
            .set("info", self.count(Severity::Info) as f64);
        Json::object()
            .set("schema", "fcm-check/v1")
            .set("model", self.model.as_str())
            .set("counts", counts)
            .set(
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(ToJson::to_json).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_zero_padded() {
        assert_eq!(Code(1).to_string(), "C001");
        assert_eq!(Code(16).to_string(), "C016");
        assert_eq!(Code(123).to_string(), "C123");
    }

    #[test]
    fn report_sorts_by_code_then_path_then_message() {
        let mut r = Report::new("m");
        r.diagnostics.push(Diagnostic::error(Code(9), "b", "z"));
        r.diagnostics.push(Diagnostic::warn(Code(2), "c", "y"));
        r.diagnostics.push(Diagnostic::error(Code(9), "a", "x"));
        r.sort();
        let codes: Vec<_> = r
            .diagnostics
            .iter()
            .map(|d| (d.code.0, d.path.as_str()))
            .collect();
        assert_eq!(codes, vec![(2, "c"), (9, "a"), (9, "b")]);
    }

    #[test]
    fn render_reports_clean_models() {
        let r = Report::new("empty");
        assert_eq!(r.render(), "empty: clean\n");
        assert!(!r.has_errors());
    }

    #[test]
    fn json_export_carries_schema_counts_and_findings() {
        let mut r = Report::new("m");
        r.diagnostics
            .push(Diagnostic::error(Code(8), "factors[0]", "p > 1"));
        let j = r.to_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some("fcm-check/v1"));
        assert_eq!(
            j.get("counts")
                .and_then(|c| c.get("error"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        let diags = j.get("diagnostics").and_then(Json::as_array).unwrap();
        assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("C008"));
        assert_eq!(
            diags[0].get("severity").and_then(Json::as_str),
            Some("error")
        );
    }
}
