//! Diagnostics: rustc-style text rendering and `--json` output.

use ind_trace::json::Json;

/// One finding, anchored to a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`hot_alloc`, `no_unwrap`, …).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// Length of the offending span in characters (for the caret underline).
    pub span_chars: u32,
    /// Human message.
    pub message: String,
    /// The full source line the finding points into.
    pub snippet: String,
}

impl Diagnostic {
    /// Renders one finding the way rustc does:
    ///
    /// ```text
    /// error[no_unwrap]: `.unwrap()` in library code
    ///   --> crates/core/src/runner.rs:42:17
    ///    |
    /// 42 |     let x = foo().unwrap();
    ///    |                  ^^^^^^^^
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("error[{}]: {}\n", self.rule, self.message));
        out.push_str(&format!("  --> {}:{}:{}\n", self.file, self.line, self.col));
        let gutter = self.line.to_string().len().max(2);
        out.push_str(&format!("{:gutter$} |\n", ""));
        out.push_str(&format!("{:gutter$} | {}\n", self.line, self.snippet));
        let carets = "^".repeat(self.span_chars.max(1) as usize);
        out.push_str(&format!(
            "{:gutter$} | {:pad$}{}\n",
            "",
            "",
            carets,
            pad = self.col.saturating_sub(1) as usize
        ));
        out
    }

    /// The finding as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", self.rule.into()),
            ("file", self.file.as_str().into()),
            ("line", self.line.into()),
            ("col", self.col.into()),
            ("message", self.message.as_str().into()),
            ("snippet", self.snippet.trim().into()),
        ])
    }
}

/// The whole report as a JSON array (`--json`).
pub fn report_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(diags.iter().map(Diagnostic::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "no_unwrap",
            file: "crates/x/src/lib.rs".into(),
            line: 42,
            col: 18,
            span_chars: 8,
            message: "`.unwrap()` in library code".into(),
            snippet: "    let x = foo().unwrap();".into(),
        }
    }

    #[test]
    fn text_rendering_points_at_the_span() {
        let text = diag().render_text();
        assert!(text.contains("error[no_unwrap]"), "{text}");
        assert!(text.contains("--> crates/x/src/lib.rs:42:18"), "{text}");
        let caret_line = text.lines().last().unwrap();
        assert_eq!(caret_line.find('^'), Some("   | ".len() + 17), "{text}");
        assert!(caret_line.ends_with("^^^^^^^^"), "{text}");
    }

    #[test]
    fn json_report_is_an_array_of_findings() {
        assert_eq!(report_json(&[]).compact(), "[]");
        let mut quoted = diag();
        quoted.message = "say \"hi\"\n".into();
        let report = report_json(&[diag(), quoted]).compact();
        let parsed = ind_trace::json::parse(&report).unwrap();
        let findings = parsed.as_arr().unwrap();
        assert_eq!(findings.len(), 2, "{report}");
        assert_eq!(
            findings[1].get("message").and_then(Json::as_str),
            Some("say \"hi\"\n")
        );
        assert_eq!(
            findings[0].get("snippet").and_then(Json::as_str),
            Some("let x = foo().unwrap();")
        );
    }
}
