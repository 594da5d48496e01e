//! The rule engine: turns one lexed file into diagnostics.
//!
//! Five rules guard the invariants the PRs so far established:
//!
//! - **hot_alloc** — allocation idioms (`Vec::new`, `.to_vec(`, `.clone(`,
//!   `format!`, …) are denied inside the designated hot-path modules, so
//!   the zero-alloc merge/export property is guarded structurally, not
//!   just by the counting allocator in the bench harness.
//! - **fs_open** — raw descriptor acquisition (`File::open`,
//!   `File::create`, `OpenOptions::new`) is denied inside the configured
//!   crates (minus the wrapper itself), so every open in the storage
//!   substrate goes through `ind_valueset::fault` and stays reachable by
//!   injected fault plans.
//! - **no_unwrap** — `.unwrap()` / `.expect(` / `panic!` are denied in
//!   library code; errors must flow through the crates' `Result` types.
//! - **safety_comment** — every `unsafe` block or `unsafe impl` must be
//!   directly preceded by a comment block containing `SAFETY:`. (`unsafe fn`
//!   signatures are exempt: they are obligations on the *caller*, and the
//!   interesting justification sits at the call site or impl.)
//! - **swallowed_result** — `let _ = …` and `….ok();` silently discard a
//!   possible error; PR 5 fixed exactly such a swallowed `remove_file`.
//!
//! All rules skip `#[test]` / `#[cfg(test)]` items except
//! `safety_comment`, which applies everywhere (unsafe code in tests still
//! needs its justification).
//!
//! ## Escape hatch
//!
//! A finding is suppressed by an annotation on the same line or the line
//! directly above:
//!
//! ```text
//! // lint: allow(hot_alloc) — one-time setup buffer, reused across runs
//! ```
//!
//! The reason after the dash is mandatory, malformed annotations are
//! themselves findings (`lint_annotation`), and an annotation that
//! suppresses nothing is reported too (`unused_allow`) so stale escapes
//! cannot accumulate.

use crate::config::{Config, FsOpenConfig, HotAllocConfig, RuleScope};
use crate::diag::Diagnostic;
use crate::lexer::{lex, LexError, Token, TokenKind};

/// A compiled deny-idiom: the sequence of (kind, text) atoms that must
/// appear consecutively in the code token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// The idiom as written in `lint.toml`, for messages.
    pub display: String,
    atoms: Vec<(TokenKind, String)>,
}

impl Pattern {
    /// Compiles an idiom string (e.g. `".unwrap("` or `"Vec::new"`) by
    /// lexing it with the same lexer the engine uses on source files.
    pub fn compile(idiom: &str) -> Result<Pattern, String> {
        let tokens = lex(idiom).map_err(|e| format!("bad idiom `{idiom}`: {e}"))?;
        let mut atoms = Vec::with_capacity(tokens.len());
        for t in tokens {
            match t.kind {
                TokenKind::Ident | TokenKind::Punct => {
                    atoms.push((t.kind, t.text(idiom).to_string()));
                }
                other => {
                    return Err(format!(
                        "idiom `{idiom}` contains a {other:?} token; only identifiers \
                         and punctuation can be matched"
                    ));
                }
            }
        }
        if atoms.is_empty() {
            return Err(format!("idiom `{idiom}` is empty"));
        }
        Ok(Pattern {
            display: idiom.to_string(),
            atoms,
        })
    }

    fn len(&self) -> usize {
        self.atoms.len()
    }
}

/// The default `no_unwrap` idioms.
pub const NO_UNWRAP_IDIOMS: &[&str] = &[".unwrap(", ".expect(", "panic!("];

/// The `fs_open` idioms: every way of acquiring a raw file descriptor.
pub const FS_OPEN_IDIOMS: &[&str] = &["File::open(", "File::create(", "OpenOptions::new("];

/// The default `swallowed_result` idioms.
pub const SWALLOWED_IDIOMS: &[&str] = &["let _ =", ".ok();"];

/// Lexes and analyses one file, returning its diagnostics (sorted by
/// position). `path` is the workspace-relative, `/`-separated path used
/// both for rule scoping and in diagnostics.
pub fn lint_file(path: &str, src: &str, config: &Config) -> Vec<Diagnostic> {
    let tokens = match lex(src) {
        Ok(t) => t,
        Err(e) => return vec![lex_error_diag(path, src, &e)],
    };
    let analysis = FileAnalysis::new(path, src, &tokens);
    let mut diags = Vec::new();

    if let Some(hot) = &config.hot_alloc {
        analysis.run_hot_alloc(hot, &mut diags);
    }
    if let Some(rule) = &config.fs_open {
        analysis.run_fs_open(rule, &mut diags);
    }
    if let Some(scope) = &config.no_unwrap {
        analysis.run_pattern_rule(
            scope,
            "no_unwrap",
            NO_UNWRAP_IDIOMS,
            |p| format!("`{p}…)` in library code; propagate through the error types"),
            &mut diags,
        );
    }
    if let Some(scope) = &config.swallowed_result {
        analysis.run_pattern_rule(
            scope,
            "swallowed_result",
            SWALLOWED_IDIOMS,
            |p| format!("`{p}` swallows a possible error; handle or annotate it"),
            &mut diags,
        );
    }
    if let Some(scope) = &config.safety_comment {
        analysis.run_safety_comment(scope, &mut diags);
    }
    analysis.finish(diags)
}

fn lex_error_diag(path: &str, src: &str, e: &LexError) -> Diagnostic {
    Diagnostic {
        rule: "lex_error",
        file: path.to_string(),
        line: e.line,
        col: e.col,
        span_chars: 1,
        message: format!("cannot lex file: {}", e.message),
        snippet: line_text(src, e.line).to_string(),
    }
}

fn line_text(src: &str, line: u32) -> &str {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
}

/// A parsed `// lint: allow(rule) — reason` annotation.
struct Allow {
    rule: String,
    /// Line the comment ends on; suppresses findings on this line and the
    /// next one.
    line: u32,
    col: u32,
    used: std::cell::Cell<bool>,
}

struct FileAnalysis<'a> {
    path: &'a str,
    src: &'a str,
    tokens: &'a [Token],
    /// Indices into `tokens` of the non-comment tokens.
    code: Vec<usize>,
    /// Byte ranges covered by `#[test]` / `#[cfg(test)]` items.
    test_regions: Vec<(usize, usize)>,
    allows: Vec<Allow>,
    /// Malformed annotations discovered while parsing comments.
    annotation_diags: Vec<Diagnostic>,
}

impl<'a> FileAnalysis<'a> {
    fn new(path: &'a str, src: &'a str, tokens: &'a [Token]) -> FileAnalysis<'a> {
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let test_regions = find_test_regions(src, tokens, &code);
        let mut analysis = FileAnalysis {
            path,
            src,
            tokens,
            code,
            test_regions,
            allows: Vec::new(),
            annotation_diags: Vec::new(),
        };
        analysis.collect_allows();
        analysis
    }

    fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
    }

    fn diag(
        &self,
        rule: &'static str,
        token: &Token,
        span_chars: u32,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            file: self.path.to_string(),
            line: token.line,
            col: token.col,
            span_chars,
            message,
            snippet: line_text(self.src, token.line).to_string(),
        }
    }

    /// Parses every comment for `lint: allow(...)` annotations; malformed
    /// ones become diagnostics immediately.
    fn collect_allows(&mut self) {
        for t in self.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = t.text(self.src);
            // Annotations live in plain comments; doc comments only *talk*
            // about the grammar (like this one does).
            if text.starts_with("///")
                || text.starts_with("//!")
                || text.starts_with("/**")
                || text.starts_with("/*!")
            {
                continue;
            }
            let Some(at) = text.find("lint:") else {
                continue;
            };
            let rest = text[at + "lint:".len()..].trim_start();
            let parsed = parse_allow(rest);
            match parsed {
                Ok((rule, _reason)) => self.allows.push(Allow {
                    rule,
                    line: t.end_line(self.src),
                    col: t.col,
                    used: std::cell::Cell::new(false),
                }),
                Err(problem) => self.annotation_diags.push(self.diag(
                    "lint_annotation",
                    t,
                    text.chars().count() as u32,
                    format!("malformed lint annotation: {problem}"),
                )),
            }
        }
    }

    /// Suppression check: marks the matching allow used.
    fn allowed(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.rule == rule && (a.line == line || a.line + 1 == line) {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    fn run_hot_alloc(&self, rule: &HotAllocConfig, diags: &mut Vec<Diagnostic>) {
        if !rule.paths.iter().any(|p| p == self.path) {
            return;
        }
        for idiom in &rule.deny {
            let pattern = match Pattern::compile(idiom) {
                Ok(p) => p,
                Err(e) => {
                    diags.push(Diagnostic {
                        rule: "lint_config",
                        file: self.path.to_string(),
                        line: 0,
                        col: 0,
                        span_chars: 1,
                        message: e,
                        snippet: String::new(),
                    });
                    continue;
                }
            };
            self.match_pattern(&pattern, true, |token, span| {
                if !self.allowed("hot_alloc", token.line) {
                    diags.push(self.diag(
                        "hot_alloc",
                        token,
                        span,
                        format!(
                            "allocation idiom `{}` in hot-path module; the merge/export \
                             loops must stay allocation-free",
                            pattern.display
                        ),
                    ));
                }
            });
        }
    }

    fn run_fs_open(&self, rule: &FsOpenConfig, diags: &mut Vec<Diagnostic>) {
        if !rule.applies(self.path) {
            return;
        }
        for idiom in FS_OPEN_IDIOMS {
            let compiled = Pattern::compile(idiom);
            debug_assert!(compiled.is_ok(), "built-in idiom must compile: {idiom}");
            let Ok(pattern) = compiled else { continue };
            self.match_pattern(&pattern, true, |token, span| {
                if !self.allowed("fs_open", token.line) {
                    diags.push(self.diag(
                        "fs_open",
                        token,
                        span,
                        format!(
                            "raw filesystem open `{}` bypasses the fault wrapper; route \
                             through `fault::{{open_file, create_file}}` or gate with \
                             `fault::check_open` so fault plans cover this descriptor",
                            pattern.display
                        ),
                    ));
                }
            });
        }
    }

    fn run_pattern_rule(
        &self,
        scope: &RuleScope,
        rule: &'static str,
        idioms: &[&str],
        message: impl Fn(&str) -> String,
        diags: &mut Vec<Diagnostic>,
    ) {
        if scope.excludes(self.path) {
            return;
        }
        for idiom in idioms {
            let compiled = Pattern::compile(idiom);
            debug_assert!(compiled.is_ok(), "built-in idiom must compile: {idiom}");
            let Ok(pattern) = compiled else { continue };
            self.match_pattern(&pattern, true, |token, span| {
                if !self.allowed(rule, token.line) {
                    diags.push(self.diag(rule, token, span, message(&pattern.display)));
                }
            });
        }
    }

    /// Scans the code token stream for the pattern; calls `on_match` with
    /// the first matched token and the match's span in characters.
    fn match_pattern(
        &self,
        pattern: &Pattern,
        skip_tests: bool,
        mut on_match: impl FnMut(&Token, u32),
    ) {
        if self.code.len() < pattern.len() {
            return;
        }
        for window in self.code.windows(pattern.len()) {
            let first = &self.tokens[window[0]];
            if skip_tests && self.in_test_region(first.start) {
                continue;
            }
            let matches = window
                .iter()
                .zip(&pattern.atoms)
                .all(|(&ti, (kind, text))| {
                    let t = &self.tokens[ti];
                    t.kind == *kind && t.text(self.src) == text
                });
            if matches {
                let last = &self.tokens[window[pattern.len() - 1]];
                let span = if last.line == first.line {
                    self.src[first.start..last.end].chars().count() as u32
                } else {
                    first.text(self.src).chars().count() as u32
                };
                on_match(first, span);
            }
        }
    }

    fn run_safety_comment(&self, scope: &RuleScope, diags: &mut Vec<Diagnostic>) {
        if scope.excludes(self.path) {
            return;
        }
        for (pos, &ti) in self.code.iter().enumerate() {
            let t = &self.tokens[ti];
            if t.kind != TokenKind::Ident || t.text(self.src) != "unsafe" {
                continue;
            }
            let Some(&next_i) = self.code.get(pos + 1) else {
                continue;
            };
            let next = &self.tokens[next_i];
            let next_text = next.text(self.src);
            // `unsafe {` blocks and `unsafe impl`s need justification;
            // `unsafe fn` signatures are caller obligations.
            let needs_comment = (next.kind == TokenKind::Punct && next_text == "{")
                || (next.kind == TokenKind::Ident && next_text == "impl");
            if !needs_comment {
                continue;
            }
            if !self.has_safety_comment(ti) && !self.allowed("safety_comment", t.line) {
                diags.push(self.diag(
                    "safety_comment",
                    t,
                    "unsafe".len() as u32,
                    "unsafe block/impl without a preceding `// SAFETY:` comment".to_string(),
                ));
            }
        }
    }

    /// Whether the contiguous comment block directly above the token (each
    /// comment ending no more than one line above the next) contains
    /// `SAFETY:`. Multi-line `//` runs count as one block, so the marker may
    /// sit on any line of the explanation. Tokens sharing a line with the
    /// block under inspection (`let x = unsafe { … }`) don't sever the link.
    fn has_safety_comment(&self, token_index: usize) -> bool {
        let mut expect_line = self.tokens[token_index].line;
        for t in self.tokens[..token_index].iter().rev() {
            let is_comment = matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment);
            if !is_comment {
                if t.line == expect_line {
                    continue;
                }
                return false;
            }
            if t.end_line(self.src) + 1 < expect_line {
                return false;
            }
            if t.text(self.src).contains("SAFETY:") {
                return true;
            }
            expect_line = t.line;
        }
        false
    }

    /// Appends unused-allow findings and returns the sorted diagnostics.
    fn finish(self, mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags.extend(self.annotation_diags);
        for a in &self.allows {
            if !a.used.get() {
                diags.push(Diagnostic {
                    rule: "unused_allow",
                    file: self.path.to_string(),
                    line: a.line,
                    col: a.col,
                    span_chars: 1,
                    message: format!(
                        "`lint: allow({})` suppresses nothing; remove the stale annotation",
                        a.rule
                    ),
                    snippet: line_text(self.src, a.line).to_string(),
                });
            }
        }
        diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
        diags
    }
}

/// Parses `allow(rule) — reason` (the part after `lint:`). Returns the
/// rule name and reason, or a description of the problem.
fn parse_allow(text: &str) -> Result<(String, String), String> {
    let Some(rest) = text.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>) — <reason>` after `lint:`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("missing `)` after the rule name".to_string());
    };
    let rule = rest[..close].trim();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("`{rule}` is not a rule name"));
    }
    let mut after = rest[close + 1..].trim_start();
    // A dash separator: em/en dash, `--`, `-`, or `:`.
    let seps = ["—", "–", "--", "-", ":"];
    let Some(sep) = seps.iter().find(|s| after.starts_with(**s)) else {
        return Err("expected `— <reason>` after the rule".to_string());
    };
    after = after[sep.len()..].trim();
    // Block comments may close on the same line; the `*/` is not a reason.
    let reason = after.trim_end_matches("*/").trim();
    if reason.is_empty() {
        return Err("the reason must not be empty".to_string());
    }
    Ok((rule.to_string(), reason.to_string()))
}

/// Finds the byte ranges of items annotated `#[test]`, `#[cfg(test)]`, or
/// any `#[cfg(…)]` mentioning `test` (covers `cfg(all(test, …))`).
/// `#[cfg_attr(…)]` is *not* a test marker.
fn find_test_regions(src: &str, tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut pos = 0usize;
    while pos + 1 < code.len() {
        let hash = &tokens[code[pos]];
        let open = &tokens[code[pos + 1]];
        let is_attr_start = hash.kind == TokenKind::Punct
            && hash.text(src) == "#"
            && open.kind == TokenKind::Punct
            && open.text(src) == "[";
        if !is_attr_start {
            pos += 1;
            continue;
        }
        // Find the attribute's closing `]`.
        let mut depth = 1i32;
        let mut j = pos + 2;
        let mut is_test = false;
        let mut path_seen = false;
        let mut path_is_cfg_or_test = false;
        while j < code.len() && depth > 0 {
            let t = &tokens[code[j]];
            let text = t.text(src);
            match (t.kind, text) {
                (TokenKind::Punct, "[") => depth += 1,
                (TokenKind::Punct, "]") => depth -= 1,
                (TokenKind::Ident, ident) => {
                    if !path_seen {
                        path_seen = true;
                        path_is_cfg_or_test = ident == "cfg" || ident == "test";
                        if ident == "test" {
                            is_test = true;
                        }
                    } else if path_is_cfg_or_test && ident == "test" {
                        is_test = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !is_test {
            pos = j.max(pos + 1);
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = j;
        while k + 1 < code.len()
            && tokens[code[k]].kind == TokenKind::Punct
            && tokens[code[k]].text(src) == "#"
            && tokens[code[k + 1]].text(src) == "["
        {
            let mut d = 1i32;
            k += 2;
            while k < code.len() && d > 0 {
                match (tokens[code[k]].kind, tokens[code[k]].text(src)) {
                    (TokenKind::Punct, "[") => d += 1,
                    (TokenKind::Punct, "]") => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        // Consume the item: up to the matching `}` of its body, or a `;`
        // at bracket depth zero for body-less items.
        let mut body_depth = 0i32;
        let mut end_offset = src.len();
        while k < code.len() {
            let t = &tokens[code[k]];
            match (t.kind, t.text(src)) {
                (TokenKind::Punct, "{") | (TokenKind::Punct, "(") | (TokenKind::Punct, "[") => {
                    body_depth += 1;
                }
                (TokenKind::Punct, "}") | (TokenKind::Punct, ")") | (TokenKind::Punct, "]") => {
                    body_depth -= 1;
                    if body_depth == 0 && t.text(src) == "}" {
                        end_offset = t.end;
                        k += 1;
                        break;
                    }
                }
                (TokenKind::Punct, ";") if body_depth == 0 => {
                    end_offset = t.end;
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        regions.push((hash.start, end_offset));
        pos = k;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_config() -> Config {
        Config::parse(
            r#"
[files]
include = ["."]
exclude = []

[rules.hot_alloc]
paths = ["hot.rs"]
deny = ["Vec::new", ".to_vec(", ".clone(", "format!", "Box::new", ".collect(", "String::from", "vec!"]

[rules.fs_open]
paths = ["crates/valueset"]
exclude = ["crates/valueset/src/fault.rs"]

[rules.no_unwrap]
exclude = []

[rules.safety_comment]

[rules.swallowed_result]
exclude = []
"#,
        )
        .unwrap()
    }

    fn rules_of(path: &str, src: &str) -> Vec<String> {
        lint_file(path, src, &full_config())
            .into_iter()
            .map(|d| format!("{}:{}", d.rule, d.line))
            .collect()
    }

    #[test]
    fn hot_alloc_fires_only_in_configured_files() {
        let src = "fn f() { let v = Vec::new(); }\n";
        assert_eq!(rules_of("hot.rs", src), vec!["hot_alloc:1"]);
        assert_eq!(rules_of("cold.rs", src), Vec::<String>::new());
    }

    #[test]
    fn fs_open_fires_in_scope_and_spares_the_wrapper_and_tests() {
        let open = "fn f() { let f = std::fs::File::open(\"x\"); }\n";
        assert_eq!(
            rules_of("crates/valueset/src/block.rs", open),
            vec!["fs_open:1"]
        );
        let create = "fn f() { std::fs::OpenOptions::new().read(true); }\n";
        assert_eq!(
            rules_of("crates/valueset/src/format.rs", create),
            vec!["fs_open:1"]
        );
        // The wrapper itself and out-of-scope crates are exempt.
        assert_eq!(
            rules_of("crates/valueset/src/fault.rs", open),
            Vec::<String>::new()
        );
        assert_eq!(
            rules_of("crates/core/src/runner.rs", open),
            Vec::<String>::new()
        );
        // Test code opens files freely.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { std::fs::File::open(\"x\"); }\n}\n";
        assert_eq!(
            rules_of("crates/valueset/src/block.rs", in_test),
            Vec::<String>::new()
        );
        // The escape hatch works for an open gated by the fault layer.
        let allowed = "// lint: allow(fs_open) — gated by fault::check_open in the caller\n\
                       fn f() { std::fs::OpenOptions::new().read(true); }\n";
        assert_eq!(
            rules_of("crates/valueset/src/block.rs", allowed),
            Vec::<String>::new()
        );
    }

    #[test]
    fn idioms_inside_strings_and_comments_do_not_fire() {
        let src = r#"
fn f() -> &'static str {
    // .unwrap() in a comment is fine
    /* nested /* Vec::new() */ still a comment */
    "calls .unwrap() and panic!(now)"
}
"#;
        assert_eq!(rules_of("hot.rs", src), Vec::<String>::new());
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = r#"
fn lib() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::lib().to_string().parse::<u32>().unwrap(); }
}
"#;
        assert_eq!(rules_of("lib.rs", src), Vec::<String>::new());
        let bad = "fn lib() { \"1\".parse::<u32>().unwrap(); }\n";
        assert_eq!(rules_of("lib.rs", bad), vec!["no_unwrap:1"]);
    }

    #[test]
    fn cfg_test_function_without_module_is_exempt() {
        let src = r#"
#[cfg(test)]
fn helper() { "x".parse::<u32>().unwrap(); }
"#;
        assert_eq!(rules_of("lib.rs", src), Vec::<String>::new());
    }

    #[test]
    fn allow_annotation_suppresses_and_requires_reason() {
        let above = "// lint: allow(no_unwrap) — startup path, config is pre-validated\n\
                     fn f() { \"1\".parse::<u32>().unwrap(); }\n";
        assert_eq!(rules_of("lib.rs", above), Vec::<String>::new());
        let trailing = "fn f() { \"1\".parse::<u32>().unwrap(); } \
                        // lint: allow(no_unwrap) - startup path\n";
        assert_eq!(rules_of("lib.rs", trailing), Vec::<String>::new());
        let no_reason = "// lint: allow(no_unwrap)\n\
                         fn f() { \"1\".parse::<u32>().unwrap(); }\n";
        assert_eq!(
            rules_of("lib.rs", no_reason),
            vec!["lint_annotation:1", "no_unwrap:2"]
        );
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// lint: allow(no_unwrap) — nothing here needs it\nfn f() {}\n";
        assert_eq!(rules_of("lib.rs", src), vec!["unused_allow:1"]);
    }

    #[test]
    fn safety_comment_rule() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(rules_of("lib.rs", bad), vec!["safety_comment:1"]);
        let good = "fn f() {\n    // SAFETY: provably unreachable, guarded above\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert_eq!(rules_of("lib.rs", good), Vec::<String>::new());
        let impl_bad = "unsafe impl Send for X {}\n";
        assert_eq!(rules_of("lib.rs", impl_bad), vec!["safety_comment:1"]);
        // `unsafe fn` signatures are exempt…
        let sig = "unsafe fn f() {}\n";
        assert_eq!(rules_of("lib.rs", sig), Vec::<String>::new());
        // The marker may sit on any line of a contiguous multi-line comment,
        // and same-line tokens (`let p =`) don't sever the link…
        let multi = "fn f() {\n    // Failure is harmless here.\n    // SAFETY: the pointer is valid for the\n    // whole call, and never retained.\n    let p = unsafe { g() };\n    p\n}\n";
        assert_eq!(rules_of("lib.rs", multi), Vec::<String>::new());
        // …but a blank line breaks the block.
        let far = "// SAFETY: too far away\n\n\n\n\nfn f() { unsafe { g() } }\n";
        assert_eq!(rules_of("lib.rs", far), vec!["safety_comment:6"]);
    }

    #[test]
    fn swallowed_result_rule() {
        let src = "fn f() { let _ = std::fs::remove_file(\"x\"); }\n";
        assert_eq!(rules_of("lib.rs", src), vec!["swallowed_result:1"]);
        let ok = "fn f() { std::fs::remove_file(\"x\").ok(); }\n";
        assert_eq!(rules_of("lib.rs", ok), vec!["swallowed_result:1"]);
        // `let _x = …` binds, `let (_, b) = …` destructures: neither fires.
        let fine = "fn f() { let _x = g(); let (_, b) = h(); b }\n";
        assert_eq!(rules_of("lib.rs", fine), Vec::<String>::new());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() -> u32 { \"1\".parse().unwrap_or(0) }\n";
        assert_eq!(rules_of("lib.rs", src), Vec::<String>::new());
    }

    #[test]
    fn char_literal_vs_lifetime_does_not_confuse_matching() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = 'a'; c }\n";
        assert_eq!(rules_of("lib.rs", src), Vec::<String>::new());
    }

    #[test]
    fn pattern_compile_rejects_literals() {
        assert!(Pattern::compile("\"str\"").is_err());
        assert!(Pattern::compile("").is_err());
        assert!(Pattern::compile(".unwrap(").is_ok());
    }
}
