//! `ind-lint` — an in-tree static invariant checker.
//!
//! PRs 2–5 turned the SPIDER reproduction's performance story into hard
//! invariants: a 14-allocation merge loop, an arena-backed export pipeline,
//! zero-copy block cursors, and exactly two audited `unsafe` sites. Those
//! invariants were enforced only at runtime by `bench_spider --check`; one
//! innocent `to_vec()` in the merge loop or a swallowed `remove_file`
//! error in the spill path would ship silently until a benchmark noticed.
//! This crate enforces them at review time, on every file, in every
//! `cargo test`.
//!
//! The checker is a workspace-aware pass over a hand-rolled token-level
//! lexer ([`lexer`]) — the environment is offline, so there is no `syn` —
//! driven by a rule engine ([`rules`]) configured from an in-repo
//! `lint.toml` ([`config`]). Run it as:
//!
//! ```text
//! cargo run -p ind-lint -- check [--json]
//! ```
//!
//! or call [`check_workspace`] directly (the workspace meta-test in
//! `tests/lint_workspace.rs` does exactly that).

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;

pub use config::{Config, ConfigError};
pub use diag::{report_json, Diagnostic};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rules that skip non-library code (integration tests, benches,
/// examples): their contract is about *library* error discipline.
const LIBRARY_ONLY_RULES_SKIP_COMPONENTS: &[&str] = &["tests", "benches", "examples"];

/// A fatal checker error (I/O or configuration), as opposed to findings.
#[derive(Debug)]
pub enum LintError {
    Io(PathBuf, io::Error),
    Config(ConfigError),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            LintError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<ConfigError> for LintError {
    fn from(e: ConfigError) -> Self {
        LintError::Config(e)
    }
}

/// Loads `lint.toml` from the workspace root.
pub fn load_config(root: &Path) -> Result<Config, LintError> {
    let path = root.join("lint.toml");
    let text = fs::read_to_string(&path).map_err(|e| LintError::Io(path, e))?;
    Ok(Config::parse(&text)?)
}

/// Lints every `.rs` file reachable from the config's include roots,
/// returning all findings sorted by `(file, line, col)`.
pub fn check_workspace(root: &Path, config: &Config) -> Result<Vec<Diagnostic>, LintError> {
    let mut files = Vec::new();
    for include in &config.include {
        collect_rust_files(root, Path::new(include), config, &mut files)?;
    }
    files.sort();
    files.dedup();

    let mut diags = Vec::new();
    for rel in &files {
        let full = root.join(rel);
        let src = fs::read_to_string(&full).map_err(|e| LintError::Io(full, e))?;
        let scoped = scope_config_for(rel, config);
        diags.extend(rules::lint_file(rel, &src, &scoped));
    }
    Ok(diags)
}

/// Integration tests, benches, and examples are not library code: the
/// `no_unwrap` and `swallowed_result` contracts do not apply there.
/// (`hot_alloc` names exact files and `safety_comment` applies
/// everywhere, so both pass through unchanged.)
fn scope_config_for(rel: &str, config: &Config) -> Config {
    let non_library = rel
        .split('/')
        .any(|c| LIBRARY_ONLY_RULES_SKIP_COMPONENTS.contains(&c));
    if !non_library {
        return config.clone();
    }
    let mut scoped = config.clone();
    scoped.no_unwrap = None;
    scoped.swallowed_result = None;
    scoped
}

fn collect_rust_files(
    root: &Path,
    rel: &Path,
    config: &Config,
    out: &mut Vec<String>,
) -> Result<(), LintError> {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    if config
        .exclude
        .iter()
        .any(|p| config::path_has_prefix(&rel_str, p))
    {
        return Ok(());
    }
    let full = root.join(rel);
    let meta = fs::metadata(&full).map_err(|e| LintError::Io(full.clone(), e))?;
    if meta.is_file() {
        if rel_str.ends_with(".rs") {
            out.push(rel_str);
        }
        return Ok(());
    }
    let entries = fs::read_dir(&full).map_err(|e| LintError::Io(full.clone(), e))?;
    let mut children: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(full.clone(), e))?;
        children.push(rel.join(entry.file_name()));
    }
    children.sort();
    for child in children {
        collect_rust_files(root, &child, config, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_library_paths_drop_unwrap_rules_only() {
        let config = Config::parse(
            "[files]\ninclude = []\nexclude = []\n\
             [rules.no_unwrap]\n[rules.safety_comment]\n[rules.swallowed_result]\n",
        )
        .unwrap();
        let scoped = scope_config_for("crates/core/tests/it.rs", &config);
        assert!(scoped.no_unwrap.is_none());
        assert!(scoped.swallowed_result.is_none());
        assert!(scoped.safety_comment.is_some());
        let lib = scope_config_for("crates/core/src/lib.rs", &config);
        assert!(lib.no_unwrap.is_some());
        assert!(lib.swallowed_result.is_some());
        // `examples/` and `benches/` are non-library wherever they appear.
        assert!(scope_config_for("examples/quickstart.rs", &config)
            .no_unwrap
            .is_none());
        assert!(scope_config_for("crates/core/benches/b.rs", &config)
            .no_unwrap
            .is_none());
    }
}
