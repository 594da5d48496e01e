//! The `ind-lint` CLI.
//!
//! ```text
//! ind-lint check [--root DIR] [--config PATH] [--json]
//! ind-lint rules
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/configuration/I/O error.

use ind_lint::{check_workspace, report_json, Config, LintError};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ind-lint — static invariant checker for the SPIDER workspace

USAGE:
    ind-lint check [--root DIR] [--config PATH] [--json]
    ind-lint rules

OPTIONS:
    --root DIR       Workspace root to lint (default: nearest dir with lint.toml)
    --config PATH    Configuration file (default: <root>/lint.toml)
    --json           Emit findings as a JSON array instead of rustc-style text
";

const RULES_HELP: &str = "\
hot_alloc         allocation idioms denied in the configured hot-path modules
no_unwrap         .unwrap()/.expect(/panic! denied in library code
safety_comment    unsafe blocks/impls require a preceding // SAFETY: comment
swallowed_result  `let _ =` and `.ok();` discard errors silently

Suppress one finding with an annotation on the same line or the line above:
    // lint: allow(<rule>) — <reason>
The reason is mandatory; unused annotations are findings themselves.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<usize, String> {
    let mut command = None;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" | "rules" if command.is_none() => command = Some(arg.clone()),
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--config" => {
                config_path = Some(PathBuf::from(it.next().ok_or("--config needs a path")?));
            }
            "--json" => json = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }

    match command.as_deref() {
        Some("rules") => {
            print!("{RULES_HELP}");
            Ok(0)
        }
        Some("check") => {
            let root = match root {
                Some(r) => r,
                None => find_root()?,
            };
            let config = match &config_path {
                Some(p) => {
                    let text =
                        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                    Config::parse(&text).map_err(|e| e.to_string())?
                }
                None => ind_lint::load_config(&root).map_err(|e| e.to_string())?,
            };
            let diags = check_workspace(&root, &config).map_err(|e| match e {
                LintError::Io(p, e) => format!("{}: {e}", p.display()),
                LintError::Config(e) => e.to_string(),
            })?;
            if json {
                println!("{}", report_json(&diags).compact());
            } else {
                for d in &diags {
                    print!("{}", d.render_text());
                    println!();
                }
                if diags.is_empty() {
                    println!("ind-lint: clean");
                } else {
                    println!(
                        "ind-lint: {} finding{} — see `ind-lint rules` for the escape hatch",
                        diags.len(),
                        if diags.len() == 1 { "" } else { "s" }
                    );
                }
            }
            Ok(diags.len())
        }
        _ => Err(format!("expected a command\n\n{USAGE}")),
    }
}

/// Walks up from the current directory to the nearest `lint.toml`.
fn find_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| e.to_string())?;
    let mut dir = start.as_path();
    loop {
        if dir.join("lint.toml").is_file() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no lint.toml found above {}; pass --root",
                    start.display()
                ))
            }
        }
    }
}
