//! The workspace meta-test: `cargo test` lints the entire tree.
//!
//! This is the enforcement point for the invariants PRs 2–5 established —
//! the allocation-free merge and export loops, library-wide `Result`
//! discipline, audited `unsafe`, and no silently swallowed errors. A
//! regression in any of them fails the suite with a rustc-style
//! diagnostic pointing at the offending line.

use ind_lint::{check_workspace, load_config};
use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config = load_config(root).expect("lint.toml parses");
    let diags = check_workspace(root, &config).expect("workspace walk succeeds");
    assert!(
        diags.is_empty(),
        "ind-lint found {} violation(s); fix them or annotate with \
         `// lint: allow(<rule>) — <reason>`:\n\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.render_text())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn hot_path_modules_stay_under_hot_alloc() {
    // The config must keep covering the merge/export hot paths; silently
    // dropping a file from the list would disable the zero-alloc guard.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config = load_config(root).expect("lint.toml parses");
    let hot = config.hot_alloc.expect("hot_alloc rule configured");
    for file in [
        "crates/core/src/spider.rs",
        "crates/valueset/src/heap.rs",
        "crates/valueset/src/block.rs",
        "crates/valueset/src/external_sort.rs",
        "crates/valueset/src/tuple.rs",
        "crates/valueset/src/arena.rs",
        "crates/valueset/src/memory.rs",
        "crates/valueset/src/extract.rs",
        "crates/storage/src/column.rs",
        "crates/storage/src/tsv/rows.rs",
    ] {
        assert!(
            hot.paths.iter().any(|p| p == file),
            "{file} missing from [rules.hot_alloc] paths in lint.toml"
        );
        assert!(
            root.join(file).is_file(),
            "{file} is listed in lint.toml but no longer exists"
        );
    }
}
