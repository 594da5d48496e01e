//! README's Performance paragraph, its block-I/O and export paragraphs and
//! its n-ary level table quote the committed `BENCH_spider.json`; this test
//! renders the quoted fragments from the JSON and fails when the README
//! says anything else. Regenerating the baseline
//! (`cargo run --release -p ind-bench --bin bench_spider`) therefore means
//! updating the paragraph in the same change. README's `## CLI` block
//! quotes the synopsis `spider-ind help` prints, and is checked the same way.

use spider_ind::trace::json::{parse, Json};
use std::path::Path;

/// The element of `parent[list]` whose `key` field is `name`.
fn named<'a>(parent: &'a Json, list: &str, key: &str, name: &str) -> &'a Json {
    parent
        .get(list)
        .and_then(Json::as_arr)
        .and_then(|all| {
            all.iter()
                .find(|row| row.get(key).and_then(Json::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("BENCH_spider.json: no {key} {name:?} under {list:?}"))
}

fn dataset<'a>(bench: &'a Json, name: &str) -> &'a Json {
    named(bench, "datasets", "name", name)
}

fn section<'a>(parent: &'a Json, key: &str) -> &'a Json {
    parent
        .get(key)
        .unwrap_or_else(|| panic!("BENCH_spider.json: no {key:?} section"))
}

/// The disk section's `spider_block` row of dataset `d`.
fn block_row(d: &Json) -> &Json {
    named(section(d, "disk"), "engines", "engine", "spider_block")
}

fn number(row: &Json, key: &str) -> f64 {
    row.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?}"))
}

/// `1234567` as `1,234,567`, the way the README's tables print counts.
fn thousands(n: f64) -> String {
    let digits = format!("{n:.0}");
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[test]
fn readme_performance_figures_match_the_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let bench = parse(&std::fs::read_to_string(root.join("BENCH_spider.json")).expect("baseline"))
        .expect("BENCH_spider.json parses");
    assert_eq!(
        bench.get("check_mode"),
        Some(&Json::Bool(false)),
        "the committed baseline must be a full run, not a --check smoke"
    );

    let (pdb, biosql) = (dataset(&bench, "pdb"), dataset(&bench, "biosql"));
    let engine = |name: &str| named(pdb, "engines", "engine", name);
    let (legacy, spider) = (engine("legacy"), engine("spider"));
    let count = |row: &Json, key: &str| thousands(number(row, key));
    let (pdb_block, biosql_block) = (block_row(pdb), block_row(biosql));
    let (pdb_export, biosql_export) = (section(pdb, "export"), section(biosql, "export"));
    let serial = |export: &Json| count(named(export, "passes", "pass", "export_serial"), "allocs");
    let both = |key: &str| (number(pdb_export, key), number(biosql_export, key));
    let (pdb_par, biosql_par) = both("speedup_export_parallel_vs_serial");
    let (pdb_probe, biosql_probe) = both("host_parallel_speedup");
    let mut quoted = vec![
        format!("**{:.2}×** on PDB", number(pdb, "speedup_spider_vs_legacy")),
        format!(
            "({:.1} ms vs {:.1} ms; {} vs {} allocations)",
            number(spider, "wall_ms"),
            number(legacy, "wall_ms"),
            count(spider, "allocs"),
            count(legacy, "allocs"),
        ),
        format!(
            "**{:.2}×** on biosql",
            number(biosql, "speedup_spider_vs_legacy")
        ),
        format!(
            "{} `pread`s for {} cursors and {} values read on PDB, and {} for {} cursors and \
             {} values on biosql",
            count(pdb_block, "read_calls"),
            count(pdb_block, "cursor_opens"),
            count(pdb_block, "items_read"),
            count(biosql_block, "read_calls"),
            count(biosql_block, "cursor_opens"),
            count(biosql_block, "items_read"),
        ),
        format!(
            "`export_serial` rows make {} allocations for {} pdb attributes and {} for {} \
             biosql attributes",
            serial(pdb_export),
            count(pdb_export, "attributes"),
            serial(biosql_export),
            count(biosql_export, "attributes"),
        ),
        format!(
            "`pushed` ({} and {} values)",
            count(pdb_export, "pushed"),
            count(biosql_export, "pushed")
        ),
        format!(
            "reads {pdb_par:.2}× on pdb and {biosql_par:.2}× on biosql with the probe at \
             {pdb_probe:.2} and {biosql_probe:.2}"
        ),
    ];
    // The n-ary level table; level 2, where apriori generation shows, is
    // set in bold.
    let levels = section(&bench, "nary").get("levels").and_then(Json::as_arr);
    for level in levels.expect("nary levels") {
        let generated = match number(level, "arity") as u64 {
            2 => format!("**{}**", count(level, "generated")),
            _ => count(level, "generated"),
        };
        quoted.push(format!(
            "| {} | {} | {generated} | {} |",
            count(level, "arity"),
            count(level, "enumerable"),
            count(level, "satisfied")
        ));
    }
    // Paragraphs are hard-wrapped and table cells padded: compare with
    // whitespace runs folded.
    let flat = readme.split_whitespace().collect::<Vec<_>>().join(" ");
    for fragment in &quoted {
        assert!(
            flat.contains(fragment.as_str()),
            "README.md does not quote {fragment:?} — it has drifted from BENCH_spider.json; \
             expected fragments: {quoted:#?}"
        );
    }
}

/// The synopsis lines of `text`: each `spider-ind <command> …` line and the
/// `[--flag]` lines that continue it, trimmed.
fn synopsis_lines(text: &str) -> Vec<&str> {
    let lines = text.lines().map(str::trim);
    lines
        .filter(|l| l.starts_with("spider-ind ") || l.starts_with('['))
        .collect()
}

#[test]
fn readme_cli_synopsis_matches_help() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md");
    let cli = readme
        .split("## CLI")
        .nth(1)
        .and_then(|rest| rest.split("```text").nth(1))
        .and_then(|rest| rest.split("```").next())
        .expect("README's ## CLI block");
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_spider-ind"))
        .arg("help")
        .output()
        .expect("binary runs");
    let help = String::from_utf8(help.stdout).expect("utf8 help");
    let usage = help.split("USAGE:").nth(1).expect("a USAGE section");
    assert_eq!(
        synopsis_lines(cli),
        synopsis_lines(usage),
        "README's CLI synopsis has drifted from `spider-ind help`"
    );
}
