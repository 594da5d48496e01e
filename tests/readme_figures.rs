//! README's Performance paragraph, its block-I/O paragraph and its export
//! table quote the committed `BENCH_spider.json`; this test renders the quoted fragments from the JSON
//! and fails when the README says anything else. Regenerating the baseline
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

/// The export table's row for `name`, cells separated by single spaces.
fn export_row(bench: &Json, name: &str) -> String {
    let export = dataset(bench, name).get("export").expect("export section");
    let allocs = |sorter: &str| number(named(export, "sorters", "sorter", sorter), "allocs");
    format!(
        "| {name} | {} | {} | {} | {:.1}× | {:.2}× |",
        thousands(number(export, "pushed")),
        thousands(allocs("legacy")),
        thousands(allocs("arena")),
        number(export, "alloc_reduction"),
        number(export, "speedup_arena_vs_legacy"),
    )
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
    let pdb_disk = pdb.get("disk").expect("pdb disk section");
    let biosql_disk = biosql.get("disk").expect("biosql disk section");
    // "N → M": the BufReader shape's read calls, then the block reader's.
    let reads = |disk: &Json| {
        let calls = |name: &str| number(named(disk, "engines", "engine", name), "read_calls");
        format!(
            "{} → {}",
            thousands(calls("spider_bufreader")),
            thousands(calls("spider_block"))
        )
    };
    let quoted = [
        export_row(&bench, "pdb"),
        export_row(&bench, "biosql"),
        format!("**{:.2}×** on PDB", number(pdb, "speedup_spider_vs_legacy")),
        format!(
            "({:.1} ms vs {:.1} ms; {} vs {} allocations)",
            number(spider, "wall_ms"),
            number(legacy, "wall_ms"),
            thousands(number(spider, "allocs")),
            thousands(number(legacy, "allocs")),
        ),
        format!(
            "**{:.2}×** on biosql",
            number(biosql, "speedup_spider_vs_legacy")
        ),
        format!(
            "**~{:.0}× fewer read calls** on PDB ({})",
            number(pdb_disk, "read_call_reduction"),
            reads(pdb_disk)
        ),
        format!(
            "**~{:.0}× fewer** on biosql ({})",
            number(biosql_disk, "read_call_reduction"),
            reads(biosql_disk)
        ),
        format!(
            "{:.2}× (PDB) and {:.2}× (biosql) of the old reader shape's speed",
            number(pdb_disk, "speedup_block_vs_bufreader"),
            number(biosql_disk, "speedup_block_vs_bufreader")
        ),
    ];
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
