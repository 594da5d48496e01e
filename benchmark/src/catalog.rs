//! The benchmark's definition: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should move.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`ind-benchmark spec`), and `tests/smoke.rs` holds the committed file to
//! them, so a name, unit or bound is declared exactly once.

use crate::json::Json;

/// How long one measured run lasts (`--seconds`; `BENCHMARK.json`'s
/// `run_seconds`). As long as the driver's time limit allows with a margin:
/// its 4 + 22 x 4 runs, each with five set-ups (2.5-4 s) and the trials'
/// start-up, use about 2900 of its 3420 s. The slowest workload
/// (`uniprot_memory`: 1.2 s discovery, a second extraction and five
/// validate repeats per trial) gets nine trials, `pdb_files` eleven.
pub const RUN_SECONDS: u64 = 26;

/// Which generator makes a workload's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `generate_pdb`: many tables, many short columns.
    Pdb,
    /// `generate_uniprot`: few tables, long skewed columns.
    Uniprot,
    /// `generate_wide`: four columns, 4 KiB values.
    Wide,
}

/// One workload: a generated input plus how the library is asked to run.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
    pub dataset: Dataset,
    /// Generator scale, in the CLI's `generate --scale` units.
    pub scale: usize,
    /// Scale under `--quick` (smoke test; same code path).
    pub quick_scale: usize,
    /// Sorter memory budget; `None` = the library default.
    pub memory_budget_bytes: Option<usize>,
    /// `discover_in_memory` (the CLI default) instead of the on-disk path.
    pub in_memory: bool,
    /// Bound `compare` holds `discover_wall_s` and `discover_cpu_s` to on
    /// this workload, and the one for `validate_wall_s`: the smallest of
    /// 10 % (ISSUE 11's), 15 %, 20 % and 25 % (the most the contract
    /// allows) that is about three times the workload's measured
    /// run-to-run spread, and twice the one seen while the shared host was
    /// busy (README.md has the spreads). `BENCHMARK.json`
    /// carries one bound per metric, which is the loosest of its
    /// workloads' — see [`END_TO_END`] and [`bound_on`].
    pub discover_bound: f64,
    pub validate_bound: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pdb_files",
        why: "551 short columns: export is dominated by per-file durable publication and the merge runs 551 cursors over 44,315 candidates; per-file and heap optimisations must show here",
        dataset: Dataset::Pdb,
        scale: 1000,
        quick_scale: 40,
        memory_budget_bytes: None,
        in_memory: false,
        discover_bound: 0.25,
        validate_bound: 0.10,
    },
    Workload {
        name: "uniprot_rows",
        why: "82 long skewed columns (477k rows): TSV parse and render+sort dominate, cursors are long and overlap; exercises loader, sorter, long-cursor reads; publishing 82 files is still a third of the export",
        dataset: Dataset::Uniprot,
        scale: 5000,
        quick_scale: 60,
        memory_budget_bytes: None,
        in_memory: false,
        discover_bound: 0.15,
        validate_bound: 0.10,
    },
    Workload {
        name: "wide_spill",
        why: "4 columns of 4 KiB values (64 MB) under a 4 MiB sort budget: bigger than the sorter's cache, export spills and is byte-bound, SPIDER closes early after <1% of the bytes; 4 files, so no per-file cost",
        dataset: Dataset::Wide,
        scale: 4000,
        quick_scale: 400,
        memory_budget_bytes: Some(4 << 20),
        in_memory: false,
        discover_bound: 0.15,
        validate_bound: 0.10,
    },
    Workload {
        name: "uniprot_memory",
        why: "the uniprot_rows input through discover_in_memory (the CLI default): same merge over MemoryCursors and Vec sets, no disk at all, so every I/O optimisation is bypassed",
        dataset: Dataset::Uniprot,
        scale: 5000,
        quick_scale: 60,
        memory_budget_bytes: None,
        in_memory: true,
        discover_bound: 0.10,
        validate_bound: 0.20,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric a user of the system would see.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// What the user waits for or pays (README glossary).
    pub what: &'static str,
}

/// Timing differences below this are timer-and-scheduler noise whatever
/// the relative bound says (`validate_wall_s` on `wide_spill` is ≈4 ms).
/// `compare` applies it to every metric measured in seconds.
pub const TIMING_FLOOR_S: f64 = 0.002;

/// A bound here is the one `BENCHMARK.json` carries: one per metric, so the
/// loosest its workloads need. Two sets of ten runs of ten seeds gave a
/// quartile spread of the run medians of 6.5-8.4 % (`discover_wall_s`) and
/// 4.3-4.9 % (`discover_cpu_s`) on `pdb_files`, whose 1100 fsyncs per trial
/// go through the shared host's storage path, against 1-4 % on the other
/// workloads; `validate_wall_s` spreads 1-4 %. A busy spell on the host has doubled
/// these. `compare` holds each workload to its own bound ([`bound_on`]).
/// Memory and space repeat to within 0.3 % and are held tightly. README.md
/// has the measured spreads.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "generate the input, save it as TSV, compute the oracle IND set; never inside a trial",
    },
    EndToEnd {
        name: "discover_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "one clock around load_database -> discover_on_disk_with (or discover_in_memory) -> sorted named IND list + digest, in a fresh process",
    },
    EndToEnd {
        name: "validate_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.20,
        what: "IndFinder::discover over the already-published export, all cursors reopened (the paper's Table 2 unit; what a --resume or what-if rerun costs)",
    },
    EndToEnd {
        name: "discover_cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "user+system CPU of the discover section over all threads: separates computing from waiting on fsync",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
        what: "VmHWM of the trial process at the end of the discover section: the point of a database-external algorithm",
    },
    EndToEnd {
        name: "export_bytes_per_input_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.01,
        what: "bytes the export holds (files left in the workdir; resident value bytes for uniprot_memory) per TSV input byte: space amplification, exact for a given input",
    },
];

/// The bound `compare` holds `metric` to on `workload`: the workload's own
/// for the three trial timings, the metric's otherwise.
pub fn bound_on(metric: &EndToEnd, workload: &Workload) -> f64 {
    match metric.name {
        "discover_wall_s" | "discover_cpu_s" => workload.discover_bound,
        "validate_wall_s" => workload.validate_bound,
        _ => metric.bound,
    }
}

/// A metric of one layer (layer = library module), taken from the traced,
/// decomposed trial.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The public call the number is taken around, or the getter it is
    /// read from.
    pub source: &'static str,
    /// End-to-end metrics this one should move (the prediction later
    /// changes are held to). Empty = listed so that growth shows.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them; on the others the
    /// prediction is no change.
    pub on: &'static [&'static str],
}

const DISK: &[&str] = &["pdb_files", "uniprot_rows", "wide_spill"];
const MERGE_BOUND: &[&str] = &["pdb_files", "uniprot_rows", "uniprot_memory"];
const WALL_CPU: &[&str] = &["discover_wall_s", "discover_cpu_s"];

// A macro rather than a constructor so that rustfmt leaves the table
// below one row per metric.
macro_rules! layer {
    ($name:expr, $unit:literal, $better:literal, $source:literal, $moves:expr, $on:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            source: $source,
            moves: $moves,
            on: $on,
        }
    };
}

/// The one per-layer metric no single traced trial can report: the driver
/// derives it from the traced and untraced trials of a run.
pub const TRACE_OVERHEAD: &str = "trace.overhead_rel";

pub const PER_LAYER: &[PerLayer] = &[
    layer!("storage.tsv.load_s", "s", "lower", "tsv::load_database", WALL_CPU, &["uniprot_rows", "uniprot_memory"]),
    layer!("storage.tsv.input_mb_per_s", "MB/s", "higher", "TSV input bytes / load_s", WALL_CPU, &["uniprot_rows", "uniprot_memory"]),
    layer!("storage.tsv.rows", "count", "lower", "Database::total_rows", &[], &[]),
    layer!("valueset.manager.export_s", "s", "lower", "ExportedDatabase::export", &["discover_wall_s"], DISK),
    layer!("valueset.manager.attributes", "count", "lower", "ExportedDatabase::attributes().len()", &[], &[]),
    layer!("valueset.manager.file_bytes", "bytes", "lower", "sum of ExportedAttribute::file_bytes", &["export_bytes_per_input_byte"], DISK),
    layer!("valueset.manager.publish_s", "s", "lower", "export_s - external_sort.sort_write_s (waiting, not computing)", &["discover_wall_s"], &["pdb_files", "uniprot_rows"]),
    layer!("valueset.manager.publish_us_per_file", "us", "lower", "publish_s / attributes", &["discover_wall_s"], &["pdb_files", "uniprot_rows"]),
    layer!("valueset.external_sort.sort_write_s", "s", "lower", "probe: per column ExternalSorter::push_with + finish_into a non-atomic ValueFileWriter", WALL_CPU, &["uniprot_rows", "wide_spill"]),
    layer!("valueset.external_sort.values_pushed", "count", "lower", "sum of SortStats::pushed", &[], &[]),
    layer!("valueset.external_sort.values_distinct", "count", "lower", "sum of SortStats::distinct", &[], &[]),
    layer!("valueset.external_sort.spill_runs", "count", "lower", "sum of SortStats::runs", &["discover_wall_s"], &["wide_spill"]),
    layer!("valueset.external_sort.arena_peak_bytes", "bytes", "lower", "SortStats::arena_bytes (lifetime peak)", &["peak_rss_mb"], &["uniprot_rows", "wide_spill"]),
    layer!("valueset.external_sort.spill_key_compares", "count", "lower", "sum of SortStats::key_compares", &["discover_cpu_s"], &["wide_spill"]),
    layer!("valueset.external_sort.spill_memcmp_compares", "count", "lower", "sum of SortStats::memcmp_compares", &["discover_cpu_s"], &["wide_spill"]),
    layer!("valueset.format.write_s", "s", "lower", "probe: re-append every published record through a non-atomic ValueFileWriter (framing + CRC + write)", &["discover_wall_s"], &["wide_spill"]),
    layer!("valueset.format.write_mb_per_s", "MB/s", "higher", "file_bytes / write_s", &["discover_wall_s"], &["wide_spill"]),
    layer!("valueset.format.scan_s", "s", "lower", "probe: drain every published file through ValueFileReader", &["validate_wall_s"], &["wide_spill", "uniprot_rows"]),
    layer!("valueset.format.scan_mb_per_s", "MB/s", "higher", "file_bytes / scan_s", &["validate_wall_s"], &["wide_spill", "uniprot_rows"]),
    layer!("valueset.block.read_calls", "count", "lower", "ExportedDatabase::read_calls after reset_read_calls + merge", &["validate_wall_s"], &["pdb_files"]),
    layer!("valueset.block.file_opens", "count", "lower", "ExportedDatabase::file_opens after the merge", &["validate_wall_s"], &["pdb_files"]),
    layer!("valueset.block.io_retries", "count", "lower", "ExportedDatabase::io_retries (must stay 0)", &[], &[]),
    layer!("valueset.block.checksum_failures", "count", "lower", "ExportedDatabase::checksum_failures (must stay 0)", &[], &[]),
    layer!("valueset.extract.memory_export_s", "s", "lower", "memory_export_with_threads(&db, 1)", &["discover_wall_s", "peak_rss_mb"], &["uniprot_memory"]),
    layer!("core.attr.profile_s", "s", "lower", "profiles_from_export", &[], &[]),
    layer!("core.candidates.generate_s", "s", "lower", "generate_candidates", &["validate_wall_s"], &["pdb_files"]),
    layer!("core.candidates.pairs_considered", "count", "lower", "RunMetrics::pairs_considered", &["validate_wall_s"], &["pdb_files"]),
    layer!("core.candidates.candidates", "count", "lower", "generate_candidates(..).len()", &["validate_wall_s"], &["pdb_files"]),
    layer!("core.candidates.pruned_cardinality", "count", "higher", "RunMetrics::pruned_cardinality", &["validate_wall_s"], &["pdb_files"]),
    layer!("core.spider.merge_s", "s", "lower", "run_spider", &["validate_wall_s"], MERGE_BOUND),
    layer!("core.spider.ns_per_item", "ns", "lower", "merge_s / items_read", &["validate_wall_s"], MERGE_BOUND),
    layer!("core.spider.items_read", "count", "lower", "RunMetrics::items_read", &["validate_wall_s"], MERGE_BOUND),
    layer!("core.spider.value_bytes_read", "bytes", "lower", "RunMetrics::value_bytes_read", &["validate_wall_s"], MERGE_BOUND),
    layer!("core.spider.comparisons", "count", "lower", "RunMetrics::comparisons", &["validate_wall_s"], MERGE_BOUND),
    layer!("core.spider.key_compares", "count", "lower", "RunMetrics::key_compares", &["validate_wall_s"], MERGE_BOUND),
    layer!("core.spider.memcmp_compares", "count", "lower", "RunMetrics::memcmp_compares", &["validate_wall_s"], MERGE_BOUND),
    layer!("core.spider.cursor_opens", "count", "lower", "RunMetrics::cursor_opens", &["validate_wall_s"], &["pdb_files"]),
    layer!("core.spider.satisfied", "count", "higher", "run_spider(..).len()", &[], &[]),
    layer!("core.spider.read_fraction", "ratio", "lower", "value_bytes_read / stored value-file bytes: the early-close claim", &["validate_wall_s"], &["wide_spill"]),
    layer!("core.runner.output_s", "s", "lower", "sort + names + digest of the satisfied list", &["discover_wall_s"], &["pdb_files"]),
    layer!(TRACE_OVERHEAD, "ratio", "lower", "median traced discover wall / median untraced discover wall - 1 (same run, alternating)", &[], &[]),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "measure",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound", Json::Num(m.bound)));
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// The metric glossary and the moves table as markdown — the README's
/// tables are this output (`ind-benchmark describe`), and the smoke test
/// fails when they drift apart.
pub fn describe_markdown() -> String {
    let mut out =
        String::from("| workload | scale | discover / validate bound | why |\n|---|---|---|---|\n");
    for w in WORKLOADS {
        out.push_str(&format!(
            "| `{}` | {} | {:.0} % / {:.0} % | {} |\n",
            w.name,
            w.scale,
            w.discover_bound * 100.0,
            w.validate_bound * 100.0,
            w.why
        ));
    }
    out.push_str("\n| end-to-end metric | unit | bound | what a user waits for or pays |\n|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.bound * 100.0,
            m.what
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | source | should move | on |\n|---|---|---|---|---|\n",
    );
    let list = |names: &[&str]| {
        if names.is_empty() {
            "—".to_string()
        } else {
            names
                .iter()
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    for l in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            l.name,
            l.unit,
            l.source,
            list(l.moves),
            list(l.on)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_limits() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn a_metrics_bound_is_the_loosest_of_its_workloads() {
        for metric in END_TO_END {
            let loosest = WORKLOADS
                .iter()
                .map(|w| bound_on(metric, w))
                .fold(0.0, f64::max);
            assert_eq!(loosest, metric.bound, "{}", metric.name);
        }
    }

    #[test]
    fn every_moves_entry_names_an_existing_metric_and_workload() {
        for layer in PER_LAYER {
            for moved in layer.moves {
                assert!(
                    END_TO_END.iter().any(|m| m.name == *moved),
                    "{}: moves unknown metric {moved}",
                    layer.name
                );
            }
            for on in layer.on {
                assert!(
                    workload(on).is_some(),
                    "{}: unknown workload {on}",
                    layer.name
                );
            }
            assert_eq!(
                layer.moves.is_empty(),
                layer.on.is_empty(),
                "{}: a prediction needs both a metric and a workload",
                layer.name
            );
        }
    }
}
