//! Smoke test of the whole benchmark at `--quick` scale: same binary, same
//! code path, seconds instead of minutes.

use ind_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use ind_benchmark::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_ind-benchmark");

/// Runs the binary with its output root inside cargo's per-test tmp dir,
/// so the test writes nothing outside the target directory.
fn bench(root: &str, args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .env("CARGO_TARGET_DIR", output_root(root))
        .output()
        .expect("the benchmark binary runs")
}

fn output_root(root: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(root)
}

fn last_line_json(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a result line");
    json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn keys(value: &Json) -> Vec<&str> {
    value
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn committed_benchmark_json_is_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).unwrap();
    assert_eq!(
        committed,
        catalog::benchmark_json(),
        "BENCHMARK.json drifted from src/catalog.rs; regenerate it with `ind-benchmark spec`"
    );
    assert_eq!(
        keys(&committed),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    // Names, counts and bounds are held to the driver's limits by the
    // catalogue's own unit test; equality above carries them over.
    assert!(std::fs::metadata(&path).unwrap().len() <= 64 * 1024);
}

#[test]
fn readme_tables_are_the_catalogue() {
    let readme =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md")).unwrap();
    for table in catalog::describe_markdown().split("\n\n") {
        assert!(
            readme.contains(table.trim()),
            "README.md drifted from `ind-benchmark describe`:\n{table}"
        );
    }
}

#[test]
fn measure_prints_the_contract_line_in_both_modes() {
    for (trace, expected) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
    ] {
        let output = bench(
            "measure",
            &[
                "measure",
                "--workload",
                "wide_spill",
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ],
        );
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let line = last_line_json(&output);
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            keys(metrics),
            expected.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        for (name, unit) in expected {
            let metric = metrics.get(name).unwrap();
            assert_eq!(keys(metric), ["value", "unit"]);
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit));
            let value = metric.get("value").and_then(Json::as_f64).unwrap();
            assert!(value.is_finite(), "{name} = {value}");
            if trace == "0" {
                assert!(value > 0.0, "end-to-end metric {name} must never read 0");
            }
        }
    }
    // The trace of the traced run was written out when it ended, and the
    // work directories are gone.
    let root = output_root("measure");
    let spans =
        json::parse(&std::fs::read_to_string(root.join("trace-wide_spill.json")).unwrap()).unwrap();
    let spans = spans.as_arr().unwrap();
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("core.spider.merge")));
    assert!(spans.iter().all(|s| [
        "trial", "id", "parent", "name", "start_ns", "end_ns", "self_ns"
    ]
    .iter()
    .all(|k| s.get(k).is_some())));
    assert_eq!(std::fs::read_dir(root.join("work")).unwrap().count(), 0);
    assert!(root.join("samples/wide_spill-seed7-trace0.json").exists());
}

#[test]
fn a_dropped_ind_counts_as_failed_ops_and_contributes_no_timing() {
    // Two quick trials of 1 discover + 5 validate ops each. `drop-ind`
    // corrupts the second trial, `drop-ind-always` both: the run still
    // prints its counts, and a metric no op sampled reads null.
    for (fault, failed, trials_sampled) in [("drop-ind", 6.0, 1.0), ("drop-ind-always", 12.0, 0.0)]
    {
        let output = bench(
            fault,
            &[
                "measure",
                "--workload",
                "uniprot_rows",
                "--seed",
                "42",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--quick",
                "--inject",
                fault,
            ],
        );
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let line = last_line_json(&output);
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(12.0));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(failed));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            keys(metrics),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        let value = |name: &str| metrics.get(name).and_then(|m| m.get("value")).unwrap();
        assert!(value("setup_s").as_f64().unwrap() > 0.0);
        assert_eq!(
            value("discover_wall_s") == &Json::Null,
            trials_sampled == 0.0
        );

        let samples = json::parse(
            &std::fs::read_to_string(
                output_root(fault).join("samples/uniprot_rows-seed42-trace0.json"),
            )
            .unwrap(),
        )
        .unwrap();
        let n = |metric: &str| {
            samples
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("n"))
                .and_then(Json::as_f64)
        };
        assert_eq!(n("discover_wall_s"), Some(trials_sampled));
        assert_eq!(n("validate_wall_s"), Some(5.0 * trials_sampled));
        assert_eq!(n("peak_rss_mb"), Some(trials_sampled));
    }
}

#[test]
fn quick_run_covers_every_workload_and_compares_clean_with_itself() {
    let out = output_root("run").join("results.json");
    let output = bench(
        "run",
        &[
            "run",
            "--quick",
            "--seed",
            "3",
            "--out",
            out.to_str().unwrap(),
        ],
    );
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();

    let environment = doc.get("environment").unwrap();
    for key in [
        "nproc",
        "cpu_model",
        "kernel",
        "rustc",
        "git_commit",
        "workdir_filesystem",
        "trial_dirs_spread",
        "loadavg_before",
        "flush_policy",
        "cache_state",
    ] {
        assert!(environment.get(key).is_some(), "environment lacks {key}");
    }

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(
        workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect::<Vec<_>>(),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for w in workloads {
        for (section, expected) in [
            (
                "end_to_end",
                END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
            (
                "per_layer",
                PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
        ] {
            let section = w.get(section).unwrap();
            assert_eq!(section.get("ops_failed").and_then(Json::as_f64), Some(0.0));
            assert!(section.get("ops_attempted").and_then(Json::as_f64).unwrap() >= 2.0);
            assert_eq!(keys(section.get("metrics").unwrap()), expected);
            for (name, metric) in section.get("metrics").and_then(Json::as_obj).unwrap() {
                let n = metric.get("n").and_then(Json::as_f64).unwrap();
                assert_eq!(
                    metric.f64s("samples").len() as f64,
                    n,
                    "{name}: raw samples are kept"
                );
                assert!(n >= 1.0);
            }
        }
    }
    // The merge found work to do on every workload, and closes early on
    // the wide one.
    let layer = |workload: usize, name: &str| {
        workloads[workload]
            .get("per_layer")
            .and_then(|s| s.get("metrics"))
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("median"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    for i in 0..workloads.len() {
        assert!(layer(i, "core.spider.items_read") > 0.0);
        assert!(layer(i, "core.spider.satisfied") > 0.0);
    }
    assert!(layer(0, "valueset.manager.attributes") > layer(1, "valueset.manager.attributes"));
    assert!(
        layer(2, "valueset.external_sort.spill_runs") > 0.0,
        "wide_spill spills"
    );
    assert_eq!(layer(0, "valueset.external_sort.spill_runs"), 0.0);
    assert!(layer(2, "core.spider.read_fraction") < 0.5);
    assert!(layer(3, "valueset.extract.memory_export_s") > 0.0);
    assert_eq!(
        layer(3, "valueset.manager.export_s"),
        0.0,
        "no disk on the memory workload"
    );

    let compared = bench(
        "run",
        &["compare", out.to_str().unwrap(), out.to_str().unwrap()],
    );
    let table = String::from_utf8_lossy(&compared.stdout);
    assert!(compared.status.success(), "{table}");
    assert!(
        !table.contains("worse") && !table.contains("differs"),
        "{table}"
    );
    assert_eq!(
        table.matches("same").count() + table.matches("unresolved").count(),
        WORKLOADS.len() * END_TO_END.len()
    );
}
