//! Integration tests for the `spider-ind` command-line tool, driving the
//! real binary end to end: generate → profile → discover → fks.

use ind_testkit::TempDir;
use std::process::Command;

fn spider_ind(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spider-ind"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The IND lines of a `discover` run (its header holds timings).
fn inds(out: &std::process::Output) -> Vec<String> {
    let text = stdout(out);
    text.lines()
        .filter(|l| l.contains(" <= "))
        .map(Into::into)
        .collect()
}

/// `generate <kind> --scale <scale>` into a fresh temp directory: the
/// directory (dropping it removes the database) and the database's path.
fn generated(name: &str, kind: &str, scale: &str) -> (TempDir, String) {
    let dir = TempDir::new(name);
    let db = dir.join("db").to_str().expect("utf8 path").to_string();
    let out = spider_ind(&["generate", kind, &db, "--scale", scale]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, db)
}

#[test]
fn help_lists_all_commands() {
    let out = spider_ind(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in ["generate", "profile", "discover", "fks"] {
        assert!(text.contains(cmd), "help missing `{cmd}`:\n{text}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = spider_ind(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_profile_discover_fks_round_trip() {
    let dir = TempDir::new("cli-roundtrip");
    let db_dir = dir.join("db");
    let db_path = db_dir.to_str().expect("utf8 path");

    let out = spider_ind(&["generate", "scop", db_path, "--scale", "10"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("4 tables"));

    let out = spider_ind(&["profile", db_path]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("scop_node.sunid"));
    assert!(text.contains("unique"));

    let out = spider_ind(&["discover", db_path, "--algorithm", "spider"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("satisfied INDs"));
    assert!(
        text.contains("scop_hierarchy.sunid <= scop_node.sunid"),
        "{text}"
    );

    let out = spider_ind(&["fks", db_path]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("foreign-key guesses"));
    assert!(text.contains("accession-number candidates"));
    assert!(text.contains("primary relation candidates"));
}

#[test]
fn discover_algorithms_agree_via_cli() {
    let (_dir, db) = generated("cli-agree", "scop", "5");
    let db_path = db.as_str();

    let mut outputs = Vec::new();
    for algo in ["bf", "bfpar", "sp", "spider", "blockwise"] {
        let mut args = vec!["discover", db_path, "--algorithm", algo];
        if algo == "bfpar" {
            args.extend(["--threads", "3"]);
        }
        let out = spider_ind(&args);
        assert!(out.status.success(), "{algo}");
        outputs.push((algo, inds(&out)));
    }
    for pair in outputs.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "{} vs {}", pair[0].0, pair[1].0);
    }
}

#[test]
fn on_disk_discovery_matches_in_memory_via_cli() {
    let (dir, db) = generated("cli-ondisk", "scop", "5");
    let db_path = db.as_str();

    let mem = spider_ind(&["discover", db_path, "--algorithm", "spider"]);
    assert!(mem.status.success());

    // Disk-backed runs at default and non-default block sizes, with an
    // explicit workdir (kept) and without (temp, removed).
    let workdir = dir.join("export");
    let disk = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--names",
        "--workdir",
        workdir.to_str().expect("utf8"),
    ]);
    assert!(
        disk.status.success(),
        "{}",
        String::from_utf8_lossy(&disk.stderr)
    );
    assert_eq!(inds(&mem), inds(&disk));
    assert!(workdir.exists(), "explicit --workdir is kept");
    assert!(
        stdout(&disk).contains("read_calls="),
        "--names must report read calls:\n{}",
        stdout(&disk)
    );

    let tiny = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--block-size",
        "64",
    ]);
    assert!(tiny.status.success());
    assert_eq!(
        inds(&mem),
        inds(&tiny),
        "block size must not change results"
    );
}

#[test]
fn tiny_memory_budget_spills_and_matches_in_memory_via_cli() {
    // `--memory-budget` caps the export sorter; 256 bytes is 16 index
    // entries, far fewer than a column's rows at scale 10, so every
    // attribute export goes through multi-run spills and the merge tree —
    // and discovery must be byte-identical to the in-memory run.
    let (dir, db) = generated("cli-budget", "scop", "10");
    let db_path = db.as_str();

    let mem = spider_ind(&["discover", db_path, "--algorithm", "spider"]);
    assert!(mem.status.success());
    assert!(!inds(&mem).is_empty(), "scop at scale 10 has INDs");

    let spilled = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--memory-budget",
        "256",
    ]);
    assert!(
        spilled.status.success(),
        "{}",
        String::from_utf8_lossy(&spilled.stderr)
    );
    assert_eq!(
        inds(&mem),
        inds(&spilled),
        "a spill-forcing memory budget must not change results"
    );

    // The n-ary pipeline takes the same knob for its composite exports.
    let chains_dir = dir.join("chains");
    let chains_path = chains_dir.to_str().expect("utf8 path");
    assert!(
        spider_ind(&["generate", "chains", chains_path, "--scale", "20"])
            .status
            .success()
    );
    let nary_mem = spider_ind(&["discover", chains_path, "--max-arity", "2"]);
    assert!(nary_mem.status.success());
    let nary_spilled = spider_ind(&[
        "discover",
        chains_path,
        "--max-arity",
        "2",
        "--on-disk",
        "--memory-budget",
        "256",
    ]);
    assert!(
        nary_spilled.status.success(),
        "{}",
        String::from_utf8_lossy(&nary_spilled.stderr)
    );
    assert_eq!(
        inds(&nary_mem),
        inds(&nary_spilled),
        "composite streams must survive spill-forcing budgets too"
    );
}

#[test]
fn discover_max_arity_finds_the_composite_fk_via_cli() {
    let dir = TempDir::new("cli-nary");
    let db_dir = dir.join("db");
    let db_path = db_dir.to_str().expect("utf8 path");

    let out = spider_ind(&["generate", "chains", db_path, "--scale", "30"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("4 tables"));

    let expected_ind = "(contact.pdb_code, contact.chain_id) <= (chain.pdb_code, chain.chain_id)";
    // `--algorithm` picks the engine of every level: brute force and
    // single-pass print the spider run's INDs and test the same candidates,
    // and brute force opens its two cursors per test.
    let run = |algorithm: &str| {
        let args = ["--max-arity", "2", "--algorithm", algorithm, "--names"];
        let out = spider_ind(&[&["discover", db_path][..], &args].concat());
        assert!(out.status.success());
        let text = stdout(&out);
        let counter = |key: &str| -> u64 {
            let at = text.find(&format!(" {key}=")).expect(key) + key.len() + 2;
            let digits = text[at..].split(|c: char| !c.is_ascii_digit()).next();
            digits.and_then(|d| d.parse().ok()).expect(key)
        };
        (
            inds(&out),
            text.clone(),
            counter("tested"),
            counter("cursor_opens"),
        )
    };
    let (spider, text, _, _) = run("spider");
    assert!(text.contains(expected_ind), "{text}");
    assert!(
        text.contains("1 found, 0 missed, 0 extras"),
        "composite gold evaluation must be exact:\n{text}"
    );
    assert!(text.contains("enumerable"), "per-level table is printed");
    let (bf, _, bf_tested, bf_opens) = run("bf");
    let (sp, _, sp_tested, _) = run("sp");
    assert_eq!((&bf, &sp), (&spider, &spider));
    assert_eq!(bf_tested, sp_tested);
    assert_eq!(bf_opens, 2 * bf_tested, "brute force ran every level");

    // The on-disk pipeline prints the identical IND set.
    let work_dir = dir.join("work");
    let disk = spider_ind(&[
        "discover",
        db_path,
        "--max-arity",
        "2",
        "--on-disk",
        "--block-size",
        "4096",
        "--workdir",
        work_dir.to_str().expect("utf8 path"),
    ]);
    assert!(
        disk.status.success(),
        "{}",
        String::from_utf8_lossy(&disk.stderr)
    );
    let disk_text = stdout(&disk);
    assert!(disk_text.contains(expected_ind), "{disk_text}");
    assert!(
        work_dir.join("arity-2").exists(),
        "explicit workdir keeps the composite level export"
    );
}

#[test]
fn keep_going_quarantines_and_exits_degraded_via_cli() {
    let (_dir, db) = generated("cli-keepgoing", "scop", "5");
    let db_path = db.as_str();

    // A bit flip in one attribute's value file: the run completes, prints
    // the machine-readable degraded report, and exits with the distinct
    // degraded status (2) — not success, not hard failure.
    let degraded = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--keep-going",
        "--fault-plan",
        "read:attr-00001:flip=30",
    ]);
    assert_eq!(
        degraded.status.code(),
        Some(2),
        "stdout:\n{}\nstderr:\n{}",
        stdout(&degraded),
        String::from_utf8_lossy(&degraded.stderr)
    );
    let text = stdout(&degraded);
    assert!(
        text.contains("degraded: {\"quarantined\":[{\"id\":1,"),
        "{text}"
    );
    assert!(text.contains("\"checksum_failures\":"), "{text}");
    assert!(
        text.contains("satisfied INDs"),
        "the run still answers: {text}"
    );

    // Keep-going with nothing wrong: clean report, normal exit.
    let clean = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--keep-going",
    ]);
    assert!(clean.status.success());
    assert!(
        stdout(&clean).contains("degraded: {\"quarantined\":[]"),
        "{}",
        stdout(&clean)
    );

    // Transient faults are healed, not quarantined: normal exit.
    let healed = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--keep-going",
        "--fault-plan",
        "read:*:eintr@5",
    ]);
    assert!(
        healed.status.success(),
        "{}",
        String::from_utf8_lossy(&healed.stderr)
    );
    assert!(
        stdout(&healed).contains("\"quarantined\":[]"),
        "{}",
        stdout(&healed)
    );

    // The robustness flags are disk-pipeline-only.
    let rejected = spider_ind(&["discover", db_path, "--keep-going"]);
    assert!(!rejected.status.success());
    assert!(
        String::from_utf8_lossy(&rejected.stderr).contains("--on-disk"),
        "{}",
        String::from_utf8_lossy(&rejected.stderr)
    );
}

#[test]
fn in_memory_max_arity_extracts_on_the_threads_it_is_given() {
    use spider_ind::trace::json::{parse, Json};

    // pdb's 551 short columns: at two workers their `sort` spans overlap
    // within a few milliseconds of export.
    let (dir, db) = generated("cli-nary-threads", "pdb", "40");
    let db_path = db.as_str();
    let run = |threads: &str| {
        let report = dir.join(&format!("report-{threads}.json"));
        let out = spider_ind(&[
            "discover",
            db_path,
            "--max-arity",
            "2",
            "--threads",
            threads,
            "--report",
            report.to_str().expect("utf8"),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = std::fs::read_to_string(&report).expect("report written");
        (inds(&out), report)
    };
    let (one, text) = run("1");
    let (two, _) = run("2");
    assert!(!one.is_empty());
    assert_eq!(one, two, "the IND lines do not depend on the worker count");

    // One worker extracts one attribute at a time: the `sort` children of
    // the unary export never overlap.
    let report = parse(&text).expect("report is valid JSON");
    let spans = report.get("spans").and_then(Json::as_arr).expect("spans");
    let discover = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("discover"))
        .expect("discover root");
    fn children(node: &Json) -> &[Json] {
        node.get("children")
            .and_then(Json::as_arr)
            .expect("children")
    }
    let export = children(discover)
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some("export"))
        .expect("the unary export");
    let mut sorts: Vec<(u64, u64)> = children(export)
        .iter()
        .filter(|c| c.get("name").and_then(Json::as_str) == Some("sort"))
        .map(|c| {
            let start = c.get("start_ns").and_then(Json::as_u64).unwrap();
            (
                start,
                start + c.get("duration_ns").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect();
    sorts.sort_unstable();
    assert!(sorts.len() > 1, "{text}");
    for pair in sorts.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "overlapping sorts {pair:?}");
    }
}

#[test]
fn report_and_folded_trace_come_out_well_formed() {
    use spider_ind::trace::json::{parse, Json};

    let (dir, db) = generated("cli-report", "scop", "10");
    let db_path = db.as_str();

    let report_path = dir.join("report.json");
    let folded_path = dir.join("trace.folded");
    let out = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--memory-budget",
        "4096",
        "--report",
        report_path.to_str().expect("utf8"),
        "--trace-folded",
        folded_path.to_str().expect("utf8"),
        "--progress",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The report parses, is versioned, and echoes the run's vitals.
    let text = std::fs::read_to_string(&report_path).expect("report written");
    let report = parse(&text).expect("report is valid JSON");
    assert_eq!(
        report.get("report_version").and_then(Json::as_u64),
        Some(5),
        "{text}"
    );
    let metrics = report.get("metrics").expect("metrics object");
    assert!(metrics.get("elapsed_ns").and_then(Json::as_u64).unwrap() > 0);
    assert!(metrics.get("satisfied").and_then(Json::as_u64).unwrap() > 0);
    let parked = metrics.get("parked_reads").and_then(Json::as_u64);
    let items = metrics.get("items_read").and_then(Json::as_u64);
    assert!(
        parked.is_some_and(|parked| Some(parked) <= items),
        "parked reads are a share of the values read: {parked:?} of {items:?}"
    );
    assert_eq!(report.get("degraded"), Some(&Json::Null), "strict run");
    assert_eq!(
        report.get("dropped_events").and_then(Json::as_u64),
        Some(0),
        "no ring may overflow on a run this small"
    );
    let histograms = report.get("histograms").expect("histograms object");
    let record_len = histograms
        .get("record_len_bytes")
        .and_then(Json::as_arr)
        .expect("bucket array");
    assert!(
        record_len.iter().any(|b| b.as_u64() != Some(0)),
        "the export wrote records, so the length histogram is non-empty"
    );

    // The span tree: a `load` root, then a `discover` root whose children
    // nest — every child interval inside its parent's interval.
    let spans = report.get("spans").and_then(Json::as_arr).expect("spans");
    let roots: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(roots, ["load", "discover"], "{text}");
    let root = &spans[1];
    fn check_nesting(node: &Json, path: &str) {
        let start = node.get("start_ns").and_then(Json::as_u64).unwrap();
        let end = start + node.get("duration_ns").and_then(Json::as_u64).unwrap();
        for child in node.get("children").and_then(Json::as_arr).unwrap() {
            let name = child.get("name").and_then(Json::as_str).unwrap();
            let c_start = child.get("start_ns").and_then(Json::as_u64).unwrap();
            let c_end = c_start + child.get("duration_ns").and_then(Json::as_u64).unwrap();
            assert!(
                start <= c_start && c_end <= end,
                "{path}/{name}: child [{c_start}, {c_end}] outside parent [{start}, {end}]"
            );
            check_nesting(child, &format!("{path}/{name}"));
        }
    }
    check_nesting(&spans[0], "load");
    check_nesting(root, "discover");
    let child_names: Vec<&str> = root
        .get("children")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|c| c.get("name").and_then(Json::as_str))
        .collect();
    for phase in ["export", "generate", "spider_merge"] {
        assert!(
            child_names.contains(&phase),
            "{phase} missing: {child_names:?}"
        );
    }
    // The merge span counts every value the run read, the cursors' first
    // reads included.
    let merge = root
        .get("children")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some("spider_merge"))
        .unwrap();
    for counter in ["items_read", "value_bytes_read"] {
        let spanned = merge.get("counters").and_then(|c| c.get(counter));
        let run = metrics.get(counter).and_then(Json::as_u64);
        assert!(run > Some(0), "{counter}: {run:?}");
        assert_eq!(spanned.and_then(Json::as_u64), run, "{counter}");
    }

    // The folded stacks cover the same run: one `load` line with one
    // `load_table=N` line per table of the schema beneath it, every other
    // stack rooted at `discover`.
    let folded = std::fs::read_to_string(&folded_path).expect("folded written");
    assert!(!folded.trim().is_empty());
    let (load, rest): (Vec<&str>, Vec<&str>) =
        folded.lines().partition(|line| line.starts_with("load"));
    let schema =
        std::fs::read_to_string(std::path::Path::new(db_path).join("schema.txt")).expect("schema");
    let tables = schema.lines().filter(|l| l.starts_with("table\t")).count();
    let mut per_table: Vec<usize> = load[1..]
        .iter()
        .filter_map(|line| line.strip_prefix("load;load_table="))
        .map(|rest| rest.split(' ').next().unwrap().parse().unwrap())
        .collect();
    per_table.sort_unstable();
    assert!(
        load[0].starts_with("load "),
        "the load line first:\n{folded}"
    );
    assert_eq!(load.len(), tables + 1, "one line per table:\n{folded}");
    assert!(
        per_table.into_iter().eq(0..tables),
        "each table once:\n{folded}"
    );
    for line in rest {
        assert!(
            line.starts_with("discover"),
            "every other stack is rooted at discover: {line}"
        );
    }
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("discover;export;sort")),
        "per-attribute sort frames present:\n{folded}"
    );
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("discover;export;publish ")),
        "publication is its own line under export:\n{folded}"
    );
}

#[test]
fn in_memory_trace_names_its_phases_like_the_on_disk_one() {
    let (dir, db) = generated("cli-memory-trace", "scop", "10");
    let db_path = db.as_str();
    let attributes = stdout(&spider_ind(&["profile", db_path]))
        .lines()
        .filter(|l| l.contains('.'))
        .count();

    for threads in ["1", "3"] {
        let folded_path = dir.join(&format!("trace-{threads}.folded"));
        let out = spider_ind(&[
            "discover",
            db_path,
            "--algorithm",
            "spider",
            "--threads",
            threads,
            "--trace-folded",
            folded_path.to_str().expect("utf8"),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let folded = std::fs::read_to_string(&folded_path).expect("folded written");
        // Extraction is `export` with one `sort` frame per attribute — the
        // default path no longer books it under `profile`.
        let sorts = folded
            .lines()
            .filter(|l| l.starts_with("discover;export;sort/attr="))
            .count();
        assert!(sorts > 0, "threads={threads}:\n{folded}");
        assert!(sorts <= attributes, "threads={threads}:\n{folded}");
        assert!(
            !folded.lines().any(|l| l.starts_with("discover;profile")),
            "threads={threads}:\n{folded}"
        );
    }
}

#[test]
fn crash_then_resume_recovers_byte_identically_via_cli() {
    use spider_ind::trace::json::{parse, Json};

    // 2,400 blob payloads of 4 KiB: the payload column alone outgrows a
    // batch (BATCH_MAX_BYTES, 8 MiB), so at one worker the export commits
    // twice — blob_store's two streams, then blob_ref's — and the crash
    // below can land after the first commit.
    let (dir, db) = generated("cli-crash-resume", "wide", "600");
    let db_path = db.as_str();

    let clean = spider_ind(&["discover", db_path, "--algorithm", "spider"]);
    assert!(clean.status.success());

    // First run dies mid-export on an injected torn write: dirty exit. The
    // first batch's streams take 41 writes (the payload flushes in 256 KiB
    // blocks), its commit the trailer's write and the segment's rename
    // (42–43); the second batch's streams take two writes each (44–47).
    // Ordinal 46 so falls after the first commit, inside the second
    // batch — at one worker; an ordinal names no fixed point of a
    // concurrent export.
    let workdir = dir.join("work");
    let work_path = workdir.to_str().expect("utf8");
    let crashed = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--workdir",
        work_path,
        "--threads",
        "1",
        "--fault-plan",
        "write:*:crash=46",
    ]);
    assert!(!crashed.status.success(), "the crash must surface");

    // Second run resumes: completes, reuses the batch committed before
    // the crash, and leaves no staged `.tmp` behind.
    let report_path = dir.join("resume-report.json");
    let resume = || {
        let resumed = spider_ind(&[
            "discover",
            db_path,
            "--algorithm",
            "spider",
            "--on-disk",
            "--workdir",
            work_path,
            "--resume",
            "verify",
            "--report",
            report_path.to_str().expect("utf8"),
        ]);
        assert!(
            resumed.status.success(),
            "{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(inds(&clean), inds(&resumed), "resume changes no answers");
        let report = std::fs::read_to_string(&report_path).expect("report");
        let report = parse(&report).expect("json");
        let metrics = report.get("metrics").expect("metrics");
        let count = |key: &str| metrics.get(key).and_then(Json::as_u64).unwrap();
        (count("exports_reused"), count("exports_redone"))
    };
    let (reused, redone) = resume();
    assert_eq!(
        (reused, redone),
        (2, 2),
        "resume must reuse the batch that landed before the crash"
    );
    for entry in std::fs::read_dir(&workdir).expect("workdir") {
        let name = entry
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        assert!(
            name.starts_with("seg-") && name.ends_with(".indv"),
            "orphan survived resume: {name}"
        );
    }

    // Garbage over the first segment's last 64 bytes, in its trailer:
    // that segment vouches for nothing, and only its attributes are redone.
    let first = workdir.join("seg-00-0000.indv");
    let held = spider_ind::valueset::read_trailer(&first, None)
        .expect("the batch committed before the crash")
        .len() as u64;
    assert_eq!(held, reused, "the first batch is what was reused");
    let mut segment = std::fs::read(&first).expect("segment");
    let end = segment.len();
    segment[end - 64..].fill(0xA5);
    std::fs::write(&first, segment).expect("overwrite");
    assert_eq!(resume(), (reused + redone - held, held));
    assert!(!first.exists(), "the segment without a trailer is swept");
}

#[test]
fn deadline_expiry_exits_cancelled_with_flushed_report() {
    use spider_ind::trace::json::{parse, Json};

    let (dir, db) = generated("cli-deadline", "scop", "5");
    let db_path = db.as_str();

    let workdir = dir.join("work");
    let report_path = dir.join("report.json");
    let out = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--workdir",
        workdir.to_str().expect("utf8"),
        "--deadline",
        "0ms",
        "--report",
        report_path.to_str().expect("utf8"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "deadline expiry has its own exit status\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cancelled during"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The report was still flushed, with the cancellation snapshot.
    let report = parse(&std::fs::read_to_string(&report_path).expect("report")).expect("json");
    assert_eq!(report.get("report_version").and_then(Json::as_u64), Some(5));
    let cancelled = report.get("cancelled").expect("cancelled section");
    assert!(
        cancelled.get("phase").and_then(Json::as_str).is_some(),
        "cancelled section records the phase reached"
    );

    // The interrupted workdir resumes to a clean finish.
    let resumed = spider_ind(&[
        "discover",
        db_path,
        "--algorithm",
        "spider",
        "--on-disk",
        "--workdir",
        workdir.to_str().expect("utf8"),
        "--resume",
    ]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(stdout(&resumed).contains("satisfied INDs"));
}

#[test]
fn resume_flag_demands_disk_pipeline_and_explicit_workdir() {
    let (_dir, db) = generated("cli-resume-validate", "scop", "5");
    let db_path = db.as_str();

    let no_disk = spider_ind(&["discover", db_path, "--resume"]);
    assert!(!no_disk.status.success());
    assert!(
        String::from_utf8_lossy(&no_disk.stderr).contains("--on-disk"),
        "{}",
        String::from_utf8_lossy(&no_disk.stderr)
    );

    let no_workdir = spider_ind(&["discover", db_path, "--on-disk", "--resume"]);
    assert!(!no_workdir.status.success());
    assert!(
        String::from_utf8_lossy(&no_workdir.stderr).contains("--workdir"),
        "{}",
        String::from_utf8_lossy(&no_workdir.stderr)
    );

    let bad_mode = spider_ind(&["discover", db_path, "--on-disk", "--resume", "sometimes"]);
    assert!(!bad_mode.status.success());
    assert!(
        String::from_utf8_lossy(&bad_mode.stderr).contains("sometimes"),
        "{}",
        String::from_utf8_lossy(&bad_mode.stderr)
    );
}

#[test]
fn nary_keep_going_quarantines_and_exits_degraded_via_cli() {
    let (_dir, db) = generated("cli-nary-keepgoing", "chains", "30");
    let db_path = db.as_str();

    // A poisoned unary attribute quarantines it and every composite
    // candidate touching it; the healthy composite FK still validates.
    let degraded = spider_ind(&[
        "discover",
        db_path,
        "--max-arity",
        "2",
        "--on-disk",
        "--keep-going",
        "--fault-plan",
        "read:attr-00001:flip=30",
    ]);
    assert_eq!(
        degraded.status.code(),
        Some(2),
        "stdout:\n{}\nstderr:\n{}",
        stdout(&degraded),
        String::from_utf8_lossy(&degraded.stderr)
    );
    let text = stdout(&degraded);
    assert!(
        text.contains("degraded: {\"quarantined\":[{\"id\":1,"),
        "{text}"
    );
    assert!(
        text.contains("composite INDs"),
        "the run still answers: {text}"
    );

    // Keep-going with nothing wrong: clean degraded report, normal exit.
    let clean = spider_ind(&[
        "discover",
        db_path,
        "--max-arity",
        "2",
        "--on-disk",
        "--keep-going",
    ]);
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(
        stdout(&clean).contains("degraded: {\"quarantined\":[]"),
        "{}",
        stdout(&clean)
    );
}

#[test]
fn discover_rejects_unknown_algorithm() {
    let (_dir, db) = generated("cli-badalgo", "scop", "5");
    let db_path = db.as_str();
    // A bad algorithm or `--max-files` value, and a value-taking flag with
    // no value, fail before the database is loaded.
    let fails_with = |args: &[&str], message: &str| {
        let out = spider_ind(&[&["discover", db_path][..], args].concat());
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?}: nothing ran");
    };
    for name in ["quantum", "spiderpar"] {
        fails_with(
            &["--algorithm", name],
            &format!("unknown algorithm `{name}`"),
        );
    }
    fails_with(&["--algorithm"], "--algorithm requires a value");
    fails_with(
        &["--algorithm", "--on-disk"],
        "--algorithm requires a value",
    );
    fails_with(&["--max-files", "1"], "--max-files must be at least 2");
    let blockwise = ["--algorithm", "blockwise", "--max-files", "0"];
    fails_with(&blockwise, "--max-files must be at least 2");
}

#[test]
fn malformed_or_missing_flag_values_fail_before_loading() {
    let (_dir, db) = generated("cli-badvalue", "scop", "5");
    let db_path = db.as_str();
    // No `--on-disk`: the disk pipeline's values are checked all the same.
    for (args, message) in [
        (&["--block-size", "banana"][..], "--block-size: `banana`"),
        (&["--memory-budget", "1XB"], "--memory-budget: `1XB`"),
        (&["--threads", "--names"], "--threads requires a value"),
        (&["--deadline"], "--deadline requires a value"),
        (&["--names", "--deadline"], "--deadline requires a value"),
        (&["--workdir", "--on-disk"], "--workdir requires a value"),
        (&["--deadline", "soon"], "--deadline: `soon`"),
        (&["--max-arity", "0"], "--max-arity: 0 is outside 1..=16"),
        (&["--max-arity", "17"], "--max-arity: 17 is outside 1..=16"),
    ] {
        let out = spider_ind(&[&["discover", db_path][..], args].concat());
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stdout(&out).is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn discover_rejects_unknown_flags_by_name() {
    // Removed read modes and typos alike fail before anything runs,
    // instead of silently running the default pipeline.
    let (_dir, db) = generated("cli-badflag", "scop", "5");
    let db_path = db.as_str();
    for flag in ["--prefetch", "--direct-io", "--on-dsik"] {
        let out = spider_ind(&["discover", db_path, "--on-disk", flag]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
        assert!(stdout(&out).is_empty(), "{flag}: nothing ran");
    }
}

#[test]
fn generate_and_fks_reject_unknown_flags_by_name() {
    let dir = TempDir::new("cli-badflag-commands");
    let db_dir = dir.join("db");
    let db_path = db_dir.to_str().expect("utf8 path");
    let rejects = |args: &[&str], flag: &str| {
        let out = spider_ind(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
        assert!(stdout(&out).is_empty(), "{args:?}: nothing ran");
    };
    rejects(&["generate", "pdb", db_path, "--scael", "200"], "--scael");
    assert!(!db_dir.exists(), "nothing was generated");
    assert!(spider_ind(&["generate", "scop", db_path, "--scale", "5"])
        .status
        .success());
    rejects(&["fks", db_path, "--on-disk"], "--on-disk");
    rejects(&["profile", db_path, "--on-disk"], "--on-disk");
}

#[test]
fn missing_database_directory_is_a_clean_error() {
    let out = spider_ind(&["discover", "/nonexistent/place"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
