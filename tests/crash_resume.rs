//! Crash-safety end to end: a run killed at an export boundary — torn
//! write, death between two renames of a group commit, failed fsync, or
//! cooperative cancellation — must leave a workdir whose manifest names
//! only complete, durable files, and that a `--resume` run completes to
//! the byte-identical result of an uninterrupted run, reusing every batch
//! that was committed and sweeping every staged `.tmp` file.

use ind_testkit::TempDir;
use proptest::prelude::*;
use spider_ind::core::{Algorithm, IndFinder};
use spider_ind::storage::{ColumnSchema, DataType, Database, Table, TableSchema};
use spider_ind::valueset::{
    collect_cursor, CancelToken, ExportOptions, FaultPlan, IoOptions, Manifest, ResumeMode,
    ValueFileReader, BATCH_MAX_BYTES, BATCH_MAX_FILES,
};
use std::path::Path;
use std::sync::Arc;

/// Attributes of [`fixture_db`]: two full batches and a partial third at
/// one thread, at least one batch per worker at three.
const ATTRIBUTES: usize = 2 * BATCH_MAX_FILES + 4;

/// parent(id unique, label text) ← child(id unique, parent_id), plus a
/// table of disjoint integer columns that pads the export to
/// [`ATTRIBUTES`] value files. Attribute ids: 0=parent.id, 1=parent.label,
/// 2=child.id, 3=child.parent_id, 4.. = pad.cNNN.
fn fixture_db() -> Database {
    let mut db = Database::new("crash-resume");
    let mut parent = Table::new(
        TableSchema::new(
            "parent",
            vec![
                ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique(),
                ColumnSchema::new("label", DataType::Text),
            ],
        )
        .expect("schema"),
    );
    for i in 0..12i64 {
        parent
            .insert(vec![i.into(), format!("label-{i}").into()])
            .expect("row");
    }
    let mut child = Table::new(
        TableSchema::new(
            "child",
            vec![
                ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique(),
                ColumnSchema::new("parent_id", DataType::Integer),
            ],
        )
        .expect("schema"),
    );
    for i in 0..24i64 {
        child
            .insert(vec![(1000 + i).into(), (i % 12).into()])
            .expect("row");
    }
    let pad_columns = ATTRIBUTES - 4;
    let mut pad = Table::new(
        TableSchema::new(
            "pad",
            (0..pad_columns)
                .map(|c| ColumnSchema::new(format!("c{c:03}"), DataType::Integer))
                .collect(),
        )
        .expect("schema"),
    );
    for row in 0..3i64 {
        pad.insert(
            (0..pad_columns as i64)
                .map(|c| (100_000 + c * 10 + row).into())
                .collect(),
        )
        .expect("row");
    }
    db.add_table(parent).expect("parent");
    db.add_table(child).expect("child");
    db.add_table(pad).expect("pad");
    assert_eq!(db.attribute_count(), ATTRIBUTES);
    db
}

/// Every published value file in `dir`, as `(name, bytes)` sorted by name
/// — the byte-identity witness.
fn value_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("indv") {
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            out.push((name, std::fs::read(&path).expect("read")));
        }
    }
    out.sort();
    out
}

/// Asserts the workdir holds no staged `.tmp` file (top level — where
/// atomic publication stages and where resume sweeps).
fn assert_no_tmp(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("entry").path();
        assert!(
            path.extension().and_then(|e| e.to_str()) != Some("tmp"),
            "orphan staged file survived resume: {}",
            path.display()
        );
    }
}

/// The on-disk invariant an interrupted export must leave behind, checked
/// BEFORE any resume touches the workdir: every manifest entry names a
/// file that exists under its final name, has the recorded size, and
/// drains checksum-clean to the recorded record count. Returns how many
/// attributes the manifest vouches for — the batches committed before the
/// interruption.
fn committed_entries(dir: &Path, context: &str) -> u64 {
    let Some(manifest) = Manifest::load(dir) else {
        return 0; // interrupted before the first commit
    };
    for entry in manifest.entries() {
        let path = dir.join(&entry.file);
        let bytes = std::fs::metadata(&path)
            .unwrap_or_else(|e| panic!("{context}: manifest names missing {}: {e}", entry.file))
            .len();
        assert_eq!(bytes, entry.file_bytes, "{context}: size of {}", entry.file);
        let records = ValueFileReader::open(&path)
            .and_then(collect_cursor)
            .unwrap_or_else(|e| panic!("{context}: manifest names torn {}: {e}", entry.file))
            .len() as u64;
        assert_eq!(
            records, entry.records,
            "{context}: records of {}",
            entry.file
        );
    }
    manifest.len() as u64
}

/// Options at `threads` workers with the given fault `spec` injected.
fn faulted(spec: &str, threads: usize) -> ExportOptions {
    let mut options = ExportOptions::with_threads(threads);
    options.sort.io =
        IoOptions::default().with_fault(Arc::new(FaultPlan::parse(spec).expect("plan")));
    options
}

#[test]
fn fixture_spans_at_least_three_batches_by_count_not_bytes() {
    let dir = TempDir::new("crash-fixture");
    IndFinder::with_algorithm(Algorithm::Spider)
        .discover_on_disk_with(&fixture_db(), dir.path(), &ExportOptions::default())
        .expect("clean run");
    let files = value_files(dir.path());
    assert_eq!(files.len(), ATTRIBUTES);
    assert!(files.len().div_ceil(BATCH_MAX_FILES) >= 3);
    let bytes: u64 = files.iter().map(|(_, b)| b.len() as u64).sum();
    assert!(
        bytes < BATCH_MAX_BYTES,
        "the file cap, not the byte cap, cuts"
    );
}

/// One point of the crash sweep: a run at `threads` workers dies at its
/// `n`th write-side step (value-file writes, publishing renames, the
/// manifest's write and rename all count), the interrupted workdir is
/// checked, and a resume must complete it byte-identically. Returns the
/// attributes the resume reused, or `None` when the run outlived `n`.
fn crash_then_resume(db: &Database, clean: &CleanRun, n: u32, threads: usize) -> Option<u64> {
    let context = format!("crash={n} threads={threads}");
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    let dir = TempDir::new("crash-boundary");
    let spec = format!("write:*:crash={n}");
    match finder.discover_on_disk_with(db, dir.path(), &faulted(&spec, threads)) {
        Ok(d) => {
            assert_eq!(d.satisfied, clean.satisfied, "uncrashed run at {context}");
            None
        }
        Err(_) => {
            let committed = committed_entries(dir.path(), &context);
            let resumed = finder
                .discover_on_disk_with(
                    db,
                    dir.path(),
                    &ExportOptions::with_threads(threads).resume(ResumeMode::Verify),
                )
                .unwrap_or_else(|e| panic!("resume after {context} failed: {e}"));
            assert_eq!(resumed.satisfied, clean.satisfied, "INDs after {context}");
            assert_eq!(
                resumed.metrics.exports_reused + resumed.metrics.exports_redone,
                ATTRIBUTES as u64,
                "every attribute accounted for after {context}"
            );
            assert_eq!(
                resumed.metrics.exports_reused, committed,
                "resume reuses exactly the batches committed before {context}"
            );
            assert_no_tmp(dir.path());
            assert_eq!(
                value_files(dir.path()),
                clean.files,
                "value files after {context} resume"
            );
            Some(committed)
        }
    }
}

/// The uninterrupted reference: IND set and value files.
struct CleanRun {
    satisfied: Vec<spider_ind::core::Ind>,
    files: Vec<(String, Vec<u8>)>,
}

fn clean_run(db: &Database) -> CleanRun {
    let dir = TempDir::new("crash-clean");
    let clean = IndFinder::with_algorithm(Algorithm::Spider)
        .discover_on_disk_with(db, dir.path(), &ExportOptions::default())
        .expect("clean run");
    CleanRun {
        satisfied: clean.satisfied,
        files: value_files(dir.path()),
    }
}

#[test]
fn resume_recovers_from_a_crash_at_every_write_boundary() {
    let db = fixture_db();
    let clean = clean_run(&db);

    // Every file costs the export two writes and a rename and every run
    // here creates all of them, so the sweep is exhaustive where the
    // states differ and strided where they repeat. A coarse pass walks
    // the whole run (staging windows look alike: k files under `.tmp`, the
    // same batches committed) until a run survives because the Nth step
    // never happens. A fine pass then takes EVERY step of the tail: the
    // last two dozen renames of the second batch's commit (a run dies
    // between two renames of one commit), its manifest's write (after the
    // directory fsync, before the manifest) and rename, and the whole
    // last, partial batch with its own commit.
    const STRIDE: u32 = 11;
    const FINE_TAIL: u32 = 40;
    for threads in [1usize, 3] {
        let (mut crashes, mut total_reused, mut distinct_reuse) = (0u32, 0u64, Vec::new());
        let mut tally = |reused: u64| {
            crashes += 1;
            total_reused += reused;
            if !distinct_reuse.contains(&reused) {
                distinct_reuse.push(reused);
            }
        };
        let mut n = 1u32;
        while let Some(reused) = crash_then_resume(&db, &clean, n, threads) {
            tally(reused);
            n += STRIDE;
            assert!(n < 8 * ATTRIBUTES as u32, "sweep never ran past the export");
        }
        // With three workers the interleaving differs run to run, so
        // "every boundary" is not a fixed set: the coarse pass is the
        // sweep there.
        if threads == 1 {
            assert!(
                n > 3 * ATTRIBUTES as u32,
                "two writes and a rename per file, yet crash={n} survived"
            );
            for m in n.saturating_sub(STRIDE + FINE_TAIL)..n {
                if (m - 1) % STRIDE != 0 {
                    crash_then_resume(&db, &clean, m, threads).map(&mut tally);
                }
            }
            assert!(
                distinct_reuse.len() >= 3,
                "crashes before, between and after the commits: {distinct_reuse:?}"
            );
        }
        assert!(crashes > 0, "threads={threads}: no boundary hit");
        assert!(
            total_reused > 0,
            "threads={threads}: later boundaries must reuse committed batches"
        );
    }
}

#[test]
fn resume_recovers_from_a_failed_fsync_at_each_publication() {
    let db = fixture_db();
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    let clean = clean_run(&db);

    // Fail the durability point of each artifact in turn: a staged value
    // file's fsync (first and last of a full batch, first of the next,
    // last of the run), the directory's (the `$` anchor keeps the rule off
    // the files inside it), and the manifest's own.
    let targets = [0, BATCH_MAX_FILES - 1, BATCH_MAX_FILES, ATTRIBUTES - 1]
        .map(|id| format!("attr-{id:05}"))
        .into_iter()
        .chain(["workdir$".to_string(), "MANIFEST".to_string()]);
    for target in targets {
        for threads in [1usize, 3] {
            let context = format!("fsync:{target}:fail threads={threads}");
            let dir = TempDir::new("fsync-boundary");
            let workdir = dir.join("workdir");
            let err = finder
                .discover_on_disk_with(
                    &db,
                    &workdir,
                    &faulted(&format!("fsync:{target}:fail"), threads),
                )
                .expect_err("a failed fsync must abort the strict run");
            assert!(err.to_string().contains("fsync"), "{context}: {err}");
            let committed = committed_entries(&workdir, &context);

            let resumed = finder
                .discover_on_disk_with(
                    &db,
                    &workdir,
                    &ExportOptions::with_threads(threads).resume(ResumeMode::Reuse),
                )
                .unwrap_or_else(|e| panic!("resume after {context} failed: {e}"));
            assert_eq!(resumed.satisfied, clean.satisfied, "INDs after {context}");
            assert_eq!(resumed.metrics.exports_reused, committed, "{context}");
            assert_no_tmp(&workdir);
            assert_eq!(value_files(&workdir), clean.files, "files after {context}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interrupt a run at an arbitrary point — a crash at the Nth write or
    /// rename, or a cooperative cancel at the Nth poll — across arbitrary
    /// I/O block sizes, sort memory budgets and one or three workers, then
    /// resume: the interrupted workdir's manifest must vouch only for
    /// complete files, and the final IND set and every published value
    /// file must be byte-identical to an uninterrupted run at the same
    /// settings.
    #[test]
    fn interrupted_runs_resume_to_byte_identical_results(
        interrupt in 1u64..(4 * ATTRIBUTES as u64),
        crash in any::<bool>(),
        parallel in any::<bool>(),
        block in 1usize..96,
        budget in 256usize..4096,
    ) {
        let db = fixture_db();
        let finder = IndFinder::with_algorithm(Algorithm::Spider);
        let tuned = || {
            let mut options = ExportOptions::with_threads(if parallel { 3 } else { 1 });
            options.sort.io = IoOptions::with_block_size(block);
            options.sort.memory_budget_bytes = budget;
            options
        };

        let clean_dir = TempDir::new("prop-resume-clean");
        let clean = finder
            .discover_on_disk_with(&db, clean_dir.path(), &tuned())
            .expect("uninterrupted run");
        let clean_files = value_files(clean_dir.path());

        let dir = TempDir::new("prop-resume");
        let mut first = tuned();
        if crash {
            first.sort.io = first
                .sort
                .io
                .with_fault(Arc::new(FaultPlan::parse(&format!("write:*:crash={interrupt}")).expect("plan")));
        } else {
            first = first.with_cancel(CancelToken::cancel_after(interrupt));
        }
        // The interrupted run may fail at any point — or finish, when the
        // interrupt lands past the end. Both are part of the sweep.
        let _ = finder.discover_on_disk_with(&db, dir.path(), &first);
        let committed = committed_entries(dir.path(), "proptest");

        let resumed = finder
            .discover_on_disk_with(&db, dir.path(), &tuned().resume(ResumeMode::Verify))
            .expect("resume completes");
        prop_assert_eq!(&resumed.satisfied, &clean.satisfied);
        prop_assert_eq!(
            resumed.metrics.exports_reused + resumed.metrics.exports_redone,
            ATTRIBUTES as u64
        );
        prop_assert_eq!(resumed.metrics.exports_reused, committed);
        assert_no_tmp(dir.path());
        prop_assert_eq!(value_files(dir.path()), clean_files);
    }
}
