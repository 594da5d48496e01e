//! Crash-safety end to end: a run killed at an export boundary — torn
//! write, death right after a segment's rename, failed fsync, or
//! cooperative cancellation — must leave a workdir whose segments under
//! their final names carry trailers vouching only for complete, durable
//! streams, and that a `--resume` run completes to the byte-identical
//! result of an uninterrupted run, reusing every batch that was committed
//! (renamed) and sweeping every staged `.tmp`.

use ind_testkit::TempDir;
use proptest::prelude::*;
use spider_ind::core::{Algorithm, Backend, IndFinder};
use spider_ind::storage::{ColumnSchema, DataType, Database, Table, TableSchema};
use spider_ind::valueset::{
    collect_cursor, crc32c, read_trailer, CancelToken, ExportOptions, Extent, FaultPlan, IoOptions,
    ResumeMode, TrailerEntry, ValueFileReader, BATCH_MAX_BYTES,
};
use std::path::Path;
use std::sync::Arc;

/// Bytes of each padding column's stream: eight of them fill a batch.
const PAD_STREAM_BYTES: usize = BATCH_MAX_BYTES as usize / 8;

/// Padding columns of [`fixture_db`]: at one thread, two full batches
/// (the four core attributes ride in the first) and a partial third; at
/// three, at least one batch per worker.
const PAD_COLUMNS: usize = 18;

/// Attributes of [`fixture_db`].
const ATTRIBUTES: usize = PAD_COLUMNS + 4;

/// Frames the padding streams span: what a run at a block size below one
/// 4 KiB frame issues writes (and cancellation polls) for.
const PAD_FRAMES: u64 = (PAD_COLUMNS * PAD_STREAM_BYTES / 4096) as u64;

/// parent(id unique, label text) ← child(id unique, parent_id), plus a
/// table of padding columns, disjoint from each other and from the core,
/// that fills the export to three batches: two half-stream values per
/// column between a short minimum and a short maximum (a trailer records
/// its attributes' whole min and max; short ones keep it small). Attribute
/// ids: 0=parent.id, 1=parent.label, 2=child.id, 3=child.parent_id, 4.. =
/// pad.cNNN.
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
    let mut pad = Table::new(
        TableSchema::new(
            "pad",
            (0..PAD_COLUMNS)
                .map(|c| ColumnSchema::new(format!("c{c:03}"), DataType::Text))
                .collect(),
        )
        .expect("schema"),
    );
    for row in 0..4 {
        pad.insert(
            (0..PAD_COLUMNS)
                .map(|c| match row {
                    0 => format!("a-{c:03}").into(),
                    1 => format!("z-{c:03}").into(),
                    _ => {
                        let mut value = format!("pad-{c:03}-{row}-");
                        value.extend(std::iter::repeat_n('x', PAD_STREAM_BYTES / 2 - 64));
                        value.into()
                    }
                })
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

/// Every trailer entry of the segments of `dir`, with its segment's name,
/// in attribute id order. A segment under its final name was complete
/// before its rename, so its trailer must read back; and no attribute is
/// vouched for twice, since a resume only adds what is missing.
fn trailer_entries(dir: &Path) -> Vec<(String, TrailerEntry<'static>)> {
    let mut entries = Vec::new();
    let Ok(listing) = std::fs::read_dir(dir) else {
        return entries; // interrupted before the workdir existed
    };
    for file in listing {
        let path = file.expect("entry").path();
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        if name.starts_with("seg-") && name.ends_with(".indv") {
            let trailer = read_trailer(&path, None)
                .unwrap_or_else(|e| panic!("{name} is published without a trailer: {e}"));
            entries.extend(trailer.into_iter().map(|entry| (name.clone(), entry)));
        }
    }
    entries.sort_by_key(|(_, entry)| entry.id);
    assert!(
        entries.windows(2).all(|w| w[0].1.id != w[1].1.id),
        "an attribute is vouched for twice in {}",
        dir.display()
    );
    entries
}

/// Every published value stream of `dir`, as `(attribute id, bytes)` in id
/// order — the byte-identity witness. Where a stream lies (which segment,
/// which offset) follows the batches a run happened to commit; its bytes
/// never do.
fn value_streams(dir: &Path) -> Vec<(u32, Vec<u8>)> {
    trailer_entries(dir)
        .into_iter()
        .map(|(segment, entry)| {
            let segment = std::fs::read(dir.join(&segment)).expect("segment");
            let start = entry.offset as usize;
            (
                entry.id,
                segment[start..start + entry.file_bytes as usize].to_vec(),
            )
        })
        .collect()
}

/// Asserts the resume swept the workdir: no staged `.tmp` file, no value
/// file but segments, and every segment with a trailer.
fn assert_swept(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let name = entry
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "orphan stage survived resume: {name}"
        );
        assert!(
            !name.ends_with(".indv") || name.starts_with("seg-"),
            "orphan file survived resume: {name}"
        );
    }
    trailer_entries(dir);
}

/// The on-disk invariant an interrupted export must leave behind, checked
/// BEFORE any resume touches the workdir: every trailer entry of a segment
/// under its final name describes a stream that drains checksum-clean to
/// the recorded record count. Returns how many attributes the trailers
/// vouch for — the batches committed before the interruption.
fn committed_entries(dir: &Path, context: &str) -> u64 {
    let entries = trailer_entries(dir);
    for (segment, entry) in &entries {
        let at = Extent::new(
            &dir.join(segment),
            entry.offset,
            &format!("attr-{:05}", entry.id),
        );
        let bytes = std::fs::metadata(at.file())
            .unwrap_or_else(|e| panic!("{context}: {segment}: {e}"))
            .len();
        assert!(
            bytes >= entry.offset + entry.file_bytes,
            "{context}: {}",
            at.display()
        );
        let records = ValueFileReader::open(&at)
            .and_then(collect_cursor)
            .unwrap_or_else(|e| {
                panic!(
                    "{context}: a trailer vouches for torn {}: {e}",
                    at.display()
                )
            })
            .len() as u64;
        assert_eq!(
            records,
            entry.records,
            "{context}: records of {}",
            at.display()
        );
    }
    entries.len() as u64
}

/// Options at `threads` workers with the given fault `spec` injected.
fn faulted(spec: &str, threads: usize) -> ExportOptions {
    let mut options = ExportOptions::with_threads(threads);
    options.sort.io =
        IoOptions::default().with_fault(Arc::new(FaultPlan::parse(spec).expect("plan")));
    options
}

#[test]
fn fixture_spans_at_least_three_batches_by_bytes() {
    let dir = TempDir::new("crash-fixture");
    IndFinder::with_algorithm(Algorithm::Spider)
        .run(
            &fixture_db(),
            &Backend::disk(dir.path(), &ExportOptions::with_threads(1)),
            1,
        )
        .expect("clean run");
    let streams = value_streams(dir.path());
    assert_eq!(streams.len(), ATTRIBUTES);
    let bytes: u64 = streams.iter().map(|(_, b)| b.len() as u64).sum();
    assert!(bytes > 2 * BATCH_MAX_BYTES, "{bytes} bytes");
    let mut segments: Vec<String> = trailer_entries(dir.path())
        .into_iter()
        .map(|(segment, _)| segment)
        .collect();
    segments.dedup();
    assert_eq!(
        segments,
        ["seg-00-0000.indv", "seg-00-0001.indv", "seg-00-0002.indv"]
    );
}

/// One point of the crash sweep: a run at `threads` workers dies at its
/// `n`th write-side step (stream writes, trailer writes and segment
/// renames all count), the interrupted workdir is checked, and a
/// resume must complete it byte-identically. Returns the attributes the
/// resume reused, or `None` when the run outlived `n`.
fn crash_then_resume(db: &Database, clean: &CleanRun, n: u32, threads: usize) -> Option<u64> {
    let context = format!("crash={n} threads={threads}");
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    let dir = TempDir::new("crash-boundary");
    let spec = format!("write:*:crash={n}");
    match finder.run(db, &Backend::disk(dir.path(), &faulted(&spec, threads)), 1) {
        Ok(d) => {
            assert_eq!(d.satisfied, clean.satisfied, "uncrashed run at {context}");
            None
        }
        Err(_) => {
            let committed = committed_entries(dir.path(), &context);
            let resumed = finder
                .run(
                    db,
                    &Backend::disk(
                        dir.path(),
                        &ExportOptions::with_threads(threads).resume(ResumeMode::Verify),
                    ),
                    1,
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
            assert_swept(dir.path());
            assert_eq!(
                value_streams(dir.path()),
                clean.streams,
                "value streams after {context} resume"
            );
            Some(committed)
        }
    }
}

/// The uninterrupted reference: IND set and value streams.
struct CleanRun {
    satisfied: Vec<spider_ind::core::Ind>,
    streams: Vec<(u32, Vec<u8>)>,
}

fn clean_run(db: &Database) -> CleanRun {
    let dir = TempDir::new("crash-clean");
    let clean = IndFinder::with_algorithm(Algorithm::Spider)
        .run(db, &Backend::disk(dir.path(), &ExportOptions::default()), 1)
        .expect("clean run");
    CleanRun {
        satisfied: clean.satisfied,
        streams: value_streams(dir.path()),
    }
}

#[test]
fn a_workdir_of_v2_streams_is_exported_again_on_resume() {
    // A workdir an older build left: every stream's header says version 2
    // (its header checksum intact), and the trailers vouch for them. Such
    // streams hold length-prefixed records a v3 reader cannot read, so a
    // resume, in either mode, must export every attribute again — not
    // fail — and end with the INDs and streams of a clean run.
    let db = fixture_db();
    let clean = clean_run(&db);
    for mode in [ResumeMode::Reuse, ResumeMode::Verify] {
        let dir = TempDir::new("v2-workdir");
        let finder = IndFinder::with_algorithm(Algorithm::Spider);
        finder
            .run(
                &db,
                &Backend::disk(dir.path(), &ExportOptions::with_threads(1)),
                1,
            )
            .expect("first run");
        for (segment, entry) in trailer_entries(dir.path()) {
            let path = dir.path().join(&segment);
            let mut bytes = std::fs::read(&path).expect("segment");
            let head = entry.offset as usize;
            assert_eq!(&bytes[head..head + 8], b"INDV\x03\0\0\0", "{segment}");
            bytes[head + 4] = 2;
            let crc = crc32c(&bytes[head..head + 16]).to_le_bytes();
            bytes[head + 16..head + 20].copy_from_slice(&crc);
            std::fs::write(&path, bytes).expect("patch");
        }
        let resumed = finder
            .run(
                &db,
                &Backend::disk(dir.path(), &ExportOptions::with_threads(1).resume(mode)),
                1,
            )
            .unwrap_or_else(|e| panic!("{mode:?} resume of a v2 workdir failed: {e}"));
        assert_eq!(resumed.satisfied, clean.satisfied, "{mode:?}");
        assert_eq!(resumed.metrics.exports_reused, 0, "{mode:?}");
        assert_eq!(
            resumed.metrics.exports_redone, ATTRIBUTES as u64,
            "{mode:?}"
        );
        assert_swept(dir.path());
        assert_eq!(value_streams(dir.path()), clean.streams, "{mode:?}");
    }
}

#[test]
fn resume_recovers_from_a_crash_at_every_write_boundary() {
    let db = fixture_db();
    let clean = clean_run(&db);

    // Every stream costs the export at least two writes (a padding stream
    // six: its block flushes and the header patch), every commit its
    // trailer's write and the segment's rename, and every run here issues
    // all of them, so the sweep is exhaustive where the states differ and
    // strided where they repeat. A coarse pass walks the whole run (the
    // writes of one batch look alike: streams sealed into the open segment,
    // the same batches committed) until a run survives because the Nth step
    // never happens. A fine pass then takes EVERY step of the tail: the
    // second batch's trailer and rename (a run that dies at the first
    // write after that rename leaves the renamed segment for the resume to
    // reuse) and the whole last, partial batch with its own commit.
    const STRIDE: u32 = 11;
    const FINE_TAIL: u32 = 20;
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
                n > 2 * ATTRIBUTES as u32,
                "at least two writes per stream, yet crash={n} survived"
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

    // Fail the durability point of each artifact in turn: the fsync of the
    // segment holding a given stream (first and last of the first batch,
    // first of the second, last of the run — one thread commits 0..=11,
    // 12..=19 and 20..=21) and the directory's (the `$` anchor keeps the
    // rule off the files inside it). A failed directory fsync follows a
    // rename: that segment is complete under its final name and reused.
    let targets = [0, 11, 12, ATTRIBUTES - 1]
        .map(|id| format!("attr-{id:05}"))
        .into_iter()
        .chain(["workdir$".to_string()]);
    for target in targets {
        for threads in [1usize, 3] {
            let context = format!("fsync:{target}:fail threads={threads}");
            let dir = TempDir::new("fsync-boundary");
            let workdir = dir.join("workdir");
            let err = finder
                .run(
                    &db,
                    &Backend::Disk {
                        workdir: &workdir,
                        options: &faulted(&format!("fsync:{target}:fail"), threads),
                    },
                    1,
                )
                .expect_err("a failed fsync must abort the strict run");
            assert!(err.to_string().contains("fsync"), "{context}: {err}");
            let committed = committed_entries(&workdir, &context);

            let resumed = finder
                .run(
                    &db,
                    &Backend::disk(
                        &workdir,
                        &ExportOptions::with_threads(threads).resume(ResumeMode::Reuse),
                    ),
                    1,
                )
                .unwrap_or_else(|e| panic!("resume after {context} failed: {e}"));
            assert_eq!(resumed.satisfied, clean.satisfied, "INDs after {context}");
            assert_eq!(resumed.metrics.exports_reused, committed, "{context}");
            assert_swept(&workdir);
            assert_eq!(
                value_streams(&workdir),
                clean.streams,
                "streams after {context}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interrupt a run at an arbitrary point — a crash at the Nth write or
    /// rename, or a cooperative cancel at the Nth poll — across arbitrary
    /// I/O block sizes, sort memory budgets and one or three workers, then
    /// resume: the interrupted workdir's trailers must vouch only for
    /// complete streams, and the final IND set and every published value
    /// stream must be byte-identical to an uninterrupted run at the same
    /// settings. Below one frame per block a run writes once per frame, so
    /// the interrupt ranges over the whole run and a little past it.
    #[test]
    fn interrupted_runs_resume_to_byte_identical_results(
        interrupt in 1u64..(PAD_FRAMES + PAD_FRAMES / 4),
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
            .run(&db, &Backend::disk(clean_dir.path(), &tuned()), 1)
            .expect("uninterrupted run");
        let clean_streams = value_streams(clean_dir.path());

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
        let _ = finder.run(&db, &Backend::disk(dir.path(), &first), 1);
        let committed = committed_entries(dir.path(), "proptest");

        let resumed = finder
            .run(&db, &Backend::disk(dir.path(), &tuned().resume(ResumeMode::Verify)), 1)
            .expect("resume completes");
        prop_assert_eq!(&resumed.satisfied, &clean.satisfied);
        prop_assert_eq!(
            resumed.metrics.exports_reused + resumed.metrics.exports_redone,
            ATTRIBUTES as u64
        );
        prop_assert_eq!(resumed.metrics.exports_reused, committed);
        assert_swept(dir.path());
        prop_assert_eq!(value_streams(dir.path()), clean_streams);
    }
}
