//! Property tests for the robustness layer: a single bit flip at an
//! arbitrary byte offset of an arbitrary attribute's value file, read
//! through an arbitrary (tiny) I/O block size, must produce either a
//! `Corrupt` error naming the poisoned file or the exactly-correct IND
//! set — never a silently wrong answer. Under `keep_going`, the same
//! sweep must quarantine exactly the poisoned attribute while every IND
//! over healthy attributes still validates. The same flip in a segment's
//! trailer, read by `--resume`, must cost exactly that segment: its
//! attributes redone, every other one reused.

use ind_testkit::TempDir;
use proptest::prelude::*;
use spider_ind::core::{Algorithm, IndFinder};
use spider_ind::storage::{ColumnSchema, DataType, Database, Table, TableSchema};
use spider_ind::valueset::{
    read_trailer, ExportOptions, ExportedDatabase, FaultPlan, IoOptions, ResumeMode,
};
use std::sync::Arc;

/// parent(id unique, label text) ← child(id unique, parent_id).
/// Attribute ids: 0=parent.id, 1=parent.label, 2=child.id, 3=child.parent_id.
fn fixture_db() -> Database {
    let mut db = Database::new("prop-faults");
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
    db.add_table(parent).expect("parent");
    db.add_table(child).expect("child");
    db
}

/// Export options with `spec` injected and the given I/O block size
/// (sub-minimum sizes clamp, which is part of the sweep).
fn fault_options(spec: &str, block: usize, keep_going: bool) -> ExportOptions {
    let mut options = ExportOptions::default().keep_going(keep_going);
    options.sort.io = IoOptions::with_block_size(block)
        .with_fault(Arc::new(FaultPlan::parse(spec).expect("plan")));
    options
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bit_flips_never_silently_change_the_ind_set(
        target in 0u32..4,
        offset in 0u64..400,
        block in 1usize..96,
        parallel in any::<bool>(),
    ) {
        let db = fixture_db();
        let algorithm = if parallel {
            Algorithm::BruteForceParallel { threads: 3 }
        } else {
            Algorithm::Spider
        };
        let finder = IndFinder::with_algorithm(algorithm);
        let baseline = finder.discover_in_memory(&db).expect("baseline");
        let dir = TempDir::new("prop-flip-strict");
        let spec = format!("read:attr-{target:05}:flip={offset}");
        match finder.discover_on_disk_with(&db, dir.path(), &fault_options(&spec, block, false)) {
            // Flip beyond the file, or in a file no candidate reads: the
            // answer must be exactly the clean one.
            Ok(d) => prop_assert_eq!(d.satisfied, baseline.satisfied),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains(&format!("attr-{target:05}")),
                    "error must name the poisoned file: {}",
                    msg
                );
            }
        }
    }

    #[test]
    fn keep_going_quarantines_exactly_the_poisoned_attribute(
        target in 0u32..4,
        offset in 0u64..400,
        block in 1usize..96,
    ) {
        let db = fixture_db();
        let finder = IndFinder::with_algorithm(Algorithm::Spider);
        let baseline = finder.discover_in_memory(&db).expect("baseline");
        let dir = TempDir::new("prop-flip-kg");
        let spec = format!("read:attr-{target:05}:flip={offset}");
        let d = finder
            .discover_on_disk_with(&db, dir.path(), &fault_options(&spec, block, true))
            .expect("keep-going runs complete");
        let report = d.degraded.clone().expect("keep-going always reports");
        if report.is_clean() {
            // The flip landed beyond the end of the file and never fired.
            prop_assert_eq!(d.satisfied, baseline.satisfied);
        } else {
            let ids: Vec<u32> = report.quarantined.iter().map(|f| f.id).collect();
            prop_assert_eq!(ids, vec![target], "only the poisoned attribute");
            // A flip in a payload or CRC byte bumps `checksum_failures`;
            // one in a structural byte (magic, frame length) is caught by
            // shape checks instead — either way it was detected, which is
            // the property under test.
            let expected: Vec<_> = baseline
                .satisfied
                .iter()
                .copied()
                .filter(|c| c.dep != target && c.refd != target)
                .collect();
            prop_assert_eq!(d.satisfied, expected, "healthy INDs must all survive");
        }
    }

    #[test]
    fn a_flipped_trailer_costs_exactly_its_segment(
        offset in 0u64..400,
        threads in 1usize..4,
    ) {
        let db = fixture_db();
        let dir = TempDir::new("prop-flip-trailer");
        ExportedDatabase::export(&db, dir.path(), &ExportOptions::with_threads(threads))
            .expect("clean export");
        let held: Vec<(String, u64)> = std::fs::read_dir(dir.path())
            .expect("workdir")
            .map(|entry| entry.expect("entry").path())
            .map(|path| {
                let trailer = read_trailer(&path, None).expect("a published trailer");
                let name = path.file_name().expect("name").to_string_lossy().into_owned();
                (name, trailer.len() as u64)
            })
            .collect();
        let plan = Arc::new(FaultPlan::parse(&format!("read:[trailer]:flip={offset}")).expect("plan"));
        let mut resume = ExportOptions::with_threads(threads).resume(ResumeMode::Reuse);
        resume.sort.io = IoOptions::default().with_fault(plan.clone());
        let resumed = ExportedDatabase::export(&db, dir.path(), &resume).expect("resume");
        let counts = (resumed.exports_reused(), resumed.exports_redone());
        match plan.fired().first() {
            // The flip lies past the end of every trailer and never fired.
            None => prop_assert_eq!(counts, (4, 0)),
            Some(flip) => {
                let (segment, n) = held
                    .iter()
                    .find(|(name, _)| flip.contains(&format!("{name}[trailer]")))
                    .expect("the flip names a segment's trailer");
                prop_assert_eq!(counts, (4 - n, *n), "{}", flip);
                prop_assert_eq!(resumed.orphans_swept(), 1);
                prop_assert!(!dir.join(segment).exists(), "{} is swept", segment);
            }
        }
    }
}
