//! Cross-algorithm agreement: every implementation — three SQL baselines,
//! brute force (sequential and parallel), single-pass, SPIDER, block-wise —
//! must produce the identical IND set on every generated dataset, from
//! memory and from disk.

use ind_testkit::TempDir;
use spider_ind::core::{
    memory_export_with_threads, profile_database, profiles_from_export, Algorithm, Candidate,
    IndFinder,
};
use spider_ind::datagen::{
    generate_pdb, generate_scop, generate_uniprot, generate_wide, BiosqlConfig, OpenMmsConfig,
    ScopConfig, WideConfig,
};
use spider_ind::sql::{run_sql_discovery, SqlApproach};
use spider_ind::storage::Database;
use spider_ind::valueset::{
    collect_cursor, ExportOptions, ExportedDatabase, TrailerEntry, ValueSetProvider,
};

fn external_algorithms() -> Vec<(&'static str, Algorithm)> {
    vec![
        ("brute-force", Algorithm::BruteForce),
        (
            "brute-force-parallel",
            Algorithm::BruteForceParallel { threads: 4 },
        ),
        ("single-pass", Algorithm::SinglePass),
        ("spider", Algorithm::Spider),
        ("blockwise-3", Algorithm::Blockwise { max_open_files: 3 }),
        ("blockwise-17", Algorithm::Blockwise { max_open_files: 17 }),
    ]
}

fn assert_all_agree(db: &Database) {
    let baseline = IndFinder::with_algorithm(Algorithm::BruteForce)
        .discover_in_memory(db)
        .expect("baseline discovery");
    assert!(
        baseline.ind_count() > 0,
        "{}: fixtures must contain at least one IND",
        db.name()
    );

    for (name, algorithm) in external_algorithms() {
        let d = IndFinder::with_algorithm(algorithm)
            .discover_in_memory(db)
            .expect("discovery");
        assert_eq!(
            d.satisfied,
            baseline.satisfied,
            "{} disagrees with brute force on {}",
            name,
            db.name()
        );
    }

    for approach in SqlApproach::ALL {
        let d = run_sql_discovery(db, approach, &Default::default()).expect("sql discovery");
        assert_eq!(
            d.satisfied,
            baseline.satisfied,
            "SQL {} disagrees on {}",
            approach.name(),
            db.name()
        );
    }
}

#[test]
fn all_algorithms_agree_on_uniprot() {
    assert_all_agree(&generate_uniprot(&BiosqlConfig::tiny()));
}

#[test]
fn all_algorithms_agree_on_scop() {
    assert_all_agree(&generate_scop(&ScopConfig::tiny()));
}

#[test]
fn all_algorithms_agree_on_pdb() {
    assert_all_agree(&generate_pdb(&OpenMmsConfig::tiny()));
}

#[test]
fn all_algorithms_agree_on_empty_and_constant_columns() {
    use spider_ind::storage::{ColumnSchema, DataType, Table, TableSchema, Value};

    // One table with an all-NULL column (empty value set), a constant
    // column, and a normal key column.
    let mut db = Database::new("edges");
    let mut parent = Table::new(
        TableSchema::new(
            "parent",
            vec![
                ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique(),
                ColumnSchema::new("hollow", DataType::Integer),
                ColumnSchema::new("constant", DataType::Text),
            ],
        )
        .expect("schema"),
    );
    for i in 0..30i64 {
        parent
            .insert(vec![i.into(), Value::Null, "fixed".into()])
            .expect("row");
    }
    let mut child = Table::new(
        TableSchema::new(
            "child",
            vec![ColumnSchema::new("parent_id", DataType::Integer)],
        )
        .expect("schema"),
    );
    for i in 0..60i64 {
        child.insert(vec![(i % 30).into()]).expect("row");
    }
    db.add_table(parent).expect("parent");
    db.add_table(child).expect("child");
    assert_all_agree(&db);

    // All-empty database: no candidates at all, still no panic.
    let mut empty_db = Database::new("all-empty");
    let mut t = Table::new(
        TableSchema::new("t", vec![ColumnSchema::new("a", DataType::Integer)]).expect("schema"),
    );
    t.insert(vec![Value::Null]).expect("row");
    empty_db.add_table(t).expect("table");
    for (name, algorithm) in external_algorithms() {
        let d = IndFinder::with_algorithm(algorithm)
            .discover_in_memory(&empty_db)
            .expect("empty discovery");
        assert_eq!(d.ind_count(), 0, "{name}");
    }
}

#[test]
fn blockwise_at_the_budget_boundary_agrees_with_single_pass() {
    // The hard floor (`max_open_files == 2` forces 1×1 block pairs — one
    // dependent against one referenced cursor per sub-run) and a ladder of
    // odd budgets that split the attribute sets unevenly must all return
    // byte-for-byte the single-pass answer on every generated dataset.
    for db in [
        generate_uniprot(&BiosqlConfig::tiny()),
        generate_scop(&ScopConfig::tiny()),
        generate_pdb(&OpenMmsConfig::tiny()),
    ] {
        let baseline = IndFinder::with_algorithm(Algorithm::SinglePass)
            .discover_in_memory(&db)
            .expect("single-pass discovery");
        assert!(baseline.ind_count() > 0, "{}: fixture has INDs", db.name());
        for max_open_files in [2usize, 3, 5, 7, 11, 13] {
            let blockwise = IndFinder::with_algorithm(Algorithm::Blockwise { max_open_files })
                .discover_in_memory(&db)
                .expect("blockwise discovery");
            assert_eq!(
                blockwise.satisfied,
                baseline.satisfied,
                "blockwise({max_open_files}) vs single-pass on {}",
                db.name()
            );
            assert_eq!(
                blockwise.metrics.satisfied,
                baseline.metrics.satisfied,
                "blockwise({max_open_files}) satisfied counter on {}",
                db.name()
            );
        }
    }
}

#[test]
fn on_disk_discovery_matches_in_memory() {
    let db = generate_uniprot(&BiosqlConfig::tiny());
    for algorithm in [
        Algorithm::BruteForce,
        Algorithm::SinglePass,
        Algorithm::Spider,
        Algorithm::BruteForceParallel { threads: 4 },
    ] {
        let finder = IndFinder::with_algorithm(algorithm.clone());
        let mem = finder.discover_in_memory(&db).expect("memory");
        let dir = TempDir::new("agreement-disk");
        let disk = finder.discover_on_disk(&db, dir.path()).expect("disk");
        assert_eq!(mem.satisfied, disk.satisfied, "{algorithm:?}");
        assert_eq!(
            mem.metrics.candidates(),
            disk.metrics.candidates(),
            "{algorithm:?}: profiles must agree"
        );
    }
}

#[test]
fn memory_export_profiles_and_sets_equal_the_scan_and_the_disk_export() {
    // The in-memory export reads its profiles off the extraction pass; they
    // must equal the standalone column scan and the on-disk export's field
    // for field, at any extraction thread count, and every flat set must
    // hold exactly the bytes of the attribute's value file.
    for db in [
        generate_uniprot(&BiosqlConfig::tiny()),
        generate_pdb(&OpenMmsConfig::tiny()),
        generate_wide(&WideConfig::tiny()),
    ] {
        let dir = TempDir::new("agreement-profiles");
        let export =
            ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).expect("export");
        let scanned = profile_database(&db);
        assert_eq!(scanned, profiles_from_export(&export), "{}", db.name());
        for threads in [1, 2, 4] {
            let (profiles, provider) = memory_export_with_threads(&db, threads);
            assert_eq!(profiles, scanned, "{}, threads={threads}", db.name());
            assert_eq!(provider.attribute_count(), scanned.len());
            for p in &profiles {
                let memory = collect_cursor(provider.open(p.id).expect("memory cursor"));
                let file = collect_cursor(export.open(p.id).expect("file cursor"));
                assert_eq!(
                    memory.expect("memory drain"),
                    file.expect("file drain"),
                    "{}, threads={threads}, {}",
                    db.name(),
                    p.name
                );
            }
        }
    }
}

/// Every file of a workdir by name: the segments and nothing else (no
/// spill directory, no staged leftover).
fn workdir_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("workdir")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            assert!(
                name.starts_with("seg-") && name.ends_with(".indv"),
                "{}: unexpected {name}",
                dir.display()
            );
            (name, std::fs::read(&path).expect("a regular file"))
        })
        .collect()
}

/// Every attribute of a workdir by id: its value stream's bytes and its
/// trailer entry minus where the stream lies. Which worker's segment a
/// stream lands in, and at which offset, follows scheduling; the stream's
/// bytes and everything else its entry records never do.
fn workdir_streams(
    dir: &std::path::Path,
) -> std::collections::BTreeMap<u32, (Vec<u8>, TrailerEntry<'static>)> {
    let mut streams = std::collections::BTreeMap::new();
    for (name, segment) in workdir_files(dir) {
        let trailer = spider_ind::valueset::read_trailer(&dir.join(&name), None).expect("trailer");
        for entry in trailer {
            let start = entry.offset as usize;
            let stream = segment[start..start + entry.file_bytes as usize].to_vec();
            let unplaced = TrailerEntry { offset: 0, ..entry };
            assert!(streams.insert(unplaced.id, (stream, unplaced)).is_none());
        }
    }
    streams
}

#[test]
fn the_default_path_is_invariant_under_worker_count_and_budget() {
    // Extraction fans out over every core by default, whatever the merge
    // algorithm, and sorts under a memory budget. Nothing a run reports or
    // leaves on disk may depend on how many workers that is or on how often
    // a column's index overflowed the budget and spilled: the one-worker,
    // default-budget run is the reference for the defaults (whatever this
    // host's core count), for a count well past any column-per-worker
    // balance, and for budgets from 16 index entries (every column of more
    // rows spills) upwards. Every stream and every trailer entry is
    // identical; at one worker so is the whole workdir, segments included,
    // while more workers place the same streams into their own segments.
    use spider_ind::core::Discovery;
    let merge_facts = |d: &Discovery| {
        (
            d.metrics.items_read,
            d.metrics.comparisons,
            d.metrics.key_compares,
            d.metrics.memcmp_compares,
        )
    };
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    for db in [
        generate_pdb(&OpenMmsConfig::tiny()),
        generate_uniprot(&BiosqlConfig::tiny()),
        generate_wide(&WideConfig::tiny()),
    ] {
        let name = db.name();
        let reference = finder.discover_in_memory_with(&db, 1).expect("one worker");
        assert!(reference.ind_count() > 0, "{name}");
        for (label, run) in [
            ("default", finder.discover_in_memory(&db)),
            ("7 workers", finder.discover_in_memory_with(&db, 7)),
        ] {
            let run = run.expect("memory run");
            assert_eq!(
                run.satisfied, reference.satisfied,
                "{name}, memory, {label}"
            );
            assert_eq!(run.profiles, reference.profiles, "{name}, memory, {label}");
            assert_eq!(
                merge_facts(&run),
                merge_facts(&reference),
                "{name}, memory, {label}"
            );
        }

        let reference_dir = TempDir::new("agreement-workers-ref");
        let disk_reference = finder
            .discover_on_disk_with(&db, reference_dir.path(), &ExportOptions::with_threads(1))
            .expect("one worker on disk");
        assert_eq!(disk_reference.satisfied, reference.satisfied, "{name}");
        assert_eq!(disk_reference.profiles, reference.profiles, "{name}");
        let reference_files = workdir_files(reference_dir.path());
        let reference_streams = workdir_streams(reference_dir.path());
        assert_eq!(
            reference_streams.len(),
            reference.profiles.len(),
            "{name}: one value stream per attribute"
        );
        // `None` is `discover_on_disk`, which takes no options. A run whose
        // sorter may spill reports the spill merge's comparisons on top of
        // SPIDER's, so a budgeted run is held to what SPIDER read, not to
        // the folded comparator counts.
        let mut runs: Vec<(String, Option<ExportOptions>, bool)> = vec![
            ("discover_on_disk".into(), None, false),
            (
                "default options".into(),
                Some(ExportOptions::default()),
                false,
            ),
            (
                "7 workers".into(),
                Some(ExportOptions::with_threads(7)),
                false,
            ),
        ];
        for budget in [256, 64 << 10] {
            for threads in [1, 2] {
                let mut options = ExportOptions::with_memory_budget(budget);
                options.threads = threads;
                let label = format!("budget {budget}, {threads} workers");
                runs.push((label, Some(options), true));
            }
        }
        for (label, options, may_spill) in runs {
            let one_worker = options.as_ref().is_some_and(|o| o.threads == 1);
            let dir = TempDir::new("agreement-workers");
            let disk = match options {
                Some(options) => finder.discover_on_disk_with(&db, dir.path(), &options),
                None => finder.discover_on_disk(&db, dir.path()),
            }
            .expect("disk run");
            assert_eq!(disk.satisfied, disk_reference.satisfied, "{name}, {label}");
            assert_eq!(disk.profiles, disk_reference.profiles, "{name}, {label}");
            let (facts, reference_facts) = (merge_facts(&disk), merge_facts(&disk_reference));
            assert_eq!(
                (facts.0, facts.1),
                (reference_facts.0, reference_facts.1),
                "{name}, {label}"
            );
            if !may_spill {
                assert_eq!(facts, reference_facts, "{name}, {label}");
            }
            let streams = workdir_streams(dir.path());
            assert_eq!(
                streams.keys().collect::<Vec<_>>(),
                reference_streams.keys().collect::<Vec<_>>(),
                "{name}, {label}"
            );
            for (id, stream) in &streams {
                assert!(
                    stream == &reference_streams[id],
                    "{name}, {label}: attribute {id} differs from the one-worker export"
                );
            }
            if one_worker {
                assert!(
                    workdir_files(dir.path()) == reference_files,
                    "{name}, {label}: a one-worker workdir differs from the reference"
                );
            }
        }
    }
}

#[test]
fn the_spine_never_builds_a_value_view_and_a_reloaded_database_exports_the_same_bytes() {
    // The database is the column store: load, both discoveries, a resumed
    // export and the n-ary search read stored cells only, so no table ever
    // builds its typed `Value` view — and the cells a load parsed are the
    // bytes the generator's inserts rendered, so the two workdirs hold
    // identical streams and trailer entries (column hashes included).
    use spider_ind::datagen::{generate_chains, ChainsConfig};
    use spider_ind::storage::tsv::{load_database, save_database};
    use spider_ind::valueset::ResumeMode;
    let views =
        |db: &Database| -> usize { db.tables().iter().map(|t| t.value_views_built()).sum() };
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    for built in [
        generate_pdb(&OpenMmsConfig::tiny()),
        generate_uniprot(&BiosqlConfig::tiny()),
        generate_chains(&ChainsConfig::tiny()),
    ] {
        let name = built.name();
        let dir = TempDir::new("agreement-spine");
        save_database(&built, &dir.join("tsv")).expect("save");
        let loaded = load_database(&dir.join("tsv")).expect("load");
        assert_eq!(views(&loaded), 0, "{name}: load");

        let options = ExportOptions::default();
        let on_disk = finder
            .discover_on_disk_with(&loaded, &dir.join("loaded"), &options)
            .expect("on disk");
        assert_eq!(views(&loaded), 0, "{name}: discover_on_disk_with");
        let in_memory = finder.discover_in_memory(&loaded).expect("in memory");
        assert_eq!(views(&loaded), 0, "{name}: discover_in_memory");
        assert_eq!(on_disk.satisfied, in_memory.satisfied, "{name}");
        let resumed = ExportedDatabase::export(
            &loaded,
            &dir.join("loaded"),
            &options.clone().resume(ResumeMode::Reuse),
        )
        .expect("resume");
        assert_eq!(
            resumed.exports_redone(),
            0,
            "{name}: every column hash held"
        );
        assert_eq!(views(&loaded), 0, "{name}: resumed export");
        let pairs = finder
            .discover_nary_in_memory(&loaded, 2, 2)
            .expect("n-ary in memory");
        let pairs_on_disk = finder
            .discover_nary_on_disk(&loaded, &dir.join("nary"), &options, 2)
            .expect("n-ary on disk");
        assert_eq!(pairs.satisfied, pairs_on_disk.satisfied, "{name}");
        assert_eq!(views(&loaded), 0, "{name}: n-ary");

        let from_built = finder
            .discover_on_disk_with(&built, &dir.join("built"), &options)
            .expect("generator-built on disk");
        assert_eq!(views(&built), 0, "{name}: generator-built");
        assert_eq!(from_built.satisfied, on_disk.satisfied, "{name}");
        assert_eq!(from_built.profiles, on_disk.profiles, "{name}");
        let (loaded_streams, built_streams) = (
            workdir_streams(&dir.join("loaded")),
            workdir_streams(&dir.join("built")),
        );
        assert_eq!(loaded_streams.len(), on_disk.profiles.len(), "{name}");
        assert_eq!(
            loaded_streams.keys().collect::<Vec<_>>(),
            built_streams.keys().collect::<Vec<_>>(),
            "{name}"
        );
        for (id, stream) in &loaded_streams {
            assert!(
                stream == &built_streams[id],
                "{name}: attribute {id} of the reloaded database differs from the generator-built one's"
            );
        }
    }
}

#[test]
fn satisfied_inds_are_sorted_and_unique() {
    let db = generate_scop(&ScopConfig::tiny());
    let d = IndFinder::with_algorithm(Algorithm::SinglePass)
        .discover_in_memory(&db)
        .expect("discovery");
    let mut sorted: Vec<Candidate> = d.satisfied.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(d.satisfied, sorted);
}

#[test]
fn discovery_is_deterministic_across_runs() {
    let db = generate_pdb(&OpenMmsConfig::tiny());
    let finder = IndFinder::with_algorithm(Algorithm::SinglePass);
    let a = finder.discover_in_memory(&db).expect("first");
    let b = finder.discover_in_memory(&db).expect("second");
    assert_eq!(a.satisfied, b.satisfied);
    assert_eq!(a.metrics.items_read, b.metrics.items_read);
    assert_eq!(a.metrics.comparisons, b.metrics.comparisons);
}
