//! Persistence round-trips and failure injection: TSV save/load of whole
//! generated databases, value-file corruption surfacing through the
//! discovery stack, and the cursors single-pass holds against the
//! descriptors it opens (Sec. 4.2).

use ind_testkit::TempDir;
use spider_ind::core::{
    generate_candidates, profiles_from_export, run_blockwise, run_brute_force, run_single_pass,
    Algorithm, Backend, BlockwiseConfig, IndFinder, PretestConfig, RunMetrics,
};
use spider_ind::datagen::{
    generate_chains, generate_pdb, generate_scop, generate_uniprot, generate_wide, BiosqlConfig,
    ChainsConfig, OpenMmsConfig, ScopConfig, WideConfig,
};
use spider_ind::storage::tsv::{load_database, load_database_with, save_database};
use spider_ind::storage::StorageError;
use spider_ind::valueset::{
    ExportOptions, ExportedDatabase, ValueCursor, ValueFileReader, ValueSetError, ValueSetProvider,
};
use std::cell::Cell;
use std::collections::HashSet;
use std::path::Path;
use std::rc::Rc;

/// Every `.tsv` file of `dir` with its bytes, by name.
fn tsv_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("list")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "tsv"))
        .map(|path| {
            let name = path
                .file_name()
                .expect("a name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("read"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn generated_databases_survive_tsv_round_trips() {
    let dir = TempDir::new("tsv-generated");
    // Wide values of 64 bytes fill the loader's scan block; of 1,000 bytes
    // they take its long-field search.
    let long_values = WideConfig {
        value_bytes: 1000,
        ..WideConfig::tiny()
    };
    for db in [
        generate_uniprot(&BiosqlConfig::tiny()),
        generate_scop(&ScopConfig::tiny()),
        generate_pdb(&OpenMmsConfig::tiny()),
        generate_wide(&WideConfig::tiny()),
        generate_wide(&long_values),
        generate_chains(&ChainsConfig::tiny()),
    ] {
        let path = dir.join(&format!("{}-{}", db.name(), db.total_rows()));
        save_database(&db, &path).expect("save");
        let saved = tsv_files(&path);
        // A copy with CRLF line ends loads to the same database.
        let crlf = dir.join(&format!("{}-{}-crlf", db.name(), db.total_rows()));
        std::fs::create_dir_all(&crlf).expect("mkdir");
        std::fs::copy(path.join("schema.txt"), crlf.join("schema.txt")).expect("copy");
        for (name, bytes) in &saved {
            let mut crlf_bytes = Vec::with_capacity(bytes.len() * 2);
            for &byte in bytes {
                if byte == b'\n' {
                    crlf_bytes.push(b'\r');
                }
                crlf_bytes.push(byte);
            }
            std::fs::write(crlf.join(name), crlf_bytes).expect("write");
        }
        for (source, workers) in [(&path, 1), (&path, 2), (&crlf, 1), (&crlf, 2)] {
            let loaded = load_database_with(source, workers).expect("load");
            let what = format!("{} at {workers} workers", source.display());
            assert_eq!(loaded.name(), db.name(), "{what}");
            assert_eq!(loaded.table_count(), db.table_count(), "{what}");
            assert_eq!(loaded.total_rows(), db.total_rows(), "{what}");
            assert_eq!(loaded.gold_foreign_keys(), db.gold_foreign_keys(), "{what}");
            for (lt, t) in loaded.tables().iter().zip(db.tables()) {
                assert_eq!(lt.schema(), t.schema(), "{what}");
                for ((_, cs, loaded_col), (_, _, col)) in lt.iter_cells().zip(t.iter_cells()) {
                    assert_eq!(loaded_col.data_type(), col.data_type());
                    assert!(
                        loaded_col.cells().eq(col.cells()),
                        "{what}: {}.{}",
                        t.name(),
                        cs.name
                    );
                }
            }
            let again = dir.join("again");
            save_database(&loaded, &again).expect("save again");
            assert!(tsv_files(&again) == saved, "{what}: save → load → save");
            std::fs::remove_dir_all(&again).expect("clean");
        }
    }
}

#[test]
fn parallel_load_returns_the_saved_database_at_any_worker_count() {
    let dir = TempDir::new("tsv-parallel");
    for db in [
        generate_pdb(&OpenMmsConfig::tiny()),
        generate_uniprot(&BiosqlConfig::tiny()),
    ] {
        let path = dir.join(db.name());
        save_database(&db, &path).expect("save");
        let loads = [1usize, 2, 3, 64]
            .map(|workers| load_database_with(&path, workers).expect("load"))
            .into_iter()
            .chain([load_database(&path).expect("default load")]);
        for loaded in loads {
            assert_eq!(loaded.name(), db.name());
            assert_eq!(loaded.table_count(), db.table_count());
            for (lt, t) in loaded.tables().iter().zip(db.tables()) {
                assert_eq!(lt.schema(), t.schema(), "table order and schema");
                for ((_, _, loaded_col), (_, cs, col)) in lt.iter_columns().zip(t.iter_columns()) {
                    assert_eq!(loaded_col, col, "{}.{}", t.name(), cs.name);
                }
            }
        }
    }
}

#[test]
fn parallel_load_reports_the_earliest_bad_table_with_its_own_error() {
    let dir = TempDir::new("tsv-parallel-errors");
    let db = generate_uniprot(&BiosqlConfig::tiny());
    let tables: Vec<&str> = db.tables().iter().map(|t| t.name()).collect();
    assert!(tables.len() >= 6, "fixture needs a handful of tables");
    let bad_line = "\u{1}\tnot\ta\trow\tof\tthis\ttable\tat\tall\t-\t-\t-\t-\t-\t-\t-\t-\n";
    let file = |i: usize| dir.join(&format!("{}.tsv", tables[i]));
    let reload = |workers: usize| load_database_with(dir.path(), workers);

    for workers in [1usize, 2, 8] {
        // Two corrupt files: whichever worker trips first, the error is the
        // one of the table earlier in schema.txt.
        save_database(&db, dir.path()).expect("save");
        let (early, late) = (1, tables.len() - 2);
        for i in [late, early] {
            std::fs::write(file(i), bad_line).expect("corrupt");
        }
        match reload(workers) {
            Err(StorageError::Parse { context, detail }) => {
                assert!(
                    context.ends_with(&format!("{}.tsv", tables[early])),
                    "workers={workers}: {context}"
                );
                assert!(detail.contains("line 1"), "{detail}");
            }
            other => panic!("workers={workers}: expected a parse error, got {other:?}"),
        }

        // A missing file behind a bad value: still the earlier table's I/O
        // error, not the later table's parse error.
        save_database(&db, dir.path()).expect("save");
        std::fs::remove_file(file(early)).expect("remove");
        std::fs::write(file(late), bad_line).expect("corrupt");
        assert!(
            matches!(reload(workers), Err(StorageError::Io(_))),
            "workers={workers}"
        );
    }

    // NULL in a NOT NULL column keeps its own variant through the pool.
    save_database(&db, dir.path()).expect("save");
    let (victim, arity) = db
        .tables()
        .iter()
        .find_map(|t| {
            let strict = !t.schema().columns[0].nullable && !t.is_empty();
            strict.then(|| (t.name(), t.schema().arity()))
        })
        .expect("a populated table whose first column is NOT NULL");
    let nulls = vec!["\\N"; arity].join("\t") + "\n";
    std::fs::write(dir.join(&format!("{victim}.tsv")), nulls).expect("write");
    for workers in [1usize, 4] {
        assert!(
            matches!(
                reload(workers),
                Err(StorageError::NullViolation { ref table, .. }) if table == victim
            ),
            "workers={workers}"
        );
    }
}

#[test]
fn discovery_on_reloaded_database_matches_original() {
    let dir = TempDir::new("tsv-discovery");
    let db = generate_uniprot(&BiosqlConfig::tiny());
    save_database(&db, dir.path()).expect("save");
    let loaded = load_database(dir.path()).expect("load");
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    let a = finder.run(&db, &Backend::memory(), 1).expect("original");
    let b = finder
        .run(&loaded, &Backend::memory(), 1)
        .expect("reloaded");
    assert_eq!(a.satisfied_named(), b.satisfied_named());
}

#[test]
fn corrupt_value_file_surfaces_as_an_error_not_a_wrong_answer() {
    let dir = TempDir::new("corrupt-export");
    let db = generate_scop(&ScopConfig::tiny());
    let export =
        ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).expect("export");
    let profiles = profiles_from_export(&export);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);

    // Tear the tail of one attribute's stream: its footer's last two
    // bytes, inside the segment it shares with its siblings.
    let victim = &export.attributes()[0];
    let mut bytes = std::fs::read(victim.path.file()).expect("read");
    let end = (victim.path.offset() + victim.file_bytes) as usize;
    assert!(victim.file_bytes > 20);
    bytes[end - 2..end].fill(0);
    std::fs::write(victim.path.file(), &bytes).expect("damage");

    let mut m = RunMetrics::new();
    let err = run_brute_force(&export, &candidates, &mut m).expect_err("must fail");
    assert!(matches!(err, ValueSetError::Corrupt { .. }), "{err}");

    let mut m = RunMetrics::new();
    let err = run_single_pass(&export, &candidates, &mut m).expect_err("must fail");
    assert!(matches!(err, ValueSetError::Corrupt { .. }), "{err}");
}

/// A provider over an export that records the peak number of its cursors
/// alive at once.
struct PeakCursors<'a> {
    export: &'a ExportedDatabase,
    live: Rc<Cell<usize>>,
    peak: Cell<usize>,
}

struct Counted {
    inner: ValueFileReader,
    live: Rc<Cell<usize>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.live.set(self.live.get() - 1);
    }
}

impl ValueCursor for Counted {
    fn advance(&mut self) -> Result<bool, ValueSetError> {
        self.inner.advance()
    }
    fn current(&self) -> &[u8] {
        self.inner.current()
    }
    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl ValueSetProvider for PeakCursors<'_> {
    type Cursor = Counted;
    fn open(&self, id: u32) -> Result<Counted, ValueSetError> {
        let inner = self.export.open(id)?;
        self.live.set(self.live.get() + 1);
        self.peak.set(self.peak.get().max(self.live.get()));
        Ok(Counted {
            inner,
            live: Rc::clone(&self.live),
        })
    }
    fn attribute_count(&self) -> usize {
        self.export.attribute_count()
    }
}

#[test]
fn single_pass_holds_every_cursor_over_one_descriptor_per_segment() {
    // Sec. 4.2 after segments: the plain single-pass holds a cursor per
    // dependent and per referenced role at once, and they share one
    // descriptor per segment; block-wise under a small cursor cap agrees.
    let dir = TempDir::new("shared-descriptors");
    let db = generate_scop(&ScopConfig::tiny());
    let export =
        ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).expect("export");
    let profiles = profiles_from_export(&export);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);
    let deps: HashSet<u32> = candidates.iter().map(|c| c.dep).collect();
    let refs: HashSet<u32> = candidates.iter().map(|c| c.refd).collect();
    let segments: HashSet<&Path> = export.attributes().iter().map(|a| a.path.file()).collect();

    let peak = PeakCursors {
        export: &export,
        live: Rc::default(),
        peak: Cell::default(),
    };
    let mut m = RunMetrics::new();
    let sp = run_single_pass(&peak, &candidates, &mut m).expect("single-pass");
    assert!(
        deps.len() + refs.len() > 4,
        "more cursors than the cap below"
    );
    assert_eq!(peak.peak.get(), deps.len() + refs.len(), "all at once");
    assert_eq!(export.file_opens(), segments.len() as u64);

    let mut m = RunMetrics::new();
    let mut bf = run_brute_force(&export, &candidates, &mut m).expect("brute force");
    bf.sort();

    let mut m = RunMetrics::new();
    let bw = run_blockwise(
        &export,
        &candidates,
        &BlockwiseConfig { max_open_files: 4 },
        &mut m,
    )
    .expect("blockwise");
    assert_eq!(bf, bw);
    assert_eq!(sp, bw);
}

#[test]
fn missing_export_file_is_an_io_error() {
    let dir = TempDir::new("missing-file");
    let db = generate_scop(&ScopConfig::tiny());
    let export =
        ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).expect("export");
    std::fs::remove_file(export.attributes()[2].path.file()).expect("delete");
    let profiles = profiles_from_export(&export);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);
    let mut m = RunMetrics::new();
    let err = run_brute_force(&export, &candidates, &mut m).expect_err("must fail");
    assert!(matches!(err, ValueSetError::Io(_)), "{err}");
}

#[test]
fn export_then_rediscover_from_files_only() {
    // The paper's actual pipeline: the client program sees only the sorted
    // files, never the database.
    let dir = TempDir::new("files-only");
    let db = generate_uniprot(&BiosqlConfig::tiny());
    let expected = IndFinder::with_algorithm(Algorithm::BruteForce)
        .run(&db, &Backend::memory(), 1)
        .expect("expected");
    ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).expect("export");
    drop(db);

    // Reopen the export directory from scratch by re-exporting metadata —
    // the files carry everything: re-read them through cursors.
    let db2 = generate_uniprot(&BiosqlConfig::tiny());
    let export =
        ExportedDatabase::export(&db2, dir.path(), &ExportOptions::default()).expect("re-export");
    let profiles = profiles_from_export(&export);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);
    let mut m = RunMetrics::new();
    let mut found = run_brute_force(&export, &candidates, &mut m).expect("bf");
    found.sort();
    assert_eq!(found, expected.satisfied);
}

#[test]
fn a_seeded_pdb_export_writes_the_pinned_number_of_bytes() {
    // `generate pdb --scale 40 --seed 42`, exported by one worker: the
    // streams' bytes are a function of the format alone, so a change
    // that inflates it fails here by name. Front-coded v3 records put
    // 576,716 bytes where v2's length-prefixed ones put 924,459.
    let db = generate_pdb(&OpenMmsConfig {
        entries: 40 * 4,
        base_rows: 40 * 3,
        seed: 42,
        ..OpenMmsConfig::small_fraction()
    });
    let dir = TempDir::new("pinned-bytes");
    let export =
        ExportedDatabase::export(&db, dir.path(), &ExportOptions::with_threads(1)).expect("export");
    let file_bytes: u64 = export.attributes().iter().map(|a| a.file_bytes).sum();
    assert_eq!(export.attributes().len(), 551);
    assert_eq!(file_bytes, 576_716);
}
