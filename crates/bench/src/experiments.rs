//! The experiment implementations, one per table/figure of the paper.
//!
//! Every function renders a report shaped like the original table, with the
//! paper's reported values quoted alongside for comparison. Absolute times
//! differ (synthetic laptop-scale data vs 2005 hardware and multi-GB
//! databases); the *shape* — who wins, by what order, where things break —
//! is the reproduction target.

use crate::datasets;
use crate::sql_deadline::run_sql_with_deadline;
use crate::table::{format_count, format_duration, TextTable};
use ind_core::{
    generate_candidates, profiles_from_export, run_blockwise, run_brute_force, run_single_pass,
    run_spider, Algorithm, BlockwiseConfig, FinderConfig, IndFinder, PretestConfig, RunMetrics,
};
use ind_discovery::{
    evaluate_foreign_keys, filter_surrogate_inds, find_accession_candidates,
    identify_primary_relation, run_aladin, AccessionRules, AladinConfig,
};
use ind_sql::SqlApproach;
use ind_testkit::TempDir;
use ind_valueset::{ExportOptions, ExportedDatabase};
use std::time::{Duration, Instant};

/// Deadline applied to SQL runs on the PDB fraction (the paper's "> 7
/// days", scaled to a laptop budget).
pub const PDB_SQL_DEADLINE: Duration = Duration::from_secs(60);

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

// ---------------------------------------------------------------------------
// Table 1 — SQL approaches
// ---------------------------------------------------------------------------

/// Reproduces Table 1: the three SQL statements on the three databases.
/// With `include_large`, adds the paper's wide PDB fraction, on which the
/// SQL approaches blow the deadline — the "> 7 days" outcome.
pub fn table1_with(include_large: bool) -> String {
    let mut out = String::from(
        "Table 1 — Experimental results utilizing SQL\n\
         (paper: join 15m03s / 7.3s / >7 days; minus 29m16s / 14.3s / –;\n\
         not in 1h53m / 46min / –; candidates 910 / 43 / 139,356;\n\
         satisfied 36 / 11 / 30,753 — PDB column used a 2.7GB fraction)\n\n",
    );
    let mut dbs = vec![datasets::uniprot(), datasets::scop(), datasets::pdb_small()];
    let mut headers = vec![
        String::new(),
        "UniProt".to_string(),
        "SCOP".to_string(),
        "PDB (small)".to_string(),
    ];
    if include_large {
        dbs.push(datasets::pdb_large());
        headers.push("PDB (large)".to_string());
    }
    let dbs = dbs;

    // Candidate/satisfied counts via the (fast) external algorithm.
    let mut cand_row = vec!["# IND candidates".to_string()];
    let mut sat_row = vec!["# satisfied INDs".to_string()];
    for db in &dbs {
        let d = IndFinder::with_algorithm(Algorithm::Spider)
            .discover_in_memory(db)
            .expect("discovery");
        cand_row.push(format_count(d.metrics.candidates()));
        sat_row.push(format_count(d.metrics.satisfied));
    }

    let mut table = TextTable::new(headers);
    table.row(cand_row);
    table.row(sat_row);

    for approach in SqlApproach::ALL {
        let mut cells = vec![approach.name().to_string()];
        for (i, db) in dbs.iter().enumerate() {
            // The PDB fractions get a deadline, reproducing the paper's
            // aborted runs.
            let deadline = if i >= 2 {
                PDB_SQL_DEADLINE
            } else {
                Duration::from_secs(3600)
            };
            let outcome = run_sql_with_deadline(db, approach, &PretestConfig::default(), deadline)
                .expect("sql run");
            cells.push(outcome.cell());
        }
        table.row(cells);
    }
    out.push_str(&table.render());
    out
}

/// [`table1_with`] without the large fraction.
pub fn table1() -> String {
    table1_with(false)
}

// ---------------------------------------------------------------------------
// Table 2 — external algorithms vs join
// ---------------------------------------------------------------------------

struct ExternalRun {
    name: &'static str,
    cells: Vec<String>,
}

/// Reproduces Table 2: brute force and single-pass (plus the SPIDER and
/// block-wise extensions) against the fastest SQL approach. External
/// algorithms run from exported sorted files, and their times include the
/// export, matching "all costs — inclusively shipping the data outside the
/// database".
pub fn table2() -> String {
    let mut out = String::from(
        "Table 2 — Approaches using order on data vs SQL join\n\
         (paper, UniProt/SCOP/PDB-small: join 15m03s / 7.3s / –;\n\
         brute force 2m38s / 10.7s / 1h29m; single-pass 3m08s / 13.0s / 3h06m;\n\
         candidates 910 / 43 / 18,230; satisfied 36 / 11 / 4,268)\n\n",
    );

    let dbs = [datasets::uniprot(), datasets::scop(), datasets::pdb_small()];
    let mut cand_cells = Vec::new();
    let mut sat_cells = Vec::new();
    let mut rows: Vec<ExternalRun> = vec![
        ExternalRun {
            name: "join (SQL)",
            cells: Vec::new(),
        },
        ExternalRun {
            name: "brute force",
            cells: Vec::new(),
        },
        ExternalRun {
            name: "single-pass",
            cells: Vec::new(),
        },
        ExternalRun {
            name: "spider (ext)",
            cells: Vec::new(),
        },
        ExternalRun {
            name: "blockwise (ext)",
            cells: Vec::new(),
        },
    ];

    for (i, db) in dbs.iter().enumerate() {
        // SQL join baseline (deadline on PDB).
        let deadline = if i == 2 {
            PDB_SQL_DEADLINE
        } else {
            Duration::from_secs(3600)
        };
        let join =
            run_sql_with_deadline(db, SqlApproach::Join, &PretestConfig::default(), deadline)
                .expect("join run");
        rows[0].cells.push(join.cell());

        // One export shared by all external algorithms; its cost is added
        // to each algorithm's time.
        let dir = TempDir::new("table2");
        let (export, export_time) = timed(|| {
            ExportedDatabase::export(db, dir.path(), &ExportOptions::default()).expect("export")
        });
        let profiles = profiles_from_export(&export);
        let mut gen_metrics = RunMetrics::new();
        let candidates =
            generate_candidates(&profiles, &PretestConfig::default(), &mut gen_metrics);
        cand_cells.push(format_count(gen_metrics.candidates()));

        let mut sat_count = None;
        for (row, runner) in [
            (1usize, Algorithm::BruteForce),
            (2, Algorithm::SinglePass),
            (3, Algorithm::Spider),
            (
                4,
                Algorithm::Blockwise {
                    max_open_files: 256,
                },
            ),
        ] {
            let mut metrics = RunMetrics::new();
            let (found, elapsed) = timed(|| match &runner {
                Algorithm::BruteForce => {
                    run_brute_force(&export, &candidates, &mut metrics).expect("bf")
                }
                Algorithm::SinglePass => {
                    run_single_pass(&export, &candidates, &mut metrics).expect("sp")
                }
                Algorithm::Spider => {
                    run_spider(&export, &candidates, &mut metrics).expect("spider")
                }
                Algorithm::Blockwise { max_open_files } => run_blockwise(
                    &export,
                    &candidates,
                    &BlockwiseConfig {
                        max_open_files: *max_open_files,
                    },
                    &mut metrics,
                )
                .expect("blockwise"),
                _ => unreachable!(),
            });
            let total = elapsed + export_time;
            rows[row].cells.push(format_duration(total));
            match sat_count {
                None => sat_count = Some(found.len()),
                Some(n) => assert_eq!(n, found.len(), "algorithms must agree"),
            }
        }
        sat_cells.push(format_count(sat_count.unwrap_or(0) as u64));
    }

    let mut table = TextTable::new(vec!["", "UniProt", "SCOP", "PDB (small)"]);
    table.row(vec![
        "# IND candidates".to_string(),
        cand_cells[0].clone(),
        cand_cells[1].clone(),
        cand_cells[2].clone(),
    ]);
    table.row(vec![
        "# satisfied INDs".to_string(),
        sat_cells[0].clone(),
        sat_cells[1].clone(),
        sat_cells[2].clone(),
    ]);
    for r in rows {
        let mut cells = vec![r.name.to_string()];
        cells.extend(r.cells);
        table.row(cells);
    }
    out.push_str(&table.render());
    out.push_str("\n(times include extracting the sorted value files; spider and blockwise are extensions beyond the paper)\n");
    out
}

// ---------------------------------------------------------------------------
// Figure 5 — I/O comparison
// ---------------------------------------------------------------------------

/// Reproduces Figure 5: items read by brute force vs single pass over
/// growing attribute subsets of UniProt.
pub fn fig5() -> String {
    let mut out = String::from(
        "Figure 5 — I/O comparison (items read), growing UniProt attribute subsets\n\
         (paper: brute force grows to ~1.4e8 items at 85 attributes and is far\n\
         above single pass, which reads each value at most once)\n\n",
    );
    let db = datasets::uniprot();
    let (profiles, provider) = ind_core::memory_export(&db);

    let mut table = TextTable::new(vec![
        "attributes",
        "candidates",
        "brute force items",
        "single pass items",
        "ratio",
    ]);
    let total = profiles.len();
    let mut steps: Vec<usize> = (10..total).step_by(10).collect();
    steps.push(total);
    for k in steps {
        let subset = &profiles[..k];
        let mut gen = RunMetrics::new();
        let candidates = generate_candidates(subset, &PretestConfig::default(), &mut gen);
        let mut bf = RunMetrics::new();
        let bf_found = run_brute_force(&provider, &candidates, &mut bf).expect("bf");
        let mut sp = RunMetrics::new();
        let sp_found = run_single_pass(&provider, &candidates, &mut sp).expect("sp");
        let mut bf_sorted = bf_found;
        bf_sorted.sort();
        assert_eq!(bf_sorted, sp_found, "algorithms must agree at k={k}");
        let ratio = if sp.items_read == 0 {
            "-".to_string()
        } else {
            format!("{:.1}x", bf.items_read as f64 / sp.items_read as f64)
        };
        table.row(vec![
            k.to_string(),
            format_count(candidates.len() as u64),
            format_count(bf.items_read),
            format_count(sp.items_read),
            ratio,
        ]);
    }
    out.push_str(&table.render());
    out
}

// ---------------------------------------------------------------------------
// Section 4.1 — max-value pretest pruning
// ---------------------------------------------------------------------------

/// Reproduces the Sec. 4.1 pruning experiment: candidate reduction and
/// speed-up from the max-value pretest.
pub fn pruning() -> String {
    let mut out = String::from(
        "Section 4.1 — max-value pretest\n\
         (paper: UniProt candidates 910 -> 541, brute force/single-pass ~20% faster;\n\
         PDB-small 18,230 -> 7,354, ~40% faster; no benefit on SCOP)\n\n",
    );
    let mut table = TextTable::new(vec![
        "dataset",
        "candidates",
        "pruned",
        "bf time",
        "bf pruned",
        "sp time",
        "sp pruned",
    ]);
    for (name, db) in [
        ("UniProt", datasets::uniprot()),
        ("SCOP", datasets::scop()),
        ("PDB (small)", datasets::pdb_small()),
    ] {
        let (profiles, provider) = ind_core::memory_export(&db);
        let mut base_gen = RunMetrics::new();
        let base = generate_candidates(&profiles, &PretestConfig::default(), &mut base_gen);
        let mut max_gen = RunMetrics::new();
        let pruned = generate_candidates(&profiles, &PretestConfig::with_max_value(), &mut max_gen);

        let mut m = RunMetrics::new();
        let (base_bf, t_bf) = timed(|| run_brute_force(&provider, &base, &mut m).expect("bf"));
        let mut m = RunMetrics::new();
        let (pruned_bf, t_bf_p) =
            timed(|| run_brute_force(&provider, &pruned, &mut m).expect("bf"));
        let mut m = RunMetrics::new();
        let (base_sp, t_sp) = timed(|| run_single_pass(&provider, &base, &mut m).expect("sp"));
        let mut m = RunMetrics::new();
        let (pruned_sp, t_sp_p) =
            timed(|| run_single_pass(&provider, &pruned, &mut m).expect("sp"));

        // Pruning must not change the result.
        let mut a = base_bf;
        a.sort();
        let mut b = pruned_bf;
        b.sort();
        assert_eq!(a, b, "{name}: max pretest changed the brute-force result");
        assert_eq!(
            base_sp, pruned_sp,
            "{name}: max pretest changed the single-pass result"
        );

        table.row(vec![
            name.to_string(),
            format_count(base.len() as u64),
            format_count(pruned.len() as u64),
            format_duration(t_bf),
            format_duration(t_bf_p),
            format_duration(t_sp),
            format_duration(t_sp_p),
        ]);
    }
    out.push_str(&table.render());
    out
}

// ---------------------------------------------------------------------------
// Section 5 — schema discovery
// ---------------------------------------------------------------------------

/// Reproduces the Sec. 5 analysis: foreign keys on UniProt/SCOP, surrogate
/// false positives on PDB, accession-number candidates, primary relations,
/// and the Aladin inter-source links.
pub fn discovery() -> String {
    let mut out = String::from(
        "Section 5 — Schema discovery using INDs\n\
         (paper: UniProt — all FKs found except two on empty tables, 11 extras all\n\
         in the FK transitive closure, no false positives; 3 accession candidates;\n\
         primary relation sg_bioentry unambiguous. PDB — ~30k INDs dominated by\n\
         surrogate keys; 9 strict / 19 softened accession candidates; 3-way primary\n\
         tie exptl/struct/struct_keywords with struct correct)\n\n",
    );

    // --- UniProt ---------------------------------------------------------
    let uniprot = datasets::uniprot();
    let d = IndFinder::new(FinderConfig::default())
        .discover_in_memory(&uniprot)
        .expect("uniprot discovery");
    let eval = evaluate_foreign_keys(&uniprot, &d);
    out.push_str(&format!(
        "UniProt: {} INDs; gold FKs found {}, missed on empty tables {}, missed otherwise {};\n\
         extras: {} in closure/equality, {} surrogate, {} unexplained (paper: 0)\n",
        d.ind_count(),
        eval.found.len(),
        eval.missed_empty.len(),
        eval.missed_other.len(),
        eval.closure_extras(),
        eval.surrogate_extras(),
        eval.unexplained().len(),
    ));
    let rules = AccessionRules::strict();
    let acc = find_accession_candidates(&uniprot, &rules);
    out.push_str(&format!(
        "UniProt accession candidates ({}): {}\n",
        acc.len(),
        acc.iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let pr = identify_primary_relation(&uniprot, &d, &rules);
    out.push_str(&format!(
        "UniProt primary relation ranking: {:?}; primary: {:?}\n\n",
        pr.ranking, pr.primary_candidates
    ));

    // --- SCOP -------------------------------------------------------------
    let scop = datasets::scop();
    let ds = IndFinder::new(FinderConfig::default())
        .discover_in_memory(&scop)
        .expect("scop discovery");
    let evs = evaluate_foreign_keys(&scop, &ds);
    out.push_str(&format!(
        "SCOP: {} INDs; gold FKs found {}, missed {}, extras in closure {}, unexplained {}\n\n",
        ds.ind_count(),
        evs.found.len(),
        evs.missed_other.len(),
        evs.closure_extras(),
        evs.unexplained().len(),
    ));

    // --- PDB ----------------------------------------------------------------
    let pdb = datasets::pdb_small();
    let dp = IndFinder::with_algorithm(Algorithm::Spider)
        .discover_in_memory(&pdb)
        .expect("pdb discovery");
    let (kept, filtered) = filter_surrogate_inds(&pdb, &dp);
    out.push_str(&format!(
        "PDB (small): {} INDs; surrogate-range filter flags {} as coincidences, keeps {}\n",
        dp.ind_count(),
        filtered.len(),
        kept.len(),
    ));
    let strict = find_accession_candidates(&pdb, &AccessionRules::strict());
    // The paper softened to 99.98% over millions of rows; our tables hold
    // hundreds, so one outlier value corresponds to ~99.5%.
    let softened = find_accession_candidates(&pdb, &AccessionRules::softened(0.99));
    out.push_str(&format!(
        "PDB accession candidates: {} strict (paper: 9), {} softened (paper: 19)\n",
        strict.len(),
        softened.len(),
    ));
    let prp = identify_primary_relation(&pdb, &dp, &AccessionRules::strict());
    out.push_str(&format!(
        "PDB primary relation candidates: {:?} (paper: exptl, struct, struct_keywords)\n\n",
        prp.primary_candidates
    ));

    // --- Aladin inter-source links -------------------------------------------
    let universe = ind_datagen::generate_universe(&ind_datagen::UniverseConfig {
        uniprot: ind_datagen::BiosqlConfig {
            bioentries: 300,
            ..Default::default()
        },
        scop: ind_datagen::ScopConfig {
            nodes: 500,
            pdb_pool: 300,
            ..Default::default()
        },
        pdb: ind_datagen::OpenMmsConfig {
            tables: 12,
            entries: 300,
            base_rows: 100,
            payload_columns: 8,
            strict_code_tables: 2,
            soft_code_tables: 2,
            seed: 42,
        },
    });
    let report = run_aladin(
        &[&universe.uniprot, &universe.scop, &universe.pdb],
        &AladinConfig::default(),
    )
    .expect("aladin");
    out.push_str("Aladin pipeline (steps 2-5) over the shared-universe sources:\n");
    out.push_str(&report.to_string());
    out
}

// ---------------------------------------------------------------------------
// Section 4.2 — the open-file limit, measured, and the block-wise cap
// ---------------------------------------------------------------------------

/// Sec. 4.2 as measured history: the paper's single-pass "had to open 2560
/// files, which is not feasible for our system", one descriptor per
/// cursor. Here the plain single-pass still holds one cursor per dependent
/// and per referenced role at once, but they share one descriptor per
/// segment; the report prints both numbers. Block-wise runs under a cursor
/// cap of half that need — a bound on reader buffers, not descriptors —
/// and must agree with brute force.
pub fn scalability(use_large_fraction: bool) -> String {
    let mut out = String::from(
        "Section 4.2 — scalability at system level\n\
         (paper: single-pass could not run on the 2,560-attribute PDB fraction\n\
         because all value files are opened at once; brute force scales; the\n\
         block-wise approach is proposed as the fix. Here cursors share one\n\
         descriptor per segment, so the cap block-wise honours bounds reader\n\
         buffers, not open files)\n\n",
    );
    let db = if use_large_fraction {
        datasets::pdb_large()
    } else {
        datasets::pdb_small()
    };
    out.push_str(&format!(
        "database: {} ({} tables, {} attributes)\n",
        db.name(),
        db.table_count(),
        db.attribute_count()
    ));

    let dir = TempDir::new("scalability");
    let export =
        ExportedDatabase::export(&db, dir.path(), &ExportOptions::default()).expect("export");
    let profiles = profiles_from_export(&export);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);

    // Distinct attributes per role = cursors the single-pass holds at once.
    let mut deps: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut refs: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for c in &candidates {
        deps.insert(c.dep);
        refs.insert(c.refd);
    }
    let needed = deps.len() + refs.len();
    let cap = (needed / 2).max(2);
    out.push_str(&format!(
        "candidates: {}; cursors single-pass holds at once: {}\n",
        format_count(candidates.len() as u64),
        needed
    ));

    let mut m = RunMetrics::new();
    let (sp, t_sp) = timed(|| run_single_pass(&export, &candidates, &mut m).expect("single-pass"));
    out.push_str(&format!(
        "single-pass:   {} INDs in {}; {} cursors over {} open files (one per segment)\n",
        format_count(sp.len() as u64),
        format_duration(t_sp),
        m.cursor_opens,
        export.file_opens()
    ));

    let mut m = RunMetrics::new();
    let (bf, t_bf) = timed(|| run_brute_force(&export, &candidates, &mut m).expect("bf"));
    out.push_str(&format!(
        "brute force:   {} INDs in {} (2 cursors at a time)\n",
        format_count(bf.len() as u64),
        format_duration(t_bf)
    ));

    let mut m = RunMetrics::new();
    let (bw, t_bw) = timed(|| {
        run_blockwise(
            &export,
            &candidates,
            &BlockwiseConfig {
                max_open_files: cap,
            },
            &mut m,
        )
        .expect("blockwise")
    });
    out.push_str(&format!(
        "block-wise:    {} INDs in {} under a cap of {cap} cursors (the paper's proposed fix)\n",
        format_count(bw.len() as u64),
        format_duration(t_bw)
    ));
    let mut bf_sorted = bf;
    bf_sorted.sort();
    assert_eq!(bf_sorted, bw, "block-wise must agree with brute force");
    assert_eq!(sp, bw, "single-pass must agree with block-wise");
    out
}

/// Writes `body` to `experiments/<name>.txt` under the repository root.
pub fn write_output(name: &str, body: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.txt"));
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Convenience used by the binaries: print and persist.
pub fn emit(name: &str, body: &str) {
    println!("{body}");
    match write_output(name, body) {
        Ok(path) => println!("[written to {}]", path.display()),
        Err(e) => eprintln!("[could not write output file: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig5_report_has_the_expected_shape() {
        // fig5 is the cheapest experiment; use it to smoke-test the
        // experiment plumbing (dataset build, both algorithms, table
        // rendering). The expensive experiments are exercised by their
        // binaries.
        let report = super::fig5();
        assert!(report.contains("Figure 5"));
        assert!(report.contains("brute force items"));
        let data_lines = report
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .count();
        assert!(data_lines >= 8, "expected a series of rows:\n{report}");
    }

    #[test]
    fn write_output_creates_the_experiments_file() {
        let path = super::write_output("selftest", "hello\n").expect("write");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "hello\n");
        let _ = std::fs::remove_file(path);
    }
}
