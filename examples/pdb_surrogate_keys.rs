//! The paper's PDB pathology: a schema without foreign keys whose
//! surrogate integer ids produce thousands of coincidental INDs — and the
//! range-analysis filter the paper proposes against them, plus the
//! open-file story of Sec. 4.2 as it stands with shared descriptors.
//!
//! ```sh
//! cargo run --release --example pdb_surrogate_keys
//! ```

use spider_ind::core::{
    generate_candidates, profiles_from_export, run_blockwise, run_single_pass, Algorithm, Backend,
    BlockwiseConfig, IndFinder, PretestConfig, RunMetrics,
};
use spider_ind::datagen::{generate_pdb, OpenMmsConfig};
use spider_ind::discovery::{
    filter_surrogate_inds, find_accession_candidates, identify_primary_relation, AccessionRules,
};
use spider_ind::valueset::{ExportOptions, ExportedDatabase};

fn main() {
    let db = generate_pdb(&OpenMmsConfig::small_fraction());
    println!(
        "PDB-shaped database: {} tables, {} attributes, {} declared FKs (OpenMMS declares none)\n",
        db.table_count(),
        db.attribute_count(),
        db.gold_foreign_keys().len()
    );

    let discovery = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("discovery");
    println!(
        "discovered {} satisfied INDs from {} candidates — almost all are\n\
         surrogate-key coincidences, not foreign keys\n",
        discovery.ind_count(),
        discovery.metrics.candidates()
    );

    let (kept, filtered) = filter_surrogate_inds(&db, &discovery);
    println!(
        "range-analysis filter (the paper's proposed heuristic):\n  flagged {} INDs as dense-1-based-range coincidences\n  kept    {} INDs as plausible foreign keys:",
        filtered.len(),
        kept.len()
    );
    for ind in &kept {
        println!(
            "    {} \u{2286} {}",
            discovery.profile(ind.dep).name,
            discovery.profile(ind.refd).name
        );
    }

    let strict = find_accession_candidates(&db, &AccessionRules::strict());
    let softened = find_accession_candidates(&db, &AccessionRules::softened(0.99));
    println!(
        "\naccession-number candidates: {} strict (paper: 9), {} softened (paper: 19)",
        strict.len(),
        softened.len()
    );
    let primary = identify_primary_relation(&db, &discovery, &AccessionRules::strict());
    println!(
        "primary-relation candidates: {:?}\n(paper: exptl, struct, struct_keywords — with struct the correct answer)",
        primary.primary_candidates
    );

    // Sec. 4.2: the single-pass holds a cursor per dependent and per
    // referenced role at once — the paper's 2,560 open files. Here they
    // share one descriptor per segment; block-wise caps the cursors (the
    // reader buffers) instead.
    let tmp = std::env::temp_dir().join(format!("spider-ind-example-{}", std::process::id()));
    let export = ExportedDatabase::export(&db, &tmp, &ExportOptions::default()).expect("export");
    let profiles = profiles_from_export(&export);
    let mut gen = RunMetrics::new();
    let candidates = generate_candidates(&profiles, &PretestConfig::default(), &mut gen);

    println!("\nopen files (Sec. 4.2):");
    let mut m = RunMetrics::new();
    let all_at_once = run_single_pass(&export, &candidates, &mut m).expect("single-pass");
    println!(
        "  single-pass holds {} cursors at once over {} open files (one per segment)",
        m.cursor_opens,
        export.file_opens()
    );
    let cap = (m.cursor_opens as usize / 2).max(2);
    let mut m = RunMetrics::new();
    let found = run_blockwise(
        &export,
        &candidates,
        &BlockwiseConfig {
            max_open_files: cap,
        },
        &mut m,
    )
    .expect("blockwise");
    assert_eq!(found, all_at_once, "block-wise must agree with single-pass");
    println!(
        "  block-wise single-pass finds the same {} INDs holding at most {cap} cursors",
        found.len()
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
