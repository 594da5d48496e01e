//! The paper's qualitative results, asserted as tests. Each test names the
//! Section 5 / Table claim it checks; `ind-bench`'s `run_all` reports
//! (`experiments/*.txt`) record the numbers.

use spider_ind::core::{Algorithm, Backend, IndFinder, PretestConfig};
use spider_ind::datagen::{
    generate_pdb, generate_scop, generate_uniprot, BiosqlConfig, OpenMmsConfig, ScopConfig,
};
use spider_ind::discovery::{
    evaluate_foreign_keys, filter_surrogate_inds, find_accession_candidates,
    identify_primary_relation, AccessionRules,
};

fn uniprot() -> spider_ind::storage::Database {
    generate_uniprot(&BiosqlConfig {
        bioentries: 200,
        ..Default::default()
    })
}

#[test]
fn uniprot_all_discoverable_fks_are_found() {
    // "Our algorithm found all defined foreign keys as INDs, with the
    // exception of two foreign keys that are defined on empty tables."
    let db = uniprot();
    let d = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("discovery");
    let eval = evaluate_foreign_keys(&db, &d);
    assert_eq!(eval.found.len(), 19);
    assert_eq!(eval.missed_empty.len(), 2);
    assert!(eval.missed_other.is_empty());
    assert_eq!(eval.recall_discoverable(), 1.0);
    assert!(eval
        .missed_empty
        .iter()
        .all(|(dep, _)| dep.table == "sg_term_path"));
}

#[test]
fn uniprot_extras_are_in_the_closure_and_there_are_no_false_positives() {
    // "We found 11 INDs that are in the transitive closure of the foreign
    // key definitions … no false positives were produced."
    let db = uniprot();
    let d = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("discovery");
    let eval = evaluate_foreign_keys(&db, &d);
    assert!(eval.closure_extras() >= 5, "several closure INDs expected");
    assert_eq!(
        eval.unexplained().len(),
        0,
        "false positives: {:?}",
        eval.unexplained()
    );
    assert_eq!(eval.surrogate_extras(), 0, "UniProt has no surrogate pairs");
}

#[test]
fn uniprot_has_exactly_the_three_paper_accession_candidates() {
    // "Applying these heuristics to BioSQL we identified three accession
    // number candidates (sg_bioentry.accession, sg_reference.crc and
    // sg_ontology.name)."
    let db = uniprot();
    let names: Vec<String> = find_accession_candidates(&db, &AccessionRules::strict())
        .into_iter()
        .map(|q| q.to_string())
        .collect();
    assert_eq!(
        names,
        vec![
            "sg_bioentry.accession".to_string(),
            "sg_ontology.name".to_string(),
            "sg_reference.crc".to_string(),
        ]
    );
}

#[test]
fn uniprot_primary_relation_is_bioentry_unambiguously() {
    // "Heuristic 2 identifies unambiguously the correct primary relation,
    // namely sg_bioentry."
    let db = uniprot();
    let d = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("discovery");
    let pr = identify_primary_relation(&db, &d, &AccessionRules::strict());
    assert_eq!(pr.unambiguous_primary(), Some("sg_bioentry"));
}

#[test]
fn scop_structure_is_recovered_without_false_positives() {
    let db = generate_scop(&ScopConfig::tiny());
    let d = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("discovery");
    let eval = evaluate_foreign_keys(&db, &d);
    assert!(eval.missed_other.is_empty());
    assert!(eval.missed_empty.is_empty());
    assert_eq!(eval.unexplained().len(), 0, "{:?}", eval.unexplained());
}

fn pdb() -> spider_ind::storage::Database {
    generate_pdb(&OpenMmsConfig {
        tables: 14,
        entries: 80,
        base_rows: 80,
        payload_columns: 8,
        strict_code_tables: 3,
        soft_code_tables: 3,
        seed: 42,
    })
}

#[test]
fn pdb_inds_are_dominated_by_surrogate_ranges() {
    // "There are INDs between almost all of these ID attributes, leading to
    // the observed 30,000 satisfied INDs" — and the proposed range filter
    // flags them.
    let db = pdb();
    let d = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("discovery");
    assert!(d.ind_count() > 100, "surrogate blow-up expected");
    let (kept, filtered) = filter_surrogate_inds(&db, &d);
    assert!(
        filtered.len() * 10 > d.ind_count() * 9,
        "at least 90% of PDB INDs are surrogate coincidences ({} of {})",
        filtered.len(),
        d.ind_count()
    );
    assert!(kept.len() < 20, "few plausible FK guesses remain");
}

#[test]
fn pdb_accession_candidates_match_strict_and_softened_counts() {
    // "we find nine accession number candidates, and 19 … when softening";
    // the tiny fixture scales to 3 entry + 3 strict-code = 6 strict and
    // +3 softened.
    let db = pdb();
    let strict = find_accession_candidates(&db, &AccessionRules::strict());
    let softened = find_accession_candidates(&db, &AccessionRules::softened(0.97));
    assert_eq!(strict.len(), 6);
    assert_eq!(softened.len(), 9);
    // Softened is a superset of strict.
    for qn in &strict {
        assert!(softened.contains(qn), "{qn} missing from softened set");
    }
}

#[test]
fn pdb_primary_relation_is_the_three_way_entry_tie() {
    // "Heuristic 2 leads to three primary relation candidates (exptl,
    // struct, struct_keywords). Of these, struct is the correct solution."
    let db = pdb();
    let d = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("discovery");
    let pr = identify_primary_relation(&db, &d, &AccessionRules::strict());
    assert_eq!(
        pr.primary_candidates,
        vec!["exptl", "struct", "struct_keywords"]
    );
    assert!(pr.unambiguous_primary().is_none());
}

#[test]
fn max_value_pretest_prunes_without_changing_results() {
    // Sec. 4.1: candidate reduction with identical output.
    for db in [
        generate_uniprot(&BiosqlConfig::tiny()),
        generate_scop(&ScopConfig::tiny()),
        pdb(),
    ] {
        let base = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .expect("base");
        let config = spider_ind::core::FinderConfig {
            pretests: PretestConfig::with_max_value(),
            ..Default::default()
        };
        let pruned = IndFinder::new(config)
            .run(&db, &Backend::memory(), 1)
            .expect("pruned");
        assert_eq!(base.satisfied, pruned.satisfied, "{}", db.name());
        assert!(
            pruned.metrics.pruned_max_value > 0 || db.name() == "scop",
            "{}: the pretest should prune something",
            db.name()
        );
        assert!(pruned.metrics.candidates() <= base.metrics.candidates());
    }
}

#[test]
fn candidate_counts_sit_in_the_papers_regime() {
    // Table 1 regime check at full harness scale is `ind-bench`'s `table1`
    // report; here we assert the orders of magnitude at test scale.
    let db = generate_uniprot(&BiosqlConfig::default());
    let d = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("uniprot");
    assert!(
        (500..3000).contains(&(d.metrics.candidates() as usize)),
        "uniprot candidates {} (paper: 910)",
        d.metrics.candidates()
    );
    assert!(
        (20..60).contains(&d.ind_count()),
        "uniprot satisfied {} (paper: 36)",
        d.ind_count()
    );

    let scop = generate_scop(&ScopConfig::default());
    let ds = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&scop, &Backend::memory(), 1)
        .expect("scop");
    assert!(
        (40..300).contains(&(ds.metrics.candidates() as usize)),
        "scop candidates {} (paper: 43)",
        ds.metrics.candidates()
    );
    assert!(
        (5..30).contains(&ds.ind_count()),
        "scop satisfied {} (paper: 11)",
        ds.ind_count()
    );
}
