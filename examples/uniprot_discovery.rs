//! The paper's Section 5 walk-through on the UniProt-shaped database:
//! discover INDs, evaluate them against the gold-standard BioSQL foreign
//! keys, find accession-number candidates, and identify the primary
//! relation.
//!
//! ```sh
//! cargo run --release --example uniprot_discovery
//! ```

use spider_ind::core::{Algorithm, Backend, IndFinder};
use spider_ind::datagen::{generate_uniprot, BiosqlConfig};
use spider_ind::discovery::{
    evaluate_foreign_keys, find_accession_candidates, identify_primary_relation, AccessionRules,
};

fn main() {
    let db = generate_uniprot(&BiosqlConfig::default());
    println!(
        "UniProt-shaped database: {} tables, {} attributes, {} rows, {} declared FKs\n",
        db.table_count(),
        db.attribute_count(),
        db.total_rows(),
        db.gold_foreign_keys().len()
    );

    let discovery = IndFinder::with_algorithm(Algorithm::Spider)
        .run(&db, &Backend::memory(), 1)
        .expect("discovery");
    println!(
        "discovered {} satisfied INDs from {} candidates in {:?}\n",
        discovery.ind_count(),
        discovery.metrics.candidates(),
        discovery.metrics.elapsed
    );

    // Compare against the gold standard — the discovery itself never looks
    // at the declared foreign keys.
    let eval = evaluate_foreign_keys(&db, &discovery);
    println!("gold-standard evaluation (paper: all FKs found except two on empty tables):");
    println!("  declared FKs discovered:  {}", eval.found.len());
    println!(
        "  missed (empty tables):    {} {:?}",
        eval.missed_empty.len(),
        eval.missed_empty
            .iter()
            .map(|(d, _)| d.to_string())
            .collect::<Vec<_>>()
    );
    println!("  missed otherwise:         {}", eval.missed_other.len());
    println!(
        "  extra INDs in closure:    {} (paper found 11 such INDs)",
        eval.closure_extras()
    );
    println!(
        "  unexplained false positives: {} (paper: none)\n",
        eval.unexplained().len()
    );

    let rules = AccessionRules::strict();
    let accessions = find_accession_candidates(&db, &rules);
    println!(
        "accession-number candidates (paper: sg_bioentry.accession, sg_reference.crc, sg_ontology.name):"
    );
    for a in &accessions {
        println!("  {a}");
    }

    let primary = identify_primary_relation(&db, &discovery, &rules);
    println!("\nprimary-relation ranking (heuristic 2):");
    for (table, inbound) in &primary.ranking {
        println!("  {table:<16} referenced by {inbound} IND(s)");
    }
    match primary.unambiguous_primary() {
        Some(t) => println!("\nprimary relation: {t} (paper: sg_bioentry, unambiguous)"),
        None => println!("\nprimary relation tied: {:?}", primary.primary_candidates),
    }
}
