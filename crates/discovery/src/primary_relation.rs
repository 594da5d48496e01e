//! Primary-relation identification (Sec. 5, heuristic 2).
//!
//! "In the life science domain databases typically contain one major class
//! of data with several annotations" — the primary relation. Heuristic 1
//! narrows the field to relations containing an accession-number candidate;
//! heuristic 2 then picks the relation whose attributes are referenced by
//! the most satisfied INDs.

use crate::accession::{find_accession_candidates, AccessionRules};
use ind_core::Discovery;
use ind_storage::{Database, QualifiedName};
use std::collections::BTreeMap;

/// The outcome of the primary-relation heuristics on one database.
#[derive(Debug, Clone)]
pub struct PrimaryRelationReport {
    /// Accession-number candidates found under the supplied rules
    /// (heuristic 1).
    pub accession_candidates: Vec<QualifiedName>,
    /// Tables holding at least one accession candidate, with the number of
    /// satisfied INDs referencing any of their attributes, descending
    /// (heuristic 2).
    pub ranking: Vec<(String, usize)>,
    /// All tables tied at the maximal count — the paper reports ties
    /// (three candidates for PDB) rather than forcing a single winner.
    pub primary_candidates: Vec<String>,
}

impl PrimaryRelationReport {
    /// The unambiguous winner, when exactly one table tops the ranking.
    pub fn unambiguous_primary(&self) -> Option<&str> {
        match self.primary_candidates.as_slice() {
            [single] => Some(single),
            _ => None,
        }
    }
}

/// Applies heuristics 1 and 2.
pub fn identify_primary_relation(
    db: &Database,
    discovery: &Discovery,
    rules: &AccessionRules,
) -> PrimaryRelationReport {
    let accession_candidates = find_accession_candidates(db, rules);

    // Heuristic 1: tables owning at least one accession candidate.
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for qn in &accession_candidates {
        counts.entry(qn.table.clone()).or_insert(0);
    }

    // Heuristic 2: count satisfied INDs referencing any attribute of each
    // candidate table.
    for ind in &discovery.satisfied {
        let ref_table = &discovery.profiles[ind.refd as usize].name.table;
        if let Some(n) = counts.get_mut(ref_table) {
            *n += 1;
        }
    }

    let mut ranking: Vec<(String, usize)> = counts.into_iter().collect();
    ranking.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let max = ranking.first().map_or(0, |(_, n)| *n);
    let primary_candidates = ranking
        .iter()
        .filter(|(_, n)| *n == max && max > 0)
        .map(|(t, _)| t.clone())
        .collect();

    PrimaryRelationReport {
        accession_candidates,
        ranking,
        primary_candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_core::{Algorithm, Backend, IndFinder};
    use ind_storage::{ColumnSchema, DataType, Table, TableSchema, Value};

    /// main(acc unique, referenced by two tables) and side(code, referenced
    /// by none): heuristic 2 must pick `main`.
    fn db() -> Database {
        let mut db = Database::new("primary");
        let mut main = Table::new(
            TableSchema::new(
                "main",
                vec![
                    ColumnSchema::new("id", DataType::Integer)
                        .not_null()
                        .unique(),
                    ColumnSchema::new("acc", DataType::Text).not_null().unique(),
                ],
            )
            .unwrap(),
        );
        for i in 0..30i64 {
            main.insert(vec![(1000 + i).into(), format!("AC{:04}", i).into()])
                .unwrap();
        }
        db.add_table(main).unwrap();

        for (name, rows) in [("annot_a", 50i64), ("annot_b", 40i64)] {
            let mut t = Table::new(
                TableSchema::new(
                    name,
                    vec![
                        ColumnSchema::new("main_id", DataType::Integer),
                        ColumnSchema::new("note", DataType::Text),
                    ],
                )
                .unwrap(),
            );
            for i in 0..rows {
                // Note lengths vary wildly so the column never passes the
                // accession spread rule.
                let note = format!("note {} {}", i, "pad".repeat(i as usize % 5));
                t.insert(vec![(1000 + i % 30).into(), Value::Text(note)])
                    .unwrap();
            }
            db.add_table(t).unwrap();
        }

        // A table with an accession-like column but no inbound INDs.
        let mut side = Table::new(
            TableSchema::new(
                "side",
                vec![ColumnSchema::new("code", DataType::Text)
                    .not_null()
                    .unique()],
            )
            .unwrap(),
        );
        for i in 0..10i64 {
            side.insert(vec![format!("ZZ{:04}", i).into()]).unwrap();
        }
        db.add_table(side).unwrap();
        db
    }

    fn report() -> PrimaryRelationReport {
        let db = db();
        let discovery = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .unwrap();
        identify_primary_relation(&db, &discovery, &AccessionRules::strict())
    }

    #[test]
    fn accession_candidates_are_found() {
        let r = report();
        let names: Vec<String> = r
            .accession_candidates
            .iter()
            .map(QualifiedName::to_string)
            .collect();
        assert!(names.contains(&"main.acc".to_string()));
        assert!(names.contains(&"side.code".to_string()));
        assert!(!names.contains(&"annot_a.note".to_string()), "{names:?}");
    }

    #[test]
    fn heuristic_two_picks_the_referenced_table() {
        let r = report();
        assert_eq!(r.unambiguous_primary(), Some("main"));
        assert_eq!(r.ranking[0].0, "main");
        assert!(r.ranking[0].1 >= 2, "two annotation tables reference main");
    }

    #[test]
    fn ranking_includes_zero_count_candidates() {
        let r = report();
        assert!(r.ranking.iter().any(|(t, n)| t == "side" && *n == 0));
    }

    #[test]
    fn ties_are_reported_as_multiple_candidates() {
        // Two structurally identical relations referenced equally often.
        let mut db = Database::new("tie");
        for name in ["left", "right"] {
            let mut t = Table::new(
                TableSchema::new(
                    name,
                    vec![ColumnSchema::new("acc", DataType::Text).not_null().unique()],
                )
                .unwrap(),
            );
            for i in 0..20i64 {
                t.insert(vec![format!("AB{:04}", i).into()]).unwrap();
            }
            db.add_table(t).unwrap();
        }
        // Equal value sets → INDs both directions → both referenced once.
        let discovery = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .unwrap();
        let r = identify_primary_relation(&db, &discovery, &AccessionRules::strict());
        assert_eq!(r.primary_candidates, vec!["left", "right"]);
        assert!(r.unambiguous_primary().is_none());
    }
}
