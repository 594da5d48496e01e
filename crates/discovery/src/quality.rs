//! Evaluation of discovered INDs against a gold standard of foreign keys
//! (Sec. 5).
//!
//! The paper's UniProt findings, which this module makes checkable: "Our
//! algorithm found all defined foreign keys as INDs, with the exception of
//! two foreign keys that are defined on empty tables … Additionally, we
//! found 11 INDs that are in the transitive closure of the foreign key
//! definitions … Finally, no false positives were produced."

use crate::range_filter::numeric_range_profile;
use ind_core::{transitive_closure, Candidate, Discovery};
use ind_storage::{Database, Database as Db, QualifiedName};
use std::collections::{HashMap, HashSet};

/// Classification of a discovered IND that is not itself a declared FK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtraClass {
    /// The reverse of a declared FK whose two sides hold equal value sets
    /// (1:1 relationships).
    EqualityReverse,
    /// Implied by the declared FKs plus the discovered set equalities via
    /// transitivity — the paper's "in the transitive closure" category.
    Closure,
    /// Both sides are dense integer ranges starting at 1 — the PDB
    /// surrogate-key coincidence.
    SurrogateRange,
    /// None of the above: a genuine false positive.
    Unexplained,
}

/// One discovered IND beyond the gold standard, with its classification.
#[derive(Debug, Clone)]
pub struct ExtraInd {
    /// Dependent attribute.
    pub dep: QualifiedName,
    /// Referenced attribute.
    pub refd: QualifiedName,
    /// Why it appeared.
    pub class: ExtraClass,
}

/// Full evaluation of a discovery run against the declared foreign keys.
#[derive(Debug, Clone)]
pub struct FkEvaluation {
    /// Declared FKs discovered as INDs.
    pub found: Vec<(QualifiedName, QualifiedName)>,
    /// Declared FKs not discovered because the dependent column holds no
    /// data (the paper's empty-table exception).
    pub missed_empty: Vec<(QualifiedName, QualifiedName)>,
    /// Declared FKs missed for any other reason (should be empty: set
    /// inclusion is implied by a foreign key).
    pub missed_other: Vec<(QualifiedName, QualifiedName)>,
    /// Discovered INDs beyond the declared FKs, classified.
    pub extras: Vec<ExtraInd>,
}

impl FkEvaluation {
    /// Recall over declared FKs that are discoverable from data.
    pub fn recall_discoverable(&self) -> f64 {
        let discoverable = self.found.len() + self.missed_other.len();
        if discoverable == 0 {
            1.0
        } else {
            self.found.len() as f64 / discoverable as f64
        }
    }

    /// Extras classified as genuine false positives.
    pub fn unexplained(&self) -> Vec<&ExtraInd> {
        self.extras
            .iter()
            .filter(|e| e.class == ExtraClass::Unexplained)
            .collect()
    }

    /// Extras explained by closure / equality (the paper's "11 INDs").
    pub fn closure_extras(&self) -> usize {
        self.extras
            .iter()
            .filter(|e| matches!(e.class, ExtraClass::Closure | ExtraClass::EqualityReverse))
            .count()
    }

    /// Extras flagged as surrogate-range coincidences.
    pub fn surrogate_extras(&self) -> usize {
        self.extras
            .iter()
            .filter(|e| e.class == ExtraClass::SurrogateRange)
            .count()
    }
}

fn attr_ids(discovery: &Discovery) -> HashMap<QualifiedName, u32> {
    discovery
        .profiles
        .iter()
        .map(|p| (p.name.clone(), p.id))
        .collect()
}

/// Evaluates `discovery` (run over `db`) against `db`'s declared FKs.
pub fn evaluate_foreign_keys(db: &Database, discovery: &Discovery) -> FkEvaluation {
    let ids = attr_ids(discovery);
    let discovered: HashSet<Candidate> = discovery.satisfied.iter().copied().collect();

    // Gold standard as candidates over attribute ids.
    let mut gold: Vec<Candidate> = Vec::new();
    let mut gold_named: HashMap<Candidate, (QualifiedName, QualifiedName)> = HashMap::new();
    for (dep, refd) in db.gold_foreign_keys() {
        let (Some(&d), Some(&r)) = (ids.get(&dep), ids.get(&refd)) else {
            continue;
        };
        let c = Candidate::new(d, r);
        gold.push(c);
        gold_named.insert(c, (dep, refd));
    }

    let mut found = Vec::new();
    let mut missed_empty = Vec::new();
    let mut missed_other = Vec::new();
    for c in &gold {
        let (dep, refd) = gold_named[c].clone();
        if discovered.contains(c) {
            found.push((dep, refd));
        } else if discovery.profiles[c.dep as usize].non_null == 0 {
            missed_empty.push((dep, refd));
        } else {
            missed_other.push((dep, refd));
        }
    }

    // Equality reverses: reverse of a gold FK whose sides have equal
    // cardinality (equal sets, given the FK inclusion holds).
    let gold_set: HashSet<Candidate> = gold.iter().copied().collect();
    let mut closure_base = gold.clone();
    for c in &discovered {
        let reverse = Candidate::new(c.refd, c.dep);
        if gold_set.contains(&reverse) {
            closure_base.push(*c);
        }
    }
    let closure = transitive_closure(&closure_base);

    let mut surrogate_cache: HashMap<u32, bool> = HashMap::new();
    let mut is_surrogate = |attr: u32, db: &Db| -> bool {
        *surrogate_cache.entry(attr).or_insert_with(|| {
            db.column(&discovery.profiles[attr as usize].name)
                .ok()
                .and_then(numeric_range_profile)
                .is_some_and(|p| p.is_surrogate())
        })
    };

    let mut extras = Vec::new();
    for c in &discovery.satisfied {
        if gold_set.contains(c) {
            continue;
        }
        let reverse = Candidate::new(c.refd, c.dep);
        let class = if gold_set.contains(&reverse) {
            ExtraClass::EqualityReverse
        } else if closure.contains(c) {
            ExtraClass::Closure
        } else if is_surrogate(c.dep, db) && is_surrogate(c.refd, db) {
            ExtraClass::SurrogateRange
        } else {
            ExtraClass::Unexplained
        };
        extras.push(ExtraInd {
            dep: discovery.profiles[c.dep as usize].name.clone(),
            refd: discovery.profiles[c.refd as usize].name.clone(),
            class,
        });
    }

    FkEvaluation {
        found,
        missed_empty,
        missed_other,
        extras,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_core::{Algorithm, Backend, IndFinder};
    use ind_storage::{ColumnSchema, DataType, Table, TableSchema};

    /// parent ← child (FK), mirror 1:1 of parent, and two surrogate tables.
    fn db() -> Database {
        let mut db = Database::new("quality");
        let mut parent = Table::new(
            TableSchema::new(
                "parent",
                vec![ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique()],
            )
            .unwrap(),
        );
        for i in 100..120i64 {
            parent.insert(vec![i.into()]).unwrap();
        }
        db.add_table(parent).unwrap();

        let mut child_schema = TableSchema::new(
            "child",
            vec![ColumnSchema::new("parent_id", DataType::Integer)],
        )
        .unwrap();
        child_schema
            .add_foreign_key("parent_id", "parent", "id")
            .unwrap();
        let mut child = Table::new(child_schema);
        for i in 0..40i64 {
            child.insert(vec![(100 + i % 20).into()]).unwrap();
        }
        db.add_table(child).unwrap();

        // 1:1 mirror of parent → discovered equality reverse + closure.
        let mut mirror_schema = TableSchema::new(
            "mirror",
            vec![ColumnSchema::new("parent_id", DataType::Integer)
                .not_null()
                .unique()],
        )
        .unwrap();
        mirror_schema
            .add_foreign_key("parent_id", "parent", "id")
            .unwrap();
        let mut mirror = Table::new(mirror_schema);
        for i in 100..120i64 {
            mirror.insert(vec![i.into()]).unwrap();
        }
        db.add_table(mirror).unwrap();

        // Two surrogate tables: 1..10 ⊆ 1..30 with no semantic relation.
        for (name, n) in [("s_small", 10i64), ("s_big", 30i64)] {
            let mut t = Table::new(
                TableSchema::new(
                    name,
                    vec![ColumnSchema::new("id", DataType::Integer)
                        .not_null()
                        .unique()],
                )
                .unwrap(),
            );
            for i in 1..=n {
                t.insert(vec![i.into()]).unwrap();
            }
            db.add_table(t).unwrap();
        }
        db
    }

    fn evaluation() -> FkEvaluation {
        let db = db();
        let discovery = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .unwrap();
        evaluate_foreign_keys(&db, &discovery)
    }

    #[test]
    fn declared_fks_are_found() {
        let eval = evaluation();
        assert_eq!(eval.found.len(), 2, "child→parent and mirror→parent");
        assert!(eval.missed_other.is_empty());
        assert_eq!(eval.recall_discoverable(), 1.0);
    }

    #[test]
    fn equality_reverse_and_closure_are_classified() {
        let eval = evaluation();
        let classes: Vec<ExtraClass> = eval.extras.iter().map(|e| e.class).collect();
        assert!(
            classes.contains(&ExtraClass::EqualityReverse),
            "parent.id ⊆ mirror.parent_id: {classes:?}"
        );
        assert!(
            classes.contains(&ExtraClass::Closure),
            "child.parent_id ⊆ mirror.parent_id: {classes:?}"
        );
    }

    #[test]
    fn surrogate_coincidence_is_classified() {
        let eval = evaluation();
        assert!(
            eval.extras
                .iter()
                .any(|e| e.class == ExtraClass::SurrogateRange
                    && e.dep.table == "s_small"
                    && e.refd.table == "s_big"),
            "{:?}",
            eval.extras
        );
    }

    #[test]
    fn no_unexplained_extras_in_clean_schema() {
        let eval = evaluation();
        assert!(
            eval.unexplained().is_empty(),
            "unexpected false positives: {:?}",
            eval.unexplained()
        );
    }

    #[test]
    fn empty_table_fks_are_reported_separately() {
        let mut db = db();
        let mut empty_schema = TableSchema::new(
            "empty_ref",
            vec![ColumnSchema::new("parent_id", DataType::Integer)],
        )
        .unwrap();
        empty_schema
            .add_foreign_key("parent_id", "parent", "id")
            .unwrap();
        db.add_table(Table::new(empty_schema)).unwrap();

        let discovery = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .unwrap();
        let eval = evaluate_foreign_keys(&db, &discovery);
        assert_eq!(eval.missed_empty.len(), 1);
        assert_eq!(eval.missed_empty[0].0.table, "empty_ref");
        assert!(eval.missed_other.is_empty());
        assert_eq!(eval.recall_discoverable(), 1.0);
    }
}
