//! Foreign-key guessing from satisfied INDs (Sec. 1: INDs "provide an
//! excellent basis for guessing foreign key constraints").
//!
//! Every satisfied IND `dep ⊆ ref` is a guess; the optional surrogate-range
//! filter removes the PDB-style coincidences. Guesses are only ever false
//! positives, never false negatives ("algorithms can produce only false
//! positives, but no false negative foreign key constraints") — which the
//! quality module verifies.

use crate::range_filter::filter_surrogate_inds;
use ind_core::Discovery;
use ind_storage::{Database, QualifiedName};
use std::collections::HashSet;

/// One guessed foreign key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkGuess {
    /// The referring (dependent) attribute.
    pub dep: QualifiedName,
    /// The referenced attribute.
    pub refd: QualifiedName,
    /// True when the surrogate-range heuristic flagged this guess as a
    /// likely coincidence (only set when filtering is requested).
    pub flagged_surrogate: bool,
}

/// Turns every satisfied IND into an FK guess, unfiltered.
pub fn fk_guesses(discovery: &Discovery) -> Vec<FkGuess> {
    discovery
        .satisfied
        .iter()
        .map(|c| FkGuess {
            dep: discovery.profiles[c.dep as usize].name.clone(),
            refd: discovery.profiles[c.refd as usize].name.clone(),
            flagged_surrogate: false,
        })
        .collect()
}

/// FK guesses with surrogate-range coincidences flagged (the paper's
/// proposed false-positive filter).
pub fn fk_guesses_filtered(db: &Database, discovery: &Discovery) -> Vec<FkGuess> {
    let (kept, filtered) = filter_surrogate_inds(db, discovery);
    let mut out = Vec::with_capacity(kept.len() + filtered.len());
    for (candidates, flagged) in [(kept, false), (filtered, true)] {
        for c in candidates {
            out.push(FkGuess {
                dep: discovery.profiles[c.dep as usize].name.clone(),
                refd: discovery.profiles[c.refd as usize].name.clone(),
                flagged_surrogate: flagged,
            });
        }
    }
    out.sort_by(|a, b| (&a.dep, &a.refd).cmp(&(&b.dep, &b.refd)));
    out
}

/// One guessed composite foreign key: a satisfied n-ary IND whose
/// referenced tuple is jointly unique in the data (the composite analogue
/// of the paper's "referenced attributes are unique" rule — enforced here,
/// after validation, rather than during candidate generation, because the
/// levelwise search needs the non-unique-referenced INDs for its
/// projection pruning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositeFkGuess {
    /// The referring (dependent) columns, in key order.
    pub dep: Vec<QualifiedName>,
    /// The referenced columns, aligned with `dep`.
    pub refd: Vec<QualifiedName>,
    /// True when this guess matches a declared gold-standard composite FK.
    pub matches_gold: bool,
}

/// Turns every satisfied composite IND with a jointly-unique referenced
/// tuple into an FK guess, sorted by `(dep, ref)`. A tuple is jointly
/// unique when its distinct count equals the count of rows with every
/// component non-NULL — two numbers the search already profiled
/// ([`Discovery::sequence_profile`]).
pub fn composite_fk_guesses(db: &Database, discovery: &Discovery) -> Vec<CompositeFkGuess> {
    let gold: HashSet<(Vec<QualifiedName>, Vec<QualifiedName>)> =
        db.gold_composite_foreign_keys().into_iter().collect();
    let jointly_unique = |refd: &[u32]| {
        discovery
            .sequence_profile(refd)
            .is_some_and(|p| p.distinct == p.non_null)
    };
    let mut out: Vec<CompositeFkGuess> = discovery
        .composite
        .iter()
        .zip(discovery.composite_named())
        .filter(|(c, _)| jointly_unique(&c.refd))
        .map(|(_, (dep, refd))| {
            let matches_gold = gold.contains(&(dep.clone(), refd.clone()));
            CompositeFkGuess {
                dep,
                refd,
                matches_gold,
            }
        })
        .collect();
    out.sort_by(|a, b| (&a.dep, &a.refd).cmp(&(&b.dep, &b.refd)));
    out
}

/// Evaluation of composite FK guesses against the declared gold standard.
#[derive(Debug, Clone)]
pub struct CompositeFkEvaluation {
    /// Declared composite FKs recovered as guesses.
    pub found: Vec<(Vec<QualifiedName>, Vec<QualifiedName>)>,
    /// Declared composite FKs not recovered.
    pub missed: Vec<(Vec<QualifiedName>, Vec<QualifiedName>)>,
    /// Guesses beyond the gold standard.
    pub extras: Vec<CompositeFkGuess>,
}

/// Evaluates a levelwise discovery run against `db`'s declared composite
/// foreign keys.
pub fn evaluate_composite_foreign_keys(
    db: &Database,
    discovery: &Discovery,
) -> CompositeFkEvaluation {
    let guesses = composite_fk_guesses(db, discovery);
    let guessed: HashSet<(&[QualifiedName], &[QualifiedName])> = guesses
        .iter()
        .map(|g| (g.dep.as_slice(), g.refd.as_slice()))
        .collect();
    let mut found = Vec::new();
    let mut missed = Vec::new();
    for (dep, refd) in db.gold_composite_foreign_keys() {
        if guessed.contains(&(dep.as_slice(), refd.as_slice())) {
            found.push((dep, refd));
        } else {
            missed.push((dep, refd));
        }
    }
    let extras = guesses.into_iter().filter(|g| !g.matches_gold).collect();
    CompositeFkEvaluation {
        found,
        missed,
        extras,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_core::{Algorithm, Backend, IndFinder};
    use ind_storage::{ColumnSchema, DataType, Table, TableSchema};

    fn db() -> Database {
        let mut db = Database::new("fk");
        let mut parent = Table::new(
            TableSchema::new(
                "parent",
                vec![ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique()],
            )
            .unwrap(),
        );
        for i in 100..110i64 {
            parent.insert(vec![i.into()]).unwrap();
        }
        db.add_table(parent).unwrap();
        let mut child = Table::new(
            TableSchema::new(
                "child",
                vec![ColumnSchema::new("parent_id", DataType::Integer)],
            )
            .unwrap(),
        );
        for i in 0..20i64 {
            child.insert(vec![(100 + i % 10).into()]).unwrap();
        }
        db.add_table(child).unwrap();
        // Surrogate pair.
        for (name, n) in [("a", 5i64), ("b", 9i64)] {
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

    #[test]
    fn every_ind_becomes_a_guess() {
        let db = db();
        let d = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .unwrap();
        let guesses = fk_guesses(&d);
        assert_eq!(guesses.len(), d.ind_count());
        assert!(guesses
            .iter()
            .any(|g| g.dep.to_string() == "child.parent_id" && g.refd.to_string() == "parent.id"));
    }

    /// pair_parent(a, b) with jointly-unique pairs whose columns repeat;
    /// pair_child(x, y) drawing its pairs from the parent; loose(u, v)
    /// whose pairs are a *non-unique* tuple drawn from the parent too.
    fn composite_db() -> Database {
        let mut db = Database::new("composite-fk");
        let mut parent = Table::new(
            TableSchema::new(
                "pair_parent",
                vec![
                    ColumnSchema::new("a", DataType::Integer),
                    ColumnSchema::new("b", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        for i in 0..12i64 {
            parent
                .insert(vec![(i % 4).into(), (100 + i % 3).into()])
                .unwrap();
        }
        // distinct pairs: (i%4, 100 + i%3) over i in 0..12 = 12 pairs.
        let mut child_schema = TableSchema::new(
            "pair_child",
            vec![
                ColumnSchema::new("x", DataType::Integer),
                ColumnSchema::new("y", DataType::Integer),
            ],
        )
        .unwrap();
        child_schema
            .add_composite_foreign_key(["x", "y"], "pair_parent", ["a", "b"])
            .unwrap();
        let mut child = Table::new(child_schema);
        for i in 0..6i64 {
            child
                .insert(vec![(i % 3).into(), (100 + i % 3).into()])
                .unwrap();
        }
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        db
    }

    #[test]
    fn composite_guesses_recover_the_declared_key() {
        let db = composite_db();
        let d = IndFinder::with_algorithm(Algorithm::Spider)
            .run(&db, &Backend::Memory { threads: 1 }, 2)
            .unwrap();
        let guesses = composite_fk_guesses(&db, &d);
        assert!(
            guesses.iter().any(|g| g.matches_gold),
            "declared composite FK must be recovered: {guesses:?}"
        );
        let eval = evaluate_composite_foreign_keys(&db, &d);
        assert_eq!(eval.found.len(), 1);
        assert!(eval.missed.is_empty());
        // The wait-but-is-it-unique rule: parent pairs are jointly unique
        // even though both columns repeat; the guessed referenced side is
        // exactly that tuple.
        assert_eq!(eval.found[0].1[0].to_string(), "pair_parent.a");
    }

    #[test]
    fn non_unique_referenced_tuples_are_not_guessed() {
        let mut db = composite_db();
        // A copy of the child whose own pairs duplicate: INDs into it may
        // be satisfied, but it can never be a key.
        let mut dup = Table::new(
            TableSchema::new(
                "dup_child",
                vec![
                    ColumnSchema::new("x", DataType::Integer),
                    ColumnSchema::new("y", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        for i in 0..6i64 {
            dup.insert(vec![(i % 3).into(), (100 + i % 3).into()])
                .unwrap();
        }
        db.add_table(dup).unwrap();
        let d = IndFinder::with_algorithm(Algorithm::Spider)
            .run(&db, &Backend::Memory { threads: 1 }, 2)
            .unwrap();
        assert!(
            d.composite_named()
                .iter()
                .any(|(_, refd)| refd[0].table == "dup_child"),
            "the IND into the duplicated tuple is satisfied"
        );
        let guesses = composite_fk_guesses(&db, &d);
        assert!(
            guesses.iter().all(|g| g.refd[0].table != "dup_child"),
            "…but never guessed as a foreign key: {guesses:?}"
        );
    }

    #[test]
    fn surrogate_guesses_are_flagged_not_dropped() {
        let db = db();
        let d = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .unwrap();
        let guesses = fk_guesses_filtered(&db, &d);
        assert_eq!(guesses.len(), d.ind_count(), "flagging keeps everything");
        let surrogate = guesses
            .iter()
            .find(|g| g.dep.table == "a" && g.refd.table == "b")
            .expect("a.id ⊆ b.id must be discovered");
        assert!(surrogate.flagged_surrogate);
        let real = guesses
            .iter()
            .find(|g| g.dep.to_string() == "child.parent_id")
            .unwrap();
        assert!(!real.flagged_surrogate);
    }
}
