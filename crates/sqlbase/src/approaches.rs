//! The three in-database discovery approaches (Sec. 2), end to end.
//!
//! Candidate generation and the cardinality pretest are shared with the
//! external algorithms ("The first phase is a pretest on the cardinality
//! … The second phase executes an SQL statement to verify the IND
//! candidates"); only the verification differs. One statement runs per
//! candidate — the engine re-scans (row-store) and, for `minus`, re-sorts
//! the tables every time, which is precisely why these approaches lose.

use crate::engine::{join_match_count, minus_unmatched, not_in_unmatched};
use ind_core::{
    generate_candidates, profile_database, Candidate, Discovery, PretestConfig, RunMetrics,
};
use ind_storage::{Database, Result, StorageError, Table};
use std::time::Instant;

/// The SQL statement variant used for verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlApproach {
    /// Figure 2: join + count comparison. The fastest of the three thanks
    /// to the RDBMS's heavily optimized hash join.
    Join,
    /// Figure 3: MINUS wrapped in `rownum < 2`.
    Minus,
    /// Figure 4: NOT IN wrapped in `rownum < 2`. Slowest by far.
    NotIn,
}

impl SqlApproach {
    /// All three variants, in the paper's presentation order.
    pub const ALL: [SqlApproach; 3] = [SqlApproach::Join, SqlApproach::Minus, SqlApproach::NotIn];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SqlApproach::Join => "join",
            SqlApproach::Minus => "minus",
            SqlApproach::NotIn => "not in",
        }
    }
}

/// Verifies one IND candidate with the chosen statement. `dep`/`refd`
/// address `(table, column index)` pairs in the row-store.
pub fn verify_candidate(
    dep: (&Table, usize),
    refd: (&Table, usize),
    approach: SqlApproach,
    metrics: &mut RunMetrics,
) -> bool {
    match approach {
        SqlApproach::Join => {
            let (matched, non_null) = join_match_count(dep.0, dep.1, refd.0, refd.1, metrics);
            matched == non_null
        }
        SqlApproach::Minus => minus_unmatched(dep.0, dep.1, refd.0, refd.1, metrics) == 0,
        SqlApproach::NotIn => not_in_unmatched(dep.0, dep.1, refd.0, refd.1, metrics) == 0,
    }
}

/// Resolves a qualified attribute to `(table, column index)`.
pub fn resolve<'a>(
    db: &'a Database,
    name: &ind_storage::QualifiedName,
) -> Result<(&'a Table, usize)> {
    let table = db.table(&name.table)?;
    let col =
        table
            .schema()
            .column_index(&name.column)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: name.table.clone(),
                column: name.column.clone(),
            })?;
    Ok((table, col))
}

/// Runs the full in-database discovery: profile, generate candidates
/// (with `pretests`), then verify each candidate with `approach`.
pub fn run_sql_discovery(
    db: &Database,
    approach: SqlApproach,
    pretests: &PretestConfig,
) -> Result<Discovery> {
    let start = Instant::now();
    let mut metrics = RunMetrics::new();
    let profiles = profile_database(db);
    let candidates = generate_candidates(&profiles, pretests, &mut metrics);

    let mut satisfied: Vec<Candidate> = Vec::new();
    for c in &candidates {
        let dep = resolve(db, &profiles[c.dep as usize].name)?;
        let refd = resolve(db, &profiles[c.refd as usize].name)?;
        metrics.tested += 1;
        if verify_candidate(dep, refd, approach, &mut metrics) {
            satisfied.push(*c);
            metrics.satisfied += 1;
        }
    }
    satisfied.sort();
    metrics.elapsed = start.elapsed();
    Ok(Discovery {
        profiles,
        satisfied,
        metrics,
        ..Discovery::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_core::{Algorithm, Backend, IndFinder};
    use ind_storage::{ColumnSchema, DataType, TableSchema, Value};

    fn sample_db() -> Database {
        let mut db = Database::new("sql");
        let mut parent = Table::new(
            TableSchema::new(
                "parent",
                vec![
                    ColumnSchema::new("id", DataType::Integer)
                        .not_null()
                        .unique(),
                    ColumnSchema::new("name", DataType::Text),
                ],
            )
            .unwrap(),
        );
        for i in 0..25i64 {
            parent
                .insert(vec![i.into(), format!("name-{i}").into()])
                .unwrap();
        }
        let mut child = Table::new(
            TableSchema::new(
                "child",
                vec![
                    ColumnSchema::new("id", DataType::Integer)
                        .not_null()
                        .unique(),
                    ColumnSchema::new("parent_id", DataType::Integer),
                    ColumnSchema::new("note", DataType::Text),
                ],
            )
            .unwrap(),
        );
        for i in 0..50i64 {
            child
                .insert(vec![
                    (500 + i).into(),
                    (i % 25).into(),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        format!("note-{i}").into()
                    },
                ])
                .unwrap();
        }
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        db
    }

    #[test]
    fn all_approaches_find_the_same_inds() {
        let db = sample_db();
        let mut results = Vec::new();
        for approach in SqlApproach::ALL {
            let d = run_sql_discovery(&db, approach, &PretestConfig::default()).unwrap();
            results.push((approach, d));
        }
        for window in results.windows(2) {
            assert_eq!(
                window[0].1.satisfied, window[1].1.satisfied,
                "{:?} vs {:?}",
                window[0].0, window[1].0
            );
        }
    }

    #[test]
    fn sql_matches_external_algorithms() {
        let db = sample_db();
        let sql = run_sql_discovery(&db, SqlApproach::Join, &PretestConfig::default()).unwrap();
        let external = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .unwrap();
        assert_eq!(sql.satisfied, external.satisfied);
        assert_eq!(
            sql.metrics.candidates(),
            external.metrics.candidates(),
            "identical candidate generation"
        );
    }

    #[test]
    fn work_ordering_matches_the_paper() {
        // Table 1's ordering: join does the least work, not in by far the
        // most. (items_read counts cells/tuples processed.)
        let db = sample_db();
        let join = run_sql_discovery(&db, SqlApproach::Join, &PretestConfig::default()).unwrap();
        let minus = run_sql_discovery(&db, SqlApproach::Minus, &PretestConfig::default()).unwrap();
        let not_in = run_sql_discovery(&db, SqlApproach::NotIn, &PretestConfig::default()).unwrap();
        assert!(join.metrics.comparisons <= minus.metrics.comparisons);
        assert!(
            not_in.metrics.items_read > minus.metrics.items_read,
            "not in ({}) must out-work minus ({})",
            not_in.metrics.items_read,
            minus.metrics.items_read
        );
        assert!(not_in.metrics.items_read > 2 * join.metrics.items_read);
    }

    #[test]
    fn sql_does_more_work_per_candidate_than_the_external_test() {
        // The crux of the paper: the row-store engine touches every cell of
        // both tables per candidate, while the external algorithms read
        // sorted distinct sets with early termination.
        let db = sample_db();
        let sql = run_sql_discovery(&db, SqlApproach::Join, &PretestConfig::default()).unwrap();
        let external = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .unwrap();
        assert!(
            sql.metrics.items_read > 3 * external.metrics.items_read,
            "sql {} vs external {}",
            sql.metrics.items_read,
            external.metrics.items_read
        );
    }

    #[test]
    fn verify_candidate_respects_duplicates_and_nulls() {
        let mut dep_t = Table::new(
            TableSchema::new("d", vec![ColumnSchema::new("v", DataType::Integer)]).unwrap(),
        );
        for v in [Some(1), Some(1), None, Some(2)] {
            dep_t
                .insert(vec![v.map_or(Value::Null, Value::Integer)])
                .unwrap();
        }
        let mut ref_t = Table::new(
            TableSchema::new("r", vec![ColumnSchema::new("v", DataType::Integer)]).unwrap(),
        );
        for v in [1i64, 2, 3] {
            ref_t.insert(vec![v.into()]).unwrap();
        }
        for approach in SqlApproach::ALL {
            let mut m = RunMetrics::new();
            assert!(
                verify_candidate((&dep_t, 0), (&ref_t, 0), approach, &mut m),
                "{approach:?}"
            );
        }
        let mut bad = Table::new(
            TableSchema::new("b", vec![ColumnSchema::new("v", DataType::Integer)]).unwrap(),
        );
        bad.insert(vec![1.into()]).unwrap();
        bad.insert(vec![99.into()]).unwrap();
        for approach in SqlApproach::ALL {
            let mut m = RunMetrics::new();
            assert!(
                !verify_candidate((&bad, 0), (&ref_t, 0), approach, &mut m),
                "{approach:?}"
            );
        }
    }

    #[test]
    fn approach_names_match_table_rows() {
        assert_eq!(SqlApproach::Join.name(), "join");
        assert_eq!(SqlApproach::Minus.name(), "minus");
        assert_eq!(SqlApproach::NotIn.name(), "not in");
    }
}
