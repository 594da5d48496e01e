//! Property-based testing against a naive set-containment oracle.
//!
//! Random databases (small value pools force duplicates, inclusions,
//! nulls, empty columns) are run through every algorithm; each must return
//! exactly the oracle's answer, and every pruning option must leave the
//! result unchanged.

use ind_testkit::TempDir;
use proptest::prelude::*;
use spider_ind::core::{
    generate_candidates, memory_export, profile_database, profiles_from_export, run_brute_force,
    run_single_pass, run_spider, Algorithm, AttributeProfile, Backend, Candidate, FinderConfig,
    IndFinder, PretestConfig, RunMetrics,
};
use spider_ind::sql::{run_sql_discovery, SqlApproach};
use spider_ind::storage::{
    ColumnSchema, DataType, Database, QualifiedName, Table, TableSchema, Value,
};
use spider_ind::valueset::{
    ExportOptions, ExportedDatabase, MemoryProvider, MemoryValueSet, ValueSetProvider,
};
use std::collections::{BTreeSet, HashSet};

/// Cell model: None = NULL, Some(n) drawn from a tiny pool so inclusions
/// and duplicates happen constantly.
type CellModel = Option<u8>;
/// Column model: text flag + cells.
type ColumnModel = (bool, Vec<CellModel>);

fn arb_column(rows: usize) -> impl Strategy<Value = ColumnModel> {
    (
        any::<bool>(),
        proptest::collection::vec(proptest::option::of(0u8..8), rows),
    )
}

fn arb_table(idx: usize) -> impl Strategy<Value = Vec<ColumnModel>> {
    (0usize..20).prop_flat_map(move |rows| {
        proptest::collection::vec(arb_column(rows), 1..4).prop_map(move |cols| {
            let _ = idx;
            cols
        })
    })
}

fn arb_database() -> impl Strategy<Value = Database> {
    proptest::collection::vec(arb_table(0), 1..4).prop_map(|tables| {
        let mut db = Database::new("prop");
        for (ti, cols) in tables.into_iter().enumerate() {
            let schema = TableSchema::new(
                format!("t{ti}"),
                cols.iter()
                    .enumerate()
                    .map(|(ci, (is_text, _))| {
                        ColumnSchema::new(
                            format!("c{ci}"),
                            if *is_text {
                                DataType::Text
                            } else {
                                DataType::Integer
                            },
                        )
                    })
                    .collect(),
            )
            .expect("schema");
            let mut table = Table::new(schema);
            let rows = cols.first().map_or(0, |(_, cells)| cells.len());
            for r in 0..rows {
                let row: Vec<Value> = cols
                    .iter()
                    .map(|(is_text, cells)| match cells[r] {
                        None => Value::Null,
                        Some(n) if *is_text => Value::Text(format!("v{n}")),
                        Some(n) => Value::Integer(i64::from(n)),
                    })
                    .collect();
                table.insert(row).expect("row");
            }
            db.add_table(table).expect("table");
        }
        db
    })
}

/// Naive oracle: set containment over canonical byte sets, on exactly the
/// eligible (dependent, referenced) pairs.
fn oracle(db: &Database) -> BTreeSet<(QualifiedName, QualifiedName)> {
    let profiles = profile_database(db);
    let sets: Vec<HashSet<Vec<u8>>> = db
        .tables()
        .iter()
        .flat_map(|t| {
            t.iter_columns().map(|(_, _, col)| {
                col.iter()
                    .filter(|v| !v.is_null())
                    .map(Value::canonical_bytes)
                    .collect::<HashSet<_>>()
            })
        })
        .collect();
    let mut out = BTreeSet::new();
    for dep in &profiles {
        if !dep.is_dependent_candidate() {
            continue;
        }
        for refd in &profiles {
            if dep.id == refd.id || !refd.is_referenced_candidate() {
                continue;
            }
            if sets[dep.id as usize].is_subset(&sets[refd.id as usize]) {
                out.insert((dep.name.clone(), refd.name.clone()));
            }
        }
    }
    out
}

/// A database of planted twins: every column copies one of a few base
/// value sets, into one of up to three tables, with its own row
/// multiplicity, NULL count, row order and type. Integers and text both
/// render a value as its decimal digits, so an integer column and a text
/// column of one base hold equal bytes under different types. Every base
/// holds the digits 0 and 9 around a few others, so two bases of one size
/// share their profile key and byte size but not always their values.
fn arb_twin_database() -> impl Strategy<Value = Database> {
    let base = proptest::collection::vec(1u8..9, 0..4);
    let column = (
        (0usize..3, any::<usize>(), any::<bool>()),
        (1usize..4, 0usize..3, any::<usize>()),
    );
    (
        proptest::collection::vec(base, 1..4),
        proptest::collection::vec(column, 2..9),
    )
        .prop_map(|(bases, columns)| {
            let mut db = Database::new("twins");
            for table in 0..3 {
                // (type, cells) of this table's columns; NULLs pad them to
                // the longest.
                let mut cols: Vec<(DataType, Vec<Value>)> = Vec::new();
                for &((t, base, is_text), (copies, nulls, shift)) in &columns {
                    if t != table {
                        continue;
                    }
                    let render = |n: u8| {
                        if is_text {
                            Value::Text(n.to_string())
                        } else {
                            Value::Integer(i64::from(n))
                        }
                    };
                    let values: BTreeSet<u8> = bases[base % bases.len()]
                        .iter()
                        .copied()
                        .chain([0, 9])
                        .collect();
                    let mut cells: Vec<Value> = values
                        .iter()
                        .flat_map(|&n| std::iter::repeat_n(render(n), copies))
                        .chain(std::iter::repeat_n(Value::Null, nulls))
                        .collect();
                    if !cells.is_empty() {
                        let by = shift % cells.len();
                        cells.rotate_left(by);
                    }
                    let data_type = if is_text {
                        DataType::Text
                    } else {
                        DataType::Integer
                    };
                    cols.push((data_type, cells));
                }
                if cols.is_empty() {
                    continue;
                }
                let rows = cols.iter().map(|(_, cells)| cells.len()).max().unwrap_or(0);
                let schema = TableSchema::new(
                    format!("t{table}"),
                    cols.iter()
                        .enumerate()
                        .map(|(ci, (data_type, _))| ColumnSchema::new(format!("c{ci}"), *data_type))
                        .collect(),
                )
                .expect("schema");
                let mut t = Table::new(schema);
                for r in 0..rows {
                    let row = cols
                        .iter()
                        .map(|(_, cells)| cells.get(r).cloned().unwrap_or(Value::Null))
                        .collect();
                    t.insert(row).expect("row");
                }
                db.add_table(t).expect("table");
            }
            db
        })
}

/// Brute force over every candidate the generator emits, sorted: the
/// answer without equal-set classes.
fn brute_force_over_all_candidates<P: ValueSetProvider>(
    profiles: &[AttributeProfile],
    provider: &P,
) -> Vec<Candidate> {
    let mut metrics = RunMetrics::new();
    let candidates = generate_candidates(profiles, &PretestConfig::default(), &mut metrics);
    let mut satisfied = run_brute_force(provider, &candidates, &mut metrics).expect("brute force");
    satisfied.sort();
    satisfied
}

const ALL_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::BruteForce,
    Algorithm::BruteForceParallel { threads: 3 },
    Algorithm::SinglePass,
    Algorithm::Spider,
    Algorithm::Blockwise { max_open_files: 2 },
];

fn named(d: &spider_ind::core::Discovery) -> BTreeSet<(QualifiedName, QualifiedName)> {
    d.satisfied_named().into_iter().collect()
}

// ---------------------------------------------------------------------------
// Engine-level adversarial value shapes
// ---------------------------------------------------------------------------

/// Value pool engineered against the merge engine: the empty value, a 1 KB
/// shared prefix family (including the bare prefix, so prefix-of-another-
/// value ordering is exercised), and short values that interleave with it.
fn adversarial_pool() -> Vec<Vec<u8>> {
    let prefix = vec![b'p'; 1024];
    let mut pool = vec![
        Vec::new(), // the empty byte string
        b"a".to_vec(),
        b"b".to_vec(),
        b"q".to_vec(),
        prefix.clone(),
    ];
    for suffix in 0..5u8 {
        pool.push([prefix.clone(), vec![b'a' + suffix]].concat());
    }
    pool
}

/// A set of attributes drawn from the pool: each column is a multiset of
/// pool indices (`from_unsorted` sorts and dedups). Index vectors of length
/// 0 give empty columns; length-1 (and all-duplicate) vectors give the
/// all-equal-column shape.
fn arb_adversarial_sets() -> impl Strategy<Value = Vec<MemoryValueSet>> {
    let pool_len = adversarial_pool().len();
    proptest::collection::vec(proptest::collection::vec(0usize..pool_len, 0..8), 2..6).prop_map(
        move |columns| {
            let pool = adversarial_pool();
            columns
                .into_iter()
                .map(|idx| MemoryValueSet::from_unsorted(idx.into_iter().map(|i| pool[i].clone())))
                .collect()
        },
    )
}

fn engine_all_pairs(n: u32) -> Vec<Candidate> {
    let mut out = Vec::new();
    for d in 0..n {
        for r in 0..n {
            if d != r {
                out.push(Candidate::new(d, r));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_algorithm_matches_the_oracle(db in arb_database()) {
        let expected = oracle(&db);
        for algorithm in [
            Algorithm::BruteForce,
            Algorithm::SinglePass,
            Algorithm::Spider,
            Algorithm::BruteForceParallel { threads: 3 },
            Algorithm::Blockwise { max_open_files: 2 },
        ] {
            let d = IndFinder::with_algorithm(algorithm.clone())
                .run(&db, &Backend::memory(), 1)
                .expect("discovery");
            prop_assert_eq!(named(&d), expected.clone(), "{:?}", algorithm);
        }
        for approach in SqlApproach::ALL {
            let d = run_sql_discovery(&db, approach, &PretestConfig::default()).expect("sql");
            prop_assert_eq!(named(&d), expected.clone(), "sql {}", approach.name());
        }
    }

    #[test]
    fn pruning_options_never_change_the_result(db in arb_database()) {
        let base = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .expect("base");

        let with_max = FinderConfig {
            pretests: PretestConfig::with_max_value(),
            ..Default::default()
        };
        let d = IndFinder::new(with_max).run(&db, &Backend::memory(), 1).expect("max");
        prop_assert_eq!(named(&d), named(&base));
    }

    #[test]
    fn single_pass_io_never_exceeds_one_read_per_role(db in arb_database()) {
        // Figure 5's bound: the single-pass reads each value at most once
        // per role; brute force can only read more, never less, per test.
        let d = IndFinder::with_algorithm(Algorithm::SinglePass)
            .run(&db, &Backend::memory(), 1)
            .expect("single-pass");
        let profiles = profile_database(&db);
        let total: u64 = profiles.iter().map(|p| p.distinct).sum();
        prop_assert!(d.metrics.items_read <= 2 * total,
            "read {} of 2x{} values", d.metrics.items_read, total);
    }

    #[test]
    fn spider_engine_survives_adversarial_value_shapes(sets in arb_adversarial_sets()) {
        // Empty values, 1 KB shared prefixes, empty columns, all-equal
        // columns — run at the engine layer (no Database round-trip, so the
        // raw byte shapes reach the merge loop unmodified). Every engine
        // must return the brute-force answer byte-identically, on both the
        // all-pairs candidate set and a single-attribute candidate list,
        // and two identical runs must report identical I/O counters.
        let n = sets.len() as u32;
        let provider = MemoryProvider::new(sets.clone());
        let total: u64 = sets.iter().map(MemoryValueSet::len).sum();
        let single = vec![Candidate::new(0, 1)];
        for candidates in [engine_all_pairs(n), single] {
            let mut m_bf = RunMetrics::new();
            let mut oracle = run_brute_force(&provider, &candidates, &mut m_bf)
                .expect("brute force");
            oracle.sort();
            let mut m_sp = RunMetrics::new();
            let sp = run_single_pass(&provider, &candidates, &mut m_sp)
                .expect("single pass");
            prop_assert_eq!(&sp, &oracle);
            let mut m1 = RunMetrics::new();
            let spider = run_spider(&provider, &candidates, &mut m1).expect("spider");
            prop_assert_eq!(&spider, &oracle);
            prop_assert!(m1.items_read <= total, "spider read {} of {}", m1.items_read, total);
            // Determinism: identical inputs, identical I/O counters.
            let mut m2 = RunMetrics::new();
            let again = run_spider(&provider, &candidates, &mut m2).expect("spider again");
            prop_assert_eq!(&again, &oracle);
            prop_assert_eq!(m1.items_read, m2.items_read);
            prop_assert_eq!(m1.value_bytes_read, m2.value_bytes_read);
            prop_assert_eq!(m1.comparisons, m2.comparisons);
        }
    }

    #[test]
    fn equal_set_classes_never_change_the_answer(db in arb_twin_database()) {
        // The finder tests one representative per class of equal value
        // sets; brute force over the full candidate list never classes
        // anything. In memory and on disk, every algorithm must agree with
        // it exactly, and the satisfied counter must count the full list.
        let (profiles, provider) = memory_export(&db);
        let expected = brute_force_over_all_candidates(&profiles, &provider);
        let dir = TempDir::new("prop-twins");
        let export = ExportedDatabase::export(&db, dir.path(), &ExportOptions::default())
            .expect("export");
        let disk_profiles = profiles_from_export(&export);
        prop_assert_eq!(&brute_force_over_all_candidates(&disk_profiles, &export), &expected);
        for algorithm in ALL_ALGORITHMS {
            let finder = IndFinder::with_algorithm(algorithm.clone());
            let memory = finder.discover(&profiles, &provider).expect("in memory");
            prop_assert_eq!(&memory.satisfied, &expected, "{:?} in memory", algorithm);
            prop_assert_eq!(memory.metrics.satisfied, expected.len() as u64);
            let disk = finder.discover(&disk_profiles, &export).expect("on disk");
            prop_assert_eq!(&disk.satisfied, &expected, "{:?} on disk", algorithm);
            prop_assert_eq!(disk.metrics.class_compares, memory.metrics.class_compares);
            prop_assert_eq!(disk.metrics.value_set_classes, memory.metrics.value_set_classes);
        }
    }

    #[test]
    fn transitive_closure_of_found_inds_is_consistent(db in arb_database()) {
        // INDs are transitively closed as a *semantic* relation: if A ⊆ B
        // and B ⊆ C were discovered, A ⊆ C must have been discovered too
        // (whenever it was an eligible candidate).
        let d = IndFinder::with_algorithm(Algorithm::BruteForce)
            .run(&db, &Backend::memory(), 1)
            .expect("discovery");
        let found: HashSet<(u32, u32)> =
            d.satisfied.iter().map(|c| (c.dep, c.refd)).collect();
        let profiles = profile_database(&db);
        for &(a, b) in &found {
            for &(b2, c) in &found {
                if b == b2 && a != c
                    && profiles[a as usize].is_dependent_candidate()
                    && profiles[c as usize].is_referenced_candidate()
                {
                    prop_assert!(
                        found.contains(&(a, c)),
                        "missing transitive IND {} ⊆ {}",
                        profiles[a as usize].name,
                        profiles[c as usize].name
                    );
                }
            }
        }
    }
}
