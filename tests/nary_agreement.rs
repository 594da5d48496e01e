//! The levelwise n-ary pipeline against a brute-force composite oracle.
//!
//! The oracle enumerates *every* syntactic candidate of arity 1 up to 3 —
//! same-table sorted dependent sequences against same-table referenced
//! permutations, no apriori pruning — and tests tuple inclusion directly
//! on materialised row sets. On NULL-free data (the chains generator and
//! the fixtures here) the levelwise search must return the byte-identical
//! IND set with every engine, in memory and on disk, while generating
//! exactly the candidates whose projections hold — far fewer than the
//! oracle enumerates.

use spider_ind::core::{
    profile_database, Algorithm, AttributeProfile, Backend, Discovery, IndFinder, NaryCandidate,
    NaryLevelStats,
};
use spider_ind::datagen::{generate_chains, ChainsConfig};
use spider_ind::storage::{ColumnSchema, DataType, Database, Table, TableSchema};
use spider_ind::valueset::ExportOptions;
use std::collections::HashSet;

/// Materialises the set of canonical-byte tuples of `columns`, skipping
/// rows with any NULL.
fn tuple_set(db: &Database, columns: &[&AttributeProfile]) -> HashSet<Vec<Vec<u8>>> {
    let columns: Vec<_> = columns
        .iter()
        .map(|p| db.column(&p.name).expect("column"))
        .collect();
    (0..columns[0].len())
        .filter_map(|row| {
            columns
                .iter()
                .map(|c| (!c[row].is_null()).then(|| c[row].canonical_bytes()))
                .collect()
        })
        .collect()
}

/// Every `k`-sequence of distinct attributes of one table drawn from
/// `eligible`: ids ascending when `sorted`, in every order otherwise.
fn sequences<'a>(
    eligible: &[&'a AttributeProfile],
    k: usize,
    sorted: bool,
) -> Vec<Vec<&'a AttributeProfile>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in sequences(eligible, k - 1, sorted) {
        for &p in eligible {
            let fits = shorter.last().is_none_or(|last| {
                p.name.table == last.name.table
                    && if sorted {
                        p.id > last.id
                    } else {
                        shorter.iter().all(|q| q.id != p.id)
                    }
            });
            if fits {
                let mut longer = shorter.clone();
                longer.push(p);
                out.push(longer);
            }
        }
    }
    out
}

/// What the brute-force oracle finds at one arity.
#[derive(Default)]
struct OracleLevel {
    /// Every candidate of the arity: the `enumerable` yardstick.
    enumerable: u64,
    /// The candidates whose every projection one arity down is satisfied:
    /// what the apriori generation must produce.
    apriori: u64,
    /// The satisfied candidates, sorted.
    satisfied: Vec<NaryCandidate>,
}

/// Brute-force discovery of arity 1 up to `max_arity` (entry `k − 1` is
/// arity `k`): every candidate, no pruning, direct set containment — the
/// ground truth the levelwise pipeline must reproduce exactly.
fn oracle(db: &Database, max_arity: usize) -> Vec<OracleLevel> {
    let profiles = profile_database(db);
    let deps: Vec<&AttributeProfile> = profiles
        .iter()
        .filter(|p| p.is_dependent_candidate())
        .collect();
    let refs: Vec<&AttributeProfile> = profiles.iter().filter(|p| p.non_null > 0).collect();
    let ids = |seq: &[&AttributeProfile]| seq.iter().map(|p| p.id).collect::<Vec<u32>>();
    let mut levels: Vec<OracleLevel> = Vec::new();
    for k in 1..=max_arity {
        let below: HashSet<&NaryCandidate> = levels
            .last()
            .map_or_else(HashSet::new, |l| l.satisfied.iter().collect());
        let projections_hold = |c: &NaryCandidate| {
            k == 1
                || (0..k).all(|drop| {
                    let without = |seq: &[u32]| {
                        let mut seq = seq.to_vec();
                        seq.remove(drop);
                        seq
                    };
                    below.contains(&NaryCandidate::new(without(&c.dep), without(&c.refd)))
                })
        };
        let ref_sets: Vec<_> = sequences(&refs, k, false)
            .into_iter()
            .map(|seq| (ids(&seq), tuple_set(db, &seq)))
            .collect();
        let mut level = OracleLevel::default();
        for dep in sequences(&deps, k, true) {
            let dep_tuples = tuple_set(db, &dep);
            for (refd, ref_tuples) in &ref_sets {
                if ids(&dep) == *refd {
                    continue; // trivially reflexive
                }
                let candidate = NaryCandidate::new(ids(&dep), refd.clone());
                level.enumerable += 1;
                level.apriori += u64::from(projections_hold(&candidate));
                if dep_tuples.is_subset(ref_tuples) {
                    level.satisfied.push(candidate);
                }
            }
        }
        level.satisfied.sort();
        levels.push(level);
    }
    levels
}

/// Every engine the finder runs.
fn algorithms() -> [Algorithm; 5] {
    [
        Algorithm::BruteForce,
        Algorithm::BruteForceParallel { threads: 2 },
        Algorithm::SinglePass,
        Algorithm::Spider,
        Algorithm::Blockwise { max_open_files: 3 },
    ]
}

/// Runs the levelwise search up to `max_arity` with every engine, in memory
/// and on disk, and holds each run to the oracle: the same composite and
/// unary INDs, and per level the oracle's candidate space (`enumerable`),
/// apriori candidates (`generated`) and satisfied count. The engines test
/// no more candidates than the levels generated, and both backends profile
/// the same sequences and read the same values. Returns the oracle.
fn assert_levelwise_matches_oracle(db: &Database, max_arity: usize) -> Vec<OracleLevel> {
    let oracle = oracle(db, max_arity);
    let mut expected: Vec<NaryCandidate> = oracle[1..]
        .iter()
        .flat_map(|l| l.satisfied.iter().cloned())
        .collect();
    expected.sort();
    let unary: Vec<_> = oracle[0]
        .satisfied
        .iter()
        .map(|c| (c.dep[0], c.refd[0]))
        .collect();
    for algorithm in algorithms() {
        let finder = IndFinder::with_algorithm(algorithm.clone());
        let dir = ind_testkit::TempDir::new("nary-oracle-disk");
        let options = ExportOptions::with_threads(2);
        let at = format!("{}, {algorithm:?}", db.name());
        let memory = finder.run(db, &Backend::Memory { threads: 2 }, max_arity);
        let memory = memory.expect(&at);
        let disk = finder.run(db, &Backend::disk(dir.path(), &options), max_arity);
        let disk = disk.expect(&at);
        let counts = |d: &Discovery| -> Vec<_> {
            let level = |l: &NaryLevelStats| (l.arity, l.generated, l.pruned_projection);
            d.levels.iter().map(level).collect()
        };
        assert_eq!(counts(&memory), counts(&disk), "{at}");
        assert_eq!(memory.sequence_profiles, disk.sequence_profiles, "{at}");
        assert_eq!(memory.metrics.items_read, disk.metrics.items_read, "{at}");
        assert_eq!(memory.metrics.read_calls, 0, "{at}");
        assert!(
            disk.metrics.read_calls > 0,
            "{at}: disk cursors are counted"
        );
        for (backend, d) in [("memory", memory), ("disk", disk)] {
            let at = format!("{at}, {backend}");
            assert_eq!(d.composite, expected, "{at}");
            let found: Vec<_> = d.satisfied.iter().map(|c| (c.dep, c.refd)).collect();
            assert_eq!(found, unary, "{at}: level 1");
            for level in &d.levels {
                let o = &oracle[level.arity - 1];
                let at = format!("{at}, arity {}", level.arity);
                assert_eq!(level.satisfied, o.satisfied.len() as u64, "{at}");
                if level.arity >= 2 {
                    assert_eq!(level.enumerable, o.enumerable, "{at}");
                    assert_eq!(level.generated, o.apriori, "{at}");
                }
            }
            let inds = d.satisfied.len() + d.composite.len();
            assert_eq!(
                d.metrics.satisfied, inds as u64,
                "{at}: INDs, not class pairs"
            );
            let generated: u64 = d.levels.iter().map(|l| l.generated).sum();
            assert!(d.metrics.tested <= generated, "{at}: tested > {generated}");
        }
    }
    oracle
}

#[test]
fn levelwise_matches_oracle_on_chains() {
    let db = generate_chains(&ChainsConfig::tiny());
    let oracle = assert_levelwise_matches_oracle(&db, 3);
    assert!(
        !oracle[1].satisfied.is_empty(),
        "chains must contain a composite IND"
    );
    assert!(
        oracle[1].apriori < oracle[1].enumerable,
        "apriori generation must undercut the candidate space"
    );
}

#[test]
fn levelwise_matches_oracle_on_a_mirror_heavy_fixture() {
    // Duplicated pair tables produce a dense web of composite INDs (every
    // direction between the copies), plus a partial table that holds only
    // a subset. NULL-free so the oracle's semantics coincide exactly.
    let mut db = Database::new("mirrors");
    for (name, rows) in [("left", 18i64), ("right", 18), ("part", 9)] {
        let mut t = Table::new(
            TableSchema::new(
                name,
                vec![
                    ColumnSchema::new("k", DataType::Integer),
                    ColumnSchema::new("v", DataType::Text),
                ],
            )
            .expect("schema"),
        );
        for i in 0..rows {
            t.insert(vec![(i % 6).into(), format!("v{}", i % 3).into()])
                .expect("row");
        }
        db.add_table(t).expect("table");
    }
    let oracle = assert_levelwise_matches_oracle(&db, 2);
    assert!(oracle[1].apriori < oracle[1].enumerable);
}

#[test]
fn chains_gold_key_is_found_and_disk_agrees() {
    let db = generate_chains(&ChainsConfig::tiny());
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    let mem = finder
        .run(&db, &Backend::Memory { threads: 2 }, 2)
        .expect("memory");
    let named = mem.composite_named();
    assert!(
        named.iter().any(|(dep, refd)| {
            dep.iter().map(ToString::to_string).collect::<Vec<_>>()
                == ["contact.pdb_code", "contact.chain_id"]
                && refd.iter().map(ToString::to_string).collect::<Vec<_>>()
                    == ["chain.pdb_code", "chain.chain_id"]
        }),
        "gold composite FK must be discovered: {named:?}"
    );
    // The negative control never shows up.
    assert!(
        named.iter().all(|(dep, _)| dep[0].table != "crystal"),
        "the poisoned crystal pairs must be refuted: {named:?}"
    );

    let dir = ind_testkit::TempDir::new("nary-agreement-disk");
    let disk = finder
        .run(
            &db,
            &Backend::disk(dir.path(), &ExportOptions::default()),
            2,
        )
        .expect("disk");
    assert_eq!(mem.composite, disk.composite);
    assert_eq!(mem.satisfied, disk.satisfied);
    assert_eq!(mem.sequence_profiles, disk.sequence_profiles);
}

/// A small NULL-free schema of two or three tables drawn from `seed`.
/// Each table holds a random prefix of the rows of one shared relation over
/// four slots (plus, sometimes, a row of its own), projected on two to four
/// slots in shuffled column order. Every slot has its own value range, so
/// an IND aligns equal slots of two tables and no position can pair a
/// column with itself, while the shuffled orders make the referenced sides
/// permutations and the tables cross in every run of the join.
fn random_schema(seed: u64) -> Database {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let slot_value = |slot: u64, v: u64| (slot * 100 + v) as i64;
    let relation: Vec<[u64; 4]> = (0..10)
        .map(|_| [next(3), next(3), next(3), next(3)])
        .collect();
    let mut db = Database::new(format!("random-{seed}"));
    for t in 0..2 + next(2) {
        let mut slots = vec![0u64, 1, 2, 3];
        for i in (1..slots.len()).rev() {
            slots.swap(i, next(i as u64 + 1) as usize);
        }
        slots.truncate(2 + next(3) as usize);
        let schema = slots
            .iter()
            .map(|s| ColumnSchema::new(format!("s{s}"), DataType::Integer))
            .collect();
        let mut table = Table::new(TableSchema::new(format!("t{t}"), schema).expect("schema"));
        let mut rows = relation[..3 + next(8) as usize].to_vec();
        if next(3) == 0 {
            rows.push([next(4), next(4), next(4), next(4)]);
        }
        for row in rows {
            let cells = slots.iter().map(|&s| slot_value(s, row[s as usize]).into());
            table.insert(cells.collect()).expect("row");
        }
        db.add_table(table).expect("table");
    }
    db
}

#[test]
fn levelwise_matches_an_arity_3_oracle_on_random_schemas() {
    let mut arity_3_found = 0;
    for seed in 0..12 {
        let oracle = assert_levelwise_matches_oracle(&random_schema(seed), 3);
        arity_3_found += oracle[2].satisfied.len();
    }
    assert!(arity_3_found > 0, "the seeds must exercise level 3");
}

#[test]
fn unary_is_level_1_with_only_unique_attributes_referenced() {
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    let options = ExportOptions::with_threads(1);
    for db in [generate_chains(&ChainsConfig::tiny()), random_schema(3)] {
        for on_disk in [false, true] {
            let at = format!("{}, on disk: {on_disk}", db.name());
            let run = |max_arity: usize| {
                let dir = ind_testkit::TempDir::new("nary-unary-level-1");
                let backend = match on_disk {
                    false => Backend::Memory { threads: 1 },
                    true => Backend::disk(dir.path(), &options),
                };
                finder.run(&db, &backend, max_arity).expect(&at)
            };
            let (unary, levelwise) = (run(1), run(3));
            let unique = |id: u32| {
                let p = &levelwise.profiles[id as usize];
                p.non_null > 0 && p.distinct == p.non_null
            };
            let expected: Vec<_> = levelwise
                .satisfied
                .iter()
                .filter(|c| unique(c.refd))
                .copied()
                .collect();
            // Both sides of the rule occur: INDs into unique attributes,
            // and INDs only a levelwise run finds.
            assert!(!expected.is_empty(), "{at}");
            assert!(expected.len() < levelwise.satisfied.len(), "{at}");
            assert_eq!(unary.satisfied, expected, "{at}");
            assert_eq!(unary.levels.len(), 1, "{at}");
            assert!(unary.composite.is_empty(), "{at}");
            assert_eq!(unary.max_arity_found(), 1, "{at}");
        }
    }
}
