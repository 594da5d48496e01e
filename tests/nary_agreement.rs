//! The levelwise n-ary pipeline against a brute-force composite oracle.
//!
//! The oracle enumerates *every* syntactic candidate of arity 2 up to 3 —
//! same-table sorted dependent sequences against same-table referenced
//! permutations, no apriori pruning — and tests tuple inclusion directly
//! on materialised row sets. On NULL-free data (the chains generator and
//! the fixtures here) the levelwise search must return the byte-identical
//! IND set while generating far fewer candidates than the oracle
//! enumerates.

use spider_ind::core::{profile_database, AttributeProfile, NaryCandidate, NaryFinder};
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

/// Brute-force discovery of arity 2 up to `max_arity`: every candidate, no
/// pruning, direct set containment. Returns the satisfied candidates
/// sorted — the ground truth the levelwise pipeline must reproduce exactly
/// — and how many candidates it tested at each arity, from 2.
fn oracle(db: &Database, max_arity: usize) -> (Vec<NaryCandidate>, Vec<u64>) {
    let profiles = profile_database(db);
    let deps: Vec<&AttributeProfile> = profiles
        .iter()
        .filter(|p| p.is_dependent_candidate())
        .collect();
    let refs: Vec<&AttributeProfile> = profiles.iter().filter(|p| p.non_null > 0).collect();
    let ids = |seq: &[&AttributeProfile]| seq.iter().map(|p| p.id).collect::<Vec<u32>>();
    let mut satisfied = Vec::new();
    let mut tested = Vec::new();
    for k in 2..=max_arity {
        let ref_sets: Vec<_> = sequences(&refs, k, false)
            .into_iter()
            .map(|seq| (ids(&seq), tuple_set(db, &seq)))
            .collect();
        let mut count = 0u64;
        for dep in sequences(&deps, k, true) {
            let dep_tuples = tuple_set(db, &dep);
            for (refd, ref_tuples) in &ref_sets {
                if ids(&dep) == *refd {
                    continue; // trivially reflexive
                }
                count += 1;
                if dep_tuples.is_subset(ref_tuples) {
                    satisfied.push(NaryCandidate::new(ids(&dep), refd.clone()));
                }
            }
        }
        tested.push(count);
    }
    satisfied.sort();
    (satisfied, tested)
}

fn assert_levelwise_matches_oracle(db: &Database) {
    let (expected, tested) = oracle(db, 2);
    let oracle_tested = tested[0];
    let discovery = NaryFinder::with_max_arity(2)
        .discover_in_memory(db)
        .expect("levelwise discovery");
    assert_eq!(
        discovery.satisfied,
        expected,
        "{}: levelwise result must be byte-identical to the oracle",
        db.name()
    );
    let level2 = discovery
        .levels
        .iter()
        .find(|l| l.arity == 2)
        .expect("level 2 ran");
    assert!(
        level2.generated < oracle_tested,
        "{}: apriori generation ({}) must undercut the oracle's candidate \
         space ({})",
        db.name(),
        level2.generated,
        oracle_tested
    );
    assert_eq!(
        level2.enumerable, oracle_tested,
        "the enumerable yardstick counts exactly the oracle's space"
    );
}

#[test]
fn levelwise_matches_oracle_on_chains() {
    let db = generate_chains(&ChainsConfig::tiny());
    let (expected, _) = oracle(&db, 2);
    assert!(!expected.is_empty(), "chains must contain a composite IND");
    assert_levelwise_matches_oracle(&db);
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
    assert_levelwise_matches_oracle(&db);
}

#[test]
fn chains_gold_key_is_found_and_disk_agrees() {
    let db = generate_chains(&ChainsConfig::tiny());
    let finder = NaryFinder::with_max_arity(2);
    let mem = finder.discover_in_memory(&db).expect("memory");
    let named = mem.satisfied_named();
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
        .discover_on_disk(&db, dir.path(), &ExportOptions::default())
        .expect("disk");
    assert_eq!(mem.satisfied, disk.satisfied);
    assert_eq!(mem.unary, disk.unary);
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
    let finder = NaryFinder::with_max_arity(3);
    let mut arity_3_found = 0;
    for seed in 0..12 {
        let db = random_schema(seed);
        let (expected, tested) = oracle(&db, 3);
        arity_3_found += expected.iter().filter(|c| c.arity() == 3).count();
        let mem = finder.discover_in_memory(&db).expect("memory");
        assert_eq!(mem.satisfied, expected, "seed {seed}: in memory");
        for level in mem.levels.iter().filter(|l| l.arity >= 2) {
            assert_eq!(level.enumerable, tested[level.arity - 2], "seed {seed}");
        }
        let dir = ind_testkit::TempDir::new("nary-oracle-disk");
        let disk = finder
            .discover_on_disk(&db, dir.path(), &ExportOptions::with_threads(1))
            .expect("disk");
        assert_eq!(disk.satisfied, expected, "seed {seed}: on disk");
    }
    assert!(arity_3_found > 0, "the seeds must exercise level 3");
}
