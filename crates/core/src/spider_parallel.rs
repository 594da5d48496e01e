//! Parallel SPIDER via value-domain partitioning.
//!
//! Sequential SPIDER ([`crate::spider`]) merges every attribute's sorted
//! stream through one min-heap — inherently serial, since each heap pop
//! depends on the previous one. This module parallelises it by splitting
//! the *byte-value domain* instead of the candidate set:
//!
//! 1. boundary values are chosen from the per-attribute min/max statistics
//!    that profiling (or the sorted export, [`ind_valueset::SortStats`])
//!    already computed — sorted and sampled at even quantiles, they
//!    approximate the value distribution without touching the data;
//! 2. the boundaries split the domain into `k` disjoint half-open ranges
//!    covering all byte strings; each range gets an independent SPIDER
//!    heap-merge over [`ind_valueset::RangeCursor`]-clamped cursors, run on
//!    its own crossbeam-scoped worker thread;
//! 3. `dep ⊆ ref` holds iff it holds within every range (the ranges
//!    partition the domain and the sets are sorted), so each dependent's
//!    surviving candidate set is intersected across partitions: a candidate
//!    is satisfied iff it survives every partition.
//!
//! The result agrees **exactly** with sequential SPIDER (and brute force,
//! and the single-pass) — asserted by the cross-algorithm agreement suite.
//! Partition workers also refute independently: a candidate killed early in
//! one partition still runs in the others, which costs redundant heap work
//! when inclusions fail at the very first values, but the partitions are
//! read-disjoint, so the total number of values read stays within one full
//! scan plus the (cheap, seek-skipped) prefixes.

use crate::attr::AttributeProfile;
use crate::candidates::Candidate;
use crate::metrics::RunMetrics;
use crate::spider::{dedup_candidates, spider_pass};
use ind_valueset::{RangeCursor, Result, ValueSetProvider};
use std::collections::BTreeSet;

/// Picks at most `partitions - 1` boundary values for a `partitions`-way
/// split of the value domain, sampling even quantiles of the sorted
/// per-attribute `min`/`max` statistics of the attributes in `attrs`.
///
/// Boundaries are strictly increasing; range `i` is `[b[i-1], b[i])` with
/// the first range open below and the last open above. Returns an empty
/// vector (one partition, the whole domain) when `partitions <= 1` or the
/// statistics offer fewer than two distinct sample points.
pub fn partition_boundaries(
    profiles: &[AttributeProfile],
    attrs: &BTreeSet<u32>,
    partitions: usize,
) -> Vec<Vec<u8>> {
    if partitions <= 1 {
        return Vec::new();
    }
    let mut samples: Vec<&[u8]> = Vec::with_capacity(attrs.len() * 2);
    for &a in attrs {
        if let Some(p) = profiles.get(a as usize) {
            if let Some(min) = &p.min {
                samples.push(min);
            }
            if let Some(max) = &p.max {
                samples.push(max);
            }
        }
    }
    samples.sort_unstable();
    samples.dedup();
    if samples.len() < 2 {
        return Vec::new();
    }
    let mut boundaries: Vec<Vec<u8>> = Vec::with_capacity(partitions - 1);
    for i in 1..partitions {
        let idx = (i * samples.len()) / partitions;
        // idx == 0 would put a boundary at the global minimum sample and
        // leave the first range empty; skip it.
        if idx == 0 {
            continue;
        }
        boundaries.push(samples[idx].to_vec());
    }
    boundaries.dedup();
    boundaries
}

/// Runs SPIDER over `candidates` with the value domain split across
/// `threads` partitions, each merged on its own worker thread. `profiles`
/// must be indexed by attribute id (as produced by
/// [`crate::profile_database`] / [`crate::profiles_from_export`]); only the
/// `min`/`max` fields are consulted, for boundary selection.
///
/// Returns satisfied candidates sorted by `(dep, ref)` — byte-identical to
/// [`crate::run_spider`]. Worker metrics (`items_read`, `comparisons`,
/// `cursor_opens`) are aggregated into `metrics`; `tested` counts each
/// distinct candidate once, not once per partition.
pub fn run_spider_parallel<P>(
    provider: &P,
    profiles: &[AttributeProfile],
    candidates: &[Candidate],
    threads: usize,
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>>
where
    P: ValueSetProvider + Sync,
{
    let unique = dedup_candidates(candidates);
    metrics.tested += unique.len() as u64;
    if unique.is_empty() {
        return Ok(Vec::new());
    }

    let attrs: BTreeSet<u32> = unique.iter().flat_map(|c| [c.dep, c.refd]).collect();
    let boundaries = partition_boundaries(profiles, &attrs, threads.max(1));

    if boundaries.is_empty() {
        // Single partition: the plain heap-merge on this thread.
        let mut satisfied = spider_pass(|a| provider.open(a), &unique, metrics)?;
        metrics.satisfied += satisfied.len() as u64;
        satisfied.sort_unstable();
        return Ok(satisfied);
    }

    // Half-open ranges: (None, b0), [b0, b1), …, [b_last, None).
    type Range<'b> = (Option<&'b [u8]>, Option<&'b [u8]>);
    let mut ranges: Vec<Range<'_>> = Vec::with_capacity(boundaries.len() + 1);
    let mut lower: Option<&[u8]> = None;
    for b in &boundaries {
        ranges.push((lower, Some(b)));
        lower = Some(b);
    }
    ranges.push((lower, None));

    // A candidate *appears* in a partition only if its dependent can hold a
    // value there: when `max(dep) < lower` or `min(dep) >= upper`, the
    // clamped dependent stream is provably empty and the partition would
    // report the candidate trivially satisfied — skipping it up front saves
    // the redundant bookkeeping without changing the intersection. A
    // dependent with no values at all appears in no partition and is
    // satisfied outright (the empty set is included everywhere).
    let dep_in_range = |dep: u32, lower: Option<&[u8]>, upper: Option<&[u8]>| -> bool {
        let Some(profile) = profiles.get(dep as usize) else {
            return true; // no statistics: include conservatively
        };
        let (Some(min), Some(max)) = (&profile.min, &profile.max) else {
            return false; // empty dependent: appears nowhere
        };
        lower.is_none_or(|lo| max.as_slice() >= lo) && upper.is_none_or(|up| min.as_slice() < up)
    };
    let per_partition: Vec<Vec<Candidate>> = ranges
        .iter()
        .map(|&(lower, upper)| {
            unique
                .iter()
                .copied()
                .filter(|c| dep_in_range(c.dep, lower, upper))
                .collect()
        })
        .collect();
    // `unique` is sorted, so candidate → dense index is a binary search and
    // the per-candidate required/survival counters are flat vectors instead
    // of `BTreeMap<Candidate, usize>`s — the same compact-index treatment
    // the merge engine applies to attribute ids.
    let index_of = |c: &Candidate| -> usize {
        unique
            .binary_search(c)
            // lint: allow(no_unwrap) — partitioning only redistributes `unique`; a miss is a partitioner bug
            .expect("partition candidates come from `unique`")
    };
    let mut required: Vec<u32> = vec![0; unique.len()];
    for shard in &per_partition {
        for c in shard {
            required[index_of(c)] += 1;
        }
    }

    // Thread-local span parenting stops at the spawn: capture the current
    // parent here so each partition span hangs under the discover root.
    let span_parent = ind_trace::current_parent();
    // Ambient cancellation is thread-local: capture the caller's token and
    // re-install it in every partition worker.
    let cancel = ind_valueset::cancel::ambient();
    let results: Vec<Result<(Vec<Candidate>, RunMetrics)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .zip(&per_partition)
            .enumerate()
            .map(|(p, (&(lower, upper), shard))| {
                let cancel = cancel.clone();
                scope.spawn(move |_| {
                    let _span = ind_trace::start_under(ind_trace::PARTITION, p as u64, span_parent);
                    let _ambient = ind_valueset::cancel::set_ambient(cancel);
                    let mut local = RunMetrics::new();
                    let found = spider_pass(
                        |a| Ok(RangeCursor::new(provider.open(a)?, lower, upper)),
                        shard,
                        &mut local,
                    )?;
                    Ok((found, local))
                })
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(no_unwrap) — re-raising a worker panic on the coordinating thread is the correct escalation
            .map(|h| h.join().expect("partition worker panicked"))
            .collect()
    })
    // lint: allow(no_unwrap) — crossbeam scope errs only when a child panicked; propagate the panic
    .expect("partition scope panicked");

    // Intersect: a candidate is satisfied iff it survived every partition
    // it appeared in (candidates appearing nowhere have empty dependents —
    // satisfied by definition).
    let mut survivals: Vec<u32> = vec![0; unique.len()];
    for result in results {
        let (found, local) = result?;
        metrics.merge(&local);
        for c in found {
            survivals[index_of(&c)] += 1;
        }
    }
    let satisfied: Vec<Candidate> = unique
        .iter()
        .enumerate()
        .filter(|&(i, _)| required[i] == 0 || survivals[i] == required[i])
        .map(|(_, &c)| c)
        .collect();
    metrics.satisfied += satisfied.len() as u64;
    Ok(satisfied) // `unique` is sorted, so the result is too
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::run_brute_force;
    use crate::spider::run_spider;
    use ind_storage::{DataType, QualifiedName};
    use ind_valueset::{MemoryProvider, MemoryValueSet};

    fn set(values: &[&str]) -> MemoryValueSet {
        MemoryValueSet::from_unsorted(values.iter().map(|s| s.as_bytes().to_vec()))
    }

    fn all_pairs(n: u32) -> Vec<Candidate> {
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

    fn profiles_for(provider: &MemoryProvider, n: u32) -> Vec<AttributeProfile> {
        (0..n)
            .map(|id| {
                let values = provider.set(id).unwrap().as_slice();
                AttributeProfile {
                    id,
                    name: QualifiedName::new("t", format!("c{id}")),
                    data_type: DataType::Text,
                    rows: values.len() as u64,
                    non_null: values.len() as u64,
                    distinct: values.len() as u64,
                    min: values.first().map(<[u8]>::to_vec),
                    max: values.last().map(<[u8]>::to_vec),
                }
            })
            .collect()
    }

    fn fixture() -> MemoryProvider {
        MemoryProvider::new(vec![
            set(&["b", "d", "f", "h"]),
            set(&["a", "b", "c", "d", "e", "f", "g", "h"]),
            set(&["b", "d"]),
            set(&["b", "c", "d"]),
            set(&["h"]),
            set(&["a", "z"]),
            set(&[]),
        ])
    }

    #[test]
    fn agrees_with_sequential_spider_at_every_thread_count() {
        let provider = fixture();
        let candidates = all_pairs(7);
        let profiles = profiles_for(&provider, 7);
        let mut m_seq = RunMetrics::new();
        let seq = run_spider(&provider, &candidates, &mut m_seq).unwrap();
        for threads in [1, 2, 3, 4, 8, 64] {
            let mut m = RunMetrics::new();
            let par =
                run_spider_parallel(&provider, &profiles, &candidates, threads, &mut m).unwrap();
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(m.tested, m_seq.tested, "threads={threads}");
            assert_eq!(m.satisfied, m_seq.satisfied, "threads={threads}");
        }
    }

    #[test]
    fn agrees_with_brute_force_on_empty_and_disjoint_sets() {
        let provider =
            MemoryProvider::new(vec![set(&[]), set(&["a"]), set(&[]), set(&["x", "y", "z"])]);
        let candidates = all_pairs(4);
        let profiles = profiles_for(&provider, 4);
        let mut m_bf = RunMetrics::new();
        let mut bf = run_brute_force(&provider, &candidates, &mut m_bf).unwrap();
        bf.sort();
        for threads in [1, 2, 8] {
            let mut m = RunMetrics::new();
            let par =
                run_spider_parallel(&provider, &profiles, &candidates, threads, &mut m).unwrap();
            assert_eq!(par, bf, "threads={threads}");
        }
    }

    #[test]
    fn duplicate_candidates_are_tested_once() {
        let provider = fixture();
        let profiles = profiles_for(&provider, 7);
        let unique = all_pairs(7);
        let mut duplicated = unique.clone();
        duplicated.extend(unique.iter().copied());
        let mut m = RunMetrics::new();
        let found = run_spider_parallel(&provider, &profiles, &duplicated, 4, &mut m).unwrap();
        let mut m_base = RunMetrics::new();
        let baseline = run_spider_parallel(&provider, &profiles, &unique, 4, &mut m_base).unwrap();
        assert_eq!(found, baseline);
        assert_eq!(m.tested, unique.len() as u64);
    }

    #[test]
    fn boundaries_are_strictly_increasing_and_bounded_by_partitions() {
        let provider = fixture();
        let profiles = profiles_for(&provider, 7);
        let attrs: BTreeSet<u32> = (0..7).collect();
        for partitions in [1, 2, 3, 5, 9, 100] {
            let b = partition_boundaries(&profiles, &attrs, partitions);
            assert!(b.len() < partitions.max(1), "partitions={partitions}");
            assert!(
                b.windows(2).all(|w| w[0] < w[1]),
                "boundaries must strictly increase: {b:?}"
            );
        }
        assert!(partition_boundaries(&profiles, &attrs, 1).is_empty());
    }

    #[test]
    fn degenerate_statistics_collapse_to_one_partition() {
        // Every attribute holds the same single value: one distinct sample
        // point, so no boundaries can be chosen — and the run must still
        // agree with sequential SPIDER.
        let provider = MemoryProvider::new(vec![set(&["v"]), set(&["v"]), set(&["v"])]);
        let profiles = profiles_for(&provider, 3);
        let attrs: BTreeSet<u32> = (0..3).collect();
        assert!(partition_boundaries(&profiles, &attrs, 8).is_empty());
        let candidates = all_pairs(3);
        let mut m_seq = RunMetrics::new();
        let seq = run_spider(&provider, &candidates, &mut m_seq).unwrap();
        let mut m = RunMetrics::new();
        let par = run_spider_parallel(&provider, &profiles, &candidates, 8, &mut m).unwrap();
        assert_eq!(par, seq);
        assert_eq!(m.items_read, m_seq.items_read, "single partition, same I/O");
    }

    fn export_fixture(
        dir: &std::path::Path,
        options: &ind_valueset::ExportOptions,
    ) -> ind_valueset::ExportedDatabase {
        use ind_storage::{ColumnSchema, Database, Table, TableSchema};
        let mut db = Database::new("spider-par");
        let mut parent = Table::new(
            TableSchema::new(
                "parent",
                vec![ColumnSchema::new("id", DataType::Integer)
                    .not_null()
                    .unique()],
            )
            .unwrap(),
        );
        for i in 0..60i64 {
            parent.insert(vec![i.into()]).unwrap();
        }
        let mut child = Table::new(
            TableSchema::new(
                "child",
                vec![
                    ColumnSchema::new("parent_id", DataType::Integer),
                    ColumnSchema::new("tag", DataType::Text),
                ],
            )
            .unwrap(),
        );
        for i in 0..120i64 {
            child
                .insert(vec![(i % 60).into(), format!("tag-{:03}", i % 7).into()])
                .unwrap();
        }
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        ind_valueset::ExportedDatabase::export(&db, dir, options).unwrap()
    }

    #[test]
    fn agrees_with_sequential_spider_on_disk() {
        let dir = ind_testkit::TempDir::new("spider-par-disk");
        let export = export_fixture(dir.path(), &ind_valueset::ExportOptions::default());
        let profiles = crate::profiles_from_export(&export);
        let candidates = all_pairs(profiles.len() as u32);
        let attrs: BTreeSet<u32> = candidates.iter().flat_map(|c| [c.dep, c.refd]).collect();
        assert!(
            !partition_boundaries(&profiles, &attrs, 4).is_empty(),
            "fixture must actually partition"
        );
        let mut m_seq = RunMetrics::new();
        let seq = run_spider(&export, &candidates, &mut m_seq).unwrap();
        for threads in [1, 2, 4, 8] {
            let mut m = RunMetrics::new();
            let par =
                run_spider_parallel(&export, &profiles, &candidates, threads, &mut m).unwrap();
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(m.tested, m_seq.tested, "threads={threads}");
            assert_eq!(m.satisfied, m_seq.satisfied, "threads={threads}");
        }
    }

    #[test]
    fn surfaces_mid_stream_faults_on_disk() {
        // A bit flip in the middle of one value file while the partitions
        // are merging: the run must return a `Corrupt` naming the file —
        // never a hang, never a silently wrong IND set.
        for threads in [1, 4] {
            // Fresh export and fresh plan per round: a flip rule fires
            // exactly once, so a shared plan would spend it on the first
            // round and leave later rounds fault-free.
            let dir = ind_testkit::TempDir::new("spider-par-fault");
            let plan = std::sync::Arc::new(
                ind_valueset::FaultPlan::parse("read:attr-00000:flip=200").unwrap(),
            );
            let mut options = ind_valueset::ExportOptions::default();
            options.sort.io = ind_valueset::IoOptions::default().with_fault(plan);
            let export = export_fixture(dir.path(), &options);
            let profiles = crate::profiles_from_export(&export);
            let candidates = all_pairs(profiles.len() as u32);
            let mut m = RunMetrics::new();
            match run_spider_parallel(&export, &profiles, &candidates, threads, &mut m) {
                Err(e @ ind_valueset::ValueSetError::Corrupt { .. }) => {
                    let msg = e.to_string();
                    assert!(msg.contains("attr-00000"), "threads={threads}: {msg}");
                }
                Err(other) => panic!("threads={threads}: expected Corrupt, got {other:?}"),
                Ok(_) => panic!("threads={threads}: corruption must surface, not vanish"),
            }
        }
    }

    #[test]
    fn partitions_read_no_value_twice_in_memory() {
        // Memory cursors seek by binary search, so across all partitions
        // each value is produced exactly once — items_read must not exceed
        // the sequential run's (early close can make either side smaller).
        let provider = fixture();
        let profiles = profiles_for(&provider, 7);
        let candidates = all_pairs(7);
        let total: u64 = (0..7).map(|i| provider.set(i).unwrap().len()).sum();
        let mut m = RunMetrics::new();
        run_spider_parallel(&provider, &profiles, &candidates, 4, &mut m).unwrap();
        assert!(
            m.items_read <= total,
            "read {} of {total} values",
            m.items_read
        );
    }
}
