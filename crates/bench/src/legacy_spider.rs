//! The pre-refactor SPIDER merge engine, frozen as a perf baseline.
//!
//! This is a faithful copy of the engine shape `ind_core::spider` shipped
//! before the zero-allocation rewrite: a `BinaryHeap<Reverse<(Vec<u8>,
//! u32)>>` that clones every value on push, candidate bookkeeping in
//! `BTreeMap<u32, BTreeSet<u32>>`, a per-group `BTreeSet` rebuild, and a
//! `removed` vector allocated per intersection. It exists so the
//! `bench_spider` trajectory harness can keep measuring "old shape vs
//! current engine" on identical inputs in every future PR — it is **not**
//! part of the production API and must match the current engine
//! result-for-result (asserted by the harness before timing).

use ind_core::{Candidate, RunMetrics};
use ind_valueset::{Result, ValueCursor, ValueSetProvider};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Runs the legacy allocation-heavy SPIDER over `candidates`. Same contract
/// as `ind_core::run_spider`: duplicates removed, result sorted by
/// `(dep, ref)`, I/O counters recorded in `metrics`.
pub fn run_legacy_spider<P: ValueSetProvider>(
    provider: &P,
    candidates: &[Candidate],
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>> {
    let mut unique = candidates.to_vec();
    unique.sort_unstable();
    unique.dedup();
    metrics.tested += unique.len() as u64;
    let mut satisfied = legacy_pass(provider, &unique, metrics)?;
    metrics.satisfied += satisfied.len() as u64;
    satisfied.sort();
    Ok(satisfied)
}

fn legacy_pass<P: ValueSetProvider>(
    provider: &P,
    candidates: &[Candidate],
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>> {
    let mut refs_of: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut ref_usage: BTreeMap<u32, usize> = BTreeMap::new();
    for c in candidates {
        if refs_of.entry(c.dep).or_default().insert(c.refd) {
            *ref_usage.entry(c.refd).or_default() += 1;
        }
    }

    let mut attrs: BTreeSet<u32> = BTreeSet::new();
    for c in candidates {
        attrs.insert(c.dep);
        attrs.insert(c.refd);
    }

    let mut satisfied: Vec<Candidate> = Vec::new();
    let mut cursors: BTreeMap<u32, P::Cursor> = BTreeMap::new();
    let mut heap: BinaryHeap<Reverse<(Vec<u8>, u32)>> = BinaryHeap::new();

    for &a in &attrs {
        let mut cursor = provider.open(a)?;
        metrics.cursor_opens += 1;
        if cursor.advance()? {
            metrics.items_read += 1;
            metrics.value_bytes_read += cursor.current().len() as u64;
            heap.push(Reverse((cursor.current().to_vec(), a)));
            cursors.insert(a, cursor);
        } else if let Some(refset) = refs_of.get_mut(&a) {
            for r in std::mem::take(refset) {
                satisfied.push(Candidate::new(a, r));
                decrement(&mut ref_usage, r);
            }
        }
    }

    let mut group: Vec<u32> = Vec::new();
    while let Some(Reverse((value, first))) = heap.pop() {
        group.clear();
        group.push(first);
        while let Some(Reverse((v, _))) = heap.peek() {
            if *v == value {
                let Some(Reverse((_, a))) = heap.pop() else {
                    unreachable!()
                };
                group.push(a);
            } else {
                break;
            }
        }
        group.sort_unstable();
        let group_set: BTreeSet<u32> = group.iter().copied().collect();

        for &a in &group {
            let Some(refset) = refs_of.get_mut(&a) else {
                continue;
            };
            if refset.is_empty() {
                continue;
            }
            metrics.comparisons += refset.len() as u64;
            let removed: Vec<u32> = refset
                .iter()
                .copied()
                .filter(|r| !group_set.contains(r))
                .collect();
            for r in removed {
                refset.remove(&r);
                decrement(&mut ref_usage, r);
            }
        }

        for &a in &group {
            let still_dep = refs_of.get(&a).is_some_and(|s| !s.is_empty());
            let still_ref = ref_usage.get(&a).copied().unwrap_or(0) > 0;
            if !(still_dep || still_ref) {
                cursors.remove(&a);
                continue;
            }
            let cursor = cursors.get_mut(&a).expect("cursor open while needed");
            if cursor.advance()? {
                metrics.items_read += 1;
                metrics.value_bytes_read += cursor.current().len() as u64;
                heap.push(Reverse((cursor.current().to_vec(), a)));
            } else {
                cursors.remove(&a);
                if let Some(refset) = refs_of.get_mut(&a) {
                    for r in std::mem::take(refset) {
                        satisfied.push(Candidate::new(a, r));
                        decrement(&mut ref_usage, r);
                    }
                }
            }
        }
    }

    Ok(satisfied)
}

fn decrement(usage: &mut BTreeMap<u32, usize>, attr: u32) {
    if let Some(n) = usage.get_mut(&attr) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            usage.remove(&attr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_core::run_spider;
    use ind_valueset::{MemoryProvider, MemoryValueSet};
    use proptest::prelude::*;

    #[test]
    fn legacy_engine_matches_the_current_engine() {
        let set = |values: &[&str]| {
            MemoryValueSet::from_unsorted(values.iter().map(|s| s.as_bytes().to_vec()))
        };
        let provider = MemoryProvider::new(vec![
            set(&["b", "d", "f", "h"]),
            set(&["a", "b", "c", "d", "e", "f", "g", "h"]),
            set(&["b", "d"]),
            set(&["b", "c", "d"]),
            set(&["h"]),
            set(&["a", "z"]),
            set(&[]),
        ]);
        let mut candidates = Vec::new();
        for d in 0..7 {
            for r in 0..7 {
                if d != r {
                    candidates.push(Candidate::new(d, r));
                }
            }
        }
        let mut m_new = RunMetrics::new();
        let new = run_spider(&provider, &candidates, &mut m_new).unwrap();
        let mut m_old = RunMetrics::new();
        let old = run_legacy_spider(&provider, &candidates, &mut m_old).unwrap();
        assert_eq!(new, old);
        assert_eq!(m_new.items_read, m_old.items_read);
        assert_eq!(m_new.comparisons, m_old.comparisons);
        assert_eq!(m_new.value_bytes_read, m_old.value_bytes_read);
    }

    /// The value behind pool index `i` (below 600): one-byte values their
    /// keys settle, a NUL-extended twin of each (equal keys, different
    /// lengths), and values that share the whole eight-byte key window.
    fn pooled(i: u16) -> Vec<u8> {
        let byte = b'a' + (i / 4) as u8;
        match i % 4 {
            0 => vec![byte],
            1 => vec![byte, 0],
            _ => format!("shared-window-{i:02}").into_bytes(),
        }
    }

    /// Whether candidate `(d, r)` is drawn: `density` in quarters of all
    /// pairs, placed by a hash of `seed`.
    fn drawn(seed: u64, density: u64, d: u32, r: u32) -> bool {
        let mut x = seed ^ (u64::from(d) << 32 | u64::from(r));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (x ^ (x >> 31)) % 4 < density
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_engine_reads_what_the_legacy_engine_reads(
            sets in (0u8..8).prop_flat_map(|shape| {
                // One case in four crosses the 64-attribute bitset word. One
                // in four sets long reference sets (50-300 of 320 values)
                // against short dependents, so one probe of a parked
                // reference skips many values.
                let long = shape >= 6;
                let n = match shape {
                    0 | 1 => 65usize..90,
                    6 | 7 => 2..12,
                    _ => 1..14,
                };
                let set = (0u8..4).prop_flat_map(move |kind| match (long, kind) {
                    (true, 0) => proptest::collection::vec(0u16..320, 50..300),
                    (true, _) => proptest::collection::vec(0u16..320, 0..6),
                    (false, _) => proptest::collection::vec(0u16..16, 0..10),
                });
                proptest::collection::vec(set, n)
            }),
            seed in any::<u64>(),
            density in 1u64..5,
        ) {
            // Sparse candidate sets leave dependent-only attributes whose
            // last reference sits below or above them in slot order; empty
            // sets, shared key windows and a dependent closing at a value
            // it holds all come from the pool.
            let n = sets.len() as u32;
            let provider = MemoryProvider::new(
                sets.iter()
                    .map(|set| MemoryValueSet::from_unsorted(set.iter().map(|&i| pooled(i))))
                    .collect(),
            );
            let candidates: Vec<Candidate> = (0..n)
                .flat_map(|d| (0..n).map(move |r| (d, r)))
                .filter(|&(d, r)| d != r && drawn(seed, density, d, r))
                .map(|(d, r)| Candidate::new(d, r))
                .collect();
            let mut m_new = RunMetrics::new();
            let new = run_spider(&provider, &candidates, &mut m_new).unwrap();
            let mut m_old = RunMetrics::new();
            let old = run_legacy_spider(&provider, &candidates, &mut m_old).unwrap();
            prop_assert_eq!(new, old);
            let io = |m: &RunMetrics| {
                (m.items_read, m.value_bytes_read, m.comparisons, m.cursor_opens)
            };
            prop_assert_eq!(io(&m_new), io(&m_old));
        }
    }
}
