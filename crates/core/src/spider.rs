//! SPIDER-style improved single-pass discovery.
//!
//! The paper closes with "in our current work we concentrate on improving
//! the performance of the single-pass algorithm" (Sec. 7); the improvement
//! the authors later published became known as SPIDER. This module
//! implements that design:
//!
//! * **one** cursor per attribute, shared between its dependent and
//!   referenced roles (the plain single-pass opens one per role);
//! * a min-heap over all cursors merges the sorted streams; each heap pop
//!   group gathers every attribute containing the current value `v`;
//! * for every dependent attribute in the group, its surviving candidate
//!   referenced set is intersected with the group (any referenced attribute
//!   lacking `v` is refuted);
//! * an attribute's cursor closes early once it is no longer an active
//!   dependent *and* no active dependent still lists it as a candidate
//!   reference — the I/O saving that makes this strictly better than the
//!   subject–observer implementation;
//! * a dependent that exhausts its values with candidates still standing
//!   has those candidates satisfied.
//!
//! # Zero-allocation merge engine
//!
//! The whole point of the single-pass family is touching each value once
//! with minimal per-value overhead, so the steady-state loop of
//! [`spider_pass`] performs **no heap allocations**:
//!
//! * attribute ids are remapped to a dense `0..n` range
//!   ([`crate::compact::CompactIds`]), so all per-attribute state lives in
//!   flat vectors indexed by dense id;
//! * the merge runs over a normalized-key min-heap of cursor slots
//!   ([`ind_valueset::KeyedMinHeap`], shared with the external sorter's
//!   spill merge): each entry is `(key, slot)`, the key being the first
//!   eight bytes of `cursor.current()` as a big-endian integer
//!   ([`ind_valueset::key_prefix64`]) plus the value's length, derived
//!   **once per `advance`** and stored in the heap array. A sift compares
//!   the integers it finds in the array it is moving; only two values that
//!   share their first eight bytes and both run past them are read through
//!   the cursors' byte slices, **in place** — cursors own their buffers
//!   ([`ind_valueset::MemoryCursor`] borrows from the Arc'd set,
//!   [`ind_valueset::ValueFileReader`] serves slices straight out of its
//!   read block) — instead of a `BinaryHeap<Reverse<(Vec<u8>, u32)>>` that
//!   clones every value on push. Only one small owned copy of the current
//!   *group* value is kept (the group's defining cursor advances while
//!   later members are still being gathered);
//! * candidate bookkeeping is a dense bitmatrix: one `u64` bitset row of
//!   surviving referenced attributes per dependent, so the per-group
//!   intersection is word-wise `AND`s, refutations are `popcount`-style bit
//!   scans, and reference usage counts are a flat `Vec<u32>`.
//!
//! All working buffers (heap slots, group scratch, group bitmask, satisfied
//! output) are allocated once before the merge starts. The
//! `crates/bench/src/bin/bench_spider.rs` harness demonstrates the property
//! with a counting allocator: allocation count stays a small constant while
//! `items_read` scales with the data.

use crate::candidates::Candidate;
use crate::compact::CompactIds;
use crate::metrics::RunMetrics;
use ind_valueset::{KeyedMinHeap, Result, ValueCursor, ValueSetProvider};
use std::borrow::Cow;

/// Runs SPIDER over `candidates` (pairs with `dep != ref`; duplicates are
/// removed before testing). Returns satisfied candidates sorted by
/// `(dep, ref)`.
pub fn run_spider<P: ValueSetProvider>(
    provider: &P,
    candidates: &[Candidate],
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>> {
    let unique = dedup_candidates(candidates);
    metrics.tested += unique.len() as u64;
    let mut satisfied = spider_pass(provider, &unique, metrics)?;
    metrics.satisfied += satisfied.len() as u64;
    satisfied.sort_unstable();
    Ok(satisfied)
}

/// Sorted, duplicate-free view of `candidates`. Duplicate pairs would
/// inflate `metrics.tested`, so the entry point normalises first.
///
/// Candidate generation already emits sorted, duplicate-free pairs, so the
/// common path borrows the input as-is; only unsorted or duplicated inputs
/// pay for a copy.
fn dedup_candidates(candidates: &[Candidate]) -> Cow<'_, [Candidate]> {
    if candidates.windows(2).all(|w| w[0] < w[1]) {
        return Cow::Borrowed(candidates);
    }
    // lint: allow(hot_alloc) — setup phase: one copy per run, only when the caller passed unsorted candidates
    let mut unique = candidates.to_vec();
    unique.sort_unstable();
    unique.dedup();
    Cow::Owned(unique)
}

/// The SPIDER heap-merge beneath [`run_spider`]. `candidates` must be
/// duplicate-free with `dep != ref`. Returns the satisfied candidates in
/// unspecified order; updates only the I/O counters (`cursor_opens`,
/// `items_read`, `value_bytes_read`, `comparisons`, `key_compares`,
/// `memcmp_compares`).
fn spider_pass<P: ValueSetProvider>(
    provider: &P,
    candidates: &[Candidate],
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>> {
    if candidates.is_empty() {
        // lint: allow(hot_alloc) — empty-candidate early return; Vec::new does not allocate
        return Ok(Vec::new());
    }
    let _span = ind_trace::start(ind_trace::SPIDER_MERGE);
    // Cached once per pass: the merge loop publishes progress only when
    // tracing was on at entry, so a traced-off run pays one relaxed load.
    let traced = ind_trace::enabled();
    // Dense remap: every vector below is indexed by compact attribute id.
    let ids = CompactIds::from_candidates(candidates);
    let n = ids.len();
    let words = n.div_ceil(64);

    // Candidate bitmatrix: `rows[d * words ..][..words]` is dependent `d`'s
    // surviving referenced set. `live[d]` counts its set bits; `usage[r]`
    // counts the dependents still referencing `r` (for early close).
    // lint: allow(hot_alloc) — setup phase: three of the 14 counted per-run allocations
    let mut rows: Vec<u64> = vec![0; n * words];
    // lint: allow(hot_alloc) — setup phase, counted per-run allocation
    let mut live: Vec<u32> = vec![0; n];
    // lint: allow(hot_alloc) — setup phase, counted per-run allocation
    let mut usage: Vec<u32> = vec![0; n];
    for c in candidates {
        debug_assert_ne!(c.dep, c.refd, "self-candidates are excluded upstream");
        let d = ids.index_of(c.dep);
        let r = ids.index_of(c.refd);
        let word = &mut rows[d * words + r / 64];
        let bit = 1u64 << (r % 64);
        if *word & bit == 0 {
            *word |= bit;
            live[d] += 1;
            usage[r] += 1;
        }
    }

    // Satisfied output cannot exceed the candidate count: reserving up front
    // keeps pushes allocation-free.
    let mut satisfied: Vec<Candidate> = Vec::with_capacity(candidates.len());
    let mut cursors: Vec<Option<P::Cursor>> = Vec::with_capacity(n);
    let mut heap = KeyedMinHeap::with_capacity(n);

    for d in 0..n {
        let mut cursor = provider.open(ids.id(d))?;
        metrics.cursor_opens += 1;
        if cursor.advance()? {
            metrics.items_read += 1;
            metrics.value_bytes_read += cursor.current().len() as u64;
            cursors.push(Some(cursor));
        } else {
            // Empty attribute. As a dependent every candidate is trivially
            // satisfied; as a reference it simply never joins a group and
            // is refuted at each dependent's first value below.
            cursors.push(None);
            satisfy_survivors(
                d,
                &ids,
                &mut rows[d * words..(d + 1) * words],
                &mut usage,
                &mut satisfied,
            );
            live[d] = 0;
        }
    }
    for d in 0..n {
        if cursors[d].is_some() {
            heap.push(d as u32, cursor_value(&cursors, d as u32), |a, b| {
                compare_values(&cursors, a, b)
            });
        }
    }

    // Progress bookkeeping for the live surface: refutations are counted
    // as they happen (one register increment in the bit scan), so the
    // surviving-candidate gauge is `total - refuted - satisfied` without
    // an O(n) rescan per group.
    let mut refuted_total: u64 = 0;
    let (mut last_items, mut last_bytes) = (metrics.items_read, metrics.value_bytes_read);

    // Reusable per-group scratch: member list, owned copy of the group's
    // value, and the group membership bitmask (cleared after every group).
    let mut group: Vec<u32> = Vec::with_capacity(n);
    // lint: allow(hot_alloc) — setup phase: reusable scratch, grows to the longest value once
    let mut group_value: Vec<u8> = Vec::new();
    // lint: allow(hot_alloc) — setup phase, counted per-run allocation
    let mut group_mask: Vec<u64> = vec![0; words];

    while let Some((group_key, first)) = heap.peek() {
        // Cooperative cancellation at heap-group granularity: one TLS read
        // and a relaxed load per group against a full k-way merge step.
        ind_valueset::cancel::check_ambient("merge")?;
        group.clear();
        group_value.clear();
        group_value.extend_from_slice(cursor_value(&cursors, first));
        heap.pop(|a, b| compare_values(&cursors, a, b));
        group.push(first);
        while let Some((key, top)) = heap.peek() {
            if key == group_key && cursor_value(&cursors, top) == group_value.as_slice() {
                heap.pop(|a, b| compare_values(&cursors, a, b));
                group.push(top);
            } else {
                break;
            }
        }
        // Equal keys pop in ascending slot order (the heap tie-break), so
        // `group` is already sorted; keep the invariant explicit.
        debug_assert!(group.windows(2).all(|w| w[0] < w[1]));
        for &a in &group {
            group_mask[a as usize / 64] |= 1u64 << (a as usize % 64);
        }

        // Intersect every in-group dependent's candidate set with the group:
        // word-wise AND against the membership mask, with a bit scan over
        // the removed references to keep the usage counts exact.
        for &a in &group {
            let a = a as usize;
            if live[a] == 0 {
                continue;
            }
            metrics.comparisons += u64::from(live[a]);
            let row = &mut rows[a * words..(a + 1) * words];
            for (w, word) in row.iter_mut().enumerate() {
                let mut removed = *word & !group_mask[w];
                if removed != 0 {
                    *word &= group_mask[w];
                    while removed != 0 {
                        let r = w * 64 + removed.trailing_zeros() as usize;
                        removed &= removed - 1;
                        usage[r] -= 1;
                        live[a] -= 1;
                        refuted_total += 1;
                    }
                }
            }
        }

        // Advance the group members that are still needed; close the rest.
        for &a in &group {
            let a = a as usize;
            let still_dep = live[a] > 0;
            let still_ref = usage[a] > 0;
            if !(still_dep || still_ref) {
                cursors[a] = None; // early close: nobody needs this stream
                continue;
            }
            // lint: allow(no_unwrap) — structural invariant: live/usage counters keep needed cursors open; a miss is an engine bug
            let cursor = cursors[a].as_mut().expect("cursor open while needed");
            if cursor.advance()? {
                metrics.items_read += 1;
                metrics.value_bytes_read += cursor.current().len() as u64;
                heap.push(a as u32, cursor_value(&cursors, a as u32), |x, y| {
                    compare_values(&cursors, x, y)
                });
            } else {
                // Dependent exhausted: its surviving candidates held for
                // every value — satisfied.
                cursors[a] = None;
                satisfy_survivors(
                    a,
                    &ids,
                    &mut rows[a * words..(a + 1) * words],
                    &mut usage,
                    &mut satisfied,
                );
                live[a] = 0;
            }
        }

        for &a in &group {
            group_mask[a as usize / 64] = 0;
        }

        // Publish progress once per merge group, as counter *deltas* — the
        // per-item hot path stays untouched.
        if traced {
            ind_trace::add_counter(
                ind_trace::Counter::ItemsRead,
                metrics.items_read - last_items,
            );
            ind_trace::add_counter(
                ind_trace::Counter::ValueBytesRead,
                metrics.value_bytes_read - last_bytes,
            );
            (last_items, last_bytes) = (metrics.items_read, metrics.value_bytes_read);
            ind_trace::set_candidates_live(
                candidates.len() as u64 - refuted_total - satisfied.len() as u64,
            );
        }
    }

    metrics.key_compares += heap.key_compares();
    metrics.memcmp_compares += heap.memcmp_compares();
    debug_assert!(
        live.iter().all(|&l| l == 0),
        "heap ran dry with unresolved candidates"
    );
    Ok(satisfied)
}

/// The current value of the cursor in `slot`; only called for live slots.
fn cursor_value<C: ValueCursor>(cursors: &[Option<C>], slot: u32) -> &[u8] {
    cursors[slot as usize]
        .as_ref()
        // lint: allow(no_unwrap) — structural invariant: the heap only ever holds open slots
        .expect("heap slot without a cursor")
        .current()
}

/// Marks every surviving candidate of dependent `d` satisfied: scans its
/// bitset row (the exact `words`-long sub-slice for `d`), emits the
/// candidates, releases the reference-usage counts, and clears the row.
fn satisfy_survivors(
    d: usize,
    ids: &CompactIds,
    row: &mut [u64],
    usage: &mut [u32],
    satisfied: &mut Vec<Candidate>,
) {
    for (w, word) in row.iter_mut().enumerate() {
        let mut bits = *word;
        *word = 0;
        while bits != 0 {
            let r = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            satisfied.push(Candidate::new(ids.id(d), ids.id(r)));
            usage[r] -= 1;
        }
    }
}

/// The heap's tie callback: the current values of slots `a` and `b`
/// compared in full. [`KeyedMinHeap`] consults it only when the two
/// normalized keys stored in its array cannot tell the values apart, and
/// breaks a remaining tie by slot id itself.
fn compare_values<C: ValueCursor>(cursors: &[Option<C>], a: u32, b: u32) -> std::cmp::Ordering {
    cursor_value(cursors, a).cmp(cursor_value(cursors, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::run_brute_force;
    use crate::single_pass::run_single_pass;
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
    fn agrees_with_brute_force_and_single_pass() {
        let provider = fixture();
        let candidates = all_pairs(7);
        let mut m1 = RunMetrics::new();
        let mut bf = run_brute_force(&provider, &candidates, &mut m1).unwrap();
        bf.sort();
        let mut m2 = RunMetrics::new();
        let sp = run_single_pass(&provider, &candidates, &mut m2).unwrap();
        let mut m3 = RunMetrics::new();
        let spider = run_spider(&provider, &candidates, &mut m3).unwrap();
        assert_eq!(spider, bf);
        assert_eq!(spider, sp);
    }

    #[test]
    fn one_cursor_per_attribute() {
        let provider = fixture();
        let candidates = all_pairs(7);
        let mut m = RunMetrics::new();
        run_spider(&provider, &candidates, &mut m).unwrap();
        assert_eq!(m.cursor_opens, 7, "shared cursor across roles");
    }

    #[test]
    fn reads_each_value_at_most_once() {
        let provider = fixture();
        let total: u64 = (0..7).map(|i| provider.set(i).unwrap().len()).sum();
        let candidates = all_pairs(7);
        let mut m = RunMetrics::new();
        run_spider(&provider, &candidates, &mut m).unwrap();
        assert!(
            m.items_read <= total,
            "spider read {} of {total} values",
            m.items_read
        );

        let mut m_sp = RunMetrics::new();
        run_single_pass(&provider, &candidates, &mut m_sp).unwrap();
        assert!(
            m.items_read <= m_sp.items_read,
            "spider ({}) must not read more than single-pass ({})",
            m.items_read,
            m_sp.items_read
        );
    }

    #[test]
    fn value_bytes_read_tracks_payload_exactly() {
        // Two identical sets: both directions are satisfied, so every value
        // of both streams is read exactly once — the byte counter must equal
        // the exact payload size, not just the item count.
        let provider = MemoryProvider::new(vec![set(&["aa", "bbbb"]), set(&["aa", "bbbb"])]);
        let mut m = RunMetrics::new();
        let found = run_spider(&provider, &all_pairs(2), &mut m).unwrap();
        assert_eq!(found.len(), 2);
        assert_eq!(m.items_read, 4);
        assert_eq!(m.value_bytes_read, 2 * (2 + 4), "2×'aa' + 2×'bbbb'");

        // On the single-byte fixture the two counters coincide.
        let provider = fixture();
        let mut m = RunMetrics::new();
        run_spider(&provider, &all_pairs(7), &mut m).unwrap();
        assert_eq!(
            m.value_bytes_read, m.items_read,
            "all fixture values are 1 byte"
        );
    }

    #[test]
    fn duplicate_candidates_are_tested_once() {
        let provider = fixture();
        let unique = all_pairs(7);
        let mut duplicated = unique.clone();
        duplicated.extend(unique.iter().copied());
        let mut m = RunMetrics::new();
        let found = run_spider(&provider, &duplicated, &mut m).unwrap();
        let mut m_base = RunMetrics::new();
        let baseline = run_spider(&provider, &unique, &mut m_base).unwrap();
        assert_eq!(found, baseline);
        assert_eq!(m.tested, unique.len() as u64, "duplicates must not count");
        assert_eq!(m.satisfied, m_base.satisfied);
        assert_eq!(m.items_read, m_base.items_read);
    }

    #[test]
    fn dedup_borrows_pre_normalised_input() {
        let sorted = all_pairs(4);
        assert!(matches!(
            dedup_candidates(&sorted),
            Cow::Borrowed(view) if view.len() == sorted.len()
        ));
        let mut shuffled = sorted.clone();
        shuffled.swap(0, 5);
        assert!(matches!(dedup_candidates(&shuffled), Cow::Owned(_)));
        let mut duplicated = sorted.clone();
        duplicated.push(sorted[0]);
        let deduped = dedup_candidates(&duplicated);
        assert!(matches!(deduped, Cow::Owned(_)));
        assert_eq!(&*deduped, sorted.as_slice());
    }

    #[test]
    fn empty_dependent_and_reference_edge_cases() {
        let provider = MemoryProvider::new(vec![set(&[]), set(&["a"]), set(&[])]);
        // empty ⊆ non-empty: satisfied; non-empty ⊆ empty: refuted;
        // empty ⊆ empty: satisfied.
        let candidates = vec![
            Candidate::new(0, 1),
            Candidate::new(1, 0),
            Candidate::new(0, 2),
        ];
        let mut m = RunMetrics::new();
        let found = run_spider(&provider, &candidates, &mut m).unwrap();
        assert_eq!(found, vec![Candidate::new(0, 1), Candidate::new(0, 2)]);
    }

    #[test]
    fn sparse_attribute_ids_are_remapped() {
        // Attribute ids far apart (and above 64, so the bitmatrix would be
        // enormous without the compact remap) behave exactly like dense ids.
        let provider = MemoryProvider::new(vec![
            set(&["b", "d"]),
            set(&[]),
            set(&[]),
            set(&["a", "b", "c", "d"]),
        ]);
        // Remap the provider ids {0, 3} through a candidate list that also
        // exercises the single-candidate shape.
        let candidates = vec![Candidate::new(0, 3)];
        let mut m = RunMetrics::new();
        let found = run_spider(&provider, &candidates, &mut m).unwrap();
        assert_eq!(found, vec![Candidate::new(0, 3)]);
        assert_eq!(m.cursor_opens, 2, "only the two candidate attributes open");
    }

    #[test]
    fn early_close_saves_io_on_disjoint_interleaved_domains() {
        // Disjoint but interleaved value domains: each attribute is the
        // only candidate of the other, both directions refute at their
        // first value group, and both cursors close far before exhaustion.
        let provider = MemoryProvider::new(vec![
            set(&["a", "c", "e", "g", "i"]),
            set(&["b", "d", "f", "h", "j"]),
        ]);
        let total = 10;
        let mut m = RunMetrics::new();
        let found = run_spider(&provider, &all_pairs(2), &mut m).unwrap();
        assert!(found.is_empty());
        assert!(
            m.items_read < total,
            "early close should skip part of the streams, read {}",
            m.items_read
        );
        assert!(
            m.items_read <= 4,
            "both candidates refute within the first two groups, read {}",
            m.items_read
        );
    }

    /// Fixture for the pinned comparison counts: short values their keys
    /// settle, `accession-NNNN` values that share the whole key window, a
    /// zero-padding tie (`"7"` vs `"7\0"`), a duplicate set and an empty one.
    fn pinned_fixture() -> MemoryProvider {
        let ids = |r: std::ops::Range<u32>, step: usize| -> MemoryValueSet {
            MemoryValueSet::from_unsorted(r.step_by(step).map(|i| format!("{i:03}").into_bytes()))
        };
        let accessions = |r: std::ops::Range<u32>, step: usize| -> MemoryValueSet {
            MemoryValueSet::from_unsorted(
                r.step_by(step)
                    .map(|i| format!("accession-{i:04}").into_bytes()),
            )
        };
        MemoryProvider::new(vec![
            ids(0..120, 1),
            ids(0..120, 3),
            ids(30..90, 6),
            accessions(0..200, 1),
            accessions(0..200, 4),
            accessions(40..160, 8),
            accessions(0..200, 1),
            MemoryValueSet::from_unsorted([b"7".to_vec(), b"7\0".to_vec(), b"accession-".to_vec()]),
            set(&[]),
        ])
    }

    #[test]
    fn comparison_work_is_pinned() {
        // The merge's work on a fixed input, to the comparison: the counts
        // of a binary heap that pops and re-pushes every group member. A
        // change of heap shape or comparison sequence moves them and has
        // to update them on purpose (and say so in CHANGES.md).
        let provider = pinned_fixture();
        let mut m = RunMetrics::new();
        let found = run_spider(&provider, &all_pairs(9), &mut m).unwrap();
        let mut m_bf = RunMetrics::new();
        let mut bf = run_brute_force(&provider, &all_pairs(9), &mut m_bf).unwrap();
        bf.sort();
        assert_eq!(found, bf);
        assert_eq!(
            (m.items_read, m.value_bytes_read, m.comparisons),
            (638, 7033, 662)
        );
        // 2,095 heap comparisons, as when the comparator re-derived both
        // keys on every call (then 856 + 1,239: the prefix alone settled
        // fewer of them than prefix + length does).
        assert_eq!((m.key_compares, m.memcmp_compares), (926, 1169));
    }

    #[test]
    fn wide_schemas_cross_the_bitset_word_boundary() {
        // More than 64 attributes forces multi-word bitset rows; a chain of
        // nested sets exercises intersections and refutations in every word.
        let n: u32 = 70;
        let sets: Vec<MemoryValueSet> = (0..n)
            .map(|i| MemoryValueSet::from_unsorted((0..=i).map(|x| format!("{x:03}").into_bytes())))
            .collect();
        let provider = MemoryProvider::new(sets);
        let candidates = all_pairs(n);
        let mut m_bf = RunMetrics::new();
        let mut bf = run_brute_force(&provider, &candidates, &mut m_bf).unwrap();
        bf.sort();
        let mut m = RunMetrics::new();
        let spider = run_spider(&provider, &candidates, &mut m).unwrap();
        assert_eq!(spider, bf);
        // The chain satisfies exactly the pairs dep < ref.
        assert_eq!(spider.len(), (n as usize * (n as usize - 1)) / 2);
    }
}
