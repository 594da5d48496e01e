//! SPIDER-style improved single-pass discovery.
//!
//! The paper closes with "in our current work we concentrate on improving
//! the performance of the single-pass algorithm" (Sec. 7); the improvement
//! the authors later published became known as SPIDER. This module
//! implements that design:
//!
//! * **one** cursor per attribute, shared between its dependent and
//!   referenced roles (the plain single-pass opens one per role);
//! * a tournament tree over the cursors of the live dependents merges the
//!   sorted streams; each group gathers every attribute whose cursor stands
//!   on the current smallest value `v`;
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
//! # One replay per value a live dependent reads
//!
//! The tree's winner is the cursor on the smallest value, the lowest slot
//! among equals, so a group's members win one after another in slot
//! order. Each member is settled where it is found: it advances (or
//! closes) at once, and its leaf replays to the root — one match per level
//! — which brings up the next member or the next group. Nothing is popped
//! and pushed back. Deciding before the group is complete is exact: a
//! member's own group never lowers its usage count and can only shrink its
//! candidate row to `row ∩ group`, so it stays open exactly when it is
//! still referenced or one of its references is in the group — gathered
//! already, or a higher slot whose cursor stands on `v`. The intersections,
//! refutations and usage counts are computed when the group is complete,
//! except for a member that runs dry: it is settled at once, because the
//! members after it decide on the usage it releases.
//!
//! # Parked references
//!
//! A cursor whose attribute has no live candidate of its own only matters
//! as a reference, and a group without a live dependent changes nothing.
//! So when such a cursor wins the tree while a live dependent still lists
//! it, it is **parked**: it leaves the tree and stays open, standing on the
//! value it won with, and the tree replays only for cursors that can
//! refute or satisfy a candidate. A dependent that needs a parked
//! reference probes it: plain `advance` calls, without a replay, until the
//! cursor reaches the group's value or passes it, at most once per group.
//! Group close, a member's open-or-close decision and a member that runs
//! dry read the probe's answer where a cursor in the tree is found through
//! the group's mask. A parked reference closes when its last dependent
//! lets it go; if that dependent ran dry on the value the reference stands
//! on and the reference's slot is lower, it first reads one more value, as
//! the tree would have advanced it before the dependent. The engine
//! therefore reads the same values and closes the same cursors as the
//! gather-then-decide shape `ind_bench::legacy_spider` keeps frozen (a
//! proptest holds the two together, and `bench_spider --check` compares
//! the counts on every dataset). `RunMetrics::parked_reads` counts the
//! values read by parked cursors.
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
//! * every value read gets its normalized key where it is read — the
//!   first advance, a tree member's advance, a parked read: the first
//!   eight bytes as a big-endian integer ([`ind_valueset::key_prefix64`],
//!   which takes no call for a value under eight bytes) and the full
//!   length, kept per slot beside the cursor. The tree
//!   ([`ind_valueset::TournamentTree`], shared with the external sorter's
//!   spill merge) stores the same key in its nodes, and every group test —
//!   the winner's membership, a reference in the tree, a parked probe's
//!   order — compares a slot's key with the group's. Only two values that
//!   share their first eight bytes and both run past them (for a
//!   membership test: with one length) are read through the cursors' byte
//!   slices, **in place** — cursors own their buffers
//!   ([`ind_valueset::MemoryCursor`] borrows from the Arc'd set,
//!   [`ind_valueset::ValueFileReader`] serves slices straight out of its
//!   read block) — instead of a `BinaryHeap<Reverse<(Vec<u8>, u32)>>` that
//!   clones every value on push. The current *group* value is its key plus,
//!   past eight bytes, one small owned copy of its tail (the member that
//!   defined it has moved on when later members are tested against it);
//! * candidate bookkeeping is a dense bitmatrix: one `u64` bitset row of
//!   surviving referenced attributes per dependent, so the per-group
//!   intersection is word-wise `AND`s, refutations are `popcount`-style bit
//!   scans, and reference usage counts are a flat `Vec<u32>`.
//!
//! All working buffers (tree nodes, slot keys, group scratch, group
//! bitmask, parked bitmask and probe ordinals, satisfied output) are
//! allocated once before the merge starts. The
//! `crates/bench/src/bin/bench_spider.rs` harness demonstrates the property
//! with a counting allocator: allocation count stays a small constant while
//! `items_read` scales with the data.

use crate::candidates::Candidate;
use crate::compact::CompactIds;
use crate::metrics::RunMetrics;
use ind_valueset::{
    compare_keys, key_prefix64, Result, TournamentTree, ValueCursor, ValueSetProvider,
};
use std::borrow::Cow;
use std::cmp::Ordering;

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

/// The SPIDER merge beneath [`run_spider`]. `candidates` must be
/// duplicate-free with `dep != ref`. Returns the satisfied candidates in
/// unspecified order; updates only the I/O counters (`cursor_opens`,
/// `items_read`, `value_bytes_read`, `parked_reads`, `comparisons`,
/// `key_compares`, `memcmp_compares`).
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
    // The counters' baseline for the span: every read below is published,
    // the cursors' first reads included.
    let (mut last_items, mut last_bytes) = (metrics.items_read, metrics.value_bytes_read);
    // Dense remap: every vector below is indexed by compact attribute id.
    let ids = CompactIds::from_candidates(candidates);
    let n = ids.len();
    let words = n.div_ceil(64);

    // Candidate bitmatrix: `rows[d * words ..][..words]` is dependent `d`'s
    // surviving referenced set. `live[d]` counts its set bits; `usage[r]`
    // counts the dependents still referencing `r` (for early close).
    // lint: allow(hot_alloc) — setup phase: three of the counted per-run allocations
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
    let mut slots = Slots::new(n, words);

    for d in 0..n {
        let mut cursor = provider.open(ids.id(d))?;
        metrics.cursor_opens += 1;
        if cursor.advance()? {
            slots.keys[d] = key(cursor.current());
            metrics.items_read += 1;
            metrics.value_bytes_read += u64::from(slots.keys[d].1);
            slots.open.push(Some(cursor));
        } else {
            // Empty attribute. As a dependent every candidate is trivially
            // satisfied; as a reference it simply never joins a group and
            // is refuted at each dependent's first value below.
            slots.open.push(None);
            let row = &mut rows[d * words..(d + 1) * words];
            satisfy_survivors(
                d,
                &ids,
                row,
                &mut usage,
                &mut satisfied,
                &mut slots,
                metrics,
            )?;
            live[d] = 0;
        }
    }
    let mut tree = TournamentTree::new(n);
    for (d, cursor) in slots.open.iter().enumerate() {
        let value = cursor.as_ref().map(|cursor| cursor.current());
        tree.enter(d as u32, value, by_value(&slots));
    }

    // Progress bookkeeping for the live surface: refutations are counted
    // as they happen (one register increment in the bit scan), so the
    // surviving-candidate gauge is `total - refuted - satisfied` without
    // an O(n) rescan per group.
    let mut refuted_total: u64 = 0;

    let mut group = Group::new(n, words);

    loop {
        let winner = tree.winner().map(|a| a as usize);
        let joins = match winner {
            Some(a) if !group.members.is_empty() => {
                group.value.holds(slots.keys[a], slots.cursor(a))
            }
            _ => false,
        };
        if !group.members.is_empty() && !joins {
            // The group is complete. Intersect every in-group dependent's
            // candidate set with it: word-wise AND against the membership
            // mask, with a bit scan over the removed references to keep the
            // usage counts exact. A parked reference not yet in the mask is
            // probed first; a hit joins the mask (and the member list, which
            // this loop does not reach: parked slots have no candidates).
            // Members that ran dry were settled where they were found and
            // have no candidates left.
            for i in 0..group.members.len() {
                let a = group.members[i] as usize;
                if live[a] == 0 {
                    continue;
                }
                metrics.comparisons += u64::from(live[a]);
                let row = &mut rows[a * words..(a + 1) * words];
                for (w, word) in row.iter_mut().enumerate() {
                    let mut unprobed = *word & slots.parked[w] & !group.mask[w];
                    while unprobed != 0 {
                        let r = w * 64 + unprobed.trailing_zeros() as usize;
                        unprobed &= unprobed - 1;
                        slots.probe(r, &mut group, metrics)?;
                    }
                    let mut removed = *word & !group.mask[w];
                    if removed != 0 {
                        *word &= group.mask[w];
                        while removed != 0 {
                            let r = w * 64 + removed.trailing_zeros() as usize;
                            removed &= removed - 1;
                            live[a] -= 1;
                            refuted_total += 1;
                            slots.release(r, &mut usage);
                        }
                    }
                }
            }
            group.clear();

            // Publish progress once per merge group, as counter *deltas* —
            // the per-item hot path stays untouched.
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
        let Some(a) = winner else { break };
        if group.members.is_empty() {
            // Cooperative cancellation at merge-group granularity: one TLS
            // read and a relaxed load per group against a k-way merge step.
            ind_valueset::cancel::check_ambient("merge")?;
            group.value.set(slots.keys[a], slots.cursor(a));
        }
        group.join(a);

        // A reference-only member leaves the tree standing on the group's
        // value: parked while a live dependent still lists it, closed
        // otherwise. Its usage only falls from here on, and the dependents
        // that list it probe it when they need it.
        if live[a] == 0 {
            if usage[a] > 0 {
                slots.park(a);
            } else {
                slots.close(a); // early close: nobody needs this stream
            }
            tree.replay(None, by_value(&slots));
            continue;
        }

        // Settle the live member where it is found. Its own group never
        // lowers its usage, and can only shrink its row to `row ∩ group`,
        // so it stays open exactly when it is still referenced or one of
        // its references is in the group.
        let row = &rows[a * words..(a + 1) * words];
        let needed = usage[a] > 0 || meets_group(a, row, &mut slots, &mut group, metrics)?;
        if !needed {
            slots.close(a); // early close: nobody needs this stream
            tree.replay(None, by_value(&slots));
            continue;
        }
        // lint: allow(no_unwrap) — structural invariant: live/usage counters keep needed cursors open; a miss is an engine bug
        let cursor = slots.open[a].as_mut().expect("cursor open while needed");
        if cursor.advance()? {
            slots.keys[a] = key(cursor.current());
            metrics.items_read += 1;
            metrics.value_bytes_read += u64::from(slots.keys[a].1);
            tree.replay(Some(slots.cursor(a).current()), by_value(&slots));
            continue;
        }
        // Exhausted: its surviving candidates held for every value —
        // satisfied. The intersection runs now rather than with the group's,
        // because the members after it decide on the usage it releases.
        metrics.comparisons += u64::from(live[a]);
        let row = &mut rows[a * words..(a + 1) * words];
        for (w, word) in row.iter_mut().enumerate() {
            let mut bits = *word & !group.mask[w];
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !slots.joins(a, r, &mut group, metrics)? {
                    *word &= !(1u64 << (r % 64));
                    refuted_total += 1;
                    slots.release(r, &mut usage);
                }
            }
        }
        satisfy_survivors(
            a,
            &ids,
            row,
            &mut usage,
            &mut satisfied,
            &mut slots,
            metrics,
        )?;
        live[a] = 0;
        slots.close(a);
        tree.replay(None, by_value(&slots));
    }

    metrics.key_compares += tree.key_compares() + group.value.key_compares;
    metrics.memcmp_compares += tree.memcmp_compares() + group.value.memcmp_compares;
    debug_assert!(
        live.iter().all(|&l| l == 0),
        "the merge ran dry with unresolved candidates"
    );
    debug_assert!(
        slots.parked.iter().all(|&w| w == 0),
        "a parked reference outlived its last dependent"
    );
    Ok(satisfied)
}

/// A value's normalized key: `(key_prefix64, length)`. The full length
/// keeps `"7"` apart from `"7\0"` and two long values of different lengths
/// apart without their bytes; only two values longer than 8 bytes with one
/// prefix and one length are compared past the prefix.
type Key = (u64, u32);

/// The normalized key of `v`.
#[inline]
fn key(v: &[u8]) -> Key {
    (key_prefix64(v), v.len() as u32)
}

/// The merge's cursors, one slot per attribute, `None` once closed, and
/// the key of the value each open cursor stands on. An open cursor is
/// either in the tree or **parked**: out of the tree, standing on the last
/// value it read, because its attribute has no live candidate of its own
/// and is read only for the dependents that list it.
struct Slots<C> {
    open: Vec<Option<C>>,
    /// The key of each open cursor's current value, written wherever a
    /// cursor reads one (first advance, tree member, parked read). Keys
    /// are owned integers, so a fill that moves the cursor's bytes cannot
    /// invalidate them.
    keys: Vec<Key>,
    /// Bit `r` is set while slot `r` is parked.
    parked: Vec<u64>,
    /// The ordinal of the group whose probe last found parked slot `r`
    /// past the group's value, so a slot is probed at most once per group.
    missed: Vec<u64>,
}

impl<C: ValueCursor> Slots<C> {
    fn new(n: usize, words: usize) -> Self {
        Slots {
            open: Vec::with_capacity(n),
            // lint: allow(hot_alloc) — setup phase, counted per-run allocation
            keys: vec![(0, 0); n],
            // lint: allow(hot_alloc) — setup phase, counted per-run allocation
            parked: vec![0; words],
            // lint: allow(hot_alloc) — setup phase, counted per-run allocation
            missed: vec![u64::MAX; n],
        }
    }

    #[inline]
    fn is_parked(&self, r: usize) -> bool {
        self.parked[r / 64] & (1u64 << (r % 64)) != 0
    }

    fn park(&mut self, r: usize) {
        self.parked[r / 64] |= 1u64 << (r % 64);
    }

    /// Closes slot `r`, parked or in the tree.
    fn close(&mut self, r: usize) {
        self.open[r] = None;
        self.parked[r / 64] &= !(1u64 << (r % 64));
    }

    /// Drops one dependent's use of reference `r`. A parked reference that
    /// nobody lists any more closes where it stands: the tree would have
    /// read up to that value too.
    #[inline]
    fn release(&mut self, r: usize, usage: &mut [u32]) {
        usage[r] -= 1;
        if usage[r] == 0 && self.is_parked(r) {
            self.close(r);
        }
    }

    /// The cursor of open slot `r`.
    #[inline]
    fn cursor(&self, r: usize) -> &C {
        self.open[r]
            .as_ref()
            // lint: allow(no_unwrap) — structural invariant: the merge asks for open slots only; a miss is an engine bug
            .expect("merge slot without a cursor")
    }

    /// The cursor of parked slot `r`.
    fn parked_cursor(&mut self, r: usize) -> &mut C {
        self.open[r]
            .as_mut()
            // lint: allow(no_unwrap) — structural invariant: a parked slot is open; a miss is an engine bug
            .expect("parked slot without a cursor")
    }

    /// Reads parked slot `r`'s next value: a plain `advance`, no tree
    /// replay, counted in `parked_reads`. A slot that runs dry closes.
    fn read_parked(&mut self, r: usize, metrics: &mut RunMetrics) -> Result<()> {
        let cursor = self.parked_cursor(r);
        if !cursor.advance()? {
            self.close(r);
            return Ok(());
        }
        let k = key(cursor.current());
        metrics.items_read += 1;
        metrics.parked_reads += 1;
        metrics.value_bytes_read += u64::from(k.1);
        self.keys[r] = k;
        Ok(())
    }

    /// Reads parked slot `r` forward until it reaches the group's value or
    /// passes it, and returns whether it holds the value. `r` must be
    /// parked and outside the group's mask. A hit joins the group; a slot
    /// that runs dry closes.
    ///
    /// One scan: the cursor is borrowed once, each read is ordered against
    /// the group by its key, and the counters are written once at the end.
    fn probe(&mut self, r: usize, group: &mut Group, metrics: &mut RunMetrics) -> Result<bool> {
        if self.missed[r] == group.ordinal {
            return Ok(false);
        }
        let mut k = self.keys[r];
        let cursor = self.parked_cursor(r);
        let (mut reads, mut bytes) = (0u64, 0u64);
        // `Some(holds)` where the cursor reached or passed the value,
        // `None` where it ran dry.
        let outcome = loop {
            match group.value.order(k, cursor) {
                Ordering::Less => match cursor.advance() {
                    Ok(true) => {
                        k = key(cursor.current());
                        reads += 1;
                        bytes += u64::from(k.1);
                    }
                    Ok(false) => break Ok(None),
                    Err(e) => break Err(e),
                },
                Ordering::Equal => break Ok(Some(true)),
                Ordering::Greater => break Ok(Some(false)),
            }
        };
        self.keys[r] = k;
        metrics.items_read += reads;
        metrics.parked_reads += reads;
        metrics.value_bytes_read += bytes;
        match outcome? {
            Some(true) => {
                group.join(r);
                Ok(true)
            }
            Some(false) => {
                self.missed[r] = group.ordinal;
                Ok(false)
            }
            None => {
                self.close(r);
                Ok(false)
            }
        }
    }

    /// Whether reference `r`, outside the group's mask, holds the group's
    /// value once the group is complete, asked while member `a` is
    /// settled. A parked `r` is probed. A slot in the tree joins the group
    /// after `a` when it is above `a` and stands on the value; one below
    /// `a` outside the mask is not in the group.
    fn joins(
        &mut self,
        a: usize,
        r: usize,
        group: &mut Group,
        metrics: &mut RunMetrics,
    ) -> Result<bool> {
        if self.is_parked(r) {
            return self.probe(r, group, metrics);
        }
        Ok(r > a
            && self.open[r]
                .as_ref()
                .is_some_and(|cursor| group.value.holds(self.keys[r], cursor)))
    }
}

/// The group being gathered: its members so far (then the parked
/// references its probes found on its value), their bitmask (cleared after
/// every group), its value and its ordinal.
struct Group {
    members: Vec<u32>,
    mask: Vec<u64>,
    value: GroupValue,
    ordinal: u64,
}

impl Group {
    fn new(n: usize, words: usize) -> Self {
        Group {
            members: Vec::with_capacity(n),
            // lint: allow(hot_alloc) — setup phase, counted per-run allocation
            mask: vec![0; words],
            value: GroupValue::default(),
            ordinal: 0,
        }
    }

    #[inline]
    fn join(&mut self, a: usize) {
        self.members.push(a as u32);
        self.mask[a / 64] |= 1u64 << (a % 64);
    }

    fn clear(&mut self) {
        for &a in &self.members {
            self.mask[a as usize / 64] = 0;
        }
        self.members.clear();
        self.ordinal += 1;
    }
}

/// The value of the group being gathered, as the key of the member that
/// defined it — which settles most tests — plus, for a value longer than
/// 8 bytes, an owned copy of its bytes past the prefix: that member has
/// moved on by the time later members are tested against it. A test
/// takes a slot's key and cursor and reads the cursor's bytes only when
/// the keys cannot decide. The tallies count those tests like the tree
/// counts its matches.
#[derive(Default)]
struct GroupValue {
    key: Key,
    tail: Vec<u8>,
    key_compares: u64,
    memcmp_compares: u64,
}

impl GroupValue {
    /// Makes the value `cursor` stands on, whose key is `k`, the group's.
    fn set(&mut self, k: Key, cursor: &impl ValueCursor) {
        self.key = k;
        self.tail.clear();
        if k.1 > 8 {
            self.tail.extend_from_slice(&cursor.current()[8..]);
        }
    }

    /// Whether the value `cursor` stands on, whose key is `k`, is the
    /// group's.
    #[inline]
    fn holds(&mut self, k: Key, cursor: &impl ValueCursor) -> bool {
        if k != self.key || k.1 <= 8 {
            self.key_compares += 1;
            return k == self.key;
        }
        self.memcmp_compares += 1;
        cursor.current()[8..] == self.tail[..]
    }

    /// How the value `cursor` stands on, whose key is `k`, orders against
    /// the group's.
    #[inline]
    fn order(&mut self, k: Key, cursor: &impl ValueCursor) -> Ordering {
        match compare_keys(k, self.key) {
            Some(order) => {
                self.key_compares += 1;
                order
            }
            None => {
                self.memcmp_compares += 1;
                cursor.current()[8..].cmp(&self.tail[..])
            }
        }
    }
}

/// Whether dependent `a`, the member just found, keeps a reference once
/// its group is complete: one of the members gathered so far (the mask),
/// or a reference that joins the group ([`Slots::joins`]). Every reference
/// tested and missed is refuted when the group closes, so the scan costs
/// at most one test per refutation beyond the hit.
fn meets_group<C: ValueCursor>(
    a: usize,
    row: &[u64],
    slots: &mut Slots<C>,
    group: &mut Group,
    metrics: &mut RunMetrics,
) -> Result<bool> {
    if row.iter().zip(&group.mask).any(|(r, m)| r & m != 0) {
        return Ok(true);
    }
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let r = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if slots.joins(a, r, group, metrics)? {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Marks every surviving candidate of dependent `d` satisfied: scans its
/// bitset row (the exact `words`-long sub-slice for `d`), emits the
/// candidates, releases the reference-usage counts, and clears the row.
///
/// A parked reference whose last dependent is `d` closes, and one below
/// `d` reads one more value first: `d` runs dry on the value the reference
/// stands on, and the tree advances a group's members in slot order, so it
/// would have moved that reference past the value before `d` ran dry.
fn satisfy_survivors<C: ValueCursor>(
    d: usize,
    ids: &CompactIds,
    row: &mut [u64],
    usage: &mut [u32],
    satisfied: &mut Vec<Candidate>,
    slots: &mut Slots<C>,
    metrics: &mut RunMetrics,
) -> Result<()> {
    for (w, word) in row.iter_mut().enumerate() {
        let mut bits = *word;
        *word = 0;
        while bits != 0 {
            let r = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            satisfied.push(Candidate::new(ids.id(d), ids.id(r)));
            if usage[r] == 1 && r < d && slots.is_parked(r) {
                slots.read_parked(r, metrics)?;
            }
            slots.release(r, usage);
        }
    }
    Ok(())
}

/// The tree's tie callback: the current values of slots `a` and `b`
/// compared in full. [`TournamentTree`] consults it only when the two
/// normalized keys it stores cannot tell the values apart, and breaks a
/// remaining tie by slot itself.
fn by_value<C: ValueCursor>(slots: &Slots<C>) -> impl Fn(u32, u32) -> Ordering + '_ {
    move |a, b| {
        let value = |slot: u32| slots.cursor(slot as usize).current();
        value(a).cmp(value(b))
    }
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

    /// Value sets of the pinned comparison counts: short values their keys
    /// settle, `accession-NNNN` values that share the whole key window, a
    /// zero-padding tie (`"7"` vs `"7\0"`), a duplicate set and an empty one.
    fn pinned_sets() -> Vec<Vec<String>> {
        let ids = |r: std::ops::Range<u32>, step: usize| -> Vec<String> {
            r.step_by(step).map(|i| format!("{i:03}")).collect()
        };
        let accessions = |r: std::ops::Range<u32>, step: usize| -> Vec<String> {
            r.step_by(step)
                .map(|i| format!("accession-{i:04}"))
                .collect()
        };
        vec![
            ids(0..120, 1),
            ids(0..120, 3),
            ids(30..90, 6),
            accessions(0..200, 1),
            accessions(0..200, 4),
            accessions(40..160, 8),
            accessions(0..200, 1),
            vec!["7".into(), "7\0".into(), "accession-".into()],
            vec![],
        ]
    }

    fn pinned_fixture() -> MemoryProvider {
        MemoryProvider::new(
            pinned_sets()
                .into_iter()
                .map(|values| {
                    MemoryValueSet::from_unsorted(values.into_iter().map(String::into_bytes))
                })
                .collect(),
        )
    }

    /// [`pinned_sets`] as a database: one nullable text column per set, in
    /// its own table, so attribute `i` holds set `i` (the empty one as a
    /// NULL).
    fn pinned_database() -> ind_storage::Database {
        use ind_storage::{ColumnSchema, DataType, Database, Table, TableSchema, Value};
        let mut db = Database::new("pinned");
        for (i, values) in pinned_sets().into_iter().enumerate() {
            let schema = TableSchema::new(
                format!("t{i}"),
                vec![ColumnSchema::new("v", DataType::Text)],
            )
            .unwrap();
            let mut table = Table::new(schema);
            if values.is_empty() {
                table.insert(vec![Value::Null]).unwrap();
            }
            for v in values {
                table.insert(vec![v.into()]).unwrap();
            }
            db.add_table(table).unwrap();
        }
        db
    }

    #[test]
    fn comparison_work_is_pinned() {
        // The merge's work on a fixed input, to the comparison: the counts
        // of a tournament tree that replays each member where it is found,
        // plus one group test per member. A change of tree shape or
        // comparison sequence moves them and has to update them on purpose
        // (and say so in CHANGES.md).
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
        // The fixture is the tree's worst case: nine cursors, so a replay
        // is short, and most values share the eight-byte window
        // (`accession-…`), so nearly every match and group test needs the
        // bytes. Reference-only cursors leave the tree once they win, and
        // their probes are counted like group tests.
        assert_eq!((m.key_compares, m.memcmp_compares), (432, 1350));
    }

    #[test]
    fn comparison_work_is_pinned_on_disk_too() {
        // The pinned fixture exported to value files and merged through the
        // block reader. A fill moves the bytes under every `current()` slice
        // (at 32 B nearly every read fills), so the same answer and the same
        // counts show that no key outlives the bytes it was taken from.
        use ind_valueset::{ExportOptions, ExportedDatabase};
        let db = pinned_database();
        let mut m_mem = RunMetrics::new();
        let expected = run_spider(&pinned_fixture(), &all_pairs(9), &mut m_mem).unwrap();
        for block_size in [32, 8 << 10] {
            let dir = ind_testkit::TempDir::new("spider-pinned-disk");
            let mut options = ExportOptions::with_block_size(block_size);
            options.threads = 1;
            let export = ExportedDatabase::export(&db, dir.path(), &options).unwrap();
            let mut m = RunMetrics::new();
            let found = run_spider(&export, &all_pairs(9), &mut m).unwrap();
            assert_eq!(found, expected, "block {block_size}");
            assert_eq!(
                (m.items_read, m.value_bytes_read, m.comparisons),
                (638, 7033, 662),
                "block {block_size}"
            );
            assert_eq!(
                (m.key_compares, m.memcmp_compares),
                (432, 1350),
                "block {block_size}"
            );
        }
    }

    #[test]
    fn a_parked_reference_below_its_last_dependent_reads_one_more_value() {
        // `dep` ⊆ `refd`, and `refd` has no candidate of its own, so it is
        // parked from its first value on. `dep` runs dry on "b", where its
        // probe left `refd` standing. A tree advances the members of the
        // "b" group in slot order: a reference below `dep` has read "c"
        // before `dep` runs dry, one above it has not. The parked
        // reference reads exactly what the tree would have.
        let dep = set(&["a", "b"]);
        let refd = set(&["a", "b", "c", "d", "e"]);
        for (refd_below, sets, candidate, reads, parked) in [
            (
                true,
                vec![refd.clone(), dep.clone()],
                Candidate::new(1, 0),
                5,
                2,
            ),
            (
                false,
                vec![dep.clone(), refd.clone()],
                Candidate::new(0, 1),
                4,
                1,
            ),
        ] {
            let provider = MemoryProvider::new(sets);
            let mut m = RunMetrics::new();
            let found = run_spider(&provider, &[candidate], &mut m).unwrap();
            let mut m_bf = RunMetrics::new();
            let bf = run_brute_force(&provider, &[candidate], &mut m_bf).unwrap();
            assert_eq!(found, bf, "refd below dep: {refd_below}");
            assert_eq!(found, vec![candidate]);
            assert_eq!(m.items_read, reads, "refd below dep: {refd_below}");
            assert_eq!(m.parked_reads, parked, "refd below dep: {refd_below}");
        }
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
