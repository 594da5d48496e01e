//! In-memory value sets — what `IndFinder::run` in memory, the CLI's
//! default path, runs the merge over, and what tests and the discovery
//! heuristics build small sets with.
//!
//! # Flat layout
//!
//! A [`MemoryValueSet`] is two allocations behind one `Arc`: every value's
//! bytes back to back in one buffer, and an offsets vector with one entry
//! per value plus a final one, so value `i` is
//! `bytes[offsets[i]..offsets[i + 1]]`. There is no `Vec` per value: a set
//! of a million values drops in O(1), and a merge that walks it touches
//! consecutive cache lines.
//!
//! # The cursor caches its range
//!
//! [`MemoryCursor`] resolves the current value's `[start, end)` once, in
//! `advance`, so `current()` is a single slice of the byte buffer.
//! The SPIDER merge calls `current()` several times per value read — the
//! test that puts a value in its group, the key of the cursor's next
//! value, both sides of every comparison the keys cannot settle — while it
//! advances once per value; looking the offsets up inside `current()`
//! made that merge measurably slower than the per-value-`Vec` layout it
//! replaced, caching them makes it faster.
//!
//! # One pass, one copy
//!
//! Sets are built by the crate-private `MemorySetBuilder` over the shared
//! value index (`crate::arena`, the same index the external sorter sorts):
//! repeats are dropped from the index by hash, the distinct values left
//! are sorted in place, and they are compacted into the flat set. A stored
//! column's cells are indexed where they lie in the column's own buffer,
//! so the copy into the finished set is the only one a value ever takes; values that are stored nowhere yet
//! (composite tuples, [`MemoryValueSet::from_unsorted`]) are rendered into
//! the builder's arena first. A builder is reused across columns — its
//! index and hash table stay warm — so extracting a column costs the set's
//! two buffers and nothing per cell.

use crate::arena::{self, Entry, ValueArena};
use crate::cursor::{ValueCursor, ValueSetProvider};
use crate::error::{Result, ValueSetError};
use std::fmt;
use std::sync::Arc;

/// The storage behind a set and its cursors. Invariants: `offsets` is
/// non-decreasing, starts at 0, ends at `bytes.len()`, and consecutive
/// values are strictly increasing.
#[derive(Debug)]
struct FlatSet {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl FlatSet {
    #[inline]
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn range(&self, i: usize) -> (usize, usize) {
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }

    #[inline]
    fn value(&self, i: usize) -> &[u8] {
        let (start, end) = self.range(i);
        &self.bytes[start..end]
    }

    /// Lays `values` (`total` bytes in all) out back to back. The caller
    /// vouches for the invariants: strictly increasing, `total` at most
    /// `u32::MAX`.
    fn flatten<'a>(total: usize, values: impl ExactSizeIterator<Item = &'a [u8]>) -> Self {
        debug_assert!(u32::try_from(total).is_ok(), "caller bounds the total");
        let mut bytes = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(values.len() + 1);
        offsets.push(0);
        for value in values {
            bytes.extend_from_slice(value);
            offsets.push(bytes.len() as u32);
        }
        FlatSet { bytes, offsets }
    }
}

/// The flat set's 32-bit offsets bound one set's value bytes.
fn too_large() -> ValueSetError {
    ValueSetError::Corrupt {
        context: "in-memory value set".into(),
        detail: "more than u32::MAX value bytes in one attribute; use the on-disk pipeline".into(),
    }
}

/// A sorted, duplicate-free value set held in memory. Cheap to clone.
#[derive(Debug, Clone)]
pub struct MemoryValueSet {
    flat: Arc<FlatSet>,
}

impl MemoryValueSet {
    /// Builds a set from arbitrary (unsorted, possibly duplicated) values —
    /// the in-memory analogue of `SELECT DISTINCT … ORDER BY …`.
    ///
    /// # Panics
    /// When the values total more than `u32::MAX` bytes.
    pub fn from_unsorted<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Vec<u8>>,
    {
        let mut builder = MemorySetBuilder::default();
        for value in values {
            let value: Vec<u8> = value.into();
            builder
                .push_with(|bytes| bytes.extend_from_slice(&value))
                // lint: allow(no_unwrap) — documented panic: an infallible convenience constructor for sets far below 4 GiB
                .expect("value set exceeds u32::MAX bytes");
        }
        builder.finish()
    }

    /// Wraps values that are already sorted and distinct; validated.
    pub fn from_sorted_distinct(values: Vec<Vec<u8>>) -> Result<Self> {
        for w in values.windows(2) {
            if w[0] >= w[1] {
                return Err(ValueSetError::Unsorted {
                    context: "MemoryValueSet::from_sorted_distinct".into(),
                });
            }
        }
        let total: usize = values.iter().map(Vec::len).sum();
        u32::try_from(total).map_err(|_| too_large())?;
        Ok(MemoryValueSet {
            flat: Arc::new(FlatSet::flatten(total, values.iter().map(Vec::as_slice))),
        })
    }

    /// Number of values.
    pub fn len(&self) -> u64 {
        self.flat.len() as u64
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.flat.len() == 0
    }

    /// A fresh cursor positioned before the first value.
    pub fn cursor(&self) -> MemoryCursor {
        MemoryCursor {
            flat: Arc::clone(&self.flat),
            pos: 0,
            start: 0,
            end: 0,
        }
    }

    /// Borrowed view of the values, in order.
    pub fn as_slice(&self) -> FlatValues<'_> {
        FlatValues { flat: &self.flat }
    }
}

/// A borrowed, slice-like view of a [`MemoryValueSet`]'s values in sorted
/// order: iterable (`&[u8]` items), indexable through [`get`](Self::get),
/// and comparable with a `Vec<Vec<u8>>` of the same values.
#[derive(Clone, Copy)]
pub struct FlatValues<'a> {
    flat: &'a FlatSet,
}

impl<'a> FlatValues<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// True when there are no values.
    pub fn is_empty(&self) -> bool {
        self.flat.len() == 0
    }

    /// The `i`-th smallest value.
    pub fn get(&self, i: usize) -> Option<&'a [u8]> {
        (i < self.len()).then(|| self.flat.value(i))
    }

    /// The smallest value.
    pub fn first(&self) -> Option<&'a [u8]> {
        self.get(0)
    }

    /// The largest value.
    pub fn last(&self) -> Option<&'a [u8]> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// The values in increasing order.
    pub fn iter(&self) -> FlatValuesIter<'a> {
        FlatValuesIter {
            bytes: &self.flat.bytes,
            ranges: self.flat.offsets.windows(2),
        }
    }

    /// The values copied out, one vector each (tests and tooling; nothing
    /// on the extraction or merge path calls this).
    pub fn to_vec(&self) -> Vec<Vec<u8>> {
        // lint: allow(hot_alloc) — the explicit copy-out for callers that want owned vectors; never on the pipeline's path
        self.iter().map(<[u8]>::to_vec).collect()
    }
}

impl<'a> IntoIterator for FlatValues<'a> {
    type Item = &'a [u8];
    type IntoIter = FlatValuesIter<'a>;

    fn into_iter(self) -> FlatValuesIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`FlatValues`] view.
#[derive(Debug, Clone)]
pub struct FlatValuesIter<'a> {
    bytes: &'a [u8],
    ranges: std::slice::Windows<'a, u32>,
}

impl<'a> Iterator for FlatValuesIter<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        let range = self.ranges.next()?;
        Some(&self.bytes[range[0] as usize..range[1] as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ranges.size_hint()
    }
}

impl ExactSizeIterator for FlatValuesIter<'_> {}

impl fmt::Debug for FlatValues<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for FlatValues<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Flattening is canonical: equal value sequences have equal
        // buffers and equal offsets.
        self.flat.offsets == other.flat.offsets && self.flat.bytes == other.flat.bytes
    }
}

impl PartialEq<[Vec<u8>]> for FlatValues<'_> {
    fn eq(&self, other: &[Vec<u8>]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_slice())
    }
}

impl PartialEq<FlatValues<'_>> for Vec<Vec<u8>> {
    fn eq(&self, other: &FlatValues<'_>) -> bool {
        other == self.as_slice()
    }
}

/// Builds [`MemoryValueSet`]s from unsorted values: push, then
/// [`finish`](Self::finish) — or, for values that already lie in a buffer,
/// [`resident`](Self::resident). The builder keeps its index, hash table
/// and arena across sets, so one builder per worker makes the steady-state
/// cost of another column the finished set's own two buffers.
#[derive(Debug, Default)]
pub(crate) struct MemorySetBuilder {
    arena: ValueArena,
}

impl MemorySetBuilder {
    /// Adds one value by rendering it directly into the arena; `render`
    /// must only append (the same contract as
    /// [`ExternalSorter::push_with`](crate::ExternalSorter::push_with)).
    #[inline]
    pub(crate) fn push_with(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let offset = self.arena.bytes.len();
        render(&mut self.arena.bytes);
        debug_assert!(self.arena.bytes.len() >= offset, "render must only append");
        // The flat set stores u32 *ends*: bound where this value stops,
        // not just where it starts.
        if u32::try_from(self.arena.bytes.len()).is_err() {
            return Err(too_large());
        }
        self.arena.record(offset).map(drop).ok_or_else(too_large)
    }

    /// Sorts and deduplicates what was pushed, compacts the survivors into
    /// a flat set, and resets the builder (keeping its capacity).
    pub(crate) fn finish(&mut self) -> MemoryValueSet {
        let set = compact(
            &mut self.arena.index,
            &self.arena.bytes,
            &mut self.arena.table,
        );
        self.arena.clear();
        set
    }

    /// Starts a set of up to `rows` values that already lie in `bytes` (a
    /// stored column's buffer): each is [`record`](ResidentSet::record)ed as
    /// an index entry pointing into `bytes`, and nothing is copied before
    /// the finished set. The index is sized here, once.
    pub(crate) fn resident<'a>(&'a mut self, bytes: &'a [u8], rows: usize) -> ResidentSet<'a> {
        debug_assert!(self.arena.index.is_empty(), "one set at a time");
        self.arena.index.reserve(rows);
        ResidentSet {
            index: &mut self.arena.index,
            table: &mut self.arena.table,
            bytes,
        }
    }
}

/// A set under construction over borrowed bytes
/// ([`MemorySetBuilder::resident`]).
pub(crate) struct ResidentSet<'a> {
    index: &'a mut Vec<Entry>,
    table: &'a mut Vec<u32>,
    bytes: &'a [u8],
}

impl ResidentSet<'_> {
    /// Adds `cell`, which lies at `offset` of the set's buffer (unsorted,
    /// duplicates welcome).
    #[inline]
    pub(crate) fn record(&mut self, offset: usize, cell: &[u8]) -> Result<()> {
        self.index
            .push(Entry::resident(offset, cell, self.bytes).ok_or_else(too_large)?);
        Ok(())
    }

    /// Values recorded so far, duplicates included.
    pub(crate) fn recorded(&self) -> u64 {
        self.index.len() as u64
    }

    /// Sorts and deduplicates what was recorded, compacts the survivors
    /// into a flat set, and leaves the builder empty and warm.
    pub(crate) fn finish(self) -> MemoryValueSet {
        let set = compact(self.index, self.bytes, self.table);
        self.index.clear();
        set
    }
}

/// Sorts and deduplicates `index` over `bytes` (repeats dropped by hash
/// through `table` first) and lays the surviving values out as a flat set
/// — the one copy a value takes.
fn compact(index: &mut Vec<Entry>, bytes: &[u8], table: &mut Vec<u32>) -> MemoryValueSet {
    arena::sort_dedup(index, bytes, table, arena::table_slots(index.len()));
    // Survivors are disjoint pieces of a buffer within u32 addressing, so
    // their total fits a u32.
    let total = arena::values(index, bytes).map(<[u8]>::len).sum();
    MemoryValueSet {
        flat: Arc::new(FlatSet::flatten(total, arena::values(index, bytes))),
    }
}

/// Cursor over a [`MemoryValueSet`].
#[derive(Debug, Clone)]
pub struct MemoryCursor {
    flat: Arc<FlatSet>,
    /// Number of values already produced; `0` means before the first.
    pos: usize,
    /// Byte range of the current value, resolved by `advance` so `current()`
    /// does no offset lookup (see the module docs).
    start: usize,
    end: usize,
}

impl ValueCursor for MemoryCursor {
    #[inline]
    fn advance(&mut self) -> Result<bool> {
        if self.pos >= self.flat.len() {
            return Ok(false);
        }
        (self.start, self.end) = self.flat.range(self.pos);
        self.pos += 1;
        Ok(true)
    }

    #[inline]
    fn current(&self) -> &[u8] {
        debug_assert!(self.pos > 0, "current() before first advance()");
        &self.flat.bytes[self.start..self.end]
    }

    fn remaining(&self) -> u64 {
        (self.flat.len() - self.pos) as u64
    }

    fn len(&self) -> u64 {
        self.flat.len() as u64
    }
}

/// A [`ValueSetProvider`] over in-memory sets, indexed by attribute id.
#[derive(Debug, Clone, Default)]
pub struct MemoryProvider {
    sets: Vec<MemoryValueSet>,
}

impl MemoryProvider {
    /// Builds a provider from per-attribute sets; attribute `i`'s id is `i`.
    pub fn new(sets: Vec<MemoryValueSet>) -> Self {
        MemoryProvider { sets }
    }

    /// The set behind attribute `id`.
    pub fn set(&self, id: u32) -> Option<&MemoryValueSet> {
        self.sets.get(id as usize)
    }
}

impl ValueSetProvider for MemoryProvider {
    type Cursor = MemoryCursor;

    fn open(&self, id: u32) -> Result<MemoryCursor> {
        self.sets
            .get(id as usize)
            .map(MemoryValueSet::cursor)
            .ok_or(ValueSetError::UnknownAttribute(id))
    }

    fn attribute_count(&self) -> usize {
        self.sets.len()
    }

    fn same_values(&self, a: u32, b: u32) -> Result<bool> {
        let set = |id: u32| self.set(id).ok_or(ValueSetError::UnknownAttribute(id));
        Ok(set(a)?.as_slice() == set(b)?.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect_cursor;

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let s =
            MemoryValueSet::from_unsorted(["b", "a", "b", "c", "a"].map(|x| x.as_bytes().to_vec()));
        assert_eq!(s.len(), 3);
        assert_eq!(
            collect_cursor(s.cursor()).unwrap(),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
    }

    #[test]
    fn from_sorted_distinct_validates() {
        assert!(MemoryValueSet::from_sorted_distinct(vec![b"a".to_vec(), b"a".to_vec()]).is_err());
        assert!(MemoryValueSet::from_sorted_distinct(vec![b"b".to_vec(), b"a".to_vec()]).is_err());
        assert!(MemoryValueSet::from_sorted_distinct(vec![b"a".to_vec(), b"b".to_vec()]).is_ok());
        assert!(MemoryValueSet::from_sorted_distinct(vec![]).is_ok());
    }

    #[test]
    fn cursor_protocol() {
        let s = MemoryValueSet::from_unsorted([b"x".to_vec()]);
        let mut c = s.cursor();
        assert_eq!(c.len(), 1);
        assert_eq!(c.remaining(), 1);
        assert!(c.advance().unwrap());
        assert_eq!(c.current(), b"x");
        assert_eq!(c.remaining(), 0);
        assert!(!c.advance().unwrap());
        assert!(!c.advance().unwrap(), "advance is idempotent at the end");
    }

    #[test]
    fn same_values_agrees_with_the_lockstep_default() {
        /// Forwards cursors only, so `same_values` is the trait default.
        struct CursorsOnly(MemoryProvider);
        impl ValueSetProvider for CursorsOnly {
            type Cursor = MemoryCursor;
            fn open(&self, id: u32) -> Result<MemoryCursor> {
                self.0.open(id)
            }
            fn attribute_count(&self) -> usize {
                self.0.attribute_count()
            }
        }
        let set = |values: &[&str]| {
            MemoryValueSet::from_unsorted(values.iter().map(|v| v.as_bytes().to_vec()))
        };
        let p = MemoryProvider::new(vec![
            set(&["a", "b"]),
            set(&["b", "a", "a"]),
            set(&["a", "c"]),
            set(&["a"]),
            set(&["ab"]),
            set(&[]),
            set(&[]),
        ]);
        let n = p.attribute_count() as u32;
        let lockstep = CursorsOnly(p.clone());
        for a in 0..n {
            for b in 0..n {
                let same = [(0, 1), (1, 0), (5, 6), (6, 5)].contains(&(a, b)) || a == b;
                assert_eq!(p.same_values(a, b).unwrap(), same, "{a} vs {b}");
                assert_eq!(lockstep.same_values(a, b).unwrap(), same, "{a} vs {b}");
            }
        }
        assert!(matches!(
            p.same_values(0, n),
            Err(ValueSetError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn provider_hands_out_independent_cursors() {
        let p = MemoryProvider::new(vec![
            MemoryValueSet::from_unsorted([b"a".to_vec(), b"b".to_vec()]),
            MemoryValueSet::from_unsorted([b"z".to_vec()]),
        ]);
        assert_eq!(p.attribute_count(), 2);
        let mut c1 = p.open(0).unwrap();
        let mut c2 = p.open(0).unwrap();
        c1.advance().unwrap();
        c1.advance().unwrap();
        c2.advance().unwrap();
        assert_eq!(c1.current(), b"b");
        assert_eq!(c2.current(), b"a", "cursors must not share position");
        assert!(matches!(p.open(9), Err(ValueSetError::UnknownAttribute(9))));
    }

    #[test]
    fn the_view_behaves_like_the_slice_it_replaced() {
        let s = MemoryValueSet::from_unsorted([b"b".to_vec(), b"".to_vec(), b"ab".to_vec()]);
        let view = s.as_slice();
        assert_eq!(view.len(), 3);
        assert_eq!(view.first(), Some(b"".as_slice()));
        assert_eq!(view.last(), Some(b"b".as_slice()));
        assert_eq!(view.get(1), Some(b"ab".as_slice()));
        assert_eq!(view.get(3), None);
        assert_eq!(view.iter().len(), 3);
        assert_eq!(view.into_iter().map(<[u8]>::len).sum::<usize>(), 3);
        let model = vec![b"".to_vec(), b"ab".to_vec(), b"b".to_vec()];
        assert_eq!(view.to_vec(), model);
        assert_eq!(model, view);
        assert_eq!(
            view,
            MemoryValueSet::from_sorted_distinct(model)
                .unwrap()
                .as_slice()
        );
        assert_ne!(
            view,
            MemoryValueSet::from_unsorted([b"bab".to_vec()]).as_slice()
        );

        let empty = MemoryValueSet::from_unsorted(Vec::<Vec<u8>>::new());
        assert!(empty.is_empty() && empty.as_slice().is_empty());
        assert_eq!(empty.as_slice().first(), None);
        assert_eq!(empty.as_slice().last(), None);
    }

    #[test]
    fn a_reused_builder_starts_every_set_clean() {
        let mut builder = MemorySetBuilder::default();
        for v in [b"q".as_slice(), b"p", b"q"] {
            builder
                .push_with(|bytes| bytes.extend_from_slice(v))
                .unwrap();
        }
        assert_eq!(
            builder.finish().as_slice().to_vec(),
            [b"p".to_vec(), b"q".to_vec()]
        );
        assert!(builder.finish().is_empty(), "nothing pushed, nothing kept");

        // A resident set in between: values indexed where they lie in a
        // borrowed buffer, gaps skipped, nothing left behind in the builder.
        let bytes = b"q-p-q";
        let mut set = builder.resident(bytes, 3);
        for offset in [0, 2, 4] {
            set.record(offset, &bytes[offset..offset + 1]).unwrap();
        }
        assert_eq!(set.recorded(), 3);
        assert_eq!(
            set.finish().as_slice().to_vec(),
            [b"p".to_vec(), b"q".to_vec()]
        );
        assert!(builder.resident(b"", 0).finish().is_empty());

        builder
            .push_with(|bytes| bytes.extend_from_slice(b"z"))
            .unwrap();
        assert_eq!(builder.finish().as_slice().to_vec(), [b"z".to_vec()]);
    }
}
