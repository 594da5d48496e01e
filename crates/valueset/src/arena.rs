//! The unsorted-value buffer under both sorters.
//!
//! Values land back to back in one bump buffer (`bytes`) addressed by a
//! flat `(prefix, offset, len)` index — not one heap `Vec<u8>` per value.
//! `(prefix, len)` is the value's normalized key
//! ([`crate::key_prefix64`], [`crate::compare_keys`]), derived once when
//! the value is recorded, so sorting permutes the index comparing integers
//! that sit in the entries it is moving and dereferences into the buffer
//! only when the keys cannot tell two values apart;
//! duplicate elimination rewrites the index without touching the bytes.
//! This is the crate's one in-memory sort/dedup: [`crate::ExternalSorter`]
//! wraps it in a memory budget and spills it to disk, the in-memory set
//! builder (`crate::memory`) compacts it into a [`crate::MemoryValueSet`].
//!
//! Growth policy is the owner's business (the sorter clamps it to its
//! budget, the memory builder lets `Vec` double), so both vectors are open
//! to the crate; what lives here is the addressing and the order.

use crate::heap::{compare_keys, key_prefix64};
use std::cmp::Ordering;

/// One value in the arena: `bytes[offset..offset + len]`, with its
/// normalized key cached beside the address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    prefix: u64,
    offset: u32,
    len: u32,
}

impl Entry {
    #[inline]
    fn slice<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.offset as usize..self.offset as usize + self.len as usize]
    }

    /// Orders two entries like their values: by the keys cached in the
    /// entries, reading `bytes` only when the keys cannot tell.
    #[inline]
    fn cmp(&self, other: &Entry, bytes: &[u8]) -> Ordering {
        compare_keys((self.prefix, self.len), (other.prefix, other.len))
            .unwrap_or_else(|| self.slice(bytes).cmp(other.slice(bytes)))
    }
}

/// Bytes one index entry occupies (what the sorter's budget charges).
pub(crate) const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

/// Unsorted (after [`ValueArena::sort_dedup`]: sorted, distinct) values in
/// one buffer plus an index.
#[derive(Debug, Default)]
pub(crate) struct ValueArena {
    /// The value bytes, back to back in push order; callers append a value
    /// here and then [`record`](Self::record) it.
    pub(crate) bytes: Vec<u8>,
    /// One entry per recorded value; the order of the set.
    pub(crate) index: Vec<Entry>,
}

impl ValueArena {
    /// Records `bytes[offset..]` — the value the caller just appended — in
    /// the index and returns its length; `None` (nothing recorded) when the
    /// value does not fit the index's 32-bit addressing.
    #[inline]
    pub(crate) fn record(&mut self, offset: usize) -> Option<usize> {
        let value = &self.bytes[offset..];
        let len = value.len();
        self.index.push(Entry {
            prefix: key_prefix64(value),
            offset: u32::try_from(offset).ok()?,
            len: u32::try_from(len).ok()?,
        });
        Some(len)
    }

    /// Sorts the index by value bytes and removes duplicate values in
    /// place; the bytes are never moved, and only read for pairs of values
    /// that share their first eight bytes and both run past them.
    pub(crate) fn sort_dedup(&mut self) {
        let bytes = &self.bytes;
        self.index.sort_unstable_by(|a, b| a.cmp(b, bytes));
        self.index
            .dedup_by(|a, b| a.cmp(b, bytes) == Ordering::Equal);
    }

    /// The `i`-th value in index order.
    #[inline]
    pub(crate) fn value(&self, i: usize) -> &[u8] {
        self.index[i].slice(&self.bytes)
    }

    /// Every value in index order.
    pub(crate) fn values(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        self.index.iter().map(|e| e.slice(&self.bytes))
    }

    /// Forgets every value, keeping both capacities warm.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_of(values: &[&[u8]]) -> ValueArena {
        let mut arena = ValueArena::default();
        for v in values {
            let offset = arena.bytes.len();
            arena.bytes.extend_from_slice(v);
            assert_eq!(arena.record(offset), Some(v.len()));
        }
        arena
    }

    #[test]
    fn sort_dedup_orders_bytewise_and_keeps_the_empty_value() {
        let mut arena = arena_of(&[b"b", b"", b"ab", b"a", b"b", b"", b"a\x00", b"\xff"]);
        arena.sort_dedup();
        let got: Vec<&[u8]> = arena.values().collect();
        let want: [&[u8]; 6] = [b"", b"a", b"a\x00", b"ab", b"b", b"\xff"];
        assert_eq!(got, want);
        assert_eq!(arena.value(2), b"a\x00");
        arena.clear();
        assert_eq!(arena.values().len(), 0);
    }
}
