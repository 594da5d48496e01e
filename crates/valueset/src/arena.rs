//! The value index under both sorters.
//!
//! A value is a slice of one byte buffer, addressed by a flat
//! `(prefix, offset, len)` index — not one heap `Vec<u8>` per value.
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
//! The index does not own the bytes it addresses: [`sort_dedup`] and
//! [`values`] take them as a parameter. For a stored column they are the
//! column's own buffer ([`ind_storage::Column::bytes`]) — its cells already
//! lie back to back, so extraction indexes them where they lie and copies
//! nothing. Values that exist nowhere yet (composite tuples, `push`ed
//! values, `MemoryValueSet::from_unsorted`) are first appended to a
//! [`ValueArena`], the owned buffer beside an index.
//!
//! Growth policy is the owner's business (the sorter clamps it to its
//! budget, the memory builder lets `Vec` double), so both vectors are open
//! to the crate; what lives here is the addressing and the order.

use crate::heap::{compare_keys, key_prefix64};
use std::cmp::Ordering;

/// One value: `bytes[offset..offset + len]` of the buffer the index is
/// over, with its normalized key cached beside the address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    prefix: u64,
    offset: u32,
    len: u32,
}

impl Entry {
    /// The entry of `value`, which lies at `offset` of the indexed buffer;
    /// `None` when it does not fit the index's 32-bit addressing.
    #[inline]
    pub(crate) fn new(offset: usize, value: &[u8]) -> Option<Entry> {
        Some(Entry {
            prefix: key_prefix64(value),
            offset: u32::try_from(offset).ok()?,
            len: u32::try_from(value.len()).ok()?,
        })
    }

    /// [`Entry::new`] for a value that is already stored: `cell` is the
    /// slice of `bytes` — the buffer the index is over — starting at
    /// `offset`, so the entry addresses it in place.
    #[inline]
    pub(crate) fn resident(offset: usize, cell: &[u8], bytes: &[u8]) -> Option<Entry> {
        let entry = Entry::new(offset, cell)?;
        debug_assert!(
            std::ptr::eq(entry.slice(bytes), cell),
            "the cell lies at `offset` of the indexed buffer"
        );
        Some(entry)
    }

    /// The value this entry addresses in `bytes`.
    #[inline]
    pub(crate) fn slice<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
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

/// Sorts `index` by the values it addresses in `bytes` and removes
/// duplicate values in place; the bytes are never moved, and only read for
/// pairs of values that share their first eight bytes and both run past
/// them.
pub(crate) fn sort_dedup(index: &mut Vec<Entry>, bytes: &[u8]) {
    index.sort_unstable_by(|a, b| a.cmp(b, bytes));
    index.dedup_by(|a, b| a.cmp(b, bytes) == Ordering::Equal);
}

/// Every value `index` addresses in `bytes`, in index order.
pub(crate) fn values<'a>(
    index: &'a [Entry],
    bytes: &'a [u8],
) -> impl ExactSizeIterator<Item = &'a [u8]> + 'a {
    index.iter().map(move |e| e.slice(bytes))
}

/// An index beside a buffer of its own, for values that are not stored
/// anywhere yet: the caller appends a value to `bytes` and
/// [`record`](Self::record)s it.
#[derive(Debug, Default)]
pub(crate) struct ValueArena {
    /// The value bytes, back to back in push order.
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
        self.index.push(Entry::new(offset, value)?);
        Some(value.len())
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

    #[test]
    fn sort_dedup_orders_bytewise_and_keeps_the_empty_value() {
        let mut arena = ValueArena::default();
        for v in [&b"b"[..], b"", b"ab", b"a", b"b", b"", b"a\x00", b"\xff"] {
            let offset = arena.bytes.len();
            arena.bytes.extend_from_slice(v);
            assert_eq!(arena.record(offset), Some(v.len()));
        }
        sort_dedup(&mut arena.index, &arena.bytes);
        let got: Vec<&[u8]> = values(&arena.index, &arena.bytes).collect();
        let want: [&[u8]; 6] = [b"", b"a", b"a\x00", b"ab", b"b", b"\xff"];
        assert_eq!(got, want);
        assert_eq!(arena.index[2].slice(&arena.bytes), b"a\x00");
        arena.clear();
        assert_eq!(values(&arena.index, &arena.bytes).len(), 0);
    }

    #[test]
    fn an_index_over_borrowed_bytes_never_moves_them() {
        // The resident form: entries point into a buffer the index does
        // not own (a stored column's), gaps and all.
        let bytes = b"pear--apple-pear-fig";
        let mut index: Vec<Entry> = [(0, 4), (6, 5), (12, 4), (17, 3)]
            .iter()
            .map(|&(offset, len)| Entry::new(offset, &bytes[offset..offset + len]).unwrap())
            .collect();
        sort_dedup(&mut index, bytes);
        let got: Vec<&[u8]> = values(&index, bytes).collect();
        let want: [&[u8]; 3] = [b"apple", b"fig", b"pear"];
        assert_eq!(got, want);
        assert!(got
            .iter()
            .all(|v| bytes.as_ptr_range().contains(&v.as_ptr())));
    }

    #[test]
    fn an_entry_past_32_bit_addressing_is_refused() {
        assert!(Entry::new(u32::MAX as usize, b"x").is_some());
        assert!(Entry::new(u32::MAX as usize + 1, b"x").is_none());
    }
}
