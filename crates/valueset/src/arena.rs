//! The value index under both sorters.
//!
//! A value is a slice of one byte buffer, addressed by a flat
//! `(prefix, offset, len)` index — not one heap `Vec<u8>` per value.
//! `(prefix, len)` is the value's normalized key
//! ([`crate::key_prefix64`], [`crate::compare_keys`]), derived once when
//! the value is recorded, so sorting permutes the index comparing integers
//! that sit in the entries it is moving and dereferences into the buffer
//! only when the keys cannot tell two values apart.
//! This is the crate's one in-memory sort/dedup: [`crate::ExternalSorter`]
//! wraps it in a memory budget and spills it to disk, the in-memory set
//! builder (`crate::memory`) compacts it into a [`crate::MemoryValueSet`].
//!
//! # Repeats go before the sort
//!
//! A column repeats its values — a foreign key, a status code, a word list
//! — so [`sort_dedup`] first drops repeats by hash and sorts only the
//! distinct values that are left. One pass over the index probes an
//! open-addressing table of index positions (linear probing, at most half
//! full). The hash is the entry's cached key plus at most two more words
//! of the value (its last 8 bytes past 8 bytes, a middle word past 16), so
//! a value costs the same however long it is; a collision is settled by
//! the key and, past 8 bytes, `memcmp` — the equality the sort uses. Each
//! first occurrence is written back at the front of the same index, so the
//! survivors need no second vector, and a sort of distinct values needs no
//! dedup after it.
//!
//! The pass is bounded in memory and in work: the table has at most
//! [`TABLE_SLOTS`] slots (128 KiB), and the pass spends at most four slot
//! probes per entry in all. When the table is half full or the probes run
//! out the pass stops where it is, the entries it has not seen join the
//! survivors, and the sort is followed by the dedup — the same output, at
//! most O(n) work more than the plain sort, whatever the input.
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
//! budget and sizes the table only when it fits, the memory builder lets
//! `Vec` double), so the vectors are open to the crate; what lives here is
//! the addressing and the order.

use crate::tournament::{compare_keys, key_prefix64, KEY_WINDOW};
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

    /// True when the two entries address equal values: equal keys, and
    /// past the key window equal bytes.
    #[inline]
    fn same(&self, other: &Entry, bytes: &[u8]) -> bool {
        self.prefix == other.prefix
            && self.len == other.len
            && (self.len <= KEY_WINDOW
                || self.slice(bytes)[KEY_WINDOW as usize..]
                    == other.slice(bytes)[KEY_WINDOW as usize..])
    }

    /// The hash of the value: its key, then its last 8 bytes when it runs
    /// past the key window and a word from its middle past 16 bytes — at
    /// most three words, however long the value.
    #[inline]
    fn hash(&self, bytes: &[u8]) -> u64 {
        let mut h = fold(self.prefix, u64::from(self.len));
        if self.len > KEY_WINDOW {
            let value = self.slice(bytes);
            let word = |at: usize| {
                let mut word = [0; 8];
                word.copy_from_slice(&value[at..at + 8]);
                u64::from_le_bytes(word)
            };
            h = fold(h, word(value.len() - 8));
            if value.len() > 16 {
                h = fold(h, word(value.len() / 2 - 4));
            }
        }
        h
    }
}

/// One multiply-and-fold step of [`Entry::hash`]: the full 128-bit product
/// of `h ^ word` and an odd constant, its halves XOR-ed, so every input
/// bit reaches the low bits the table indexes by.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    let product = u128::from(h ^ word) * 0x9E37_79B9_7F4A_7C15;
    (product as u64) ^ ((product >> 64) as u64)
}

/// Bytes one index entry occupies (what the sorter's budget charges).
pub(crate) const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

/// Slots of the largest hash table: 32,768 index positions, 128 KiB.
pub(crate) const TABLE_SLOTS: usize = 1 << 15;

/// Bytes one table slot occupies (what the sorter's budget charges).
pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<u32>();

/// Slot probes the hash pass may spend per index entry, summed over the
/// pass: the bound on its work.
const PROBES_PER_ENTRY: usize = 4;

/// A table slot no entry holds.
const EMPTY: u32 = u32::MAX;

/// Table slots the hash pass over `entries` values uses: twice the count
/// rounded up to a power of two (the pass fills at most half), at most
/// [`TABLE_SLOTS`]; 0 — no pass — for fewer than two entries.
pub(crate) fn table_slots(entries: usize) -> usize {
    if entries < 2 {
        return 0;
    }
    (entries * 2).next_power_of_two().min(TABLE_SLOTS)
}

/// How [`sort_dedup`]'s hash pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HashPass {
    /// No table (0 slots): the whole index was sorted and deduplicated.
    Skipped,
    /// Every entry was seen: only distinct values were sorted.
    Complete,
    /// The table was half full: the entries not yet seen joined the
    /// survivors.
    TableFull,
    /// The probe budget ran out (values whose hashed words all agree): the
    /// entries not yet seen joined the survivors.
    ProbesSpent,
}

/// Sorts `index` by the values it addresses in `bytes` and removes
/// duplicate values in place; the bytes are never moved. With `slots` > 0
/// (a power of two, from [`table_slots`]) repeats are first dropped by
/// hash through `table`, which is resized to `slots` (its capacity is the
/// caller's to charge) and left holding the pass's positions.
pub(crate) fn sort_dedup(
    index: &mut Vec<Entry>,
    bytes: &[u8],
    table: &mut Vec<u32>,
    slots: usize,
) -> HashPass {
    let pass = if slots == 0 {
        HashPass::Skipped
    } else {
        drop_repeats(index, bytes, table, slots)
    };
    index.sort_unstable_by(|a, b| a.cmp(b, bytes));
    if pass != HashPass::Complete {
        index.dedup_by(|a, b| a.cmp(b, bytes) == Ordering::Equal);
    }
    pass
}

/// The hash pass: keeps the first occurrence of each value at the front of
/// `index`, in first-occurrence order, until the table is half full or the
/// probe budget is spent; then the entries not yet seen follow the kept
/// ones unexamined.
fn drop_repeats(
    index: &mut Vec<Entry>,
    bytes: &[u8],
    table: &mut Vec<u32>,
    slots: usize,
) -> HashPass {
    debug_assert!(slots.is_power_of_two() && slots <= TABLE_SLOTS);
    table.clear();
    table.reserve_exact(slots);
    table.resize(slots, EMPTY);
    let mask = slots - 1;
    let max_kept = slots / 2;
    let mut probes = PROBES_PER_ENTRY * index.len();
    let mut kept = 0;
    for read in 0..index.len() {
        let entry = index[read];
        let mut slot = entry.hash(bytes) as usize & mask;
        loop {
            if probes == 0 {
                return keep_unseen(index, kept, read, HashPass::ProbesSpent);
            }
            probes -= 1;
            let held = table[slot];
            if held == EMPTY {
                if kept == max_kept {
                    return keep_unseen(index, kept, read, HashPass::TableFull);
                }
                table[slot] = kept as u32;
                index[kept] = entry;
                kept += 1;
                break;
            }
            if index[held as usize].same(&entry, bytes) {
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    index.truncate(kept);
    HashPass::Complete
}

/// Moves the entries from `read` on — the ones the pass has not seen — to
/// follow the `kept` survivors, and drops the repeats between.
fn keep_unseen(index: &mut Vec<Entry>, kept: usize, read: usize, pass: HashPass) -> HashPass {
    let unseen = index.len() - read;
    index.copy_within(read.., kept);
    index.truncate(kept + unseen);
    pass
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
    /// [`sort_dedup`]'s hash table, kept warm across sorts.
    pub(crate) table: Vec<u32>,
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

    /// Forgets every value, keeping every capacity warm.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect_cursor;
    use ind_testkit::TempDir;
    use std::collections::BTreeSet;

    #[test]
    fn sort_dedup_orders_bytewise_and_keeps_the_empty_value() {
        let mut arena = ValueArena::default();
        for v in [&b"b"[..], b"", b"ab", b"a", b"b", b"", b"a\x00", b"\xff"] {
            let offset = arena.bytes.len();
            arena.bytes.extend_from_slice(v);
            assert_eq!(arena.record(offset), Some(v.len()));
        }
        let slots = table_slots(arena.index.len());
        sort_dedup(&mut arena.index, &arena.bytes, &mut arena.table, slots);
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
        sort_dedup(&mut index, bytes, &mut Vec::new(), table_slots(4));
        let got: Vec<&[u8]> = values(&index, bytes).collect();
        let want: [&[u8]; 3] = [b"apple", b"fig", b"pear"];
        assert_eq!(got, want);
        assert!(got
            .iter()
            .all(|v| bytes.as_ptr_range().contains(&v.as_ptr())));
    }

    /// `values` recorded in an arena, as the sorters record pushed values.
    fn arena_of(values: &[impl AsRef<[u8]>]) -> ValueArena {
        let mut arena = ValueArena::default();
        for v in values {
            let offset = arena.bytes.len();
            arena.bytes.extend_from_slice(v.as_ref());
            arena.record(offset).unwrap();
        }
        arena
    }

    /// [`sort_dedup`] of `values` with a table of `slots`: how the hash
    /// pass ended and the values left.
    fn dedup(input: &[impl AsRef<[u8]>], slots: usize) -> (HashPass, Vec<Vec<u8>>) {
        let mut arena = arena_of(input);
        let pass = sort_dedup(&mut arena.index, &arena.bytes, &mut arena.table, slots);
        (
            pass,
            values(&arena.index, &arena.bytes)
                .map(<[u8]>::to_vec)
                .collect(),
        )
    }

    /// The sorted distinct values, by `BTreeSet`.
    fn model(values: &[impl AsRef<[u8]>]) -> Vec<Vec<u8>> {
        let set: BTreeSet<Vec<u8>> = values.iter().map(|v| v.as_ref().to_vec()).collect();
        set.into_iter().collect()
    }

    /// Every caller of [`sort_dedup`] over `values` against the model: the
    /// memory builder (pushed and resident), the resident sorter in memory
    /// and spilling every 256 entries, and the pushed sorter (`push` and
    /// `push_with`) in memory and spilling.
    fn assert_every_caller_agrees(values: &[String]) {
        let want = model(values);
        let pushed = crate::MemoryValueSet::from_unsorted(values.iter().map(String::as_bytes));
        assert_eq!(pushed.as_slice().to_vec(), want, "memory builder, pushed");
        let cells: Vec<ind_storage::Value> = values.iter().map(|v| v.as_str().into()).collect();
        let column = ind_storage::Column::from_values(&cells);
        let resident = crate::extract_memory_set(&column);
        assert_eq!(
            resident.as_slice().to_vec(),
            want,
            "memory builder, resident"
        );

        let dir = TempDir::new("arena-callers");
        let read = |path: &std::path::Path| {
            collect_cursor(crate::ValueFileReader::open(path).unwrap()).unwrap()
        };
        for budget in [4096, crate::SortOptions::DEFAULT_MEMORY_BUDGET] {
            let options = crate::SortOptions::with_memory_budget(budget);
            let path = dir.join("resident.indv");
            let stats = crate::extract_to_file(&column, &path, &dir.join("spill"), options.clone())
                .unwrap();
            assert_eq!(read(&path), want, "resident sorter, budget {budget}");
            let spills = values.len() > budget / ENTRY_BYTES;
            assert_eq!(stats.runs > 0, spills, "resident sorter, budget {budget}");

            for with in [false, true] {
                let mut sorter =
                    crate::ExternalSorter::new(&dir.join("spill"), options.clone()).unwrap();
                for v in values {
                    if with {
                        sorter
                            .push_with(|arena| arena.extend_from_slice(v.as_bytes()))
                            .unwrap();
                    } else {
                        sorter.push(v.as_bytes()).unwrap();
                    }
                }
                let path = dir.join("pushed.indv");
                let mut writer = crate::ValueFileWriter::create(&path).unwrap();
                let stats = sorter.finish_into(&mut writer).unwrap();
                writer.finish().unwrap();
                assert_eq!(
                    read(&path),
                    want,
                    "pushed sorter (push_with: {with}), budget {budget}"
                );
                assert_eq!(stats.distinct, want.len() as u64);
            }
        }
    }

    #[test]
    fn the_hash_pass_equals_a_btreeset_around_the_word_edges() {
        // Lengths 0-40 cross the key window (8) and the hashed last and
        // middle words (past 8, past 16); NUL runs make values whose keys
        // agree ("a" vs "a\0"); every value comes twice, far apart.
        let mut values: Vec<String> = Vec::new();
        for len in 0..=40 {
            let a = "a".repeat(len);
            values.push(a.clone());
            values.push("\0".repeat(len));
            values.push(format!("{a}\0"));
            values.push(format!("b{}", "\0".repeat(len)));
            if len > 0 {
                values.push(format!("{}z", &a[1..]));
                values.push(format!("{}z{}", &a[..len / 2], &a[len / 2 + 1..]));
            }
        }
        values.extend(values.clone().into_iter().rev());
        let want = model(&values);
        assert_eq!(
            dedup(&values, table_slots(values.len())),
            (HashPass::Complete, want.clone())
        );
        assert_eq!(dedup(&values, 0), (HashPass::Skipped, want));
        assert_every_caller_agrees(&values);

        // All equal, all empty, none at all.
        for values in [
            vec!["same".to_string(); 500],
            vec![String::new(); 100],
            Vec::new(),
        ] {
            let want = model(&values);
            let pass = if values.is_empty() {
                HashPass::Skipped
            } else {
                HashPass::Complete
            };
            assert_eq!(dedup(&values, table_slots(values.len())), (pass, want));
            assert_every_caller_agrees(&values);
        }
    }

    #[test]
    fn more_distinct_values_than_the_table_holds_fall_back_to_the_dedup() {
        // 20,000 distinct values, each twice: the table (32,768 slots, half
        // of them usable) fills before the pass sees them all, and the
        // repeats it never saw are removed after the sort.
        let values: Vec<String> = (0..40_000).map(|i| format!("{:05}", i % 20_000)).collect();
        assert_eq!(table_slots(values.len()), TABLE_SLOTS);
        let (pass, got) = dedup(&values, TABLE_SLOTS);
        assert_eq!(pass, HashPass::TableFull);
        assert_eq!(got, model(&values));
        assert_every_caller_agrees(&values);
    }

    #[test]
    fn values_colliding_in_every_hashed_word_spend_the_probe_budget() {
        // 40-byte values that share their key, length, last 8 bytes and
        // middle word (bytes 16..24) and differ in bytes 8..32: every one
        // hashes alike, so each new value probes the whole cluster before
        // it, the probes run out, and the sort's dedup removes the second
        // copy of each of the 300 values.
        let values: Vec<String> = (0..600)
            .map(|i| format!("prefix--{:08}-middle-{:08}lastword", i % 300, i % 300 % 7))
            .collect();
        let entries: Vec<Entry> = values
            .iter()
            .map(|v| Entry::new(0, v.as_bytes()).unwrap())
            .collect();
        let hashes: BTreeSet<u64> = entries
            .iter()
            .zip(&values)
            .map(|(e, v)| e.hash(v.as_bytes()))
            .collect();
        assert_eq!(hashes.len(), 1, "every value hashes alike");
        let (pass, got) = dedup(&values, table_slots(values.len()));
        assert_eq!(pass, HashPass::ProbesSpent);
        assert_eq!(got, model(&values));
        assert_every_caller_agrees(&values);
    }

    #[test]
    fn an_entry_past_32_bit_addressing_is_refused() {
        assert!(Entry::new(u32::MAX as usize, b"x").is_some());
        assert!(Entry::new(u32::MAX as usize + 1, b"x").is_none());
    }
}
