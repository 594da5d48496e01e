//! A binary min-heap of `(key, slot)` entries: the normalized-key merge
//! heap under the SPIDER engine (slots = attribute cursors) and the
//! external sorter's spill merge (slots = run sources).
//!
//! Each entry carries the normalized key of the value its slot currently
//! stands on — the first eight bytes as an integer ([`key_prefix64`]) and
//! the length — derived **once**, when the value is first seen (a cursor's
//! `advance`), and stored in the heap array itself. A sift compares the
//! integers it finds in the array it is moving ([`compare_keys`]); only
//! when two values share their first eight bytes and both run past them
//! does it call back into the caller's state for the full values, and only
//! when those are equal too does the slot id decide. The heap order is
//! therefore `(value, slot)` — total and deterministic — while the values
//! themselves stay where they are (cursor buffers, arena slices) and are
//! never copied.
//!
//! The two tallies split the comparator traffic for the run report:
//! [`KeyedMinHeap::key_compares`] counts comparisons the keys settled,
//! [`KeyedMinHeap::memcmp_compares`] those that needed the values.

use std::cmp::Ordering;

/// Bytes of a value the normalized key holds.
const KEY_WINDOW: u32 = 8;

/// The first 8 bytes of `v`, zero-padded, as a big-endian integer — the
/// normalized key stored beside every [`KeyedMinHeap`] slot and every
/// sorter arena entry.
///
/// For two slices whose keys *differ*, comparing the keys as `u64`s
/// orders them exactly like `a.cmp(b)`: the first differing position is
/// inside the window, and zero-padding a short slice compares like the
/// proper prefix it is. A tie leaves the order to the lengths and the
/// tails — see [`compare_keys`].
#[inline]
pub fn key_prefix64(v: &[u8]) -> u64 {
    if let Some(head) = v.first_chunk::<8>() {
        return u64::from_be_bytes(*head);
    }
    let mut buf = [0u8; 8];
    buf[..v.len()].copy_from_slice(v);
    u64::from_be_bytes(buf)
}

/// A value's length as the keyed structures store it. Saturating: only
/// lengths up to the key window are ever told apart.
#[inline]
fn key_len(v: &[u8]) -> u32 {
    u32::try_from(v.len()).unwrap_or(u32::MAX)
}

/// Orders two values by their normalized keys alone — `(key_prefix64,
/// length)` each — or returns `None` when the keys cannot tell.
///
/// Differing prefixes order like the values. With equal prefixes, a value
/// of at most eight bytes is all in its key: the other value either equals
/// it (same length) or extends it — by NULs inside the window (`"a"` vs
/// `"a\0"`) or by a tail beyond it — so the lengths order the pair. Only
/// two values that share the whole window and both run past it need their
/// bytes compared.
#[inline]
pub fn compare_keys(a: (u64, u32), b: (u64, u32)) -> Option<Ordering> {
    if a.0 != b.0 {
        Some(a.0.cmp(&b.0))
    } else if a.1.min(b.1) <= KEY_WINDOW {
        Some(a.1.cmp(&b.1))
    } else {
        None
    }
}

/// One heap entry: the slot and the normalized key of its current value.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    prefix: u64,
    len: u32,
    slot: u32,
}

/// Binary min-heap over `u32` slots ordered by `(value, slot)`, where each
/// slot's value is represented in the heap by its normalized key.
///
/// [`push`](Self::push) and [`replace_top`](Self::replace_top) take the
/// slot's current value and keep only its key. Every mutating call also
/// takes `values(a, b)`, the full comparison of the current values of
/// slots `a` and `b`; it is consulted only for pairs whose keys cannot
/// tell them apart, and must agree with the values the keys were derived
/// from.
#[derive(Debug)]
pub struct KeyedMinHeap {
    entries: Vec<Keyed>,
    key_compares: u64,
    memcmp_compares: u64,
}

impl KeyedMinHeap {
    /// An empty heap with room for `n` slots (pushes within the capacity
    /// never allocate).
    pub fn with_capacity(n: usize) -> Self {
        KeyedMinHeap {
            entries: Vec::with_capacity(n),
            key_compares: 0,
            memcmp_compares: 0,
        }
    }

    /// The minimum entry as `(key_prefix64 of its value, slot)`, if any,
    /// without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u64, u32)> {
        self.entries.first().map(|e| (e.prefix, e.slot))
    }

    /// Comparisons settled by the stored keys alone.
    pub fn key_compares(&self) -> u64 {
        self.key_compares
    }

    /// Comparisons the keys could not settle and that consulted the values.
    pub fn memcmp_compares(&self) -> u64 {
        self.memcmp_compares
    }

    /// `entries[i] < entries[j]` in `(value, slot)` order: [`compare_keys`],
    /// then the values, then the slots — spelled out as `<` tests because
    /// this is the merge's innermost function and building the three-way
    /// `Ordering` first cost the pdb merge 7 %.
    #[inline]
    fn less(&mut self, i: usize, j: usize, values: &impl Fn(u32, u32) -> Ordering) -> bool {
        let (a, b) = (self.entries[i], self.entries[j]);
        if a.prefix != b.prefix {
            self.key_compares += 1;
            return a.prefix < b.prefix;
        }
        if a.len.min(b.len) <= KEY_WINDOW {
            self.key_compares += 1;
            return (a.len, a.slot) < (b.len, b.slot);
        }
        self.memcmp_compares += 1;
        match values(a.slot, b.slot) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.slot < b.slot,
        }
    }

    /// Inserts `slot`, which currently stands on `value`.
    pub fn push(&mut self, slot: u32, value: &[u8], values: impl Fn(u32, u32) -> Ordering) {
        self.entries.push(Keyed {
            prefix: key_prefix64(value),
            len: key_len(value),
            slot,
        });
        let mut i = self.entries.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent, &values) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// The root slot moved on to `value`: restores heap order — the k-way
    /// merge's replace-top, cheaper than pop + push. The heap must not be
    /// empty.
    pub fn replace_top(&mut self, value: &[u8], values: impl Fn(u32, u32) -> Ordering) {
        let root = &mut self.entries[0];
        (root.prefix, root.len) = (key_prefix64(value), key_len(value));
        self.sift_root(&values);
    }

    fn sift_root(&mut self, values: &impl Fn(u32, u32) -> Ordering) {
        let len = self.entries.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < len && self.less(right, left, values) {
                smallest = right;
            }
            if self.less(smallest, i, values) {
                self.entries.swap(i, smallest);
                i = smallest;
            } else {
                break;
            }
        }
    }

    /// Removes and returns the minimum slot.
    pub fn pop(&mut self, values: impl Fn(u32, u32) -> Ordering) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let popped = self.entries.swap_remove(0);
        self.sift_root(&values);
        Some(popped.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the heap keyed by an external slice — the in-place-value
    /// usage both merge engines rely on.
    #[test]
    fn drains_in_value_order_with_slot_tie_break() {
        let values: &[&[u8]] = &[
            b"m",
            b"a",
            b"z",
            b"a",
            b"",
            b"a\0",
            b"sameprefix-2",
            b"sameprefix-1",
        ];
        let cmp = |a: u32, b: u32| values[a as usize].cmp(values[b as usize]);
        let mut heap = KeyedMinHeap::with_capacity(values.len());
        for (slot, v) in values.iter().enumerate() {
            heap.push(slot as u32, v, cmp);
        }
        let mut drained = Vec::new();
        while let Some(slot) = heap.pop(cmp) {
            drained.push(slot);
        }
        // "" < "a"(1) < "a"(3) < "a\0" < "m" < "sameprefix-1" < "sameprefix-2" < "z".
        assert_eq!(drained, vec![4, 1, 3, 5, 0, 7, 6, 2]);
        // Only the two values that share all eight key bytes and run past
        // them can have been compared through the callback.
        assert!(heap.memcmp_compares() > 0);
        assert!(heap.key_compares() > heap.memcmp_compares());
    }

    #[test]
    fn replace_top_reorders_after_the_root_advanced() {
        let values = std::cell::RefCell::new(vec![[1u8], [5], [3]]);
        let cmp = |a: u32, b: u32| {
            let v = values.borrow();
            v[a as usize].cmp(&v[b as usize])
        };
        let mut heap = KeyedMinHeap::with_capacity(3);
        for slot in 0..3u32 {
            let value = values.borrow()[slot as usize];
            heap.push(slot, &value, cmp);
        }
        assert_eq!(heap.peek(), Some((key_prefix64(&[1]), 0)));
        values.borrow_mut()[0] = [9]; // the root's value advanced past the others
        heap.replace_top(&[9], cmp);
        assert_eq!(heap.peek(), Some((key_prefix64(&[3]), 2)));
        assert_eq!(
            heap.memcmp_compares(),
            0,
            "distinct keys never reach the values"
        );
    }

    #[test]
    fn keys_order_like_lexicographic_compare() {
        // Differing prefixes order exactly like the slices; a tie (a
        // proper prefix ending inside the window included) is settled by
        // the lengths unless both values run past the window.
        let cases: [&[u8]; 10] = [
            b"",
            b"\x00",
            b"\x01",
            b"\x01\x00",
            b"\x01\x01",
            b"abcdefg",
            b"abcdefgh",
            b"abcdefghi",
            b"abcdefgz",
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ];
        for a in cases {
            for b in cases {
                let (pa, pb) = (key_prefix64(a), key_prefix64(b));
                if pa != pb {
                    assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
                }
                match compare_keys((pa, key_len(a)), (pb, key_len(b))) {
                    Some(order) => assert_eq!(order, a.cmp(b), "{a:?} vs {b:?}"),
                    None => assert!(a.len() > 8 && b.len() > 8 && a[..8] == b[..8]),
                }
            }
        }
        assert_eq!(key_prefix64(b"a"), key_prefix64(b"a\0"));
        assert_eq!(key_prefix64(b"abcdefgh"), key_prefix64(b"abcdefghi"));
        assert_eq!(key_prefix64(b"\x01\x02"), 0x0102_0000_0000_0000);
    }
}
