//! A tournament tree of `u32` slots: the k-way merge under the SPIDER
//! engine (slots = the cursors of live dependents: a reference-only
//! cursor leaves the tree as if exhausted and is read outside it) and the
//! external sorter's spill merge (slots = run sources).
//!
//! It is a *loser* tree. Every internal node keeps the loser of the match
//! played there and node 0 keeps the overall winner, so when the winning
//! slot moves on to its next value — or runs dry — one replay up its
//! leaf-to-root path restores the order ([`TournamentTree::replay`]): one
//! comparison per level, against the one node that path holds. A binary
//! heap pays a sift-down of two comparisons per level to pop the same slot
//! and a sift-up to push it back.
//!
//! Each node carries the normalized key of its slot's current value — the
//! first eight bytes as an integer ([`key_prefix64`]) and the length —
//! derived **once**, when the value is first seen, and stored in the node.
//! A match compares the integers; only two values that share their first
//! eight bytes and both run past them are compared through the caller's
//! state, and only when those are equal too does the slot id decide. The
//! order is therefore `(value, slot)` — total and deterministic — while the
//! values stay where they are (cursor buffers, arena slices) and are never
//! copied. An exhausted slot carries a key above every value; once half the
//! leaves are exhausted the tree is rebuilt over the live ones, so its
//! height follows the slots still merging, as a heap's does.
//!
//! The two tallies split the comparator traffic for the run report:
//! [`TournamentTree::key_compares`] counts comparisons the keys settled,
//! [`TournamentTree::memcmp_compares`] those that needed the values.

use std::cmp::Ordering;

/// Bytes of a value the normalized key holds.
pub(crate) const KEY_WINDOW: u32 = 8;

/// The first 8 bytes of `v`, zero-padded, as a big-endian integer — the
/// normalized key stored in every [`TournamentTree`] node and every sorter
/// arena entry.
///
/// For two slices whose keys *differ*, comparing the keys as `u64`s
/// orders them exactly like `a.cmp(b)`: the first differing position is
/// inside the window, and zero-padding a short slice compares like the
/// proper prefix it is. A tie leaves the order to the lengths and the
/// tails — see [`compare_keys`].
///
/// A value shorter than the window takes no call: it is read as two
/// overlapping fixed-width loads — the first and the last four bytes for
/// lengths 4–7, two for 2–3 — each shifted to its place and OR-ed, so the
/// bytes they share land on themselves and the rest of the key stays zero.
/// A variable-length copy into a zeroed buffer is a `memcpy` call, and the
/// merge derives a key for every value it reads.
#[inline]
pub fn key_prefix64(v: &[u8]) -> u64 {
    if let Some(head) = v.first_chunk::<8>() {
        return u64::from_be_bytes(*head);
    }
    // Shifts the big-endian integer ending at byte `len - 1` of the value
    // so that byte lands at byte `len - 1` of the key.
    let tail_shift = 8 * (8 - v.len() as u32);
    match (v.first_chunk::<4>(), v.last_chunk::<4>()) {
        (Some(head), Some(tail)) => {
            let head = u64::from(u32::from_be_bytes(*head)) << 32;
            head | (u64::from(u32::from_be_bytes(*tail)) << tail_shift)
        }
        _ => match (v.first_chunk::<2>(), v.last_chunk::<2>()) {
            (Some(head), Some(tail)) => {
                let head = u64::from(u16::from_be_bytes(*head)) << 48;
                head | (u64::from(u16::from_be_bytes(*tail)) << tail_shift)
            }
            _ => v.first().map_or(0, |&b| u64::from(b) << 56),
        },
    }
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

/// A node's length class for every value longer than the key window: past
/// the window only the bytes can order two values with equal prefixes.
const LONG: u32 = KEY_WINDOW + 1;
/// The length class of an exhausted slot. Its prefix is `u64::MAX`, so it
/// orders after every value.
const EXHAUSTED: u32 = u32::MAX;
/// The leaf of a node no match has been played at yet (building only).
const UNPLAYED: u32 = u32::MAX;

/// One node: a leaf and the normalized key of its slot's current value.
#[derive(Debug, Clone, Copy)]
struct Node {
    prefix: u64,
    /// The value's length up to [`KEY_WINDOW`], [`LONG`] beyond it, or
    /// [`EXHAUSTED`].
    len: u32,
    leaf: u32,
}

impl Node {
    #[inline]
    fn new(leaf: u32, value: Option<&[u8]>) -> Node {
        match value {
            Some(v) => Node {
                prefix: key_prefix64(v),
                len: v.len().min(LONG as usize) as u32,
                leaf,
            },
            None => Node {
                prefix: u64::MAX,
                len: EXHAUSTED,
                leaf,
            },
        }
    }
}

/// Loser tree over `n` slots ordered by `(value, slot)`, where each slot's
/// value is represented in the tree by its normalized key.
///
/// [`enter`](Self::enter) and [`replay`](Self::replay) take a slot's value
/// (`None`: the slot is exhausted) and keep only its key. Every call that
/// plays matches also takes `values(a, b)`, the full comparison of the
/// current values of slots `a` and `b`; it is consulted only for pairs whose
/// keys cannot tell them apart, never for an exhausted slot, and must agree
/// with the values the keys were derived from.
#[derive(Debug)]
pub struct TournamentTree {
    /// `nodes[0]` holds the winner. With `m = nodes.len()` leaves, `nodes[p]`
    /// for `1 <= p < m` holds the loser of the match at internal node `p`,
    /// played between the winners below positions `2p` and `2p + 1`; leaf
    /// `l` sits at position `m + l`.
    nodes: Vec<Node>,
    /// The caller's slot of each leaf. Leaves are numbered in slot order,
    /// so ordering ties by leaf orders them by slot.
    slots: Vec<u32>,
    /// Leaves holding an exhausted slot.
    exhausted: usize,
    /// Scratch for rebuilding over the live leaves.
    live: Vec<Node>,
    key_compares: u64,
    memcmp_compares: u64,
}

impl TournamentTree {
    /// A tree of slots `0..n`. Each slot must be [`enter`](Self::enter)ed
    /// once before the tree is asked for its winner; no call allocates
    /// after this one.
    pub fn new(n: usize) -> Self {
        let unplayed = Node {
            prefix: 0,
            len: 0,
            leaf: UNPLAYED,
        };
        TournamentTree {
            // lint: allow(hot_alloc) — setup phase: the tree's nodes, once per merge
            nodes: vec![unplayed; n],
            // lint: allow(hot_alloc) — setup phase: the leaf-to-slot map, once per merge
            slots: (0..n as u32).collect(),
            exhausted: 0,
            live: Vec::with_capacity(n),
            key_compares: 0,
            memcmp_compares: 0,
        }
    }

    /// Enters `slot` standing on `value` (`None`: it has no values), before
    /// the first replay. The slot climbs until it meets a node no slot has
    /// reached yet and waits there; the slot that arrives second plays the
    /// match. Slots may be entered in any order; building plays `n - 1`
    /// matches.
    pub fn enter(
        &mut self,
        slot: u32,
        value: Option<&[u8]>,
        values: impl Fn(u32, u32) -> Ordering,
    ) {
        debug_assert!((slot as usize) < self.nodes.len(), "slot out of range");
        if value.is_none() {
            self.exhausted += 1;
        }
        self.climb(Node::new(slot, value), true, &values);
    }

    /// The winning slot — the one on the smallest value, the lowest slot
    /// among equals — or `None` once every slot is exhausted.
    #[inline]
    pub fn winner(&self) -> Option<u32> {
        let winner = self.nodes.first()?;
        debug_assert_ne!(winner.leaf, UNPLAYED, "every slot is entered");
        (winner.len != EXHAUSTED).then(|| self.slots[winner.leaf as usize])
    }

    /// The winner moved on to `value` (`None`: it is exhausted): replays its
    /// leaf-to-root path. There must be a winner.
    pub fn replay(&mut self, value: Option<&[u8]>, values: impl Fn(u32, u32) -> Ordering) {
        debug_assert_ne!(self.nodes[0].len, EXHAUSTED, "an exhausted winner");
        self.climb(Node::new(self.nodes[0].leaf, value), false, &values);
        if value.is_none() {
            self.exhausted += 1;
            if 2 * self.exhausted >= self.nodes.len() {
                self.rebuild(&values);
            }
        }
    }

    /// Comparisons settled by the stored keys alone.
    pub fn key_compares(&self) -> u64 {
        self.key_compares
    }

    /// Comparisons the keys could not settle and that consulted the values.
    pub fn memcmp_compares(&self) -> u64 {
        self.memcmp_compares
    }

    /// Carries `cur` up from its leaf, leaving the loser of every match on
    /// the way and the final winner at node 0. While `building`, `cur`
    /// instead waits at the first node nobody has reached.
    #[inline]
    fn climb(&mut self, mut cur: Node, building: bool, values: &impl Fn(u32, u32) -> Ordering) {
        let mut p = (self.nodes.len() + cur.leaf as usize) / 2;
        while p > 0 {
            let node = self.nodes[p];
            if building && node.leaf == UNPLAYED {
                self.nodes[p] = cur;
                return;
            }
            if self.less(node, cur, values) {
                self.nodes[p] = cur;
                cur = node;
            }
            p /= 2;
        }
        self.nodes[0] = cur;
    }

    /// Rebuilds the tree over its live leaves, renumbered in slot order.
    /// Every leaf is held by exactly one node, so the nodes list them all.
    #[cold]
    fn rebuild(&mut self, values: &impl Fn(u32, u32) -> Ordering) {
        let mut live = std::mem::take(&mut self.live);
        live.clear();
        live.extend(self.nodes.iter().filter(|node| node.len != EXHAUSTED));
        live.sort_unstable_by_key(|node| node.leaf);
        for (leaf, node) in live.iter_mut().enumerate() {
            // Ascending and distinct, so `node.leaf >= leaf`: each slot is
            // read before its old place is overwritten.
            self.slots[leaf] = self.slots[node.leaf as usize];
            node.leaf = leaf as u32;
        }
        self.nodes.truncate(live.len());
        for node in self.nodes.iter_mut() {
            node.leaf = UNPLAYED;
        }
        self.exhausted = 0;
        for &node in &live {
            self.climb(node, true, values);
        }
        self.live = live;
    }

    /// `a < b` in `(value, slot)` order — spelled out as `<` tests because
    /// this is the merge's innermost function.
    #[inline]
    fn less(&mut self, a: Node, b: Node, values: &impl Fn(u32, u32) -> Ordering) -> bool {
        if a.prefix != b.prefix {
            self.key_compares += 1;
            return a.prefix < b.prefix;
        }
        // Different length classes (an exhausted slot included), two equal
        // short values, or two exhausted slots.
        if a.len != b.len || a.len != LONG {
            self.key_compares += 1;
            return (a.len, a.leaf) < (b.len, b.leaf);
        }
        self.memcmp_compares += 1;
        match values(self.slots[a.leaf as usize], self.slots[b.leaf as usize]) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.leaf < b.leaf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the tree keyed by an external slice — the in-place-value
    /// usage both merges rely on.
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
        let mut tree = TournamentTree::new(values.len());
        for (slot, v) in values.iter().enumerate().rev() {
            tree.enter(slot as u32, Some(v), cmp);
        }
        let mut drained = Vec::new();
        while let Some(slot) = tree.winner() {
            drained.push(slot);
            tree.replay(None, cmp);
        }
        // "" < "a"(1) < "a"(3) < "a\0" < "m" < "sameprefix-1" < "sameprefix-2" < "z".
        assert_eq!(drained, vec![4, 1, 3, 5, 0, 7, 6, 2]);
        // Only the two values that share all eight key bytes and run past
        // them can have been compared through the callback.
        assert!(tree.memcmp_compares() > 0);
        assert!(tree.key_compares() > tree.memcmp_compares());
    }

    #[test]
    fn replay_reorders_after_the_winner_advanced() {
        let values = std::cell::RefCell::new(vec![[1u8], [5], [3]]);
        let cmp = |a: u32, b: u32| {
            let v = values.borrow();
            v[a as usize].cmp(&v[b as usize])
        };
        let mut tree = TournamentTree::new(3);
        for slot in 0..3u32 {
            let value = values.borrow()[slot as usize];
            tree.enter(slot, Some(&value), cmp);
        }
        assert_eq!(tree.winner(), Some(0));
        values.borrow_mut()[0] = [9]; // the winner's value advanced past the others
        tree.replay(Some(&[9]), cmp);
        assert_eq!(tree.winner(), Some(2));
        assert_eq!(
            tree.memcmp_compares(),
            0,
            "distinct keys never reach the values"
        );
    }

    #[test]
    fn exhausting_half_the_leaves_rebuilds_without_changing_the_order() {
        let n = 37u32;
        let values: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 5) as u8]).collect();
        let cmp = |a: u32, b: u32| values[a as usize].cmp(&values[b as usize]);
        let mut tree = TournamentTree::new(n as usize);
        for slot in 0..n {
            tree.enter(slot, Some(&values[slot as usize]), cmp);
        }
        let mut drained = Vec::new();
        while let Some(slot) = tree.winner() {
            drained.push(slot);
            tree.replay(None, cmp);
        }
        let mut expected: Vec<u32> = (0..n).collect();
        expected.sort_by_key(|&slot| (values[slot as usize].clone(), slot));
        assert_eq!(drained, expected);
        assert!(
            tree.nodes.is_empty(),
            "the last exhaustion empties the tree"
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
        let len = |v: &[u8]| v.len() as u32;
        for a in cases {
            for b in cases {
                let (pa, pb) = (key_prefix64(a), key_prefix64(b));
                if pa != pb {
                    assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
                }
                match compare_keys((pa, len(a)), (pb, len(b))) {
                    Some(order) => assert_eq!(order, a.cmp(b), "{a:?} vs {b:?}"),
                    None => assert!(a.len() > 8 && b.len() > 8 && a[..8] == b[..8]),
                }
            }
        }
        assert_eq!(key_prefix64(b"a"), key_prefix64(b"a\0"));
        assert_eq!(key_prefix64(b"abcdefgh"), key_prefix64(b"abcdefghi"));
        assert_eq!(key_prefix64(b"\x01\x02"), 0x0102_0000_0000_0000);
    }

    /// A xorshift64 stream of bytes: deterministic test input without a
    /// dependency.
    fn random_bytes(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                (*state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn short_keys_equal_the_zero_padded_copy() {
        // The reference: the first eight bytes copied into a zeroed buffer.
        let padded = |v: &[u8]| {
            let mut buf = [0u8; 8];
            let n = v.len().min(8);
            buf[..n].copy_from_slice(&v[..n]);
            u64::from_be_bytes(buf)
        };
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for len in 0..=16 {
            let mut values = vec![vec![0x00; len], vec![0xff; len]];
            values.extend((0..64).map(|_| random_bytes(&mut state, len)));
            for v in &values {
                assert_eq!(key_prefix64(v), padded(v), "{v:02x?}");
            }
        }
    }

    #[test]
    fn compare_keys_agrees_with_the_byte_order() {
        // Bases of every length around the window, each extended by NUL
        // runs (ties the zero padding cannot tell apart) and by random
        // tails, so equal prefixes are common.
        let mut state = 0x2545_f491_4f6c_dd1d;
        let mut bases: Vec<Vec<u8>> = vec![b"7".to_vec(), b"accession-".to_vec()];
        bases.extend((0..=10).map(|len| random_bytes(&mut state, len)));
        bases.extend((0..=10).map(|len| vec![0xff; len]));
        let mut values = Vec::new();
        for base in &bases {
            for nuls in 0..=9 {
                let mut v = base.clone();
                v.resize(base.len() + nuls, 0);
                values.push(v);
            }
            for tail in 1..=3 {
                let mut v = base.clone();
                v.extend(random_bytes(&mut state, tail));
                values.push(v);
            }
        }
        let key = |v: &[u8]| (key_prefix64(v), v.len() as u32);
        for a in &values {
            for b in &values {
                match compare_keys(key(a), key(b)) {
                    Some(order) => assert_eq!(order, a.cmp(b), "{a:02x?} vs {b:02x?}"),
                    None => assert!(a.len() > 8 && b.len() > 8 && a[..8] == b[..8]),
                }
            }
        }
    }
}
