//! Compact attribute-id remapping shared by the merge engines.
//!
//! Candidate sets reference attributes by sparse `u32` ids (whatever the
//! profiler assigned). The engines want dense `0..n` indices so per-attribute
//! state can live in flat vectors and bitset rows instead of `BTreeMap`s —
//! the difference between pointer-chasing allocator traffic and word-wise
//! arithmetic in the steady-state loop. [`CompactIds`] is that remap: built
//! once per pass, a table lookup per id, zero allocations after
//! construction.

use crate::candidates::Candidate;

/// A bijection between sparse `u32` attribute ids and dense `0..n`
/// indices, numbered in id order.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompactIds {
    /// The dense index of every attribute id up to the largest one named,
    /// [`ABSENT`] for the ids no candidate names. Attribute ids index the
    /// provider's sets, so the table is as long as the provider is wide.
    index: Vec<u32>,
    /// The attribute id behind each dense index, ascending.
    ids: Vec<u32>,
}

/// The table entry of an id no candidate names.
const ABSENT: u32 = u32::MAX;

impl CompactIds {
    /// Remap over every attribute appearing in `candidates` (either role).
    pub(crate) fn from_candidates(candidates: &[Candidate]) -> Self {
        let width = candidates
            .iter()
            .map(|c| c.dep.max(c.refd) as usize + 1)
            .max()
            .unwrap_or(0);
        // Mark the named ids; the loop below overwrites each mark with its
        // dense index.
        let mut index = vec![ABSENT; width];
        let mut named = 0;
        for c in candidates {
            for id in [c.dep, c.refd] {
                let entry = &mut index[id as usize];
                if *entry == ABSENT {
                    *entry = 0;
                    named += 1;
                }
            }
        }
        let mut ids = Vec::with_capacity(named);
        for (id, entry) in index.iter_mut().enumerate() {
            if *entry != ABSENT {
                *entry = ids.len() as u32;
                ids.push(id as u32);
            }
        }
        CompactIds { index, ids }
    }

    /// Number of distinct attributes in the remap.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Dense index of attribute `id`. Panics if `id` was not in the
    /// candidate set the remap was built from.
    pub(crate) fn index_of(&self, id: u32) -> usize {
        let idx = self.index.get(id as usize).filter(|&&idx| idx != ABSENT);
        // lint: allow(no_unwrap) — documented contract: callers only pass ids from the candidate set the remap indexed
        *idx.expect("attribute id outside the remap's candidate set") as usize
    }

    /// Sparse attribute id behind dense index `idx`.
    pub(crate) fn id(&self, idx: usize) -> u32 {
        self.ids[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_sparse_ids() {
        let candidates = vec![
            Candidate::new(7, 42),
            Candidate::new(42, 7),
            Candidate::new(1000, 7),
        ];
        let ids = CompactIds::from_candidates(&candidates);
        assert_eq!(ids.len(), 3);
        for (idx, id) in [(0usize, 7u32), (1, 42), (2, 1000)] {
            assert_eq!(ids.index_of(id), idx);
            assert_eq!(ids.id(idx), id);
        }
    }

    #[test]
    fn empty_candidates_give_an_empty_remap() {
        assert_eq!(CompactIds::from_candidates(&[]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the remap")]
    fn unknown_id_panics() {
        let ids = CompactIds::from_candidates(&[Candidate::new(1, 2)]);
        ids.index_of(3);
    }
}
