//! Classes of equal value sets: the finder tests one representative per
//! set of attributes that hold exactly the same values.
//!
//! Two attributes with equal value sets answer every candidate alike and
//! include each other. So before any engine runs, [`crate::IndFinder`]
//! puts every attribute of its candidate list into a class of equal sets,
//! with the lowest id as the class representative, and hands the engine
//! each distinct `(rep(dep), rep(ref))` pair once. A candidate whose two
//! sides share a representative is satisfied without a read; the others
//! take their representative pair's answer. The profile key `(data_type,
//! distinct, min, max)` only proposes a class —
//! [`ValueSetProvider::same_values`] decides it.

use crate::attr::AttributeProfile;
use crate::candidates::Candidate;
use crate::metrics::RunMetrics;
use ind_storage::DataType;
use ind_valueset::{Result, ValueSetProvider};
use std::collections::HashMap;

/// The classes of a candidate list's attributes.
#[derive(Debug)]
pub(crate) struct ValueSetClasses {
    /// Class index of every attribute id; [`OUTSIDE`] for attributes no
    /// candidate names.
    class: Vec<u32>,
    /// Representative (lowest id) of each class. Classes are numbered in
    /// the order their representatives were met, so this is increasing.
    reps: Vec<u32>,
}

/// Class index of an attribute no candidate names.
const OUTSIDE: u32 = u32::MAX;

impl ValueSetClasses {
    /// Classes the attributes of `candidates`, in id order: each joins the
    /// first earlier class of its profile key whose representative
    /// `provider` finds equal, or founds a class of its own. `profiles` is
    /// indexed by attribute id, as everywhere in the finder. Counts classes
    /// and compares into `metrics`, and polls the ambient cancel token
    /// (phase `classes`) before every compare.
    pub(crate) fn of<P: ValueSetProvider>(
        profiles: &[AttributeProfile],
        candidates: &[Candidate],
        provider: &P,
        metrics: &mut RunMetrics,
    ) -> Result<Self> {
        // Mark the attributes the candidates name; the loop below
        // overwrites each mark with its class.
        let mut class = vec![OUTSIDE; profiles.len()];
        for c in candidates {
            class[c.dep as usize] = 0;
            class[c.refd as usize] = 0;
        }
        let mut reps: Vec<u32> = Vec::new();
        type Key<'a> = (DataType, u64, Option<&'a [u8]>, Option<&'a [u8]>);
        // The classes of each key, by index.
        let mut by_key: HashMap<Key<'_>, Vec<u32>> = HashMap::new();
        for id in 0..profiles.len() {
            if class[id] == OUTSIDE {
                continue;
            }
            let p = &profiles[id];
            let key = (p.data_type, p.distinct, p.min.as_deref(), p.max.as_deref());
            let classes = by_key.entry(key).or_default();
            let mut joined = None;
            for &k in classes.iter() {
                ind_valueset::cancel::check_ambient("classes")?;
                metrics.class_compares += 1;
                if provider.same_values(reps[k as usize], id as u32)? {
                    joined = Some(k);
                    break;
                }
            }
            class[id] = match joined {
                Some(k) => k,
                None => {
                    let k = reps.len() as u32;
                    reps.push(id as u32);
                    classes.push(k);
                    k
                }
            };
        }
        metrics.value_set_classes += reps.len() as u64;
        Ok(ValueSetClasses { class, reps })
    }

    /// The classes of `c`'s two sides.
    fn classes_of(&self, c: &Candidate) -> (usize, usize) {
        (
            self.class[c.dep as usize] as usize,
            self.class[c.refd as usize] as usize,
        )
    }

    /// The pairs an engine must test for `candidates`: each distinct pair
    /// of representatives once, sorted, without the pairs inside one class.
    pub(crate) fn pairs_to_test(&self, candidates: &[Candidate]) -> Vec<Candidate> {
        let mut needed = ClassPairs::new(self.reps.len());
        for c in candidates {
            let (d, r) = self.classes_of(c);
            if d != r {
                needed.insert(d, r);
            }
        }
        // Row-major over increasing representatives: sorted by (dep, ref).
        let mut pairs = Vec::new();
        for (i, &word) in needed.rows.iter().enumerate() {
            let (d, base) = (i / needed.words, i % needed.words * 64);
            let mut bits = word;
            while bits != 0 {
                let r = base + bits.trailing_zeros() as usize;
                pairs.push(Candidate::new(self.reps[d], self.reps[r]));
                bits &= bits - 1;
            }
        }
        pairs
    }

    /// The candidates satisfied, given the representative pairs the engine
    /// found satisfied.
    pub(crate) fn expand(
        &self,
        candidates: &[Candidate],
        satisfied: &[Candidate],
    ) -> Vec<Candidate> {
        let mut found = ClassPairs::new(self.reps.len());
        for c in satisfied {
            let (d, r) = self.classes_of(c);
            found.insert(d, r);
        }
        candidates
            .iter()
            .copied()
            .filter(|c| {
                let (d, r) = self.classes_of(c);
                d == r || found.contains(d, r)
            })
            .collect()
    }
}

/// A set of ordered class pairs: one bitset row per class.
struct ClassPairs {
    words: usize,
    rows: Vec<u64>,
}

impl ClassPairs {
    fn new(classes: usize) -> Self {
        let words = classes.div_ceil(64);
        ClassPairs {
            words,
            rows: vec![0; classes * words],
        }
    }

    fn insert(&mut self, d: usize, r: usize) {
        self.rows[d * self.words + r / 64] |= 1 << (r % 64);
    }

    fn contains(&self, d: usize, r: usize) -> bool {
        self.rows[d * self.words + r / 64] & (1 << (r % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_storage::QualifiedName;
    use ind_valueset::{MemoryProvider, MemoryValueSet};

    fn profile(id: u32, data_type: DataType, values: &[&str]) -> AttributeProfile {
        let mut sorted: Vec<&str> = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        AttributeProfile {
            id,
            name: QualifiedName::new("t", format!("c{id}")),
            data_type,
            rows: values.len() as u64,
            non_null: values.len() as u64,
            distinct: sorted.len() as u64,
            min: sorted.first().map(|v| v.as_bytes().to_vec()),
            max: sorted.last().map(|v| v.as_bytes().to_vec()),
        }
    }

    #[test]
    fn the_key_proposes_and_the_bytes_decide() {
        // 0 = 2 and 1 = 4; 3 shares the key of 0 but not its middle value;
        // 5 holds 0's bytes under another type.
        let columns: [(DataType, &[&str]); 6] = [
            (DataType::Text, &["a", "b", "c"]),
            (DataType::Text, &["x", "y"]),
            (DataType::Text, &["c", "b", "a", "a"]),
            (DataType::Text, &["a", "bb", "c"]),
            (DataType::Text, &["y", "x"]),
            (DataType::Integer, &["a", "b", "c"]),
        ];
        let profiles: Vec<_> = columns
            .iter()
            .enumerate()
            .map(|(id, (ty, values))| profile(id as u32, *ty, values))
            .collect();
        let provider = MemoryProvider::new(
            columns
                .iter()
                .map(|(_, values)| {
                    MemoryValueSet::from_unsorted(values.iter().map(|v| v.as_bytes().to_vec()))
                })
                .collect(),
        );
        let all: Vec<Candidate> = (0..6u32)
            .flat_map(|d| {
                (0..6u32)
                    .filter(move |&r| r != d)
                    .map(move |r| Candidate::new(d, r))
            })
            .collect();
        let mut metrics = RunMetrics::new();
        let classes = ValueSetClasses::of(&profiles, &all, &provider, &mut metrics).unwrap();
        assert_eq!(classes.reps, vec![0, 1, 3, 5]);
        assert_eq!(classes.class, vec![0, 1, 0, 2, 1, 3]);
        assert_eq!(metrics.value_set_classes, 4);
        // 2 against 0; 3 against 0, 2 never being a representative; 4
        // against 1.
        assert_eq!(metrics.class_compares, 3);

        let pairs = classes.pairs_to_test(&all);
        assert_eq!(pairs.len(), 4 * 3, "every ordered pair of classes once");
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted: {pairs:?}");
        assert!(pairs.contains(&Candidate::new(5, 3)));
        // Say the engine found 3 ⊆ 0 only: 3 ⊆ 2 follows, and 0 ⊆ 2,
        // 2 ⊆ 0, 1 ⊆ 4 and 4 ⊆ 1 hold without a test.
        let satisfied = classes.expand(&all, &[Candidate::new(3, 0)]);
        let expected = [(0, 2), (1, 4), (2, 0), (3, 0), (3, 2), (4, 1)];
        assert_eq!(
            satisfied,
            expected.map(|(d, r)| Candidate::new(d, r)).to_vec()
        );
    }

    #[test]
    fn attributes_outside_the_candidates_are_never_compared() {
        let profiles: Vec<_> = (0..3)
            .map(|id| profile(id, DataType::Text, &["v"]))
            .collect();
        let set = || MemoryValueSet::from_unsorted([b"v".to_vec()]);
        let provider = MemoryProvider::new(vec![set(), set(), set()]);
        let mut metrics = RunMetrics::new();
        let candidates = [Candidate::new(2, 0)];
        let classes = ValueSetClasses::of(&profiles, &candidates, &provider, &mut metrics).unwrap();
        assert_eq!((metrics.value_set_classes, metrics.class_compares), (1, 1));
        assert!(classes.pairs_to_test(&candidates).is_empty());
        assert_eq!(classes.expand(&candidates, &[]), candidates);
    }
}
