//! The single-pass algorithm (Sec. 3.2).
//!
//! All value sets are opened at once and every IND candidate is tested in
//! parallel during one coordinated scan. The implementation is a faithful,
//! single-threaded event simulation of the paper's subject–observer design:
//!
//! * every attribute in a *dependent* role is a dependent object; every
//!   attribute in a *referenced* role is a referenced object (an attribute
//!   used in both roles has two objects and two cursors, matching the
//!   paper's per-role files);
//! * a referenced object delivers its next value only once **all** attached
//!   dependent objects have requested it (`wantNextValue`);
//! * each dependent object tracks its referenced objects in the three lists
//!   of the paper — `currentWaiting` (next referenced value compares against
//!   the *current* dependent value), `nextWaiting` (compares against the
//!   *next* dependent value, not yet delivered), and `next` (already
//!   delivered, waiting for the dependent advance);
//! * a FIFO monitor queue orders deliveries.
//!
//! Algorithm 2 is `Engine::apply_comparison`; Algorithm 3 is
//! `Engine::deliver` plus `Engine::advance_dep_if_ready`. Theorem 3.1
//! (deadlock freedom) manifests here as the monitor queue only running dry
//! once every candidate is resolved — asserted in debug builds and
//! cross-checked against the other algorithms in the integration tests.
//!
//! Ordered sets make delivery order — and therefore every counter —
//! bit-for-bit deterministic across runs.

use crate::candidates::Candidate;
use crate::compact::CompactIds;
use crate::metrics::RunMetrics;
use ind_valueset::{Result, ValueCursor, ValueSetProvider};
use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};

/// A dependent object: cursor, current value, and the three lists of
/// referenced objects from Algorithm 3.
struct DepState<C> {
    attr: u32,
    cursor: C,
    current: Vec<u8>,
    /// Referenced objects whose next value must be compared with the
    /// *current* dependent value (the paper's `currentWaiting`).
    current_waiting: BTreeSet<usize>,
    /// Referenced objects whose next value must be compared with the *next*
    /// dependent value and has not yet been delivered (`nextWaiting`).
    next_waiting: BTreeSet<usize>,
    /// Referenced objects that already delivered the value to compare with
    /// the next dependent value (the paper's `next`; the value itself stays
    /// in the referenced object, which cannot advance until we re-request).
    next_ready: Vec<usize>,
}

impl<C: ValueCursor> DepState<C> {
    fn refresh_current(&mut self) {
        self.current.clear();
        self.current.extend_from_slice(self.cursor.current());
    }
}

/// A referenced object: cursor, current value, and the dependent objects
/// still attached (candidate not yet resolved).
struct RefState<C> {
    attr: u32,
    cursor: C,
    current: Vec<u8>,
    /// Dependent objects whose candidate with this object is unresolved.
    attached: BTreeSet<usize>,
    /// Attached dependents that have requested the next value.
    requested: BTreeSet<usize>,
    /// Whether this object already sits in the monitor queue.
    queued: bool,
}

impl<C: ValueCursor> RefState<C> {
    fn refresh_current(&mut self) {
        self.current.clear();
        self.current.extend_from_slice(self.cursor.current());
    }
}

struct Engine<'m, C> {
    deps: Vec<DepState<C>>,
    refs: Vec<RefState<C>>,
    /// The monitor's first-in-first-out delivery queue of referenced
    /// object indices.
    queue: VecDeque<usize>,
    satisfied: Vec<Candidate>,
    metrics: &'m mut RunMetrics,
}

impl<C: ValueCursor> Engine<'_, C> {
    /// `wantNextValue`: dependent `d` asks referenced `r` for its next
    /// value. Returns `false` when the referenced set is exhausted (the
    /// request cannot ever be served).
    fn want_next_value(&mut self, r: usize, d: usize) -> bool {
        if self.refs[r].cursor.remaining() == 0 {
            return false;
        }
        self.refs[r].requested.insert(d);
        self.maybe_enqueue(r);
        true
    }

    /// Enqueues `r` for delivery once every attached dependent has issued a
    /// request.
    fn maybe_enqueue(&mut self, r: usize) {
        let rs = &mut self.refs[r];
        if !rs.queued && !rs.attached.is_empty() && rs.requested.len() == rs.attached.len() {
            rs.queued = true;
            self.queue.push_back(r);
        }
    }

    /// Resolves candidate `(d, r)` — removes the mutual registration. The
    /// caller has already removed `r` from `d`'s lists (or never inserted
    /// it).
    fn detach(&mut self, d: usize, r: usize) {
        let rs = &mut self.refs[r];
        rs.attached.remove(&d);
        rs.requested.remove(&d);
        self.maybe_enqueue(r);
    }

    /// Algorithm 2 (`processComparison`): classify the comparison between
    /// `d`'s current value and `r`'s current (just delivered or stored)
    /// value, then move `r` into the right list or resolve the candidate.
    fn apply_comparison(&mut self, d: usize, r: usize) {
        self.metrics.comparisons += 1;
        let cmp = self.deps[d]
            .current
            .as_slice()
            .cmp(self.refs[r].current.as_slice());
        match cmp {
            Ordering::Equal => {
                if self.deps[d].cursor.remaining() > 0 {
                    // Match; the next referenced value will be compared
                    // with the next dependent value.
                    if self.want_next_value(r, d) {
                        self.deps[d].next_waiting.insert(r);
                    } else {
                        // Referenced set exhausted but more dependent
                        // values exist — exclude the IND candidate.
                        self.detach(d, r);
                    }
                } else {
                    // Last dependent value matched: IND candidate satisfied.
                    self.satisfied
                        .push(Candidate::new(self.deps[d].attr, self.refs[r].attr));
                    self.metrics.satisfied += 1;
                    self.detach(d, r);
                }
            }
            Ordering::Greater => {
                // dependentValue > referencedValue: need r's next value for
                // the *current* dependent value.
                if self.want_next_value(r, d) {
                    self.deps[d].current_waiting.insert(r);
                } else {
                    // Current dependent value cannot appear in r.
                    self.detach(d, r);
                }
            }
            Ordering::Less => {
                // dependentValue < referencedValue: the current dependent
                // value is missing from r — exclude the IND candidate.
                self.detach(d, r);
            }
        }
    }

    /// Algorithm 3: referenced object `r` delivers its (new) current value
    /// to dependent object `d`.
    fn deliver(&mut self, d: usize, r: usize) -> Result<()> {
        if self.deps[d].next_waiting.remove(&r) {
            // Compare with the *next* dependent value, once we advance.
            self.deps[d].next_ready.push(r);
            return Ok(());
        }
        let was_waiting = self.deps[d].current_waiting.remove(&r);
        debug_assert!(was_waiting, "delivery without a matching request");
        self.apply_comparison(d, r);
        self.advance_dep_if_ready(d)
    }

    /// Tail of Algorithm 3, generalized to a loop: while all comparisons
    /// against the current dependent value are done and later comparisons
    /// are pending, advance the dependent value, promote `nextWaiting` to
    /// `currentWaiting`, and run the comparisons already delivered.
    fn advance_dep_if_ready(&mut self, d: usize) -> Result<()> {
        loop {
            let ds = &self.deps[d];
            if !ds.current_waiting.is_empty()
                || (ds.next_waiting.is_empty() && ds.next_ready.is_empty())
            {
                return Ok(());
            }
            let advanced = self.deps[d].cursor.advance()?;
            debug_assert!(
                advanced,
                "requests are only issued when a next dependent value exists"
            );
            self.metrics.items_read += 1;
            self.metrics.value_bytes_read += self.deps[d].cursor.current().len() as u64;
            self.deps[d].refresh_current();
            self.deps[d].current_waiting = std::mem::take(&mut self.deps[d].next_waiting);
            let ready = std::mem::take(&mut self.deps[d].next_ready);
            for r in ready {
                self.apply_comparison(d, r);
            }
        }
    }

    /// The monitor: pop a ready referenced object, advance it, deliver to
    /// every attached dependent in deterministic order.
    fn run(&mut self) -> Result<()> {
        while let Some(r) = self.queue.pop_front() {
            // Cooperative cancellation once per monitor step (a step
            // advances one referenced cursor and fans its value out).
            ind_valueset::cancel::check_ambient("merge")?;
            self.refs[r].queued = false;
            if self.refs[r].attached.is_empty() {
                continue;
            }
            debug_assert_eq!(
                self.refs[r].requested.len(),
                self.refs[r].attached.len(),
                "a queued referenced object must have all requests in"
            );
            let advanced = self.refs[r].cursor.advance()?;
            debug_assert!(advanced, "queued referenced object had no next value");
            self.metrics.items_read += 1;
            self.metrics.value_bytes_read += self.refs[r].cursor.current().len() as u64;
            self.refs[r].refresh_current();
            self.refs[r].requested.clear();
            let attached: Vec<usize> = self.refs[r].attached.iter().copied().collect();
            for d in attached {
                if self.refs[r].attached.contains(&d) {
                    self.deliver(d, r)?;
                }
            }
        }
        debug_assert!(
            self.refs.iter().all(|r| r.attached.is_empty()),
            "monitor queue ran dry with unresolved candidates (deadlock)"
        );
        Ok(())
    }
}

/// Runs the single-pass algorithm over `candidates` (which must be
/// distinct pairs). Opens one cursor per dependent role and one per
/// referenced role up front — all simultaneously, which is the behaviour
/// that hit the open-file limit on wide schemas in Sec. 4.2. Over an
/// export the cursors share one descriptor per segment; what they still
/// cost together is their reader buffers, which [`crate::blockwise`] caps.
///
/// Returns the satisfied candidates sorted by `(dep, ref)`.
pub fn run_single_pass<P: ValueSetProvider>(
    provider: &P,
    candidates: &[Candidate],
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>> {
    // Assign dense dep/ref indices in first-appearance order. The compact
    // remap (shared with the SPIDER engines) turns the per-candidate role
    // lookup into a table lookup plus a flat-vector read, instead of a
    // linear scan over all previously seen attributes.
    let ids = CompactIds::from_candidates(candidates);
    let mut dep_slot: Vec<Option<usize>> = vec![None; ids.len()];
    let mut ref_slot: Vec<Option<usize>> = vec![None; ids.len()];
    let mut deps: Vec<DepState<P::Cursor>> = Vec::new();
    let mut refs: Vec<RefState<P::Cursor>> = Vec::new();

    let mut dep_of = |attr: u32,
                      deps: &mut Vec<DepState<P::Cursor>>,
                      metrics: &mut RunMetrics|
     -> Result<usize> {
        let slot = &mut dep_slot[ids.index_of(attr)];
        if let Some(i) = *slot {
            return Ok(i);
        }
        let cursor = provider.open(attr)?;
        metrics.cursor_opens += 1;
        let i = deps.len();
        deps.push(DepState {
            attr,
            cursor,
            current: Vec::new(),
            current_waiting: BTreeSet::new(),
            next_waiting: BTreeSet::new(),
            next_ready: Vec::new(),
        });
        *slot = Some(i);
        Ok(i)
    };
    let mut ref_of = |attr: u32,
                      refs: &mut Vec<RefState<P::Cursor>>,
                      metrics: &mut RunMetrics|
     -> Result<usize> {
        let slot = &mut ref_slot[ids.index_of(attr)];
        if let Some(i) = *slot {
            return Ok(i);
        }
        let cursor = provider.open(attr)?;
        metrics.cursor_opens += 1;
        let i = refs.len();
        refs.push(RefState {
            attr,
            cursor,
            current: Vec::new(),
            attached: BTreeSet::new(),
            requested: BTreeSet::new(),
            queued: false,
        });
        *slot = Some(i);
        Ok(i)
    };

    metrics.tested += candidates.len() as u64;

    // Resolve indices; open all cursors.
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(candidates.len());
    for c in candidates {
        debug_assert_ne!(c.dep, c.refd, "self-candidates are excluded upstream");
        let d = dep_of(c.dep, &mut deps, metrics)?;
        let r = ref_of(c.refd, &mut refs, metrics)?;
        pairs.push((d, r));
    }

    let mut engine = Engine {
        deps,
        refs,
        queue: VecDeque::new(),
        satisfied: Vec::new(),
        metrics,
    };

    // Read the first value of every dependent object. Empty dependent sets
    // (excluded by candidate generation, but legal inputs) satisfy all
    // their candidates trivially.
    let mut dep_empty = vec![false; engine.deps.len()];
    for (d, empty) in dep_empty.iter_mut().enumerate() {
        if engine.deps[d].cursor.advance()? {
            engine.metrics.items_read += 1;
            engine.metrics.value_bytes_read += engine.deps[d].cursor.current().len() as u64;
            engine.deps[d].refresh_current();
        } else {
            *empty = true;
        }
    }

    // Attach all candidates first (so readiness checks see the complete
    // attachment sets), then wire the initial requests.
    for (&(d, r), c) in pairs.iter().zip(candidates) {
        if dep_empty[d] {
            engine.satisfied.push(*c);
            engine.metrics.satisfied += 1;
        } else {
            engine.refs[r].attached.insert(d);
        }
    }
    for &(d, r) in &pairs {
        if dep_empty[d] || !engine.refs[r].attached.contains(&d) {
            continue;
        }
        if engine.deps[d].current_waiting.contains(&r) {
            continue; // duplicate candidate in input
        }
        if engine.want_next_value(r, d) {
            engine.deps[d].current_waiting.insert(r);
        } else {
            // Referenced set is empty: candidate refuted immediately.
            engine.detach(d, r);
        }
    }

    engine.run()?;

    let mut satisfied = engine.satisfied;
    satisfied.sort();
    Ok(satisfied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::run_brute_force;
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

    #[test]
    fn simple_inclusion_chain() {
        let provider = MemoryProvider::new(vec![
            set(&["a"]),                // 0
            set(&["a", "b"]),           // 1
            set(&["a", "b", "c", "d"]), // 2
        ]);
        let mut m = RunMetrics::new();
        let found = run_single_pass(&provider, &all_pairs(3), &mut m).unwrap();
        assert_eq!(
            found,
            vec![
                Candidate::new(0, 1),
                Candidate::new(0, 2),
                Candidate::new(1, 2),
            ]
        );
        assert_eq!(m.satisfied, 3);
        assert_eq!(m.cursor_opens, 6, "one per role per attribute");
    }

    #[test]
    fn disjoint_sets_all_refuted() {
        let provider = MemoryProvider::new(vec![set(&["a", "b"]), set(&["x", "y"])]);
        let mut m = RunMetrics::new();
        let found = run_single_pass(&provider, &all_pairs(2), &mut m).unwrap();
        assert!(found.is_empty());
    }

    #[test]
    fn empty_referenced_set_refutes() {
        let provider = MemoryProvider::new(vec![set(&["a"]), set(&[])]);
        let mut m = RunMetrics::new();
        let found = run_single_pass(&provider, &[Candidate::new(0, 1)], &mut m).unwrap();
        assert!(found.is_empty());
    }

    #[test]
    fn empty_dependent_set_is_trivially_satisfied() {
        let provider = MemoryProvider::new(vec![set(&[]), set(&["a"])]);
        let mut m = RunMetrics::new();
        let found = run_single_pass(&provider, &[Candidate::new(0, 1)], &mut m).unwrap();
        assert_eq!(found, vec![Candidate::new(0, 1)]);
    }

    #[test]
    fn equal_sets_satisfy_both_directions() {
        let provider = MemoryProvider::new(vec![set(&["p", "q"]), set(&["p", "q"])]);
        let mut m = RunMetrics::new();
        let found = run_single_pass(&provider, &all_pairs(2), &mut m).unwrap();
        assert_eq!(found, vec![Candidate::new(0, 1), Candidate::new(1, 0)]);
    }

    #[test]
    fn no_candidates_is_a_no_op() {
        let provider = MemoryProvider::new(vec![set(&["a"])]);
        let mut m = RunMetrics::new();
        assert!(run_single_pass(&provider, &[], &mut m).unwrap().is_empty());
        assert_eq!(m.items_read, 0);
    }

    #[test]
    fn agrees_with_brute_force_on_interleaved_sets() {
        // Sets engineered to exercise every branch: overlaps, gaps,
        // shared prefixes, early and late refutations.
        let provider = MemoryProvider::new(vec![
            set(&["b", "d", "f", "h"]),
            set(&["a", "b", "c", "d", "e", "f", "g", "h"]),
            set(&["b", "d"]),
            set(&["b", "c", "d"]),
            set(&["h"]),
            set(&["a", "z"]),
            set(&[]),
        ]);
        let candidates = all_pairs(7);
        let mut m_bf = RunMetrics::new();
        let mut bf = run_brute_force(&provider, &candidates, &mut m_bf).unwrap();
        bf.sort();
        let mut m_sp = RunMetrics::new();
        let sp = run_single_pass(&provider, &candidates, &mut m_sp).unwrap();
        assert_eq!(sp, bf);
    }

    #[test]
    fn single_pass_reads_each_value_at_most_once_per_role() {
        // Figure 5's claim: the single-pass algorithm is far more I/O
        // efficient. Upper bound: every value read at most once per role.
        let sets: Vec<MemoryValueSet> = (1..=8)
            .map(|i| {
                MemoryValueSet::from_unsorted(
                    (0..100u32)
                        .filter(|x| x % i == 0)
                        .map(|x| format!("{x:03}").into_bytes()),
                )
            })
            .collect();
        let total: u64 = sets.iter().map(|s| s.len()).sum();
        let provider = MemoryProvider::new(sets);
        let candidates = all_pairs(8);

        let mut m_sp = RunMetrics::new();
        let sp = run_single_pass(&provider, &candidates, &mut m_sp).unwrap();
        assert!(
            m_sp.items_read <= 2 * total,
            "single-pass read {} items; per-role bound is {}",
            m_sp.items_read,
            2 * total
        );

        let mut m_bf = RunMetrics::new();
        let mut bf = run_brute_force(&provider, &candidates, &mut m_bf).unwrap();
        bf.sort();
        assert_eq!(sp, bf);
        assert!(
            m_bf.items_read > m_sp.items_read,
            "brute force ({}) must read more than single-pass ({})",
            m_bf.items_read,
            m_sp.items_read
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let sets: Vec<MemoryValueSet> = (1..=5)
            .map(|i| {
                MemoryValueSet::from_unsorted(
                    (0..40u32)
                        .filter(|x| (x + i) % i == 0)
                        .map(|x| format!("{x:02}").into_bytes()),
                )
            })
            .collect();
        let provider = MemoryProvider::new(sets);
        let candidates = all_pairs(5);
        let mut m1 = RunMetrics::new();
        let r1 = run_single_pass(&provider, &candidates, &mut m1).unwrap();
        let mut m2 = RunMetrics::new();
        let r2 = run_single_pass(&provider, &candidates, &mut m2).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(m1.items_read, m2.items_read);
        assert_eq!(m1.comparisons, m2.comparisons);
    }
}
