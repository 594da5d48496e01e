//! Block-wise single-pass under a cap on cursors held at once (Sec. 4.2).
//!
//! "To scale the single-pass algorithm to such numbers of dependent and
//! referenced attributes we must implement a block-wise approach — comparing
//! blocks of dependent attributes against (all or blocks of) referenced
//! attributes." The paper needed it because single-pass "had to open 2560
//! files", one descriptor per cursor. Here an export's cursors share one
//! descriptor per segment, so descriptors grow with segments, not cursors;
//! what a cursor still costs is its reader buffer, up to
//! `min(block size, stream size)` bytes. The cap bounds that sum: dependent and referenced attributes are
//! partitioned into blocks whose combined size respects it, and the plain
//! single-pass runs once per block pair on the candidates that fall inside
//! it. Every candidate lands in exactly one block pair, so the union of the
//! sub-results is the full result.

use crate::candidates::Candidate;
use crate::metrics::RunMetrics;
use crate::single_pass::run_single_pass;
use ind_valueset::{Result, ValueSetProvider};
use std::collections::HashSet;

/// Configuration for the block-wise runner.
#[derive(Debug, Clone)]
pub struct BlockwiseConfig {
    /// Maximum number of cursors held at once — a bound on reader buffers
    /// (`Σ min(block_size, stream size)`), not on descriptors. Each sub-run
    /// opens one cursor per dependent plus one per referenced attribute in
    /// its block pair; a cap below 2 is raised to 2, the one-dependent,
    /// one-referenced floor.
    pub max_open_files: usize,
}

impl Default for BlockwiseConfig {
    fn default() -> Self {
        BlockwiseConfig {
            max_open_files: 512,
        }
    }
}

/// Runs the block-wise single-pass. Returns satisfied candidates sorted by
/// `(dep, ref)`.
pub fn run_blockwise<P: ValueSetProvider>(
    provider: &P,
    candidates: &[Candidate],
    config: &BlockwiseConfig,
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>> {
    let cap = config.max_open_files.max(2);
    // Distinct attributes per role, in first-appearance order.
    let mut deps: Vec<u32> = Vec::new();
    let mut refs: Vec<u32> = Vec::new();
    let mut seen_dep = HashSet::new();
    let mut seen_ref = HashSet::new();
    for c in candidates {
        if seen_dep.insert(c.dep) {
            deps.push(c.dep);
        }
        if seen_ref.insert(c.refd) {
            refs.push(c.refd);
        }
    }

    let dep_block = cap / 2;
    let ref_block = cap - dep_block;

    let mut satisfied = Vec::new();
    let mut sub = Vec::new();
    let mut pass = 0u64;
    for dep_chunk in deps.chunks(dep_block) {
        let dep_set: HashSet<u32> = dep_chunk.iter().copied().collect();
        for ref_chunk in refs.chunks(ref_block) {
            // Cooperative cancellation once per block pair (each sub-run
            // also polls per monitor step inside `run_single_pass`).
            ind_valueset::cancel::check_ambient("merge")?;
            let ref_set: HashSet<u32> = ref_chunk.iter().copied().collect();
            sub.clear();
            sub.extend(
                candidates
                    .iter()
                    .filter(|c| dep_set.contains(&c.dep) && ref_set.contains(&c.refd))
                    .copied(),
            );
            if !sub.is_empty() {
                let _span = ind_trace::start_arg(ind_trace::BLOCK_PASS, pass);
                pass += 1;
                satisfied.extend(run_single_pass(provider, &sub, metrics)?);
            }
        }
    }
    satisfied.sort();
    Ok(satisfied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::run_brute_force;
    use ind_valueset::{MemoryProvider, MemoryValueSet, ValueCursor};
    use std::cell::Cell;
    use std::rc::Rc;

    fn provider(n: u32) -> MemoryProvider {
        MemoryProvider::new(
            (0..n)
                .map(|i| {
                    MemoryValueSet::from_unsorted(
                        (0..60u32)
                            .filter(|x| x % (i + 1) == 0)
                            .map(|x| format!("{x:03}").into_bytes()),
                    )
                })
                .collect(),
        )
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
    fn matches_brute_force_at_every_budget() {
        let p = provider(9);
        let candidates = all_pairs(9);
        let mut m_bf = RunMetrics::new();
        let mut expected = run_brute_force(&p, &candidates, &mut m_bf).unwrap();
        expected.sort();
        for budget in [2, 3, 5, 8, 100] {
            let mut m = RunMetrics::new();
            let got = run_blockwise(
                &p,
                &candidates,
                &BlockwiseConfig {
                    max_open_files: budget,
                },
                &mut m,
            )
            .unwrap();
            assert_eq!(got, expected, "budget={budget}");
        }
    }

    /// A provider that records the peak number of its cursors alive at
    /// once.
    struct PeakCursors<P> {
        inner: P,
        live: Rc<Cell<usize>>,
        peak: Cell<usize>,
    }

    struct Counted<C> {
        inner: C,
        live: Rc<Cell<usize>>,
    }

    impl<C> Drop for Counted<C> {
        fn drop(&mut self) {
            self.live.set(self.live.get() - 1);
        }
    }

    impl<C: ValueCursor> ValueCursor for Counted<C> {
        fn advance(&mut self) -> Result<bool> {
            self.inner.advance()
        }
        fn current(&self) -> &[u8] {
            self.inner.current()
        }
        fn remaining(&self) -> u64 {
            self.inner.remaining()
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    impl<P: ValueSetProvider> ValueSetProvider for PeakCursors<P> {
        type Cursor = Counted<P::Cursor>;
        fn open(&self, id: u32) -> Result<Self::Cursor> {
            let inner = self.inner.open(id)?;
            self.live.set(self.live.get() + 1);
            self.peak.set(self.peak.get().max(self.live.get()));
            Ok(Counted {
                inner,
                live: Rc::clone(&self.live),
            })
        }
        fn attribute_count(&self) -> usize {
            self.inner.attribute_count()
        }
    }

    #[test]
    fn never_holds_more_cursors_than_its_cap() {
        let candidates = all_pairs(8);
        let mut m = RunMetrics::new();
        let mut expected = run_brute_force(&provider(8), &candidates, &mut m).unwrap();
        expected.sort();
        for cap in [2, 3, 5, 8] {
            let p = PeakCursors {
                inner: provider(8),
                live: Rc::default(),
                peak: Cell::default(),
            };
            let mut m = RunMetrics::new();
            let config = BlockwiseConfig {
                max_open_files: cap,
            };
            let got = run_blockwise(&p, &candidates, &config, &mut m).unwrap();
            assert_eq!(got, expected, "cap={cap}");
            assert!(p.peak.get() <= cap, "cap={cap}: peak {}", p.peak.get());
            assert_eq!(p.live.get(), 0, "every cursor is dropped");
        }
    }

    #[test]
    fn a_cap_below_two_runs_as_two() {
        let p = provider(4);
        let candidates = all_pairs(4);
        let mut m = RunMetrics::new();
        let mut expected = run_brute_force(&p, &candidates, &mut m).unwrap();
        expected.sort();
        let mut m = RunMetrics::new();
        let config = BlockwiseConfig { max_open_files: 1 };
        let got = run_blockwise(&p, &candidates, &config, &mut m).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn blockwise_rereads_data_compared_to_single_pass() {
        // The price of the budget: dependents are re-read once per
        // referenced block.
        let p = provider(9);
        let candidates = all_pairs(9);
        let mut m_sp = RunMetrics::new();
        run_single_pass(&p, &candidates, &mut m_sp).unwrap();
        let mut m_bw = RunMetrics::new();
        run_blockwise(
            &p,
            &candidates,
            &BlockwiseConfig { max_open_files: 4 },
            &mut m_bw,
        )
        .unwrap();
        assert!(m_bw.items_read >= m_sp.items_read);
    }
}
