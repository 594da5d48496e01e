//! The brute-force approach (Sec. 3.1).
//!
//! "The brute force approach creates all IND candidates while iterating
//! over all dependent and referenced attributes. Each created IND candidate
//! is tested directly after its creation." Each test opens the two sorted
//! value files and merges them with early termination (Algorithm 1): stop
//! as soon as a dependent value is provably missing from the referenced
//! set.
//!
//! The parallel runner is an extension: candidate tests are mutually
//! independent, so they shard across the workspace's scoped worker pool
//! ([`ind_storage::run_workers`]).

use crate::candidates::Candidate;
use crate::metrics::RunMetrics;
use ind_valueset::{Result, ValueCursor, ValueSetProvider};

/// Tests a single IND candidate `dep ⊆ ref` — a faithful transcription of
/// the paper's Algorithm 1 over two sorted, duplicate-free cursors.
///
/// Early termination: returns `false` the moment the current dependent
/// value is smaller than the current referenced value (it can no longer
/// appear in the referenced set) or the referenced set is exhausted.
pub fn test_candidate<D, R>(dep: &mut D, refd: &mut R, metrics: &mut RunMetrics) -> Result<bool>
where
    D: ValueCursor,
    R: ValueCursor,
{
    // `while depValues has next value do currentDep := depValues.next()`
    while dep.advance()? {
        metrics.items_read += 1;
        metrics.value_bytes_read += dep.current().len() as u64;
        // `if refValues is empty then return false` — plus the exhausted
        // case checked inside the inner loop.
        loop {
            // `currentRef := refValues.next()` — for distinct sorted sets
            // the referenced cursor advances on every inner iteration
            // (after a match the next dependent value is strictly larger).
            if !refd.advance()? {
                return Ok(false);
            }
            metrics.items_read += 1;
            metrics.value_bytes_read += refd.current().len() as u64;
            metrics.comparisons += 1;
            match dep.current().cmp(refd.current()) {
                std::cmp::Ordering::Equal => break, // next dependent item
                std::cmp::Ordering::Less => return Ok(false), // currentDep ∉ ref
                std::cmp::Ordering::Greater => {}   // step the referenced side
            }
        }
    }
    Ok(true)
}

/// Runs the brute-force algorithm over `candidates`, opening two cursors
/// per test. Returns the satisfied candidates in input order.
pub fn run_brute_force<P: ValueSetProvider>(
    provider: &P,
    candidates: &[Candidate],
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>> {
    let mut satisfied = Vec::new();
    for &c in candidates {
        // Cooperative cancellation once per candidate test.
        ind_valueset::cancel::check_ambient("merge")?;
        let mut dep = provider.open(c.dep)?;
        let mut refd = provider.open(c.refd)?;
        metrics.cursor_opens += 2;
        metrics.tested += 1;
        if test_candidate(&mut dep, &mut refd, metrics)? {
            satisfied.push(c);
            metrics.satisfied += 1;
        }
    }
    Ok(satisfied)
}

/// Parallel brute force: shards `candidates` over `threads` workers. Each
/// worker accumulates private metrics which are merged afterwards (so
/// `items_read`/`comparisons` equal the sequential run exactly; `elapsed`
/// sums per-candidate work and is *not* wall-clock).
pub fn run_brute_force_parallel<P>(
    provider: &P,
    candidates: &[Candidate],
    threads: usize,
    metrics: &mut RunMetrics,
) -> Result<Vec<Candidate>>
where
    P: ValueSetProvider + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || candidates.len() < 2 {
        return run_brute_force(provider, candidates, metrics);
    }
    let shards: Vec<&[Candidate]> = candidates
        .chunks(candidates.len().div_ceil(threads))
        .collect();
    // Thread-local ambient tokens stop at a spawn: capture the caller's and
    // re-install it inside every worker so shards observe cancellation.
    let cancel = ind_valueset::cancel::ambient();
    let results = ind_storage::run_workers(shards.len(), |w| -> Result<_> {
        let _ambient = ind_valueset::cancel::set_ambient(cancel.clone());
        let mut local = RunMetrics::new();
        let found = run_brute_force(provider, shards[w], &mut local)?;
        Ok((found, local))
    });

    let mut satisfied = Vec::new();
    for r in results {
        let (found, local) = r?;
        satisfied.extend(found);
        metrics.merge(&local);
    }
    Ok(satisfied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_valueset::{MemoryProvider, MemoryValueSet};

    fn set(values: &[&str]) -> MemoryValueSet {
        MemoryValueSet::from_unsorted(values.iter().map(|s| s.as_bytes().to_vec()))
    }

    fn test_pair(dep: &[&str], refd: &[&str]) -> (bool, RunMetrics) {
        let mut m = RunMetrics::new();
        let ok = test_candidate(&mut set(dep).cursor(), &mut set(refd).cursor(), &mut m).unwrap();
        (ok, m)
    }

    #[test]
    fn subset_is_satisfied() {
        assert!(test_pair(&["b", "d"], &["a", "b", "c", "d"]).0);
        assert!(test_pair(&["a"], &["a"]).0);
        assert!(test_pair(&[], &["a"]).0, "empty set is a subset");
        assert!(test_pair(&[], &[]).0);
    }

    #[test]
    fn non_subset_is_refuted() {
        assert!(!test_pair(&["a", "x"], &["a", "b"]).0);
        assert!(!test_pair(&["a"], &[]).0, "non-empty ⊄ empty");
        assert!(!test_pair(&["a", "b", "c"], &["a", "c"]).0);
        assert!(!test_pair(&["0"], &["1", "2"]).0, "dep below ref minimum");
    }

    #[test]
    fn early_termination_reads_little() {
        // First dependent value sorts below every referenced value: one
        // comparison suffices.
        let (ok, m) = test_pair(&["aaa", "zzz"], &["bbb", "ccc", "ddd", "eee"]);
        assert!(!ok);
        assert_eq!(m.comparisons, 1);
        assert_eq!(m.items_read, 2, "one dependent + one referenced item");
    }

    #[test]
    fn satisfied_candidate_scans_referenced_set() {
        // A satisfied IND must scan at least the dependent set completely;
        // with matching maxima it walks the full referenced set too.
        let (ok, m) = test_pair(&["a", "d"], &["a", "b", "c", "d"]);
        assert!(ok);
        assert_eq!(m.items_read, 2 + 4);
    }

    #[test]
    fn runner_collects_satisfied_in_order() {
        let provider = MemoryProvider::new(vec![
            set(&["a", "b"]),      // 0
            set(&["a", "b", "c"]), // 1
            set(&["x"]),           // 2
        ]);
        let candidates = vec![
            Candidate::new(0, 1), // satisfied
            Candidate::new(0, 2), // refuted
            Candidate::new(2, 1), // refuted
        ];
        let mut m = RunMetrics::new();
        let found = run_brute_force(&provider, &candidates, &mut m).unwrap();
        assert_eq!(found, vec![Candidate::new(0, 1)]);
        assert_eq!(m.tested, 3);
        assert_eq!(m.satisfied, 1);
        assert_eq!(m.cursor_opens, 6);
    }

    #[test]
    fn parallel_matches_sequential() {
        // A pile of pseudo-random sets with plenty of inclusions.
        let sets: Vec<MemoryValueSet> = (0..12)
            .map(|i| {
                MemoryValueSet::from_unsorted(
                    (0..60u32)
                        .filter(|x| x % (i + 1) == 0)
                        .map(|x| format!("{x:03}").into_bytes()),
                )
            })
            .collect();
        let provider = MemoryProvider::new(sets);
        let mut candidates = Vec::new();
        for d in 0..12u32 {
            for r in 0..12u32 {
                if d != r {
                    candidates.push(Candidate::new(d, r));
                }
            }
        }
        let mut m_seq = RunMetrics::new();
        let seq = run_brute_force(&provider, &candidates, &mut m_seq).unwrap();
        for threads in [2, 3, 8] {
            let mut m_par = RunMetrics::new();
            let mut par =
                run_brute_force_parallel(&provider, &candidates, threads, &mut m_par).unwrap();
            par.sort();
            let mut seq_sorted = seq.clone();
            seq_sorted.sort();
            assert_eq!(par, seq_sorted, "threads={threads}");
            assert_eq!(m_par.items_read, m_seq.items_read, "same total I/O");
            assert_eq!(m_par.tested, m_seq.tested);
            assert_eq!(m_par.satisfied, m_seq.satisfied);
        }
    }
}
