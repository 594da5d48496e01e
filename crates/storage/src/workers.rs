//! The workspace's one worker-count policy and the scoped pool the
//! embarrassingly parallel front half (TSV load, per-attribute extraction)
//! runs on.

/// Workers for table loading and attribute extraction when the caller names
/// no count: every core the process may run on, 1 when that is unknown.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `worker(w)` for every `w` in `0..workers.max(1)` and returns the
/// results in worker order. Worker 0 runs on the calling thread, the others
/// on scoped threads joined before this returns — so one worker means no
/// spawn at all, through the same closure. A worker's panic is re-raised
/// here. Thread-locals of the caller (ambient cancel token, trace parent) do
/// not follow onto the spawned threads; `worker` re-installs what it needs.
pub fn run_workers<T: Send>(workers: usize, worker: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let worker = &worker;
        let spawned: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        let mut results = Vec::with_capacity(spawned.len() + 1);
        results.push(worker(0));
        for handle in spawned {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn one_worker_runs_inline_and_many_run_in_worker_order() {
        let caller = std::thread::current().id();
        for workers in [0usize, 1] {
            let ran = run_workers(workers, |w| (w, std::thread::current().id()));
            assert_eq!(ran, [(0, caller)], "workers={workers}: no spawn");
        }
        let ran = run_workers(5, |w| (w, std::thread::current().id()));
        assert_eq!(
            ran.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert_eq!(ran[0].1, caller, "worker 0 is the calling thread");
        assert!(ran[1..].iter().all(|(_, id)| *id != caller));
    }

    #[test]
    fn workers_share_one_index_and_cover_it_exactly_once() {
        let next = AtomicUsize::new(0);
        let claimed = run_workers(4, |_| {
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= 1000 {
                    return mine;
                }
                mine.push(i);
            }
        });
        let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            run_workers(3, |w| assert_ne!(w, 2, "worker two fails"));
        });
        assert!(caught.is_err());
    }

    #[test]
    fn the_default_is_at_least_one() {
        assert!(default_workers() >= 1);
    }
}
