//! Progress counters: the global ones are the live surface behind
//! `--progress`; each thread's own copy feeds the per-span delta snapshots,
//! so a span counts only the work of the thread it runs on.
//!
//! The globals are relaxed atomics — the numbers are telemetry, not
//! synchronisation — and every mutator is gated on [`crate::enabled`], so a
//! disabled run never touches the cache lines.

use crate::span::enabled;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of delta-snapshotted counters (the fixed span payload size).
pub const COUNTER_COUNT: usize = 4;

/// Counter names in [`Counter`] order (the report vocabulary).
pub const COUNTER_NAMES: [&str; COUNTER_COUNT] = [
    "items_read",
    "value_bytes_read",
    "attributes_exported",
    "spill_runs",
];

/// One of the global progress counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Values pulled through merge cursors.
    ItemsRead = 0,
    /// Payload bytes those values carried.
    ValueBytesRead = 1,
    /// Attribute exports completed (extract → sort → write).
    AttributesExported = 2,
    /// Spill runs written by the external sorter.
    SpillRuns = 3,
}

static COUNTERS: [AtomicU64; COUNTER_COUNT] = [const { AtomicU64::new(0) }; COUNTER_COUNT];
/// Gauge, not a counter: the engines overwrite it with the survivor count.
static CANDIDATES_LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's share of [`COUNTERS`], never reset: spans take
    /// wrapping deltas of it.
    static THREAD_COUNTERS: [Cell<u64>; COUNTER_COUNT] =
        const { [const { Cell::new(0) }; COUNTER_COUNT] };
}

/// Adds `delta` to a counter, globally and on this thread. No-op (one
/// relaxed load) when disabled.
#[inline]
pub fn add_counter(counter: Counter, delta: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(delta, Ordering::Relaxed);
        THREAD_COUNTERS.with(|local| {
            let cell = &local[counter as usize];
            cell.set(cell.get().wrapping_add(delta));
        });
    }
}

/// Publishes the current surviving-candidate count (a gauge).
#[inline]
pub fn set_candidates_live(count: u64) {
    if enabled() {
        CANDIDATES_LIVE.store(count, Ordering::Relaxed);
    }
}

/// The last published surviving-candidate count.
pub fn candidates_live() -> u64 {
    CANDIDATES_LIVE.load(Ordering::Relaxed)
}

/// Snapshot of the global counters, in [`Counter`] order.
fn snapshot() -> [u64; COUNTER_COUNT] {
    COUNTERS.each_ref().map(|c| c.load(Ordering::Relaxed))
}

/// Snapshot of this thread's counters, in [`Counter`] order: what a span's
/// deltas are taken from.
#[inline]
pub(crate) fn thread_snapshot() -> [u64; COUNTER_COUNT] {
    THREAD_COUNTERS.with(|local| local.each_ref().map(Cell::get))
}

/// Everything the heartbeat prints, read in one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Values pulled through merge cursors so far.
    pub items_read: u64,
    /// Payload bytes those values carried.
    pub value_bytes_read: u64,
    /// Attribute exports completed so far.
    pub attributes_exported: u64,
    /// Spill runs written so far.
    pub spill_runs: u64,
    /// Candidates still surviving (gauge; engines overwrite it).
    pub candidates_live: u64,
}

/// Reads the progress counters (valid whether or not tracing is on).
pub fn progress() -> ProgressSnapshot {
    let c = snapshot();
    ProgressSnapshot {
        items_read: c[Counter::ItemsRead as usize],
        value_bytes_read: c[Counter::ValueBytesRead as usize],
        attributes_exported: c[Counter::AttributesExported as usize],
        spill_runs: c[Counter::SpillRuns as usize],
        candidates_live: candidates_live(),
    }
}

/// Zeroes every counter and the gauge (for multi-run harnesses).
pub(crate) fn reset_counters() {
    for counter in COUNTERS.iter() {
        counter.store(0, Ordering::Relaxed);
    }
    CANDIDATES_LIVE.store(0, Ordering::Relaxed);
}
