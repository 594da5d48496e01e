//! Span identities, the global enable switch, and the RAII span guard.
//!
//! Hot-path module: a guard on the disabled path is one relaxed load; on
//! the enabled path it is two fixed-size ring-buffer writes and a handful
//! of thread-local counter reads. Nothing here allocates after the per-thread
//! ring has been set up (see [`crate::ring`]).

use crate::progress;
use crate::ring::{self, Event, EventKind};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A pre-registered span identity: an index into [`SPAN_NAMES`].
///
/// Identities are static so starting a span never formats or hashes a
/// name; the label is resolved only at report time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u16);

/// How a span's `arg` is rendered in labels (report time only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArgStyle {
    /// `arg` is incidental; the label is the bare name.
    None,
    /// `name/attr=arg` — per-attribute spans.
    Attr,
    /// `name=arg` — the arg is the span's own index (level, block pair…).
    Index,
}

/// The span-name registry: `(name, arg rendering)` per [`SpanId`].
pub(crate) const SPAN_TABLE: [(&str, ArgStyle); 15] = [
    ("discover", ArgStyle::None),
    ("export", ArgStyle::None),
    ("profile", ArgStyle::None),
    ("prescan", ArgStyle::None),
    ("generate", ArgStyle::None),
    ("load", ArgStyle::None),
    ("sort", ArgStyle::Attr),
    ("spill_merge", ArgStyle::None),
    ("spider_merge", ArgStyle::None),
    ("block_pass", ArgStyle::Index),
    ("level", ArgStyle::Index),
    ("resume_scan", ArgStyle::None),
    ("publish", ArgStyle::None),
    ("classes", ArgStyle::None),
    ("load_table", ArgStyle::Index),
];

/// Span names in [`SpanId`] order (the report vocabulary).
pub const SPAN_NAMES: [&str; 15] = [
    "discover",
    "export",
    "profile",
    "prescan",
    "generate",
    "load",
    "sort",
    "spill_merge",
    "spider_merge",
    "block_pass",
    "level",
    "resume_scan",
    "publish",
    "classes",
    "load_table",
];

/// Whole run: the root span every other phase nests under.
pub const DISCOVER: SpanId = SpanId(0);
/// The export phase (extract → sort → write, all attributes).
pub const EXPORT: SpanId = SpanId(1);
/// Building attribute profiles from an export.
pub const PROFILE: SpanId = SpanId(2);
/// The keep-going pre-scan that quarantines unreadable attributes.
pub const PRESCAN: SpanId = SpanId(3);
/// Candidate generation (incl. cardinality/min/max pretests).
pub const GENERATE: SpanId = SpanId(4);
/// Loading the database from its TSV files, before the run's root span
/// (the CLI records it when tracing).
pub const LOAD: SpanId = SpanId(5);
/// One attribute's extract+sort during export; `arg` = attribute id.
pub const SORT: SpanId = SpanId(6);
/// The k-way spill-run merge inside the external sorter; `arg` = runs.
pub const SPILL_MERGE: SpanId = SpanId(7);
/// The SPIDER tournament-tree merge over all cursors.
pub const SPIDER_MERGE: SpanId = SpanId(8);
/// One block of the block-wise engine; `arg` = block-pair index.
pub const BLOCK_PASS: SpanId = SpanId(9);
/// One level of the n-ary pipeline; `arg` = arity.
pub const LEVEL: SpanId = SpanId(10);
/// The resume sweep: orphan cleanup plus trailer-vs-footer validation.
pub const RESUME_SCAN: SpanId = SpanId(11);
/// One group commit of the export: write one segment's trailer, fsync the
/// segment, rename it, one directory fsync; `arg` = streams in the segment.
pub const PUBLISH: SpanId = SpanId(12);
/// Sorting the candidates' attributes into classes of equal value sets,
/// before the engine runs.
pub const CLASSES: SpanId = SpanId(13);
/// One table's TSV load, on a loader worker under [`LOAD`]; `arg` = the
/// table's index in the schema.
pub const LOAD_TABLE: SpanId = SpanId(14);

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Span-instance tokens and event ordering share one sequence so report
/// assembly can totally order events from every thread.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Token of the innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Is tracing on? One relaxed load — engines may call this per item.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on, fixing the time epoch on first use.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off; recorded events stay collectable.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clears every ring, counter, and histogram (the epoch and the enable
/// flag are kept). For harnesses that trace several runs in one process.
pub fn reset() {
    ring::reset_rings();
    progress::reset_counters();
    crate::hist::reset_histograms();
}

/// Nanoseconds since the trace epoch (0 before the first [`enable`]).
#[inline]
pub(crate) fn now_ns() -> u64 {
    match EPOCH.get() {
        Some(epoch) => epoch.elapsed().as_nanos() as u64,
        None => 0,
    }
}

/// An opaque handle to a span instance, for parenting work that runs on
/// another thread (worker spans under the spawning phase).
#[derive(Debug, Clone, Copy)]
pub struct ParentToken(u64);

/// The innermost open span on this thread, as a cross-thread parent
/// handle. Returns a root token when no span is open (or tracing is off).
#[inline]
pub fn current_parent() -> ParentToken {
    CURRENT.with(|c| ParentToken(c.get()))
}

/// An open span; finishes (records wall time + counter deltas) on drop.
///
/// Plain `Copy` data only — creating and dropping a guard never
/// allocates. Not `Send`: the guard restores its thread's current span and
/// takes its deltas from its thread's counters, so it ends where it began.
#[must_use = "a span measures nothing unless it lives across the phase"]
pub struct SpanGuard {
    token: u64,
    prev: u64,
    span: u16,
    arg: u64,
    base: [u64; progress::COUNTER_COUNT],
    active: bool,
    _thread_bound: PhantomData<*const ()>,
}

/// Starts a span under the thread's current span.
#[inline]
pub fn start(id: SpanId) -> SpanGuard {
    start_arg(id, 0)
}

/// Starts a span with an argument (attribute id, level, block pair…).
#[inline]
pub fn start_arg(id: SpanId, arg: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let parent = CURRENT.with(Cell::get);
    start_recorded(id, arg, parent)
}

/// Starts a span under an explicit parent — for worker threads, which
/// otherwise have no span context.
#[inline]
pub fn start_under(id: SpanId, arg: u64, parent: ParentToken) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    start_recorded(id, arg, parent.0)
}

fn start_recorded(id: SpanId, arg: u64, parent: u64) -> SpanGuard {
    let token = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(token));
    ring::record(Event {
        seq: token,
        kind: EventKind::Start,
        span: id.0,
        arg,
        token,
        parent,
        t_ns: now_ns(),
        counters: [0; progress::COUNTER_COUNT],
    });
    SpanGuard {
        token,
        prev,
        span: id.0,
        arg,
        base: progress::thread_snapshot(),
        active: true,
        _thread_bound: PhantomData,
    }
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            token: 0,
            prev: 0,
            span: 0,
            arg: 0,
            base: [0; progress::COUNTER_COUNT],
            active: false,
            _thread_bound: PhantomData,
        }
    }

    /// Ends the span now (drop does the same; this names the intent).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let now = progress::thread_snapshot();
        let mut deltas = [0u64; progress::COUNTER_COUNT];
        let mut i = 0;
        while i < progress::COUNTER_COUNT {
            deltas[i] = now[i].wrapping_sub(self.base[i]);
            i += 1;
        }
        ring::record(Event {
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            kind: EventKind::End,
            span: self.span,
            arg: self.arg,
            token: self.token,
            parent: 0,
            t_ns: now_ns(),
            counters: deltas,
        });
        CURRENT.with(|c| c.set(self.prev));
    }
}
