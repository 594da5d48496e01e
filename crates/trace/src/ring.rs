//! Thread-local fixed-size event rings with a global registry.
//!
//! Each tracing thread owns one pre-sized event buffer behind an
//! `Arc<Mutex<…>>` that is also registered globally, so a worker's
//! events survive its thread and report assembly can drain every ring.
//! Recording into a ring with spare capacity never allocates; a full
//! ring counts the drop instead of growing.

use crate::progress::COUNTER_COUNT;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Events each thread can hold before drops start. Spans are
/// phase-granular (per attribute at the finest), so this is generous.
const RING_CAPACITY: usize = 16 * 1024;

/// Start or end marker of one span instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// Span opened.
    Start,
    /// Span closed; `counters` holds the delta snapshot.
    End,
}

/// One ring entry. `Copy`, fixed size: recording is a plain array write.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// Global order (shared sequence with span tokens).
    pub seq: u64,
    /// Start or end.
    pub kind: EventKind,
    /// Index into the span-name registry.
    pub span: u16,
    /// Span argument (attribute id, level, block pair…).
    pub arg: u64,
    /// Span-instance token.
    pub token: u64,
    /// Parent token (start events only; 0 = root).
    pub parent: u64,
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Deltas of the recording thread's progress counters (end events
    /// only).
    pub counters: [u64; COUNTER_COUNT],
}

struct Ring {
    events: Vec<Event>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.events.len() < self.events.capacity() {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

/// Every thread's ring, kept alive past thread exit for report assembly.
// lint: allow(hot_alloc) — empty registry; Vec::new is const and does not allocate
static REGISTRY: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());
/// Drops recorded on rings that were full (surfaced in the report).
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
}

/// Appends one event to this thread's ring, creating and registering the
/// ring on first use (the module's only allocation).
pub(crate) fn record(event: Event) {
    LOCAL.with(|local| {
        let mut slot = local.borrow_mut();
        if slot.is_none() {
            let ring = Arc::new(Mutex::new(Ring {
                events: Vec::with_capacity(RING_CAPACITY),
                dropped: 0,
            }));
            match REGISTRY.lock() {
                Ok(mut registry) => registry.push(Arc::clone(&ring)),
                Err(_) => return, // a panicking collector poisoned the registry; drop the event
            }
            *slot = Some(ring);
        }
        if let Some(ring) = slot.as_ref() {
            if let Ok(mut ring) = ring.lock() {
                ring.push(event);
            }
        }
    });
}

/// Copies every ring's events out, sorted by global sequence, each with
/// the index of its ring: the identity of the thread that recorded it.
pub(crate) fn drain_sorted() -> Vec<(usize, Event)> {
    let mut all = Vec::with_capacity(1024);
    if let Ok(registry) = REGISTRY.lock() {
        let mut total_dropped = 0;
        for (thread, ring) in registry.iter().enumerate() {
            if let Ok(ring) = ring.lock() {
                all.extend(ring.events.iter().map(|&event| (thread, event)));
                total_dropped += ring.dropped;
            }
        }
        DROPPED.store(total_dropped, Ordering::Relaxed);
    }
    all.sort_unstable_by_key(|(_, e)| e.seq);
    all
}

/// Events lost to full rings, as of the last [`drain_sorted`].
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears every ring (capacity retained) and the drop counter.
pub(crate) fn reset_rings() {
    if let Ok(registry) = REGISTRY.lock() {
        for ring in registry.iter() {
            if let Ok(mut ring) = ring.lock() {
                ring.events.clear();
                ring.dropped = 0;
            }
        }
    }
    DROPPED.store(0, Ordering::Relaxed);
}
