//! # ind-trace
//!
//! Hierarchical phase spans, live progress counters, and power-of-two
//! histograms for the whole workspace — with the tree's usual discipline:
//! **zero steady-state allocation** once tracing is warm. Span identities
//! are pre-registered statics ([`SpanId`]), events land in thread-local
//! fixed-size ring buffers (a full ring counts drops, never grows), and
//! every span close carries a delta snapshot of its thread's progress
//! counters (a span's tree node adds what its descendants on other threads
//! counted), so a finished run can be folded into a span tree
//! ([`collect`]), a versioned JSON report ([`spans_json`]), or
//! flamegraph-compatible folded stacks ([`folded`]) without the engines
//! ever having formatted a byte.
//!
//! When tracing is disabled (the default), a span start/finish is one
//! relaxed atomic load each and the counters are never touched — the
//! instrumented hot loops cost nothing.

#![warn(missing_docs)]

mod hist;
pub mod json;
mod progress;
mod report;
mod ring;
mod span;

pub use hist::{histograms, Histogram, BLOCK_FILL_NANOS, HIST_BUCKETS, RECORD_LEN_BYTES};
pub use progress::{
    add_counter, candidates_live, progress, set_candidates_live, Counter, ProgressSnapshot,
    COUNTER_COUNT, COUNTER_NAMES,
};
pub use report::{collect, folded, span_label, spans_json, SpanNode, Trace};
pub use ring::dropped_events;
pub use span::{
    current_parent, disable, enable, enabled, reset, start, start_arg, start_under, ParentToken,
    SpanGuard, SpanId, BLOCK_PASS, CLASSES, DISCOVER, EXPORT, GENERATE, LEVEL, LOAD, LOAD_TABLE,
    PRESCAN, PROFILE, PUBLISH, RESUME_SCAN, SORT, SPAN_NAMES, SPIDER_MERGE, SPILL_MERGE,
};
