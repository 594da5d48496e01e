//! # ind-bench
//!
//! The experiment harness: one module (and one binary) per table/figure of
//! the paper. The list below is the per-experiment index; `run_all`
//! regenerates every report, and those reports hold the measured numbers
//! beside the paper's.
//!
//! Binaries (each prints a paper-shaped report and writes
//! `experiments/<name>.txt`):
//!
//! * `table1` — Table 1, SQL approaches;
//! * `table2` — Table 2, external algorithms vs join;
//! * `fig5` — Figure 5, I/O comparison;
//! * `pruning` — Sec. 4.1 max-value pretest;
//! * `discovery` — Sec. 5 schema-discovery analysis;
//! * `scalability` — Sec. 4.2: the cursors single-pass holds against the
//!   descriptors it opens, and block-wise under a cursor cap;
//! * `run_all` — everything above in sequence;
//! * `bench_spider` — the perf-trajectory harness: the zero-allocation
//!   SPIDER merge against the frozen [`legacy_spider`] engine (counting
//!   allocator), the same engine over the block reader with read-call
//!   counts and a block-size sweep, and the library's own export with
//!   allocation counts and a memory-budget spill sweep; writes the
//!   machine-readable `BENCH_spider.json` baseline (see the README's
//!   Performance section).

#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod legacy_spider;
pub mod sql_deadline;
pub mod table;

pub use sql_deadline::{run_sql_with_deadline, SqlOutcome};
pub use table::{format_count, format_duration, TextTable};
