//! # ind-core
//!
//! Unary inclusion dependency discovery — the paper's primary contribution.
//!
//! The crate provides, over any [`ind_valueset::ValueSetProvider`]:
//!
//! * [`brute_force`] — Algorithm 1: one candidate at a time, merging two
//!   sorted cursors with early termination (Sec. 3.1), plus a parallel
//!   extension;
//! * [`single_pass`] — Algorithms 2/3: all candidates in parallel during
//!   one coordinated scan (Sec. 3.2);
//!
//! * [`spider`] — the "future work" improvement of the single-pass idea: a
//!   tournament-tree k-way merge over all attribute cursors (Sec. 7);
//! * [`blockwise`] — the Sec. 4.2 block-wise single-pass, which holds at
//!   most a given number of cursors (reader buffers) at once;
//! * [`closure`] — transitive-closure utilities over IND sets;
//! * [`nary`] — the levelwise search: unary INDs are its level 1, composite
//!   (n-ary) INDs its higher levels (beyond the paper's unary scope);
//! * [`runner`] — the [`IndFinder`] facade tying everything together: one
//!   [`IndFinder::run`] for every arity and [`Backend`]. It hands the engine
//!   one representative per class of attributes with equal value sets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attr;
pub mod blockwise;
pub mod brute_force;
mod candidates;
mod classes;
pub mod closure;
mod compact;
mod metrics;
pub mod nary;
pub mod partial;
pub mod runner;
pub mod single_pass;
pub mod spider;

pub use attr::{
    memory_export, memory_export_with_threads, profile_database, profiles_from_export,
    AttributeProfile,
};
pub use blockwise::{run_blockwise, BlockwiseConfig};
pub use brute_force::{run_brute_force, run_brute_force_parallel, test_candidate};
pub use candidates::{generate_candidates, Candidate, Ind, PretestConfig};
pub use closure::{in_closure, transitive_closure};
pub use metrics::RunMetrics;
pub use nary::{NaryCandidate, NaryLevelStats};
pub use partial::{inclusion_count, InclusionCount};
pub use runner::{Algorithm, Backend, DegradedReport, Discovery, FinderConfig, IndFinder};
pub use single_pass::run_single_pass;
pub use spider::run_spider;
