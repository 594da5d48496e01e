//! Candidate pruning beyond the generation-time pretests.
//!
//! The cardinality and max-value pretests live in candidate generation
//! ([`crate::generate_candidates`]); this module holds [`sampling`], the
//! pretest the paper defers to future work: "Another idea is to pretest the
//! IND candidates using random samples of the dependent data" (Sec. 4.1).

pub mod sampling;

pub use sampling::{sampling_pretest, SamplingConfig};
