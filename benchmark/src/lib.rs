//! The library half of `ind-benchmark`: everything but argument parsing,
//! public so that `tests/smoke.rs` can read what the binary writes with
//! the same JSON parser and hold `BENCHMARK.json` to the catalogue.

pub mod catalog;
pub mod compare;
pub mod driver;
pub mod inputs;
pub mod json;
pub mod oracle;
pub mod procstat;
pub mod spans;
pub mod stats;
pub mod trial;
