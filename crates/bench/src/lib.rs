//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/` binary is a thin wrapper around a function in
//! [`experiments`]; `bin/all_experiments` runs the full suite and
//! writes `results/*.txt`. Criterion micro-benchmarks live under
//! `benches/`.

pub mod cli;
pub mod experiments;
pub mod fixtures;
pub mod scale;

pub use cli::RunOpts;
