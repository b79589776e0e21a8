//! # sfc-bench
//!
//! Experiment harness regenerating every table and figure of the Onion
//! Curve paper, plus the `bench_hotpath` microbenchmark harness and the
//! `bench_gate` regression gate over its exports.
//!
//! Each `exp_*` binary prints the paper artifact's rows/series as an
//! aligned text table and writes a CSV under `results/`. Run with `--paper`
//! for the paper's exact parameters (larger runtimes) or with the scaled
//! defaults for quick verification; `EXPERIMENTS.md` records both.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod harness;
pub mod scenarios;

pub use baseline::ScalarOnly;
pub use harness::{print_table, write_csv, ExperimentCfg, Row};
