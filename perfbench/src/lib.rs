//! End-to-end and per-layer benchmark of the GMorph workspace.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload; see
//! `README.md` in this directory for the workloads and metrics.

pub mod cli;
pub mod probes;
pub mod search;
pub mod serve;
pub mod setup;
pub mod spans;
pub mod util;
pub mod workloads;
