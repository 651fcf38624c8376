#![warn(missing_docs)]

//! # lsqbench — end-to-end and per-layer benchmark of the LSQ simulator
//!
//! Four workloads ([`workload::Workload`]) run as batches on the
//! experiment engine, each batch in a fresh child process of the
//! `lsqbench` binary. The untraced run pass gives the end-to-end metrics
//! ([`report::END_TO_END`]); a separate trace pass gives the per-layer
//! metrics ([`report::PER_LAYER`]) from the simulator's self-profiler and
//! from the benchmark's own layer pass ([`layers`]), which times calls
//! into the trace, memory, LSQ and pipeline crates from outside. Every
//! simulated result is checked against the committed reference outputs
//! ([`golden`]). See README.md for the workloads, metrics and A/B
//! procedure.

pub mod batch;
pub mod golden;
pub mod layers;
pub mod report;
pub mod workload;
