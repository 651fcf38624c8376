#![warn(missing_docs)]

//! # lsq-pipeline — a cycle-level out-of-order superscalar simulator
//!
//! The execution substrate for the LSQ reproduction: an 8-wide (Table 1)
//! trace-driven out-of-order core with a hybrid GAg/PAg branch predictor,
//! a 256-entry ROB, a 64-entry issue queue, functional-unit and cache-port
//! structural hazards, squash-and-refetch recovery, and an [`lsq_core::Lsq`]
//! design point plugged into its memory stage.
//!
//! # Examples
//!
//! ```
//! use lsq_pipeline::{SimConfig, Simulator};
//! use lsq_trace::BenchProfile;
//!
//! let mut stream = BenchProfile::named("gzip").unwrap().stream(7);
//! let mut sim = Simulator::new(SimConfig::default());
//! let result = sim.run(&mut stream, 5_000);
//! assert!(result.ipc() > 0.1);
//! ```

pub mod accounting;
pub mod branch;
pub mod config;
pub mod lifecycle;
pub mod probe;
pub mod profile;
pub mod result;
mod sched;
pub mod sim;

pub use accounting::{Component, CpiStack};
pub use branch::HybridPredictor;
pub use config::SimConfig;
pub use lifecycle::{
    CriticalPath, PipeviewRecorder, StageLatency, CP_COMPONENTS, STAGE_BUCKETS, STAGE_NAMES,
};
pub use probe::{LsqOp, LsqSearch, NopProbe, Probe, ProbeSet, ProbeSpec};
pub use profile::{Phase, PhaseProfile, PhaseStat};
pub use result::SimResult;
pub use sim::Simulator;
