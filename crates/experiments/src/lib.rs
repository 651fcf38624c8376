#![warn(missing_docs)]

//! # lsq-experiments — reproduction of every table and figure
//!
//! One runner per artifact of the paper's evaluation (§4): Tables 1–6 and
//! Figures 6–12. Each experiment sweeps the relevant [`lsq_core::LsqConfig`]
//! design points over the 18 synthetic SPEC2K workloads and prints rows
//! shaped like the paper's, so EXPERIMENTS.md can record paper-vs-measured
//! side by side.
//!
//! Run a single artifact with `cargo run --release -p lsq-experiments
//! --bin artifact -- fig10` (see [`experiments::ARTIFACT_NAMES`] for the
//! menu), or everything with `--bin all`. The instruction budget per run
//! is controlled by the `LSQ_INSTRS` environment variable (default
//! 250,000 after a 100,000-instruction warm-up).
//!
//! All runs flow through the shared [`engine`]: a work-stealing pool
//! (`LSQ_JOBS` workers) with a result cache, so design points shared
//! between artifacts — the base and two-ported configurations appear in
//! most of Figures 6–12 — are simulated exactly once per process. See
//! the [`engine`] docs for `LSQ_PROGRESS` and `LSQ_EXPERIMENTS_JSON`.
//!
//! Any run can be traced through the [`lsq_obs`] event ring and windowed
//! sampler: set `LSQ_TRACE=<path>[:events|:chrome|:timeline]` (and
//! optionally `LSQ_SAMPLE_CYCLES=<n>`), or call
//! [`runner::run_traced`] directly.
//!
//! # Examples
//!
//! ```
//! use lsq_experiments::runner::{run_design_point, RunSpec};
//! use lsq_core::LsqConfig;
//!
//! let spec = RunSpec { warmup: 1_000, instrs: 3_000, seed: 1 };
//! let r = run_design_point("gzip", LsqConfig::default(), false, spec);
//! assert!(r.ipc() > 0.1);
//! ```

pub mod benchdiff;
pub mod engine;
pub mod experiments;
pub mod runner;
pub mod telemetry;

pub use engine::{worker_count, Engine, Job};
pub use experiments::{all, by_name, Artifact, ARTIFACT_NAMES};
pub use runner::{run_design_point, run_traced, RunSpec};
