#![warn(missing_docs)]

//! # lsq-experiments — reproduction of every table and figure
//!
//! One runner per artifact of the paper's evaluation (§4): Tables 1–6 and
//! Figures 6–12. Each experiment sweeps the relevant [`lsq_core::LsqConfig`]
//! design points over the 18 synthetic SPEC2K workloads and prints rows
//! shaped like the paper's, so EXPERIMENTS.md can record paper-vs-measured
//! side by side.
//!
//! Each artifact is declared once, in [`ARTIFACTS`]. Run one with
//! `cargo run --release -p lsq-experiments --bin artifact -- fig10`, or
//! every artifact of [`all`] with `artifact all`. The instruction budget
//! per run is controlled by the `LSQ_INSTRS` environment variable
//! (default 250,000 after a 100,000-instruction warm-up).
//!
//! All runs flow through the shared [`engine`]: a work-stealing pool
//! (`LSQ_JOBS` workers) with a result cache, so design points shared
//! between artifacts — the base and two-ported configurations appear in
//! most of Figures 6–12 — are simulated exactly once per process. See
//! the [`engine`] docs for `LSQ_PROGRESS` and `LSQ_EXPERIMENTS_JSON`.
//!
//! Every run warms up, then measures, in one place
//! ([`lsq_pipeline::Simulator::measure`]). Any run can be observed
//! through the [`lsq_obs`] event ring and windowed sampler, the cycle
//! accountant, the phase timer and the pipeline viewer: set the `LSQ_*`
//! knobs (e.g. `LSQ_TRACE=<path>[:events|:chrome|:timeline]`) to
//! observe every fresh engine job, pass a [`lsq_pipeline::ProbeSpec`]
//! to [`Engine::run_observed`], or hand your own
//! [`lsq_pipeline::ProbeSet`] to [`runner::run_observed`].
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
pub use experiments::{all, by_name, Artifact, ARTIFACTS};
pub use runner::{run_design_point, run_observed, RunSpec};
