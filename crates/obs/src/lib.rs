#![warn(missing_docs)]

//! # lsq-obs — observability for the LSQ reproduction
//!
//! The simulator's evaluation counters (`lsq_core::LsqStats`-style
//! end-of-run aggregates) cannot show *when* or *why* a counter moved.
//! This crate adds the missing audit trail without taxing untraced runs:
//!
//! * **Typed event tracing** — [`Event`]s collected into a bounded ring
//!   buffer ([`TraceBuffer`]) and serialized to JSONL or Chrome
//!   `trace_event` JSON (open in Perfetto or `chrome://tracing`). The
//!   simulator's probe set fills the ring; untraced simulators carry no
//!   ring at all.
//! * **Windowed sampling** — one label-driven [`Sampler`] turns
//!   per-cycle cumulative counters into fixed-width window rows of
//!   deltas. It backs both CSVs: the timeline ([`timeline_csv`]: IPC,
//!   queue occupancy, search demand, in-flight loads), so warm-up vs.
//!   measured behaviour is visible at a glance, and the windowed CPI
//!   stack ([`Sampler::to_csv`], one column per stall component).
//!   Per-window deltas sum back exactly to the run's totals.
//! * **Per-PC attribution** — [`PcAttribution`] charges violations,
//!   squashes, and useless searches to static PCs, making Table 3's
//!   misprediction rate debuggable.
//! * **One sink writer** — [`write_file`] writes every observer file
//!   (trace, timeline, pipeline-viewer log, CPI-stack CSV) and the
//!   experiment engine's JSON dump, creating missing parent directories.
//! * **Env-driven wiring** — [`TraceConfig::from_env`] parses
//!   `LSQ_TRACE=<path>[:events|:timeline|:chrome]` and
//!   `LSQ_SAMPLE_CYCLES=<n>` so any experiment run can be traced
//!   without code changes.
//!
//! The crate depends only on `lsq-isa` (for [`lsq_isa::Pc`] and
//! [`lsq_isa::Addr`]) and has no external dependencies; [`json`] is a
//! small built-in JSON builder/parser used for serialization and by
//! tests that read the output back.

pub mod attrib;
pub mod config;
pub mod event;
pub mod json;
pub mod pipeview;
pub mod sample;
pub mod tracer;

pub use attrib::{PcAttribution, PcCounters};
pub use config::{numbered, write_file, TraceConfig, TraceMode};
pub use event::{Event, MemOp, MissLevel, QueueSide, SquashCause, TimedEvent};
pub use json::Json;
pub use pipeview::{
    parse_konata, parse_o3, parse_pipeview, to_konata, to_o3, ParsedInstr, PipeRecord,
    PipeviewConfig, PipeviewMode, DEFAULT_PIPEVIEW_CAPACITY,
};
pub use sample::{timeline_csv, SampleInput, Sampler, Window, TIMELINE};
pub use tracer::{TraceBuffer, DEFAULT_RING_CAPACITY};
