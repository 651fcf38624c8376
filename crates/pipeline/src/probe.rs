//! The simulator's one observer interface.
//!
//! [`Simulator`](crate::Simulator) reports every pipeline moment to a
//! single [`Probe`]: cycle begin and end, fetch, dispatch, issue, the
//! outcome of each LSQ search and cache miss, classified stall slots,
//! commit, squash, and phase timing. [`Lsq`](lsq_core::Lsq) and
//! [`MemoryHierarchy`](lsq_mem::MemoryHierarchy) hold no observer: they
//! report what happened in their return values and the simulator
//! forwards it here, so every reported number comes from one stream.
//!
//! There are exactly two implementors:
//!
//! * [`NopProbe`] — the default and the benchmark path. Every hook is an
//!   empty `#[inline(always)]` body and [`Probe::enabled`] /
//!   [`Probe::timing`] are constant `false`, so a `Simulator<NopProbe>`
//!   computes no hook argument and compiles to the unobserved code. The
//!   `zero-cost-nop` lint checks the contract.
//! * [`ProbeSet`] — optional recorders behind the hooks: the event ring
//!   ([`TraceBuffer`]), the windowed [`Sampler`], the phase timer
//!   ([`WallProfiler`]), the slot accountant ([`SlotAccountant`]), and
//!   the lifecycle recorder ([`PipeviewRecorder`]).
//!   [`ProbeSet::from_env`] builds it from the `LSQ_*` knobs, and its
//!   [`Sinks`] name the files the recorders are written to.

use crate::accounting::{Component, SlotAccountant};
use crate::config::SimConfig;
use crate::lifecycle::PipeviewRecorder;
use crate::profile::{Phase, WallProfiler};
use crate::result::SimResult;
use lsq_isa::{Addr, InstrKind, Instruction, Pc};
use lsq_obs::{
    numbered, Event, MemOp, MissLevel, PipeviewConfig, QueueSide, SampleInput, Sampler,
    SquashCause, TraceBuffer, TraceConfig,
};
use std::path::PathBuf;

/// Which LSQ operation an [`LsqSearch`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsqOp {
    /// A load issued.
    Load,
    /// A store issued (address generation).
    Store,
    /// A retired store drained from the store queue.
    Drain,
}

/// What one LSQ operation searched and found, reported right after the
/// `Lsq` call returns.
#[derive(Debug, Clone, Copy)]
pub struct LsqSearch<'a> {
    /// The operation.
    pub op: LsqOp,
    /// The load's or store's sequence number.
    pub seq: u64,
    /// Its static PC.
    pub pc: Pc,
    /// Its effective address.
    pub addr: Addr,
    /// Segment path of the store-queue forwarding search, if one ran.
    pub sq_path: Option<&'a [usize]>,
    /// Segment path of the load-queue search, if one ran.
    pub lq_path: Option<&'a [usize]>,
    /// The load searched the load buffer.
    pub lb: bool,
    /// The store the load's value was forwarded from.
    pub forwarded_from: Option<u64>,
    /// A predictor-directed store-queue search found no match.
    pub useless: bool,
    /// The oldest premature load a store's violation search found, with
    /// its PC.
    pub violation: Option<(u64, Pc)>,
}

/// Receives every pipeline moment of a [`Simulator`](crate::Simulator).
/// Hooks without a cycle argument happen in the cycle of the last
/// [`Probe::cycle_begin`].
pub trait Probe {
    /// Whether any event hook has a listener. The simulator computes hook
    /// arguments only when this is true.
    fn enabled(&self) -> bool;

    /// Whether [`Probe::phase`] has a listener. The simulator takes
    /// timestamps only when this is true.
    fn timing(&self) -> bool;

    /// Called once when the simulator is built.
    fn init(&mut self, cfg: &SimConfig);

    /// Cycle `cycle` starts.
    fn cycle_begin(&mut self, cycle: u64);

    /// The cycle ends, with the run's cumulative counters and current
    /// occupancies.
    fn cycle_end(&mut self, sample: &SampleInput);

    /// `seq` was fetched.
    fn fetch(&mut self, seq: u64, instr: &Instruction);

    /// `seq` dispatched, waiting on the renamed producers in `deps`.
    fn dispatch(&mut self, seq: u64, instr: &Instruction, deps: [Option<u64>; 2]);

    /// A load or store issued, or a store drained.
    fn lsq_search(&mut self, search: &LsqSearch<'_>);

    /// An access to `addr` missed the L1 and was served at `level`.
    fn cache_miss(&mut self, addr: Addr, level: MissLevel, fetch: bool);

    /// `seq` issued; its result is available at `writeback`. For loads,
    /// `sq_extra` is the segmented SQ search's extra latency and
    /// `mem_level` the deepest hierarchy level reached (0 = L1/forward,
    /// 1 = L2, 2 = memory).
    fn issue(&mut self, seq: u64, writeback: u64, sq_extra: u32, mem_level: u8);

    /// `slots` unused commit slots of this cycle are charged to
    /// `component`.
    fn stall(&mut self, component: Component, slots: u64);

    /// `seq` retired (one commit slot did useful work).
    fn commit(&mut self, seq: u64);

    /// `victim` (at `pc`) and everything younger up to the pre-squash
    /// fetch frontier `fetched_through` were squashed; fetch resumes
    /// after `penalty` cycles.
    fn squash(
        &mut self,
        victim: u64,
        pc: Pc,
        cause: SquashCause,
        penalty: u64,
        fetched_through: u64,
    );

    /// `nanos` of wall time were spent in `phase`.
    fn phase(&mut self, phase: Phase, nanos: u64);

    /// Adds the recorders' reports to `result`.
    fn report(&self, result: &mut SimResult);
}

/// The do-nothing probe: the default, and what the benchmarks measure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopProbe;

// Spelled out (rather than relying on trait defaults) so lsq-lint's
// zero-cost-nop rule can check the contract locally.
impl Probe for NopProbe {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn timing(&self) -> bool {
        false
    }

    #[inline(always)]
    fn init(&mut self, _cfg: &SimConfig) {}

    #[inline(always)]
    fn cycle_begin(&mut self, _cycle: u64) {}

    #[inline(always)]
    fn cycle_end(&mut self, _sample: &SampleInput) {}

    #[inline(always)]
    fn fetch(&mut self, _seq: u64, _instr: &Instruction) {}

    #[inline(always)]
    fn dispatch(&mut self, _seq: u64, _instr: &Instruction, _deps: [Option<u64>; 2]) {}

    #[inline(always)]
    fn lsq_search(&mut self, _search: &LsqSearch<'_>) {}

    #[inline(always)]
    fn cache_miss(&mut self, _addr: Addr, _level: MissLevel, _fetch: bool) {}

    #[inline(always)]
    fn issue(&mut self, _seq: u64, _writeback: u64, _sq_extra: u32, _mem_level: u8) {}

    #[inline(always)]
    fn stall(&mut self, _component: Component, _slots: u64) {}

    #[inline(always)]
    fn commit(&mut self, _seq: u64) {}

    #[inline(always)]
    fn squash(
        &mut self,
        _victim: u64,
        _pc: Pc,
        _cause: SquashCause,
        _penalty: u64,
        _fetched_through: u64,
    ) {
    }

    #[inline(always)]
    fn phase(&mut self, _phase: Phase, _nanos: u64) {}

    #[inline(always)]
    fn report(&self, _result: &mut SimResult) {}
}

/// The files a [`ProbeSet`]'s recorders are written to after a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sinks {
    /// `LSQ_TRACE`: the event trace and its timeline sidecar.
    pub trace: Option<TraceConfig>,
    /// `LSQ_PIPEVIEW`: the pipeline-viewer log.
    pub pipeview: Option<PipeviewConfig>,
    /// `LSQ_ACCOUNTING_CSV`: the windowed CPI-stack CSV.
    pub cpi_csv: Option<PathBuf>,
}

impl Sinks {
    /// Whether no file is configured.
    pub fn is_empty(&self) -> bool {
        *self == Sinks::default()
    }
}

/// Default window width (cycles) for `LSQ_ACCOUNTING_CSV` rows.
const DEFAULT_ACCOUNTING_WINDOW: u64 = 10_000;

/// Parses `LSQ_ACCOUNTING_CSV=<path>[:window]`: the destination for
/// windowed CPI-stack CSV rows and the window width in cycles.
fn accounting_csv_from_env() -> Option<(PathBuf, u64)> {
    let raw = lsq_util::knobs::get("LSQ_ACCOUNTING_CSV")?;
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    if let Some((path, window)) = raw.rsplit_once(':') {
        if let Ok(w) = window.parse::<u64>() {
            if w > 0 && !path.is_empty() {
                return Some((PathBuf::from(path), w));
            }
        }
    }
    Some((PathBuf::from(raw), DEFAULT_ACCOUNTING_WINDOW))
}

/// Optional recorders behind the [`Probe`] hooks. A `None` recorder
/// costs one branch per hook.
#[derive(Debug, Default)]
pub struct ProbeSet {
    /// The event ring.
    pub trace: Option<TraceBuffer>,
    /// The windowed IPC / occupancy / search-demand sampler.
    pub sampler: Option<Sampler>,
    /// The per-phase wall-time profiler.
    pub timer: Option<WallProfiler>,
    /// The CPI-stack cycle accountant.
    pub acct: Option<SlotAccountant>,
    /// The per-instruction lifecycle recorder.
    pub life: Option<PipeviewRecorder>,
    /// Where the recorders are written after the run.
    pub sinks: Sinks,
    /// The current cycle, kept by [`Probe::cycle_begin`].
    pub cycle: u64,
}

impl ProbeSet {
    /// The recorders the `LSQ_*` knobs ask for, with their sinks for job
    /// 0, or `None` when every observer is off:
    ///
    /// * `LSQ_TRACE` (+ `LSQ_TRACE_CAP`, `LSQ_SAMPLE_CYCLES`): event ring
    ///   and sampler;
    /// * `LSQ_PROFILE`: phase timer;
    /// * `LSQ_ACCOUNTING` (+ `LSQ_ACCOUNTING_CSV`): slot accountant;
    /// * `LSQ_PIPEVIEW` (+ `LSQ_PIPEVIEW_CAP`): lifecycle recorder.
    pub fn from_env() -> Option<ProbeSet> {
        let trace = TraceConfig::from_env();
        let pipeview = PipeviewConfig::from_env();
        let profile = lsq_util::knobs::flag("LSQ_PROFILE");
        let accounting = lsq_util::knobs::flag("LSQ_ACCOUNTING");
        if trace.is_none() && pipeview.is_none() && !profile && !accounting {
            return None;
        }
        // The CSV hangs off the accountant: it means nothing without it.
        let cpi_csv = accounting.then(accounting_csv_from_env).flatten();
        Some(ProbeSet {
            trace: trace
                .as_ref()
                .map(|t| TraceBuffer::with_capacity(t.capacity)),
            sampler: trace
                .as_ref()
                .and_then(TraceConfig::effective_sample_cycles)
                .map(Sampler::new),
            timer: profile.then(WallProfiler::new),
            acct: accounting.then(|| match &cpi_csv {
                Some((_, window)) => SlotAccountant::with_sampler(*window),
                None => SlotAccountant::new(),
            }),
            life: pipeview.as_ref().map(|p| PipeviewRecorder::new(p.capacity)),
            sinks: Sinks {
                trace,
                pipeview,
                cpi_csv: cpi_csv.map(|(path, _)| path),
            },
            cycle: 0,
        })
    }

    /// This probe set with every sink path numbered for engine job `n`
    /// (see [`numbered`]), so all files of one job carry the same
    /// number.
    pub fn for_job(mut self, n: u64) -> ProbeSet {
        let s = &mut self.sinks;
        if let Some(t) = &mut s.trace {
            t.path = numbered(&t.path, n);
        }
        if let Some(p) = &mut s.pipeview {
            p.path = numbered(&p.path, n);
        }
        if let Some(c) = &mut s.cpi_csv {
            *c = numbered(c, n);
        }
        self
    }

    /// Detaches the sampler, flushing its partial last window.
    pub fn take_sampler(&mut self) -> Option<Sampler> {
        let mut s = self.sampler.take()?;
        s.flush();
        Some(s)
    }

    fn emit(&mut self, event: Event) {
        if let Some(t) = &mut self.trace {
            t.push(event);
        }
    }

    /// One [`Event::SegAdvance`] per hop of a multi-segment search path.
    fn emit_seg_path(&mut self, queue: QueueSide, path: &[usize]) {
        for w in path.windows(2) {
            self.emit(Event::SegAdvance {
                queue,
                from_segment: w[0] as u32,
                to_segment: w[1] as u32,
            });
        }
    }
}

impl Probe for ProbeSet {
    fn enabled(&self) -> bool {
        self.trace.is_some() || self.sampler.is_some() || self.acct.is_some() || self.life.is_some()
    }

    fn timing(&self) -> bool {
        self.timer.is_some()
    }

    fn init(&mut self, cfg: &SimConfig) {
        if let Some(a) = &mut self.acct {
            a.init(cfg.commit_width as u64);
        }
        // The in-flight seq window is bounded by the ROB plus the fetch
        // buffer (2 × fetch width); the recorder sizes its live array
        // from this so direct mapping by seq is collision-free.
        if let Some(l) = &mut self.life {
            l.init(cfg.rob_entries + 2 * cfg.fetch_width + 1);
        }
    }

    fn cycle_begin(&mut self, cycle: u64) {
        self.cycle = cycle;
        if let Some(t) = &mut self.trace {
            t.set_cycle(cycle);
        }
    }

    fn cycle_end(&mut self, sample: &SampleInput) {
        if let Some(s) = &mut self.sampler {
            s.observe(self.cycle, *sample);
        }
        if let Some(a) = &mut self.acct {
            a.end_cycle(self.cycle);
        }
    }

    fn fetch(&mut self, seq: u64, instr: &Instruction) {
        if let Some(l) = &mut self.life {
            l.fetch(seq, self.cycle, instr);
        }
    }

    fn dispatch(&mut self, seq: u64, instr: &Instruction, deps: [Option<u64>; 2]) {
        if let Some(l) = &mut self.life {
            l.dispatch(seq, self.cycle, deps);
        }
        let op = match instr.kind {
            InstrKind::Load => MemOp::Load,
            InstrKind::Store => MemOp::Store,
            _ => return,
        };
        self.emit(Event::Dispatch {
            op,
            seq,
            pc: instr.pc,
            addr: instr.addr,
        });
    }

    fn lsq_search(&mut self, s: &LsqSearch<'_>) {
        if self.trace.is_none() {
            return;
        }
        let seq = s.seq;
        let by = match s.op {
            LsqOp::Load => MemOp::Load,
            LsqOp::Store | LsqOp::Drain => MemOp::Store,
        };
        if let Some(path) = s.sq_path {
            self.emit(Event::SqSearch {
                load: seq,
                segments: path.len() as u32,
                hit: s.forwarded_from.is_some(),
            });
            self.emit_seg_path(QueueSide::Sq, path);
        }
        if let Some(path) = s.lq_path {
            self.emit(Event::LqSearch {
                by,
                seq,
                segments: path.len() as u32,
            });
            self.emit_seg_path(QueueSide::Lq, path);
        }
        if s.lb {
            self.emit(Event::LbSearch { load: seq });
        }
        if let Some(store) = s.forwarded_from {
            self.emit(Event::Forward {
                load: seq,
                store,
                addr: s.addr,
            });
        }
        if s.useless {
            self.emit(Event::UselessSearch {
                load: seq,
                pc: s.pc,
            });
        }
        if s.op != LsqOp::Drain {
            self.emit(Event::Issue {
                op: by,
                seq,
                pc: s.pc,
                addr: s.addr,
            });
        }
        if let Some((victim, load_pc)) = s.violation {
            self.emit(Event::Violation {
                victim,
                load_pc,
                store_pc: s.pc,
                at_commit: s.op == LsqOp::Drain,
            });
        }
    }

    fn cache_miss(&mut self, addr: Addr, level: MissLevel, fetch: bool) {
        self.emit(Event::CacheMiss { addr, level, fetch });
    }

    fn issue(&mut self, seq: u64, writeback: u64, sq_extra: u32, mem_level: u8) {
        if let Some(l) = &mut self.life {
            l.issue(seq, self.cycle, writeback, sq_extra, mem_level);
        }
    }

    fn stall(&mut self, component: Component, slots: u64) {
        if let Some(a) = &mut self.acct {
            a.charge(component, slots);
        }
    }

    fn commit(&mut self, seq: u64) {
        if let Some(l) = &mut self.life {
            l.commit(seq, self.cycle);
        }
        if let Some(a) = &mut self.acct {
            a.charge(Component::Base, 1);
        }
    }

    fn squash(
        &mut self,
        victim: u64,
        pc: Pc,
        cause: SquashCause,
        penalty: u64,
        fetched_through: u64,
    ) {
        if let Some(l) = &mut self.life {
            l.squash(victim, fetched_through, self.cycle, cause);
        }
        self.emit(Event::Squash {
            victim,
            pc,
            cause,
            penalty,
        });
    }

    fn phase(&mut self, phase: Phase, nanos: u64) {
        if let Some(t) = &mut self.timer {
            t.record(phase, nanos);
        }
    }

    fn report(&self, result: &mut SimResult) {
        result.profile = self.timer.as_ref().map(WallProfiler::report);
        result.cpi_stack = self.acct.as_ref().map(SlotAccountant::report);
        result.stage_latency = self.life.as_ref().map(PipeviewRecorder::report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sink_of_a_job_carries_its_number() {
        let probe = || ProbeSet {
            sinks: Sinks {
                trace: Some(TraceConfig::parse("out/t.json:chrome", Some("500"))),
                pipeview: Some(PipeviewConfig::parse("out/p.kanata")),
                cpi_csv: Some(PathBuf::from("out/cpi.csv")),
            },
            ..ProbeSet::default()
        };
        assert_eq!(probe().for_job(0).sinks, probe().sinks, "job 0 is verbatim");
        let sinks = probe().for_job(7).sinks;
        let trace = sinks.trace.expect("trace sink");
        let paths = [
            trace.path.clone(),
            sinks.pipeview.expect("pipeview sink").path,
            sinks.cpi_csv.expect("cpi sink"),
        ];
        for p in &paths {
            assert!(p.to_string_lossy().ends_with(".7"), "{}", p.display());
        }
        let timeline = trace.timeline_path();
        assert!(
            timeline
                .to_string_lossy()
                .ends_with("t.json.7.timeline.csv"),
            "{}",
            timeline.display()
        );
    }

    #[test]
    fn an_empty_probe_set_listens_to_nothing() {
        let probe = ProbeSet::default();
        assert!(!probe.enabled() && !probe.timing());
        assert!(probe.sinks.is_empty());
        assert!(!NopProbe.enabled() && !NopProbe.timing());
    }
}
