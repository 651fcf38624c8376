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
//!   ([`TraceBuffer`]), the phase timer ([`WallProfiler`]), the slot
//!   accountant (a [`CpiStack`] charged slot by slot), the lifecycle
//!   recorder ([`PipeviewRecorder`]), and two windowed [`Sampler`]s fed
//!   at each cycle end: the timeline, over the [`TIMELINE`] counters,
//!   and the CPI stack, over the accountant's per-component slots.
//!   A [`ProbeSpec`] says which recorders to attach and where to write
//!   them ([`ProbeSpec::from_env`] reads it from the `LSQ_*` knobs);
//!   [`ProbeSpec::build`] makes the recorders, with their [`Sinks`], for
//!   one job.

use crate::accounting::{Component, CpiStack};
use crate::config::SimConfig;
use crate::lifecycle::PipeviewRecorder;
use crate::profile::{Phase, WallProfiler};
use crate::result::SimResult;
use lsq_isa::{Addr, InstrKind, Instruction, Pc};
use lsq_obs::{
    numbered, Event, MemOp, MissLevel, PipeviewConfig, QueueSide, SampleInput, Sampler,
    SquashCause, TraceBuffer, TraceConfig, TIMELINE,
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

    /// Adds the recorders' reports to `result`, and starts a new
    /// window: the next report's critical path covers only the
    /// instructions committed after this one.
    fn report(&mut self, result: &mut SimResult);
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
    fn report(&mut self, _result: &mut SimResult) {}
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

/// Which recorders a run attaches and where they are written: the
/// plain, clonable description of a [`ProbeSet`]. One spec serves a
/// whole batch; [`ProbeSpec::build`] makes each job its own recorders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeSpec {
    /// `LSQ_TRACE` (+ `LSQ_TRACE_CAP`, `LSQ_SAMPLE_CYCLES`): the event
    /// ring and timeline sampler, and their files.
    pub trace: Option<TraceConfig>,
    /// `LSQ_PROFILE`: the phase timer.
    pub profile: bool,
    /// `LSQ_ACCOUNTING`: the CPI-stack accountant.
    pub accounting: bool,
    /// `LSQ_ACCOUNTING_CSV`: the windowed CPI-stack CSV and its window
    /// width in cycles. It hangs off the accountant: without
    /// `accounting` nothing is sampled or written.
    pub cpi_csv: Option<(PathBuf, u64)>,
    /// `LSQ_PIPEVIEW`: the lifecycle recorder, which reports stage
    /// latencies and the critical path.
    pub lifecycle: bool,
    /// `LSQ_PIPEVIEW` (+ `LSQ_PIPEVIEW_CAP`): the pipeline-viewer log and
    /// the finished-record ring that feeds it. It hangs off the lifecycle
    /// recorder: without `lifecycle` nothing is recorded or written.
    pub pipeview: Option<PipeviewConfig>,
}

impl ProbeSpec {
    /// The recorders and sinks the `LSQ_*` knobs ask for.
    pub fn from_env() -> ProbeSpec {
        let pipeview = PipeviewConfig::from_env();
        ProbeSpec {
            trace: TraceConfig::from_env(),
            profile: lsq_util::knobs::flag("LSQ_PROFILE"),
            accounting: lsq_util::knobs::flag("LSQ_ACCOUNTING"),
            cpi_csv: accounting_csv_from_env(),
            lifecycle: pipeview.is_some(),
            pipeview,
        }
    }

    /// Whether no recorder is asked for, so a run is unobserved.
    pub fn is_off(&self) -> bool {
        self.trace.is_none() && !self.profile && !self.accounting && !self.lifecycle
    }

    /// The files job `n`'s recorders are written to. Parallel jobs
    /// write to distinct paths: job 0 to the configured paths verbatim,
    /// later ones with a `.n` suffix (see [`numbered`]), the same for
    /// every file of a job.
    pub fn sinks(&self, n: u64) -> Sinks {
        Sinks {
            trace: self.trace.clone().map(|t| TraceConfig {
                path: numbered(&t.path, n),
                ..t
            }),
            pipeview: self
                .pipeview
                .clone()
                .filter(|_| self.lifecycle)
                .map(|p| PipeviewConfig {
                    path: numbered(&p.path, n),
                    ..p
                }),
            cpi_csv: self
                .cpi_csv
                .as_ref()
                .filter(|_| self.accounting)
                .map(|(path, _)| numbered(path, n)),
        }
    }

    /// Fresh recorders for job `n`, with [`ProbeSpec::sinks`]`(n)`.
    pub fn build(&self, n: u64) -> ProbeSet {
        let trace = self.trace.as_ref();
        ProbeSet {
            trace: trace.map(|t| TraceBuffer::with_capacity(t.capacity)),
            sampler: trace
                .and_then(TraceConfig::effective_sample_cycles)
                .map(|window| Sampler::new(window, &TIMELINE)),
            timer: self.profile.then(WallProfiler::new),
            acct: self.accounting.then(CpiStack::default),
            cpi_sampler: self
                .cpi_csv
                .as_ref()
                .filter(|_| self.accounting)
                .map(|(_, window)| Sampler::new(*window, &Component::NAMES)),
            life: self
                .lifecycle
                .then(|| PipeviewRecorder::new(self.pipeview.as_ref().map_or(0, |p| p.capacity))),
            sinks: self.sinks(n),
            ..ProbeSet::default()
        }
    }
}

/// Optional recorders behind the [`Probe`] hooks. A `None` recorder
/// costs one branch per hook.
#[derive(Debug, Default)]
pub struct ProbeSet {
    /// The event ring.
    pub trace: Option<TraceBuffer>,
    /// The windowed timeline sampler, over the [`TIMELINE`] counters.
    pub sampler: Option<Sampler>,
    /// The per-phase wall-time profiler.
    pub timer: Option<WallProfiler>,
    /// The CPI-stack cycle accountant.
    pub acct: Option<CpiStack>,
    /// The windowed CPI-stack sampler, over [`Component::NAMES`]. It is
    /// fed from `acct`'s counters, so it records nothing without `acct`.
    pub cpi_sampler: Option<Sampler>,
    /// The per-instruction lifecycle recorder.
    pub life: Option<PipeviewRecorder>,
    /// Where the recorders are written after the run.
    pub sinks: Sinks,
    /// The current cycle, kept by [`Probe::cycle_begin`].
    pub cycle: u64,
    /// Running sums of the per-cycle LQ and SQ occupancies: the
    /// timeline's cumulative occupancy counters.
    pub occupancy_sums: [u64; 2],
}

impl ProbeSet {
    /// Detaches the timeline sampler, flushing its partial last window.
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
            a.commit_width = cfg.commit_width as u64;
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
            let [lq, sq] = &mut self.occupancy_sums;
            *lq += sample.lq_occupancy as u64;
            *sq += sample.sq_occupancy as u64;
            s.observe(
                self.cycle,
                &[
                    sample.committed,
                    *lq,
                    *sq,
                    sample.sq_searches,
                    sample.lq_searches,
                ],
            );
        }
        if let (Some(s), Some(a)) = (&mut self.cpi_sampler, &self.acct) {
            s.observe(self.cycle, &a.components);
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

    fn report(&mut self, result: &mut SimResult) {
        result.profile = self.timer.as_ref().map(WallProfiler::report);
        result.cpi_stack = self.acct.clone();
        if let Some(l) = &mut self.life {
            result.stage_latency = Some(l.report());
            result.critical_path = l.take_critical_path();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sink_of_a_job_carries_its_number() {
        let spec = ProbeSpec {
            trace: Some(TraceConfig::parse("out/t.json:chrome", Some("500"))),
            accounting: true,
            cpi_csv: Some((PathBuf::from("out/cpi.csv"), 100)),
            lifecycle: true,
            pipeview: Some(PipeviewConfig::parse("out/p.kanata")),
            ..ProbeSpec::default()
        };
        let verbatim = Sinks {
            trace: spec.trace.clone(),
            pipeview: spec.pipeview.clone(),
            cpi_csv: Some(PathBuf::from("out/cpi.csv")),
        };
        assert_eq!(spec.sinks(0), verbatim, "job 0 is verbatim");
        let sinks = spec.build(7).sinks;
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
    fn cycle_end_feeds_both_samplers_cumulative_counters() {
        let mut probe = ProbeSet {
            sampler: Some(Sampler::new(2, &TIMELINE)),
            acct: Some(CpiStack::default()),
            cpi_sampler: Some(Sampler::new(2, &Component::NAMES)),
            ..ProbeSet::default()
        };
        for cycle in 1..=4u64 {
            probe.cycle_begin(cycle);
            probe.commit(2 * cycle);
            probe.commit(2 * cycle + 1);
            probe.stall(Component::Frontend, 6);
            probe.cycle_end(&SampleInput {
                committed: 2 * cycle,
                lq_occupancy: cycle as usize,
                sq_occupancy: 1,
                sq_searches: 3 * cycle,
                lq_searches: 0,
            });
        }
        let cpi = probe.cpi_sampler.as_ref().expect("cpi sampler");
        assert_eq!(cpi.rows().len(), 2);
        for r in cpi.rows() {
            assert_eq!(r.cycles, 2);
            assert_eq!(r.deltas[0], 4, "two base slots per cycle");
            assert_eq!(r.deltas[1], 12, "six frontend slots per cycle");
            assert_eq!(r.deltas.iter().sum::<u64>(), 16);
        }
        // Occupancies enter the timeline as running sums.
        let timeline = probe.take_sampler().expect("timeline sampler");
        let deltas: Vec<&[u64]> = timeline.rows().iter().map(|r| &r.deltas[..]).collect();
        assert_eq!(deltas, [[4, 1 + 2, 2, 6, 0], [4, 3 + 4, 2, 6, 0]]);
        assert_eq!(probe.occupancy_sums, [10, 4]);
    }

    #[test]
    fn the_cpi_csv_hangs_off_the_accountant() {
        let csv = ProbeSpec {
            cpi_csv: Some((PathBuf::from("cpi.csv"), 100)),
            ..ProbeSpec::default()
        };
        assert!(csv.is_off(), "a CSV alone attaches nothing");
        let probe = csv.build(0);
        assert!(probe.acct.is_none() && probe.cpi_sampler.is_none());
        assert!(
            probe.sinks.is_empty(),
            "nothing to write without the accountant"
        );
        let accounted = ProbeSpec {
            accounting: true,
            ..csv
        };
        let probe = accounted.build(0);
        assert!(probe.acct.is_some() && probe.cpi_sampler.is_some());
        assert_eq!(probe.sinks.cpi_csv, Some(PathBuf::from("cpi.csv")));
        assert!(ProbeSpec::default().is_off());
    }

    #[test]
    fn the_pipeview_log_hangs_off_the_lifecycle_recorder() {
        let log = ProbeSpec {
            pipeview: Some(PipeviewConfig::parse("p.kanata")),
            ..ProbeSpec::default()
        };
        assert!(log.is_off(), "a log alone attaches nothing");
        let probe = log.build(0);
        assert!(probe.life.is_none() && probe.sinks.is_empty());
        let recorded = ProbeSpec {
            lifecycle: true,
            ..log
        };
        assert_eq!(recorded.build(0).sinks.pipeview, recorded.pipeview);
        // With no log, the recorder keeps no finished records.
        let mut probe = ProbeSpec {
            lifecycle: true,
            ..ProbeSpec::default()
        }
        .build(0);
        assert!(probe.sinks.is_empty());
        let life = probe.life.as_mut().expect("lifecycle recorder");
        life.init(4);
        life.fetch(0, 1, &Instruction::op(Pc(0x400), InstrKind::IntAlu));
        life.dispatch(0, 2, [None, None]);
        life.issue(0, 3, 4, 0, 0);
        life.commit(0, 5);
        assert!(life.take_records().is_empty());
        assert_eq!(life.dropped(), 0, "nothing is evicted without a ring");
    }

    #[test]
    fn an_empty_probe_set_listens_to_nothing() {
        let probe = ProbeSet::default();
        assert!(!probe.enabled() && !probe.timing());
        assert!(probe.sinks.is_empty());
        assert!(!NopProbe.enabled() && !NopProbe.timing());
    }
}
