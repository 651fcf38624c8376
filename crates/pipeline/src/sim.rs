//! The cycle-level out-of-order superscalar simulator.
//!
//! Trace-driven, structural-hazard model with the stage ordering
//! `commit → issue/execute → dispatch → fetch` evaluated once per cycle
//! (commit first, so a stage sees the previous cycle's state downstream
//! of it). The model captures every pipeline-level effect the paper's
//! techniques act through:
//!
//! * **issue stalls** when LSQ search ports, d-cache ports, functional
//!   units, the load buffer, or store-set gating say no;
//! * **dispatch stalls** when the ROB, issue queue, or LSQ capacity
//!   (per the segmentation allocation strategy) is exhausted;
//! * **squash and refetch** on memory-order violations, with the higher
//!   penalty of commit-time detection under the pair predictor;
//! * **fetch stalls** on branch mispredictions (hybrid GAg/PAg) and
//!   i-cache misses;
//! * **early vs. late wakeup** of load dependents under segmented,
//!   variable-latency forwarding searches.
//!
//! A load's latency is known when it issues (the cache is probed then),
//! so nothing is speculated or replayed: dependents of a load in the
//! LQ's head segment whose search stays in one segment wake when its
//! data arrives, all others `late_wakeup_penalty` cycles later.
//!
//! Loads refused for a reason that holds until a known event (a
//! predicted store's issue, or a load issue or squash for the in-order
//! and load-buffer refusals) are parked in the issue scheduler: select
//! still counts their refusals in age order, but without retrying them,
//! and cycles in which only parked loads wait are jumped, their
//! refusals counted in bulk (DESIGN.md §4).
//!
//! Wrong-path instructions are modeled as fetch bubbles (trace-driven
//! simplification); store-to-load forwarding and violation detection use
//! only hardware-visible state inside [`Lsq`].

use crate::accounting::Component;
use crate::branch::HybridPredictor;
use crate::config::SimConfig;
use crate::probe::{LsqOp, LsqSearch, NopProbe, Probe};
use crate::profile::Phase;
use crate::result::SimResult;
use crate::sched::{age_order, Park, Scheduler};
use lsq_core::{LoadIssue, Lsq, StoreDrain, StoreIssue};
use lsq_isa::{Addr, InstrKind, Instruction, InstructionStream, Pc};
use lsq_mem::{Access, MemoryHierarchy};
use lsq_obs::{MissLevel, SampleInput, SquashCause};
use lsq_stats::RunningMean;
use lsq_util::rng::Xoshiro256;
use lsq_util::RingQueue;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct DynInst {
    instr: Instruction,
    /// Producer sequence numbers this instruction waits on.
    deps: [Option<u64>; 2],
    /// `None` while waiting in the issue queue.
    issued: Option<Issued>,
}

/// How an instruction executes, fixed when it issues.
#[derive(Debug, Clone, Copy, Default)]
struct Issued {
    /// Cycle at which the result is available.
    complete_at: u64,
    /// Extra cycles dependents wait beyond `complete_at` (late wakeup).
    wakeup_extra: u32,
    /// Cycle accounting: a segmented search's variable extra cycles.
    seg_extra: u32,
    /// Cycle accounting: a load's level (0 L1/forwarded, 1 L2, 2 memory).
    mem_level: u8,
}

impl DynInst {
    /// The cycle dependents may issue, once this instruction has issued.
    #[inline]
    fn wake(&self) -> Option<u64> {
        self.issued
            .map(|i| i.complete_at + u64::from(i.wakeup_extra))
    }
}

/// Why fetch is stalled (cycle accounting only): distinguishes the
/// cause behind `fetch_resume_at` so empty-ROB cycles are charged to
/// the right component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum FetchStall {
    /// No stall recorded (or the cause is a plain fetch limit).
    #[default]
    None,
    /// Squash-and-refetch replay after a violation or invalidation.
    Squash,
    /// Branch-misprediction redirect.
    Mispredict,
    /// Instruction-cache miss.
    IcacheMiss,
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    gseq: u64,
    instr: Instruction,
    avail_at: u64,
}

/// The out-of-order core.
///
/// The `P` parameter is the observer: every pipeline moment is reported
/// to one [`Probe`] (see [`crate::probe`]). The default [`NopProbe`]
/// makes every hook site vanish under monomorphization, so an
/// unobserved simulator compiles to the unobserved code;
/// [`ProbeSet`](crate::probe::ProbeSet) carries the event ring, sampler,
/// phase timer, cycle accountant, and lifecycle recorder.
#[derive(Debug)]
pub struct Simulator<P: Probe = NopProbe> {
    cfg: SimConfig,
    lsq: Lsq,
    mem: MemoryHierarchy,
    probe: P,
    bp: HybridPredictor,
    rob: RingQueue<DynInst>,
    /// The issue queue and its wakeup structures.
    sched: Scheduler,
    /// Select's snapshot of the candidate mask, one bit per ROB slot.
    candidates: Vec<u64>,
    /// Reference polling scheduler (see [`Self::set_reference_scheduler`]).
    reference: bool,
    /// Architectural register → producing in-flight instruction.
    rename: [Option<u64>; 64],
    /// Fetched but not yet dispatched instructions.
    frontend: VecDeque<Fetched>,
    /// Correct-path instructions from the oldest in-flight one to the
    /// youngest fetched, for squash-and-refetch replay.
    replay: VecDeque<Instruction>,
    replay_base: u64,
    next_fetch: u64,
    fetch_resume_at: u64,
    /// Branch we are stalled on after a fetch-time misprediction.
    pending_redirect: Option<u64>,
    cur_fetch_block: Option<u64>,
    cycle: u64,
    dcache_used: usize,
    stream_done: bool,
    /// Deterministic source for coherence-invalidation injection.
    coherence_rng: Xoshiro256,

    // Cycle-accounting scratch, written only when the probe is enabled.
    /// Committed count at the end of the previous accounted cycle.
    acct_prev_committed: u64,
    /// Resource stall recorded for the ROB head at issue this cycle
    /// (seq kept to discard the record if a squash changed the head).
    acct_head_stall: Option<(u64, Component)>,
    /// Structural dispatch stall recorded this cycle.
    acct_dispatch_stall: Option<Component>,
    /// The ROB head load was blocked from retiring by an undrained
    /// older store this cycle.
    acct_drain_blocked: bool,
    /// Cause behind the current `fetch_resume_at`.
    acct_fetch_stall: FetchStall,

    committed: u64,
    loads_committed: u64,
    stores_committed: u64,
    branches_committed: u64,
    violation_squashes: u64,
    instructions_squashed: u64,
    lq_occ: RunningMean,
    sq_occ: RunningMean,
    ooo_loads: RunningMean,
}

impl Simulator {
    /// Builds an unobserved simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_probe(cfg, NopProbe)
    }
}

impl<P: Probe> Simulator<P> {
    /// Builds a simulator reporting to `probe`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn with_probe(cfg: SimConfig, mut probe: P) -> Self {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "constructor's documented # Panics contract: cfg must validate")
        cfg.validate().expect("valid simulator configuration");
        probe.init(&cfg);
        Self {
            // lsq-lint: allow(no-unwrap-in-lib, reason = "cfg.validate() succeeded on the previous line")
            lsq: Lsq::new(cfg.lsq).expect("validated above"),
            mem: MemoryHierarchy::new(cfg.hierarchy),
            probe,
            bp: HybridPredictor::new(),
            rob: RingQueue::new(cfg.rob_entries),
            sched: Scheduler::new(cfg.rob_entries),
            candidates: vec![0; cfg.rob_entries.next_power_of_two().div_ceil(64)],
            reference: false,
            rename: [None; 64],
            frontend: VecDeque::with_capacity(2 * cfg.fetch_width),
            // Correct-path instructions from the ROB head to the
            // youngest ever fetched: at most a full ROB and frontend.
            replay: VecDeque::with_capacity(cfg.rob_entries + 2 * cfg.fetch_width),
            replay_base: 0,
            next_fetch: 0,
            fetch_resume_at: 0,
            pending_redirect: None,
            cur_fetch_block: None,
            cycle: 0,
            dcache_used: 0,
            stream_done: false,
            coherence_rng: Xoshiro256::seed_from_u64(0xC0_4E_0E_1C),
            acct_prev_committed: 0,
            acct_head_stall: None,
            acct_dispatch_stall: None,
            acct_drain_blocked: false,
            acct_fetch_stall: FetchStall::None,
            committed: 0,
            loads_committed: 0,
            stores_committed: 0,
            branches_committed: 0,
            violation_squashes: 0,
            instructions_squashed: 0,
            lq_occ: RunningMean::new(),
            sq_occ: RunningMean::new(),
            ooo_loads: RunningMean::new(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Switches to the reference polling scheduler: select re-checks
    /// every waiting entry's dependences against the ROB each cycle, as
    /// the original scan did, a refused load is retried in full every
    /// cycle instead of parked, and the clock never jumps idle cycles.
    /// Architecturally identical, slower — exists so equivalence tests
    /// can compare both paths (debug builds assert every cycle that the
    /// polled set is the event-driven ready mask). Must be called before
    /// any instruction dispatches. Not part of [`SimConfig`]: the
    /// scheduler implementation is not an architectural parameter.
    pub fn set_reference_scheduler(&mut self) {
        assert!(
            self.rob.is_empty(),
            "scheduler mode must be chosen before simulation starts"
        );
        self.reference = true;
    }

    /// The probe, mutably (e.g. to drain a recorder mid-run).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the simulator, returning its probe.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Pre-warms the cache hierarchy with the workload's data and code
    /// footprints (see [`MemoryHierarchy::prewarm_data`]); the stand-in
    /// for the paper's 3-billion-instruction fast-forward before
    /// measurement.
    pub fn prewarm(&mut self, data_regions: &[(u64, u64)], code: (u64, u64)) {
        self.mem.prewarm_data(data_regions);
        self.mem.prewarm_code(code.0, code.1);
    }

    /// Runs until `max_instrs` more instructions have committed (or the
    /// trace ends, or the safety cycle cap triggers) and reports the
    /// run's cumulative counters, from the first cycle on. Calling `run`
    /// again continues the same machine state with a fresh instruction
    /// budget; [`Simulator::measure`] uses that to report a measured
    /// window after a warm-up.
    pub fn run<S: InstructionStream>(&mut self, stream: &mut S, max_instrs: u64) -> SimResult {
        let target = self.committed + max_instrs;
        let cycle_cap = self
            .cycle
            .saturating_add(max_instrs.saturating_mul(self.cfg.cycle_cap_per_instr))
            .saturating_add(10_000);
        let mut hit_cap = false;
        // Idle cycles can be jumped over only when nothing observes them
        // cycle by cycle: no per-cycle probe hooks, no invalidation RNG
        // draw, and the event scheduler (the polling reference steps
        // every cycle, so it stays an independent check of the jump).
        let skip_idle =
            !self.probe.enabled() && self.cfg.invalidation_rate <= 0.0 && !self.reference;
        while self.committed < target {
            // Done only when the trace is exhausted AND no fetched
            // instruction is left in flight or awaiting refetch (the
            // replay buffer drains at commit, so it is the authoritative
            // emptiness check — the ROB alone can be transiently empty
            // right after an end-of-trace squash).
            if self.stream_done && self.replay.is_empty() {
                break;
            }
            // Only right before a step that runs: jumping after the step
            // that ends a `run` would move cycles across the boundary
            // between warm-up and measured runs.
            if skip_idle {
                self.skip_idle_cycles(cycle_cap);
            }
            self.step(stream);
            if self.cycle >= cycle_cap {
                hit_cap = true;
                break;
            }
        }
        self.result(hit_cap)
    }

    /// Runs `warmup` instructions, then `instrs` more, and reports the
    /// second window alone: the [`run`](Simulator::run) after the warm-up
    /// minus a snapshot taken between the two (see [`SimResult::since`]).
    /// Caches, predictors and queues carry their warm-up state into the
    /// measured window. Host-side timing in the probe's phase profile is
    /// not windowed: it covers the warm-up too.
    pub fn measure<S: InstructionStream>(
        &mut self,
        stream: &mut S,
        warmup: u64,
        instrs: u64,
    ) -> SimResult {
        let _ = self.run(stream, warmup);
        let before = self.run(stream, 0);
        self.run(stream, instrs).since(&before)
    }

    /// Runs `f` under the probe's clock for `phase`. Without a timer
    /// ([`NopProbe`]) the `timing()` check is a constant and this
    /// compiles down to a plain call — no timestamps taken.
    #[inline]
    fn timed<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.probe.timing() {
            return f(self);
        }
        let start = std::time::Instant::now();
        let r = f(self);
        self.probe.phase(phase, start.elapsed().as_nanos() as u64);
        r
    }

    /// Advances the machine one cycle.
    // lsq-lint: hot
    fn step<S: InstructionStream>(&mut self, stream: &mut S) {
        self.cycle += 1;
        self.probe.cycle_begin(self.cycle);
        self.dcache_used = 0;
        self.timed(Phase::SegmentAdvance, |s| s.lsq.begin_cycle());
        self.inject_invalidations();
        // Drains and retirement are one commit phase: drain-time LQ
        // violation searches are charged here, not to LsqSearch.
        self.timed(Phase::Commit, |s| {
            s.drain_stores();
            s.commit();
        });
        self.timed(Phase::WakeupIssue, |s| s.issue());
        self.timed(Phase::Dispatch, |s| s.dispatch());
        self.timed(Phase::Fetch, |s| s.fetch(stream));
        self.sample(1);
        if self.probe.enabled() {
            self.account_cycle();
            let stats = self.lsq.stats();
            self.probe.cycle_end(&SampleInput {
                committed: self.committed,
                lq_occupancy: self.lsq.lq_occupancy(),
                sq_occupancy: self.lsq.sq_occupancy(),
                sq_searches: stats.sq_searches,
                lq_searches: stats.lq_searches(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Cycle accounting
    // ------------------------------------------------------------------

    /// Classifies the unused commit slots of the cycle that just ended
    /// (slots that retired an instruction were charged to
    /// [`Component::Base`] by the commit hook): they all go to exactly
    /// one stall component picked from the state of the ROB head (commit
    /// runs first in [`Self::step`], so the head observed here is the one
    /// commit failed to retire this cycle — the stall records taken by
    /// issue and dispatch later in the same cycle refer to it).
    // lsq-lint: hot
    fn account_cycle(&mut self) {
        let n = self.committed - self.acct_prev_committed;
        self.acct_prev_committed = self.committed;
        // Consume the per-cycle stall records even on full-width cycles
        // so nothing leaks into the next cycle's classification.
        let head_stall = self.acct_head_stall.take();
        let dispatch_stall = self.acct_dispatch_stall.take();
        let drain_blocked = std::mem::take(&mut self.acct_drain_blocked);
        let width = self.cfg.commit_width as u64;
        debug_assert!(n <= width, "committed more than commit_width in one cycle");
        let stall = width - n;
        if stall > 0 {
            let c = self.classify_stall(head_stall, dispatch_stall, drain_blocked);
            self.probe.stall(c, stall);
        }
    }

    /// Picks the single stall component for this cycle's unused commit
    /// slots. Precedence: the ROB head's own reason first (interval
    /// analysis), then structural dispatch backpressure, then the
    /// residual dependence-chain bucket.
    // lsq-lint: hot
    fn classify_stall(
        &self,
        head_stall: Option<(u64, Component)>,
        dispatch_stall: Option<Component>,
        drain_blocked: bool,
    ) -> Component {
        let Some(seq) = self.rob.head_seq() else {
            // Empty window: the front end owns the stall.
            if self.pending_redirect.is_some() {
                return Component::BranchRedirect;
            }
            if self.cycle < self.fetch_resume_at {
                return match self.acct_fetch_stall {
                    FetchStall::Squash => Component::SquashReplay,
                    FetchStall::Mispredict => Component::BranchRedirect,
                    FetchStall::IcacheMiss | FetchStall::None => Component::Frontend,
                };
            }
            return Component::Frontend;
        };
        // lsq-lint: allow(no-unwrap-in-lib, reason = "the head seq was taken from the ROB just above, so front() is occupied")
        let e = self.rob.front().expect("head exists");
        if let Some(i) = e.issued {
            if drain_blocked
                || (i.complete_at <= self.cycle && self.lsq.has_undrained_store_before(seq))
            {
                // The head load finished but may not retire past an
                // undrained older store.
                return Component::StoreDrain;
            }
            if i.complete_at > self.cycle {
                return match e.instr.kind {
                    InstrKind::Load => match i.mem_level {
                        2 => Component::CacheMem,
                        1 => Component::CacheL2,
                        0 if i.seg_extra > 0 => Component::SegmentOverhead,
                        _ => Component::ExecLatency,
                    },
                    k if k.is_branch()
                        && (self.pending_redirect.is_some()
                            || (self.acct_fetch_stall == FetchStall::Mispredict
                                && self.cycle < self.fetch_resume_at)) =>
                    {
                        Component::BranchRedirect
                    }
                    _ => Component::ExecLatency,
                };
            }
            // Head complete but the commit group stopped mid-width
            // behind it (e.g. a younger blocked load): residual
            // execution skew.
            return Component::ExecLatency;
        }
        // Head still waiting in the issue queue. A resource stall
        // recorded for it at issue time names the resource; otherwise
        // structural dispatch backpressure, then the dependence chain.
        if let Some((s, c)) = head_stall {
            if s == seq {
                return c;
            }
        }
        dispatch_stall.unwrap_or(Component::DepChain)
    }

    /// Records a resource stall observed at issue time, kept only when
    /// it concerns the current ROB head (the instruction whose stall
    /// defines the cycle under head-based attribution).
    #[inline]
    fn record_head_stall(&mut self, seq: u64, c: Component) {
        if self.probe.enabled() && self.rob.head_seq() == Some(seq) {
            self.acct_head_stall = Some((seq, c));
        }
    }

    /// Records the occupancy samples of `cycles` cycles that all end in
    /// the current state.
    fn sample(&mut self, cycles: u64) {
        self.lq_occ.record_n(self.lsq.lq_occupancy() as f64, cycles);
        self.sq_occ.record_n(self.lsq.sq_occupancy() as f64, cycles);
        self.ooo_loads
            .record_n(self.lsq.out_of_order_issued_loads() as f64, cycles);
    }

    // ------------------------------------------------------------------
    // Time advance
    // ------------------------------------------------------------------

    /// The earliest cycle after the current one in which a step can
    /// change anything, or `u64::MAX` when nothing is pending. Valid
    /// only between steps, with the event scheduler and no invalidation
    /// injection; each stage's early-outs are mirrored here:
    ///
    /// * issue acts once the scheduler has a ready entry or its
    ///   calendar's first wakeup comes due;
    /// * drain acts while a retired store waits; commit acts once the
    ///   ROB head has issued and its result is due (a head still waiting
    ///   changes only through issue);
    /// * dispatch acts once the frontend head is available and the ROB,
    ///   the IQ and its LQ/SQ have room (otherwise only commit or issue
    ///   can make room);
    /// * fetch acts once `fetch_resume_at` has passed, if no branch
    ///   redirect is pending and the frontend has room.
    // lsq-lint: hot
    fn next_active_cycle(&self) -> u64 {
        let now = self.cycle + 1;
        // Something to issue, or any retired store waiting to drain.
        let ready = self.sched.ready_mask().iter().any(|&w| w != 0);
        if ready || self.lsq.has_undrained_store_before(u64::MAX) {
            return now;
        }
        let mut next = self.sched.next_wakeup().unwrap_or(u64::MAX);
        if let Some(i) = self.rob.front().and_then(|e| e.issued) {
            next = next.min(i.complete_at);
        }
        if let Some(f) = self.frontend.front() {
            let room = !self.rob.is_full()
                && self.sched.len() < self.cfg.iq_entries
                && match f.instr.kind {
                    InstrKind::Load => self.lsq.can_dispatch_load(),
                    InstrKind::Store => self.lsq.can_dispatch_store(),
                    _ => true,
                };
            if room {
                next = next.min(f.avail_at);
            }
        }
        if self.pending_redirect.is_none() && self.frontend.len() < 2 * self.cfg.fetch_width {
            next = next.min(self.fetch_resume_at);
        }
        next.max(now)
    }

    /// Jumps the clock to the cycle before the next active one (at most
    /// to the cycle before `cycle_cap`, so the capped step still runs),
    /// doing in one go what the skipped steps would have done: rotate
    /// the LSQ port books and sample the unchanged occupancies.
    // lsq-lint: hot
    fn skip_idle_cycles(&mut self, cycle_cap: u64) {
        let to = self.next_active_cycle().min(cycle_cap) - 1;
        if to <= self.cycle {
            return;
        }
        let skipped = to - self.cycle;
        self.cycle = to;
        self.sample(skipped);
        // Select would find every parked load refused again in each
        // skipped cycle, nothing having issued. A load-buffer retry's
        // store-queue port checks can change only while bookings made
        // before the jump last (at most one segment chain of cycles):
        // those cycles are retried one by one, the rest counted in bulk.
        let (on_store, on_order) = self.sched.parked_counts();
        let lb_full = on_order > 0 && !self.cfg.lsq.load_order.in_order();
        let mut left = skipped;
        while left > 0 && lb_full && !self.lsq.sq_ports_idle() {
            self.lsq.advance(1);
            self.retry_all_parked();
            left -= 1;
        }
        self.lsq.advance(left);
        self.lsq.count_store_set_waits(on_store * left);
        self.lsq.count_load_order_stalls(on_order * left);
    }

    /// Injects external coherence invalidations (§2.2 scheme 2): with the
    /// configured per-cycle probability, a word some outstanding load has
    /// read is written by "another processor"; any outstanding load to
    /// that word (premature or otherwise) is squashed with everything
    /// younger, R10000-style.
    fn inject_invalidations(&mut self) {
        if self.cfg.invalidation_rate <= 0.0 {
            return;
        }
        if !self.coherence_rng.chance(self.cfg.invalidation_rate) {
            return;
        }
        let pick = self.coherence_rng.range_usize(1 << 16);
        if let Some(addr) = self.lsq.nth_issued_load_addr(pick) {
            if let Some(victim) = self.lsq.invalidate(addr) {
                self.squash(
                    victim,
                    self.cfg.mispredict_penalty,
                    SquashCause::Invalidation,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Drains retired stores from the store queue in the background:
    /// each drain writes the cache (d-cache port) and, under the pair
    /// scheme, performs the commit-time violation search (LQ ports). A
    /// detected violation squashes from the premature load — which is
    /// still in the ROB, since loads cannot retire past an undrained
    /// older store.
    // lsq-lint: hot
    fn drain_stores(&mut self) {
        while self.dcache_used < self.cfg.dcache_ports {
            match self.lsq.drain_store() {
                StoreDrain::Idle | StoreDrain::Blocked => break,
                StoreDrain::Drained {
                    seq,
                    addr,
                    pc,
                    violation,
                } => {
                    self.dcache_used += 1;
                    self.probe_store_search(LsqOp::Drain, seq, pc, addr);
                    self.access(addr, true, false);
                    if let Some(victim) = violation {
                        let penalty = self.cfg.mispredict_penalty + self.cfg.pair_recovery_extra;
                        self.squash(victim, penalty, SquashCause::CommitMemOrder);
                        break;
                    }
                }
            }
        }
    }

    // lsq-lint: hot
    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(seq) = self.rob.head_seq() else {
                break;
            };
            // lsq-lint: allow(no-unwrap-in-lib, reason = "the commit loop runs only while the ROB has a head")
            let e = *self.rob.front().expect("head exists");
            if e.issued.is_none_or(|i| i.complete_at > self.cycle) {
                break;
            }
            match e.instr.kind {
                InstrKind::Store => {
                    // Retirement frees the ROB slot; the SQ entry drains
                    // in the background ("the store is not in the
                    // pipeline anymore", §3.2).
                    self.lsq.store_retire(seq);
                    self.retire(seq);
                }
                InstrKind::Load => {
                    // A load may not retire past an undrained older
                    // store: the drain's violation search must still see
                    // it in the load queue.
                    if self.lsq.has_undrained_store_before(seq) {
                        if self.probe.enabled() {
                            self.acct_drain_blocked = true;
                        }
                        break;
                    }
                    self.lsq.commit_load(seq);
                    self.retire(seq);
                }
                _ => self.retire(seq),
            }
        }
    }

    fn retire(&mut self, seq: u64) {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "the commit loop established this head; popping it cannot fail")
        let (s, e) = self.rob.pop().expect("retiring head");
        debug_assert_eq!(s, seq);
        self.probe.commit(seq);
        if e.issued.is_some_and(|i| i.wakeup_extra > 0) {
            // Retirement makes the result visible at once, which can
            // precede the late wakeup its consumers folded in.
            let rob = &self.rob;
            self.sched.relax(seq, self.cycle, |c| {
                let deps = rob
                    .get(c)
                    .map_or([None; 2], |e| e.deps)
                    .into_iter()
                    .flatten();
                deps.filter_map(|d| rob.get(d)?.wake()).fold(0, u64::max)
            });
        }
        debug_assert_eq!(self.replay_base, seq);
        self.replay.pop_front();
        self.replay_base += 1;
        // A retired instruction's value lives in the architectural state;
        // drop the rename mapping if it still points here.
        if let Some(dst) = e.instr.dst {
            let slot = &mut self.rename[dst.flat_index()];
            if *slot == Some(seq) {
                *slot = None;
            }
        }
        self.committed += 1;
        match e.instr.kind {
            InstrKind::Load => self.loads_committed += 1,
            InstrKind::Store => self.stores_committed += 1,
            InstrKind::Branch => self.branches_committed += 1,
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Attempts to issue `seq` (instruction `instr`) on a free unit:
    /// returns how it executes, or `None` on a resource stall. The checks
    /// run in the polling scan's order (unit in the caller, then dcache
    /// port, then LSQ), so each stall counter is charged once per attempt.
    // lsq-lint: hot
    fn try_issue_one(
        &mut self,
        seq: u64,
        instr: Instruction,
        squash_request: &mut Option<(u64, SquashCause)>,
    ) -> Option<Issued> {
        match instr.kind {
            InstrKind::Load => {
                if !self.dcache_port_free(seq) {
                    return None;
                }
                match self.timed(Phase::LsqSearch, |s| s.lsq.load_issue(seq)) {
                    LoadIssue::Issued(li) => {
                        if let Some(victim) = li.load_order_violation {
                            // §2.2 scheme 1: a younger same-word load
                            // issued out of order; squash it (the
                            // issuing, older load proceeds).
                            *squash_request = Some((victim, SquashCause::LoadLoad));
                        }
                        if self.probe.enabled() {
                            self.probe.lsq_search(&LsqSearch {
                                op: LsqOp::Load,
                                seq,
                                pc: instr.pc,
                                addr: instr.addr,
                                sq_path: li.searched_sq.then(|| self.lsq.sq_search_path()),
                                lq_path: li.searched_lq.then(|| self.lsq.lq_search_path()),
                                lb: li.searched_lb,
                                forwarded_from: li.forwarded_from,
                                useless: li.useless_search,
                                violation: None,
                            });
                        }
                        let (lat, miss) = if li.forwarded_from.is_some() {
                            // Forwarded data arrives with hit latency.
                            (self.cfg.hierarchy.l1d_hit_latency(), None)
                        } else {
                            let a = self.access(instr.addr, false, false);
                            (a.latency, a.miss)
                        };
                        self.dcache_used += 1;
                        Some(Issued {
                            complete_at: self.cycle + u64::from(lat) + u64::from(li.extra_cycles),
                            wakeup_extra: if li.early_wakeup {
                                0
                            } else {
                                self.cfg.late_wakeup_penalty
                            },
                            seg_extra: li.extra_cycles,
                            mem_level: match miss {
                                None => 0,
                                Some(MissLevel::L2) => 1,
                                Some(MissLevel::Memory) => 2,
                            },
                        })
                    }
                    refused => {
                        self.record_refusal(seq, refused);
                        if !self.reference {
                            self.park(seq, refused);
                        }
                        None
                    }
                }
            }
            InstrKind::Store => match self.timed(Phase::LsqSearch, |s| s.lsq.store_issue(seq)) {
                StoreIssue::Issued { violation } => {
                    self.probe_store_search(LsqOp::Store, seq, instr.pc, instr.addr);
                    if let Some(victim) = violation {
                        *squash_request = Some((victim, SquashCause::MemOrder));
                    }
                    Some(Issued {
                        complete_at: self.cycle + 1,
                        ..Issued::default()
                    })
                }
                StoreIssue::NoLqPort => {
                    self.record_head_stall(seq, Component::SearchPort);
                    None
                }
            },
            kind => {
                let complete_at = self.cycle + u64::from(kind.exec_latency());
                if kind.is_branch() && self.pending_redirect == Some(seq) {
                    // The mispredicted branch resolves: redirect fetch
                    // after the Table 1 penalty.
                    self.pending_redirect = None;
                    self.fetch_resume_at = complete_at + self.cfg.mispredict_penalty;
                    self.cur_fetch_block = None;
                    if self.probe.enabled() {
                        self.acct_fetch_stall = FetchStall::Mispredict;
                    }
                }
                Some(Issued {
                    complete_at,
                    ..Issued::default()
                })
            }
        }
    }

    /// Whether a d-cache port is left this cycle for load `seq`.
    // lsq-lint: hot
    fn dcache_port_free(&mut self, seq: u64) -> bool {
        let free = self.dcache_used < self.cfg.dcache_ports;
        if !free {
            self.record_head_stall(seq, Component::DcachePort);
        }
        free
    }

    /// Records the resource `Lsq` refused load `seq` for.
    // lsq-lint: hot
    fn record_refusal(&mut self, seq: u64, refused: LoadIssue) {
        let c = match refused {
            LoadIssue::NoSqPort | LoadIssue::NoLqPort => Component::SearchPort,
            _ => Component::MemOrdering,
        };
        self.record_head_stall(seq, c);
    }

    /// Parks load `seq` if `refused` holds until a known event: a
    /// predicted store's issue, or for the in-order and load-buffer
    /// refusals the next load issue or squash. Port refusals can change
    /// any cycle, so such a load stays ready.
    fn park(&mut self, seq: u64, refused: LoadIssue) {
        let on = match refused {
            LoadIssue::WaitStore(store) => Park::Store(store),
            LoadIssue::InOrderStall | LoadIssue::LbFull => Park::LoadOrder,
            _ => return,
        };
        self.sched.park(seq, on);
    }

    /// Parked load `seq` (parked `on` an event that has not happened)
    /// meets its refusal again, counted and recorded as a full attempt
    /// past the unit and d-cache port checks would be. Only a load-buffer
    /// refusal can come out otherwise, as the store-queue port checks
    /// precede it: while some SQ port is booked, such a load is attempted
    /// in full. Any other visit looks the load up in neither the ROB nor
    /// the LQ.
    // lsq-lint: hot
    fn retry_parked(&mut self, seq: u64, on: Park) {
        let lb_full = on == Park::LoadOrder && !self.cfg.lsq.load_order.in_order();
        if lb_full && !self.lsq.sq_ports_idle() {
            let refused = self.timed(Phase::LsqSearch, |s| s.lsq.load_issue(seq));
            debug_assert!(
                !matches!(refused, LoadIssue::Issued(_)),
                "parked load {seq} issued"
            );
            self.record_refusal(seq, refused);
            return;
        }
        match on {
            Park::Store(_) => self.lsq.count_store_set_waits(1),
            Park::LoadOrder => self.lsq.count_load_order_stalls(1),
        }
        self.record_head_stall(seq, Component::MemOrdering);
    }

    /// Retries every parked load once, as a stepped cycle in which
    /// nothing issues would.
    fn retry_all_parked(&mut self) {
        let mut parked = std::mem::take(&mut self.candidates);
        parked.copy_from_slice(self.sched.parked_mask());
        for slot in age_order(&parked, 0) {
            if let Some(on) = self.sched.parked_on(slot) {
                self.retry_parked(self.sched.seq_of(slot), on);
            }
        }
        self.candidates = parked;
    }

    /// One select pass over a snapshot of the candidates, the ready and
    /// the parked entries, oldest first, until `issue_width` have issued
    /// or one requests a squash. No issue makes another entry ready in the
    /// same cycle (every latency is at least one cycle), so the snapshot
    /// is what a program-order scan sees. An issue can unpark an entry
    /// the walk has yet to reach, so whether an entry is parked is read
    /// when the walk gets to it.
    // lsq-lint: hot
    fn issue(&mut self) {
        self.sched.wake(self.cycle);
        let mut candidates = std::mem::take(&mut self.candidates);
        let masks = self.sched.ready_mask().iter().zip(self.sched.parked_mask());
        for (c, (&ready, &parked)) in candidates.iter_mut().zip(masks) {
            *c = ready | parked;
        }
        if self.reference {
            // Poll every waiting entry's producers in the ROB instead (a
            // committed one's result is architectural); the event
            // bookkeeping must have reached the same set.
            let ready_at = |d| self.rob.get(d).map_or(Some(0), DynInst::wake);
            candidates.fill(0);
            for slot in age_order(self.sched.waiting_mask(), 0) {
                let e = self.rob.get(self.sched.seq_of(slot));
                let mut deps = e.map_or([None; 2], |e| e.deps).into_iter().flatten();
                if deps.all(|d| ready_at(d).is_some_and(|t| t <= self.cycle)) {
                    candidates[slot / 64] |= 1 << (slot % 64);
                }
            }
            let event = self.sched.ready_mask();
            debug_assert_eq!(candidates, event, "cycle {}: polled set", self.cycle);
        }
        let mut issued = 0usize;
        // Free integer and floating-point units.
        let mut units = [self.cfg.int_units, self.cfg.fp_units];
        let mut squash_request: Option<(u64, SquashCause)> = None;
        let head = self.sched.slot(self.rob.head_seq().unwrap_or(0));
        for slot in age_order(&candidates, head) {
            if issued == self.cfg.issue_width {
                break;
            }
            let seq = self.sched.seq_of(slot);
            if let Some(on) = self.sched.parked_on(slot) {
                // Parked entries are loads, which use an integer unit.
                if units[0] == 0 {
                    self.record_head_stall(seq, Component::ExecLatency);
                } else if self.dcache_port_free(seq) {
                    self.retry_parked(seq, on);
                }
                continue;
            }
            // lsq-lint: allow(no-unwrap-in-lib, reason = "the IQ holds only seqs resident in the ROB")
            let instr = self.rob.get(seq).expect("IQ entry in ROB").instr;
            let unit = usize::from(instr.kind.is_fp());
            // An entry refused for a port or unit keeps its ready bit: it
            // is tried again next cycle.
            if units[unit] == 0 {
                self.record_head_stall(seq, Component::ExecLatency);
                continue;
            }
            let Some(i) = self.try_issue_one(seq, instr, &mut squash_request) else {
                continue;
            };
            units[unit] -= 1;
            issued += 1;
            // lsq-lint: allow(no-unwrap-in-lib, reason = "the IQ holds only seqs resident in the ROB")
            self.rob.get_mut(seq).expect("IQ entry in ROB").issued = Some(i);
            self.probe
                .issue(seq, i.complete_at, i.seg_extra, i.mem_level);
            let wake = i.complete_at + u64::from(i.wakeup_extra);
            self.sched.issue(seq, wake, self.cycle);
            if instr.kind.is_load() {
                self.sched.unpark_load_order();
            }
            if squash_request.is_some() {
                break;
            }
        }
        self.candidates = candidates;
        if let Some((victim, cause)) = squash_request {
            self.squash(victim, self.cfg.mispredict_penalty, cause);
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (rename + queue allocation)
    // ------------------------------------------------------------------

    // lsq-lint: hot
    fn dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(f) = self.frontend.front().copied() else {
                break;
            };
            if f.avail_at > self.cycle {
                break;
            }
            let full = if self.rob.is_full() {
                Some(Component::RobFull)
            } else if self.sched.len() >= self.cfg.iq_entries {
                Some(Component::IqFull)
            } else {
                match f.instr.kind {
                    InstrKind::Load if !self.lsq.can_dispatch_load() => Some(Component::LqFull),
                    InstrKind::Store if !self.lsq.can_dispatch_store() => Some(Component::SqFull),
                    _ => None,
                }
            };
            if let Some(c) = full {
                if self.probe.enabled() {
                    self.acct_dispatch_stall = Some(c);
                }
                break;
            }
            self.frontend.pop_front();
            let mut deps = [None, None];
            for (slot, src) in f.instr.srcs.iter().enumerate() {
                if let Some(r) = src {
                    deps[slot] = self.rename[r.flat_index()];
                }
            }
            let seq = self
                .rob
                .push(DynInst {
                    instr: f.instr,
                    deps,
                    issued: None,
                })
                // lsq-lint: allow(no-unwrap-in-lib, reason = "guarded by the fullness check above")
                .expect("checked not full");
            debug_assert_eq!(seq, f.gseq);
            match f.instr.kind {
                InstrKind::Load => self.lsq.dispatch_load(seq, f.instr.pc, f.instr.addr),
                InstrKind::Store => self.lsq.dispatch_store(seq, f.instr.pc, f.instr.addr),
                _ => {}
            }
            self.probe.dispatch(seq, &f.instr, deps);
            if let Some(dst) = f.instr.dst {
                self.rename[dst.flat_index()] = Some(seq);
            }
            let srcs = deps.map(|d| {
                let d = d?;
                Some((d, self.rob.get(d)?.wake()))
            });
            self.sched.dispatch(seq, srcs, self.cycle);
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    // lsq-lint: hot
    fn fetch<S: InstructionStream>(&mut self, stream: &mut S) {
        if self.cycle < self.fetch_resume_at || self.pending_redirect.is_some() {
            return;
        }
        let i_block = self.cfg.hierarchy.l1i.block_bytes;
        let i_hit = self.cfg.hierarchy.l1i.hit_latency;
        for _ in 0..self.cfg.fetch_width {
            if self.frontend.len() >= 2 * self.cfg.fetch_width {
                break;
            }
            // Obtain the instruction at `next_fetch`: from the replay
            // buffer after a squash, from the trace otherwise.
            let idx = (self.next_fetch - self.replay_base) as usize;
            let instr = if idx < self.replay.len() {
                self.replay[idx]
            } else {
                match stream.next_instr() {
                    Some(i) => {
                        self.replay.push_back(i);
                        i
                    }
                    None => {
                        self.stream_done = true;
                        break;
                    }
                }
            };
            // Instruction cache: accessing a new block may miss and stall
            // fetch for the extra latency.
            let block = Addr(instr.pc.0).block(i_block);
            if self.cur_fetch_block != Some(block) {
                let lat = self.access(Addr(instr.pc.0), false, true).latency;
                self.cur_fetch_block = Some(block);
                let extra = lat.saturating_sub(i_hit);
                if extra > 0 {
                    self.fetch_resume_at = self.cycle + u64::from(extra);
                    if self.probe.enabled() {
                        self.acct_fetch_stall = FetchStall::IcacheMiss;
                    }
                    break; // the instruction is fetched after the miss
                }
            }
            let gseq = self.next_fetch;
            self.next_fetch += 1;
            self.probe.fetch(gseq, &instr);
            self.frontend.push_back(Fetched {
                gseq,
                instr,
                avail_at: self.cycle + 1,
            });
            if instr.kind.is_branch() {
                let correct = self.bp.predict_and_update(instr.pc, instr.taken);
                if !correct {
                    // Wrong path: stall fetch until this branch resolves.
                    self.pending_redirect = Some(gseq);
                    break;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Flushes `victim` and everything younger, rewinds fetch to refetch
    /// from `victim`, and charges `penalty` cycles before fetch resumes.
    /// Profiled as [`Phase::Squash`], nested inside whichever phase
    /// detected the violation.
    fn squash(&mut self, victim: u64, penalty: u64, cause: SquashCause) {
        self.timed(Phase::Squash, |s| s.squash_inner(victim, penalty, cause));
    }

    fn squash_inner(&mut self, victim: u64, penalty: u64, cause: SquashCause) {
        self.violation_squashes += 1;
        if self.probe.enabled() {
            // Before the ROB truncation and the fetch rewind below: the
            // victim's PC is still readable and `next_fetch` is still the
            // pre-squash frontier bounding the in-flight seqs.
            let pc = self.rob.get(victim).map_or(Pc(0), |e| e.instr.pc);
            self.probe
                .squash(victim, pc, cause, penalty, self.next_fetch);
        }
        let tail = self.rob.next_seq();
        let head = tail - self.rob.len() as u64;
        let removed = self.rob.truncate_from(victim);
        self.instructions_squashed += removed as u64;
        self.sched.squash(head, victim.max(head), tail);
        self.lsq.squash_from(victim);
        self.frontend.retain(|f| f.gseq < victim);
        // Rebuild the rename map from the surviving ROB contents.
        self.rename = [None; 64];
        for (seq, e) in self.rob.iter() {
            if let Some(dst) = e.instr.dst {
                self.rename[dst.flat_index()] = Some(seq);
            }
        }
        self.next_fetch = victim;
        self.fetch_resume_at = self.cycle + penalty;
        self.cur_fetch_block = None;
        if self.probe.enabled() {
            self.acct_fetch_stall = FetchStall::Squash;
            // A stall recorded for a now-squashed head must not leak
            // into this cycle's classification.
            if self.acct_head_stall.is_some_and(|(s, _)| s >= victim) {
                self.acct_head_stall = None;
            }
        }
        if self.pending_redirect.is_some_and(|b| b >= victim) {
            self.pending_redirect = None;
        }
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn result(&mut self, hit_cycle_cap: bool) -> SimResult {
        let mut r = SimResult {
            cycles: self.cycle,
            committed: self.committed,
            loads_committed: self.loads_committed,
            stores_committed: self.stores_committed,
            branches_committed: self.branches_committed,
            branch_predictions: self.bp.predictions(),
            branch_mispredictions: self.bp.mispredictions(),
            violation_squashes: self.violation_squashes,
            instructions_squashed: self.instructions_squashed,
            lq_occupancy: self.lq_occ.mean(),
            sq_occupancy: self.sq_occ.mean(),
            ooo_issued_loads: self.ooo_loads.mean(),
            // The LQ holds exactly the in-flight loads, so both report
            // one mean.
            inflight_loads: self.lq_occ.mean(),
            lsq: self.lsq.stats().clone(),
            l1d_miss_rate: self.mem.l1d_stats().miss_rate(),
            l2_miss_rate: self.mem.l2_stats().miss_rate(),
            wall_nanos: 0,
            sim_mips: 0.0,
            profile: None,
            cpi_stack: None,
            stage_latency: None,
            critical_path: None,
            hit_cycle_cap,
        };
        self.probe.report(&mut r);
        if let Some(stack) = &r.cpi_stack {
            // The tentpole invariant: every commit slot of every cycle
            // was charged to exactly one component.
            debug_assert_eq!(
                stack.total_slots(),
                self.cycle * self.cfg.commit_width as u64,
                "CPI-stack components must sum exactly to cycles × commit_width"
            );
        }
        r
    }

    /// A cache access, with an L1 miss reported to the probe.
    // lsq-lint: hot
    #[inline]
    fn access(&mut self, addr: Addr, write: bool, fetch: bool) -> Access {
        let a = self.mem.access(addr, write, fetch);
        if let (true, Some(level)) = (self.probe.enabled(), a.miss) {
            self.probe.cache_miss(addr, level, fetch);
        }
        a
    }

    /// Reports a store's issue or drain, and the load-queue search the
    /// `Lsq` made for it, to the probe.
    fn probe_store_search(&mut self, op: LsqOp, seq: u64, pc: Pc, addr: Addr) {
        if !self.probe.enabled() {
            return;
        }
        let search = self.lsq.store_search();
        self.probe.lsq_search(&LsqSearch {
            op,
            seq,
            pc,
            addr,
            sq_path: None,
            lq_path: search.searched_lq.then(|| self.lsq.lq_search_path()),
            lb: false,
            forwarded_from: None,
            useless: false,
            violation: search.violation,
        });
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // tests mutate one field of a default config
mod tests {
    use super::*;
    use lsq_core::{LoadOrderPolicy, LsqConfig, PredictorKind};
    use lsq_isa::{ArchReg, Pc, VecStream};

    fn run_instrs(cfg: SimConfig, instrs: Vec<Instruction>) -> SimResult {
        let n = instrs.len() as u64;
        let mut stream = VecStream::new(instrs);
        let mut sim = Simulator::new(cfg);
        sim.run(&mut stream, n)
    }

    fn alu(pc: u64) -> Instruction {
        Instruction::op(Pc(pc), InstrKind::IntAlu)
    }

    #[test]
    fn commits_every_instruction_of_a_straight_line_program() {
        // PCs loop over a small code footprint so the i-cache warms up,
        // as in real loop nests.
        let instrs: Vec<Instruction> = (0..4000).map(|i| alu(0x1000 + (i % 64) * 4)).collect();
        let r = run_instrs(SimConfig::default(), instrs);
        assert_eq!(r.committed, 4000);
        assert!(!r.hit_cycle_cap);
        assert!(
            r.cycles < 4000,
            "8-wide machine needs far fewer cycles than instrs ({})",
            r.cycles
        );
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let instrs: Vec<Instruction> = (0..40_000).map(|i| alu(0x1000 + (i % 64) * 4)).collect();
        let r = run_instrs(SimConfig::default(), instrs);
        assert!(r.ipc() > 5.0, "ipc {}", r.ipc());
    }

    #[test]
    fn dependence_chain_limits_ipc_to_one() {
        let mut instrs = Vec::new();
        for i in 0..20_000u64 {
            instrs.push(
                Instruction::op(Pc(0x1000 + (i % 64) * 4), InstrKind::IntAlu)
                    .with_dst(ArchReg::int(1))
                    .with_src(ArchReg::int(1)),
            );
        }
        let r = run_instrs(SimConfig::default(), instrs);
        assert!(r.ipc() < 1.2, "serial chain ipc {}", r.ipc());
        assert!(
            r.ipc() > 0.8,
            "back-to-back issue should sustain ~1 ipc, got {}",
            r.ipc()
        );
    }

    #[test]
    fn load_latency_is_visible_in_dependent_chains() {
        // load -> dependent alu chain, all L1 hits after warmup: each link
        // costs the 2-cycle hit latency.
        let mut instrs = Vec::new();
        for i in 0..5000u64 {
            instrs.push(
                Instruction::load(Pc(0x1000 + (i % 64) * 8), Addr(0x100))
                    .with_dst(ArchReg::int(1))
                    .with_src(ArchReg::int(1)),
            );
        }
        let r = run_instrs(SimConfig::default(), instrs);
        // Serialized loads: ~2 cycles each.
        assert!(r.ipc() < 0.7, "ipc {}", r.ipc());
    }

    #[test]
    fn forwarding_supplies_load_values() {
        // store A; load A pairs forward; no violations since the load's
        // address dependence makes it issue after the store.
        let mut instrs = Vec::new();
        for i in 0..300u64 {
            let pc = 0x1000 + (i % 16) * 16;
            instrs.push(Instruction::op(Pc(pc), InstrKind::IntAlu).with_dst(ArchReg::int(2)));
            instrs.push(Instruction::store(Pc(pc + 4), Addr(0x40)).with_src(ArchReg::int(2)));
            instrs.push(Instruction::load(Pc(pc + 8), Addr(0x40)).with_dst(ArchReg::int(3)));
        }
        let r = run_instrs(SimConfig::default(), instrs);
        assert_eq!(r.committed, 900);
        assert!(r.lsq.sq_search_hits > 0, "forwarding hits must occur");
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        // Alternating taken/not-taken is learnable; random is not. Compare
        // cycles for the same instruction count.
        let mk = |pattern: fn(u64) -> bool| -> Vec<Instruction> {
            let mut v = Vec::new();
            for i in 0..3000u64 {
                if i % 4 == 3 {
                    v.push(Instruction::branch(Pc(0x1000 + (i % 64) * 4), pattern(i)));
                } else {
                    v.push(alu(0x1000 + (i % 64) * 4));
                }
            }
            v
        };
        let predictable = run_instrs(SimConfig::default(), mk(|_| true));
        // Properly mixed pseudo-random outcomes the predictor cannot learn.
        fn noise(i: u64) -> bool {
            let mut s = i;
            lsq_util::rng::splitmix64(&mut s) & 1 == 1
        }
        let random = run_instrs(SimConfig::default(), mk(noise));
        assert!(
            random.cycles > predictable.cycles * 2,
            "mispredicts must hurt: {} vs {}",
            random.cycles,
            predictable.cycles
        );
        assert!(random.branch_mispredict_rate() > 0.2);
        assert!(predictable.branch_mispredict_rate() < 0.05);
    }

    #[test]
    fn premature_load_squashes_and_refetches() {
        // The store's data dependence delays it; the same-address load
        // behind it issues first and reads stale data -> violation.
        let mut instrs = Vec::new();
        for i in 0..200u64 {
            let pc = 0x1000 + (i % 8) * 32;
            // Long-latency producer feeding the store's address register.
            instrs.push(Instruction::op(Pc(pc), InstrKind::FpDiv).with_dst(ArchReg::fp(1)));
            instrs.push(
                Instruction::op(Pc(pc + 4), InstrKind::IntAlu)
                    .with_dst(ArchReg::int(2))
                    .with_src(ArchReg::int(2)),
            );
            // Store waits on the FP producer via its data operand.
            instrs.push(Instruction::store(Pc(pc + 8), Addr(0x80)).with_src(ArchReg::fp(1)));
            instrs.push(Instruction::load(Pc(pc + 12), Addr(0x80)).with_dst(ArchReg::int(4)));
        }
        let r = run_instrs(SimConfig::default(), instrs);
        assert_eq!(r.committed, 800);
        assert!(r.violation_squashes > 0, "premature loads must be caught");
        // After the first violations, store-set gating kicks in, so
        // squashes must be far rarer than iterations.
        assert!(
            r.violation_squashes < 50,
            "store-set must learn the pair ({} squashes)",
            r.violation_squashes
        );
    }

    #[test]
    fn pair_mode_catches_violations_at_commit() {
        let mut cfg = SimConfig::default();
        cfg.lsq.predictor = PredictorKind::Pair;
        let mut instrs = Vec::new();
        for i in 0..200u64 {
            let pc = 0x1000 + (i % 8) * 32;
            instrs.push(Instruction::op(Pc(pc), InstrKind::FpDiv).with_dst(ArchReg::fp(1)));
            instrs.push(Instruction::store(Pc(pc + 8), Addr(0x80)).with_src(ArchReg::fp(1)));
            instrs.push(Instruction::load(Pc(pc + 12), Addr(0x80)).with_dst(ArchReg::int(4)));
        }
        let r = run_instrs(cfg, instrs);
        assert_eq!(r.committed, 600);
        assert!(
            r.lsq.commit_violations > 0,
            "pair mispredictions detected at commit"
        );
    }

    #[test]
    fn one_port_is_slower_than_four_ports_under_load_pressure() {
        // Lots of independent loads: port-starved configs lose throughput.
        let mut instrs = Vec::new();
        for i in 0..4000u64 {
            instrs.push(Instruction::load(
                Pc(0x1000 + (i % 256) * 4),
                Addr(0x4000 + (i % 64) * 8),
            ));
        }
        let one = run_instrs(
            SimConfig::with_lsq(LsqConfig::conventional(1)),
            instrs.clone(),
        );
        let four = run_instrs(SimConfig::with_lsq(LsqConfig::conventional(4)), instrs);
        assert!(
            one.cycles > four.cycles * 3 / 2,
            "1-port {} vs 4-port {}",
            one.cycles,
            four.cycles
        );
    }

    #[test]
    fn load_buffer_relieves_lq_port_pressure() {
        let mut instrs = Vec::new();
        for i in 0..4000u64 {
            instrs.push(Instruction::load(
                Pc(0x1000 + (i % 256) * 4),
                Addr(0x4000 + (i % 64) * 8),
            ));
        }
        let mut conv = LsqConfig::conventional(1);
        conv.predictor = PredictorKind::Pair;
        let base = run_instrs(SimConfig::with_lsq(conv), instrs.clone());
        let with_lb = run_instrs(SimConfig::with_lsq(LsqConfig::with_techniques(1)), instrs);
        assert!(
            with_lb.cycles <= base.cycles,
            "load buffer must not slow a load-heavy kernel: {} vs {}",
            with_lb.cycles,
            base.cycles
        );
        assert_eq!(with_lb.lsq.lq_searches_by_loads, 0);
        assert!(base.lsq.lq_searches_by_loads > 0);
    }

    #[test]
    fn finite_stream_drains_completely() {
        let instrs: Vec<Instruction> = (0..37).map(|i| alu(0x1000 + i * 4)).collect();
        let mut stream = VecStream::new(instrs);
        let mut sim = Simulator::new(SimConfig::default());
        let r = sim.run(&mut stream, 1_000_000);
        assert_eq!(r.committed, 37);
        assert!(!r.hit_cycle_cap);
    }

    #[test]
    fn run_continues_across_calls() {
        let instrs: Vec<Instruction> = (0..200).map(|i| alu(0x1000 + i * 4)).collect();
        let mut stream = VecStream::new(instrs);
        let mut sim = Simulator::new(SimConfig::default());
        let first = sim.run(&mut stream, 50);
        assert!(first.committed >= 50);
        let second = sim.run(&mut stream, 100);
        assert!(second.committed >= 150, "committed {}", second.committed);
    }

    #[test]
    fn in_order_loads_hurt_a_realistic_workload() {
        // In-order load issue loses ILP through head-of-line blocking
        // under latency variance and finite issue-queue pressure, which a
        // realistic workload (irregular misses + branches) exposes; this
        // is the Figure 9 left-bars effect.
        let profile = lsq_trace::BenchProfile::named("parser").unwrap();
        let run = |lsq: LsqConfig| {
            let mut stream = profile.stream(5);
            let mut sim = Simulator::new(SimConfig::with_lsq(lsq));
            sim.prewarm(&stream.data_regions(), stream.code_region());
            let _ = sim.run(&mut stream, 20_000);
            sim.run(&mut stream, 40_000)
        };
        let mut in_order = LsqConfig::conventional(2);
        in_order.load_order = LoadOrderPolicy::InOrderNoSearch;
        let io = run(in_order);
        let ooo = run(LsqConfig::conventional(2));
        assert!(
            io.cycles as f64 > ooo.cycles as f64 * 1.01,
            "in-order loads must cost ILP: {} vs {}",
            io.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn pair_mode_drains_stores_behind_retirement() {
        // Store-heavy bursts under the pair scheme: stores retire from
        // the ROB immediately and drain in the background; everything
        // still commits and each drained store wrote the cache once.
        let mut cfg = SimConfig::default();
        cfg.lsq.predictor = PredictorKind::Pair;
        let mut instrs = Vec::new();
        for i in 0..1500u64 {
            let pc = 0x1000 + (i % 32) * 8;
            instrs.push(
                Instruction::store(Pc(pc), Addr(0x40 + (i % 16) * 8)).with_src(ArchReg::int(1)),
            );
            instrs.push(Instruction::op(Pc(pc + 4), InstrKind::IntAlu).with_dst(ArchReg::int(1)));
        }
        let r = run_instrs(cfg, instrs);
        assert_eq!(r.committed, 3000);
        assert!(!r.hit_cycle_cap);
        // All but a small undrained tail of stores drained.
        assert!(r.lsq.stores_committed + 40 > r.stores_committed);
        // Every drain performed its commit-time LQ search.
        assert!(r.lsq.lq_searches_by_stores >= r.lsq.stores_committed);
    }

    #[test]
    fn loads_wait_for_older_store_drains() {
        // At 1 LQ port under the pair scheme, drains are serialized;
        // loads behind store bursts must still commit in order and
        // observe forwarding correctly (no lost victims).
        let mut cfg = SimConfig::default();
        cfg.lsq = LsqConfig::with_techniques(1);
        let mut instrs = Vec::new();
        for i in 0..800u64 {
            let pc = 0x1000 + (i % 16) * 16;
            instrs.push(Instruction::store(Pc(pc), Addr(0x100)).with_src(ArchReg::int(2)));
            instrs.push(Instruction::store(Pc(pc + 4), Addr(0x108)).with_src(ArchReg::int(2)));
            instrs.push(Instruction::load(Pc(pc + 8), Addr(0x100)).with_dst(ArchReg::int(3)));
            instrs.push(Instruction::op(Pc(pc + 12), InstrKind::IntAlu).with_dst(ArchReg::int(2)));
        }
        let r = run_instrs(cfg, instrs);
        assert_eq!(r.committed, 3200);
        assert!(!r.hit_cycle_cap);
    }

    #[test]
    fn coherence_invalidations_squash_and_recover() {
        // Multiprocessor scenario (§2.2): invalidations hit outstanding
        // loads and squash; everything still commits correctly.
        let mut cfg = SimConfig::default();
        cfg.invalidation_rate = 0.05;
        let mut instrs = Vec::new();
        for i in 0..4000u64 {
            instrs.push(Instruction::load(
                Pc(0x1000 + (i % 64) * 4),
                Addr(0x4000 + (i % 32) * 8),
            ));
        }
        let r = run_instrs(cfg, instrs.clone());
        assert_eq!(r.committed, 4000);
        assert!(!r.hit_cycle_cap);
        assert!(r.lsq.invalidations > 0);
        assert!(r.lsq.invalidation_squashes > 0, "hot loads must be hit");
        // The same workload without coherence traffic is faster.
        let quiet = run_instrs(SimConfig::default(), instrs);
        assert!(r.cycles > quiet.cycles);
    }

    #[test]
    fn load_load_squash_costs_cycles_on_shared_words() {
        // Alpha-style same-address load-load ordering (§2.2 scheme 1):
        // with squashing enabled, repeated same-word loads issued out of
        // order cost squashes.
        let mut cfg = SimConfig::default();
        cfg.lsq.load_load_squash = true;
        let mut instrs = Vec::new();
        for i in 0..3000u64 {
            let pc = 0x1000 + (i % 32) * 8;
            // A slow producer delays the first load's address; the second
            // load to the same word is independent and issues early.
            instrs.push(
                Instruction::op(Pc(pc), InstrKind::IntMul)
                    .with_dst(ArchReg::int(1))
                    .with_src(ArchReg::int(1)),
            );
            instrs.push(Instruction::load(Pc(pc + 4), Addr(0x80)).with_src(ArchReg::int(1)));
            instrs.push(Instruction::load(Pc(pc + 8), Addr(0x80)));
        }
        let r = run_instrs(cfg, instrs);
        assert_eq!(r.committed, 9000);
        assert!(!r.hit_cycle_cap);
        assert!(
            r.lsq.load_load_violations > 0,
            "OoO same-word loads must trap"
        );
    }

    #[test]
    fn accounted_run_partitions_every_commit_slot() {
        use crate::accounting::CpiStack;
        use crate::probe::ProbeSet;
        // A mixed workload exercising loads, branches, and dep chains.
        let mut instrs = Vec::new();
        for i in 0..3000u64 {
            let pc = 0x1000 + (i % 64) * 8;
            if i % 7 == 3 {
                instrs.push(
                    Instruction::load(Pc(pc), Addr(0x4000 + (i % 128) * 8))
                        .with_dst(ArchReg::int(1)),
                );
            } else if i % 11 == 5 {
                instrs.push(Instruction::branch(Pc(pc), i % 2 == 0));
            } else {
                instrs.push(
                    Instruction::op(Pc(pc), InstrKind::IntAlu)
                        .with_dst(ArchReg::int(2))
                        .with_src(ArchReg::int(1)),
                );
            }
        }
        let n = instrs.len() as u64;
        let mut stream = VecStream::new(instrs);
        let probe = ProbeSet {
            acct: Some(CpiStack::default()),
            ..ProbeSet::default()
        };
        let mut sim = Simulator::with_probe(SimConfig::default(), probe);
        let r = sim.run(&mut stream, n);
        let stack = r.cpi_stack.expect("accounted run reports a stack");
        // The partition invariant, and its corollary: base slots are
        // exactly the committed instructions.
        assert_eq!(stack.total_slots(), r.cycles * 8);
        assert_eq!(stack.slots("base"), r.committed);
        assert_eq!(stack.cycles(), r.cycles);
    }

    /// `measure` is exactly the warm-up, the `run(0)` snapshot, the
    /// measured run and `since`, spelled out here once as the reference,
    /// unobserved and with the accountant attached.
    #[test]
    fn measure_is_warmup_snapshot_and_difference() {
        use crate::accounting::CpiStack;
        use crate::probe::ProbeSet;
        use lsq_core::SegAlloc;
        use lsq_trace::BenchProfile;
        fn both<P: Probe>(bench: &str, lsq: LsqConfig, probe: impl Fn() -> P) -> [String; 2] {
            let profile = BenchProfile::named(bench).expect("known benchmark");
            let fresh = || {
                let mut sim = Simulator::with_probe(SimConfig::with_lsq(lsq), probe());
                let stream = profile.stream(1);
                sim.prewarm(&stream.data_regions(), stream.code_region());
                (sim, stream)
            };
            let (mut sim, mut stream) = fresh();
            let measured = sim.measure(&mut stream, 2_000, 5_000);
            let (mut sim, mut stream) = fresh();
            let _ = sim.run(&mut stream, 2_000);
            let before = sim.run(&mut stream, 0);
            let manual = sim.run(&mut stream, 5_000).since(&before);
            [format!("{measured:?}"), format!("{manual:?}")]
        }
        let accounted = || ProbeSet {
            acct: Some(CpiStack::default()),
            ..ProbeSet::default()
        };
        for bench in ["gzip", "mcf"] {
            for lsq in [
                LsqConfig::default(),
                LsqConfig::segmented(SegAlloc::SelfCircular),
            ] {
                let [measured, manual] = both(bench, lsq, || NopProbe);
                assert_eq!(measured, manual, "{bench}: unobserved");
                let [measured, manual] = both(bench, lsq, accounted);
                assert!(measured.contains("cpi_stack: Some"), "{bench}: no stack");
                assert_eq!(measured, manual, "{bench}: accounted");
            }
        }
    }

    #[test]
    fn accounting_off_reports_no_stack() {
        let instrs: Vec<Instruction> = (0..100).map(|i| alu(0x1000 + i * 4)).collect();
        let r = run_instrs(SimConfig::default(), instrs);
        assert!(r.cpi_stack.is_none());
    }

    #[test]
    fn occupancy_statistics_are_sampled() {
        let mut instrs = Vec::new();
        for i in 0..500u64 {
            instrs.push(Instruction::load(
                Pc(0x1000 + i * 4),
                Addr(0x4000 + (i % 32) * 8),
            ));
        }
        let r = run_instrs(SimConfig::default(), instrs);
        assert!(r.lq_occupancy > 0.0);
        assert!(r.inflight_loads > 0.0);
    }
}
