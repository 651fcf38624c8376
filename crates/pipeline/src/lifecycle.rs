//! Per-instruction lifecycle recording: pipeline-viewer records,
//! stage-latency histograms, and critical-path analysis.
//!
//! The CPI stacks (see [`crate::accounting`]) attribute *commit slots*;
//! this module attributes *an instruction's own cycles*. The simulator
//! stamps every in-flight instruction at fetch, dispatch, issue (which
//! also fixes the writeback cycle — completion latency is computed at
//! issue), commit, and squash (with cause). As each record finishes it
//! derives:
//!
//! * [`PipeRecord`]s rendered as Konata / O3PipeView logs (see
//!   [`lsq_obs::pipeview`]), bounded by a finished-record ring
//!   (`LSQ_PIPEVIEW_CAP`) so memory stays flat on long runs — evicted
//!   records are counted, never silently lost. A recorder built without
//!   a ring keeps no finished records;
//! * [`StageLatency`]: per-stage latency histograms (dispatch→issue,
//!   issue→memory, SQ-search wait, load-buffer residency) folded into
//!   [`SimResult`](crate::SimResult) and the experiment records;
//! * [`CriticalPath`]: the longest producer→consumer dependency chain
//!   among the instructions committed since the last report, tracked at
//!   commit, with every cycle of the chain attributed to exactly one
//!   component (the per-instruction analogue of the CPI stack's
//!   partition invariant).
//!
//! A [`PipeviewRecorder`] is the lifecycle recorder of a
//! [`ProbeSet`](crate::probe::ProbeSet); the simulator stamps it through
//! the probe's fetch/dispatch/issue/commit/squash hooks, which
//! [`NopProbe`](crate::probe::NopProbe) compiles away.

use lsq_obs::{Json, PipeRecord, SquashCause};

use lsq_isa::Instruction;
use lsq_stats::Histogram;

/// Bucket count of every stage-latency histogram: latencies
/// `0..STAGE_BUCKETS` cycles resolve exactly, longer ones clamp into
/// the last bucket and count as overflow.
pub const STAGE_BUCKETS: usize = 64;

/// The stage-latency histogram names, in [`StageLatency::stages`]
/// order — also the `stage` label values of the
/// `lsq_stage_latency_cycles` metric.
pub const STAGE_NAMES: [&str; 4] = [
    "dispatch_to_issue",
    "issue_to_mem",
    "sq_search_wait",
    "lb_residency",
];

/// Records every instruction's lifetime, and tracks the critical path
/// of the current window as instructions commit.
///
/// Live (in-flight) records sit in a direct-mapped array indexed by
/// `seq % capacity` — collision-free because the simulator bounds the
/// in-flight seq window by [`PipeviewRecorder::init`]'s argument. Finished
/// records (committed or squashed) move to a ring of
/// `LSQ_PIPEVIEW_CAP` entries; when it fills, the oldest record is
/// evicted and counted in [`PipeviewRecorder::dropped`]
/// (`lsq_pipeview_dropped_total`). Chain tails of committed
/// instructions sit in a second array mapped like the live one: a
/// consumer's producers were in flight when it dispatched, so they are
/// never more than the in-flight window older than it. All arrays are
/// preallocated: the record path never allocates.
#[derive(Debug, Clone)]
pub struct PipeviewRecorder {
    /// In-flight records, direct-mapped by `seq % live.len()`.
    live: Vec<PipeRecord>,
    /// Finished-record ring.
    done: Vec<PipeRecord>,
    /// Index of the oldest entry once the ring has wrapped.
    done_start: usize,
    /// Ring capacity; zero keeps no ring.
    cap: usize,
    /// Finished records evicted from a full ring.
    dropped: u64,
    stages: StageLatency,
    /// The chains ending at this window's committed instructions,
    /// direct-mapped by `seq % chains.len()`.
    chains: Vec<Option<Chain>>,
    /// This window's critical path: its chain with the latest
    /// `(writeback, seq)`.
    critical: Option<Chain>,
}

/// The longest chain ending at one committed instruction's writeback.
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// The instruction the chain ends at.
    seq: u64,
    /// Its writeback cycle.
    writeback: u64,
    path: CriticalPath,
}

impl PipeviewRecorder {
    /// Creates a recorder whose finished-record ring holds `capacity`
    /// records (oldest evicted first); with a `capacity` of zero it
    /// keeps no finished records, for runs that write no
    /// pipeline-viewer log. The live array is sized by
    /// [`PipeviewRecorder::init`].
    pub fn new(capacity: usize) -> Self {
        Self {
            live: Vec::new(),
            done: Vec::with_capacity(capacity),
            done_start: 0,
            cap: capacity,
            dropped: 0,
            stages: StageLatency::new(),
            chains: Vec::new(),
            critical: None,
        }
    }

    // lsq-lint: hot
    #[inline]
    fn slot(&mut self, seq: u64) -> &mut PipeRecord {
        debug_assert!(!self.live.is_empty(), "recorder used before init");
        let idx = (seq % self.live.len() as u64) as usize;
        &mut self.live[idx]
    }

    /// Moves a finished record into the ring, evicting the oldest when
    /// full, and vacates the live slot.
    // lsq-lint: hot
    #[inline]
    fn finalize(&mut self, seq: u64) {
        let r = std::mem::replace(self.slot(seq), PipeRecord::vacant());
        debug_assert_eq!(r.seq, seq, "finalizing a slot another seq owns");
        if self.cap == 0 {
            return;
        }
        if self.done.len() < self.cap {
            self.done.push(r);
        } else {
            self.done[self.done_start] = r;
            self.done_start = (self.done_start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Sizes the live and chain arrays for the maximum number of
    /// simultaneously in-flight instructions (ROB entries plus the
    /// fetch buffer).
    pub fn init(&mut self, max_inflight: usize) {
        self.live = vec![PipeRecord::vacant(); max_inflight.max(1)];
        self.chains = vec![None; max_inflight.max(1)];
    }

    /// `seq` entered the frontend at `cycle`.
    // lsq-lint: hot
    #[inline]
    pub fn fetch(&mut self, seq: u64, cycle: u64, instr: &Instruction) {
        let slot = self.slot(seq);
        debug_assert!(
            !slot.is_occupied(),
            "live window exceeded the init() bound: seq {seq} collides with {}",
            slot.seq
        );
        *slot = PipeRecord {
            seq,
            pc: instr.pc,
            addr: instr.addr,
            kind: instr.kind,
            fetch: cycle,
            ..PipeRecord::vacant()
        };
    }

    /// `seq` entered the ROB/queues at `cycle`, waiting on the renamed
    /// producers in `deps`.
    // lsq-lint: hot
    #[inline]
    pub fn dispatch(&mut self, seq: u64, cycle: u64, deps: [Option<u64>; 2]) {
        let slot = self.slot(seq);
        debug_assert_eq!(slot.seq, seq, "dispatch stamp on an unfetched seq");
        slot.dispatch = Some(cycle);
        slot.deps = deps;
    }

    /// `seq` issued at `cycle`; its result is available at `writeback`.
    /// For loads, `sq_extra` is the segmented SQ-search's extra latency
    /// and `mem_level` the deepest hierarchy level reached
    /// (0 = L1/forward, 1 = L2, 2 = memory).
    // lsq-lint: hot
    #[inline]
    pub fn issue(&mut self, seq: u64, cycle: u64, writeback: u64, sq_extra: u32, mem_level: u8) {
        let slot = self.slot(seq);
        debug_assert_eq!(slot.seq, seq, "issue stamp on an unfetched seq");
        slot.issue = Some(cycle);
        slot.writeback = Some(writeback);
        slot.sq_extra = sq_extra;
        slot.mem_level = mem_level;
    }

    /// `seq` retired at `cycle`.
    // lsq-lint: hot
    #[inline]
    pub fn commit(&mut self, seq: u64, cycle: u64) {
        let slot = self.slot(seq);
        debug_assert_eq!(slot.seq, seq, "commit stamp on an unfetched seq");
        slot.commit = Some(cycle);
        let record = *slot;
        self.stages.observe(&record);
        self.extend_chain(&record);
        self.finalize(seq);
    }

    /// Records the chain ending at the committed `r`: the chain of its
    /// producer, committed in this window, whose result arrived last
    /// (the younger seq on a tie), extended by `r`'s link. The link is
    /// the interval `(producer writeback, r's writeback]`, or
    /// `(r's fetch, r's writeback]` when no such producer exists, and is
    /// attributed to components by `r`'s own stage boundaries:
    ///
    /// * up to dispatch → `frontend` (fetch starvation, including the
    ///   gap before the instruction was even fetched);
    /// * dispatch→issue → `schedule` (scheduler / structural wait after
    ///   the chain's data was ready);
    /// * issue→writeback → `exec` for non-loads; for loads the
    ///   SQ-search extra cycles go to `sq_search` and the rest to
    ///   `mem_l1` / `mem_l2` / `mem_dram` by the recorded miss level.
    ///
    /// The links telescope (each starts where its producer's ended), so
    /// the component totals sum exactly to the chain length.
    // lsq-lint: hot
    fn extend_chain(&mut self, r: &PipeRecord) {
        let (Some(dispatch), Some(issue), Some(wb)) = (r.dispatch, r.issue, r.writeback) else {
            return;
        };
        let n = self.chains.len() as u64;
        let parent = r
            .deps
            .iter()
            .flatten()
            .filter_map(|&d| self.chains[(d % n) as usize].filter(|c| c.seq == d))
            // Chains must lengthen strictly toward younger completions.
            .filter(|p| p.writeback < wb)
            .max_by_key(|p| (p.writeback, p.seq));
        let (lo, mut path) = parent.map_or((r.fetch, CriticalPath::default()), |p| {
            (p.writeback, p.path)
        });
        let at = |stamp: u64| stamp.max(lo).min(wb);
        let exec = wb - at(issue);
        // Loads split execution into the SQ-search extra cycles and their
        // memory level (`mem_l1` + level); other instructions are `exec`.
        let (sq, rest) = if r.kind.is_load() {
            (
                exec.min(u64::from(r.sq_extra)),
                4 + usize::from(r.mem_level.min(2)),
            )
        } else {
            (0, 3)
        };
        let link = [at(dispatch) - lo, at(issue) - at(dispatch), sq];
        for (c, cycles) in path.components.iter_mut().zip(link) {
            *c += cycles;
        }
        path.components[rest] += exec - sq;
        path.length += wb - lo;
        path.instructions += 1;
        let chain = Chain {
            seq: r.seq,
            writeback: wb,
            path,
        };
        self.chains[(r.seq % n) as usize] = Some(chain);
        if self
            .critical
            .is_none_or(|h| (h.writeback, h.seq) < (wb, r.seq))
        {
            self.critical = Some(chain);
        }
    }

    /// Every in-flight instruction in `victim..fetched_through` was
    /// squashed at `cycle`; their records are terminated with `cause`.
    /// `fetched_through` is the pre-squash fetch frontier.
    // lsq-lint: hot
    pub fn squash(&mut self, victim: u64, fetched_through: u64, cycle: u64, cause: SquashCause) {
        // The in-flight window is bounded by the live array, so this
        // loop is O(live.len()) worst case.
        for seq in victim..fetched_through {
            let slot = self.slot(seq);
            if slot.seq != seq {
                continue;
            }
            slot.squash = Some((cycle, cause));
            self.finalize(seq);
        }
    }

    /// The accumulated stage-latency histograms.
    pub fn report(&self) -> StageLatency {
        self.stages.clone()
    }

    /// The critical path of the instructions committed since the last
    /// call (or since the run began), `None` if none committed; starts
    /// a new window, so no later chain extends one that ended before
    /// this call.
    pub fn take_critical_path(&mut self) -> Option<CriticalPath> {
        self.chains.fill(None);
        self.critical.take().map(|c| c.path)
    }

    /// Drains the finished-record ring, oldest first.
    pub fn take_records(&mut self) -> Vec<PipeRecord> {
        let mut v = std::mem::take(&mut self.done);
        if v.len() == self.cap {
            v.rotate_left(self.done_start);
        }
        self.done_start = 0;
        self.done.reserve(self.cap);
        v
    }

    /// Finished records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-stage latency histograms over committed instructions. Counters
/// are cumulative and monotone, so snapshots of one run can be
/// differenced with [`StageLatency::minus`] (warm-up windowing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLatency {
    /// Dispatch→issue wait, every committed instruction.
    pub dispatch_to_issue: Histogram,
    /// Issue→writeback (memory) latency, committed loads.
    pub issue_to_mem: Histogram,
    /// Extra cycles of the segmented SQ forwarding search, committed
    /// loads.
    pub sq_search_wait: Histogram,
    /// Issue→commit residency (the window the load buffer / LQ must
    /// cover), committed loads.
    pub lb_residency: Histogram,
}

impl StageLatency {
    /// Creates empty histograms ([`STAGE_BUCKETS`] buckets each).
    pub(crate) fn new() -> Self {
        Self {
            dispatch_to_issue: Histogram::new(STAGE_BUCKETS),
            issue_to_mem: Histogram::new(STAGE_BUCKETS),
            sq_search_wait: Histogram::new(STAGE_BUCKETS),
            lb_residency: Histogram::new(STAGE_BUCKETS),
        }
    }

    /// Folds one committed record in; records missing stamps (possible
    /// only for squashed or in-flight records) contribute nothing.
    // lsq-lint: hot
    #[inline]
    pub fn observe(&mut self, r: &PipeRecord) {
        let (Some(dispatch), Some(issue), Some(commit)) = (r.dispatch, r.issue, r.commit) else {
            return;
        };
        self.dispatch_to_issue
            .record(issue.saturating_sub(dispatch) as usize);
        if r.kind.is_load() {
            let wb = r.writeback.unwrap_or(issue);
            self.issue_to_mem.record(wb.saturating_sub(issue) as usize);
            self.sq_search_wait.record(r.sq_extra as usize);
            self.lb_residency
                .record(commit.saturating_sub(issue) as usize);
        }
    }

    /// The histograms with their stable names, in [`STAGE_NAMES`] order.
    pub fn stages(&self) -> [(&'static str, &Histogram); 4] {
        [
            (STAGE_NAMES[0], &self.dispatch_to_issue),
            (STAGE_NAMES[1], &self.issue_to_mem),
            (STAGE_NAMES[2], &self.sq_search_wait),
            (STAGE_NAMES[3], &self.lb_residency),
        ]
    }

    /// The stage-wise difference `self − earlier`: the histograms of
    /// the instructions committed after `earlier` was captured. Used
    /// for warm-up differencing.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not a prefix snapshot of this run (see
    /// [`Histogram::subtract`]).
    pub fn minus(&self, earlier: &StageLatency) -> StageLatency {
        let mut d = self.clone();
        d.dispatch_to_issue.subtract(&earlier.dispatch_to_issue);
        d.issue_to_mem.subtract(&earlier.issue_to_mem);
        d.sq_search_wait.subtract(&earlier.sq_search_wait);
        d.lb_residency.subtract(&earlier.lb_residency);
        d
    }

    /// Serializes as `{"stage": {"counts": [...], "overflow": n}, ...}`
    /// with trailing zero counts trimmed.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.stages()
                .iter()
                .map(|(name, h)| {
                    let mut counts: Vec<Json> = h.iter().map(|(_, c)| Json::from(c)).collect();
                    while counts.len() > 1
                        && matches!(counts.last(), Some(j) if j.as_u64() == Some(0))
                    {
                        counts.pop();
                    }
                    (
                        *name,
                        Json::obj(vec![
                            ("counts", Json::Arr(counts)),
                            ("overflow", h.overflow().into()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Critical-path components, in [`CriticalPath::components`] order.
/// Every cycle of the chain is attributed to exactly one.
pub const CP_COMPONENTS: [&str; 7] = [
    "frontend",
    "schedule",
    "sq_search",
    "exec",
    "mem_l1",
    "mem_l2",
    "mem_dram",
];

/// The longest producer→consumer dependency chain of a window, with
/// its cycles attributed per component. Tracked at commit by
/// [`PipeviewRecorder`] (see `extend_chain` there for the attribution)
/// and reported in [`SimResult::critical_path`](crate::SimResult).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Chain length in cycles: head writeback − tail fetch.
    pub length: u64,
    /// Instructions on the chain.
    pub instructions: usize,
    /// Per-component cycles, in [`CP_COMPONENTS`] order; sums to
    /// `length` by construction.
    pub components: [u64; CP_COMPONENTS.len()],
}

impl CriticalPath {
    /// Sum of the per-component cycles; equals
    /// [`CriticalPath::length`] by construction.
    pub fn total(&self) -> u64 {
        self.components.iter().sum()
    }

    /// Serializes as `{"length": n, "instructions": n, "components":
    /// {"frontend": n, ...}}`, components in [`CP_COMPONENTS`] order.
    pub fn to_json(&self) -> Json {
        let components = CP_COMPONENTS
            .iter()
            .zip(self.components)
            .map(|(&name, cycles)| (name, Json::from(cycles)))
            .collect();
        Json::obj(vec![
            ("length", self.length.into()),
            ("instructions", self.instructions.into()),
            ("components", Json::obj(components)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsq_isa::{Addr, InstrKind, Instruction, Pc};

    fn instr(kind: InstrKind, pc: u64, addr: u64) -> Instruction {
        match kind {
            InstrKind::Load => Instruction::load(Pc(pc), Addr(addr)),
            InstrKind::Store => Instruction::store(Pc(pc), Addr(addr)),
            k => Instruction::op(Pc(pc), k),
        }
    }

    fn recorder() -> PipeviewRecorder {
        let mut r = PipeviewRecorder::new(16);
        r.init(8);
        r
    }

    #[test]
    fn recorder_captures_a_full_lifecycle() {
        let mut r = recorder();
        r.fetch(0, 10, &instr(InstrKind::Load, 0x400, 0x1000));
        r.dispatch(0, 11, [None, Some(7)]);
        r.issue(0, 14, 20, 2, 1);
        r.commit(0, 25);
        let recs = r.take_records();
        assert_eq!(recs.len(), 1);
        let rec = recs[0];
        assert_eq!(rec.seq, 0);
        assert_eq!(rec.fetch, 10);
        assert_eq!(rec.dispatch, Some(11));
        assert_eq!(rec.issue, Some(14));
        assert_eq!(rec.writeback, Some(20));
        assert_eq!(rec.commit, Some(25));
        assert_eq!(rec.squash, None);
        assert_eq!(rec.deps, [None, Some(7)]);
        assert_eq!(rec.sq_extra, 2);
        assert_eq!(rec.mem_level, 1);
        // Stage histograms observed the load.
        let stages = r.report();
        assert_eq!(stages.dispatch_to_issue.count(), 1);
        assert_eq!(stages.dispatch_to_issue.bucket(3), 1);
        assert_eq!(stages.issue_to_mem.bucket(6), 1);
        assert_eq!(stages.sq_search_wait.bucket(2), 1);
        assert_eq!(stages.lb_residency.bucket(11), 1);
    }

    #[test]
    fn squash_terminates_live_records_with_cause() {
        let mut r = recorder();
        r.fetch(3, 5, &instr(InstrKind::Load, 0x40c, 0x2000));
        r.dispatch(3, 6, [None, None]);
        r.fetch(4, 5, &instr(InstrKind::IntAlu, 0x410, 0));
        // Seq 5 was never fetched; the squash range skips the hole.
        r.squash(3, 6, 9, SquashCause::CommitMemOrder);
        let recs = r.take_records();
        assert_eq!(recs.len(), 2);
        for rec in &recs {
            assert_eq!(rec.squash, Some((9, SquashCause::CommitMemOrder)));
            assert_eq!(rec.commit, None);
        }
        // Squashed records never feed the stage histograms.
        assert_eq!(r.report(), StageLatency::new());
        // The seqs are free for reuse after refetch.
        r.fetch(3, 12, &instr(InstrKind::Load, 0x40c, 0x2000));
        r.dispatch(3, 13, [None, None]);
        r.issue(3, 14, 16, 0, 0);
        r.commit(3, 17);
        let recs = r.take_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].commit, Some(17));
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts_drops() {
        let mut r = PipeviewRecorder::new(2);
        r.init(8);
        for seq in 0..5u64 {
            r.fetch(seq, seq, &instr(InstrKind::IntAlu, 0x400 + 4 * seq, 0));
            r.dispatch(seq, seq + 1, [None, None]);
            r.issue(seq, seq + 2, seq + 3, 0, 0);
            r.commit(seq, seq + 4);
        }
        assert_eq!(r.dropped(), 3);
        let recs = r.take_records();
        let seqs: Vec<u64> = recs.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![3, 4], "oldest evicted, order preserved");
        // Histograms still saw all five commits.
        assert_eq!(r.report().dispatch_to_issue.count(), 5);
        // Draining resets the ring but not the drop counter.
        assert_eq!(r.take_records().len(), 0);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn stage_latency_minus_and_json_fields() {
        let mut a = StageLatency::new();
        let mut rec = PipeRecord::vacant();
        rec.seq = 1;
        rec.kind = InstrKind::Load;
        rec.fetch = 0;
        rec.dispatch = Some(2);
        rec.issue = Some(5);
        rec.writeback = Some(105); // overflows the 64-bucket range
        rec.commit = Some(106);
        rec.sq_extra = 1;
        a.observe(&rec);
        let before = a.clone();
        rec.seq = 2;
        rec.kind = InstrKind::IntAlu;
        a.observe(&rec);
        let diff = a.minus(&before);
        assert_eq!(diff.dispatch_to_issue.count(), 1);
        assert_eq!(diff.dispatch_to_issue.bucket(3), 1);
        assert_eq!(diff.issue_to_mem.count(), 0, "non-loads skip memory stages");
        assert_eq!(a.minus(&a), StageLatency::new());
        assert_eq!(a.issue_to_mem.overflow(), 1);

        let json = Json::parse(&a.to_json().to_string()).expect("valid json");
        let keys: Vec<&str> = json
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, STAGE_NAMES);
        let stage = |name: &str| json.get(name).expect("every stage is keyed");
        let counts = |name: &str| -> Vec<u64> {
            let counts = stage(name).get("counts").and_then(Json::as_arr);
            counts
                .expect("counts array")
                .iter()
                .map(|c| c.as_u64().expect("integer count"))
                .collect()
        };
        assert_eq!(counts("dispatch_to_issue"), [0, 0, 0, 2], "zeros trimmed");
        assert_eq!(counts("sq_search_wait"), [0, 1]);
        let mem = counts("issue_to_mem");
        assert_eq!(
            mem.len(),
            STAGE_BUCKETS,
            "the clamped overflow ends the array"
        );
        assert_eq!(mem[STAGE_BUCKETS - 1], 1);
        let overflow = |name: &str| stage(name).get("overflow").and_then(Json::as_u64);
        assert_eq!(overflow("issue_to_mem"), Some(1));
        assert_eq!(overflow("dispatch_to_issue"), Some(0));
    }

    #[test]
    fn incomplete_records_contribute_nothing() {
        let mut s = StageLatency::new();
        let mut rec = PipeRecord::vacant();
        rec.seq = 0;
        rec.dispatch = Some(1);
        s.observe(&rec); // no issue/commit stamps
        assert_eq!(s, StageLatency::new());
    }

    /// Stamps one instruction's lifetime up to its commit into `r`.
    fn live(
        r: &mut PipeviewRecorder,
        seq: u64,
        kind: InstrKind,
        deps: [Option<u64>; 2],
        [fetch, dispatch, issue, wb]: [u64; 4],
        sq_extra: u32,
        mem_level: u8,
    ) {
        r.fetch(seq, fetch, &instr(kind, 0x400 + 4 * seq, 0x1000));
        r.dispatch(seq, dispatch, deps);
        r.issue(seq, issue, wb, sq_extra, mem_level);
    }

    #[test]
    fn critical_path_components_sum_to_chain_length() {
        // No ring: the chain is tracked at commit, not rebuilt from records.
        let mut r = PipeviewRecorder::new(0);
        r.init(8);
        // seq 0: load, fetch 0, dispatch 1, issue 2, wb 12 (L2, 2 sq-extra)
        // seq 1: alu consuming seq 0: fetch 0, dispatch 1, issue 12, wb 13
        // seq 2: alu consuming seq 1: fetch 10, dispatch 11, issue 13, wb 14
        live(
            &mut r,
            0,
            InstrKind::Load,
            [None, None],
            [0, 1, 2, 12],
            2,
            1,
        );
        live(
            &mut r,
            1,
            InstrKind::IntAlu,
            [Some(0), None],
            [0, 1, 12, 13],
            0,
            0,
        );
        live(
            &mut r,
            2,
            InstrKind::IntAlu,
            [Some(1), Some(1)],
            [10, 11, 13, 14],
            0,
            0,
        );
        for (seq, cycle) in [(0, 13), (1, 14), (2, 15)] {
            r.commit(seq, cycle);
        }
        assert!(r.take_records().is_empty(), "no ring, no records");
        let cp = r.take_critical_path().expect("committed instructions");
        assert_eq!(cp.instructions, 3);
        assert_eq!(cp.length, 14, "head writeback 14 − tail fetch 0");
        assert_eq!(cp.total(), cp.length, "components partition the chain");
        // Tail load: frontend 1, schedule 1, sq_search 2, mem_l2 8.
        // Middle alu: its own frontend/schedule cycles are hidden behind
        // the load (lo = 12): exec 1. Head alu: exec 1.
        // frontend, schedule, sq_search, exec, mem_l1, mem_l2, mem_dram
        assert_eq!(cp.components, [1, 1, 2, 2, 0, 8, 0]);
    }

    #[test]
    fn critical_path_ignores_squashed_and_unrecorded_parents() {
        let mut r = recorder();
        // Producer seq 8 was never recorded.
        live(
            &mut r,
            9,
            InstrKind::IntAlu,
            [Some(8), None],
            [4, 5, 6, 7],
            0,
            0,
        );
        r.commit(9, 8);
        // A squashed consumer completing later neither heads nor joins
        // a chain.
        live(
            &mut r,
            10,
            InstrKind::IntAlu,
            [Some(9), None],
            [4, 5, 7, 30],
            0,
            0,
        );
        r.squash(10, 11, 9, SquashCause::MemOrder);
        let cp = r.take_critical_path().expect("one committed instruction");
        assert_eq!(cp.instructions, 1);
        assert_eq!(cp.length, 3);
        assert_eq!(cp.total(), 3);
        assert_eq!(r.take_critical_path(), None, "nothing committed since");
    }

    #[test]
    fn critical_path_ties_go_to_the_younger_seq() {
        let mut r = recorder();
        // Both producers of seq 2 write back at 5; seq 1 is younger.
        live(
            &mut r,
            0,
            InstrKind::IntAlu,
            [None, None],
            [0, 1, 4, 5],
            0,
            0,
        );
        live(
            &mut r,
            1,
            InstrKind::IntAlu,
            [None, None],
            [3, 3, 4, 5],
            0,
            0,
        );
        live(
            &mut r,
            2,
            InstrKind::IntAlu,
            [Some(0), Some(1)],
            [3, 4, 5, 6],
            0,
            0,
        );
        for seq in 0..3 {
            r.commit(seq, 7);
        }
        let cp = r.take_critical_path().expect("committed");
        assert_eq!((cp.instructions, cp.length), (2, 6 - 3), "through seq 1");
        // Two chains end at 12; the younger one heads the window.
        live(
            &mut r,
            3,
            InstrKind::IntAlu,
            [None, None],
            [7, 8, 9, 12],
            0,
            0,
        );
        live(
            &mut r,
            4,
            InstrKind::IntAlu,
            [None, None],
            [10, 10, 11, 12],
            0,
            0,
        );
        r.commit(3, 13);
        r.commit(4, 13);
        let cp = r.take_critical_path().expect("committed");
        assert_eq!((cp.instructions, cp.length), (1, 12 - 10), "seq 4 heads");
    }

    #[test]
    fn critical_path_stops_at_the_window_edge() {
        let mut r = recorder();
        live(
            &mut r,
            0,
            InstrKind::Load,
            [None, None],
            [0, 1, 2, 40],
            0,
            2,
        );
        r.commit(0, 41);
        // A report between the producer's commit and its consumer's.
        let warm = r.take_critical_path().expect("the producer committed");
        assert_eq!((warm.instructions, warm.length), (1, 40));
        live(
            &mut r,
            1,
            InstrKind::IntAlu,
            [Some(0), None],
            [3, 4, 40, 41],
            0,
            0,
        );
        r.commit(1, 42);
        let cp = r.take_critical_path().expect("the consumer committed");
        assert_eq!(cp.instructions, 1, "the producer is before the window");
        assert_eq!(cp.length, 41 - 3, "from the consumer's own fetch");
        assert_eq!(cp.components, [1, 36, 0, 1, 0, 0, 0]);
        assert_eq!(cp.total(), cp.length);
        // Stage latencies stay cumulative across reports.
        assert_eq!(r.report().dispatch_to_issue.count(), 2);
    }

    #[test]
    fn critical_path_json_names_every_component() {
        let cp = CriticalPath {
            length: 7,
            instructions: 2,
            components: [1, 0, 2, 0, 4, 0, 0],
        };
        let json = Json::parse(&cp.to_json().to_string()).expect("valid json");
        assert_eq!(json.get("length").and_then(Json::as_u64), Some(7));
        assert_eq!(json.get("instructions").and_then(Json::as_u64), Some(2));
        let components = json.get("components").and_then(Json::as_obj);
        let names: Vec<&str> = components
            .expect("components object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, CP_COMPONENTS);
    }
}
