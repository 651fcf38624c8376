//! Per-instruction lifecycle recording: pipeline-viewer records,
//! stage-latency histograms, and critical-path analysis.
//!
//! The CPI stacks (see [`crate::accounting`]) attribute *commit slots*;
//! this module attributes *an instruction's own cycles*. The simulator
//! stamps every in-flight instruction at fetch, dispatch, issue (which
//! also fixes the writeback cycle — completion latency is computed at
//! issue), commit, and squash (with cause). From the finished records
//! it derives:
//!
//! * [`PipeRecord`]s rendered as Konata / O3PipeView logs (see
//!   [`lsq_obs::pipeview`]), bounded by a finished-record ring
//!   (`LSQ_PIPEVIEW_CAP`) so memory stays flat on long runs — evicted
//!   records are counted, never silently lost;
//! * [`StageLatency`]: per-stage latency histograms (dispatch→issue,
//!   issue→memory, SQ-search wait, load-buffer residency) folded into
//!   [`SimResult`](crate::SimResult) and the experiment records;
//! * [`CriticalPath`]: the longest producer→consumer dependency chain
//!   over the recorded lifetimes, with every cycle of the chain
//!   attributed to exactly one component (the per-instruction analogue
//!   of the CPI stack's partition invariant).
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

/// Records every instruction's lifetime into a bounded ring.
///
/// Live (in-flight) records sit in a direct-mapped array indexed by
/// `seq % capacity` — collision-free because the simulator bounds the
/// in-flight seq window by [`PipeviewRecorder::init`]'s argument. Finished
/// records (committed or squashed) move to a ring of
/// `LSQ_PIPEVIEW_CAP` entries; when it fills, the oldest record is
/// evicted and counted in [`PipeviewRecorder::dropped`]
/// (`lsq_pipeview_dropped_total`). Both arrays are preallocated: the
/// record path never allocates.
#[derive(Debug, Clone)]
pub struct PipeviewRecorder {
    /// In-flight records, direct-mapped by `seq % live.len()`.
    live: Vec<PipeRecord>,
    /// Finished-record ring.
    done: Vec<PipeRecord>,
    /// Index of the oldest entry once the ring has wrapped.
    done_start: usize,
    /// Ring capacity.
    cap: usize,
    /// Finished records evicted from a full ring.
    dropped: u64,
    stages: StageLatency,
}

impl PipeviewRecorder {
    /// Creates a recorder whose finished-record ring holds `capacity`
    /// records (oldest evicted first). The live array is sized by
    /// [`PipeviewRecorder::init`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pipeview ring needs at least one record");
        Self {
            live: Vec::new(),
            done: Vec::with_capacity(capacity),
            done_start: 0,
            cap: capacity,
            dropped: 0,
            stages: StageLatency::new(),
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
        if self.done.len() < self.cap {
            self.done.push(r);
        } else {
            self.done[self.done_start] = r;
            self.done_start = (self.done_start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Sizes the live array for the maximum number of simultaneously
    /// in-flight instructions (ROB entries plus the fetch buffer).
    pub fn init(&mut self, max_inflight: usize) {
        self.live = vec![PipeRecord::vacant(); max_inflight.max(1)];
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
        self.stages
            .observe(&self.live[(seq % self.live.len() as u64) as usize]);
        self.finalize(seq);
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
/// differenced with [`StageLatency::minus`] (warm-up windowing) and
/// batches folded with [`StageLatency::merge`].
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

impl Default for StageLatency {
    fn default() -> Self {
        Self::new()
    }
}

impl StageLatency {
    /// Creates empty histograms ([`STAGE_BUCKETS`] buckets each).
    pub fn new() -> Self {
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

    fn stages_mut(&mut self) -> [(&'static str, &mut Histogram); 4] {
        [
            (STAGE_NAMES[0], &mut self.dispatch_to_issue),
            (STAGE_NAMES[1], &mut self.issue_to_mem),
            (STAGE_NAMES[2], &mut self.sq_search_wait),
            (STAGE_NAMES[3], &mut self.lb_residency),
        ]
    }

    /// Total observations across the four histograms.
    pub fn count(&self) -> u64 {
        self.stages().iter().map(|(_, h)| h.count()).sum()
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &StageLatency) {
        self.dispatch_to_issue.merge(&other.dispatch_to_issue);
        self.issue_to_mem.merge(&other.issue_to_mem);
        self.sq_search_wait.merge(&other.sq_search_wait);
        self.lb_residency.merge(&other.lb_residency);
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

    /// Parses the [`StageLatency::to_json`] layout; `None` on shape
    /// mismatch.
    pub fn from_json(json: &Json) -> Option<Self> {
        let mut out = StageLatency::new();
        for (name, h) in out.stages_mut() {
            let stage = json.get(name)?;
            let mut counts: Vec<u64> = stage
                .get("counts")?
                .as_arr()?
                .iter()
                .map(|j| j.as_u64())
                .collect::<Option<Vec<u64>>>()?;
            if counts.len() > STAGE_BUCKETS {
                return None;
            }
            counts.resize(STAGE_BUCKETS, 0);
            *h = Histogram::from_parts(counts, stage.get("overflow")?.as_u64()?);
        }
        Some(out)
    }

    /// A human-readable table: stage, observations, mean, and the share
    /// of observations past the histogram range.
    pub fn render(&self) -> String {
        let mut out = String::from("stage                  count     mean   >range\n");
        for (name, h) in self.stages() {
            let over = if h.count() == 0 {
                0.0
            } else {
                100.0 * h.overflow() as f64 / h.count() as f64
            };
            out.push_str(&format!(
                "{:<18} {:>9} {:>8.2} {:>7.1}%\n",
                name,
                h.count(),
                h.mean(),
                over,
            ));
        }
        out
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

/// The longest recorded producer→consumer dependency chain, with its
/// cycles attributed per component. Produced by
/// [`CriticalPath::analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Walks the recorded lifetimes backwards from the last-completing
    /// committed instruction, always following the producer whose
    /// result arrived last, and attributes each link's interval
    /// `(producer writeback, consumer writeback]` to components by the
    /// consumer's own stage boundaries:
    ///
    /// * up to dispatch → `frontend` (fetch starvation, including the
    ///   gap before the instruction was even fetched);
    /// * dispatch→issue → `schedule` (scheduler / structural wait after
    ///   the chain's data was ready);
    /// * issue→writeback → `exec` for non-loads; for loads the
    ///   SQ-search extra cycles go to `sq_search` and the rest to
    ///   `mem_l1` / `mem_l2` / `mem_dram` by the recorded miss level.
    ///
    /// The intervals telescope (each link starts where its producer's
    /// ended), so the component totals sum exactly to the chain length.
    /// Returns `None` when `records` holds no committed instruction
    /// with a full set of stamps.
    pub fn analyze(records: &[PipeRecord]) -> Option<CriticalPath> {
        let committed: std::collections::HashMap<u64, &PipeRecord> = records
            .iter()
            .filter(|r| {
                r.is_occupied()
                    && r.commit.is_some()
                    && r.dispatch.is_some()
                    && r.issue.is_some()
                    && r.writeback.is_some()
            })
            .map(|r| (r.seq, r))
            .collect();
        let head = committed
            .values()
            .max_by_key(|r| (r.writeback, r.seq))
            .copied()?;
        let mut components = [0u64; CP_COMPONENTS.len()];
        let mut instructions = 0usize;
        let mut node = head;
        let tail_fetch = loop {
            instructions += 1;
            let wb = node.writeback?;
            let parent = node
                .deps
                .iter()
                .flatten()
                .filter_map(|d| committed.get(d).copied())
                // Chains must shorten strictly toward older completions
                // or the walk would not terminate.
                .filter(|p| p.writeback.is_some_and(|pw| pw < wb))
                .max_by_key(|p| (p.writeback, p.seq));
            let lo = parent.and_then(|p| p.writeback).unwrap_or(node.fetch);
            let (dispatch, issue) = (node.dispatch?, node.issue?);
            components[0] += dispatch.max(lo).min(wb) - lo.min(wb); // frontend
            components[1] += issue.max(lo).min(wb) - dispatch.max(lo).min(wb); // schedule
            let exec = wb - issue.max(lo).min(wb);
            if node.kind.is_load() {
                let sq = exec.min(u64::from(node.sq_extra));
                components[2] += sq; // sq_search
                let mem = match node.mem_level {
                    0 => 4,
                    1 => 5,
                    _ => 6,
                };
                components[mem] += exec - sq;
            } else {
                components[3] += exec; // exec
            }
            match parent {
                Some(p) => node = p,
                None => break node.fetch,
            }
        };
        Some(CriticalPath {
            length: head.writeback? - tail_fetch,
            instructions,
            components,
        })
    }

    /// Cycles attributed to the named component (zero if unknown).
    pub fn slots(&self, component: &str) -> u64 {
        CP_COMPONENTS
            .iter()
            .position(|&c| c == component)
            .map_or(0, |i| self.components[i])
    }

    /// Sum of the per-component cycles; equals
    /// [`CriticalPath::length`] by construction.
    pub fn total(&self) -> u64 {
        self.components.iter().sum()
    }

    /// A human-readable table: component, cycles, share of the chain.
    pub fn render(&self) -> String {
        let total = self.total().max(1);
        let mut out = format!(
            "critical path: {} cycles over {} instructions\n",
            self.length, self.instructions
        );
        for (name, &cycles) in CP_COMPONENTS.iter().zip(&self.components) {
            out.push_str(&format!(
                "{:<12} {:>9} {:>6.1}%\n",
                name,
                cycles,
                100.0 * cycles as f64 / total as f64,
            ));
        }
        out
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
        assert_eq!(r.report().count(), 0);
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
    fn stage_latency_merge_minus_and_json_round_trip() {
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
        assert_eq!(diff.issue_to_mem.count(), 0, "non-loads skip memory stages");
        let mut merged = before.clone();
        merged.merge(&diff);
        assert_eq!(merged, a);
        assert_eq!(a.issue_to_mem.overflow(), 1);

        let text = a.to_json().to_string();
        let back =
            StageLatency::from_json(&Json::parse(&text).expect("valid json")).expect("round trips");
        assert_eq!(back, a);
        assert!(a.render().contains("dispatch_to_issue"));
    }

    #[test]
    fn incomplete_records_contribute_nothing() {
        let mut s = StageLatency::new();
        let mut rec = PipeRecord::vacant();
        rec.seq = 0;
        rec.dispatch = Some(1);
        s.observe(&rec); // no issue/commit stamps
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn critical_path_components_sum_to_chain_length() {
        // seq 0: load, fetch 0, dispatch 1, issue 2, wb 12 (L2, 2 sq-extra)
        // seq 1: alu consuming seq 0: fetch 0, dispatch 1, issue 12, wb 13
        // seq 2: alu consuming seq 1: fetch 10, dispatch 11, issue 13, wb 14
        let mk = |seq, kind, deps, fetch, dispatch, issue, wb, commit| {
            let mut r = PipeRecord::vacant();
            r.seq = seq;
            r.kind = kind;
            r.deps = deps;
            r.fetch = fetch;
            r.dispatch = Some(dispatch);
            r.issue = Some(issue);
            r.writeback = Some(wb);
            r.commit = Some(commit);
            r
        };
        let mut load = mk(0, InstrKind::Load, [None, None], 0, 1, 2, 12, 13);
        load.sq_extra = 2;
        load.mem_level = 1;
        let records = vec![
            load,
            mk(1, InstrKind::IntAlu, [Some(0), None], 0, 1, 12, 13, 14),
            mk(2, InstrKind::IntAlu, [Some(1), Some(1)], 10, 11, 13, 14, 15),
        ];
        let cp = CriticalPath::analyze(&records).expect("committed records");
        assert_eq!(cp.instructions, 3);
        assert_eq!(cp.length, 14, "head writeback 14 − tail fetch 0");
        assert_eq!(cp.total(), cp.length, "components partition the chain");
        // Tail load: frontend 1, schedule 1, sq_search 2, mem_l2 8.
        // Middle alu: its own frontend/schedule cycles are hidden behind
        // the load (lo = 12): exec 1. Head alu: exec 1.
        assert_eq!(cp.slots("frontend"), 1);
        assert_eq!(cp.slots("schedule"), 1);
        assert_eq!(cp.slots("sq_search"), 2);
        assert_eq!(cp.slots("mem_l2"), 8);
        assert_eq!(cp.slots("exec"), 2);
        assert_eq!(cp.slots("mem_l1"), 0);
        assert!(cp.render().contains("critical path: 14 cycles"));
    }

    #[test]
    fn critical_path_ignores_squashed_and_unrecorded_parents() {
        let mut alone = PipeRecord::vacant();
        alone.seq = 9;
        alone.kind = InstrKind::IntAlu;
        alone.deps = [Some(8), None]; // producer not in the record set
        alone.fetch = 4;
        alone.dispatch = Some(5);
        alone.issue = Some(6);
        alone.writeback = Some(7);
        alone.commit = Some(8);
        let mut squashed = alone;
        squashed.seq = 10;
        squashed.commit = None;
        squashed.squash = Some((9, SquashCause::MemOrder));
        let cp = CriticalPath::analyze(&[alone, squashed]).expect("one committed record");
        assert_eq!(cp.instructions, 1);
        assert_eq!(cp.length, 3);
        assert_eq!(cp.total(), 3);
        assert_eq!(CriticalPath::analyze(&[squashed]), None);
    }
}
