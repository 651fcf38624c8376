//! The load/store queue engine: a single configurable model composing the
//! conventional queues, the store-set / store-load pair predictor, the
//! load buffer, and segmentation, as selected by [`LsqConfig`].
//!
//! The pipeline drives an [`Lsq`] with one call per microarchitectural
//! event:
//!
//! * [`Lsq::dispatch_load`] / [`Lsq::dispatch_store`] when an instruction
//!   enters the queues (program order);
//! * [`Lsq::load_issue`] when a ready load wants to access memory — this
//!   is where search-port arbitration, predictor filtering, load-buffer
//!   allocation, and store-to-load forwarding happen;
//! * [`Lsq::store_issue`] when a store's address generation completes —
//!   in the conventional scheme this is also where the store searches the
//!   load queue for premature loads;
//! * [`Lsq::commit_load`] / [`Lsq::store_retire`] at retirement, then
//!   [`Lsq::drain_store`] when the store leaves the store queue — in the
//!   pair scheme the commit-time violation search happens at the drain
//!   (§2.1);
//! * [`Lsq::squash_from`] on any flush.
//!
//! Addresses are known to the *model* at dispatch (the trace is the
//! oracle) but become visible to the *hardware* only at issue; forwarding
//! and violation checks use hardware-visible state, while the perfect
//! predictor peeks at the oracle.

use crate::config::{ConfigError, LsqConfig, PredictorKind};
use crate::load_buffer::{LbIssue, LoadBuffer};
use crate::segmented::{Placement, PortBook, SegmentedAlloc};
use crate::stats::LsqStats;
use crate::store_set::{Ssid, StoreSetPredictor};
use lsq_isa::{Addr, Pc};
use std::collections::VecDeque;

/// Outcome of a load trying to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadIssue {
    /// Store-set gating: the load waits for this store to issue.
    WaitStore(u64),
    /// An older load has not issued and the policy is in-order.
    InOrderStall,
    /// No store-queue search port available this cycle.
    NoSqPort,
    /// No load-queue search port available this cycle (load-load search).
    NoLqPort,
    /// The load buffer is full.
    LbFull,
    /// The load issued.
    Issued(LoadIssued),
}

/// Details of a successful load issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadIssued {
    /// Store the load's value was forwarded from, if any.
    pub forwarded_from: Option<u64>,
    /// Extra cycles added to the load's latency by multi-segment
    /// searching (0 when unsegmented).
    pub extra_cycles: u32,
    /// Whether dependents may be scheduled early assuming a constant hit
    /// latency (§3: only when the search cannot leave one segment).
    pub early_wakeup: bool,
    /// Whether the load spent a store-queue search; its segment path is
    /// [`Lsq::sq_search_path`].
    pub searched_sq: bool,
    /// Whether the load spent a load-queue (load-load ordering) search;
    /// its segment path is [`Lsq::lq_search_path`].
    pub searched_lq: bool,
    /// Whether the load searched the load buffer.
    pub searched_lb: bool,
    /// Whether a predictor-directed store-queue search found no match
    /// (the unnecessary-search half of Table 3's misprediction rate).
    pub useless_search: bool,
    /// A younger same-word load issued out of order, detected by this
    /// load's load-queue or load-buffer search (§2.2 scheme 1); `Some`
    /// only when [`crate::LsqConfig::load_load_squash`] is enabled. The
    /// pipeline squashes from the victim.
    pub load_order_violation: Option<u64>,
}

/// Outcome of a store's address generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreIssue {
    /// No load-queue search port for the execute-time violation search.
    NoLqPort,
    /// The store executed; a violation victim (oldest premature load) may
    /// have been detected (conventional/perfect schemes only).
    Issued {
        /// Oldest violating load, to be squashed (with everything
        /// younger) by the pipeline.
        violation: Option<u64>,
    },
}

/// Outcome of draining the oldest retired store from the store queue.
///
/// Retirement (leaving the ROB) and draining (writing the cache,
/// performing the pair scheme's commit-time violation search, and freeing
/// the SQ entry) are separate events: the paper's §3.2 notes that a
/// delayed commit-time search is harmless precisely because "the store is
/// not in the pipeline anymore".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreDrain {
    /// No retired store is waiting to drain.
    Idle,
    /// Load-queue ports unavailable for the commit-time search: the drain
    /// retries next cycle (§3.2's easy contention fix).
    Blocked,
    /// A store drained; the caller writes its address to the cache.
    Drained {
        /// The drained store.
        seq: u64,
        /// Its address (for the cache write).
        addr: Addr,
        /// Its static PC.
        pc: Pc,
        /// Oldest violating load detected by the commit-time search, to
        /// be squashed by the pipeline (pair/aggressive schemes only).
        violation: Option<u64>,
    },
}

/// What the last store issue or drain searched in the load queue, read
/// back through [`Lsq::store_search`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSearch {
    /// Whether the store spent a load-queue violation search; its
    /// segment path is [`Lsq::lq_search_path`].
    pub searched_lq: bool,
    /// The oldest premature load the search found, with its static PC.
    pub violation: Option<(u64, Pc)>,
}

#[derive(Debug, Clone, Copy)]
struct LqEntry {
    seq: u64,
    pc: Pc,
    addr: Addr,
    issued: bool,
    forwarded_from: Option<u64>,
    place: Placement,
    ssid: Option<Ssid>,
    wait_store: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct SqEntry {
    seq: u64,
    pc: Pc,
    addr: Addr,
    issued: bool,
    /// Left the ROB; waiting to drain (write the cache and free the
    /// entry).
    retired: bool,
    place: Placement,
    ssid: Option<Ssid>,
}

/// The segments of a queue's entries in age order, run-length encoded as
/// `(segment, entries)` pairs, oldest run first. A queue holds a handful
/// of runs however many entries it holds, so search paths are read off
/// the runs instead of a walk over the entries.
#[derive(Debug, Clone)]
struct SegRuns(VecDeque<(usize, usize)>);

impl SegRuns {
    fn with_capacity(entries: usize) -> Self {
        Self(VecDeque::with_capacity(entries))
    }

    /// Records a new youngest entry in `segment`.
    fn push_back(&mut self, segment: usize) {
        match self.0.back_mut() {
            Some((s, n)) if *s == segment => *n += 1,
            _ => self.0.push_back((segment, 1)),
        }
    }

    /// Forgets the oldest entry.
    fn pop_front(&mut self) {
        if let Some((_, n)) = self.0.front_mut() {
            *n -= 1;
            if *n == 0 {
                self.0.pop_front();
            }
        }
    }

    /// Forgets the youngest entry.
    fn pop_back(&mut self) {
        if let Some((_, n)) = self.0.back_mut() {
            *n -= 1;
            if *n == 0 {
                self.0.pop_back();
            }
        }
    }

    /// Appends to `path` the distinct segments holding entries `lo..hi`
    /// of a queue of `len` entries, youngest first.
    // lsq-lint: hot
    fn youngest_first(&self, lo: usize, hi: usize, len: usize, path: &mut Vec<usize>) {
        let mut end = len;
        for &(seg, n) in self.0.iter().rev() {
            if end <= lo {
                break;
            }
            let start = end - n;
            if start < hi && !path.contains(&seg) {
                path.push(seg);
            }
            end = start;
        }
    }

    /// Appends to `path` the distinct segments holding entries `lo..hi`,
    /// oldest first.
    // lsq-lint: hot
    fn oldest_first(&self, lo: usize, hi: usize, path: &mut Vec<usize>) {
        let mut start = 0;
        for &(seg, n) in &self.0 {
            if start >= hi {
                break;
            }
            let end = start + n;
            if end > lo && !path.contains(&seg) {
                path.push(seg);
            }
            start = end;
        }
    }
}

/// The configurable load/store queue model.
///
/// The queue records nothing itself: each operation reports what it
/// searched and found in its return value and in the segment paths of
/// [`Lsq::sq_search_path`] / [`Lsq::lq_search_path`], and the caller
/// forwards that to whatever observes it.
#[derive(Debug, Clone)]
pub struct Lsq {
    cfg: LsqConfig,
    pred: StoreSetPredictor,
    lb: Option<LoadBuffer>,
    lq: VecDeque<LqEntry>,
    sq: VecDeque<SqEntry>,
    /// Segments of `lq`'s entries, kept in step with it; `None` when the
    /// queue is unsegmented.
    lq_runs: Option<SegRuns>,
    /// Segments of `sq`'s entries, likewise.
    sq_runs: Option<SegRuns>,
    /// Issued loads in `lq`.
    issued_loads: usize,
    /// Index in `lq` of the oldest unissued load; `lq.len()` when every
    /// load has issued.
    first_unissued: usize,
    lq_alloc: SegmentedAlloc,
    sq_alloc: SegmentedAlloc,
    lq_ports: PortBook,
    sq_ports: PortBook,
    /// Scratch buffer for store-queue search paths, reused across
    /// searches so the issue path never allocates.
    sq_path_buf: Vec<usize>,
    /// Scratch buffer for load-queue search paths.
    lq_path_buf: Vec<usize>,
    /// The last store issue's or drain's load-queue search.
    store_search: StoreSearch,
    stats: LsqStats,
}

impl Lsq {
    /// Builds an LSQ for the given design point.
    ///
    /// # Errors
    ///
    /// Returns the validation error of an inconsistent [`LsqConfig`].
    pub fn new(cfg: LsqConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let (lq_alloc, sq_alloc) = match cfg.segmentation {
            Some(seg) => (
                SegmentedAlloc::new(seg.segments, seg.entries_per_segment, seg.alloc),
                SegmentedAlloc::new(seg.segments, seg.entries_per_segment, seg.alloc),
            ),
            None => (
                SegmentedAlloc::unsegmented(cfg.lq_entries),
                SegmentedAlloc::unsegmented(cfg.sq_entries),
            ),
        };
        let nsegs = cfg.num_segments();
        Ok(Self {
            pred: StoreSetPredictor::new(
                cfg.ssit_entries,
                cfg.lfst_entries,
                cfg.counter_max,
                !cfg.predictor.uses_real_tables(),
            ),
            lb: cfg.load_order.buffer_entries().map(LoadBuffer::new),
            lq: VecDeque::new(),
            sq: VecDeque::new(),
            lq_runs: cfg
                .segmentation
                .map(|_| SegRuns::with_capacity(cfg.lq_capacity())),
            sq_runs: cfg
                .segmentation
                .map(|_| SegRuns::with_capacity(cfg.sq_capacity())),
            issued_loads: 0,
            first_unissued: 0,
            lq_alloc,
            sq_alloc,
            lq_ports: PortBook::new(nsegs, cfg.ports),
            sq_ports: PortBook::new(nsegs, cfg.ports),
            sq_path_buf: Vec::with_capacity(nsegs),
            lq_path_buf: Vec::with_capacity(nsegs),
            store_search: StoreSearch::default(),
            stats: LsqStats::new(nsegs),
            cfg,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &LsqConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LsqStats {
        &self.stats
    }

    /// Advances port bookkeeping to the next cycle. Call it once for
    /// each simulated cycle that runs, before any issue/commit calls for
    /// that cycle; cycles skipped without running go through
    /// [`Self::advance`] instead.
    // lsq-lint: hot
    pub fn begin_cycle(&mut self) {
        self.lq_ports.begin_cycle();
        self.sq_ports.begin_cycle();
    }

    /// Advances port bookkeeping over `cycles` cycles in which nothing
    /// searched the queues, exactly as that many [`Self::begin_cycle`]
    /// calls would.
    // lsq-lint: hot
    pub fn advance(&mut self, cycles: u64) {
        self.lq_ports.advance(cycles);
        self.sq_ports.advance(cycles);
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Whether a load can be allocated this cycle.
    pub fn can_dispatch_load(&self) -> bool {
        self.lq_alloc.can_allocate()
    }

    /// Whether a store can be allocated this cycle.
    pub fn can_dispatch_store(&self) -> bool {
        self.sq_alloc.can_allocate()
    }

    /// Allocates a load-queue entry for load `seq` (program order). The
    /// trace-known address is the oracle address; hardware sees it at
    /// issue.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not younger than every
    /// resident load.
    pub fn dispatch_load(&mut self, seq: u64, pc: Pc, addr: Addr) {
        assert!(self.lq.back().is_none_or(|e| e.seq < seq), "program order");
        // lsq-lint: allow(no-unwrap-in-lib, reason = "dispatch is gated on lq_free() by the pipeline; overflow here is a dispatch-stage bug")
        let place = self.lq_alloc.allocate().expect("load queue full");
        let pred = self.pred.on_load_fetch(pc);
        self.lq.push_back(LqEntry {
            seq,
            pc,
            addr,
            issued: false,
            forwarded_from: None,
            place,
            ssid: pred.ssid,
            // Only an older store can gate this load.
            wait_store: pred.wait_store.filter(|&s| s < seq),
        });
        if let Some(runs) = &mut self.lq_runs {
            runs.push_back(place.segment);
        }
        if let Some(lb) = &mut self.lb {
            lb.on_dispatch(seq, addr);
        }
        self.stats.loads_dispatched += 1;
    }

    /// Allocates a store-queue entry for store `seq` (program order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not younger than every
    /// resident store.
    pub fn dispatch_store(&mut self, seq: u64, pc: Pc, addr: Addr) {
        assert!(self.sq.back().is_none_or(|e| e.seq < seq), "program order");
        // lsq-lint: allow(no-unwrap-in-lib, reason = "dispatch is gated on sq_free() by the pipeline; overflow here is a dispatch-stage bug")
        let place = self.sq_alloc.allocate().expect("store queue full");
        let ssid = self.pred.on_store_fetch(pc, seq);
        self.sq.push_back(SqEntry {
            seq,
            pc,
            addr,
            issued: false,
            retired: false,
            place,
            ssid,
        });
        if let Some(runs) = &mut self.sq_runs {
            runs.push_back(place.segment);
        }
        self.stats.stores_dispatched += 1;
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    // lsq-lint: hot
    fn lq_index(&self, seq: u64) -> Option<usize> {
        self.lq.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    // lsq-lint: hot
    fn sq_index(&self, seq: u64) -> Option<usize> {
        self.sq.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// Number of stores older than `seq`: they form a prefix of `sq`.
    // lsq-lint: hot
    fn older_stores(&self, seq: u64) -> usize {
        self.sq.partition_point(|s| s.seq < seq)
    }

    /// Segment a store-queue search by load `seq` starts in: the youngest
    /// older store's, or with none the tail's. Always 0 unsegmented.
    // lsq-lint: hot
    fn sq_start_segment(&self, seq: u64) -> usize {
        if self.cfg.segmentation.is_none() {
            return 0;
        }
        let older = self.older_stores(seq);
        let first = if older > 0 {
            self.sq.get(older - 1)
        } else {
            self.sq.back()
        };
        first.map_or(0, |s| s.place.segment)
    }

    /// Segment a load-queue search over the loads from index `younger`
    /// on starts in: the oldest of them's, or with none the tail's.
    // lsq-lint: hot
    fn lq_start_segment(&self, younger: usize) -> usize {
        self.lq
            .get(younger)
            .or(self.lq.back())
            .map_or(0, |l| l.place.segment)
    }

    /// The store-queue search of load `seq`. Returns the index of the
    /// forwarding source, the youngest issued older store writing
    /// `addr`'s word, and recomputes `self.sq_path_buf` as the search's
    /// segment path: the distinct segments from the youngest older store
    /// down to the source, youngest first. With no older store the search
    /// occupies the tail segment only.
    ///
    /// One reverse scan finds the source and the path is read off the
    /// segment runs, so the path lands in a reusable scratch buffer
    /// without a second walk or an allocation.
    // lsq-lint: hot
    fn sq_search(&mut self, seq: u64, addr: Addr) -> Option<usize> {
        let older = self.older_stores(seq);
        let hit = self
            .sq
            .range(..older)
            .rposition(|s| s.issued && s.addr.same_word(addr));
        self.sq_path_buf.clear();
        match &self.sq_runs {
            Some(runs) if older > 0 => runs.youngest_first(
                hit.unwrap_or(0),
                older,
                self.sq.len(),
                &mut self.sq_path_buf,
            ),
            _ => {
                let tail = self.sq.back().map_or(0, |s| s.place.segment);
                self.sq_path_buf.push(tail);
            }
        }
        hit
    }

    /// Recomputes `self.lq_path_buf` as the segment path of a load-queue
    /// search over loads `lq[younger..end]`: their distinct segments,
    /// oldest first. An empty span searches the start segment only.
    // lsq-lint: hot
    fn set_lq_path(&mut self, younger: usize, end: usize) {
        self.lq_path_buf.clear();
        match &self.lq_runs {
            Some(runs) if younger < end => runs.oldest_first(younger, end, &mut self.lq_path_buf),
            _ => {
                let start = self.lq_start_segment(younger);
                self.lq_path_buf.push(start);
            }
        }
    }

    /// Store `store_seq`'s violation search over the loads younger than
    /// it, booked on the load-queue ports. Returns `None`, booking
    /// nothing, when a port on the search path is busy; otherwise the
    /// oldest premature load (issued to the same word without forwarding
    /// from this store or a younger one), where the search path stops.
    // lsq-lint: hot
    fn store_lq_search(&mut self, store_seq: u64, addr: Addr) -> Option<Option<u64>> {
        let younger = self.lq.partition_point(|l| l.seq < store_seq);
        if self.lq_ports.free_now(self.lq_start_segment(younger)) == 0 {
            return None;
        }
        let hit = self
            .lq
            .range(younger..)
            .position(|l| {
                l.issued && l.addr.same_word(addr) && l.forwarded_from.is_none_or(|f| f < store_seq)
            })
            .map(|i| younger + i);
        self.set_lq_path(younger, hit.map_or(self.lq.len(), |i| i + 1));
        if !self.lq_ports.can_book(&self.lq_path_buf) {
            return None;
        }
        self.lq_ports.book(&self.lq_path_buf);
        self.stats.lq_searches_by_stores += 1;
        Some(hit.map(|i| self.lq[i].seq))
    }

    /// Attempts to issue load `seq` this cycle.
    ///
    /// On success the load is marked issued, its forwarding source (if
    /// any) is bound, ports are booked, and the predictor is trained on a
    /// discovered match. On failure nothing changes and the caller
    /// retries a later cycle.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never dispatched or already issued.
    // lsq-lint: hot
    pub fn load_issue(&mut self, seq: u64) -> LoadIssue {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "load_issue's documented # Panics contract: seq must be a dispatched, unretired load")
        let idx = self.lq_index(seq).expect("load is in the load queue");
        assert!(!self.lq[idx].issued, "load already issued");
        let addr = self.lq[idx].addr;

        // 1. Store-set issue gating: wait while the predicted store is in
        //    flight and unissued.
        if !self.cfg.store_set_gating {
            self.lq[idx].wait_store = None;
        }
        if let Some(ws) = self.lq[idx].wait_store {
            match self.sq_index(ws) {
                Some(sidx) if !self.sq[sidx].issued => {
                    self.stats.store_set_waits += 1;
                    return LoadIssue::WaitStore(ws);
                }
                _ => self.lq[idx].wait_store = None,
            }
        }

        // 2. In-order load policies gate on older unissued loads.
        if self.cfg.load_order.in_order() && self.first_unissued < idx {
            self.stats.in_order_stalls += 1;
            return LoadIssue::InOrderStall;
        }

        // 3. Decide whether this load searches the store queue.
        let searches_sq = match self.cfg.predictor {
            PredictorKind::None => true,
            // The oracle sees any older in-flight store to the same word.
            PredictorKind::Perfect => self
                .sq
                .range(..self.older_stores(seq))
                .any(|s| s.addr.same_word(addr)),
            PredictorKind::Aggressive | PredictorKind::Pair => {
                self.pred.must_search(self.lq[idx].ssid)
            }
        };

        // 4. Check (without booking) every port the load needs. A search
        //    whose first segment has no free port is refused before the
        //    queue is scanned; otherwise the path is computed into the
        //    reusable scratch buffer and checked whole. A segmented
        //    store-queue search stops in its forwarding source's segment,
        //    so its path needs the scan; an unsegmented one occupies
        //    segment 0 alone, which the first check covers, and is scanned
        //    only once every check has passed.
        let segmented = self.cfg.segmentation.is_some();
        let mut source = None;
        if searches_sq {
            if self.sq_ports.free_now(self.sq_start_segment(seq)) == 0 {
                self.stats.sq_port_stalls += 1;
                return LoadIssue::NoSqPort;
            }
            if segmented {
                source = self.sq_search(seq, addr);
                if !self.sq_ports.can_book(&self.sq_path_buf) {
                    self.stats.sq_port_stalls += 1;
                    return LoadIssue::NoSqPort;
                }
            }
        }
        let searches_lq = self.cfg.load_order.searches_lq();
        if searches_lq {
            if self.lq_ports.free_now(self.lq_start_segment(idx + 1)) == 0 {
                self.stats.lq_port_stalls += 1;
                return LoadIssue::NoLqPort;
            }
            self.set_lq_path(idx + 1, self.lq.len());
            if !self.lq_ports.can_book(&self.lq_path_buf) {
                self.stats.lq_port_stalls += 1;
                return LoadIssue::NoLqPort;
            }
        }
        if let Some(lb) = &self.lb {
            // Out-of-order issue needs a load-buffer entry.
            if lb.nilp() != Some(seq) && lb.occupancy() == lb.capacity() {
                self.stats.lb_full_stalls += 1;
                return LoadIssue::LbFull;
            }
        }

        // 5. All resources available: commit the issue.
        if searches_sq && !segmented {
            source = self.sq_search(seq, addr);
        }
        let mut extra_cycles = 0u32;
        // §3: dependents are scheduled early only when the load's hit
        // latency is constant, i.e. the load sits in the head segment —
        // a positional property the scheduler knows at schedule time.
        // Loads in younger segments forgo early scheduling even when
        // their search happens to end within one segment.
        let head_segment = self.lq.front().map_or(0, |e| e.place.segment);
        let mut early_wakeup = self.lq[idx].place.segment == head_segment;
        if searches_sq {
            self.sq_ports.book(&self.sq_path_buf);
            self.stats.sq_searches += 1;
            self.stats
                .seg_search_hist
                .record(self.sq_path_buf.len() - 1);
            extra_cycles = (self.sq_path_buf.len() as u32).saturating_sub(1);
            early_wakeup &= self.sq_path_buf.len() <= 1;
        }
        if searches_lq {
            self.lq_ports.book(&self.lq_path_buf);
            self.stats.lq_searches_by_loads += 1;
        }
        let mut load_order_violation = None;
        let mut lb_searched = false;
        if let Some(lb) = &mut self.lb {
            match lb.try_issue(seq) {
                LbIssue::Full => unreachable!("checked above"),
                LbIssue::InOrder {
                    searches,
                    violation,
                } => {
                    self.stats.lb_searches += u64::from(searches);
                    lb_searched = searches > 0;
                    load_order_violation = violation;
                }
                LbIssue::Buffered { violation } => {
                    self.stats.lb_searches += 1;
                    lb_searched = true;
                    load_order_violation = violation;
                }
            }
        } else if searches_lq && self.cfg.load_load_squash {
            // Conventional load-load search: detect the oldest younger
            // same-word load already issued out of order. Without
            // load-load squashing the search is pure port bandwidth.
            load_order_violation = self
                .lq
                .range(idx + 1..)
                .find(|l| l.issued && l.addr.same_word(addr))
                .map(|l| l.seq);
        }
        if !self.cfg.load_load_squash {
            load_order_violation = None;
        } else if load_order_violation.is_some() {
            self.stats.load_load_violations += 1;
        }

        let mut useless_search = false;
        let trains = matches!(
            self.cfg.predictor,
            PredictorKind::Aggressive | PredictorKind::Pair
        );
        let forwarded_from = match source {
            Some(sidx) => {
                self.stats.sq_search_hits += 1;
                // The pair predictor learns *all* matching pairs, not
                // just violating ones (§2.1, Figure 2).
                if trains {
                    let (load_pc, store_pc) = (self.lq[idx].pc, self.sq[sidx].pc);
                    self.pred.train_pair(load_pc, store_pc);
                }
                Some(self.sq[sidx].seq)
            }
            None => {
                if searches_sq && trains {
                    self.stats.useless_searches += 1;
                    useless_search = true;
                }
                None
            }
        };

        let e = &mut self.lq[idx];
        e.issued = true;
        e.forwarded_from = forwarded_from;
        self.issued_loads += 1;
        if idx == self.first_unissued {
            self.first_unissued += self
                .lq
                .range(idx..)
                .position(|l| !l.issued)
                .unwrap_or(self.lq.len() - idx);
        }
        self.stats.loads_issued += 1;
        LoadIssue::Issued(LoadIssued {
            forwarded_from,
            extra_cycles,
            early_wakeup,
            searched_sq: searches_sq,
            searched_lq: searches_lq,
            searched_lb: lb_searched,
            useless_search,
            load_order_violation,
        })
    }

    /// Attempts to execute store `seq` (address generation) this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never dispatched or already executed.
    // lsq-lint: hot
    pub fn store_issue(&mut self, seq: u64) -> StoreIssue {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "store_issue's documented # Panics contract: seq must be a dispatched, unretired store")
        let idx = self.sq_index(seq).expect("store is in the store queue");
        assert!(!self.sq[idx].issued, "store already executed");
        let addr = self.sq[idx].addr;

        // Conventional/perfect schemes: violation search at execute.
        let searches_lq = !self.cfg.predictor.detects_at_commit();
        let mut violation = None;
        if searches_lq {
            let Some(victim) = self.store_lq_search(seq, addr) else {
                self.stats.lq_port_stalls += 1;
                return StoreIssue::NoLqPort;
            };
            violation = victim;
        }

        let e = &mut self.sq[idx];
        e.issued = true;
        let (ssid, pc) = (e.ssid, e.pc);
        if let Some(ssid) = ssid {
            self.pred.on_store_issue(ssid, seq);
        }
        self.stats.stores_issued += 1;

        self.store_search = StoreSearch {
            searched_lq: searches_lq,
            violation: violation.map(|v| (v, self.record_violation(v, pc, false))),
        };
        StoreIssue::Issued { violation }
    }

    /// Counts a violation of load `victim` by the store at `store_pc`,
    /// trains the predictor on the pair, and returns the load's PC.
    fn record_violation(&mut self, victim: u64, store_pc: Pc, at_commit: bool) -> Pc {
        self.stats.violations += 1;
        if at_commit {
            self.stats.commit_violations += 1;
        }
        // lsq-lint: allow(no-unwrap-in-lib, reason = "the LQ violation scan just above returned this victim, so it is resident")
        let load_pc = self.lq[self.lq_index(victim).expect("victim resident")].pc;
        self.pred.train_pair(load_pc, store_pc);
        load_pc
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Retires the oldest load, which must be `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not the oldest resident load.
    pub fn commit_load(&mut self, seq: u64) {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "in-order commit retires only loads the LQ tracked at dispatch")
        let front = self.lq.pop_front().expect("commit of empty load queue");
        assert_eq!(front.seq, seq, "loads retire in program order");
        assert!(front.issued, "committing an unissued load");
        if let Some(runs) = &mut self.lq_runs {
            runs.pop_front();
        }
        self.issued_loads -= 1;
        self.first_unissued -= 1;
        self.lq_alloc.free(front.place);
        if let Some(lb) = &mut self.lb {
            lb.on_commit(seq);
        }
    }

    /// Marks store `seq` as retired from the ROB. The store-queue entry
    /// remains resident until [`Lsq::drain_store`] completes its cache
    /// write and (in the pair scheme) commit-time violation search.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not resident, has not executed, or an older
    /// unretired store exists (retirement is in program order).
    pub fn store_retire(&mut self, seq: u64) {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "stores retire in program order after dispatch; a miss here is a pipeline bug")
        let idx = self.sq_index(seq).expect("store resident at retirement");
        assert!(self.sq[idx].issued, "retiring an unexecuted store");
        assert!(
            self.sq.iter().take(idx).all(|s| s.retired),
            "stores retire in program order"
        );
        self.sq[idx].retired = true;
    }

    /// Whether any retired-but-undrained store older than `seq` exists.
    /// Loads must not retire past one: the commit-time violation search
    /// must still find them in the load queue.
    // lsq-lint: hot
    pub fn has_undrained_store_before(&self, seq: u64) -> bool {
        self.sq.front().is_some_and(|s| s.retired && s.seq < seq)
    }

    /// Attempts to drain the oldest retired store: the commit-time
    /// violation search (pair/aggressive schemes) plus freeing the entry.
    /// The caller performs the cache write of the returned address and
    /// charges the d-cache port.
    // lsq-lint: hot
    pub fn drain_store(&mut self) -> StoreDrain {
        let Some(front) = self.sq.front().copied() else {
            return StoreDrain::Idle;
        };
        if !front.retired {
            return StoreDrain::Idle;
        }

        let mut violation = None;
        let searches_lq = self.cfg.predictor.detects_at_commit();
        if searches_lq {
            let Some(victim) = self.store_lq_search(front.seq, front.addr) else {
                self.stats.commit_port_delays += 1;
                return StoreDrain::Blocked;
            };
            violation = victim;
        }

        self.sq.pop_front();
        if let Some(runs) = &mut self.sq_runs {
            runs.pop_front();
        }
        self.sq_alloc.free(front.place);
        if let Some(ssid) = front.ssid {
            self.pred.on_store_commit(ssid);
        }
        self.stats.stores_committed += 1;
        self.store_search = StoreSearch {
            searched_lq: searches_lq,
            violation: violation.map(|v| (v, self.record_violation(v, front.pc, true))),
        };
        StoreDrain::Drained {
            seq: front.seq,
            addr: front.addr,
            pc: front.pc,
            violation,
        }
    }

    /// Address of the `n`-th (mod count) currently issued in-flight
    /// load, if any — used by coherence-traffic injectors to target words
    /// another processor would plausibly write (shared data being read).
    // lsq-lint: hot
    pub fn nth_issued_load_addr(&self, n: usize) -> Option<Addr> {
        if self.issued_loads == 0 {
            return None;
        }
        self.lq
            .iter()
            .filter(|l| l.issued)
            .nth(n % self.issued_loads)
            .map(|l| l.addr)
    }

    /// Processes an external invalidation of `addr`'s word (§2.2 scheme
    /// 2, as in the MIPS R10000: another processor wrote shared data).
    /// Searches the load queue for any outstanding (issued) load to the
    /// word and returns the oldest as a squash victim. Invalidation
    /// searches are rare and L2-filtered, so they are not charged search
    /// ports (the paper makes the same argument).
    pub fn invalidate(&mut self, addr: Addr) -> Option<u64> {
        self.stats.invalidations += 1;
        let victim = self
            .lq
            .iter()
            .find(|l| l.issued && l.addr.same_word(addr))
            .map(|l| l.seq);
        if victim.is_some() {
            self.stats.invalidation_squashes += 1;
        }
        victim
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Removes every entry with sequence number `>= seq` from both
    /// queues, rolling back predictor counters, load-buffer entries, and
    /// allocation cursors.
    pub fn squash_from(&mut self, seq: u64) {
        let mut oldest_lq: Option<Placement> = None;
        while let Some(back) = self.lq.back() {
            if back.seq < seq {
                break;
            }
            // lsq-lint: allow(no-unwrap-in-lib, reason = "squash pops from the tail only while entries remain younger than the victim")
            let e = self.lq.pop_back().expect("non-empty");
            if let Some(runs) = &mut self.lq_runs {
                runs.pop_back();
            }
            self.issued_loads -= usize::from(e.issued);
            self.lq_alloc.free(e.place);
            oldest_lq = Some(e.place);
        }
        self.first_unissued = self.first_unissued.min(self.lq.len());
        self.lq_alloc
            .rewind_after_squash(oldest_lq, self.lq.back().map(|e| e.place));

        let mut oldest_sq: Option<Placement> = None;
        while let Some(back) = self.sq.back() {
            if back.seq < seq {
                break;
            }
            // lsq-lint: allow(no-unwrap-in-lib, reason = "squash pops from the tail only while entries remain younger than the victim")
            let e = self.sq.pop_back().expect("non-empty");
            if let Some(runs) = &mut self.sq_runs {
                runs.pop_back();
            }
            self.sq_alloc.free(e.place);
            oldest_sq = Some(e.place);
            if let Some(ssid) = e.ssid {
                self.pred.on_store_squash(ssid, e.seq);
            }
        }
        self.sq_alloc
            .rewind_after_squash(oldest_sq, self.sq.back().map(|e| e.place));

        if let Some(lb) = &mut self.lb {
            lb.squash_from(seq);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Segment path (youngest segment first) of the store-queue
    /// forwarding search of the load the last `Lsq` call issued; valid
    /// until the next `Lsq` call. A refused search may leave an older
    /// path here.
    pub fn sq_search_path(&self) -> &[usize] {
        &self.sq_path_buf
    }

    /// Segment path of the load-queue search (a load's ordering search or
    /// a store's violation search) the last `Lsq` call booked; valid until
    /// the next `Lsq` call. A refused search may leave an older path here.
    pub fn lq_search_path(&self) -> &[usize] {
        &self.lq_path_buf
    }

    /// What the last [`StoreIssue::Issued`] or [`StoreDrain::Drained`]
    /// searched in the load queue and found; valid until the next `Lsq`
    /// call.
    pub fn store_search(&self) -> StoreSearch {
        self.store_search
    }

    /// Current load-queue occupancy.
    pub fn lq_occupancy(&self) -> usize {
        self.lq.len()
    }

    /// Current store-queue occupancy.
    pub fn sq_occupancy(&self) -> usize {
        self.sq.len()
    }

    /// Number of loads currently issued out of program order (an older
    /// load is still unissued) — the paper's Table 4 metric.
    pub fn out_of_order_issued_loads(&self) -> usize {
        // Every load older than the oldest unissued one has issued.
        self.issued_loads - self.first_unissued
    }

    /// Whether load `seq` is resident and issued.
    pub fn load_is_issued(&self, seq: u64) -> bool {
        self.lq_index(seq).is_some_and(|i| self.lq[i].issued)
    }

    /// Whether store `seq` is resident and executed.
    pub fn store_is_issued(&self, seq: u64) -> bool {
        self.sq_index(seq).is_some_and(|i| self.sq[i].issued)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // tests mutate one field of a default config
mod tests {
    use super::*;
    use crate::config::{LoadOrderPolicy, SegAlloc, SegConfig};

    fn lsq(cfg: LsqConfig) -> Lsq {
        Lsq::new(cfg).expect("valid config")
    }

    /// Dispatch a load and a store helper.
    fn disp_load(l: &mut Lsq, seq: u64, addr: u64) {
        l.dispatch_load(seq, Pc(0x1000 + seq * 4), Addr(addr));
    }

    fn disp_store(l: &mut Lsq, seq: u64, addr: u64) {
        l.dispatch_store(seq, Pc(0x1000 + seq * 4), Addr(addr));
    }

    fn issue_load(l: &mut Lsq, seq: u64) -> LoadIssued {
        match l.load_issue(seq) {
            LoadIssue::Issued(i) => i,
            other => panic!("load {seq} failed to issue: {other:?}"),
        }
    }

    #[test]
    fn forwarding_from_youngest_matching_store() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_store(&mut l, 1, 0x100);
        disp_load(&mut l, 2, 0x100);
        assert!(matches!(
            l.store_issue(0),
            StoreIssue::Issued { violation: None }
        ));
        assert!(matches!(
            l.store_issue(1),
            StoreIssue::Issued { violation: None }
        ));
        l.begin_cycle();
        let i = issue_load(&mut l, 2);
        assert_eq!(
            i.forwarded_from,
            Some(1),
            "youngest older matching store wins"
        );
        assert!(i.searched_sq);
        assert_eq!(l.stats().sq_search_hits, 1);
    }

    #[test]
    fn no_forwarding_from_younger_store() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_store(&mut l, 1, 0x100);
        assert!(matches!(l.store_issue(1), StoreIssue::Issued { .. }));
        l.begin_cycle();
        let i = issue_load(&mut l, 0);
        assert_eq!(i.forwarded_from, None);
    }

    #[test]
    fn premature_load_detected_at_store_execute() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_store(&mut l, 0, 0x200);
        disp_load(&mut l, 1, 0x200);
        // Load issues before the store's address is known: premature.
        let i = issue_load(&mut l, 1);
        assert_eq!(i.forwarded_from, None);
        l.begin_cycle();
        match l.store_issue(0) {
            StoreIssue::Issued { violation } => assert_eq!(violation, Some(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            l.store_search(),
            StoreSearch {
                searched_lq: true,
                violation: Some((1, Pc(0x1004))),
            }
        );
        assert_eq!(l.stats().violations, 1);
        assert_eq!(l.stats().commit_violations, 0);
    }

    #[test]
    fn store_set_wait_then_release() {
        // A violation trains the predictor; the next dynamic instance of
        // the same static pair is gated at issue, then released when the
        // store executes, and forwards correctly.
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        l.dispatch_store(0, Pc(0x2000), Addr(0x200));
        l.dispatch_load(1, Pc(0x3000), Addr(0x200));
        issue_load(&mut l, 1);
        l.begin_cycle();
        let StoreIssue::Issued { violation: Some(v) } = l.store_issue(0) else {
            panic!("expected violation")
        };
        l.squash_from(v);
        l.begin_cycle();
        // Refetch load 1; also fetch a new instance of the store (seq 2)?
        // Program order: store 0 already executed, load 1 refetches.
        l.dispatch_load(1, Pc(0x3000), Addr(0x200));
        // New dynamic instance of the same static store arrives later in
        // program order — gating applies to *older* stores only, so use a
        // fresh LSQ sequence: store 2 then load 3.
        l.begin_cycle();
        issue_load(&mut l, 1); // no older store in flight: free to go
        l.commit_load(1);
        l.store_retire(0);
        assert!(matches!(
            l.drain_store(),
            StoreDrain::Drained { seq: 0, .. }
        ));
        l.begin_cycle();
        l.dispatch_store(2, Pc(0x2000), Addr(0x200));
        l.dispatch_load(3, Pc(0x3000), Addr(0x200));
        match l.load_issue(3) {
            LoadIssue::WaitStore(2) => {}
            other => panic!("expected WaitStore(2), got {other:?}"),
        }
        // Store executes; the load may now issue and forwards.
        l.begin_cycle();
        assert!(matches!(
            l.store_issue(2),
            StoreIssue::Issued { violation: None }
        ));
        l.begin_cycle();
        let i = issue_load(&mut l, 3);
        assert_eq!(i.forwarded_from, Some(2));
    }

    #[test]
    fn port_exhaustion_stalls_loads() {
        let mut cfg = LsqConfig::default();
        cfg.ports = 1;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x200);
        issue_load(&mut l, 0);
        // Load 1 needs an SQ port (conventional: all loads search) but the
        // single port is taken this cycle.
        assert_eq!(l.load_issue(1), LoadIssue::NoSqPort);
        assert_eq!(l.stats().sq_port_stalls, 1);
        l.begin_cycle();
        issue_load(&mut l, 1);
    }

    #[test]
    fn lq_port_shared_between_stores_and_loadload_searches() {
        let mut cfg = LsqConfig::default();
        cfg.ports = 1;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x300);
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        // The store consumed the only LQ port; the load's load-load search
        // cannot proceed (its SQ port is free).
        assert_eq!(l.load_issue(1), LoadIssue::NoLqPort);
        l.begin_cycle();
        issue_load(&mut l, 1);
    }

    #[test]
    fn pair_predictor_skips_searches_for_untrained_loads() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Pair;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x500); // unrelated address, untrained PC
        assert!(matches!(
            l.store_issue(0),
            StoreIssue::Issued { violation: None }
        ));
        let i = issue_load(&mut l, 1);
        assert!(!i.searched_sq, "untrained load skips the SQ search");
        assert_eq!(l.stats().sq_searches, 0);
    }

    #[test]
    fn pair_misprediction_caught_at_store_commit() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Pair;
        let mut l = lsq(cfg);
        l.begin_cycle();
        l.dispatch_store(0, Pc(0x2000), Addr(0x100));
        l.dispatch_load(1, Pc(0x3000), Addr(0x100));
        assert!(matches!(
            l.store_issue(0),
            StoreIssue::Issued { violation: None }
        ));
        // The load is untrained, skips its search, misses the forwarding.
        let i = issue_load(&mut l, 1);
        assert!(!i.searched_sq);
        assert_eq!(i.forwarded_from, None);
        // The store's execute did NOT search (pair scheme); detection
        // happens at commit.
        assert_eq!(l.stats().lq_searches_by_stores, 0);
        assert_eq!(l.store_search(), StoreSearch::default());
        l.begin_cycle();
        l.store_retire(0);
        assert!(l.has_undrained_store_before(1));
        match l.drain_store() {
            StoreDrain::Drained { violation, .. } => assert_eq!(violation, Some(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            l.store_search(),
            StoreSearch {
                searched_lq: true,
                violation: Some((1, Pc(0x3000))),
            }
        );
        assert!(!l.has_undrained_store_before(1));
        assert_eq!(l.stats().commit_violations, 1);
        // Training happened: refetch the pair; now the load is gated and
        // then searches.
        l.squash_from(1);
        l.begin_cycle();
        l.dispatch_store(2, Pc(0x2000), Addr(0x100));
        l.dispatch_load(3, Pc(0x3000), Addr(0x100));
        assert!(matches!(l.load_issue(3), LoadIssue::WaitStore(2)));
        l.begin_cycle();
        assert!(matches!(l.store_issue(2), StoreIssue::Issued { .. }));
        l.begin_cycle();
        let i = issue_load(&mut l, 3);
        assert!(i.searched_sq, "trained pair searches");
        assert_eq!(i.forwarded_from, Some(2));
    }

    #[test]
    fn perfect_predictor_searches_only_real_dependences() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Perfect;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x100);
        disp_load(&mut l, 2, 0x900);
        let i1 = issue_load(&mut l, 1);
        assert!(i1.searched_sq, "oracle sees the matching in-flight store");
        let i2 = issue_load(&mut l, 2);
        assert!(!i2.searched_sq, "oracle sees no match");
        assert_eq!(l.stats().sq_searches, 1);
    }

    #[test]
    fn conventional_loads_always_search_both_queues() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        issue_load(&mut l, 0);
        assert_eq!(l.stats().sq_searches, 1);
        assert_eq!(l.stats().lq_searches_by_loads, 1);
    }

    #[test]
    fn load_buffer_removes_lq_searches() {
        let mut cfg = LsqConfig::default();
        cfg.load_order = LoadOrderPolicy::LoadBuffer(2);
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x200);
        issue_load(&mut l, 1); // out of order: buffered
        issue_load(&mut l, 0);
        assert_eq!(l.stats().lq_searches_by_loads, 0);
        assert!(l.stats().lb_searches >= 2);
    }

    #[test]
    fn load_buffer_full_stalls_third_ooo_load() {
        let mut cfg = LsqConfig::default();
        cfg.load_order = LoadOrderPolicy::LoadBuffer(2);
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        for s in 0..4 {
            disp_load(&mut l, s, 0x100 + s * 64);
        }
        issue_load(&mut l, 1);
        issue_load(&mut l, 2);
        assert_eq!(l.load_issue(3), LoadIssue::LbFull);
        assert_eq!(l.stats().lb_full_stalls, 1);
        // Load 0 issues (NILP target), releasing 1 and 2.
        issue_load(&mut l, 0);
        l.begin_cycle();
        issue_load(&mut l, 3);
    }

    #[test]
    fn in_order_policies_stall_younger_loads() {
        for policy in [
            LoadOrderPolicy::InOrderAlwaysSearch,
            LoadOrderPolicy::InOrderNoSearch,
        ] {
            let mut cfg = LsqConfig::default();
            cfg.load_order = policy;
            let mut l = lsq(cfg);
            l.begin_cycle();
            disp_load(&mut l, 0, 0x100);
            disp_load(&mut l, 1, 0x200);
            assert_eq!(l.load_issue(1), LoadIssue::InOrderStall);
            issue_load(&mut l, 0);
            issue_load(&mut l, 1);
            let by_loads = l.stats().lq_searches_by_loads;
            if policy.searches_lq() {
                assert_eq!(by_loads, 2, "in-order-always-search still burns LQ ports");
            } else {
                assert_eq!(by_loads, 0);
            }
        }
    }

    #[test]
    fn capacity_limits_dispatch() {
        let mut cfg = LsqConfig::default();
        cfg.lq_entries = 2;
        cfg.sq_entries = 2;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x0);
        disp_load(&mut l, 1, 0x8);
        assert!(!l.can_dispatch_load());
        assert!(l.can_dispatch_store());
        disp_store(&mut l, 2, 0x10);
        disp_store(&mut l, 3, 0x18);
        assert!(!l.can_dispatch_store());
        // Commit frees space.
        issue_load(&mut l, 0);
        l.commit_load(0);
        assert!(l.can_dispatch_load());
    }

    #[test]
    fn squash_restores_everything() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_store(&mut l, 1, 0x200);
        disp_load(&mut l, 2, 0x200);
        issue_load(&mut l, 0);
        issue_load(&mut l, 2);
        l.squash_from(1);
        assert_eq!(l.lq_occupancy(), 1);
        assert_eq!(l.sq_occupancy(), 0);
        // Redispatch with the same seqs.
        l.begin_cycle();
        disp_store(&mut l, 1, 0x200);
        disp_load(&mut l, 2, 0x200);
        assert!(matches!(l.store_issue(1), StoreIssue::Issued { .. }));
        l.begin_cycle();
        let i = issue_load(&mut l, 2);
        assert_eq!(i.forwarded_from, Some(1));
    }

    #[test]
    fn out_of_order_issued_load_count() {
        let mut cfg = LsqConfig::default();
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        for s in 0..5 {
            disp_load(&mut l, s, 0x100 + s * 64);
        }
        assert_eq!(l.out_of_order_issued_loads(), 0);
        issue_load(&mut l, 2);
        issue_load(&mut l, 4);
        assert_eq!(l.out_of_order_issued_loads(), 2);
        l.begin_cycle();
        issue_load(&mut l, 0);
        issue_load(&mut l, 1);
        // Loads 2 and 4: load 2 has no older unissued load now; load 4
        // still has load 3 unissued.
        assert_eq!(l.out_of_order_issued_loads(), 1);
    }

    #[test]
    fn segmented_forwarding_latency_grows_with_distance() {
        let mut cfg = LsqConfig::default();
        cfg.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 4,
            alloc: SegAlloc::NoSelfCircular,
        });
        let mut l = lsq(cfg);
        l.begin_cycle();
        // Fill two segments of the SQ with non-matching stores, with the
        // matching store oldest (segment 0).
        disp_store(&mut l, 0, 0x100);
        for s in 1..8 {
            disp_store(&mut l, s, 0x1000 + s * 64);
        }
        for s in 0..8 {
            assert!(matches!(l.store_issue(s), StoreIssue::Issued { .. }));
            l.begin_cycle();
        }
        disp_load(&mut l, 8, 0x100);
        let i = issue_load(&mut l, 8);
        assert_eq!(i.forwarded_from, Some(0));
        assert_eq!(i.extra_cycles, 1, "match is in the second searched segment");
        assert!(!i.early_wakeup);
        assert_eq!(l.stats().seg_search_hist.bucket(1), 1);
    }

    #[test]
    fn segmented_search_within_one_segment_keeps_early_wakeup() {
        let mut cfg = LsqConfig::default();
        cfg.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 8,
            alloc: SegAlloc::SelfCircular,
        });
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        disp_load(&mut l, 1, 0x100);
        l.begin_cycle();
        let i = issue_load(&mut l, 1);
        assert_eq!(i.extra_cycles, 0);
        assert!(i.early_wakeup);
    }

    #[test]
    fn segmented_capacity_is_total_across_segments() {
        let mut cfg = LsqConfig::default();
        cfg.segmentation = Some(SegConfig {
            segments: 4,
            entries_per_segment: 28,
            alloc: SegAlloc::SelfCircular,
        });
        let mut l = lsq(cfg);
        l.begin_cycle();
        for s in 0..112 {
            assert!(l.can_dispatch_load(), "load {s} should fit");
            disp_load(&mut l, s, s * 8);
        }
        assert!(!l.can_dispatch_load());
    }

    #[test]
    fn commit_blocked_by_lq_port_contention() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Pair;
        cfg.ports = 1;
        cfg.load_order = LoadOrderPolicy::SearchLoadQueue;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x800);
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        // The load's load-load search takes the single LQ port...
        issue_load(&mut l, 1);
        // ... so the store's commit-time search is blocked this cycle.
        l.store_retire(0);
        assert_eq!(l.drain_store(), StoreDrain::Blocked);
        assert_eq!(l.stats().commit_port_delays, 1);
        l.begin_cycle();
        assert!(matches!(
            l.drain_store(),
            StoreDrain::Drained {
                violation: None,
                ..
            }
        ));
        assert_eq!(l.drain_store(), StoreDrain::Idle);
    }

    /// Four 4-entry segments per queue with ring allocation, so the
    /// segment of every entry follows from its dispatch order.
    fn seg4x4(ports: usize) -> LsqConfig {
        LsqConfig {
            ports,
            segmentation: Some(SegConfig {
                segments: 4,
                entries_per_segment: 4,
                alloc: SegAlloc::NoSelfCircular,
            }),
            ..LsqConfig::default()
        }
    }

    /// Dispatches `n` stores to distinct words: stores `0..4` land in
    /// SQ segment 0, `4..8` in segment 1.
    fn disp_stores(l: &mut Lsq, n: u64) {
        for s in 0..n {
            disp_store(l, s, 0x1000 + s * 64);
        }
    }

    #[test]
    fn wrapped_search_visits_each_segment_once() {
        let mut l = lsq(seg4x4(4));
        l.begin_cycle();
        disp_stores(&mut l, 16);
        for s in 0..2 {
            assert!(matches!(l.store_issue(s), StoreIssue::Issued { .. }));
            l.store_retire(s);
            assert!(matches!(l.drain_store(), StoreDrain::Drained { .. }));
        }
        // The ring wraps: stores 16 and 17 take the freed slots of
        // segment 0, which still holds the oldest stores 2 and 3.
        disp_store(&mut l, 16, 0x2000);
        disp_store(&mut l, 17, 0x2040);
        disp_load(&mut l, 18, 0x100);
        l.begin_cycle();
        issue_load(&mut l, 18);
        assert_eq!(l.sq_search_path(), [0, 3, 2, 1]);
    }

    #[test]
    fn full_first_segment_refuses_load_before_its_search() {
        let mut l = lsq(seg4x4(1));
        l.begin_cycle();
        disp_stores(&mut l, 8);
        disp_load(&mut l, 8, 0x100);
        disp_load(&mut l, 9, 0x140);
        issue_load(&mut l, 8);
        assert_eq!(l.sq_search_path(), [1, 0]);
        // Load 9's search would also start in segment 1, whose only port
        // load 8 holds this cycle.
        let stalls = l.stats().sq_port_stalls;
        assert_eq!(l.load_issue(9), LoadIssue::NoSqPort);
        assert_eq!(l.stats().sq_port_stalls, stalls + 1);
        assert!(!l.load_is_issued(9));
    }

    #[test]
    fn full_later_segment_refuses_load_despite_free_first_segment() {
        let mut l = lsq(seg4x4(1));
        l.begin_cycle();
        disp_stores(&mut l, 8);
        disp_load(&mut l, 8, 0x100);
        // Another search holds segment 0's only port next cycle, when this
        // load's path [1, 0] reaches it; segment 1 is free now.
        l.sq_ports.book(&[2, 0]);
        assert_eq!(l.sq_ports.free_now(1), 1);
        let stalls = l.stats().sq_port_stalls;
        assert_eq!(l.load_issue(8), LoadIssue::NoSqPort);
        assert_eq!(l.stats().sq_port_stalls, stalls + 1);
        assert!(!l.load_is_issued(8));
        l.begin_cycle();
        issue_load(&mut l, 8);
        assert_eq!(l.sq_search_path(), [1, 0]);
    }

    #[test]
    fn full_first_segment_refuses_store_violation_search() {
        let mut l = lsq(seg4x4(1));
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x200);
        disp_load(&mut l, 2, 0x300);
        // Load 1's load-load search takes LQ segment 0, where the store's
        // violation search over loads 1 and 2 would start.
        issue_load(&mut l, 1);
        assert_eq!(l.lq_search_path(), [0]);
        let stalls = l.stats().lq_port_stalls;
        assert_eq!(l.store_issue(0), StoreIssue::NoLqPort);
        assert_eq!(l.stats().lq_port_stalls, stalls + 1);
        assert!(!l.store_is_issued(0));
    }

    #[test]
    fn full_first_segment_blocks_commit_time_search() {
        let mut l = lsq(LsqConfig {
            predictor: PredictorKind::Pair,
            ..seg4x4(1)
        });
        l.begin_cycle();
        disp_store(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x200);
        disp_load(&mut l, 2, 0x300);
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        issue_load(&mut l, 1); // takes LQ segment 0's only port
        l.store_retire(0);
        let delays = l.stats().commit_port_delays;
        assert_eq!(l.drain_store(), StoreDrain::Blocked);
        assert_eq!(l.stats().commit_port_delays, delays + 1);
        assert_eq!(l.sq_occupancy(), 1, "a blocked store stays resident");
        l.begin_cycle();
        assert!(matches!(
            l.drain_store(),
            StoreDrain::Drained { seq: 0, .. }
        ));
    }

    #[test]
    fn load_load_violation_detected_when_enabled() {
        let mut cfg = LsqConfig::default();
        cfg.load_load_squash = true;
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x100); // same word, younger
                                     // Younger load issues first (out of order).
        issue_load(&mut l, 1);
        // The older load's LQ search finds the premature younger load.
        let i = issue_load(&mut l, 0);
        assert_eq!(i.load_order_violation, Some(1));
        assert_eq!(l.stats().load_load_violations, 1);
    }

    #[test]
    fn load_load_violation_suppressed_by_default() {
        let mut cfg = LsqConfig::default();
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x100);
        issue_load(&mut l, 1);
        let i = issue_load(&mut l, 0);
        assert_eq!(i.load_order_violation, None, "uniprocessor default");
        assert_eq!(l.stats().load_load_violations, 0);
    }

    #[test]
    fn load_buffer_detects_load_load_violation() {
        let mut cfg = LsqConfig::default();
        cfg.load_load_squash = true;
        cfg.load_order = LoadOrderPolicy::LoadBuffer(2);
        cfg.ports = 4;
        let mut l = lsq(cfg);
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x100);
        issue_load(&mut l, 1); // buffered, out of order
        let i = issue_load(&mut l, 0); // NILP target searches the buffer
        assert_eq!(
            i.load_order_violation,
            Some(1),
            "buffer search finds the victim"
        );
    }

    #[test]
    fn invalidation_squashes_outstanding_load() {
        let mut l = lsq(LsqConfig::default());
        l.begin_cycle();
        disp_load(&mut l, 0, 0x100);
        disp_load(&mut l, 1, 0x200);
        issue_load(&mut l, 0);
        // Another processor writes 0x100: the outstanding load is hit.
        assert_eq!(
            l.invalidate(Addr(0x104)),
            Some(0),
            "same-word invalidation hits"
        );
        assert_eq!(l.invalidate(Addr(0x300)), None, "unrelated word misses");
        assert_eq!(l.stats().invalidations, 2);
        assert_eq!(l.stats().invalidation_squashes, 1);
        // Unissued loads are not outstanding.
        assert_eq!(l.invalidate(Addr(0x200)), None);
        // Address sampling helper sees only issued loads.
        assert_eq!(l.nth_issued_load_addr(0), Some(Addr(0x100)));
        assert_eq!(l.nth_issued_load_addr(7), Some(Addr(0x100)));
    }

    #[test]
    fn useless_search_counted_for_pair() {
        let mut cfg = LsqConfig::default();
        cfg.predictor = PredictorKind::Pair;
        let mut l = lsq(cfg);
        // Train a pair, then make the load search when no store matches.
        l.begin_cycle();
        l.dispatch_store(0, Pc(0x2000), Addr(0x100));
        l.dispatch_load(1, Pc(0x3000), Addr(0x100));
        assert!(matches!(l.store_issue(0), StoreIssue::Issued { .. }));
        let _ = l.load_issue(1); // untrained: skips the search, reads stale data
        l.store_retire(0);
        match l.drain_store() {
            StoreDrain::Drained {
                violation: Some(v), ..
            } => {
                l.squash_from(v);
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // Second instance: store of the same set in flight (counter > 0),
        // load searches but the store writes a DIFFERENT address now.
        l.begin_cycle();
        l.dispatch_store(2, Pc(0x2000), Addr(0x900));
        l.dispatch_load(3, Pc(0x3000), Addr(0x100));
        assert!(matches!(l.store_issue(2), StoreIssue::Issued { .. }));
        l.begin_cycle();
        let i = issue_load(&mut l, 3);
        assert!(i.searched_sq);
        assert_eq!(i.forwarded_from, None);
        assert_eq!(l.stats().useless_searches, 1);
    }
}
