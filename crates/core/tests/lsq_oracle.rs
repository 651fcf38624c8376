//! Property tests: the [`Lsq`] model against a naive oracle
//! disambiguator.
//!
//! Random interleavings of dispatch / out-of-order issue / commit /
//! drain / squash are replayed against a shadow model that tracks program
//! order and addresses directly. At every step:
//!
//! * store-to-load **forwarding** must come from the youngest older
//!   executed store to the same word (or nowhere);
//! * conventional **violation detection** at store execute must flag
//!   exactly the oracle's oldest premature load;
//! * queue occupancies must match the shadow's;
//! * the load buffer must hold exactly the loads issued past an older
//!   unissued load, never exceeding its capacity;
//! * every search's segment path must match a walk over the shadow's own
//!   placements, which it makes with its own [`SegmentedAlloc`]s.

use lsq_core::{
    LoadIssue, LoadOrderPolicy, Lsq, LsqConfig, Placement, SegAlloc, SegConfig, SegmentedAlloc,
    StoreDrain, StoreIssue,
};
use lsq_isa::{Addr, Pc};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct ShadowOp {
    seq: u64,
    is_load: bool,
    addr: Addr,
    issued: bool,
    retired: bool,
    forwarded_from: Option<u64>,
    place: Placement,
}

#[derive(Debug)]
struct Shadow {
    ops: Vec<ShadowOp>,
    next_seq: u64,
    lq_alloc: SegmentedAlloc,
    sq_alloc: SegmentedAlloc,
}

impl Shadow {
    fn new(cfg: &LsqConfig) -> Self {
        let alloc = |entries| match cfg.segmentation {
            Some(seg) => SegmentedAlloc::new(seg.segments, seg.entries_per_segment, seg.alloc),
            None => SegmentedAlloc::unsegmented(entries),
        };
        Self {
            ops: Vec::new(),
            next_seq: 0,
            lq_alloc: alloc(cfg.lq_entries),
            sq_alloc: alloc(cfg.sq_entries),
        }
    }

    fn alloc_mut(&mut self, is_load: bool) -> &mut SegmentedAlloc {
        if is_load {
            &mut self.lq_alloc
        } else {
            &mut self.sq_alloc
        }
    }

    fn can_dispatch(&self, is_load: bool) -> bool {
        if is_load {
            self.lq_alloc.can_allocate()
        } else {
            self.sq_alloc.can_allocate()
        }
    }

    fn dispatch(&mut self, is_load: bool, addr: Addr) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let place = self.alloc_mut(is_load).allocate().expect("can_dispatch");
        self.ops.push(ShadowOp {
            seq,
            is_load,
            addr,
            issued: false,
            retired: false,
            forwarded_from: None,
            place,
        });
        seq
    }

    /// Removes the oldest op (commit of a load, drain of a store).
    fn retire_head(&mut self) {
        let head = self.ops.remove(0);
        self.alloc_mut(head.is_load).free(head.place);
    }

    fn get_mut(&mut self, seq: u64) -> &mut ShadowOp {
        self.ops
            .iter_mut()
            .find(|o| o.seq == seq)
            .expect("resident")
    }

    /// Youngest older executed store to the same word.
    fn forwarding_source(&self, seq: u64, addr: Addr) -> Option<u64> {
        self.ops
            .iter()
            .rev()
            .filter(|o| !o.is_load && o.seq < seq && o.issued)
            .find(|o| o.addr.same_word(addr))
            .map(|o| o.seq)
    }

    /// Oldest premature load younger than an executing store.
    fn violation_victim(&self, store_seq: u64, addr: Addr) -> Option<u64> {
        self.ops
            .iter()
            .filter(|o| o.is_load && o.seq > store_seq && o.issued)
            .find(|o| o.addr.same_word(addr) && o.forwarded_from.is_none_or(|f| f < store_seq))
            .map(|o| o.seq)
    }

    /// Segment of the youngest resident load or store (0 when none): where
    /// a search with nothing to walk starts.
    fn tail_segment(&self, is_load: bool) -> usize {
        self.ops
            .iter()
            .rev()
            .find(|o| o.is_load == is_load)
            .map_or(0, |o| o.place.segment)
    }

    /// A load's store-queue search path: distinct segments of the older
    /// stores, youngest first, ending at the forwarding source's segment.
    fn sq_path(&self, seq: u64, addr: Addr) -> Vec<usize> {
        let source = self.forwarding_source(seq, addr);
        let mut path = Vec::new();
        for o in self.ops.iter().rev().filter(|o| !o.is_load && o.seq < seq) {
            if !path.contains(&o.place.segment) {
                path.push(o.place.segment);
            }
            if Some(o.seq) == source {
                break;
            }
        }
        if path.is_empty() {
            path.push(self.tail_segment(false));
        }
        path
    }

    /// A load-queue search path over the loads younger than `seq`:
    /// distinct segments, oldest first, ending at `stop`'s segment.
    fn lq_path(&self, seq: u64, stop: Option<u64>) -> Vec<usize> {
        let mut path = Vec::new();
        for o in self.ops.iter().filter(|o| o.is_load && o.seq > seq) {
            if !path.contains(&o.place.segment) {
                path.push(o.place.segment);
            }
            if Some(o.seq) == stop {
                break;
            }
        }
        if path.is_empty() {
            path.push(self.tail_segment(true));
        }
        path
    }

    /// Squashes every op from `seq` on, freeing and rewinding the
    /// allocators the way the queue does.
    fn squash_from(&mut self, seq: u64) {
        for is_load in [true, false] {
            let mut oldest_squashed = None;
            let mut youngest_surviving = None;
            for o in self.ops.iter().rev().filter(|o| o.is_load == is_load) {
                if o.seq >= seq {
                    oldest_squashed = Some(o.place);
                } else {
                    youngest_surviving = Some(o.place);
                    break;
                }
            }
            let squashed: Vec<Placement> = self
                .ops
                .iter()
                .filter(|o| o.is_load == is_load && o.seq >= seq)
                .map(|o| o.place)
                .collect();
            let alloc = self.alloc_mut(is_load);
            for p in squashed {
                alloc.free(p);
            }
            alloc.rewind_after_squash(oldest_squashed, youngest_surviving);
        }
        self.ops.retain(|o| o.seq < seq);
        self.next_seq = seq;
    }

    fn loads(&self) -> usize {
        self.ops.iter().filter(|o| o.is_load).count()
    }

    fn stores(&self) -> usize {
        self.ops.iter().filter(|o| !o.is_load).count()
    }

    /// Loads issued while an older load is unissued (load-buffer
    /// occupancy equivalent).
    fn ooo_issued_loads(&self) -> usize {
        let mut unissued_seen = false;
        let mut n = 0;
        for o in self.ops.iter().filter(|o| o.is_load) {
            if o.issued {
                if unissued_seen {
                    n += 1;
                }
            } else {
                unissued_seen = true;
            }
        }
        n
    }
}

/// One decoded action; raw bytes are interpreted against current state so
/// every generated sequence is valid.
#[derive(Debug, Clone, Copy)]
enum Action {
    Dispatch { is_load: bool, addr_sel: u8 },
    IssueNth(u8),
    CommitHead,
    Squash(u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (any::<bool>(), any::<u8>()).prop_map(|(is_load, addr_sel)| Action::Dispatch { is_load, addr_sel }),
        4 => any::<u8>().prop_map(Action::IssueNth),
        3 => Just(Action::CommitHead),
        1 => any::<u8>().prop_map(Action::Squash),
    ]
}

fn lsq_config(lb: Option<usize>) -> LsqConfig {
    LsqConfig {
        lq_entries: 16,
        sq_entries: 16,
        ports: 8,
        // Gating off so issue order is fully controlled by the test.
        store_set_gating: false,
        load_order: match lb {
            Some(n) => LoadOrderPolicy::LoadBuffer(n),
            None => LoadOrderPolicy::SearchLoadQueue,
        },
        ..LsqConfig::default()
    }
}

/// Four 4-entry segments per queue: as many entries as the unsegmented
/// cases, with searches long enough to cross every segment.
fn segmented_config(alloc: SegAlloc) -> LsqConfig {
    LsqConfig {
        segmentation: Some(SegConfig {
            segments: 4,
            entries_per_segment: 4,
            alloc,
        }),
        ..lsq_config(None)
    }
}

/// Runs one random scenario; returns the number of issues checked.
fn run_scenario(actions: &[Action], cfg: LsqConfig) -> usize {
    let lb = cfg.load_order.buffer_entries();
    let mut shadow = Shadow::new(&cfg);
    let mut lsq = Lsq::new(cfg).expect("valid config");
    // A small address pool maximizes aliasing.
    let pool = [0x100u64, 0x108, 0x110, 0x200, 0x208];
    let mut checked = 0;

    for &a in actions {
        lsq.begin_cycle();
        match a {
            Action::Dispatch { is_load, addr_sel } => {
                let addr = Addr(pool[addr_sel as usize % pool.len()]);
                let can = if is_load {
                    lsq.can_dispatch_load()
                } else {
                    lsq.can_dispatch_store()
                };
                assert_eq!(can, shadow.can_dispatch(is_load), "allocation mirror");
                if !can {
                    continue;
                }
                let seq = shadow.dispatch(is_load, addr);
                let pc = Pc(0x1000 + seq * 4);
                if is_load {
                    lsq.dispatch_load(seq, pc, addr);
                } else {
                    lsq.dispatch_store(seq, pc, addr);
                }
            }
            Action::IssueNth(n) => {
                let unissued: Vec<ShadowOp> =
                    shadow.ops.iter().copied().filter(|o| !o.issued).collect();
                if unissued.is_empty() {
                    continue;
                }
                let pick = unissued[n as usize % unissued.len()];
                if pick.is_load {
                    match lsq.load_issue(pick.seq) {
                        LoadIssue::Issued(iss) => {
                            let expect = shadow.forwarding_source(pick.seq, pick.addr);
                            assert_eq!(
                                iss.forwarded_from, expect,
                                "forwarding mismatch for load {}",
                                pick.seq
                            );
                            assert!(iss.searched_sq, "no predictor: every load searches");
                            assert_eq!(
                                lsq.sq_search_path(),
                                shadow.sq_path(pick.seq, pick.addr),
                                "SQ path of load {}",
                                pick.seq
                            );
                            if iss.searched_lq {
                                assert_eq!(
                                    lsq.lq_search_path(),
                                    shadow.lq_path(pick.seq, None),
                                    "LQ path of load {}",
                                    pick.seq
                                );
                            }
                            let s = shadow.get_mut(pick.seq);
                            s.issued = true;
                            s.forwarded_from = iss.forwarded_from;
                            checked += 1;
                        }
                        LoadIssue::LbFull => {
                            // Must be a genuine out-of-order issue against
                            // a full buffer.
                            let cap = lb.expect("LbFull only with a buffer");
                            assert!(shadow.ooo_issued_loads() >= cap, "spurious LbFull");
                        }
                        other => panic!("unexpected stall {other:?} (8 ports, no gating)"),
                    }
                } else {
                    match lsq.store_issue(pick.seq) {
                        StoreIssue::Issued { violation } => {
                            let expect = shadow.violation_victim(pick.seq, pick.addr);
                            assert_eq!(
                                violation, expect,
                                "violation mismatch for store {}",
                                pick.seq
                            );
                            assert_eq!(
                                lsq.lq_search_path(),
                                shadow.lq_path(pick.seq, violation),
                                "LQ path of store {}",
                                pick.seq
                            );
                            shadow.get_mut(pick.seq).issued = true;
                            checked += 1;
                            if let Some(v) = violation {
                                lsq.squash_from(v);
                                shadow.squash_from(v);
                            }
                        }
                        StoreIssue::NoLqPort => panic!("ports cannot run out (8 ports)"),
                    }
                }
            }
            Action::CommitHead => {
                // Retire the oldest op if it has issued.
                let Some(head) = shadow.ops.first().copied() else {
                    continue;
                };
                if !head.issued {
                    continue;
                }
                if head.is_load {
                    lsq.commit_load(head.seq);
                    shadow.retire_head();
                } else {
                    if !head.retired {
                        lsq.store_retire(head.seq);
                        shadow.get_mut(head.seq).retired = true;
                    }
                    match lsq.drain_store() {
                        StoreDrain::Drained { seq, violation, .. } => {
                            assert_eq!(seq, head.seq);
                            assert_eq!(
                                violation, None,
                                "conventional scheme detects at execute, not drain"
                            );
                            shadow.retire_head();
                        }
                        other => panic!("drain failed: {other:?}"),
                    }
                }
            }
            Action::Squash(n) => {
                if shadow.ops.is_empty() {
                    continue;
                }
                // Never squash below an already-retired store.
                let min = shadow
                    .ops
                    .iter()
                    .filter(|o| o.retired)
                    .map(|o| o.seq + 1)
                    .max()
                    .unwrap_or_else(|| shadow.ops.first().expect("non-empty").seq);
                let max = shadow.ops.last().expect("non-empty").seq;
                if min > max {
                    continue;
                }
                let at = min + u64::from(n) % (max - min + 1);
                lsq.squash_from(at);
                shadow.squash_from(at);
            }
        }
        // Structural invariants after every action.
        assert_eq!(lsq.lq_occupancy(), shadow.loads(), "LQ occupancy");
        assert_eq!(lsq.sq_occupancy(), shadow.stores(), "SQ occupancy");
        assert_eq!(
            lsq.out_of_order_issued_loads(),
            shadow.ooo_issued_loads(),
            "OoO-issued load count"
        );
        if let Some(cap) = lb {
            assert!(shadow.ooo_issued_loads() <= cap, "load buffer overflow");
        }
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Conventional LSQ vs the oracle.
    #[test]
    fn conventional_matches_oracle(actions in prop::collection::vec(action_strategy(), 1..160)) {
        run_scenario(&actions, lsq_config(None));
    }

    /// Load-buffer LSQ vs the oracle, buffer sizes 1/2/4.
    #[test]
    fn load_buffer_matches_oracle(
        actions in prop::collection::vec(action_strategy(), 1..160),
        cap in 1usize..5,
    ) {
        run_scenario(&actions, lsq_config(Some(cap)));
    }

    /// Segmented (4 × 4) LSQ vs the oracle, ring allocation.
    #[test]
    fn segmented_ring_matches_oracle(actions in prop::collection::vec(action_strategy(), 1..160)) {
        run_scenario(&actions, segmented_config(SegAlloc::NoSelfCircular));
    }

    /// Segmented (4 × 4) LSQ vs the oracle, self-circular allocation.
    #[test]
    fn segmented_self_circular_matches_oracle(
        actions in prop::collection::vec(action_strategy(), 1..160),
    ) {
        run_scenario(&actions, segmented_config(SegAlloc::SelfCircular));
    }
}

/// A deterministic regression mix (cheap to run, easy to debug).
#[test]
fn deterministic_mixed_scenario() {
    use Action::*;
    let actions = [
        Dispatch {
            is_load: false,
            addr_sel: 0,
        },
        Dispatch {
            is_load: true,
            addr_sel: 0,
        },
        Dispatch {
            is_load: true,
            addr_sel: 1,
        },
        IssueNth(1), // load (premature w.r.t. store 0)
        IssueNth(0), // store 0 -> violation on load 1
        Dispatch {
            is_load: true,
            addr_sel: 0,
        },
        IssueNth(0),
        CommitHead,
        CommitHead,
        Squash(0),
    ];
    let checked = run_scenario(&actions, lsq_config(None));
    assert!(checked >= 2);
}
