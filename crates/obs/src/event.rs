//! The typed event vocabulary emitted by the simulator.
//!
//! One variant per microarchitectural event the paper's techniques act
//! through: queue dispatch/issue, the three search kinds (store-queue
//! forwarding, load-queue ordering, load-buffer), forwarding hits,
//! violations and the squashes they cause, segment-pipeline advances,
//! and cache misses. Events are small `Copy` values built only when a
//! trace ring is attached.

use crate::json::Json;
use lsq_isa::{Addr, Pc};

/// Which memory operation an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// A load.
    Load,
    /// A store.
    Store,
}

impl MemOp {
    fn as_str(self) -> &'static str {
        match self {
            MemOp::Load => "load",
            MemOp::Store => "store",
        }
    }
}

/// Which queue a segment-pipeline advance happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueSide {
    /// The load queue.
    Lq,
    /// The store queue.
    Sq,
}

impl QueueSide {
    fn as_str(self) -> &'static str {
        match self {
            QueueSide::Lq => "lq",
            QueueSide::Sq => "sq",
        }
    }
}

/// Why the pipeline squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashCause {
    /// Store-load order violation detected at store execute
    /// (conventional / perfect schemes).
    MemOrder,
    /// Store-load order violation detected at store commit (the
    /// pair/aggressive schemes' delayed detection, §3.2).
    CommitMemOrder,
    /// Load-load ordering violation (§2.2 scheme 1).
    LoadLoad,
    /// External coherence invalidation hit an outstanding load
    /// (§2.2 scheme 2, R10000-style).
    Invalidation,
}

impl SquashCause {
    /// Stable lowercase name used in serialized traces.
    pub fn as_str(self) -> &'static str {
        match self {
            SquashCause::MemOrder => "mem_order",
            SquashCause::CommitMemOrder => "commit_mem_order",
            SquashCause::LoadLoad => "load_load",
            SquashCause::Invalidation => "invalidation",
        }
    }
}

/// How far down the hierarchy a cache miss went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissLevel {
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed both levels; served by main memory.
    Memory,
}

impl MissLevel {
    fn as_str(self) -> &'static str {
        match self {
            MissLevel::L2 => "l2",
            MissLevel::Memory => "memory",
        }
    }
}

/// One microarchitectural event. The cycle is attached by the trace
/// buffer (see [`TimedEvent`]); events themselves carry only payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A load or store entered its queue (program order).
    Dispatch {
        /// Load or store.
        op: MemOp,
        /// ROB sequence number.
        seq: u64,
        /// Static PC.
        pc: Pc,
        /// Effective address.
        addr: Addr,
    },
    /// A load issued to memory or a store finished address generation.
    Issue {
        /// Load or store.
        op: MemOp,
        /// ROB sequence number.
        seq: u64,
        /// Static PC.
        pc: Pc,
        /// Effective address.
        addr: Addr,
    },
    /// A load searched the store queue for a forwarding source.
    SqSearch {
        /// The searching load.
        load: u64,
        /// Segments traversed (1 when unsegmented).
        segments: u32,
        /// Whether a forwarding match was found.
        hit: bool,
    },
    /// A load or store searched the load queue (ordering/violation).
    LqSearch {
        /// Who searched.
        by: MemOp,
        /// The searcher's sequence number.
        seq: u64,
        /// Segments traversed (1 when unsegmented).
        segments: u32,
    },
    /// A load searched the load buffer (does not use LQ ports).
    LbSearch {
        /// The searching load.
        load: u64,
    },
    /// Store-to-load forwarding: the load's value came from the queue.
    Forward {
        /// The consuming load.
        load: u64,
        /// The producing store.
        store: u64,
        /// The forwarded word's address.
        addr: Addr,
    },
    /// A predictor-directed search found no matching store (the
    /// unnecessary-search component of Table 3's misprediction rate).
    UselessSearch {
        /// The searching load.
        load: u64,
        /// The load's static PC (for attribution).
        pc: Pc,
    },
    /// A store-load order violation was detected.
    Violation {
        /// The premature load to be squashed.
        victim: u64,
        /// The load's static PC.
        load_pc: Pc,
        /// The violating store's static PC.
        store_pc: Pc,
        /// Detected at store commit (pair scheme) rather than execute.
        at_commit: bool,
    },
    /// A multi-segment search advanced from one segment to the next
    /// (the segment pipeline of §3.1).
    SegAdvance {
        /// Which queue's segment pipeline.
        queue: QueueSide,
        /// Segment the search left.
        from_segment: u32,
        /// Segment the search entered.
        to_segment: u32,
    },
    /// The pipeline squashed from `victim` (inclusive).
    Squash {
        /// Oldest squashed instruction.
        victim: u64,
        /// The victim's static PC (zero if unknown).
        pc: Pc,
        /// Why.
        cause: SquashCause,
        /// Cycles before fetch resumes.
        penalty: u64,
    },
    /// A cache access missed the L1.
    CacheMiss {
        /// The accessed address.
        addr: Addr,
        /// How far the miss went.
        level: MissLevel,
        /// True for instruction fetches, false for data accesses.
        fetch: bool,
    },
}

impl Event {
    /// Stable snake_case event name used in serialized traces.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Dispatch { .. } => "dispatch",
            Event::Issue { .. } => "issue",
            Event::SqSearch { .. } => "sq_search",
            Event::LqSearch { .. } => "lq_search",
            Event::LbSearch { .. } => "lb_search",
            Event::Forward { .. } => "forward",
            Event::UselessSearch { .. } => "useless_search",
            Event::Violation { .. } => "violation",
            Event::SegAdvance { .. } => "seg_advance",
            Event::Squash { .. } => "squash",
            Event::CacheMiss { .. } => "cache_miss",
        }
    }

    /// Display lane for Chrome traces: events of one lane render as one
    /// named track in Perfetto (see [`crate::tracer::TraceBuffer::to_chrome_trace`]).
    pub fn lane(&self) -> u32 {
        match self {
            Event::Dispatch { .. } | Event::Issue { .. } | Event::Squash { .. } => 0,
            Event::SqSearch { .. } | Event::Forward { .. } | Event::UselessSearch { .. } => 1,
            Event::LqSearch { .. } | Event::Violation { .. } => 2,
            Event::LbSearch { .. } => 3,
            Event::SegAdvance { .. } => 4,
            Event::CacheMiss { .. } => 5,
        }
    }

    /// The event payload as JSON object fields (no name/cycle).
    pub fn args_json(&self) -> Json {
        match *self {
            Event::Dispatch { op, seq, pc, addr } | Event::Issue { op, seq, pc, addr } => {
                Json::obj(vec![
                    ("op", Json::from(op.as_str())),
                    ("seq", Json::from(seq)),
                    ("pc", Json::from(pc.0)),
                    ("addr", Json::from(addr.0)),
                ])
            }
            Event::SqSearch {
                load,
                segments,
                hit,
            } => Json::obj(vec![
                ("load", Json::from(load)),
                ("segments", Json::from(segments)),
                ("hit", Json::from(hit)),
            ]),
            Event::LqSearch { by, seq, segments } => Json::obj(vec![
                ("by", Json::from(by.as_str())),
                ("seq", Json::from(seq)),
                ("segments", Json::from(segments)),
            ]),
            Event::LbSearch { load } => Json::obj(vec![("load", Json::from(load))]),
            Event::Forward { load, store, addr } => Json::obj(vec![
                ("load", Json::from(load)),
                ("store", Json::from(store)),
                ("addr", Json::from(addr.0)),
            ]),
            Event::UselessSearch { load, pc } => {
                Json::obj(vec![("load", Json::from(load)), ("pc", Json::from(pc.0))])
            }
            Event::Violation {
                victim,
                load_pc,
                store_pc,
                at_commit,
            } => Json::obj(vec![
                ("victim", Json::from(victim)),
                ("load_pc", Json::from(load_pc.0)),
                ("store_pc", Json::from(store_pc.0)),
                ("at_commit", Json::from(at_commit)),
            ]),
            Event::SegAdvance {
                queue,
                from_segment,
                to_segment,
            } => Json::obj(vec![
                ("queue", Json::from(queue.as_str())),
                ("from_segment", Json::from(from_segment)),
                ("to_segment", Json::from(to_segment)),
            ]),
            Event::Squash {
                victim,
                pc,
                cause,
                penalty,
            } => Json::obj(vec![
                ("victim", Json::from(victim)),
                ("pc", Json::from(pc.0)),
                ("cause", Json::from(cause.as_str())),
                ("penalty", Json::from(penalty)),
            ]),
            Event::CacheMiss { addr, level, fetch } => Json::obj(vec![
                ("addr", Json::from(addr.0)),
                ("level", Json::from(level.as_str())),
                ("fetch", Json::from(fetch)),
            ]),
        }
    }

    /// Duration in "trace time" units for Chrome `"X"` (complete)
    /// events; `None` renders as an instant (`"i"`) event.
    pub fn duration(&self) -> Option<u32> {
        match *self {
            Event::SqSearch { segments, .. } => Some(segments.max(1)),
            Event::LqSearch { segments, .. } => Some(segments.max(1)),
            _ => None,
        }
    }
}

/// An event stamped with the cycle it happened in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Simulated cycle.
    pub cycle: u64,
    /// The event.
    pub event: Event,
}

impl TimedEvent {
    /// One JSONL object: `{"cycle":…,"event":"…", …payload}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cycle".to_string(), Json::from(self.cycle)),
            ("event".to_string(), Json::from(self.event.name())),
        ];
        if let Json::Obj(args) = self.event.args_json() {
            fields.extend(args);
        }
        Json::Obj(fields)
    }

    /// One Chrome `trace_event` object. Searches render as complete
    /// (`"X"`) events whose duration is the number of segments
    /// traversed; everything else is an instant (`"i"`) event. `ts` is
    /// the simulated cycle (Perfetto treats it as microseconds).
    pub fn to_chrome_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::from(self.event.name())),
            ("ts".to_string(), Json::from(self.cycle)),
            ("pid".to_string(), Json::from(0u64)),
            ("tid".to_string(), Json::from(self.event.lane())),
            ("args".to_string(), self.event.args_json()),
        ];
        match self.event.duration() {
            Some(dur) => {
                fields.insert(1, ("ph".to_string(), Json::from("X")));
                fields.insert(2, ("dur".to_string(), Json::from(dur)));
            }
            None => {
                fields.insert(1, ("ph".to_string(), Json::from("i")));
                fields.insert(2, ("s".to_string(), Json::from("t")));
            }
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_lanes_are_stable() {
        let e = Event::Forward {
            load: 3,
            store: 1,
            addr: Addr(0x40),
        };
        assert_eq!(e.name(), "forward");
        assert_eq!(e.lane(), 1);
        assert_eq!(SquashCause::CommitMemOrder.as_str(), "commit_mem_order");
    }

    #[test]
    fn searches_have_durations_instants_do_not() {
        let search = Event::SqSearch {
            load: 1,
            segments: 3,
            hit: false,
        };
        assert_eq!(search.duration(), Some(3));
        let inst = Event::LbSearch { load: 1 };
        assert_eq!(inst.duration(), None);
    }

    #[test]
    fn timed_event_serializes_payload_fields() {
        let t = TimedEvent {
            cycle: 42,
            event: Event::Violation {
                victim: 7,
                load_pc: Pc(0x3000),
                store_pc: Pc(0x2000),
                at_commit: true,
            },
        };
        let j = t.to_json();
        assert_eq!(j.get("cycle").and_then(Json::as_u64), Some(42));
        assert_eq!(j.get("event").and_then(Json::as_str), Some("violation"));
        assert_eq!(j.get("load_pc").and_then(Json::as_u64), Some(0x3000));
        assert_eq!(j.get("at_commit").and_then(Json::as_bool), Some(true));
        let c = t.to_chrome_json();
        assert_eq!(c.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(c.get("ts").and_then(Json::as_u64), Some(42));
    }
}
