//! The bounded event ring-buffer sink.
//!
//! The simulator's probe set owns one [`TraceBuffer`] and appends the
//! events of every layer to it in emission order (see
//! `lsq_pipeline::probe`).

use crate::attrib::PcAttribution;
use crate::event::{Event, TimedEvent};
use crate::json::Json;

/// Default ring capacity (events), chosen so a traced run of a few
/// hundred thousand instructions keeps its tail without unbounded
/// memory growth.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// A bounded ring of [`TimedEvent`]s plus always-on per-PC attribution.
///
/// When the ring is full the oldest event is evicted and `dropped` is
/// incremented — recent history is what debugging needs, and the
/// attribution table (which is cheap and bounded by static-PC count)
/// still covers the whole run.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    cycle: u64,
    capacity: usize,
    events: std::collections::VecDeque<TimedEvent>,
    dropped: u64,
    total: u64,
    attrib: PcAttribution,
}

impl TraceBuffer {
    /// An empty buffer with [`DEFAULT_RING_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An empty buffer bounded to `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            cycle: 0,
            capacity: capacity.max(1),
            events: std::collections::VecDeque::new(),
            dropped: 0,
            total: 0,
            attrib: PcAttribution::default(),
        }
    }

    /// Set the cycle stamped onto subsequently pushed events.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Append one event at the current cycle, evicting the oldest if
    /// the ring is full. Attribution is recorded unconditionally so it
    /// covers events the ring has already evicted.
    pub fn push(&mut self, event: Event) {
        self.attrib.record(&event);
        self.total += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TimedEvent {
            cycle: self.cycle,
            event,
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events pushed over the buffer's lifetime (retained + dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The per-static-PC attribution table (covers the whole run, not
    /// just the retained window).
    pub fn attribution(&self) -> &PcAttribution {
        &self.attrib
    }

    /// Serialize the retained events as JSON Lines: one
    /// `{"cycle":…,"event":…,…}` object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Serialize the retained events as a Chrome `trace_event` document
    /// (`{"traceEvents":[…]}`) that opens in Perfetto or
    /// `chrome://tracing`. Lane metadata rows name the tracks.
    pub fn to_chrome_trace(&self) -> String {
        let lanes: [(u32, &str); 6] = [
            (0, "pipeline"),
            (1, "store queue"),
            (2, "load queue"),
            (3, "load buffer"),
            (4, "segments"),
            (5, "memory"),
        ];
        let mut items: Vec<Json> = lanes
            .iter()
            .map(|&(tid, name)| {
                Json::obj(vec![
                    ("name", Json::from("thread_name")),
                    ("ph", Json::from("M")),
                    ("pid", Json::from(0u64)),
                    ("tid", Json::from(tid)),
                    ("args", Json::obj(vec![("name", Json::from(name))])),
                ])
            })
            .collect();
        items.extend(self.events.iter().map(TimedEvent::to_chrome_json));
        Json::obj(vec![
            ("traceEvents", Json::Arr(items)),
            ("displayTimeUnit", Json::from("ns")),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsq_isa::{Addr, Pc};

    fn ev(seq: u64) -> Event {
        Event::Issue {
            op: crate::event::MemOp::Load,
            seq,
            pc: Pc(0x1000 + seq * 4),
            addr: Addr(0x80),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut buf = TraceBuffer::with_capacity(3);
        for i in 0..5 {
            buf.set_cycle(i);
            buf.push(ev(i));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        assert_eq!(buf.total(), 5);
        let first = buf.events().next().unwrap();
        assert_eq!(first.cycle, 2);
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let mut buf = TraceBuffer::with_capacity(8);
        buf.set_cycle(7);
        buf.push(ev(1));
        buf.push(Event::Squash {
            victim: 1,
            pc: Pc(0x1004),
            cause: crate::event::SquashCause::MemOrder,
            penalty: 8,
        });
        let text = buf.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = Json::parse(line).expect("each JSONL line parses");
            assert_eq!(v.get("cycle").and_then(Json::as_u64), Some(7));
            assert!(v.get("event").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn chrome_trace_parses_and_names_lanes() {
        let mut buf = TraceBuffer::with_capacity(8);
        buf.set_cycle(3);
        buf.push(Event::SqSearch {
            load: 2,
            segments: 4,
            hit: true,
        });
        let doc = Json::parse(&buf.to_chrome_trace()).expect("chrome trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 6 lane-metadata rows + 1 event.
        assert_eq!(events.len(), 7);
        let meta = &events[0];
        assert_eq!(meta.get("ph").and_then(Json::as_str), Some("M"));
        let last = events.last().unwrap();
        assert_eq!(last.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(last.get("dur").and_then(Json::as_u64), Some(4));
        assert_eq!(last.get("ts").and_then(Json::as_u64), Some(3));
    }
}
