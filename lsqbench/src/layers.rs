//! The layer pass: each simulator layer timed from outside, by calling
//! its public functions on one job's inputs, and recorded as spans.
//!
//! For every distinct (design point, benchmark) pair of a workload, on
//! the first seed, one `job` span holds:
//!
//! * `setup` — `trace.build` (`BenchProfile::stream`), `pipeline.new`
//!   (`Simulator::new`) and `mem.prewarm` (`Simulator::prewarm`);
//! * `trace.generate` — pre-generating the job's instructions with
//!   `next_instr`;
//! * `run` — simulating warm-up plus measured window on them;
//! * `replay.mem` — the loads and stores replayed, in program order, into
//!   a fresh pre-warmed `MemoryHierarchy`;
//! * `replay.core` — the same memory operations driven through `Lsq` the
//!   way the LSQ oracle property test drives it.
//!
//! Spans carry their counts as arguments, so ratios are taken where the
//! work happened.

use crate::golden::Op;
use crate::workload::{Budget, Workload};
use lsq_core::{LoadIssue, Lsq, LsqConfig, StoreDrain, StoreIssue};
use lsq_isa::{Addr, InstructionStream, Pc, SliceStream};
use lsq_mem::MemoryHierarchy;
use lsq_obs::Json;
use lsq_pipeline::{SimConfig, Simulator};
use lsq_trace::BenchProfile;
use lsq_util::rng::Xoshiro256;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// One timed region.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed (`job`, `setup`, `trace.generate`, …).
    pub name: String,
    /// The job the span belongs to; all spans of one job share it.
    pub job: u64,
    /// Unique within one report.
    pub id: u64,
    /// The enclosing span.
    pub parent: Option<u64>,
    /// Start, nanoseconds after the recorder's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Counts (and, for `job`, the job's label).
    pub args: Vec<(String, Json)>,
}

impl Span {
    /// The numeric argument `key` (0 when absent).
    pub fn arg(&self, key: &str) -> u64 {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    }

    /// Serialized for the parent/child protocol.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.as_str().into()),
            ("job", self.job.into()),
            ("id", self.id.into()),
            ("parent", self.parent.map_or(Json::Null, Json::from)),
            ("start_ns", self.start_ns.into()),
            ("dur_ns", self.dur_ns.into()),
            ("args", Json::Obj(self.args.clone())),
        ])
    }

    /// Inverse of [`Span::to_json`].
    pub fn from_json(j: &Json) -> Option<Span> {
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        Some(Span {
            name: j.get("name")?.as_str()?.to_string(),
            job: u("job")?,
            id: u("id")?,
            parent: u("parent"),
            start_ns: u("start_ns")?,
            dur_ns: u("dur_ns")?,
            args: j.get("args")?.as_obj()?.to_vec(),
        })
    }
}

/// Spans as a Chrome `trace_event` document (open in Perfetto or
/// `chrome://tracing`).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("job".to_string(), Json::from(s.job)),
                ("span".to_string(), s.id.into()),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, Json::from),
                ),
            ];
            args.extend(s.args.iter().cloned());
            Json::obj(vec![
                ("name", s.name.as_str().into()),
                ("cat", s.name.split('.').next().unwrap_or_default().into()),
                ("ph", "X".into()),
                ("ts", (s.start_ns as f64 / 1e3).into()),
                ("dur", (s.dur_ns as f64 / 1e3).into()),
                ("pid", 1u64.into()),
                ("tid", 1u64.into()),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ns".into()),
    ])
}

/// Keeps spans in memory while they are open and after they close.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn open(&mut self, name: &str, job: u64, parent: Option<u64>) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            job,
            id,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            args: Vec::new(),
        });
        id
    }

    fn close(&mut self, id: u64, args: Vec<(String, Json)>) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.dur_ns = now - s.start_ns;
            s.args = args;
        }
    }
}

/// One span argument.
fn kv(key: &str, value: impl Into<Json>) -> (String, Json) {
    (key.to_string(), value.into())
}

/// Instructions generated beyond the job's budget, so the pipeline's
/// fetch-ahead never runs the pre-generated stream dry.
const STREAM_SLACK: u64 = 4_096;

/// Runs the layer pass of `workload` on seed `seed` at `budget`. `jobs`
/// are the batch's simulated jobs, whose mean queue occupancies the core
/// driver holds.
///
/// # Errors
///
/// A pair's job is missing from `jobs`, or the core driver stalls.
pub fn run_layers(
    workload: Workload,
    seed: u64,
    budget: Budget,
    jobs: &[Op],
) -> Result<Vec<Span>, String> {
    let overhead = timer_overhead_ns();
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let pairs = workload
        .jobs(seed, budget)
        .into_iter()
        .filter(|n| n.job.spec.seed == seed);
    for (id, n) in pairs.enumerate() {
        let id = id as u64;
        let profile =
            BenchProfile::named(n.job.bench).ok_or(format!("unknown benchmark {}", n.job.bench))?;
        let measured = jobs
            .iter()
            .find(|o| o.label == n.label)
            .ok_or(format!("{}: not in the batch", n.label))?;
        let cfg = SimConfig::with_lsq(n.job.lsq);
        let hierarchy = cfg.hierarchy;
        let job = rec.open("job", id, None);

        let setup = rec.open("setup", id, Some(job));
        let s = rec.open("trace.build", id, Some(setup));
        let mut stream = profile.stream(seed);
        rec.close(s, Vec::new());
        let s = rec.open("pipeline.new", id, Some(setup));
        let mut sim = Simulator::new(cfg);
        rec.close(s, Vec::new());
        let s = rec.open("mem.prewarm", id, Some(setup));
        sim.prewarm(&stream.data_regions(), stream.code_region());
        rec.close(s, Vec::new());
        rec.close(setup, Vec::new());

        let len = (budget.warmup + budget.instrs + STREAM_SLACK) as usize;
        let mut instrs = Vec::with_capacity(len);
        let s = rec.open("trace.generate", id, Some(job));
        while instrs.len() < len {
            match stream.next_instr() {
                Some(i) => instrs.push(i),
                None => break,
            }
        }
        rec.close(s, vec![kv("instrs", instrs.len())]);

        let s = rec.open("run", id, Some(job));
        let mut replay = SliceStream::new(&instrs);
        let _ = sim.run(&mut replay, budget.warmup);
        let r = sim.run(&mut replay, budget.instrs);
        rec.close(
            s,
            vec![kv("committed", r.committed), kv("cycles", r.cycles)],
        );

        let mem_ops: Vec<MemOp> = instrs
            .iter()
            .filter(|i| i.kind.is_mem())
            .map(|i| MemOp {
                load: i.kind.is_load(),
                pc: i.pc,
                addr: i.addr,
            })
            .collect();
        let mut mem = MemoryHierarchy::new(hierarchy);
        let (code_base, code_bytes) = stream.code_region();
        mem.prewarm_data(&stream.data_regions());
        mem.prewarm_code(code_base, code_bytes);
        let s = rec.open("replay.mem", id, Some(job));
        for op in &mem_ops {
            black_box(mem.data_access(op.addr, !op.load));
        }
        rec.close(
            s,
            vec![
                kv("accesses", mem_ops.len()),
                kv("l1d_misses", mem.l1d_stats().misses),
                kv("l2_accesses", mem.l2_stats().accesses()),
                kv("l2_misses", mem.l2_stats().misses),
            ],
        );

        let target = |field: &str| (measured.field(field).round() as usize).max(1);
        let s = rec.open("replay.core", id, Some(job));
        let times = drive_core(
            n.job.lsq,
            &mem_ops,
            (target("lq_occupancy"), target("sq_occupancy")),
            seed,
            overhead,
        )
        .map_err(|e| format!("{}: {e}", n.label))?;
        rec.close(s, times);
        rec.close(job, vec![kv("label", n.label.as_str())]);
    }
    Ok(rec.spans)
}

/// The median cost of an empty `Instant` pair, subtracted from each
/// per-call timing of the core driver.
fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            black_box(());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One load or store of a job's stream.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    load: bool,
    pc: Pc,
    addr: Addr,
}

/// The `Lsq` calls the core driver times, in report order.
pub(crate) const CORE_CALLS: [&str; 7] = [
    "dispatch",
    "load_issue",
    "store_issue",
    "retire",
    "drain",
    "squash",
    "begin_cycle",
];
const DISPATCH: usize = 0;
const LOAD_ISSUE: usize = 1;
const STORE_ISSUE: usize = 2;
const RETIRE: usize = 3;
const DRAIN: usize = 4;
const SQUASH: usize = 5;
const BEGIN_CYCLE: usize = 6;

/// Operations dispatched, issued and retired per driver cycle.
const WIDTH: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    load: bool,
    issued: bool,
    retired: bool,
}

struct CoreDriver<'a> {
    lsq: Lsq,
    ops: &'a [MemOp],
    window: VecDeque<Slot>,
    next: usize,
    calls: [u64; CORE_CALLS.len()],
    nanos: [u64; CORE_CALLS.len()],
    overhead: u64,
}

impl CoreDriver<'_> {
    fn timed<R>(&mut self, call: usize, f: impl FnOnce(&mut Lsq) -> R) -> R {
        let t0 = Instant::now();
        let r = black_box(f(&mut self.lsq));
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls[call] += 1;
        self.nanos[call] += ns.saturating_sub(self.overhead);
        r
    }

    /// Flushes `victim` and everything younger; they dispatch again.
    fn squash(&mut self, victim: u64) {
        self.timed(SQUASH, |l| l.squash_from(victim));
        while self.window.back().is_some_and(|s| s.seq >= victim) {
            self.window.pop_back();
        }
        self.next = victim as usize;
    }

    /// Retires in order: loads commit, stores retire and then drain.
    fn retire(&mut self) -> Result<(), String> {
        for _ in 0..WIDTH {
            let Some(head) = self.window.front().copied() else {
                return Ok(());
            };
            if !head.issued {
                return Ok(());
            }
            if head.load {
                self.timed(RETIRE, |l| l.commit_load(head.seq));
                self.window.pop_front();
                continue;
            }
            if !head.retired {
                self.timed(RETIRE, |l| l.store_retire(head.seq));
                if let Some(h) = self.window.front_mut() {
                    h.retired = true;
                }
            }
            match self.timed(DRAIN, Lsq::drain_store) {
                StoreDrain::Drained { violation, .. } => {
                    self.window.pop_front();
                    if let Some(v) = violation {
                        self.squash(v);
                    }
                }
                StoreDrain::Blocked => return Ok(()),
                StoreDrain::Idle => {
                    return Err(format!("retired store {} did not drain", head.seq))
                }
            }
        }
        Ok(())
    }

    /// Tries to issue randomly chosen resident operations.
    fn issue(&mut self, rng: &mut Xoshiro256) {
        for _ in 0..WIDTH {
            let unissued = self.window.iter().filter(|s| !s.issued).count();
            if unissued == 0 {
                return;
            }
            let pick = rng.range_usize(unissued);
            let Some(idx) = self
                .window
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.issued)
                .nth(pick)
                .map(|(i, _)| i)
            else {
                return;
            };
            let slot = self.window[idx];
            let (issued, victim) = if slot.load {
                match self.timed(LOAD_ISSUE, |l| l.load_issue(slot.seq)) {
                    LoadIssue::Issued(li) => (true, li.load_order_violation),
                    _ => (false, None),
                }
            } else {
                match self.timed(STORE_ISSUE, |l| l.store_issue(slot.seq)) {
                    StoreIssue::Issued { violation } => (true, violation),
                    StoreIssue::NoLqPort => (false, None),
                }
            };
            self.window[idx].issued = issued;
            if let Some(v) = victim {
                self.squash(v);
            }
        }
    }

    /// Dispatches in program order while each queue is below its target.
    fn dispatch(&mut self, (lq_target, sq_target): (usize, usize)) {
        for _ in 0..WIDTH {
            let Some(&op) = self.ops.get(self.next) else {
                return;
            };
            let room = if op.load {
                self.lsq.lq_occupancy() < lq_target && self.lsq.can_dispatch_load()
            } else {
                self.lsq.sq_occupancy() < sq_target && self.lsq.can_dispatch_store()
            };
            if !room {
                return;
            }
            let seq = self.next as u64;
            self.timed(DISPATCH, |l| {
                if op.load {
                    l.dispatch_load(seq, op.pc, op.addr);
                } else {
                    l.dispatch_store(seq, op.pc, op.addr);
                }
            });
            self.window.push_back(Slot {
                seq,
                load: op.load,
                issued: false,
                retired: false,
            });
            self.next += 1;
        }
    }
}

/// Feeds `ops` through an `Lsq` of design point `cfg`, mirroring how the
/// oracle property test drives it: dispatch in program order while the
/// load and store queues are below `targets` (the job's mean measured
/// occupancies), issue in a seeded out-of-order pattern, retire in
/// order, and squash from every reported violation (squashed operations
/// dispatch again). Returns, as span arguments, the driver cycles and
/// for each of [`CORE_CALLS`] its count (`<call>`) and nanoseconds net
/// of `overhead_ns` per call (`<call>_ns`).
///
/// # Errors
///
/// An invalid design point, a retired store that will not drain, or no
/// progress within 64 cycles per operation.
fn drive_core(
    cfg: LsqConfig,
    ops: &[MemOp],
    targets: (usize, usize),
    seed: u64,
    overhead_ns: u64,
) -> Result<Vec<(String, Json)>, String> {
    let mut d = CoreDriver {
        lsq: Lsq::new(cfg).map_err(|e| e.to_string())?,
        ops,
        window: VecDeque::new(),
        next: 0,
        calls: [0; CORE_CALLS.len()],
        nanos: [0; CORE_CALLS.len()],
        overhead: overhead_ns,
    };
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let cap = ops.len() as u64 * 64 + 10_000;
    let mut cycles = 0u64;
    while d.next < ops.len() || !d.window.is_empty() {
        cycles += 1;
        if cycles > cap {
            return Err(format!("core driver made no progress in {cap} cycles"));
        }
        d.timed(BEGIN_CYCLE, Lsq::begin_cycle);
        d.retire()?;
        d.issue(&mut rng);
        d.dispatch(targets);
    }
    let mut args = vec![kv("cycles", cycles)];
    for (i, call) in CORE_CALLS.iter().enumerate() {
        args.push(kv(call, d.calls[i]));
        args.push(kv(&format!("{call}_ns"), d.nanos[i]));
    }
    Ok(args)
}
