//! End-to-end checks of the per-instruction pipeline viewer: a recorded
//! run's Konata/O3 log must round-trip through the parsers covering
//! every committed instruction exactly once (squashed instances
//! flagged, never double-counted), squash-heavy workloads must
//! terminate their victims' records with the right cause, and the
//! engine's `LSQ_PIPEVIEW` path must write a parseable log while
//! accounting ring overflow in `lsq_pipeview_dropped_total`. The
//! critical path the recorder tracks at commit must equal a backward
//! walk over the measured window's finished records.
//!
//! The env-dependent assertions are confined to a single `#[test]`
//! (mirroring `telemetry_profile.rs`); the remaining tests never read
//! the environment.

use lsq::core::LsqConfig;
use lsq::experiments::experiments::design_points;
use lsq::experiments::{telemetry, Engine, Job, RunSpec};
use lsq::isa::{Addr, ArchReg, InstrKind, Instruction, Pc, VecStream};
use lsq::obs::{parse_konata, parse_o3, parse_pipeview, PipeRecord, PipeviewConfig, SquashCause};
use lsq::pipeline::{CriticalPath, PipeviewRecorder, ProbeSet, SimConfig, SimResult, Simulator};
use lsq::trace::BenchProfile;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// Serializes the tests that mutate process environment variables.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Holds the env lock and restores every listed variable on drop.
struct EnvGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
    saved: Vec<(&'static str, Option<std::ffi::OsString>)>,
}

impl EnvGuard {
    fn new(vars: &[&'static str]) -> Self {
        let lock = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = vars.iter().map(|&v| (v, std::env::var_os(v))).collect();
        Self { _lock: lock, saved }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for (var, prior) in &self.saved {
            match prior {
                Some(v) => std::env::set_var(var, v),
                None => std::env::remove_var(var),
            }
        }
    }
}

/// Runs `bench` for `n` instructions with a lifecycle recorder sized to
/// hold every finished record, returning the cumulative result and the
/// drained records.
fn recorded_run(bench: &str, n: u64) -> (SimResult, Vec<PipeRecord>) {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(7);
    let probe = ProbeSet {
        life: Some(PipeviewRecorder::new(1 << 16)),
        ..ProbeSet::default()
    };
    let mut sim = Simulator::with_probe(SimConfig::with_lsq(LsqConfig::default()), probe);
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let res = sim.run(&mut stream, n);
    let mut life = sim.into_probe().life.expect("recorder attached");
    assert_eq!(life.dropped(), 0, "ring sized to hold everything");
    let records = life.take_records();
    (res, records)
}

/// The reference: walks `records` backwards from the committed
/// instruction with the latest `(writeback, seq)`, always to the
/// committed producer whose result arrived last, attributing each
/// link's cycles by the consumer's stage boundaries.
fn walk_back(records: &[PipeRecord]) -> Option<CriticalPath> {
    let committed: HashMap<u64, &PipeRecord> = records
        .iter()
        .filter(|r| r.commit.is_some() && r.dispatch.is_some())
        .filter(|r| r.issue.is_some() && r.writeback.is_some())
        .map(|r| (r.seq, r))
        .collect();
    let head = *committed.values().max_by_key(|r| (r.writeback, r.seq))?;
    let mut cp = CriticalPath::default();
    let mut node = head;
    loop {
        let (dispatch, issue, wb) = (node.dispatch?, node.issue?, node.writeback?);
        let parent = node
            .deps
            .iter()
            .flatten()
            .filter_map(|d| committed.get(d).copied())
            .filter(|p| p.writeback < Some(wb))
            .max_by_key(|p| (p.writeback, p.seq));
        let lo = parent.and_then(|p| p.writeback).unwrap_or(node.fetch);
        let at = |stamp: u64| stamp.max(lo).min(wb);
        let exec = wb - at(issue);
        let (sq, mem) = if node.kind.is_load() {
            let sq = exec.min(u64::from(node.sq_extra));
            (sq, 4 + usize::from(node.mem_level.min(2)))
        } else {
            (0, 3)
        };
        for (component, cycles) in [
            (0, at(dispatch) - lo),
            (1, at(issue) - at(dispatch)),
            (2, sq),
            (mem, exec - sq),
        ] {
            cp.components[component] += cycles;
        }
        cp.instructions += 1;
        match parent {
            Some(p) => node = p,
            None => {
                cp.length = head.writeback? - node.fetch;
                return Some(cp);
            }
        }
    }
}

/// The chain tracked at commit is the one a backward walk over the
/// measured window's records finds, on every standard design point.
#[test]
fn the_commit_time_chain_matches_a_backward_walk() {
    for bench in ["gzip", "mcf"] {
        for (label, lsq) in design_points() {
            let profile = BenchProfile::named(bench).expect("known benchmark");
            let mut stream = profile.stream(1);
            let probe = ProbeSet {
                life: Some(PipeviewRecorder::new(1 << 16)),
                ..ProbeSet::default()
            };
            let mut sim = Simulator::with_probe(SimConfig::with_lsq(lsq), probe);
            sim.prewarm(&stream.data_regions(), stream.code_region());
            let _ = sim.run(&mut stream, 3_000);
            let life = sim.probe_mut().life.as_mut().expect("recorder attached");
            let _warmup = life.take_records();
            let measured = sim.run(&mut stream, 8_000);
            let life = sim.probe_mut().life.as_mut().expect("recorder attached");
            assert_eq!(life.dropped(), 0, "ring sized to hold the window");
            let reference = walk_back(&life.take_records());
            assert!(reference.is_some(), "{bench}/{label}: a chain");
            assert_eq!(measured.critical_path, reference, "{bench}/{label}");
        }
    }
}

/// Every committed instruction must appear in the rendered log exactly
/// once, in both formats, and squashed instances must be flagged rather
/// than counted as retirements.
#[test]
fn konata_and_o3_round_trip_cover_every_commit_exactly_once() {
    let (res, records) = recorded_run("gzip", 4_000);
    let committed: Vec<&PipeRecord> = records.iter().filter(|r| r.commit.is_some()).collect();
    assert_eq!(
        committed.len() as u64,
        res.committed,
        "one finished record per committed instruction"
    );
    let seqs: HashSet<u64> = committed.iter().map(|r| r.seq).collect();
    assert_eq!(seqs.len(), committed.len(), "committed seqs are unique");

    // Konata: write through the configured file path and parse back.
    let path = std::env::temp_dir().join(format!("lsq_pipeview_rt_{}.kanata", std::process::id()));
    let cfg = PipeviewConfig::parse(&format!("{}:konata", path.display()));
    let written = cfg.write(&records).expect("write konata log");
    let text = std::fs::read_to_string(&written).expect("read back konata log");
    let _ = std::fs::remove_file(&written);
    let parsed = parse_konata(&text).expect("konata log parses");
    assert_eq!(parsed.len(), records.len(), "one parsed instr per record");
    let parsed_committed: Vec<_> = parsed
        .iter()
        .filter(|p| p.retire.is_some() && !p.squashed)
        .collect();
    assert_eq!(parsed_committed.len() as u64, res.committed);
    let parsed_seqs: HashSet<u64> = parsed_committed.iter().map(|p| p.seq).collect();
    assert_eq!(parsed_seqs, seqs, "committed coverage is exactly-once");
    for p in &parsed_committed {
        assert!(!p.label.is_empty(), "konata carries a left-pane label");
    }
    // Format sniffing agrees with the explicit parser.
    assert_eq!(parse_pipeview(&text).expect("sniffed parse"), parsed);

    // O3: same coverage through the gem5 format.
    let o3 = parse_o3(&lsq::obs::to_o3(&records)).expect("o3 log parses");
    assert_eq!(o3.len(), records.len());
    let o3_seqs: HashSet<u64> = o3
        .iter()
        .filter(|p| p.retire.is_some() && !p.squashed)
        .map(|p| p.seq)
        .collect();
    assert_eq!(o3_seqs, seqs, "o3 committed coverage matches konata");
}

/// A store/load hazard workload: a slow store feeding a same-address
/// load, so memory-order violations (and their squashes) all occur.
fn violation_workload(iters: u64) -> Vec<Instruction> {
    let mut instrs = Vec::new();
    for i in 0..iters {
        let pc = 0x1000 + (i % 8) * 32;
        instrs.push(Instruction::op(Pc(pc), InstrKind::FpDiv).with_dst(ArchReg::fp(1)));
        instrs.push(
            Instruction::op(Pc(pc + 4), InstrKind::IntAlu)
                .with_dst(ArchReg::int(2))
                .with_src(ArchReg::int(2)),
        );
        instrs.push(Instruction::store(Pc(pc + 8), Addr(0x80)).with_src(ArchReg::fp(1)));
        instrs.push(Instruction::load(Pc(pc + 12), Addr(0x80)).with_dst(ArchReg::int(4)));
    }
    instrs
}

/// Squashes terminate the victims' records: each squashed record ends
/// with a cause and no commit stamp, the rendered log flags exactly
/// those instances, and squashed instances never leak into the
/// committed coverage even though their seqs are reused.
#[test]
fn squash_heavy_run_terminates_records_with_causes() {
    let instrs = violation_workload(200);
    let n = instrs.len() as u64;
    let mut stream = VecStream::new(instrs);
    let probe = ProbeSet {
        life: Some(PipeviewRecorder::new(1 << 16)),
        ..ProbeSet::default()
    };
    let mut sim = Simulator::with_probe(SimConfig::default(), probe);
    let res = sim.run(&mut stream, n);
    assert!(res.violation_squashes > 0, "workload must squash");
    let records = sim
        .into_probe()
        .life
        .expect("recorder attached")
        .take_records();

    let squashed: Vec<&PipeRecord> = records.iter().filter(|r| r.squash.is_some()).collect();
    assert!(!squashed.is_empty(), "squash victims leave records");
    for r in &squashed {
        let (cycle, cause) = r.squash.expect("filtered on squash");
        assert!(
            r.commit.is_none(),
            "a record ends in commit or squash, never both"
        );
        assert!(
            cycle >= r.fetch,
            "squash cycle is within the record's lifetime"
        );
        assert_eq!(
            cause,
            SquashCause::MemOrder,
            "conventional scheme detects at execute"
        );
    }
    // Committed coverage is still exactly-once despite seq reuse.
    let committed = records.iter().filter(|r| r.commit.is_some()).count();
    assert_eq!(committed as u64, res.committed);

    // The Konata log flags exactly the squashed instances.
    let parsed = parse_konata(&lsq::obs::to_konata(&records)).expect("parses");
    assert_eq!(
        parsed.iter().filter(|p| p.squashed).count(),
        squashed.len(),
        "rendered log flags every squashed record"
    );
}

/// The engine path: `LSQ_PIPEVIEW` makes a batch write a parseable log,
/// and an undersized `LSQ_PIPEVIEW_CAP` ring truncates the log while
/// bumping `lsq_pipeview_dropped_total` so the loss is visible.
#[test]
fn env_knob_writes_log_and_ring_overflow_is_accounted() {
    let _env = EnvGuard::new(&["LSQ_PIPEVIEW", "LSQ_PIPEVIEW_CAP", "LSQ_ACCOUNTING"]);
    let path = std::env::temp_dir().join(format!("lsq_pipeview_env_{}.kanata", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("LSQ_PIPEVIEW", format!("{}:konata", path.display()));
    std::env::set_var("LSQ_PIPEVIEW_CAP", "64");
    std::env::remove_var("LSQ_ACCOUNTING");

    let jobs = vec![Job {
        bench: "gzip",
        lsq: LsqConfig::default(),
        scaled: false,
        spec: RunSpec {
            warmup: 500,
            instrs: 2_000,
            seed: 23,
        },
    }];
    let results = Engine::new().run_batch(&jobs);
    assert_eq!(results.len(), 1);
    assert!(
        results[0].stage_latency.is_some(),
        "recorded jobs report stage latencies"
    );

    // 2500 instructions through a 64-record ring: the written log holds
    // the newest 64 finished records and still parses.
    let text = std::fs::read_to_string(&path).expect("LSQ_PIPEVIEW log written");
    let _ = std::fs::remove_file(&path);
    let parsed = parse_konata(&text).expect("truncated log still parses");
    assert_eq!(parsed.len(), 64, "log holds exactly the ring capacity");

    // The overflow is accounted on the process-wide hub.
    let rendered = telemetry::global().metrics().render();
    let dropped: u64 = rendered
        .lines()
        .find(|l| l.starts_with("lsq_pipeview_dropped_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("lsq_pipeview_dropped_total exposed");
    assert!(
        dropped >= 2_000 - 64,
        "ring overflow is accounted (dropped {dropped})"
    );

    // Build-identity and uptime ride on the same registry.
    assert!(rendered.contains("lsq_build_info{"), "build info gauge");
    assert!(rendered.contains("lsq_uptime_seconds"), "uptime gauge");
}
