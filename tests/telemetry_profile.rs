//! End-to-end checks of the live-telemetry and self-profiler subsystems:
//! profiling must not perturb simulated counters (the `NopProbe`
//! twin of the tracing equivalence test), `LSQ_PROFILE=1` must flow a
//! per-phase profile into every `LSQ_EXPERIMENTS_JSON` record, and the
//! metrics server must expose live Prometheus text plus a `/jobs` JSON
//! snapshot while batches run.
//!
//! This file mutates process environment variables, so it lives in its
//! own integration-test binary: the env-dependent assertions are
//! confined to a single `#[test]` and the remaining tests never read
//! the environment.

use lsq::core::{LsqConfig, PredictorKind, SegAlloc};
use lsq::experiments::runner::run_matrix;
use lsq::experiments::{telemetry, Engine, Job, RunSpec};
use lsq::isa::{Addr, ArchReg, InstrKind, Instruction, Pc, VecStream};
use lsq::obs::Json;
use lsq::pipeline::{NopProbe, Phase, PhaseProfile, ProbeSet};
use lsq::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;

/// Serializes the tests that mutate process environment variables
/// (`cargo test` runs `#[test]`s of one binary concurrently, and env
/// vars are process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Holds the env lock and restores every listed variable to its prior
/// state on drop, so a panicking test cannot leak env mutations into
/// the others.
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

/// The violation workload shared with the tracing equivalence test: a
/// late store feeding a same-address load, so squashes and LSQ searches
/// all occur.
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

#[test]
fn profiling_does_not_perturb_the_simulation() {
    let instrs = violation_workload(150);
    let n = instrs.len() as u64;
    let mut plain_stream = VecStream::new(instrs.clone());
    let mut plain = Simulator::with_probe(SimConfig::default(), NopProbe);
    let p = plain.run(&mut plain_stream, n);

    let mut profiled_stream = VecStream::new(instrs);
    let timer = ProbeSet {
        timer: Some(PhaseProfile::default()),
        ..ProbeSet::default()
    };
    let mut profiled = Simulator::with_probe(SimConfig::default(), timer);
    let r = profiled.run(&mut profiled_stream, n);

    assert_eq!(p.cycles, r.cycles, "profiling must not perturb timing");
    assert_eq!(p.committed, r.committed);
    assert_eq!(p.violation_squashes, r.violation_squashes);
    assert_eq!(p.lsq.sq_searches, r.lsq.sq_searches);
    assert_eq!(p.lsq.violations, r.lsq.violations);
    assert!(p.profile.is_none(), "unprofiled run reports no profile");

    let profile = r.profile.expect("profiled run reports a profile");
    for phase in Phase::ALL {
        let stat = profile
            .phases
            .iter()
            .find(|s| s.phase == phase.name())
            .unwrap_or_else(|| panic!("profile is missing phase {}", phase.name()));
        if matches!(phase, Phase::Fetch | Phase::Commit | Phase::WakeupIssue) {
            assert!(stat.calls > 0, "{} was never timed", phase.name());
        }
    }
    // This workload squashes, so the squash phase must have fired and
    // the render must carry every phase name.
    let squash = profile.phases.iter().find(|s| s.phase == "squash").unwrap();
    assert!(squash.calls > 0, "violation workload must time squashes");
    let table = profile.render();
    for phase in Phase::ALL {
        assert!(
            table.contains(phase.name()),
            "render misses {}",
            phase.name()
        );
    }
    assert!(profile.total_nanos() > 0);
}

/// One raw HTTP GET against the metrics server, returning (status line,
/// body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: lsq\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn profiled_batch_flows_into_dump_and_live_endpoints() {
    let _env = EnvGuard::new(&["LSQ_PROFILE", "LSQ_EXPERIMENTS_JSON", "LSQ_ACCOUNTING"]);
    let dump = std::env::temp_dir().join("lsq_telemetry_profile_test.json");
    let _ = std::fs::remove_file(&dump);
    std::env::set_var("LSQ_PROFILE", "1");
    std::env::set_var("LSQ_EXPERIMENTS_JSON", &dump);
    std::env::remove_var("LSQ_ACCOUNTING");

    // Serve the process-wide hub on an ephemeral port (the env knob
    // LSQ_METRICS_ADDR goes through the same `serve` path; tests bind
    // port 0 to avoid collisions).
    let server = telemetry::global()
        .serve("127.0.0.1:0")
        .expect("bind ephemeral metrics port");

    let spec = RunSpec {
        warmup: 500,
        instrs: 3_000,
        seed: 17,
    };
    let jobs: Vec<Job> = ["gzip", "mcf"]
        .iter()
        .map(|&bench| Job {
            bench,
            lsq: LsqConfig {
                predictor: PredictorKind::Pair,
                ..LsqConfig::default()
            },
            scaled: false,
            spec,
        })
        .collect();
    let engine = Engine::new();
    let results = engine.run_batch(&jobs);
    std::env::remove_var("LSQ_PROFILE");
    std::env::remove_var("LSQ_EXPERIMENTS_JSON");

    // Every fresh result carries a per-phase profile.
    for r in &results {
        let profile = r.profile.as_ref().expect("LSQ_PROFILE=1 profiles jobs");
        assert!(profile.total_nanos() > 0);
    }

    // ... and so does every record of the LSQ_EXPERIMENTS_JSON dump.
    let text = std::fs::read_to_string(&dump).expect("dump written at batch end");
    let doc = Json::parse(&text).expect("dump parses");
    let records = doc.as_arr().expect("dump is an array of job records");
    assert_eq!(records.len(), 2);
    for rec in records {
        let profile = rec.get("profile").expect("record has a profile field");
        let fetch = profile.get("fetch").expect("profile keys phases by name");
        assert!(fetch.get("calls").and_then(Json::as_u64).unwrap() > 0);
        assert!(fetch.get("nanos").and_then(Json::as_u64).is_some());
        // These tiny runs never hit the safety cycle cap, and with
        // LSQ_ACCOUNTING unset no CPI stack is attached.
        assert_eq!(rec.get("capped").and_then(Json::as_bool), Some(false));
        assert!(matches!(rec.get("cpi_stack"), Some(Json::Null)));
    }
    let _ = std::fs::remove_file(&dump);

    // The live endpoints reflect the batch.
    let (status, metrics) = http_get(server.addr(), "/metrics");
    assert!(status.contains("200"), "GET /metrics: {status}");
    for needle in [
        "# TYPE lsq_jobs_done_total counter",
        "lsq_cache_misses_total",
        "lsq_sim_mips",
        "# TYPE lsq_job_wall_ms histogram",
        "lsq_job_wall_ms_bucket{le=\"+Inf\"}",
        "lsq_profile_phase_nanos_total{phase=\"fetch\"}",
        "lsq_profile_phase_calls_total{phase=\"commit\"}",
    ] {
        assert!(
            metrics.contains(needle),
            "/metrics missing {needle:?}:\n{metrics}"
        );
    }

    let (status, jobs_body) = http_get(server.addr(), "/jobs");
    assert!(status.contains("200"), "GET /jobs: {status}");
    let snap = Json::parse(jobs_body.trim()).expect("/jobs is valid JSON");
    assert!(snap.get("done").and_then(Json::as_u64).unwrap() >= 2);
    assert!(snap.get("workers").and_then(Json::as_arr).is_some());
    let agg = snap.get("profile").expect("aggregate profile present");
    assert!(agg.get("fetch").is_some(), "/jobs profile keys phases");

    let (status, _) = http_get(server.addr(), "/nope");
    assert!(status.contains("404"), "unknown path: {status}");
}

/// `LSQ_ACCOUNTING=1` end to end: every fresh result and every JSON
/// dump record carries a CPI stack whose components partition the
/// measured window, `LSQ_ACCOUNTING_CSV` writes one windowed CSV per
/// job, `/metrics` exports the labeled cycle counters, and `/jobs`
/// carries the batch-aggregate stack.
#[test]
fn accounted_batch_flows_stacks_everywhere() {
    let _env = EnvGuard::new(&[
        "LSQ_PROFILE",
        "LSQ_EXPERIMENTS_JSON",
        "LSQ_ACCOUNTING",
        "LSQ_ACCOUNTING_CSV",
    ]);
    let dump = std::env::temp_dir().join("lsq_telemetry_accounting_test.json");
    let csv = std::env::temp_dir().join("lsq_telemetry_accounting_test.csv");
    let csv1 = std::path::PathBuf::from(format!("{}.1", csv.display()));
    for p in [&dump, &csv, &csv1] {
        let _ = std::fs::remove_file(p);
    }
    std::env::remove_var("LSQ_PROFILE");
    std::env::set_var("LSQ_EXPERIMENTS_JSON", &dump);
    std::env::set_var("LSQ_ACCOUNTING", "1");
    std::env::set_var("LSQ_ACCOUNTING_CSV", format!("{}:2000", csv.display()));

    let server = telemetry::global()
        .serve("127.0.0.1:0")
        .expect("bind ephemeral metrics port");
    let spec = RunSpec {
        warmup: 500,
        instrs: 3_000,
        seed: 23,
    };
    let jobs: Vec<Job> = ["gzip", "mcf"]
        .iter()
        .map(|&bench| Job {
            bench,
            lsq: LsqConfig::default(),
            scaled: false,
            spec,
        })
        .collect();
    let results = Engine::new().run_batch(&jobs);

    for r in &results {
        let stack = r
            .cpi_stack
            .as_ref()
            .expect("LSQ_ACCOUNTING=1 attaches a stack to every fresh job");
        assert_eq!(
            stack.total_slots(),
            r.cycles * stack.commit_width,
            "stack must partition the measured window"
        );
        assert_eq!(stack.slots("base"), r.committed);
        assert!(!r.hit_cycle_cap);
    }

    // The JSON dump mirrors the stacks (and the capped flag).
    let text = std::fs::read_to_string(&dump).expect("dump written at batch end");
    let doc = Json::parse(&text).expect("dump parses");
    let records = doc.as_arr().expect("dump is an array of job records");
    assert_eq!(records.len(), 2);
    for rec in records {
        assert_eq!(rec.get("capped").and_then(Json::as_bool), Some(false));
        let stack = rec.get("cpi_stack").expect("record carries cpi_stack");
        assert!(stack.get("commit_width").and_then(Json::as_u64).unwrap() > 0);
        let comps = stack.get("components").expect("components map");
        assert!(comps.get("base").and_then(Json::as_u64).unwrap() > 0);
    }
    let _ = std::fs::remove_file(&dump);

    // One windowed CSV per job: job 0 verbatim, job 1 suffixed `.1`.
    for path in [&csv, &csv1] {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("CSV sampler dump {} missing: {e}", path.display()));
        assert!(
            text.starts_with("start_cycle,end_cycle,cycles,base,"),
            "{}: unexpected header in {text:?}",
            path.display()
        );
        assert!(
            text.lines().count() >= 2,
            "{}: no window rows",
            path.display()
        );
        let _ = std::fs::remove_file(path);
    }

    // Live endpoints: labeled per-component counters and the aggregate.
    let (status, metrics) = http_get(server.addr(), "/metrics");
    assert!(status.contains("200"), "GET /metrics: {status}");
    for needle in [
        "# TYPE lsq_cpi_stack_cycles_total counter",
        "lsq_cpi_stack_cycles_total{component=\"base\"}",
    ] {
        assert!(
            metrics.contains(needle),
            "/metrics missing {needle:?}:\n{metrics}"
        );
    }
    let (status, jobs_body) = http_get(server.addr(), "/jobs");
    assert!(status.contains("200"), "GET /jobs: {status}");
    let snap = Json::parse(jobs_body.trim()).expect("/jobs is valid JSON");
    let agg = snap.get("cpi_stack").expect("aggregate stack present");
    let base = agg
        .get("components")
        .and_then(|c| c.get("base"))
        .and_then(Json::as_u64)
        .expect("aggregate stack keys components by name");
    assert!(base > 0);
}

/// The full 72-job paper matrix (18 benchmarks × 4 design points) with
/// accounting on: every job's diffed stack must still sum exactly to
/// `cycles × commit_width` with base slots equal to committed
/// instructions — the invariant survives warm-up differencing on every
/// design point of every benchmark.
#[test]
fn accounting_invariant_holds_across_the_full_matrix() {
    let _env = EnvGuard::new(&[
        "LSQ_PROFILE",
        "LSQ_EXPERIMENTS_JSON",
        "LSQ_ACCOUNTING",
        "LSQ_ACCOUNTING_CSV",
    ]);
    std::env::remove_var("LSQ_PROFILE");
    std::env::remove_var("LSQ_EXPERIMENTS_JSON");
    std::env::remove_var("LSQ_ACCOUNTING_CSV");
    std::env::set_var("LSQ_ACCOUNTING", "1");

    let spec = RunSpec {
        warmup: 500,
        instrs: 2_000,
        seed: 29,
    };
    let cfgs = [
        LsqConfig::default(),
        LsqConfig {
            predictor: PredictorKind::Pair,
            ..LsqConfig::default()
        },
        LsqConfig::with_techniques(1),
        LsqConfig::segmented(SegAlloc::SelfCircular),
    ];
    let rows = run_matrix(&cfgs, false, spec);
    assert_eq!(rows.len(), 18, "one row per benchmark");
    for (bench, results) in &rows {
        assert_eq!(results.len(), 4, "{bench}: one result per design point");
        for r in results {
            let stack = r
                .cpi_stack
                .as_ref()
                .unwrap_or_else(|| panic!("{bench}: stack missing"));
            assert_eq!(
                stack.total_slots(),
                r.cycles * stack.commit_width,
                "{bench}: components must sum to cycles x commit_width"
            );
            assert_eq!(
                stack.slots("base"),
                r.committed,
                "{bench}: base slots must equal committed instructions"
            );
        }
    }
}

/// Test servers bind port 0; the kernel must hand every concurrently
/// running server its own ephemeral port (no fixed-port collisions
/// between test binaries), and each must serve the shared hub.
#[test]
fn metrics_servers_bind_distinct_ephemeral_ports() {
    let a = telemetry::global()
        .serve("127.0.0.1:0")
        .expect("first ephemeral bind");
    let b = telemetry::global()
        .serve("127.0.0.1:0")
        .expect("second ephemeral bind");
    assert_ne!(a.addr().port(), 0, "bind resolves the ephemeral port");
    assert_ne!(b.addr().port(), 0);
    assert_ne!(a.addr().port(), b.addr().port(), "ports must be distinct");
    for server in [&a, &b] {
        let (status, _) = http_get(server.addr(), "/metrics");
        assert!(status.contains("200"), "GET /metrics: {status}");
    }
}
