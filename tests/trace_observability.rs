//! End-to-end checks of the observability subsystem: traced runs must
//! reproduce untraced counters exactly, the serialized trace formats
//! must parse, the windowed timeline must partition the run so per-window
//! IPC sums back to the aggregate, and the per-PC attribution must point
//! at the offending static instruction.

use lsq::experiments::experiments::design_points;
use lsq::isa::{Addr, ArchReg, InstrKind, Instruction, Pc, VecStream};
use lsq::obs::{timeline_csv, Event, Json, MissLevel, Sampler, TraceBuffer, TraceConfig, TIMELINE};
use lsq::pipeline::{
    Component, CpiStack, NopProbe, PhaseProfile, PipeviewRecorder, Probe, ProbeSet,
};
use lsq::prelude::*;

/// A loop whose store's data arrives late, so the same-address load
/// issues prematurely and triggers memory-order violations (the shape
/// used by the pipeline's own squash tests).
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

/// Runs the violation workload with a tracer and sampler attached,
/// returning the result, the trace snapshot, and the flushed sampler.
fn traced_run(iters: u64, window: u64) -> (lsq::pipeline::SimResult, TraceBuffer, Sampler) {
    let instrs = violation_workload(iters);
    let n = instrs.len() as u64;
    let mut stream = VecStream::new(instrs);
    let probe = ProbeSet {
        trace: Some(TraceBuffer::new()),
        sampler: Some(Sampler::new(window, &TIMELINE)),
        ..ProbeSet::default()
    };
    let mut sim = Simulator::with_probe(SimConfig::default(), probe);
    let r = sim.run(&mut stream, n);
    let mut probe = sim.into_probe();
    let sampler = probe.take_sampler().expect("sampler was set");
    (r, probe.trace.expect("ring was set"), sampler)
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let instrs = violation_workload(100);
    let n = instrs.len() as u64;
    let mut plain_stream = VecStream::new(instrs);
    let mut plain = Simulator::new(SimConfig::default());
    let p = plain.run(&mut plain_stream, n);
    let (t, buf, _) = traced_run(100, 64);
    assert_eq!(p.cycles, t.cycles);
    assert_eq!(p.committed, t.committed);
    assert_eq!(p.violation_squashes, t.violation_squashes);
    assert_eq!(p.lsq.sq_searches, t.lsq.sq_searches);
    assert_eq!(p.lsq.violations, t.lsq.violations);
    assert!(buf.total() > 0, "the traced twin actually recorded events");
}

#[test]
fn jsonl_trace_parses_line_by_line() {
    let (r, buf, _) = traced_run(60, 128);
    let jsonl = buf.to_jsonl();
    let mut names = std::collections::HashSet::new();
    let mut lines = 0u64;
    for line in jsonl.lines() {
        let v = Json::parse(line).expect("every JSONL line is valid JSON");
        let cycle = v.get("cycle").and_then(Json::as_u64).expect("cycle field");
        assert!(cycle <= r.cycles, "cycle {cycle} within the run");
        names.insert(
            v.get("event")
                .and_then(Json::as_str)
                .expect("event field")
                .to_string(),
        );
        lines += 1;
    }
    assert_eq!(lines as usize, buf.len());
    for expected in ["dispatch", "issue", "sq_search", "violation", "squash"] {
        assert!(names.contains(expected), "missing event kind {expected}");
    }
}

#[test]
fn chrome_trace_parses_and_carries_lane_metadata() {
    let (_, buf, sampler) = traced_run(60, 128);
    let parsed = Json::parse(&buf.to_chrome_trace()).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // 6 thread_name metadata rows precede the payload events.
    let meta: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .collect();
    assert_eq!(meta.len(), 6, "one metadata row per lane");
    let payload: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .collect();
    assert_eq!(payload.len(), buf.len());
    for e in payload {
        let ph = e.get("ph").and_then(Json::as_str).expect("phase");
        assert!(ph == "i" || ph == "X", "instant or complete, got {ph}");
        assert!(e.get("ts").and_then(Json::as_u64).is_some(), "timestamp");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "name");
        let tid = e.get("tid").and_then(Json::as_u64).expect("lane");
        assert!(tid < 6, "lane {tid} in range");
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_u64).unwrap() >= 1);
        }
    }
    // The CSV sidecar is also well-formed.
    let csv = timeline_csv(&sampler);
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "start_cycle,end_cycle,cycles,committed,ipc,lq_occupancy,sq_occupancy,\
         inflight_loads,sq_searches,lq_searches"
    );
    assert!(lines.next().is_some(), "at least one data row");
}

#[test]
fn windowed_ipc_sums_back_to_aggregate_ipc() {
    let (r, _, sampler) = traced_run(120, 64);
    let rows = sampler.rows();
    assert!(rows.len() >= 2, "run spans several windows");
    let cycles: u64 = rows.iter().map(|w| w.cycles).sum();
    let committed: u64 = rows.iter().map(|w| w.deltas[0]).sum();
    assert_eq!(cycles, r.cycles, "windows partition the run's cycles");
    assert_eq!(committed, r.committed, "windows partition commits");
    let windowed_ipc = committed as f64 / cycles as f64;
    assert!(
        (windowed_ipc - r.ipc()).abs() < 1e-12,
        "windowed {windowed_ipc} vs aggregate {}",
        r.ipc()
    );
    // The last (partial) window still ends at the final cycle.
    assert_eq!(rows.last().unwrap().end_cycle, r.cycles);
}

#[test]
fn attribution_points_at_the_violating_loads() {
    let (r, buf, _) = traced_run(200, 256);
    assert!(r.violation_squashes > 0, "workload must squash");
    let attrib = buf.attribution();
    assert!(!attrib.is_empty());
    // Every violating load in the workload sits at pc % 32 == 12.
    let top = attrib.top(4);
    assert!(!top.is_empty());
    let squashed_pcs: Vec<u64> = top
        .iter()
        .filter(|(_, c)| c.squashes > 0)
        .map(|(pc, _)| *pc)
        .collect();
    assert!(!squashed_pcs.is_empty(), "squashes are attributed");
    for pc in &squashed_pcs {
        assert_eq!(pc % 32, 12, "squash attributed to a load PC (got {pc:#x})");
    }
    let report = attrib.report(4);
    assert!(report.contains("pc"), "report has a header");
}

#[test]
fn trace_config_writes_parseable_files() {
    let dir = std::env::temp_dir().join("lsq_trace_obs_test");
    let _ = std::fs::remove_dir_all(&dir);
    let chrome = dir.join("run.json");
    let cfg = TraceConfig::parse(&format!("{}:chrome", chrome.display()), Some("64"));
    let (_, buf, sampler) = traced_run(60, 64);
    let written = cfg.write(&buf, Some(&sampler)).expect("write succeeds");
    assert_eq!(written.len(), 2, "chrome file plus timeline sidecar");
    let text = std::fs::read_to_string(&chrome).unwrap();
    assert!(Json::parse(&text).is_ok(), "written chrome trace parses");
    let timeline = std::fs::read_to_string(cfg.timeline_path()).unwrap();
    assert!(timeline.starts_with("start_cycle,"));
    assert!(timeline.lines().count() >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nop_tracer_interface_is_inert() {
    // The default-tracer simulator compiles and runs with no ring at
    // all; this is the configuration the benchmarks measure.
    let mut sampler = Sampler::new(4, &TIMELINE);
    sampler.observe(1, &[2, 0, 0, 0, 0]);
    sampler.flush();
    assert_eq!(sampler.rows().len(), 1);
    let buf = TraceBuffer::new();
    assert!(buf.is_empty());
    let _ = Event::LbSearch { load: 1 };
}

/// Runs `bench` on design point `lsq` for `n` instructions with `probe`
/// attached, returning the cumulative result and the probe.
fn probed_run<P: Probe>(bench: &str, lsq: LsqConfig, n: u64, probe: P) -> (SimResult, P) {
    let mut stream = BenchProfile::named(bench)
        .expect("known benchmark")
        .stream(3);
    let mut sim = Simulator::with_probe(SimConfig::with_lsq(lsq), probe);
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let r = sim.run(&mut stream, n);
    (r, sim.into_probe())
}

/// Every event the ring records mirrors a counter: with a ring large
/// enough to drop nothing, each event kind occurs exactly as often as
/// the counter it stands for, on every design point.
#[test]
fn trace_events_mirror_their_counters() {
    let mut seen = [0u64; 5];
    for (label, lsq) in design_points() {
        for bench in ["gcc", "vortex"] {
            let ring = ProbeSet {
                trace: Some(TraceBuffer::with_capacity(1 << 24)),
                ..ProbeSet::default()
            };
            let (r, probe) = probed_run(bench, lsq, 20_000, ring);
            let buf = probe.trace.expect("ring was set");
            assert_eq!(
                buf.dropped(),
                0,
                "{bench}/{label}: ring must hold every event"
            );
            let count = |f: fn(&Event) -> bool| buf.events().filter(|e| f(&e.event)).count() as u64;
            let pairs = [
                (
                    "forward",
                    count(|e| matches!(e, Event::Forward { .. })),
                    r.lsq.sq_search_hits,
                ),
                (
                    "violation",
                    count(|e| matches!(e, Event::Violation { .. })),
                    r.lsq.violations,
                ),
                (
                    "useless_search",
                    count(|e| matches!(e, Event::UselessSearch { .. })),
                    r.lsq.useless_searches,
                ),
                (
                    "squash",
                    count(|e| matches!(e, Event::Squash { .. })),
                    r.violation_squashes,
                ),
                (
                    "dispatch",
                    count(|e| matches!(e, Event::Dispatch { .. })),
                    r.lsq.loads_dispatched + r.lsq.stores_dispatched,
                ),
            ];
            for (i, (name, events, counter)) in pairs.into_iter().enumerate() {
                assert_eq!(events, counter, "{bench}/{label}: {name} events vs counter");
                seen[i] += events;
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every event kind occurred: {seen:?}"
    );
}

/// Prewarming the caches records nothing; afterwards every L1 miss is
/// traced once, with the level that served it, for data accesses and
/// instruction fetches alike, and L1 hits are not traced.
#[test]
fn cache_misses_are_traced_but_prewarm_is_silent() {
    let ring = ProbeSet {
        trace: Some(TraceBuffer::new()),
        ..ProbeSet::default()
    };
    let mut sim = Simulator::with_probe(SimConfig::default(), ring);
    // 256 KiB overflows the 64 KiB L1D but fits the L2, so the region's
    // first block ends up L2-resident only.
    sim.prewarm(&[(0x10_0000, 256 << 10)], (0x1000, 64));
    let ring = sim.probe_mut().trace.as_ref().expect("ring was set");
    assert_eq!(ring.total(), 0, "prewarm is silent");

    let instrs = vec![
        Instruction::load(Pc(0x1000), Addr(0x10_0000)).with_dst(ArchReg::int(1)),
        Instruction::load(Pc(0x1004), Addr(0x30_0000)).with_dst(ArchReg::int(2)),
        Instruction::load(Pc(0x1008), Addr(0x30_0000)).with_dst(ArchReg::int(3)),
        Instruction::op(Pc(0x10_0100), InstrKind::IntAlu),
        Instruction::op(Pc(0x40_0000), InstrKind::IntAlu),
    ];
    let n = instrs.len() as u64;
    let r = sim.run(&mut VecStream::new(instrs), n);
    assert_eq!(r.committed, n);
    let buf = sim.into_probe().trace.expect("ring was set");
    let mut misses: Vec<Event> = buf
        .events()
        .map(|e| e.event)
        .filter(|e| matches!(e, Event::CacheMiss { .. }))
        .collect();
    let miss = |addr, level, fetch| Event::CacheMiss {
        addr: Addr(addr),
        level,
        fetch,
    };
    // Data: an L2 hit, a memory miss, then an L1 hit (no event). Fetch:
    // the prewarmed code block hits; a block of the prewarmed data region
    // is in the L2; a cold block goes to memory.
    let expected = [
        miss(0x10_0000, MissLevel::L2, false),
        miss(0x30_0000, MissLevel::Memory, false),
        miss(0x10_0100, MissLevel::L2, true),
        miss(0x40_0000, MissLevel::Memory, true),
    ];
    for e in expected {
        let at = misses
            .iter()
            .position(|m| *m == e)
            .unwrap_or_else(|| panic!("missing {e:?}"));
        misses.remove(at);
    }
    assert!(misses.is_empty(), "unexpected cache misses: {misses:?}");
}

/// A probe set with every recorder attached is pure observability: the
/// simulated result equals the unobserved run's on every design point,
/// apart from the reports only the recorders produce.
#[test]
fn all_recorders_on_match_the_nop_probe() {
    for (label, lsq) in design_points() {
        let (plain, _) = probed_run("gcc", lsq, 20_000, NopProbe);
        let all = ProbeSet {
            trace: Some(TraceBuffer::with_capacity(1 << 10)),
            sampler: Some(Sampler::new(500, &TIMELINE)),
            timer: Some(PhaseProfile::default()),
            acct: Some(CpiStack::default()),
            cpi_sampler: Some(Sampler::new(500, &Component::NAMES)),
            life: Some(PipeviewRecorder::new(1 << 10)),
            ..ProbeSet::default()
        };
        let (mut observed, _) = probed_run("gcc", lsq, 20_000, all);
        assert!(observed.profile.take().is_some(), "{label}: profile");
        assert!(observed.cpi_stack.take().is_some(), "{label}: cpi stack");
        assert!(observed.stage_latency.take().is_some(), "{label}: stages");
        assert!(observed.critical_path.take().is_some(), "{label}: chain");
        assert_eq!(
            format!("{plain:?}"),
            format!("{observed:?}"),
            "{label}: observing perturbed the simulation"
        );
    }
}
