//! The event-driven scheduler must be architecturally invisible: every
//! counter in [`SimResult`] must be bit-identical to the reference
//! polling scheduler.
//!
//! Both run the one select loop in `Simulator::issue`; they differ only
//! in where its candidates come from. Event mode takes the ready mask
//! that wakeup maintains (waiter lists counting consumers down, a
//! completion calendar setting ready bits). The reference re-checks
//! every waiting entry's dependences against the ROB each cycle, the way
//! the simulator originally worked, and in debug builds (so in these
//! tests) asserts every cycle that it found exactly the ready mask.
//!
//! The argument for why they agree: all execution latencies are at
//! least one cycle, so no instruction becomes ready as a consequence of
//! a same-cycle issue — the candidate set is fixed when the cycle
//! starts. Select walks it oldest first, from the ROB head's slot round,
//! and an entry refused for a port or unit keeps its ready bit, so it is
//! tried again next cycle just as the old scan skipped and revisited it.
//! A load refused for a reason that holds until a known event (store-set
//! gating, a full load buffer, in-order issue) is parked instead: select
//! still visits it, but only counts the refusal, and jumped cycles count
//! it in bulk. The reference never parks, so these tests pin parking,
//! unparking and bulk counting too. They cover the design points that
//! stress every issue path: forwarding, squashes (memory-order,
//! load-load and invalidation), the load buffer, in-order issue, and
//! segmented search.

use lsq::core::{LoadOrderPolicy, LsqConfig, SegAlloc, SegConfig};
use lsq::experiments::experiments::design_points as standard_points;
use lsq::pipeline::{
    CpiStack, NopProbe, PipeviewRecorder, Probe, ProbeSet, SimConfig, SimResult, Simulator,
};
use lsq::trace::BenchProfile;

const WARMUP: u64 = 3_000;
const INSTRS: u64 = 10_000;

/// Runs `bench` on `cfg` reporting to `probe`, measured after a warm-up,
/// with either the event scheduler (default) or the reference polling
/// scheduler.
fn run(bench: &str, cfg: SimConfig, polling: bool, probe: impl Probe) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::with_probe(cfg, probe);
    if polling {
        sim.set_reference_scheduler();
    }
    sim.prewarm(&stream.data_regions(), stream.code_region());
    sim.measure(&mut stream, WARMUP, INSTRS)
}

/// The cycle accountant: a run's result carries a CPI stack for the
/// measured window.
fn accountant() -> ProbeSet {
    ProbeSet {
        acct: Some(CpiStack::default()),
        ..ProbeSet::default()
    }
}

/// The lifecycle recorder: a run's result carries per-stage latency
/// histograms for the measured window.
fn recorder() -> ProbeSet {
    ProbeSet {
        life: Some(PipeviewRecorder::new(4096)),
        ..ProbeSet::default()
    }
}

/// The four standard design points on the base processor.
fn design_points() -> Vec<(&'static str, SimConfig)> {
    standard_points()
        .into_iter()
        .map(|(label, lsq)| (label, SimConfig::with_lsq(lsq)))
        .collect()
}

fn assert_equivalent(bench: &str) {
    assert_agree(bench, design_points().into_iter());
}

/// Runs `bench` at every point under both schedulers, asserts that they
/// agree, and returns the event scheduler's results.
fn assert_agree(
    bench: &str,
    points: impl Iterator<Item = (&'static str, SimConfig)>,
) -> Vec<SimResult> {
    points
        .map(|(label, cfg)| {
            let event = run(bench, cfg.clone(), false, NopProbe);
            let polling = run(bench, cfg, true, NopProbe);
            // SimResult has no float-free Eq; the Debug rendering covers
            // every field (occupancy means included) exactly. wall_nanos
            // and sim_mips are both zero here — only the engine stamps
            // them — so the comparison is purely architectural.
            assert_eq!(
                format!("{event:?}"),
                format!("{polling:?}"),
                "{bench}/{label}: event scheduler diverged from polling reference"
            );
            assert!(event.committed >= INSTRS, "{bench}/{label}: run too short");
            event
        })
        .collect()
}

/// Cycle accounting is pure observability: attaching the accountant
/// must leave every architectural counter bit-identical, and the stack
/// it emits must partition the measured window exactly — components
/// sum to `cycles × commit_width`, with the base component equal to the
/// committed-instruction count. Checked across all four design points
/// (and two benchmarks, one cache-bound) so every stall-classification
/// path is exercised.
#[test]
fn accounting_is_invisible_and_partitions_every_slot() {
    for bench in ["gzip", "mcf"] {
        for (label, cfg) in design_points() {
            let plain = run(bench, cfg.clone(), false, NopProbe);
            let mut accounted = run(bench, cfg, false, accountant());
            let stack = accounted
                .cpi_stack
                .take()
                .expect("accounted run reports a CPI stack");
            assert_eq!(
                format!("{plain:?}"),
                format!("{accounted:?}"),
                "{bench}/{label}: accounting perturbed the simulation"
            );
            assert_eq!(
                stack.total_slots(),
                accounted.cycles * stack.commit_width,
                "{bench}/{label}: stack does not partition the window"
            );
            assert_eq!(
                stack.slots("base"),
                accounted.committed,
                "{bench}/{label}: base slots must equal committed instructions"
            );
        }
    }
}

/// The lifecycle recorder is pure observability, same contract as the
/// accountant: attaching it must leave every architectural counter
/// bit-identical across all four design points, and the stage-latency
/// histograms it emits must cover every committed instruction of the
/// measured window exactly once.
#[test]
fn lifecycle_recording_is_invisible_and_covers_every_commit() {
    for bench in ["gzip", "mcf"] {
        for (label, cfg) in design_points() {
            let plain = run(bench, cfg.clone(), false, NopProbe);
            let mut recorded = run(bench, cfg, false, recorder());
            let stages = recorded
                .stage_latency
                .take()
                .expect("recorded run reports stage latencies");
            assert_eq!(
                format!("{plain:?}"),
                format!("{recorded:?}"),
                "{bench}/{label}: lifecycle recording perturbed the simulation"
            );
            // Every committed instruction was dispatched and issued, and
            // the recorder was attached for the whole run, so the
            // windowed dispatch→issue histogram observes each exactly
            // once.
            let (name, dispatch_to_issue) = stages.stages()[0];
            assert_eq!(name, "dispatch_to_issue");
            assert_eq!(
                dispatch_to_issue.count(),
                recorded.committed,
                "{bench}/{label}: dispatch→issue must cover every committed instruction"
            );
        }
    }
}

/// The CPI stack is part of the architectural state the two schedulers
/// must agree on: an accounted event-driven run and an accounted
/// polling run must produce bit-identical stacks (the stack is in the
/// `SimResult` Debug rendering, so full-result equality covers it).
#[test]
fn accounted_schedulers_agree() {
    for (label, cfg) in design_points() {
        let event = run("gzip", cfg.clone(), false, accountant());
        let polling = run("gzip", cfg, true, accountant());
        assert!(event.cpi_stack.is_some(), "gzip/{label}: stack missing");
        assert_eq!(
            format!("{event:?}"),
            format!("{polling:?}"),
            "gzip/{label}: accounted schedulers diverged"
        );
    }
}

/// The Figure 12 design point (every technique, one search port) on
/// both processors, and the two squash sources besides memory order.
fn more_design_points() -> Vec<(&'static str, SimConfig)> {
    let all = LsqConfig::all_techniques_one_port();
    let load_load = LsqConfig {
        load_load_squash: true,
        ..LsqConfig::default()
    };
    let mut invalidating = SimConfig::with_lsq(LsqConfig::default());
    invalidating.invalidation_rate = 0.01;
    vec![
        ("all_techniques_one_port", SimConfig::with_lsq(all)),
        ("all_techniques_one_port/scaled", SimConfig::scaled(all)),
        ("load_load_squash", SimConfig::with_lsq(load_load)),
        ("invalidation", invalidating),
    ]
}

fn assert_more_equivalent(bench: &str) {
    let results = assert_agree(bench, more_design_points().into_iter());
    assert!(
        results.iter().any(|r| r.lsq.invalidation_squashes > 0),
        "{bench}: no invalidation squash"
    );
}

#[test]
fn gzip_more_design_points_agree() {
    assert_more_equivalent("gzip");
}

#[test]
fn mcf_more_design_points_agree() {
    assert_more_equivalent("mcf");
}

/// `gzip` and `mcf` make no same-word loads out of order in their
/// windows; `bzip` does, so the load-load squash itself is compared.
#[test]
fn load_load_squashes_agree() {
    let cfg = SimConfig::with_lsq(LsqConfig {
        load_load_squash: true,
        ..LsqConfig::default()
    });
    let results = assert_agree("bzip", [("load_load_squash", cfg)].into_iter());
    assert!(
        results[0].lsq.load_load_violations > 0,
        "bzip: no load-load squash"
    );
}

#[test]
fn gzip_schedulers_agree() {
    assert_equivalent("gzip");
}

#[test]
fn mcf_schedulers_agree() {
    assert_equivalent("mcf");
}

#[test]
fn mgrid_schedulers_agree() {
    assert_equivalent("mgrid");
}

// The polling reference steps every cycle; the event scheduler jumps the
// clock over cycles in which nothing can happen. On these memory-bound
// benchmarks most cycles are jumped, so agreement pins the jump.

#[test]
fn art_schedulers_agree() {
    assert_equivalent("art");
}

#[test]
fn ammp_schedulers_agree() {
    assert_equivalent("ammp");
}

/// Runs `bench` at `points` under both schedulers and asserts that they
/// agree and that every point refused loads in each way `refusals`
/// reads, so that parking was exercised, not just configured.
fn assert_parking_agrees(
    bench: &str,
    points: Vec<(&'static str, SimConfig)>,
    refusals: impl Fn(&SimResult) -> [u64; 2],
) {
    let labels: Vec<&str> = points.iter().map(|p| p.0).collect();
    for (label, r) in labels.iter().zip(assert_agree(bench, points.into_iter())) {
        let n = refusals(&r);
        assert!(n.iter().all(|&n| n > 0), "{bench}/{label}: refusals {n:?}");
    }
}

/// Loads parked on a full load buffer and on predicted stores, at the
/// `lb1` point.
fn lb1() -> Vec<(&'static str, SimConfig)> {
    vec![("lb1", SimConfig::with_lsq(LsqConfig::with_techniques(1)))]
}

fn lb_and_store_set(r: &SimResult) -> [u64; 2] {
    [r.lsq.lb_full_stalls, r.lsq.store_set_waits]
}

#[test]
fn gzip_lb1_parking_agrees() {
    assert_parking_agrees("gzip", lb1(), lb_and_store_set);
}

#[test]
fn vpr_lb1_parking_agrees() {
    assert_parking_agrees("vpr", lb1(), lb_and_store_set);
}

/// `mcf` at the Figure 12 point, base and scaled: most of its load-buffer
/// refusals come from loads that search the segmented store queue, whose
/// port checks run again on every visit and through the first cycles of
/// a jump.
#[test]
fn mcf_figure12_parking_agrees() {
    let all = LsqConfig::all_techniques_one_port();
    let points = vec![
        ("all_techniques_one_port", SimConfig::with_lsq(all)),
        ("all_techniques_one_port/scaled", SimConfig::scaled(all)),
    ];
    assert_parking_agrees("mcf", points, |r| {
        [r.lsq.lb_full_stalls, r.lsq.sq_port_stalls]
    });
}

/// Loads parked on in-order issue, with and without the load-queue
/// search behind it.
#[test]
fn in_order_parking_agrees() {
    let in_order = |policy| {
        SimConfig::with_lsq(LsqConfig {
            load_order: policy,
            ..LsqConfig::default()
        })
    };
    let points = vec![
        ("in_order", in_order(LoadOrderPolicy::InOrderNoSearch)),
        (
            "in_order_search",
            in_order(LoadOrderPolicy::InOrderAlwaysSearch),
        ),
    ];
    assert_parking_agrees("gzip", points, |r| {
        [r.lsq.in_order_stalls, r.lsq.store_set_waits]
    });
}

/// Runs `instrs` instructions of `bench` on `lsq` from a cold start (the
/// windows below are where they first occur, so no warm-up precedes
/// them) under both schedulers, and asserts that they agree.
fn assert_cold_agree(bench: &str, lsq: LsqConfig, instrs: u64) {
    let [event, polling] = [false, true].map(|polling| {
        let profile = BenchProfile::named(bench).expect("known benchmark");
        let mut stream = profile.stream(1);
        let mut sim = Simulator::new(SimConfig::with_lsq(lsq));
        if polling {
            sim.set_reference_scheduler();
        }
        sim.prewarm(&stream.data_regions(), stream.code_region());
        sim.run(&mut stream, instrs)
    });
    assert_eq!(format!("{event:?}"), format!("{polling:?}"));
}

/// A parked load-buffer refusal is retried with the store-queue port
/// checks that precede it, and those can refuse it: with no predictor
/// every load searches the one-ported no-self-circular queue, and `mcf`
/// first meets such a refusal about 146k instructions in.
#[test]
fn parked_loads_meet_busy_store_queue_ports() {
    let lsq = LsqConfig {
        ports: 1,
        load_order: LoadOrderPolicy::LoadBuffer(2),
        segmentation: LsqConfig::segmented(SegAlloc::NoSelfCircular).segmentation,
        ..LsqConfig::default()
    };
    assert_cold_agree("mcf", lsq, 150_000);
}

/// A jump can begin while a search issued just before it still holds
/// store-queue ports in the cycles it skips. A load parked on the full
/// load buffer whose search would start in a held segment is refused
/// `NoSqPort` there, not `LbFull`, so those cycles are retried one by
/// one instead of counted in bulk. Four 2-entry self-circular segments
/// make three-segment searches common; with one port and no predictor
/// every load searches, and `vortex` first meets the case about 5k
/// instructions in.
#[test]
fn jumps_retry_parked_loads_while_store_queue_ports_are_held() {
    let lsq = LsqConfig {
        ports: 1,
        load_order: LoadOrderPolicy::LoadBuffer(2),
        segmentation: Some(SegConfig {
            segments: 4,
            entries_per_segment: 2,
            alloc: SegAlloc::SelfCircular,
        }),
        ..LsqConfig::default()
    };
    assert_cold_agree("vortex", lsq, 10_000);
}

/// A parked load's visit records the same head stall as a full attempt,
/// so accounted runs (which step every cycle) agree with the reference
/// on their CPI stacks, at the load-buffer points.
#[test]
fn accounted_parking_agrees() {
    let points = [
        ("lb1", LsqConfig::with_techniques(1)),
        (
            "all_techniques_one_port",
            LsqConfig::all_techniques_one_port(),
        ),
    ];
    for bench in ["gzip", "mcf"] {
        for (label, lsq) in points {
            let cfg = SimConfig::with_lsq(lsq);
            let event = run(bench, cfg.clone(), false, accountant());
            let polling = run(bench, cfg, true, accountant());
            assert!(event.cpi_stack.is_some(), "{bench}/{label}: stack missing");
            assert!(
                event.lsq.lb_full_stalls > 0,
                "{bench}/{label}: no load parked on the load buffer"
            );
            assert_eq!(
                format!("{event:?}"),
                format!("{polling:?}"),
                "{bench}/{label}: accounted schedulers diverged"
            );
        }
    }
}

/// A jump must stop at the cycle cap exactly where stepping stops.
#[test]
fn schedulers_agree_at_the_cycle_cap() {
    for (label, point) in design_points() {
        let capped = |polling: bool| {
            let profile = BenchProfile::named("art").expect("known benchmark");
            let mut stream = profile.stream(1);
            let mut cfg = point.clone();
            cfg.cycle_cap_per_instr = 1;
            let mut sim = Simulator::new(cfg);
            if polling {
                sim.set_reference_scheduler();
            }
            sim.prewarm(&stream.data_regions(), stream.code_region());
            sim.run(&mut stream, 3 * INSTRS)
        };
        let (event, polling) = (capped(false), capped(true));
        assert!(event.hit_cycle_cap, "art/{label}: budget too loose to cap");
        assert_eq!(
            (event.cycles, event.hit_cycle_cap),
            (polling.cycles, polling.hit_cycle_cap),
            "art/{label}: capped runs stopped at different cycles"
        );
        assert_eq!(format!("{event:?}"), format!("{polling:?}"), "art/{label}");
    }
}
