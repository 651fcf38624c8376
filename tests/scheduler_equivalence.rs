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
//! and an entry refused for a resource keeps its ready bit, so it is
//! tried again next cycle just as the old scan skipped and revisited it.
//! These tests pin that equivalence across the design points that
//! stress every issue path: forwarding, squashes (memory-order,
//! load-load and invalidation), the load buffer, and segmented search.

use lsq::core::{LsqConfig, PredictorKind, SegAlloc};
use lsq::experiments::runner::diff_results;
use lsq::pipeline::{CpiStack, PipeviewRecorder, ProbeSet, SimConfig, SimResult, Simulator};
use lsq::trace::BenchProfile;

const WARMUP: u64 = 3_000;
const INSTRS: u64 = 10_000;

/// Runs `bench` × `lsq_cfg` with warm-up differencing, with either the
/// event scheduler (default) or the reference polling scheduler.
fn run(bench: &str, lsq_cfg: LsqConfig, polling: bool) -> SimResult {
    run_config(bench, SimConfig::with_lsq(lsq_cfg), polling)
}

/// Like [`run`], for a whole processor configuration.
fn run_config(bench: &str, cfg: SimConfig, polling: bool) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::new(cfg);
    if polling {
        sim.set_reference_scheduler();
    }
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let _ = sim.run(&mut stream, WARMUP);
    let before = sim.run(&mut stream, 0);
    let after = sim.run(&mut stream, INSTRS);
    diff_results(&before, &after)
}

/// Like [`run`], but with the cycle accountant attached, so the
/// differenced result carries a CPI stack for the measured window.
fn run_accounted(bench: &str, lsq_cfg: LsqConfig, polling: bool) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let probe = ProbeSet {
        acct: Some(CpiStack::default()),
        ..ProbeSet::default()
    };
    let mut sim = Simulator::with_probe(SimConfig::with_lsq(lsq_cfg), probe);
    if polling {
        sim.set_reference_scheduler();
    }
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let _ = sim.run(&mut stream, WARMUP);
    let before = sim.run(&mut stream, 0);
    let after = sim.run(&mut stream, INSTRS);
    diff_results(&before, &after)
}

/// Like [`run`], but with the lifecycle recorder attached, so the
/// differenced result carries per-stage latency histograms.
fn run_recorded(bench: &str, lsq_cfg: LsqConfig, polling: bool) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let probe = ProbeSet {
        life: Some(PipeviewRecorder::new(4096)),
        ..ProbeSet::default()
    };
    let mut sim = Simulator::with_probe(SimConfig::with_lsq(lsq_cfg), probe);
    if polling {
        sim.set_reference_scheduler();
    }
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let _ = sim.run(&mut stream, WARMUP);
    let before = sim.run(&mut stream, 0);
    let after = sim.run(&mut stream, INSTRS);
    diff_results(&before, &after)
}

fn design_points() -> Vec<(&'static str, LsqConfig)> {
    vec![
        ("conventional2", LsqConfig::default()),
        (
            "pair",
            LsqConfig {
                predictor: PredictorKind::Pair,
                ..LsqConfig::default()
            },
        ),
        ("lb1", LsqConfig::with_techniques(1)),
        ("segmented", LsqConfig::segmented(SegAlloc::SelfCircular)),
    ]
}

fn assert_equivalent(bench: &str) {
    let points = design_points().into_iter();
    assert_agree(
        bench,
        points.map(|(label, cfg)| (label, SimConfig::with_lsq(cfg))),
    );
}

/// Runs `bench` at every point under both schedulers, asserts that they
/// agree, and returns the event scheduler's results.
fn assert_agree(
    bench: &str,
    points: impl Iterator<Item = (&'static str, SimConfig)>,
) -> Vec<SimResult> {
    points
        .map(|(label, cfg)| {
            let event = run_config(bench, cfg.clone(), false);
            let polling = run_config(bench, cfg, true);
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
            let plain = run(bench, cfg, false);
            let mut accounted = run_accounted(bench, cfg, false);
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
            let plain = run(bench, cfg, false);
            let mut recorded = run_recorded(bench, cfg, false);
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
        let event = run_accounted("gzip", cfg, false);
        let polling = run_accounted("gzip", cfg, true);
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

/// A jump must stop at the cycle cap exactly where stepping stops.
#[test]
fn schedulers_agree_at_the_cycle_cap() {
    for (label, lsq_cfg) in design_points() {
        let capped = |polling: bool| {
            let profile = BenchProfile::named("art").expect("known benchmark");
            let mut stream = profile.stream(1);
            let mut cfg = SimConfig::with_lsq(lsq_cfg);
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
