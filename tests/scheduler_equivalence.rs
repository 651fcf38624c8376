//! The event-driven scheduler must be architecturally invisible: every
//! counter in [`SimResult`] must be bit-identical to the reference
//! polling scheduler (which re-scans the whole issue queue against the
//! ROB every cycle, the way the simulator originally worked).
//!
//! The argument for why they agree: all execution latencies are at
//! least one cycle, so no instruction becomes ready as a consequence of
//! a same-cycle issue — the set of ready instructions is fixed when the
//! cycle starts. The polling scan visits that set in program order; the
//! event scheduler pops a min-heap keyed by sequence number, which
//! yields the same order. Resource-stalled candidates are deferred and
//! re-queued, matching the scan's skip-and-revisit. These tests pin
//! that equivalence across the design points that stress every issue
//! path: forwarding, squashes, the load buffer, and segmented search.

use lsq::core::{LsqConfig, PredictorKind, SegAlloc};
use lsq::experiments::runner::diff_results;
use lsq::pipeline::{PipeviewRecorder, ProbeSet, SimConfig, SimResult, Simulator, SlotAccountant};
use lsq::trace::BenchProfile;

const WARMUP: u64 = 3_000;
const INSTRS: u64 = 10_000;

/// Runs `bench` × `lsq_cfg` with warm-up differencing, with either the
/// event scheduler (default) or the reference polling scheduler.
fn run(bench: &str, lsq_cfg: LsqConfig, polling: bool) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::new(SimConfig::with_lsq(lsq_cfg));
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
        acct: Some(SlotAccountant::new()),
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
    for (label, cfg) in design_points() {
        let event = run(bench, cfg, false);
        let polling = run(bench, cfg, true);
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
    }
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
