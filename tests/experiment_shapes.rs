//! Shape tests: re-run scaled-down versions of the paper's key
//! comparisons and assert the qualitative results the paper reports.
//! (The full-budget runs live in `lsq-experiments`' binaries; these use
//! small instruction budgets so `cargo test` stays fast, and assert only
//! directions/orderings, not magnitudes.)

use lsq::core::{LoadOrderPolicy, LsqConfig, PredictorKind, SegAlloc};
use lsq::prelude::*;

const WARMUP: u64 = 10_000;
const INSTRS: u64 = 25_000;

fn run(bench: &str, lsq_cfg: LsqConfig) -> lsq::pipeline::SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::new(SimConfig::with_lsq(lsq_cfg));
    sim.prewarm(&stream.data_regions(), stream.code_region());
    sim.measure(&mut stream, WARMUP, INSTRS)
}

/// Figure 6 shape: search-demand ordering perfect < pair < conventional,
/// and every predictor removes most searches.
#[test]
fn fig6_shape_predictors_cut_sq_demand() {
    for bench in ["gcc", "mgrid"] {
        let base = run(bench, LsqConfig::default());
        let perfect = run(
            bench,
            LsqConfig {
                predictor: PredictorKind::Perfect,
                ..LsqConfig::default()
            },
        );
        let pair = run(
            bench,
            LsqConfig {
                predictor: PredictorKind::Pair,
                ..LsqConfig::default()
            },
        );
        let b = base.lsq.sq_searches as f64;
        let p = perfect.lsq.sq_searches as f64 / b;
        let q = pair.lsq.sq_searches as f64 / b;
        assert!(p < 0.6, "{bench}: perfect demand {p:.2}");
        assert!(q < 0.8, "{bench}: pair demand {q:.2}");
        assert!(
            p <= q + 0.05,
            "{bench}: perfect ({p:.2}) must not exceed pair ({q:.2})"
        );
    }
}

/// Figure 8 shape: the 2-entry load buffer removes most load-queue
/// searches; mgrid (load-heavy) reduces more than vortex (store-heavy).
#[test]
fn fig8_shape_load_buffer_cuts_lq_demand() {
    let lb = LsqConfig {
        load_order: LoadOrderPolicy::LoadBuffer(2),
        ..LsqConfig::default()
    };
    let mut ratios = std::collections::HashMap::new();
    for bench in ["mgrid", "vortex"] {
        let base = run(bench, LsqConfig::default());
        let with_lb = run(bench, lb);
        let ratio = with_lb.lsq.lq_searches() as f64 / base.lsq.lq_searches().max(1) as f64;
        assert!(ratio < 0.75, "{bench}: LQ demand ratio {ratio:.2}");
        ratios.insert(bench, ratio);
    }
    assert!(
        ratios["mgrid"] < ratios["vortex"],
        "load-heavy mgrid ({:.2}) must reduce more than store-heavy vortex ({:.2})",
        ratios["mgrid"],
        ratios["vortex"]
    );
}

/// Figure 9 shape: in-order load issue is worse than the 2-entry load
/// buffer, and 4 entries is at least as good as 1.
#[test]
fn fig9_shape_load_buffer_sizing() {
    let bench = "equake";
    let mk = |o| LsqConfig {
        load_order: o,
        ..LsqConfig::default()
    };
    let in_order = run(bench, mk(LoadOrderPolicy::InOrderAlwaysSearch));
    let lb2 = run(bench, mk(LoadOrderPolicy::LoadBuffer(2)));
    let lb4 = run(bench, mk(LoadOrderPolicy::LoadBuffer(4)));
    assert!(
        lb2.ipc() > in_order.ipc(),
        "2-entry buffer ({:.2}) must beat in-order issue ({:.2})",
        lb2.ipc(),
        in_order.ipc()
    );
    assert!(
        lb4.ipc() >= lb2.ipc() * 0.97,
        "4 entries ({:.2}) must not fall below 2 entries ({:.2})",
        lb4.ipc(),
        lb2.ipc()
    );
}

/// Figure 10 shape: one conventional port loses clearly; adding both
/// techniques recovers most of the loss.
#[test]
fn fig10_shape_techniques_rescue_one_port() {
    let bench = "perl";
    let base = run(bench, LsqConfig::default());
    let one = run(bench, LsqConfig::conventional(1));
    let one_tech = run(bench, LsqConfig::with_techniques(1));
    assert!(
        one.ipc() < base.ipc() * 0.9,
        "1 port ({:.2}) must lose vs 2 ports ({:.2})",
        one.ipc(),
        base.ipc()
    );
    assert!(
        one_tech.ipc() > one.ipc() * 1.15,
        "techniques ({:.2}) must rescue the 1-port queue ({:.2})",
        one_tech.ipc(),
        one.ipc()
    );
}

/// Figure 11 shape: segmentation's capacity gains show on an FP benchmark
/// with heavy queue demand, and self-circular does not trail
/// no-self-circular.
#[test]
fn fig11_shape_segmentation_helps_fp() {
    let bench = "swim";
    let base = run(bench, LsqConfig::default());
    let nsc = run(bench, LsqConfig::segmented(SegAlloc::NoSelfCircular));
    let sc = run(bench, LsqConfig::segmented(SegAlloc::SelfCircular));
    assert!(
        sc.ipc() > base.ipc() * 1.05,
        "segmentation ({:.2}) must beat the 32-entry base ({:.2})",
        sc.ipc(),
        base.ipc()
    );
    assert!(
        sc.ipc() >= nsc.ipc() * 0.97,
        "self-circular ({:.2}) must not trail no-self-circular ({:.2})",
        sc.ipc(),
        nsc.ipc()
    );
}

/// Table 6 shape: under self-circular allocation, most forwarding
/// searches finish within one or two segments.
#[test]
fn table6_shape_searches_stay_local() {
    let r = run("gcc", LsqConfig::segmented(SegAlloc::SelfCircular));
    let h = &r.lsq.seg_search_hist;
    let within_two = h.fraction(0) + h.fraction(1);
    assert!(
        within_two > 0.8,
        "within-two-segments fraction {within_two:.2}"
    );
}

/// Table 5 shape: FP streaming codes need far more queue entries than
/// compact INT codes.
#[test]
fn table5_shape_fp_wants_more_capacity() {
    let unclamped = LsqConfig {
        lq_entries: 256,
        sq_entries: 256,
        ..LsqConfig::default()
    };
    let int = run("gcc", unclamped);
    let fp = run("mgrid", unclamped);
    assert!(
        fp.lq_occupancy > 1.5 * int.lq_occupancy,
        "mgrid LQ demand ({:.0}) must clearly exceed gcc's ({:.0})",
        fp.lq_occupancy,
        int.lq_occupancy
    );
}
