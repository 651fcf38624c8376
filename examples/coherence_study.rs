//! Coherence study: the multiprocessor scenario that motivates load-load
//! ordering (paper §2.2), which the paper's uniprocessor evaluation never
//! fires. This repo implements both of the §2.2 schemes; this example
//! injects synthetic coherence invalidations (another processor writing
//! words we are reading) and shows (a) invalidation squashes hitting
//! outstanding loads, R10000-style, and (b) the load buffer detecting
//! same-address out-of-order loads exactly like the full load-queue
//! search, Alpha-style, at a fraction of the search bandwidth.
//!
//! ```text
//! cargo run --release --example coherence_study [bench]
//! ```

#![allow(clippy::field_reassign_with_default)] // configs tweak one field of a default

use lsq::core::LoadOrderPolicy;
use lsq::prelude::*;

fn run(bench: &str, lsq_cfg: LsqConfig, inval_rate: f64) -> lsq::pipeline::SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut cfg = SimConfig::with_lsq(lsq_cfg);
    cfg.invalidation_rate = inval_rate;
    let mut sim = Simulator::new(cfg);
    sim.prewarm(&stream.data_regions(), stream.code_region());
    sim.measure(&mut stream, 60_000, 150_000)
}

fn main() {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "twolf".to_string());

    println!("R10000-style invalidation squashes (scheme 2) on `{bench}`\n");
    println!(
        "{:>12} {:>6} {:>14} {:>14}",
        "inval rate", "IPC", "invalidations", "inval squashes"
    );
    for rate in [0.0, 0.002, 0.01, 0.05] {
        let r = run(&bench, LsqConfig::default(), rate);
        println!(
            "{:>12} {:>6.2} {:>14} {:>14}",
            format!("{rate}"),
            r.ipc(),
            r.lsq.invalidations,
            r.lsq.invalidation_squashes,
        );
    }

    println!("\nAlpha-style same-address ordering traps (scheme 1), with and without");
    println!("the load buffer standing in for the full load-queue search:\n");
    println!(
        "{:<26} {:>6} {:>12} {:>12} {:>12}",
        "design", "IPC", "LL traps", "LQ searches", "LB searches"
    );
    let mut conventional = LsqConfig::default();
    conventional.load_load_squash = true;
    let c = run(&bench, conventional, 0.0);
    println!(
        "{:<26} {:>6.2} {:>12} {:>12} {:>12}",
        "conventional (LQ search)",
        c.ipc(),
        c.lsq.load_load_violations,
        c.lsq.lq_searches_by_loads,
        c.lsq.lb_searches,
    );
    let mut with_lb = LsqConfig::default();
    with_lb.load_load_squash = true;
    with_lb.load_order = LoadOrderPolicy::LoadBuffer(2);
    let l = run(&bench, with_lb, 0.0);
    println!(
        "{:<26} {:>6.2} {:>12} {:>12} {:>12}",
        "2-entry load buffer",
        l.ipc(),
        l.lsq.load_load_violations,
        l.lsq.lq_searches_by_loads,
        l.lsq.lb_searches,
    );
    println!(
        "\nThe buffer confines the ordering check to the few out-of-order-issued \
         loads: same detection duty, no per-load search of the whole load queue."
    );
}
