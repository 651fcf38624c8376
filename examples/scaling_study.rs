//! Scaling study (the paper's §4.3 / Figure 12 scenario on selected
//! benchmarks): as the processor widens and L1 latency grows, pressure on
//! the load/store queue rises, and the three techniques pay off more.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use lsq::prelude::*;

fn run(bench: &str, scaled: bool, lsq_cfg: LsqConfig) -> lsq::pipeline::SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let cfg = if scaled {
        SimConfig::scaled(lsq_cfg)
    } else {
        SimConfig::with_lsq(lsq_cfg)
    };
    let mut sim = Simulator::new(cfg);
    sim.prewarm(&stream.data_regions(), stream.code_region());
    sim.measure(&mut stream, 60_000, 150_000)
}

fn main() {
    let benches = ["gcc", "perl", "equake", "mgrid", "swim"];
    println!("All three techniques (pair predictor + 2-entry load buffer + self-circular");
    println!("4x28 segmentation) on a ONE-ported LSQ, vs the conventional two-ported LSQ,");
    println!("on the base (8-wide) and scaled (12-wide, 96-entry IQ, 3-cycle L1) cores.\n");
    println!(
        "{:<10} {:>14} {:>14} {:>16} {:>16}",
        "bench", "base speedup", "scaled speedup", "LQ occupancy", "(scaled LQ occ.)"
    );
    for bench in benches {
        let base_conv = run(bench, false, LsqConfig::default());
        let base_tech = run(bench, false, LsqConfig::all_techniques_one_port());
        let scaled_conv = run(bench, true, LsqConfig::default());
        let scaled_tech = run(bench, true, LsqConfig::all_techniques_one_port());
        println!(
            "{:<10} {:>13.2}x {:>13.2}x {:>16.1} {:>16.1}",
            bench,
            base_tech.speedup_over(&base_conv),
            scaled_tech.speedup_over(&scaled_conv),
            base_tech.lq_occupancy,
            scaled_tech.lq_occupancy,
        );
    }
    println!(
        "\nThe paper's claim: the scaled processor keeps more memory instructions in \
         flight, so the capacity (segmentation) and bandwidth (predictor + load \
         buffer) techniques gain more — especially on floating-point codes."
    );
}
