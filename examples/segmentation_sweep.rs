//! Segmentation design-space sweep: segment count × entries-per-segment,
//! at fixed total capacity and at the paper's per-segment size — the
//! ablation DESIGN.md calls out beyond the paper's single 4 × 28 point.
//!
//! ```text
//! cargo run --release --example segmentation_sweep [bench]
//! ```

use lsq::core::{SegAlloc, SegConfig};
use lsq::prelude::*;

fn run(bench: &str, lsq_cfg: LsqConfig) -> lsq::pipeline::SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::new(SimConfig::with_lsq(lsq_cfg));
    sim.prewarm(&stream.data_regions(), stream.code_region());
    sim.measure(&mut stream, 60_000, 150_000)
}

fn seg(segments: usize, entries: usize) -> LsqConfig {
    LsqConfig {
        segmentation: Some(SegConfig {
            segments,
            entries_per_segment: entries,
            alloc: SegAlloc::SelfCircular,
        }),
        ..LsqConfig::default()
    }
}

fn main() {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "equake".to_string());
    let base = run(&bench, LsqConfig::default());
    println!("segmentation sweep on `{bench}` (self-circular; speedup vs 32-entry base)\n");
    println!(
        "{:<22} {:>9} {:>9} {:>14} {:>12}",
        "design", "capacity", "speedup", "1-seg searches", "IPC"
    );

    let report = |label: String, r: &lsq::pipeline::SimResult, capacity: usize| {
        println!(
            "{:<22} {:>9} {:>8.2}x {:>13.0}% {:>12.2}",
            label,
            capacity,
            r.speedup_over(&base),
            r.lsq.seg_search_fraction(0) * 100.0,
            r.ipc(),
        );
    };

    println!("-- fixed 112-entry capacity, varying segment count:");
    for (segments, entries) in [(2, 56), (4, 28), (8, 14)] {
        let r = run(&bench, seg(segments, entries));
        report(format!("{segments} x {entries}"), &r, segments * entries);
    }
    println!("-- the paper's 28-entry segments, varying count (capacity grows):");
    for segments in [1usize, 2, 4, 8] {
        let r = run(&bench, seg(segments, 28));
        report(format!("{segments} x 28"), &r, segments * 28);
    }
    println!(
        "\nThe paper's §3 trade-off: more segments buy capacity and aggregate \
         bandwidth but lengthen worst-case searches and shrink the head segment \
         (where early scheduling survives); 4 x 28 was their sweet spot."
    );
}
