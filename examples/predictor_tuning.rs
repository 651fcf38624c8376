//! Predictor tuning: ablations over the store-load pair predictor's
//! hardware budget — SSIT size and the width of the per-LFST-entry
//! counter the paper adds in §2.1.1 (a 3-bit counter was "large enough").
//!
//! ```text
//! cargo run --release --example predictor_tuning [bench]
//! ```

use lsq::prelude::*;

fn run(bench: &str, lsq_cfg: LsqConfig) -> lsq::pipeline::SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::new(SimConfig::with_lsq(lsq_cfg));
    sim.prewarm(&stream.data_regions(), stream.code_region());
    sim.measure(&mut stream, 60_000, 150_000)
}

fn main() {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "vortex".to_string());
    let base = run(&bench, LsqConfig::conventional(1));
    println!("pair-predictor hardware budget on `{bench}` (1-ported LSQ)\n");
    println!(
        "baseline (conventional, all loads search): IPC {:.2}\n",
        base.ipc()
    );

    println!("SSIT size sweep (counter = 3 bits):");
    println!(
        "{:>8} {:>6} {:>12} {:>10} {:>10}",
        "entries", "IPC", "SQ searches", "useless", "squashes"
    );
    for ssit in [256usize, 1024, 4096, 16384] {
        let mut cfg = LsqConfig::with_techniques(1);
        cfg.ssit_entries = ssit;
        let r = run(&bench, cfg);
        println!(
            "{:>8} {:>6.2} {:>12} {:>10} {:>10}",
            ssit,
            r.ipc(),
            r.lsq.sq_searches,
            r.lsq.useless_searches,
            r.lsq.commit_violations,
        );
    }

    println!("\ncounter width sweep (SSIT = 4K; width 0 emulates the single valid bit):");
    println!(
        "{:>8} {:>6} {:>12} {:>10}",
        "bits", "IPC", "SQ searches", "squashes"
    );
    for bits in [0u8, 1, 2, 3, 4] {
        let mut cfg = LsqConfig::with_techniques(1);
        cfg.counter_max = (1u16 << bits).saturating_sub(1).min(255) as u8;
        let r = run(&bench, cfg);
        println!(
            "{:>8} {:>6.2} {:>12} {:>10}",
            bits,
            r.ipc(),
            r.lsq.sq_searches,
            r.lsq.commit_violations,
        );
    }
    println!(
        "\nThe paper's §2.1.1/§2.1.2 claims: a single valid bit frees waiting loads \
         too early once multiple instances of one static store are in flight, while \
         a 3-bit counter suffices; the 4K-entry SSIT absorbs the extra pairs the \
         pair predictor stores beyond the plain store-set predictor."
    );
}
