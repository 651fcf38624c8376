//! Port pressure study: how many LSQ search ports does a workload need,
//! and how far do the paper's techniques stretch a single port?
//!
//! Sweeps 1/2/4 search ports for the conventional LSQ and for the LSQ
//! with the store-load pair predictor + 2-entry load buffer, printing
//! IPC and the search counts that explain it (the Figure 10 mechanism on
//! one benchmark).
//!
//! ```text
//! cargo run --release --example port_pressure [bench]
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
        .unwrap_or_else(|| "perl".to_string());
    println!("LSQ search-port sweep on `{bench}`\n");
    println!(
        "{:<28} {:>5} {:>12} {:>12} {:>12}",
        "configuration", "IPC", "SQ searches", "LQ searches", "port stalls"
    );
    for ports in [1, 2, 4] {
        let r = run(&bench, LsqConfig::conventional(ports));
        println!(
            "{:<28} {:>5.2} {:>12} {:>12} {:>12}",
            format!("conventional, {ports} port(s)"),
            r.ipc(),
            r.lsq.sq_searches,
            r.lsq.lq_searches(),
            r.lsq.sq_port_stalls + r.lsq.lq_port_stalls,
        );
    }
    for ports in [1, 2, 4] {
        let r = run(&bench, LsqConfig::with_techniques(ports));
        println!(
            "{:<28} {:>5.2} {:>12} {:>12} {:>12}",
            format!("pair + load buffer, {ports} port(s)"),
            r.ipc(),
            r.lsq.sq_searches,
            r.lsq.lq_searches(),
            r.lsq.sq_port_stalls + r.lsq.lq_port_stalls,
        );
    }
    println!(
        "\nThe paper's claim (Figure 10): with the predictor filtering store-queue \
         searches and the load buffer absorbing load-load ordering searches, one \
         port performs like a conventional two-ported design."
    );
}
