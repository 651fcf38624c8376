//! Reproduces tables and figures of the paper, selected by name.
//!
//! ```text
//! cargo run --release -p lsq-experiments --bin artifact -- fig10
//! cargo run --release -p lsq-experiments --bin artifact -- table3 table6
//! cargo run --release -p lsq-experiments --bin artifact -- all
//! ```
//!
//! `all` runs every artifact of `lsq_experiments::all`, in paper order.
//! `artifact list` (or `--list`) prints the names of
//! `lsq_experiments::ARTIFACTS`, one per line on stdout; with no
//! arguments the same menu is a usage error, and an unknown name exits 2
//! before anything runs. Every run ends with one
//! `engine: N unique simulations, M served from cache, X s wall` line on
//! stderr.

use lsq_experiments::{all, by_name, RunSpec, ARTIFACTS};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let menu: Vec<&str> = ARTIFACTS.iter().map(|e| e.name).collect();
    if args
        .iter()
        .any(|a| ["list", "--list", "-l"].contains(&a.as_str()))
    {
        println!("{}", menu.join("\n"));
        return;
    }
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        eprintln!("usage: artifact all | artifact <name>... (`artifact list` prints the names)");
        eprintln!("  {}", menu.join("\n  "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if let Some(name) = args
        .iter()
        .find(|a| *a != "all" && !menu.contains(&a.as_str()))
    {
        eprintln!(
            "unknown artifact {name:?}; expected `all` or one of: {}",
            menu.join(", ")
        );
        std::process::exit(2);
    }
    let started = Instant::now();
    let spec = RunSpec::default();
    for name in &args {
        for a in by_name(name, spec).map_or_else(|| all(spec), |a| vec![a]) {
            println!("{a}");
        }
    }
    let (hits, misses) = lsq_experiments::engine::global().stats();
    eprintln!(
        "engine: {misses} unique simulations, {hits} served from cache, {:.1}s wall",
        started.elapsed().as_secs_f64()
    );
}
