//! Deep-dive diagnostics for one benchmark on the base design point.
//!
//! ```text
//! cargo run --release -p lsq-experiments --bin diag -- gcc --instrs 50000 --top 5
//! ```
//!
//! Prints every counter of the run as a registry report (including the
//! Table 3 predictor counters), the per-static-PC squash / useless-search
//! attribution, and the trace-ring occupancy. When `LSQ_TRACE` /
//! `LSQ_SAMPLE_CYCLES` are set the captured trace and timeline are also
//! written to the configured files.

use lsq_core::LsqConfig;
use lsq_experiments::runner::{run_traced, RunSpec};
use lsq_obs::TraceConfig;

fn main() {
    let mut bench = String::from("gcc");
    let mut spec = RunSpec::default();
    let mut top = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("{name} expects an integer argument");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--warmup" => spec.warmup = grab("--warmup"),
            "--instrs" => spec.instrs = grab("--instrs"),
            "--top" => top = grab("--top") as usize,
            "--help" | "-h" => {
                eprintln!("usage: diag [bench] [--warmup N] [--instrs N] [--top N]");
                std::process::exit(0);
            }
            name => bench = name.to_string(),
        }
    }

    // Trace even without LSQ_TRACE so the attribution report is always
    // available; files are only written when LSQ_TRACE names a path.
    let trace = TraceConfig::from_env();
    let ring = trace.clone().unwrap_or_else(|| {
        TraceConfig::parse(
            "diag-unwritten",
            lsq_util::knobs::get("LSQ_SAMPLE_CYCLES").as_deref(),
        )
    });
    let (r, buf, sampler) = run_traced(&bench, LsqConfig::default(), false, spec, &ring);

    println!("{}", r.render(&format!("diag: {bench} (base)")));
    println!();
    if buf.attribution().is_empty() {
        println!("attribution: no squashes or useless searches recorded");
    } else {
        println!("{}", buf.attribution().report(top));
    }
    println!(
        "trace ring: {} of {} events kept ({} dropped)",
        buf.len(),
        buf.total(),
        buf.dropped()
    );
    if let Some(cfg) = &trace {
        match cfg.write(&buf, sampler.as_ref()) {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!(
                    "error: could not write LSQ_TRACE={}: {e}",
                    cfg.path.display()
                );
                std::process::exit(1);
            }
        }
    }
}
