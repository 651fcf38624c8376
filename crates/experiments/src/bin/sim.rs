//! `sim` — run any benchmark through any LSQ design point from the
//! command line.
//!
//! ```text
//! cargo run --release -p lsq-experiments --bin sim -- \
//!     --bench equake --ports 1 --predictor pair --load-buffer 2 \
//!     --segmented self-circular --instrs 250000
//! ```
//!
//! `sim --help` prints the flag list below.
//!
#![doc = include_str!("sim_flags.md")]

use lsq_core::{LoadOrderPolicy, LsqConfig, PredictorKind, SegAlloc};
use lsq_experiments::{Job, RunSpec};
use lsq_pipeline::SimResult;
use lsq_trace::BenchProfile;

#[derive(Debug)]
struct Args {
    bench: String,
    lsq: LsqConfig,
    scaled: bool,
    spec: RunSpec,
    csv: bool,
}

/// The flag list of the module docs, which `--help` prints.
const FLAGS: &str = include_str!("sim_flags.md");

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nrun `sim --help` for the flags");
    eprintln!("benchmarks:");
    for p in BenchProfile::all() {
        eprint!(" {}", p.name);
    }
    eprintln!();
    std::process::exit(2);
}

/// `value` of `flag` as a number, or a usage error.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag} wants a number")))
}

fn parse_args() -> Args {
    let mut bench = None;
    let mut lsq = LsqConfig::default();
    let mut scaled = false;
    let mut spec = RunSpec::default();
    let mut csv = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i - 1)
            .cloned()
            .unwrap_or_else(|| usage("missing flag value"))
    };
    while i < argv.len() {
        let flag = argv[i].clone();
        i += 1;
        match flag.as_str() {
            "--bench" => bench = Some(next(&mut i)),
            "--ports" => lsq.ports = number(&flag, next(&mut i)),
            "--predictor" => {
                lsq.predictor = match next(&mut i).as_str() {
                    "none" => PredictorKind::None,
                    "perfect" => PredictorKind::Perfect,
                    "aggressive" => PredictorKind::Aggressive,
                    "pair" => PredictorKind::Pair,
                    other => usage(&format!("unknown predictor {other}")),
                }
            }
            "--load-buffer" => {
                lsq.load_order = LoadOrderPolicy::LoadBuffer(number(&flag, next(&mut i)))
            }
            "--in-order" => {
                // Optional positional modifier: `search` keeps the search.
                if argv.get(i).map(String::as_str) == Some("search") {
                    i += 1;
                    lsq.load_order = LoadOrderPolicy::InOrderAlwaysSearch;
                } else {
                    lsq.load_order = LoadOrderPolicy::InOrderNoSearch;
                }
            }
            "--segmented" => {
                lsq.segmentation = Some(lsq_core::SegConfig::paper(match next(&mut i).as_str() {
                    "self-circular" => SegAlloc::SelfCircular,
                    "no-self-circular" => SegAlloc::NoSelfCircular,
                    other => usage(&format!("unknown allocation {other}")),
                }))
            }
            "--lq" => lsq.lq_entries = number(&flag, next(&mut i)),
            "--sq" => lsq.sq_entries = number(&flag, next(&mut i)),
            "--scaled" => scaled = true,
            "--instrs" => spec.instrs = number(&flag, next(&mut i)),
            "--warmup" => spec.warmup = number(&flag, next(&mut i)),
            "--seed" => spec.seed = number(&flag, next(&mut i)),
            "--csv" => csv = true,
            "--help" | "-h" => {
                print!("usage: sim --bench <name> [flags]\n\n{FLAGS}");
                std::process::exit(0);
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let bench = bench.unwrap_or_else(|| usage("--bench is required (or `--bench all`)"));
    if bench != "all" && BenchProfile::named(&bench).is_none() {
        usage(&format!("unknown benchmark {bench}"));
    }
    if let Err(e) = lsq.validate() {
        usage(&e.to_string());
    }
    Args {
        bench,
        lsq,
        scaled,
        spec,
        csv,
    }
}

fn print_csv_header() {
    println!(
        "bench,ipc,cycles,committed,br_mispredict,l1d_miss,sq_searches,sq_hits,\
         lq_by_stores,lq_by_loads,lb_searches,violations,lq_occ,sq_occ,ooo_loads"
    );
}

fn print_csv(bench: &str, r: &SimResult) {
    println!(
        "{bench},{:.4},{},{},{:.4},{:.4},{},{},{},{},{},{},{:.2},{:.2},{:.2}",
        r.ipc(),
        r.cycles,
        r.committed,
        r.branch_mispredict_rate(),
        r.l1d_miss_rate,
        r.lsq.sq_searches,
        r.lsq.sq_search_hits,
        r.lsq.lq_searches_by_stores,
        r.lsq.lq_searches_by_loads,
        r.lsq.lb_searches,
        r.lsq.violations,
        r.lq_occupancy,
        r.sq_occupancy,
        r.ooo_issued_loads
    );
}

fn main() {
    let args = parse_args();
    // One engine batch: `--bench all` runs its benchmarks on the
    // work-stealing pool (`LSQ_JOBS` workers), in Table 2 order.
    let jobs: Vec<Job> = BenchProfile::all()
        .iter()
        .filter(|p| args.bench == "all" || p.name == args.bench)
        .map(|p| Job {
            bench: p.name,
            lsq: args.lsq,
            scaled: args.scaled,
            spec: args.spec,
        })
        .collect();
    let results = lsq_experiments::engine::global().run_batch(&jobs);
    if args.csv {
        print_csv_header();
    }
    for (job, r) in jobs.iter().zip(&results) {
        if args.csv {
            print_csv(job.bench, r);
        } else {
            println!("{}", r.render(job.bench));
        }
    }
}
