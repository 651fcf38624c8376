//! `bench` — measure simulator throughput (host MIPS) on the standard
//! experiment matrix and write a machine-readable `BENCH_sim.json`.
//!
//! ```text
//! cargo run --release -p lsq-experiments --bin bench -- \
//!     --out BENCH_sim.json --instrs 250000 --warmup 100000
//! ```
//!
//! The matrix is the four standard design points
//! (`lsq_experiments::experiments::design_points`) —
//! the two-ported conventional base, the pair predictor, the 1-ported
//! load buffer, and the self-circular segmented queue — each run over
//! all 18 Table 2 benchmarks. Every job records the host-side
//! throughput (`sim_mips`, simulated instructions including warm-up per
//! wall second) stamped by the experiment engine, and the file carries
//! the git revision so before/after pairs are self-describing (outside a
//! git checkout, such as a `git archive` export, name it with `--rev`).
//!
//! Flags (all optional):
//!
//! * `--out <path>`     output path (default `BENCH_sim.json`)
//! * `--instrs <n>`     measured instructions per job (default 250000)
//! * `--warmup <n>`     warm-up instructions per job (default 100000)
//! * `--seed <n>`       workload seed (default 1)
//! * `--rev <string>`   revision label written as `git_rev` (default: the
//!   checkout's `git rev-parse HEAD`, or `unknown` outside one)
//!
//! Single-process wall-clock measurement: pin `LSQ_JOBS=1` for the
//! least noisy numbers, and interleave before/after binaries when
//! comparing revisions (see "Simulator performance" in EXPERIMENTS.md).

use lsq_core::LsqConfig;
use lsq_experiments::experiments::design_points;
use lsq_experiments::runner::{run_matrix, RunSpec};
use lsq_obs::Json;

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\nusage: bench [--out <path>] [--instrs <n>] [--warmup <n>] [--seed <n>] \
         [--rev <string>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut out = String::from("BENCH_sim.json");
    let mut spec = RunSpec::default();
    let mut rev = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Every flag takes a value.
    for pair in argv.chunks(2) {
        let flag = pair[0].as_str();
        let value = || {
            pair.get(1)
                .map(String::as_str)
                .unwrap_or_else(|| usage("missing flag value"))
        };
        let number = || {
            value()
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad {flag}")))
        };
        match flag {
            "--out" => out = value().to_string(),
            "--instrs" => spec.instrs = number(),
            "--warmup" => spec.warmup = number(),
            "--seed" => spec.seed = number(),
            "--rev" => rev = Some(value().to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let points = design_points();
    let configs: Vec<LsqConfig> = points.iter().map(|(_, c)| *c).collect();
    let started = std::time::Instant::now();
    let rows = run_matrix(&configs, false, spec);
    let total_wall = started.elapsed();

    let mut jobs = Vec::new();
    let mut mips = Vec::new();
    for (bench, results) in &rows {
        for ((label, _), r) in points.iter().zip(results) {
            mips.push(r.sim_mips);
            jobs.push(Json::obj(vec![
                ("bench", Json::from(*bench)),
                ("config", Json::from(*label)),
                ("sim_mips", r.sim_mips.into()),
                ("wall_nanos", r.wall_nanos.into()),
                ("cycles", r.cycles.into()),
                ("committed", r.committed.into()),
            ]));
        }
    }
    let geomean = lsq_stats::geomean(&mips).unwrap_or(0.0);

    let doc = Json::obj(vec![
        ("git_rev", Json::from(rev.unwrap_or_else(git_rev))),
        ("instrs", spec.instrs.into()),
        ("warmup", spec.warmup.into()),
        ("seed", spec.seed.into()),
        ("geomean_sim_mips", geomean.into()),
        ("total_wall_nanos", (total_wall.as_nanos() as u64).into()),
        ("jobs", Json::Arr(jobs)),
    ]);
    if let Err(e) = std::fs::write(&out, format!("{doc}\n")) {
        eprintln!("error: could not write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "{}: geomean {geomean:.2} sim-MIPS over {} jobs",
        out,
        mips.len()
    );
}
