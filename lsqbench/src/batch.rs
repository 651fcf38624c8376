//! One batch of a workload, run in the calling process: every job
//! submitted at once to the experiment engine, then the optional set-up
//! and layer passes.
//!
//! The benchmark runs each batch in a fresh child process, so the
//! engine's process-wide result cache and telemetry hub hold this batch
//! only. Telemetry is still read as before/after differences, so the
//! library entry points also work in a process that ran other batches.

use crate::golden::Op;
use crate::layers::Span;
use crate::workload::{Budget, Workload};
use lsq_experiments::{engine, telemetry, Engine, Job};
use lsq_obs::Json;
use lsq_pipeline::{SimConfig, Simulator};
use lsq_trace::BenchProfile;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one batch measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Checked operations: one per job, or one per rendered artifact for
    /// `paper_all`.
    pub ops: Vec<Op>,
    /// `paper_all` only: its 18 × 4 standard matrix, served from the
    /// result cache `all()` filled, for per-layer counts.
    pub matrix: Vec<Op>,
    /// From submitting the batch to receiving its last result.
    pub makespan_ns: u64,
    /// Σ (warm-up + committed) instructions over simulated jobs.
    pub sim_instrs: u64,
    /// Σ per-job wall time over simulated jobs.
    pub sim_wall_ns: u64,
    /// Jobs served from the engine's result cache.
    pub cache_hits: u64,
    /// Jobs simulated.
    pub cache_misses: u64,
    /// Jobs a worker took from another worker's deque.
    pub steals: u64,
    /// Nanoseconds per simulator phase, when the jobs were profiled.
    pub phases: Vec<(String, u64)>,
    /// Σ set-up time over the workload's jobs, when the set-up pass ran.
    pub setup_ns: Option<u64>,
    /// Peak resident set by the end of the batch, net of file-backed
    /// pages, KiB (0 where `/proc/self/status` is unavailable).
    pub peak_rss_kib: u64,
    /// Spans of the layer pass, when it ran.
    pub spans: Vec<Span>,
}

/// Engine telemetry totals at one instant.
struct Tally {
    instrs: u64,
    wall_ns: u64,
    hits: u64,
    misses: u64,
    steals: u64,
    phases: Vec<(String, u64)>,
}

impl Tally {
    fn now() -> Tally {
        let tel = telemetry::global();
        let m = tel.metrics();
        let phases = tel
            .aggregated_profile()
            .map(|p| p.phases.into_iter().map(|s| (s.phase, s.nanos)).collect())
            .unwrap_or_default();
        Tally {
            instrs: m.counter("lsq_sim_instructions_total", "").get(),
            wall_ns: m.counter("lsq_sim_wall_nanos_total", "").get(),
            hits: m.counter("lsq_cache_hits_total", "").get(),
            misses: m.counter("lsq_cache_misses_total", "").get(),
            steals: m.counter("lsq_steals_total", "").get(),
            phases,
        }
    }
}

/// Runs one batch of `workload`: its job list (or `all()`) at `budget`,
/// on `workers` engine workers. `paper_all` goes through the global
/// engine, whose worker count comes from `LSQ_JOBS`.
pub fn run_batch(workload: Workload, seed: u64, budget: Budget, workers: usize) -> BatchReport {
    let before = Tally::now();
    let started = Instant::now();
    let ops: Vec<Op> = match workload {
        Workload::PaperAll => lsq_experiments::all(budget.spec(seed))
            .iter()
            .map(|a| Op::artifact(a.id, &a.to_string()))
            .collect(),
        _ => {
            let named = workload.jobs(seed, budget);
            let jobs: Vec<Job> = named.iter().map(|n| n.job).collect();
            let results = Engine::new().run_batch_with_workers(&jobs, Some(workers));
            named
                .iter()
                .zip(&results)
                .map(|(n, r)| Op::job(&n.label, r))
                .collect()
        }
    };
    let makespan_ns = started.elapsed().as_nanos() as u64;
    let peak_rss_kib = peak_rss_kib().unwrap_or(0);
    let after = Tally::now();
    let matrix = if workload == Workload::PaperAll {
        let named = workload.jobs(seed, budget);
        let jobs: Vec<Job> = named.iter().map(|n| n.job).collect();
        let results = engine::global().run_batch(&jobs);
        named
            .iter()
            .zip(&results)
            .map(|(n, r)| Op::job(&n.label, r))
            .collect()
    } else {
        Vec::new()
    };
    let phases = after
        .phases
        .iter()
        .map(|(name, ns)| {
            let earlier = before.phases.iter().find(|(n, _)| n == name);
            (
                name.clone(),
                ns.saturating_sub(earlier.map_or(0, |(_, e)| *e)),
            )
        })
        .collect();
    BatchReport {
        ops,
        matrix,
        makespan_ns,
        sim_instrs: after.instrs - before.instrs,
        sim_wall_ns: after.wall_ns - before.wall_ns,
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
        steals: after.steals - before.steals,
        phases,
        peak_rss_kib,
        ..BatchReport::default()
    }
}

/// Σ over the workload's jobs of building the trace generator, building
/// the simulator and pre-warming its caches (`paper_all`: the standard
/// matrix). Repeated at least twice and for at least 0.2 s, since one
/// pass can take only milliseconds; returns the median pass.
///
/// # Errors
///
/// A job names an unknown benchmark.
pub fn setup_pass(workload: Workload, seed: u64, budget: Budget) -> Result<u64, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 2 || started.elapsed() < Duration::from_millis(200) {
        passes.push(setup_once(workload, seed, budget)? as f64);
    }
    Ok(crate::report::median(passes) as u64)
}

fn setup_once(workload: Workload, seed: u64, budget: Budget) -> Result<u64, String> {
    let mut total = 0u64;
    for n in workload.jobs(seed, budget) {
        let profile =
            BenchProfile::named(n.job.bench).ok_or(format!("unknown benchmark {}", n.job.bench))?;
        let t0 = Instant::now();
        let stream = profile.stream(n.job.spec.seed);
        let mut sim = Simulator::new(SimConfig::with_lsq(n.job.lsq));
        sim.prewarm(&stream.data_regions(), stream.code_region());
        black_box((&stream, &sim));
        total += t0.elapsed().as_nanos() as u64;
    }
    Ok(total)
}

/// Peak resident set of this process net of file-backed pages, KiB:
/// `VmHWM` minus the `RssFile` and `RssShmem` resident now. The
/// file-backed part is the binary and its libraries, whose resident
/// share depends on the kernel's page cache rather than on the program.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or lacks one of those lines.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .ok_or_else(|| format!("no {key} in /proc/self/status"))
    };
    Ok(kib("VmHWM")?.saturating_sub(kib("RssFile")? + kib("RssShmem")?))
}

impl BatchReport {
    /// The simulated jobs behind per-layer counts.
    pub fn counted(&self) -> &[Op] {
        if self.matrix.is_empty() {
            &self.ops
        } else {
            &self.matrix
        }
    }

    /// One JSON object, the child's output line.
    pub fn to_json(&self) -> Json {
        let ops = |ops: &[Op]| Json::Arr(ops.iter().map(Op::to_json).collect());
        Json::obj(vec![
            ("ops", ops(&self.ops)),
            ("matrix", ops(&self.matrix)),
            ("makespan_ns", self.makespan_ns.into()),
            ("sim_instrs", self.sim_instrs.into()),
            ("sim_wall_ns", self.sim_wall_ns.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("steals", self.steals.into()),
            (
                "phases",
                Json::obj(
                    self.phases
                        .iter()
                        .map(|(n, ns)| (n.as_str(), Json::from(*ns)))
                        .collect(),
                ),
            ),
            ("setup_ns", self.setup_ns.map_or(Json::Null, Json::from)),
            ("peak_rss_kib", self.peak_rss_kib.into()),
            (
                "spans",
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }

    /// Inverse of [`BatchReport::to_json`].
    pub fn from_json(j: &Json) -> Option<BatchReport> {
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        let ops = |k: &str| -> Option<Vec<Op>> {
            j.get(k)?.as_arr()?.iter().map(Op::from_json).collect()
        };
        Some(BatchReport {
            ops: ops("ops")?,
            matrix: ops("matrix")?,
            makespan_ns: u("makespan_ns")?,
            sim_instrs: u("sim_instrs")?,
            sim_wall_ns: u("sim_wall_ns")?,
            cache_hits: u("cache_hits")?,
            cache_misses: u("cache_misses")?,
            steals: u("steals")?,
            phases: j
                .get("phases")?
                .as_obj()?
                .iter()
                .map(|(n, ns)| Some((n.clone(), ns.as_u64()?)))
                .collect::<Option<_>>()?,
            setup_ns: u("setup_ns"),
            peak_rss_kib: u("peak_rss_kib")?,
            spans: j
                .get("spans")?
                .as_arr()?
                .iter()
                .map(Span::from_json)
                .collect::<Option<_>>()?,
        })
    }
}
