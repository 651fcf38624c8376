//! The shared experiment engine: a work-stealing scheduler plus an
//! in-process content-addressed result cache.
//!
//! Every figure and table in the paper is a cross-product of
//! `(benchmark × LsqConfig × scaled? × RunSpec)` design points, and many
//! of them share points — the base two-ported configuration alone appears
//! in Figures 6 through 12. The engine flattens each request into [`Job`]s,
//! runs the jobs that have not been seen before on a work-stealing thread
//! pool sized by [`worker_count`], and serves repeats from a cache keyed
//! by everything that shapes a run's result: the [`Job`] itself and
//! which of the recorders that add reports to a [`SimResult`] ran.
//! Simulations are deterministic, so a cached result is exactly the
//! result a fresh run would produce (modulo the host-timing fields).
//!
//! A batch's observers are one [`ProbeSpec`]: [`Engine::run_batch`]
//! reads it from the knobs below once per batch, on the calling thread,
//! and [`Engine::run_observed`] takes it as an argument.
//!
//! Observability knobs (all environment variables):
//!
//! * `LSQ_JOBS=<n>` — worker threads (default:
//!   `std::thread::available_parallelism()`).
//! * `LSQ_PROGRESS=1|0` — force the per-job progress/ETA line on stderr
//!   on or off (default: on when stderr is a terminal).
//! * `LSQ_EXPERIMENTS_JSON=<path>` — after every batch, dump every job
//!   run so far (configuration, headline counters, violation / squash /
//!   port-stall counters, timing, whether it was served from cache) as a
//!   JSON array to `<path>`.
//! * `LSQ_TRACE=<path>[:events|:chrome|:timeline]` and
//!   `LSQ_SAMPLE_CYCLES=<n>` — trace every *fresh* job through the
//!   [`lsq_obs`] event ring / windowed sampler (cache hits re-serve old
//!   results and are not re-traced); see [`lsq_obs::TraceConfig`].
//! * `LSQ_METRICS_ADDR=<ip:port>` — serve live telemetry over HTTP
//!   while batches run: `/metrics` in Prometheus text format, `/jobs`
//!   as a JSON snapshot (see [`crate::telemetry`]).
//! * `LSQ_PROFILE=1` — run every fresh job under the simulator
//!   self-profiler ([`lsq_pipeline::PhaseProfile`]): each
//!   `LSQ_EXPERIMENTS_JSON` record carries its per-phase wall-time
//!   profile, and the engine prints (and exposes) the batch aggregate.
//! * `LSQ_ACCOUNTING=1` — run every fresh job under the cycle
//!   accountant (a [`lsq_pipeline::CpiStack`] charged per slot): each
//!   `LSQ_EXPERIMENTS_JSON` record carries its CPI stack, the engine
//!   prints the batch aggregate, and the per-component totals are
//!   exposed as `lsq_cpi_stack_cycles_total{component=...}`.
//! * `LSQ_ACCOUNTING_CSV=<path>[:window]` — with accounting on, also
//!   write each fresh job's windowed per-component timeline as CSV
//!   (job 0 gets `<path>` verbatim, later jobs a `.N` suffix).

use crate::runner::RunSpec;
use crate::telemetry;
use lsq_core::LsqConfig;
use lsq_obs::Json;
use lsq_pipeline::{
    CpiStack, CriticalPath, PhaseProfile, ProbeSpec, SimConfig, SimResult, StageLatency,
};
use lsq_util::sync::MutexExt;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{IsTerminal, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One unit of work: a benchmark run through one design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Benchmark name (one of the 18 Table 2 profiles).
    pub bench: &'static str,
    /// The LSQ design point.
    pub lsq: LsqConfig,
    /// Whether to run the §4.3 scaled processor.
    pub scaled: bool,
    /// Instruction budget.
    pub spec: RunSpec,
}

/// Result-cache key: everything that shapes a run's result. That is
/// the [`Job`] itself, whose processor ([`Job::config`]) is a function
/// of its LSQ point and scaled flag alone, and `reports`: whether the
/// phase timer, the cycle accountant and the lifecycle recorder ran,
/// since they fill [`SimResult::profile`], [`SimResult::cpi_stack`], and
/// [`SimResult::stage_latency`] with [`SimResult::critical_path`]. A
/// cached result never answers a batch that asked for a report it lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct JobKey {
    job: Job,
    reports: [bool; 3],
}

impl Job {
    /// The processor this job simulates: the base (Table 1) or the §4.3
    /// scaled one, around its LSQ design point.
    pub fn config(&self) -> SimConfig {
        if self.scaled {
            SimConfig::scaled(self.lsq)
        } else {
            SimConfig::with_lsq(self.lsq)
        }
    }

    fn key(&self, observers: &ProbeSpec) -> JobKey {
        JobKey {
            job: *self,
            reports: [observers.profile, observers.accounting, observers.lifecycle],
        }
    }
}

/// Provenance of one job, kept for the `LSQ_EXPERIMENTS_JSON` dump.
#[derive(Debug, Clone)]
struct JobRecord {
    job: Job,
    cached: bool,
    result: SimResult,
}

impl JobRecord {
    fn to_json(&self) -> Json {
        let (j, r) = (&self.job, &self.result);
        // Destructured, so a new `LsqConfig` field cannot be left out of
        // the dump: two jobs with different configs never look alike.
        let LsqConfig {
            lq_entries,
            sq_entries,
            ports,
            predictor,
            load_order,
            segmentation,
            ssit_entries,
            lfst_entries,
            counter_max,
            store_set_gating,
            load_load_squash,
        } = j.lsq;
        Json::obj(vec![
            ("bench", Json::from(j.bench)),
            ("scaled", j.scaled.into()),
            ("warmup", j.spec.warmup.into()),
            ("instrs", j.spec.instrs.into()),
            ("seed", j.spec.seed.into()),
            ("ports", ports.into()),
            ("lq_entries", lq_entries.into()),
            ("sq_entries", sq_entries.into()),
            ("predictor", format!("{predictor:?}").into()),
            ("load_order", format!("{load_order:?}").into()),
            (
                "segmentation",
                match segmentation {
                    Some(seg) => format!("{seg:?}").into(),
                    None => Json::Null,
                },
            ),
            ("ssit_entries", ssit_entries.into()),
            ("lfst_entries", lfst_entries.into()),
            ("counter_max", u32::from(counter_max).into()),
            ("store_set_gating", store_set_gating.into()),
            ("load_load_squash", load_load_squash.into()),
            ("cached", self.cached.into()),
            ("wall_nanos", r.wall_nanos.into()),
            ("cycles", r.cycles.into()),
            ("committed", r.committed.into()),
            ("ipc", r.ipc().into()),
            ("sim_mips", r.sim_mips.into()),
            ("violations", r.lsq.violations.into()),
            ("commit_violations", r.lsq.commit_violations.into()),
            ("useless_searches", r.lsq.useless_searches.into()),
            ("load_load_violations", r.lsq.load_load_violations.into()),
            ("violation_squashes", r.violation_squashes.into()),
            ("instructions_squashed", r.instructions_squashed.into()),
            ("sq_port_stalls", r.lsq.sq_port_stalls.into()),
            ("lq_port_stalls", r.lsq.lq_port_stalls.into()),
            ("commit_port_delays", r.lsq.commit_port_delays.into()),
            ("capped", r.hit_cycle_cap.into()),
            (
                "profile",
                r.profile.as_ref().map_or(Json::Null, PhaseProfile::to_json),
            ),
            (
                "cpi_stack",
                r.cpi_stack.as_ref().map_or(Json::Null, CpiStack::to_json),
            ),
            (
                "stage_latency",
                r.stage_latency
                    .as_ref()
                    .map_or(Json::Null, StageLatency::to_json),
            ),
            (
                "critical_path",
                r.critical_path
                    .as_ref()
                    .map_or(Json::Null, CriticalPath::to_json),
            ),
        ])
    }
}

/// The experiment engine. One global instance (see [`global`]) is shared
/// by every experiment in a process so design points are simulated at
/// most once per run; tests may build private instances.
#[derive(Default)]
pub struct Engine {
    cache: Mutex<HashMap<JobKey, SimResult>>,
    records: Mutex<Vec<JobRecord>>,
}

/// The process-wide engine used by the `runner` entry points.
pub fn global() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(Engine::default)
}

impl Engine {
    /// Creates an empty engine (private cache; used by tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// `(cache hits, unique simulations)` served so far: the job
    /// records served from the cache and the fresh ones.
    pub fn stats(&self) -> (u64, u64) {
        let records = self.records.lock_unpoisoned();
        let hits = records.iter().filter(|r| r.cached).count() as u64;
        (hits, records.len() as u64 - hits)
    }

    /// Runs a batch of jobs and returns one result per job, in order.
    ///
    /// Jobs whose key is already cached (from this or an earlier batch)
    /// are served from the cache; duplicates within the batch are
    /// simulated once. Fresh jobs run on [`worker_count`] work-stealing
    /// workers.
    pub fn run_batch(&self, jobs: &[Job]) -> Vec<SimResult> {
        self.run_batch_with_workers(jobs, None)
    }

    /// [`Engine::run_batch`] with an explicit worker count, bypassing
    /// `LSQ_JOBS` / `available_parallelism` (determinism tests).
    pub fn run_batch_with_workers(&self, jobs: &[Job], workers: Option<usize>) -> Vec<SimResult> {
        self.run_observed(jobs, workers, &ProbeSpec::from_env())
    }

    /// [`Engine::run_batch_with_workers`] with every fresh job observed
    /// by the recorders `observers` asks for, instead of the ones the
    /// `LSQ_*` knobs ask for.
    pub fn run_observed(
        &self,
        jobs: &[Job],
        workers: Option<usize>,
        observers: &ProbeSpec,
    ) -> Vec<SimResult> {
        telemetry::global().maybe_serve_from_env();
        let keys: Vec<JobKey> = jobs.iter().map(|j| j.key(observers)).collect();

        // Unique uncached keys, in first-appearance order (deterministic).
        let mut pending: Vec<JobKey> = Vec::new();
        {
            let cache = self.cache.lock_unpoisoned();
            for key in &keys {
                if !cache.contains_key(key) && !pending.contains(key) {
                    pending.push(*key);
                }
            }
        }

        let workers = workers.unwrap_or_else(|| worker_count(pending.len()));
        let fresh = self.run_pending(&pending, workers, observers);

        // Batch-level self-profile aggregate (LSQ_PROFILE=1): merged
        // over fresh jobs and printed once; cache hits re-serve the
        // profile stored with their original run.
        let profiles = fresh.iter().filter_map(|r| r.profile.clone());
        let batch_profile = profiles.reduce(|mut agg, p| {
            agg.merge(&p);
            agg
        });
        if let Some(p) = &batch_profile {
            eprintln!(
                "profile: aggregate over {} fresh jobs\n{}",
                fresh.len(),
                p.render()
            );
        }

        // Batch-level CPI-stack aggregate (LSQ_ACCOUNTING=1): merged
        // over fresh jobs and printed once.
        let stacked = fresh.iter().filter(|r| r.cpi_stack.is_some());
        let batch_committed: u64 = stacked.clone().map(|r| r.committed).sum();
        let stacks = stacked.filter_map(|r| r.cpi_stack.clone());
        let batch_stack = stacks.reduce(|mut agg, s| {
            agg.merge(&s);
            agg
        });
        if let Some(s) = &batch_stack {
            eprintln!(
                "cpi stack: aggregate over {} fresh jobs\n{}",
                fresh.len(),
                s.render(batch_committed)
            );
        }

        {
            let mut cache = self.cache.lock_unpoisoned();
            for (key, result) in pending.iter().zip(fresh) {
                cache.insert(*key, result);
            }
        }

        let cache = self.cache.lock_unpoisoned();
        let results: Vec<SimResult> = keys.iter().map(|k| cache[k].clone()).collect();
        drop(cache);

        // A job is "fresh" only at the first appearance of a key simulated
        // in this batch; repeats and keys cached by earlier batches are
        // hits.
        let mut unserved: HashSet<&JobKey> = pending.iter().collect();
        let cached_flags: Vec<bool> = keys.iter().map(|k| !unserved.remove(k)).collect();
        let batch_hits = cached_flags.iter().filter(|&&c| c).count() as u64;
        telemetry::global().cache_counted(batch_hits, pending.len() as u64);

        {
            let mut records = self.records.lock_unpoisoned();
            for ((job, &cached), result) in jobs.iter().zip(&cached_flags).zip(&results) {
                records.push(JobRecord {
                    job: *job,
                    cached,
                    result: result.clone(),
                });
            }
        }
        // Capped runs report truncated counters: say so loudly at batch
        // end instead of letting a deadlocked configuration pass as a
        // slow one.
        let capped_labels: Vec<String> = jobs
            .iter()
            .zip(&results)
            .filter(|(_, r)| r.hit_cycle_cap)
            .map(|(j, _)| job_label(j))
            .collect();
        if let Some(warning) = capped_warning(&capped_labels) {
            eprintln!("{warning}");
        }
        if let Some(path) = lsq_util::knobs::get("LSQ_EXPERIMENTS_JSON") {
            self.dump_json(&path);
        }
        results
    }

    /// Runs the uncached jobs under `observers` on `workers`
    /// work-stealing threads (see [`work_steal`]), reporting each claim
    /// and finish to telemetry.
    fn run_pending(
        &self,
        pending: &[JobKey],
        workers: usize,
        observers: &ProbeSpec,
    ) -> Vec<SimResult> {
        let total = pending.len();
        if total == 0 {
            return Vec::new();
        }
        let first_sink = crate::runner::number_sinks(observers, total);
        let workers = workers.clamp(1, total);
        let done = AtomicUsize::new(0);
        let started = Instant::now();
        let progress = progress_enabled();
        let tel = telemetry::global();
        tel.batch_started(total, workers);
        let results = work_steal(total, workers, |idx, w, stolen| {
            let job = pending[idx].job;
            tel.job_claimed(w, job_label(&job), stolen);
            let t0 = Instant::now();
            let mut r = crate::runner::run_job(&job, observers, first_sink + idx as u64);
            let wall = t0.elapsed();
            r.wall_nanos = wall.as_nanos() as u64;
            let simulated = (job.spec.warmup + r.committed) as f64;
            r.sim_mips = simulated / wall.as_secs_f64().max(1e-12) / 1e6;
            tel.job_finished(w, &r, job.spec.warmup);
            // lsq-lint: allow(relaxed-ordering-audit, reason = "progress tally; result hand-off is ordered by the per-slot mutex")
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if progress {
                report_progress(n, total, started);
            }
            r
        });
        if progress {
            eprintln!();
        }
        results
    }

    /// Writes every job recorded so far as a JSON array to `path`
    /// (one record object per line for greppability), creating missing
    /// parent directories. Failures are reported on stderr, not fatal —
    /// a bad dump path must not kill an hour of simulation.
    fn dump_json(&self, path: &str) {
        let records = self.records.lock_unpoisoned();
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&r.to_json().to_string());
            out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
        }
        out.push_str("]\n");
        if let Err(e) = lsq_obs::write_file(Path::new(path), &out) {
            eprintln!("warning: could not write LSQ_EXPERIMENTS_JSON={path}: {e}");
        }
    }
}

/// Runs arbitrary closures on the engine's work-stealing scheduler,
/// returning their results in input order. Honors `LSQ_JOBS` like
/// [`Engine::run_batch`] but bypasses the result cache (the tasks are
/// opaque). For work that is not a design-point run: the `calibrate`
/// seed scan and the telemetry tests' worker pool.
pub fn run_tasks<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = worker_count(tasks.len());
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
    work_steal(slots.len(), workers, |idx, _, _| {
        let task = slots[idx]
            .lock_unpoisoned()
            .take()
            // lsq-lint: allow(no-unwrap-in-lib, reason = "each index is enqueued exactly once, so the claimed slot still holds its closure")
            .expect("task claimed once");
        task()
    })
}

/// Runs tasks `0..total` on `workers` threads (`workers ≥ 1`) and
/// returns `run`'s results in task order. `run` gets the task index,
/// the claiming worker, and whether that worker stole the task.
///
/// Each worker owns a deque seeded round-robin; it pops its own work
/// from the front and, when empty, pops the back of the first non-empty
/// deque in index order. No new work appears mid-run, so a worker exits
/// once every deque is empty.
fn work_steal<T, F>(total: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize, bool) -> T + Sync,
{
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..total {
        deques[i % workers].lock_unpoisoned().push_back(i);
    }
    let results: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (deques, results, run) = (&deques, &results, &run);
            scope.spawn(move || loop {
                let mut stolen = false;
                let mut claimed = deques[w].lock_unpoisoned().pop_front();
                if claimed.is_none() {
                    for (o, other) in deques.iter().enumerate() {
                        claimed = other.lock_unpoisoned().pop_back();
                        if claimed.is_some() {
                            stolen = o != w;
                            break;
                        }
                    }
                }
                let Some(idx) = claimed else { break };
                *results[idx].lock_unpoisoned() = Some(run(idx, w, stolen));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            let r = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            // lsq-lint: allow(no-unwrap-in-lib, reason = "thread::scope joined every worker (propagating any panic), so each slot is filled")
            r.expect("every task runs")
        })
        .collect()
}

/// Number of worker threads for `jobs` queued jobs: `LSQ_JOBS` when set
/// to a positive integer, else `std::thread::available_parallelism()`;
/// always within `1..=max(jobs, 1)`.
pub fn worker_count(jobs: usize) -> usize {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    worker_count_from(
        lsq_util::knobs::get("LSQ_JOBS").as_deref(),
        parallelism,
        jobs,
    )
}

/// Pure core of [`worker_count`], separated for testing.
fn worker_count_from(env: Option<&str>, parallelism: usize, jobs: usize) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(parallelism)
        .clamp(1, jobs.max(1))
}

/// The batch-end warning for jobs that ended on the safety cycle cap
/// (their counters cover a truncated run), or `None` when no job was
/// capped. Separated from the stderr print for testing.
fn capped_warning(labels: &[String]) -> Option<String> {
    if labels.is_empty() {
        return None;
    }
    let mut msg = format!(
        "warning: {} job(s) hit the safety cycle cap — counters are \
         truncated and the configuration may be deadlocked:",
        labels.len()
    );
    for label in labels {
        msg.push_str("\n  capped: ");
        msg.push_str(label);
    }
    Some(msg)
}

/// Short human label for the `/jobs` worker view.
fn job_label(job: &Job) -> String {
    format!(
        "{} ports={} pred={:?}{}{}",
        job.bench,
        job.lsq.ports,
        job.lsq.predictor,
        if job.lsq.segmentation.is_some() {
            " segmented"
        } else {
            ""
        },
        if job.scaled { " scaled" } else { "" },
    )
}

fn progress_enabled() -> bool {
    match lsq_util::knobs::get("LSQ_PROGRESS").as_deref() {
        Some("0") => false,
        Some(_) => true,
        None => std::io::stderr().is_terminal(),
    }
}

fn report_progress(done: usize, total: usize, started: Instant) {
    let elapsed = started.elapsed().as_secs_f64();
    let eta = elapsed / done as f64 * (total - done) as f64;
    let mut err = std::io::stderr().lock();
    let _ = write!(
        err,
        "\r[{done}/{total}] jobs, {elapsed:.1}s elapsed, eta {eta:.1}s   "
    );
    let _ = err.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: RunSpec = RunSpec {
        warmup: 200,
        instrs: 800,
        seed: 1,
    };

    fn job(bench: &'static str) -> Job {
        Job {
            bench,
            lsq: LsqConfig::default(),
            scaled: false,
            spec: TINY,
        }
    }

    /// Non-timing fields of two results must match bit-for-bit.
    fn assert_same_counters(a: &SimResult, b: &SimResult) {
        let strip = |r: &SimResult| {
            let mut r = r.clone();
            r.wall_nanos = 0;
            r.sim_mips = 0.0;
            r.profile = None;
            r
        };
        let (a, b) = (strip(a), strip(b));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn worker_count_bounds() {
        // LSQ_JOBS wins when positive.
        assert_eq!(worker_count_from(Some("3"), 8, 100), 3);
        // Garbage and zero fall back to parallelism.
        assert_eq!(worker_count_from(Some("oops"), 4, 100), 4);
        assert_eq!(worker_count_from(Some("0"), 4, 100), 4);
        assert_eq!(worker_count_from(None, 4, 100), 4);
        // Never more workers than jobs, never fewer than one.
        assert_eq!(worker_count_from(Some("64"), 8, 5), 5);
        assert_eq!(worker_count_from(None, 8, 0), 1);
        assert_eq!(worker_count_from(None, 1, 0), 1);
    }

    #[test]
    fn batch_results_are_in_job_order_and_deduplicated() {
        let engine = Engine::new();
        let jobs = [job("gzip"), job("mcf"), job("gzip")];
        let results = engine.run_batch_with_workers(&jobs, Some(2));
        assert_eq!(results.len(), 3);
        // Duplicate jobs return the identical result.
        assert_same_counters(&results[0], &results[2]);
        // Different benchmarks genuinely differ.
        assert_ne!(results[0].cycles, results[1].cycles);
        let (hits, misses) = engine.stats();
        assert_eq!(misses, 2, "gzip simulated once, mcf once");
        assert_eq!(hits, 1, "second gzip job served from cache");
    }

    #[test]
    fn cache_hit_equals_fresh_run() {
        let engine = Engine::new();
        let fresh = engine.run_batch_with_workers(&[job("gzip")], Some(1));
        let cached = engine.run_batch_with_workers(&[job("gzip")], Some(1));
        assert_same_counters(&fresh[0], &cached[0]);
        let (hits, misses) = engine.stats();
        assert_eq!((hits, misses), (1, 1));
        // An independent engine reproduces the same counters from scratch.
        let other = Engine::new().run_batch_with_workers(&[job("gzip")], Some(1));
        assert_same_counters(&fresh[0], &other[0]);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let jobs = [job("gzip"), job("mcf"), job("equake"), job("bzip")];
        let serial = Engine::new().run_batch_with_workers(&jobs, Some(1));
        let parallel = Engine::new().run_batch_with_workers(&jobs, Some(4));
        for (s, p) in serial.iter().zip(&parallel) {
            assert_same_counters(s, p);
        }
    }

    #[test]
    fn fresh_results_carry_timing() {
        let engine = Engine::new();
        let r = &engine.run_batch_with_workers(&[job("gzip")], Some(1))[0];
        assert!(r.wall_nanos > 0, "engine stamps wall time");
        assert!(r.sim_mips > 0.0, "engine stamps simulation rate");
    }

    #[test]
    fn scaled_and_base_do_not_collide() {
        let engine = Engine::new();
        let base = job("gzip");
        let scaled = Job {
            scaled: true,
            ..base
        };
        let results = engine.run_batch_with_workers(&[base, scaled], Some(1));
        let (hits, misses) = engine.stats();
        assert_eq!((hits, misses), (0, 2));
        assert_ne!(results[0].cycles, results[1].cycles);
    }

    #[test]
    fn a_cached_result_never_answers_a_batch_asking_for_a_report_it_lacks() {
        let engine = Engine::new();
        let accounted = ProbeSpec {
            accounting: true,
            ..ProbeSpec::default()
        };
        let plain = engine.run_observed(&[job("gzip")], Some(1), &ProbeSpec::default());
        let first = engine.run_observed(&[job("gzip")], Some(1), &accounted);
        let again = engine.run_observed(&[job("gzip")], Some(1), &accounted);
        assert!(plain[0].cpi_stack.is_none());
        assert!(first[0].cpi_stack.is_some(), "the accountant ran afresh");
        assert_same_counters(&first[0], &again[0]);
        assert_eq!(engine.stats(), (1, 2), "only the repeat was cached");
        // The accountant does not change what it observes.
        let unstacked = SimResult {
            cpi_stack: None,
            ..first[0].clone()
        };
        assert_same_counters(&plain[0], &unstacked);
        // The same holds for the lifecycle recorder's critical path,
        // which the dump records.
        let recorded = ProbeSpec {
            lifecycle: true,
            ..ProbeSpec::default()
        };
        let first = engine.run_observed(&[job("gzip")], Some(1), &recorded);
        let again = engine.run_observed(&[job("gzip")], Some(1), &recorded);
        assert!(plain[0].critical_path.is_none());
        let cp = first[0].critical_path.expect("the recorder ran afresh");
        assert_eq!(cp.total(), cp.length);
        assert_eq!(again[0].critical_path, Some(cp));
        assert_eq!(engine.stats(), (2, 3), "only the repeats were cached");
        let records = engine.records.lock_unpoisoned();
        let dumped = records[3].to_json();
        let length = dumped.get("critical_path").and_then(|c| c.get("length"));
        assert_eq!(length.and_then(Json::as_u64), Some(cp.length));
    }

    #[test]
    fn run_tasks_preserves_order() {
        let tasks: Vec<_> = (0..17).map(|i| move || i * 3).collect();
        assert_eq!(run_tasks(tasks), (0..17).map(|i| i * 3).collect::<Vec<_>>());
        let empty: Vec<fn() -> i32> = Vec::new();
        assert_eq!(run_tasks(empty), Vec::<i32>::new());
    }

    #[test]
    fn json_dump_parses_and_carries_violation_counters() {
        let engine = Engine::new();
        let _ = engine.run_batch_with_workers(&[job("gzip"), job("gzip")], Some(1));
        let path = std::env::temp_dir().join("lsq_engine_dump_test.json");
        engine.dump_json(path.to_str().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let parsed = Json::parse(&text).expect("dump is valid JSON");
        let records = parsed.as_arr().expect("dump is an array");
        assert_eq!(records.len(), 2);
        let get_str = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
        let get_bool = |r: &Json, k: &str| r.get(k).and_then(Json::as_bool);
        assert_eq!(get_str(&records[0], "bench").as_deref(), Some("gzip"));
        assert_eq!(get_bool(&records[0], "cached"), Some(false));
        assert_eq!(get_bool(&records[1], "cached"), Some(true));
        // Both records describe the same simulation: identical counters.
        for key in [
            "cycles",
            "committed",
            "violations",
            "commit_violations",
            "useless_searches",
            "load_load_violations",
            "violation_squashes",
            "instructions_squashed",
            "sq_port_stalls",
            "lq_port_stalls",
            "commit_port_delays",
        ] {
            let a = records[0].get(key).and_then(Json::as_u64);
            let b = records[1].get(key).and_then(Json::as_u64);
            assert!(a.is_some(), "record has {key}");
            assert_eq!(a, b, "{key} survives the cache");
        }
        assert!(
            records[0].get("ipc").and_then(Json::as_f64).unwrap() > 0.1,
            "ipc serialized as a number"
        );
        // Accounting off, healthy runs: explicit capped flag, no stack.
        assert_eq!(get_bool(&records[0], "capped"), Some(false));
        assert!(
            matches!(records[0].get("cpi_stack"), Some(Json::Null)),
            "cpi_stack field present but null without LSQ_ACCOUNTING"
        );
        assert!(
            matches!(records[0].get("stage_latency"), Some(Json::Null)),
            "stage_latency field present but null without LSQ_PIPEVIEW"
        );
        assert!(matches!(records[0].get("critical_path"), Some(Json::Null)));
    }

    /// Jobs that differ in any one `LsqConfig` field, in `scaled` or in
    /// a `RunSpec` field are each a fresh simulation, told apart by
    /// their records' config fields (the supplementary artifact's
    /// 32-entry-SSIT jobs against the defaults, say); the cache serves
    /// a repeat of them all.
    #[test]
    fn json_dump_tells_jobs_apart_by_every_config_field() {
        let base = job("gzip");
        let variant = |edit: fn(&mut LsqConfig)| {
            let mut j = base;
            edit(&mut j.lsq);
            j
        };
        let jobs = [
            base,
            variant(|c| c.ssit_entries = 32),
            variant(|c| c.lfst_entries = 8),
            variant(|c| c.counter_max = 3),
            variant(|c| c.store_set_gating = false),
            variant(|c| c.load_load_squash = true),
            Job {
                scaled: true,
                ..base
            },
            Job {
                spec: RunSpec { seed: 2, ..TINY },
                ..base
            },
            Job {
                spec: RunSpec {
                    warmup: 100,
                    ..TINY
                },
                ..base
            },
            Job {
                spec: RunSpec {
                    instrs: 400,
                    ..TINY
                },
                ..base
            },
        ];
        let engine = Engine::new();
        let _ = engine.run_batch_with_workers(&jobs, Some(1));
        let n = jobs.len() as u64;
        assert_eq!(engine.stats(), (0, n), "every job is a fresh simulation");
        let path =
            std::env::temp_dir().join(format!("lsq_engine_config_{}.json", std::process::id()));
        engine.dump_json(path.to_str().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let parsed = Json::parse(&text).expect("dump is valid JSON");
        let records = parsed.as_arr().expect("dump is an array");
        assert_eq!(records.len(), jobs.len());
        let config = |r: &Json| -> Vec<Option<Json>> {
            [
                "bench",
                "scaled",
                "warmup",
                "instrs",
                "seed",
                "ports",
                "lq_entries",
                "sq_entries",
                "predictor",
                "load_order",
                "segmentation",
                "ssit_entries",
                "lfst_entries",
                "counter_max",
                "store_set_gating",
                "load_load_squash",
            ]
            .map(|k| r.get(k).cloned())
            .into()
        };
        for (i, r) in records.iter().enumerate().skip(1) {
            assert_ne!(
                config(r),
                config(&records[0]),
                "job {i} looks like the default job"
            );
        }
        assert_eq!(
            records[1].get("ssit_entries").and_then(Json::as_u64),
            Some(32)
        );
        let _ = engine.run_batch_with_workers(&jobs, Some(1));
        assert_eq!(
            engine.stats(),
            (n, n),
            "the repeat is served from the cache"
        );
    }

    #[test]
    fn json_dump_creates_its_directory() {
        let engine = Engine::new();
        let _ = engine.run_batch_with_workers(&[job("gzip")], Some(1));
        let dir = std::env::temp_dir().join(format!("lsq_engine_dump_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("new").join("x.json");
        engine.dump_json(path.to_str().unwrap());
        let text = std::fs::read_to_string(&path);
        let _ = std::fs::remove_dir_all(&dir);
        let text = text.expect("the dump creates its missing directories");
        let parsed = Json::parse(&text).expect("dump is valid JSON");
        assert_eq!(parsed.as_arr().map(<[Json]>::len), Some(1));
    }

    #[test]
    fn capped_warning_lists_offending_jobs() {
        assert_eq!(capped_warning(&[]), None);
        let labels = vec!["gzip ports=2".to_string(), "mcf ports=1".to_string()];
        let w = capped_warning(&labels).expect("capped jobs warn");
        assert!(w.contains("2 job(s)"), "{w}");
        assert!(w.contains("capped: gzip ports=2"), "{w}");
        assert!(w.contains("capped: mcf ports=1"), "{w}");
        assert!(w.contains("truncated"), "{w}");
    }
}
