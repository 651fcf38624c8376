//! Shared machinery for running design points across benchmarks.
//!
//! All entry points route through the [`crate::engine`]: design points
//! are simulated once per process and repeats are served from its result
//! cache, and batches run on a work-stealing pool sized by
//! `LSQ_JOBS` / `available_parallelism` (see the engine docs for the
//! observability knobs). Every design-point run, cached or not, observed
//! or not, is one [`Simulator::measure`] call made by `simulate`.

use crate::engine::{self, Engine, Job};
use lsq_core::LsqConfig;
use lsq_obs::{write_file, PipeRecord, TraceBuffer};
use lsq_pipeline::{NopProbe, Probe, ProbeSet, ProbeSpec, SimResult, Simulator};
use lsq_trace::BenchProfile;
use std::sync::atomic::{AtomicU64, Ordering};

/// Instruction budget for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// Instructions committed before measurement starts (caches,
    /// predictors, and queues warm up; statistics from this phase are
    /// discarded by [`lsq_pipeline::Simulator::measure`]).
    pub warmup: u64,
    /// Instructions measured.
    pub instrs: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            warmup: 100_000,
            instrs: default_instrs(),
            seed: 1,
        }
    }
}

fn default_instrs() -> u64 {
    lsq_util::knobs::get("LSQ_INSTRS")
        .and_then(|v| v.parse().ok())
        .unwrap_or(250_000)
}

/// Runs one `(benchmark, LSQ design point)` pair on the base (or scaled)
/// processor and returns the measured-phase result.
///
/// Served from the engine's result cache when the same design point has
/// already run in this process.
///
/// # Panics
///
/// Panics if `bench` is not one of the 18 profile names.
pub fn run_design_point(bench: &str, lsq: LsqConfig, scaled: bool, spec: RunSpec) -> SimResult {
    // lsq-lint: allow(no-unwrap-in-lib, reason = "documented # Panics contract: bench must be one of the 18 profile names")
    let profile = BenchProfile::named(bench).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    engine::global()
        .run_batch(&[Job {
            bench: profile.name,
            lsq,
            scaled,
            spec,
        }])
        .pop()
        // lsq-lint: allow(no-unwrap-in-lib, reason = "run_batch returns exactly one result per submitted job")
        .expect("one job, one result")
}

/// The one simulation path: `job`'s processor reporting to `probe`,
/// caches pre-warmed, measured by [`Simulator::measure`]. Generic over
/// the probe: the engine runs the unobserved [`NopProbe`] or a
/// [`ProbeSet`], whose recorders come back for [`run_observed`] to
/// write.
///
/// # Panics
///
/// Panics if `job.bench` is not one of the 18 profile names.
fn simulate<P: Probe>(job: &Job, probe: P) -> (SimResult, P) {
    let bench = job.bench;
    // lsq-lint: allow(no-unwrap-in-lib, reason = "documented # Panics contract: bench must be one of the 18 profile names")
    let profile = BenchProfile::named(bench).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let mut stream = profile.stream(job.spec.seed);
    let mut sim = Simulator::with_probe(job.config(), probe);
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let result = sim.measure(&mut stream, job.spec.warmup, job.spec.instrs);
    (result, sim.into_probe())
}

/// Runs `job` as every engine job runs, reporting to `probe`, then
/// writes the recorders to the files `probe.spec` names; the probe
/// comes back with what was not written (a recorder with no file is
/// left in place).
///
/// # Panics
///
/// Panics if `job.bench` is not one of the 18 profile names.
pub fn run_observed(job: &Job, probe: ProbeSet) -> (SimResult, ProbeSet) {
    let (result, mut probe) = simulate(job, probe);
    flush_sinks(job.bench, &mut probe);
    (result, probe)
}

/// One fresh engine job: unobserved when `observers` asks for nothing,
/// else observed by the recorders it builds for sink number `n`.
pub(crate) fn run_job(job: &Job, observers: &ProbeSpec, n: u64) -> SimResult {
    if observers.is_off() {
        return simulate(job, NopProbe).0;
    }
    run_observed(job, observers.build(n)).0
}

/// Reserves sink numbers for `jobs` fresh jobs of one batch and returns
/// the first. Numbers are unique within the process, so no two jobs
/// write the same file; the first job ever is numbered 0, which writes
/// the configured paths verbatim. Batches that write no file take none.
pub(crate) fn number_sinks(observers: &ProbeSpec, jobs: usize) -> u64 {
    static SINK_JOBS: AtomicU64 = AtomicU64::new(0);
    if observers.writes_nothing() {
        return 0;
    }
    SINK_JOBS.fetch_add(jobs as u64, Ordering::Relaxed)
}

/// Writes a finished run's recorders to the files of its spec: the
/// windowed CPI-stack CSV, the pipeline-viewer log, then the event
/// trace and timeline.
fn flush_sinks(bench: &str, probe: &mut ProbeSet) {
    if let (Some((path, _)), Some(cpi)) = (&probe.spec.cpi_csv, &mut probe.cpi_sampler) {
        cpi.flush();
        match write_file(path, &cpi.to_csv()) {
            Ok(()) => eprintln!("cpi-stack csv: {bench} -> {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write LSQ_ACCOUNTING_CSV={}: {e}",
                path.display()
            ),
        }
    }
    if let (Some(pv), Some(life)) = (&probe.spec.pipeview, &mut probe.life) {
        let records = life.take_records();
        warn_on_pipeview_drops(bench, &records, life.dropped(), pv.capacity);
        match pv.write(&records) {
            Ok(path) => eprintln!("pipeview: {bench} -> {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write LSQ_PIPEVIEW={}: {e}",
                pv.path.display()
            ),
        }
    }
    if let Some(trace) = probe.spec.trace.clone() {
        let sampler = probe.take_sampler();
        let buf = probe.trace.take().unwrap_or_default();
        warn_on_trace_drops(bench, &buf);
        match trace.write(&buf, sampler.as_ref()) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("trace: {bench} -> {}", p.display());
                }
            }
            Err(e) => eprintln!(
                "warning: could not write LSQ_TRACE={}: {e}",
                trace.path.display()
            ),
        }
    }
}

/// Surfaces pipeview-ring overflow at sink flush: a pipeline-viewer log
/// missing its oldest records is silently misleading, so drops cost a
/// stderr warning and a bump of the `lsq_pipeview_dropped_total` metric.
fn warn_on_pipeview_drops(bench: &str, records: &[PipeRecord], dropped: u64, capacity: usize) {
    if dropped > 0 {
        crate::telemetry::global().pipeview_drops(dropped);
        eprintln!(
            "warning: {bench}: pipeview ring dropped {dropped} of {} records; \
             the written log is truncated (raise LSQ_PIPEVIEW_CAP, \
             currently {capacity})",
            records.len() as u64 + dropped,
        );
    }
}

/// Surfaces trace-ring overflow at sink flush: a truncated JSONL/Chrome
/// artifact is silently misleading, so drops cost a stderr warning and
/// a bump of the `lsq_trace_events_dropped_total` metric.
fn warn_on_trace_drops(bench: &str, buf: &TraceBuffer) {
    if buf.dropped() > 0 {
        crate::telemetry::global().trace_drops(buf.dropped());
        eprintln!(
            "warning: {bench}: trace ring dropped {} of {} events; \
             the written trace is truncated (raise LSQ_TRACE_CAP, \
             currently {})",
            buf.dropped(),
            buf.total(),
            buf.capacity(),
        );
    }
}

/// Runs several design points for every benchmark through the engine's
/// work-stealing pool. Returns one row per benchmark (Table 2 order),
/// each with one result per design point (input order).
pub fn run_matrix(
    configs: &[LsqConfig],
    scaled: bool,
    spec: RunSpec,
) -> Vec<(&'static str, Vec<SimResult>)> {
    run_matrix_on(
        engine::global(),
        configs,
        scaled,
        spec,
        &ProbeSpec::from_env(),
    )
}

/// [`run_matrix`] on `engine`, with every fresh job observed by the
/// recorders `observers` asks for instead of the ones the `LSQ_*` knobs
/// ask for.
pub fn run_matrix_on(
    engine: &Engine,
    configs: &[LsqConfig],
    scaled: bool,
    spec: RunSpec,
    observers: &ProbeSpec,
) -> Vec<(&'static str, Vec<SimResult>)> {
    let names: Vec<&'static str> = BenchProfile::all().iter().map(|p| p.name).collect();
    let jobs: Vec<Job> = names
        .iter()
        .flat_map(|&name| {
            configs.iter().map(move |&lsq| Job {
                bench: name,
                lsq,
                scaled,
                spec,
            })
        })
        .collect();
    let mut results = engine.run_observed(&jobs, None, observers).into_iter();
    names
        .iter()
        .map(|&name| (name, results.by_ref().take(configs.len()).collect()))
        .collect()
}

/// Splits per-benchmark values into (INT mean, FP mean) using the Table 2
/// benchmark classification.
pub fn int_fp_means(rows: &[(&'static str, f64)]) -> (f64, f64) {
    let mut int = Vec::new();
    let mut fp = Vec::new();
    for (name, v) in rows {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "names come from Table 2 rows, all drawn from BenchProfile's table")
        let profile = BenchProfile::named(name).expect("known benchmark");
        if profile.fp {
            fp.push(*v);
        } else {
            int.push(*v);
        }
    }
    (
        lsq_stats::mean(&int).unwrap_or(0.0),
        lsq_stats::mean(&fp).unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsq_obs::{Sampler, TraceConfig, TIMELINE};
    use lsq_util::sync::MutexExt;
    use std::sync::Mutex;

    /// Held by the tests that read `lsq_trace_events_dropped_total`, so
    /// one does not see the other's drops.
    static DROP_METRIC: Mutex<()> = Mutex::new(());

    /// The process-wide `lsq_trace_events_dropped_total`.
    fn trace_drops() -> u64 {
        let text = crate::telemetry::global().metrics().render();
        text.lines()
            .find(|l| l.starts_with("lsq_trace_events_dropped_total"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    const SMALL: RunSpec = RunSpec {
        warmup: 2_000,
        instrs: 6_000,
        seed: 1,
    };

    #[test]
    fn run_design_point_produces_progress() {
        let r = run_design_point("gzip", LsqConfig::default(), false, SMALL);
        // The final cycle may retire up to commit_width instructions,
        // so a run can overshoot its budget by a few.
        assert!(
            (6_000..6_008).contains(&r.committed),
            "committed {}",
            r.committed
        );
        assert!(r.ipc() > 0.1);
        assert!(!r.hit_cycle_cap);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = run_design_point("nonesuch", LsqConfig::default(), false, SMALL);
    }

    #[test]
    fn diffing_removes_warmup() {
        let with_warm = run_design_point("gzip", LsqConfig::default(), false, SMALL);
        assert!(
            (SMALL.instrs..SMALL.instrs + 8).contains(&with_warm.committed),
            "warm-up committed removed ({})",
            with_warm.committed
        );
        assert!(
            with_warm.lsq.loads_issued < 6_000 * 2,
            "counters are windowed"
        );
    }

    /// A gzip job on the base design point at `SMALL`.
    fn gzip() -> Job {
        Job {
            bench: "gzip",
            lsq: LsqConfig::default(),
            scaled: false,
            spec: SMALL,
        }
    }

    /// An event ring of `capacity` events, and a 500-cycle timeline
    /// sampler, with no sink.
    fn traced(capacity: usize) -> ProbeSet {
        ProbeSet {
            trace: Some(TraceBuffer::with_capacity(capacity)),
            sampler: Some(Sampler::new(500, &TIMELINE)),
            ..ProbeSet::default()
        }
    }

    #[test]
    fn traced_run_matches_untraced_counters() {
        let (r, mut probe) = run_observed(&gzip(), traced(1 << 18));
        let (buf, sampler) = (probe.trace.take(), probe.take_sampler());
        let buf = buf.expect("a recorder with no sink stays in place");
        let plain = run_design_point("gzip", LsqConfig::default(), false, SMALL);
        assert_eq!(r.cycles, plain.cycles, "tracing must not perturb timing");
        assert_eq!(r.committed, plain.committed);
        assert_eq!(r.lsq.sq_searches, plain.lsq.sq_searches);
        assert_eq!(r.violation_squashes, plain.violation_squashes);
        assert!(buf.total() > 0, "a real run emits events");
        let sampler = sampler.expect("sampling was requested");
        assert!(!sampler.rows().is_empty(), "windows were recorded");
        // The sampler covers warm-up and measurement: its windowed cycles
        // partition the whole run.
        let windowed: u64 = sampler.rows().iter().map(|w| w.cycles).sum();
        assert!(
            windowed >= r.cycles,
            "windows cover at least the measured phase"
        );
    }

    #[test]
    fn cpi_csv_sink_creates_its_directory() {
        let dir = std::env::temp_dir().join(format!("lsq_cpi_sink_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("cpi.csv");
        let mut cpi = Sampler::new(2, &["base", "frontend"]);
        cpi.observe(1, &[4, 4]);
        cpi.observe(2, &[8, 8]);
        cpi.observe(3, &[9, 15]);
        let mut probe = ProbeSet {
            cpi_sampler: Some(cpi),
            ..ProbeSet::default()
        };
        probe.spec.cpi_csv = Some((path.clone(), 2));
        flush_sinks("gzip", &mut probe);
        let text = std::fs::read_to_string(&path).expect("the sink wrote the CSV");
        assert_eq!(
            text, "start_cycle,end_cycle,cycles,base,frontend\n1,2,2,8,8\n3,3,1,1,7\n",
            "the partial last window is flushed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_ring_overflow_is_counted_and_surfaced() {
        let (_, probe) = run_observed(&gzip(), traced(32));
        let buf = probe.trace.expect("a recorder with no sink stays in place");
        assert_eq!(buf.capacity(), 32);
        assert!(
            buf.dropped() > 0,
            "a real run overflows a 32-event ring ({} events total)",
            buf.total()
        );
        assert_eq!(buf.dropped() + buf.len() as u64, buf.total());
        let _serial = DROP_METRIC.lock_unpoisoned();
        let before = trace_drops();
        warn_on_trace_drops("gzip", &buf);
        assert_eq!(
            trace_drops(),
            before + buf.dropped(),
            "sink flush bumps the drop metric"
        );
    }

    #[test]
    fn a_timeline_trace_writes_its_csv_without_an_event_ring() {
        let dir = std::env::temp_dir().join(format!("lsq_timeline_sink_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.csv");
        let trace = TraceConfig {
            capacity: 32,
            ..TraceConfig::parse(&format!("{}:timeline", path.display()), None)
        };
        let spec = ProbeSpec {
            trace: Some(trace),
            ..ProbeSpec::default()
        };
        let _serial = DROP_METRIC.lock_unpoisoned();
        let before = trace_drops();
        let (_, probe) = run_observed(&gzip(), spec.build(0));
        assert!(probe.trace.is_none(), "no ring was attached");
        let text = std::fs::read_to_string(&path).expect("the timeline CSV was written");
        assert!(text.starts_with("start_cycle,end_cycle,"), "{text}");
        assert!(text.lines().count() > 1, "windows were recorded");
        assert_eq!(trace_drops(), before, "nothing was dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn int_fp_split() {
        let rows = vec![("gzip", 2.0), ("mgrid", 4.0)];
        let (i, f) = int_fp_means(&rows);
        assert_eq!(i, 2.0);
        assert_eq!(f, 4.0);
    }

    #[test]
    fn matrix_runs_all_benchmarks() {
        let tiny = RunSpec {
            warmup: 200,
            instrs: 800,
            seed: 1,
        };
        let rows = run_matrix(&[LsqConfig::default()], false, tiny);
        assert_eq!(rows.len(), 18);
        assert!(rows
            .iter()
            .all(|(_, r)| (800..808).contains(&r[0].committed)));
    }

    #[test]
    fn matrix_keeps_config_order_within_rows() {
        let tiny = RunSpec {
            warmup: 100,
            instrs: 400,
            seed: 1,
        };
        let one_port = LsqConfig::conventional(1);
        let rows = run_matrix(&[LsqConfig::default(), one_port], false, tiny);
        for (name, row) in &rows {
            assert_eq!(row.len(), 2, "{name}");
            // Identical results to running each point individually.
            let lone = run_design_point(name, one_port, false, tiny);
            assert_eq!(row[1].cycles, lone.cycles, "{name}");
        }
    }
}
