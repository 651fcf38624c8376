//! Metric definitions, and their values computed from batch reports.
//!
//! End-to-end metrics come from untraced run-pass batches; per-layer
//! metrics from a trace-pass run: the layer-pass spans and exact counts
//! of its first untraced batch, the self-profile of its profiled
//! batches. Every timing is the median over the run's batches.

use crate::batch::BatchReport;
use crate::layers::{Span, CORE_CALLS};
use lsq_obs::Json;

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the simulator sees, from the untraced run pass.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", "lower"),
    def("sim_mips", "Minstr/s", "higher"),
    def("setup_s", "s", "lower"),
];

/// Per-layer metrics, from the trace pass.
pub const PER_LAYER: &[MetricDef] = &[
    def("trace.ns_per_instr", "ns", "lower"),
    def("trace.build_us", "us", "lower"),
    def("mem.access_ns", "ns", "lower"),
    def("mem.prewarm_us", "us", "lower"),
    def("mem.l1d_miss_rate", "fraction", "lower"),
    def("mem.l2_miss_rate", "fraction", "lower"),
    def("core.dispatch_ns", "ns", "lower"),
    def("core.load_issue_ns", "ns", "lower"),
    def("core.store_issue_ns", "ns", "lower"),
    def("core.retire_ns", "ns", "lower"),
    def("core.drain_ns", "ns", "lower"),
    def("core.squash_ns", "ns", "lower"),
    def("core.begin_cycle_ns", "ns", "lower"),
    def("core.sq_searches_pki", "1/kinstr", "lower"),
    def("core.lq_searches_pki", "1/kinstr", "lower"),
    def("core.lb_searches_pki", "1/kinstr", "lower"),
    def("core.sq_hit_rate", "fraction", "higher"),
    def("core.useless_search_rate", "fraction", "lower"),
    def("core.port_stalls_pki", "1/kinstr", "lower"),
    def("core.violations_pki", "1/kinstr", "lower"),
    def("core.lq_occupancy", "entries", "lower"),
    def("core.sq_occupancy", "entries", "lower"),
    def("pipeline.new_us", "us", "lower"),
    def("pipeline.fetch_ns", "ns", "lower"),
    def("pipeline.dispatch_ns", "ns", "lower"),
    def("pipeline.issue_ns", "ns", "lower"),
    def("pipeline.lsq_search_ns", "ns", "lower"),
    def("pipeline.segment_advance_ns", "ns", "lower"),
    def("pipeline.commit_ns", "ns", "lower"),
    def("pipeline.squash_ns", "ns", "lower"),
    def("pipeline.other_ns", "ns", "lower"),
    def("pipeline.ipc", "instr/cycle", "higher"),
    def("pipeline.squashed_pki", "1/kinstr", "lower"),
    def("pipeline.profiler_overhead", "ratio", "lower"),
    def("experiments.jobs", "count", "lower"),
    def("experiments.cache_hit_rate", "fraction", "higher"),
    def("experiments.parallel_efficiency", "fraction", "higher"),
    def("experiments.idle_s", "s", "lower"),
    def("experiments.steals", "count", "lower"),
    def("experiments.peak_rss_mb", "MiB", "lower"),
];

/// The unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median over batches of `f`.
fn med(batches: &[BatchReport], f: impl Fn(&BatchReport) -> f64) -> f64 {
    median(batches.iter().map(f).collect())
}

/// Host nanoseconds per simulated instruction of one batch.
fn ns_per_instr(b: &BatchReport) -> f64 {
    ratio(b.sim_wall_ns as f64, b.sim_instrs as f64)
}

fn named(m: Vec<(&str, f64)>) -> Vec<(String, f64)> {
    m.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

/// The end-to-end metrics of a run pass's batches, in [`END_TO_END`]
/// order.
pub fn end_to_end(batches: &[BatchReport]) -> Vec<(String, f64)> {
    let setups: Vec<f64> = batches
        .iter()
        .filter_map(|b| b.setup_ns)
        .map(|ns| ns as f64 / 1e9)
        .collect();
    named(vec![
        ("wall_s", med(batches, |b| b.makespan_ns as f64 / 1e9)),
        ("sim_mips", med(batches, |b| 1e3 / ns_per_instr(b))),
        ("setup_s", median(setups)),
    ])
}

/// The per-layer metrics of a trace pass, in [`PER_LAYER`] order:
/// `untraced` batches (the first carrying the layer-pass spans) and
/// `profiled` batches of the same jobs, run on `workers` workers.
pub fn per_layer(
    untraced: &[BatchReport],
    profiled: &[BatchReport],
    workers: usize,
) -> Vec<(String, f64)> {
    let empty = BatchReport::default();
    let first = untraced.first().unwrap_or(&empty);
    let sum = |name: &str, f: &dyn Fn(&Span) -> u64| -> f64 {
        first
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(f)
            .sum::<u64>() as f64
    };
    let dur = |name: &str| sum(name, &|s| s.dur_ns);
    let arg = |name: &str, key: &str| sum(name, &|s| s.arg(key));
    let mean_us = |name: &str| ratio(dur(name), sum(name, &|_| 1)) / 1e3;

    let jobs = first.counted();
    let total = |field: &str| jobs.iter().map(|o| o.field(field)).sum::<f64>();
    let weighted = |field: &str| {
        jobs.iter()
            .map(|o| o.field(field) * o.field("cycles"))
            .sum()
    };
    let committed = total("committed");
    let cycles = total("cycles");
    let pki = |n: f64| ratio(n * 1e3, committed);

    let phase = |b: &BatchReport, name: &str| {
        b.phases
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, ns)| *ns as f64)
    };
    let self_ns =
        |f: &dyn Fn(&BatchReport) -> f64| med(profiled, |b| ratio(f(b), b.sim_instrs as f64));
    let top_level = [
        "fetch",
        "dispatch",
        "wakeup_issue",
        "segment_advance",
        "commit",
    ];

    let mut m = named(vec![
        (
            "trace.ns_per_instr",
            ratio(dur("trace.generate"), arg("trace.generate", "instrs")),
        ),
        ("trace.build_us", mean_us("trace.build")),
        (
            "mem.access_ns",
            ratio(dur("replay.mem"), arg("replay.mem", "accesses")),
        ),
        ("mem.prewarm_us", mean_us("mem.prewarm")),
        (
            "mem.l1d_miss_rate",
            ratio(
                arg("replay.mem", "l1d_misses"),
                arg("replay.mem", "accesses"),
            ),
        ),
        (
            "mem.l2_miss_rate",
            ratio(
                arg("replay.mem", "l2_misses"),
                arg("replay.mem", "l2_accesses"),
            ),
        ),
    ]);
    for call in CORE_CALLS {
        let nanos = arg("replay.core", &format!("{call}_ns"));
        m.push((
            format!("core.{call}_ns"),
            ratio(nanos, arg("replay.core", call)),
        ));
    }
    m.extend(named(vec![
        ("core.sq_searches_pki", pki(total("lsq.sq_searches"))),
        (
            "core.lq_searches_pki",
            pki(total("lsq.lq_searches_by_stores") + total("lsq.lq_searches_by_loads")),
        ),
        ("core.lb_searches_pki", pki(total("lsq.lb_searches"))),
        (
            "core.sq_hit_rate",
            ratio(total("lsq.sq_search_hits"), total("lsq.sq_searches")),
        ),
        (
            "core.useless_search_rate",
            ratio(total("lsq.useless_searches"), total("lsq.sq_searches")),
        ),
        (
            "core.port_stalls_pki",
            pki(total("lsq.sq_port_stalls")
                + total("lsq.lq_port_stalls")
                + total("lsq.commit_port_delays")),
        ),
        ("core.violations_pki", pki(total("lsq.violations"))),
        ("core.lq_occupancy", ratio(weighted("lq_occupancy"), cycles)),
        ("core.sq_occupancy", ratio(weighted("sq_occupancy"), cycles)),
        ("pipeline.new_us", mean_us("pipeline.new")),
        ("pipeline.fetch_ns", self_ns(&|b| phase(b, "fetch"))),
        ("pipeline.dispatch_ns", self_ns(&|b| phase(b, "dispatch"))),
        (
            "pipeline.issue_ns",
            self_ns(&|b| phase(b, "wakeup_issue") - phase(b, "lsq_search")),
        ),
        (
            "pipeline.lsq_search_ns",
            self_ns(&|b| phase(b, "lsq_search")),
        ),
        (
            "pipeline.segment_advance_ns",
            self_ns(&|b| phase(b, "segment_advance")),
        ),
        ("pipeline.commit_ns", self_ns(&|b| phase(b, "commit"))),
        ("pipeline.squash_ns", self_ns(&|b| phase(b, "squash"))),
        (
            "pipeline.other_ns",
            self_ns(&|b| {
                let phases: f64 = top_level.iter().map(|p| phase(b, p)).sum();
                (b.sim_wall_ns as f64 - phases).max(0.0)
            }),
        ),
        ("pipeline.ipc", ratio(committed, cycles)),
        ("pipeline.squashed_pki", pki(total("instructions_squashed"))),
        (
            "pipeline.profiler_overhead",
            ratio(med(profiled, ns_per_instr), med(untraced, ns_per_instr)),
        ),
        (
            "experiments.jobs",
            med(untraced, |b| (b.cache_hits + b.cache_misses) as f64),
        ),
        (
            "experiments.cache_hit_rate",
            med(untraced, |b| {
                ratio(b.cache_hits as f64, (b.cache_hits + b.cache_misses) as f64)
            }),
        ),
        (
            "experiments.parallel_efficiency",
            med(untraced, |b| {
                ratio(b.sim_wall_ns as f64, workers as f64 * b.makespan_ns as f64)
            }),
        ),
        (
            "experiments.idle_s",
            med(untraced, |b| {
                (workers as f64 * b.makespan_ns as f64 - b.sim_wall_ns as f64).max(0.0) / 1e9
            }),
        ),
        ("experiments.steals", med(untraced, |b| b.steals as f64)),
        (
            "experiments.peak_rss_mb",
            med(untraced, |b| b.peak_rss_kib as f64 / 1024.0),
        ),
    ]));
    m
}

/// The benchmark's result line: `correct`, `attempted`, `failed` and
/// every metric with its unit. A metric may carry a `<workload>/`
/// prefix.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64)]) -> Json {
    let metrics = metrics
        .iter()
        .map(|(name, value)| {
            let base = name.rsplit_once('/').map_or(name.as_str(), |(_, m)| m);
            (
                name.clone(),
                Json::obj(vec![
                    ("value", Json::from(*value)),
                    ("unit", unit(base).into()),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", (failed == 0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
}
