//! The four workloads: which jobs each runs, at what budget, and why.
//!
//! Every job list is a cross-product of design points × benchmarks ×
//! seeds `S, S+1, …`, where `S` is the `--seed` given to the benchmark.
//! Budgets are per job: 100,000 warm-up instructions before the measured
//! window, as the experiment runner does, then the workload's measured
//! budget (one fifth of it in the trace pass).

use lsq_core::{LsqConfig, PredictorKind, SegAlloc};
use lsq_experiments::{Job, RunSpec};
use lsq_trace::BenchProfile;

const WARMUP: u64 = 100_000;

/// The untraced pass that end-to-end numbers come from, or the profiled
/// pass that per-layer numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Untraced, full measured budget.
    Run,
    /// Profiled, one fifth of the measured budget.
    Trace,
}

impl Pass {
    /// Both passes, in the order reference outputs store them.
    pub const ALL: [Pass; 2] = [Pass::Run, Pass::Trace];

    /// Stable name used in reference files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Run => "run",
            Pass::Trace => "trace",
        }
    }
}

/// Instructions simulated per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Warm-up instructions (results discarded by differencing).
    pub warmup: u64,
    /// Measured instructions.
    pub instrs: u64,
}

impl Budget {
    /// The engine's run specification for one seed.
    pub fn spec(self, seed: u64) -> RunSpec {
        RunSpec {
            warmup: self.warmup,
            instrs: self.instrs,
            seed,
        }
    }
}

/// The design points the workloads draw on, by name.
fn design_point(name: &str) -> Option<LsqConfig> {
    Some(match name {
        "conventional2" => LsqConfig::default(),
        "pair" => LsqConfig {
            predictor: PredictorKind::Pair,
            ..LsqConfig::default()
        },
        "lb1" => LsqConfig::with_techniques(1),
        "segmented" => LsqConfig::segmented(SegAlloc::SelfCircular),
        _ => return None,
    })
}

/// One job with the label it is reported and checked under.
#[derive(Debug, Clone)]
pub struct NamedJob {
    /// `<design point>/<benchmark>/s<seed>`.
    pub label: String,
    /// What the engine runs.
    pub job: Job,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper table and figure through `lsq_experiments::all`.
    PaperAll,
    /// The segmented LSQ on search-heavy benchmarks.
    SegSearch,
    /// Conventional and pair LSQs on cache-missing benchmarks.
    MemBound,
    /// Pair and load-buffer LSQs on store-communicating benchmarks.
    StoreSquash,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperAll,
        Workload::SegSearch,
        Workload::MemBound,
        Workload::StoreSquash,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAll => "paper_all",
            Workload::SegSearch => "seg_search",
            Workload::MemBound => "mem_bound",
            Workload::StoreSquash => "store_squash",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperAll => {
                "what users run: every paper table and figure, the only workload where the \
                 engine's result cache and job-scheduling tail matter"
            }
            Workload::SegSearch => {
                "segmented LSQ on search-heavy benchmarks, where SQ/LQ search takes 40-65% of \
                 job time; a search-kernel change should show here"
            }
            Workload::MemBound => {
                "low-IPC, cache-missing jobs where the cycle loop and cache model dominate; the \
                 control a search-kernel change should leave unchanged"
            }
            Workload::StoreSquash => {
                "pair and load-buffer LSQs on store-communicating benchmarks: store-side LQ \
                 scans, drain searches, load-buffer searches and squash/refetch"
            }
        }
    }

    /// Measured instructions per job in the run pass.
    fn measured(self) -> u64 {
        match self {
            Workload::PaperAll => 25_000,
            Workload::SegSearch => 400_000,
            Workload::MemBound => 600_000,
            Workload::StoreSquash => 700_000,
        }
    }

    /// The per-job budget of `pass`.
    pub fn budget(self, pass: Pass) -> Budget {
        let instrs = match pass {
            Pass::Run => self.measured(),
            Pass::Trace => self.measured() / 5,
        };
        Budget {
            warmup: WARMUP,
            instrs,
        }
    }

    /// Design points, benchmarks and number of seeds of the job list.
    /// `paper_all` hides its jobs inside `all()`, so it stands in the
    /// 18 × 4 standard matrix for set-up timing and layer passes.
    fn matrix(self) -> (&'static [&'static str], Vec<&'static str>, u64) {
        match self {
            Workload::PaperAll => (
                &["conventional2", "pair", "lb1", "segmented"],
                BenchProfile::all().iter().map(|p| p.name).collect(),
                1,
            ),
            Workload::SegSearch => (
                &["segmented"],
                vec![
                    "mgrid", "perl", "applu", "wupwise", "mesa", "equake", "gcc", "bzip",
                ],
                6,
            ),
            Workload::MemBound => (
                &["conventional2", "pair"],
                vec!["art", "mcf", "swim", "ammp"],
                6,
            ),
            Workload::StoreSquash => (
                &["pair", "lb1"],
                vec!["gcc", "vortex", "vpr", "gzip", "perl", "twolf"],
                4,
            ),
        }
    }

    /// The job list for `--seed seed`: design points × benchmarks ×
    /// seeds `seed, seed+1, …`.
    pub fn jobs(self, seed: u64, budget: Budget) -> Vec<NamedJob> {
        let (configs, benches, seeds) = self.matrix();
        let mut jobs = Vec::new();
        for s in seed..seed + seeds {
            for &config in configs {
                for &bench in &benches {
                    let Some(lsq) = design_point(config) else {
                        continue;
                    };
                    jobs.push(NamedJob {
                        label: format!("{config}/{bench}/s{s}"),
                        job: Job {
                            bench,
                            lsq,
                            scaled: false,
                            spec: budget.spec(s),
                        },
                    });
                }
            }
        }
        jobs
    }
}
