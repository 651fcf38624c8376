//! Results of a simulation run.

use crate::accounting::CpiStack;
use crate::lifecycle::{CriticalPath, StageLatency};
use crate::profile::PhaseProfile;
use lsq_core::LsqStats;

/// Everything measured over one run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads_committed: u64,
    /// Stores committed.
    pub stores_committed: u64,
    /// Branches committed.
    pub branches_committed: u64,
    /// Branch predictions made (at fetch).
    pub branch_predictions: u64,
    /// Branch mispredictions (each stalls fetch and pays the redirect
    /// penalty).
    pub branch_mispredictions: u64,
    /// Pipeline squashes due to memory-order violations.
    pub violation_squashes: u64,
    /// Instructions squashed (refetched) across all causes.
    pub instructions_squashed: u64,
    /// Mean load-queue occupancy per cycle (paper Table 5).
    pub lq_occupancy: f64,
    /// Mean store-queue occupancy per cycle (paper Table 5).
    pub sq_occupancy: f64,
    /// Mean number of loads issued out of program order per cycle (paper
    /// Table 4).
    pub ooo_issued_loads: f64,
    /// Mean in-flight loads per cycle (the paper quotes ~41).
    pub inflight_loads: f64,
    /// LSQ event counters.
    pub lsq: LsqStats,
    /// L1 d-cache miss rate.
    pub l1d_miss_rate: f64,
    /// L2 miss rate.
    pub l2_miss_rate: f64,
    /// Whether the run ended by hitting the safety cycle cap rather than
    /// the instruction budget (indicates a deadlocked configuration).
    pub hit_cycle_cap: bool,
    /// Host wall-clock nanoseconds spent producing this result. Zero when
    /// the simulator is driven directly; the experiment engine fills it in
    /// with the whole job's duration (warm-up included). Not a simulated
    /// quantity — excluded from determinism comparisons.
    pub wall_nanos: u64,
    /// Simulated instructions (warm-up included) per host wall-clock
    /// second, in millions. Zero when the simulator is driven directly;
    /// filled in by the experiment engine alongside [`wall_nanos`].
    ///
    /// [`wall_nanos`]: SimResult::wall_nanos
    pub sim_mips: f64,
    /// Per-phase wall-time self-profile, `None` unless the run was
    /// profiled (see [`crate::profile`]). Host-side timing, not a
    /// simulated quantity — excluded from determinism comparisons.
    pub profile: Option<PhaseProfile>,
    /// Per-component CPI stack, `None` unless the run was accounted
    /// (see [`crate::accounting`]). Fully deterministic — the stack's
    /// components sum exactly to `cycles × commit_width`.
    pub cpi_stack: Option<CpiStack>,
    /// Per-stage latency histograms over committed instructions, `None`
    /// unless a lifecycle recorder was attached (see
    /// [`crate::lifecycle`]). Fully deterministic.
    pub stage_latency: Option<StageLatency>,
    /// The longest dependency chain of the instructions committed since
    /// the probe's previous report (so [`SimResult::since`] keeps it),
    /// `None` unless a lifecycle recorder was attached. Deterministic.
    pub critical_path: Option<CriticalPath>,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline run of the same workload
    /// (ratio of IPCs; > 1.0 means faster).
    pub fn speedup_over(&self, base: &SimResult) -> f64 {
        let b = base.ipc();
        if b == 0.0 {
            0.0
        } else {
            self.ipc() / b
        }
    }

    /// Branch misprediction rate.
    pub fn branch_mispredict_rate(&self) -> f64 {
        if self.branch_predictions == 0 {
            0.0
        } else {
            self.branch_mispredictions as f64 / self.branch_predictions as f64
        }
    }

    /// The counters of the window between `before`, an earlier snapshot
    /// of the same run, and this one. [`Simulator::run`] reports
    /// cumulative counters, so the warm-up prefix is subtracted here
    /// (see [`Simulator::measure`]).
    ///
    /// [`Simulator::run`]: crate::Simulator::run
    /// [`Simulator::measure`]: crate::Simulator::measure
    pub fn since(&self, before: &SimResult) -> SimResult {
        let after = self;
        let mut r = after.clone();
        r.cycles = after.cycles - before.cycles;
        r.committed = after.committed - before.committed;
        r.loads_committed = after.loads_committed - before.loads_committed;
        r.stores_committed = after.stores_committed - before.stores_committed;
        r.branches_committed = after.branches_committed - before.branches_committed;
        r.branch_predictions = after.branch_predictions - before.branch_predictions;
        r.branch_mispredictions = after.branch_mispredictions - before.branch_mispredictions;
        r.violation_squashes = after.violation_squashes - before.violation_squashes;
        r.instructions_squashed = after.instructions_squashed - before.instructions_squashed;
        // LSQ counters are cumulative; difference the scalar fields.
        r.lsq.loads_dispatched -= before.lsq.loads_dispatched;
        r.lsq.stores_dispatched -= before.lsq.stores_dispatched;
        r.lsq.loads_issued -= before.lsq.loads_issued;
        r.lsq.stores_issued -= before.lsq.stores_issued;
        r.lsq.stores_committed -= before.lsq.stores_committed;
        r.lsq.sq_searches -= before.lsq.sq_searches;
        r.lsq.sq_search_hits -= before.lsq.sq_search_hits;
        r.lsq.lq_searches_by_stores -= before.lsq.lq_searches_by_stores;
        r.lsq.lq_searches_by_loads -= before.lsq.lq_searches_by_loads;
        r.lsq.lb_searches -= before.lsq.lb_searches;
        r.lsq.violations -= before.lsq.violations;
        r.lsq.commit_violations -= before.lsq.commit_violations;
        r.lsq.useless_searches -= before.lsq.useless_searches;
        r.lsq.load_load_violations -= before.lsq.load_load_violations;
        r.lsq.invalidations -= before.lsq.invalidations;
        r.lsq.invalidation_squashes -= before.lsq.invalidation_squashes;
        r.lsq.sq_port_stalls -= before.lsq.sq_port_stalls;
        r.lsq.lq_port_stalls -= before.lsq.lq_port_stalls;
        r.lsq.commit_port_delays -= before.lsq.commit_port_delays;
        r.lsq.lb_full_stalls -= before.lsq.lb_full_stalls;
        r.lsq.in_order_stalls -= before.lsq.in_order_stalls;
        r.lsq.store_set_waits -= before.lsq.store_set_waits;
        // The segment histogram is cumulative too: subtract the warm-up
        // snapshot so Table 6 reflects only the measured window.
        r.lsq.seg_search_hist.subtract(&before.lsq.seg_search_hist);
        // Occupancy means are sampled once per cycle, so the cycle counts are
        // their exact sample counts: re-base each mean onto the measured
        // window by removing the warm-up window's weighted contribution.
        let rebase = |b: f64, a: f64| rebase_mean(b, before.cycles, a, after.cycles);
        r.lq_occupancy = rebase(before.lq_occupancy, after.lq_occupancy);
        r.sq_occupancy = rebase(before.sq_occupancy, after.sq_occupancy);
        r.ooo_issued_loads = rebase(before.ooo_issued_loads, after.ooo_issued_loads);
        r.inflight_loads = rebase(before.inflight_loads, after.inflight_loads);
        // The CPI stack is cumulative and monotone, so the measured-window
        // stack is a component-wise difference — the partition invariant
        // carries over: diffed components sum to diffed cycles × width.
        // Stage-latency histograms are cumulative over committed
        // instructions; the same windowing applies.
        if let (Some(a), Some(b)) = (&after.cpi_stack, &before.cpi_stack) {
            r.cpi_stack = Some(a.minus(b));
        }
        if let (Some(a), Some(b)) = (&after.stage_latency, &before.stage_latency) {
            r.stage_latency = Some(a.minus(b));
        }
        r
    }

    /// Every counter of this result as aligned text under `title` —
    /// `bin/diag`'s report, including the Table 3 predictor counters.
    /// Counts print as integers, floats to four places and rates as
    /// percentages; one name column spans every section.
    pub fn render(&self, title: &str) -> String {
        let s = &self.lsq;
        let n = |v: u64| v.to_string();
        let f = |v: f64| format!("{v:.4}");
        let pct = |rate: f64| format!("{:.2}%", rate * 100.0);
        let mut sections: Vec<(&str, Vec<(&str, String)>)> = vec![
            (
                "run",
                vec![
                    ("cycles", n(self.cycles)),
                    ("committed", n(self.committed)),
                    ("ipc", f(self.ipc())),
                    ("hit_cycle_cap", n(u64::from(self.hit_cycle_cap))),
                ],
            ),
            (
                "volume",
                vec![
                    ("loads_committed", n(self.loads_committed)),
                    ("stores_committed", n(self.stores_committed)),
                    ("branches_committed", n(self.branches_committed)),
                    ("loads_dispatched", n(s.loads_dispatched)),
                    ("stores_dispatched", n(s.stores_dispatched)),
                    ("loads_issued", n(s.loads_issued)),
                    ("stores_issued", n(s.stores_issued)),
                ],
            ),
            (
                "frontend",
                vec![
                    ("branch_predictions", n(self.branch_predictions)),
                    ("branch_mispredictions", n(self.branch_mispredictions)),
                    ("branch_mispredict_rate", pct(self.branch_mispredict_rate())),
                ],
            ),
            (
                "memory",
                vec![
                    ("l1d_miss_rate", pct(self.l1d_miss_rate)),
                    ("l2_miss_rate", pct(self.l2_miss_rate)),
                ],
            ),
            (
                "searches",
                vec![
                    ("sq_searches", n(s.sq_searches)),
                    ("sq_search_hits", n(s.sq_search_hits)),
                    ("sq_search_fraction", pct(s.sq_search_fraction())),
                    ("lq_searches_by_stores", n(s.lq_searches_by_stores)),
                    ("lq_searches_by_loads", n(s.lq_searches_by_loads)),
                    ("lb_searches", n(s.lb_searches)),
                ],
            ),
            (
                "predictor (Table 3)",
                vec![
                    ("violations", n(s.violations)),
                    ("commit_violations", n(s.commit_violations)),
                    ("useless_searches", n(s.useless_searches)),
                    ("load_load_violations", n(s.load_load_violations)),
                    ("pair_mispred_rate", pct(s.pair_mispred_rate())),
                    ("pair_squash_rate", pct(s.pair_squash_rate())),
                    ("store_set_waits", n(s.store_set_waits)),
                ],
            ),
            (
                "squashes",
                vec![
                    ("violation_squashes", n(self.violation_squashes)),
                    ("instructions_squashed", n(self.instructions_squashed)),
                    ("invalidations", n(s.invalidations)),
                    ("invalidation_squashes", n(s.invalidation_squashes)),
                ],
            ),
            (
                "stalls",
                vec![
                    ("sq_port_stalls", n(s.sq_port_stalls)),
                    ("lq_port_stalls", n(s.lq_port_stalls)),
                    ("commit_port_delays", n(s.commit_port_delays)),
                    ("lb_full_stalls", n(s.lb_full_stalls)),
                    ("in_order_stalls", n(s.in_order_stalls)),
                ],
            ),
            (
                "occupancy",
                vec![
                    ("lq_occupancy", f(self.lq_occupancy)),
                    ("sq_occupancy", f(self.sq_occupancy)),
                    ("ooo_issued_loads", f(self.ooo_issued_loads)),
                    ("inflight_loads", f(self.inflight_loads)),
                ],
            ),
        ];
        // Segment-search depth distribution, only meaningful when the
        // histogram saw any searches.
        let depths: Vec<String> = s
            .seg_search_hist
            .iter()
            .map(|(k, _)| format!("within_{}_segments", k + 1))
            .collect();
        if s.seg_search_hist.count() > 0 {
            let rows = depths.iter().enumerate();
            let rows = rows.map(|(k, name)| (name.as_str(), pct(s.seg_search_fraction(k))));
            sections.push(("segment searches", rows.collect()));
        }
        let width = sections
            .iter()
            .flat_map(|(_, rows)| rows.iter().map(|(name, _)| name.len()))
            .max()
            .unwrap_or(0);
        let mut out = format!("=== {title} ===\n");
        for (section, rows) in &sections {
            out.push_str(&format!("\n[{section}]\n"));
            for (name, value) in rows {
                out.push_str(&format!("  {name:<width$}  {value:>14}\n"));
            }
        }
        out
    }
}

/// Mean over only the samples recorded after a snapshot:
/// `(after_mean·after_n − before_mean·before_n) / (after_n − before_n)`,
/// clamped at zero against floating-point cancellation.
fn rebase_mean(before_mean: f64, before_n: u64, after_mean: f64, after_n: u64) -> f64 {
    let n = after_n.saturating_sub(before_n);
    if n == 0 {
        return 0.0;
    }
    let sum = after_mean * after_n as f64 - before_mean * before_n as f64;
    (sum / n as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> SimResult {
        SimResult {
            cycles: 0,
            committed: 0,
            loads_committed: 0,
            stores_committed: 0,
            branches_committed: 0,
            branch_predictions: 0,
            branch_mispredictions: 0,
            violation_squashes: 0,
            instructions_squashed: 0,
            lq_occupancy: 0.0,
            sq_occupancy: 0.0,
            ooo_issued_loads: 0.0,
            inflight_loads: 0.0,
            lsq: LsqStats::new(1),
            l1d_miss_rate: 0.0,
            l2_miss_rate: 0.0,
            hit_cycle_cap: false,
            wall_nanos: 0,
            cpi_stack: None,
            stage_latency: None,
            critical_path: None,
            sim_mips: 0.0,
            profile: None,
        }
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(blank().ipc(), 0.0);
    }

    #[test]
    fn ipc_and_speedup() {
        let mut a = blank();
        a.cycles = 100;
        a.committed = 250;
        let mut b = blank();
        b.cycles = 100;
        b.committed = 200;
        assert_eq!(a.ipc(), 2.5);
        assert_eq!(a.speedup_over(&b), 1.25);
        assert_eq!(a.speedup_over(&blank()), 0.0);
    }

    #[test]
    fn render_prints_every_section_in_one_aligned_column() {
        let mut r = blank();
        r.cycles = 200;
        r.committed = 100;
        r.branch_predictions = 8;
        r.branch_mispredictions = 1;
        r.l1d_miss_rate = 0.25;
        r.lq_occupancy = 1.5;
        r.lsq.commit_violations = 7;
        r.lsq.useless_searches = 11;
        r.lsq.load_load_violations = 3;
        let body = "\
=== unit test ===

[run]
  cycles                             200
  committed                          100
  ipc                             0.5000
  hit_cycle_cap                        0

[volume]
  loads_committed                      0
  stores_committed                     0
  branches_committed                   0
  loads_dispatched                     0
  stores_dispatched                    0
  loads_issued                         0
  stores_issued                        0

[frontend]
  branch_predictions                   8
  branch_mispredictions                1
  branch_mispredict_rate          12.50%

[memory]
  l1d_miss_rate                   25.00%
  l2_miss_rate                     0.00%

[searches]
  sq_searches                          0
  sq_search_hits                       0
  sq_search_fraction               0.00%
  lq_searches_by_stores                0
  lq_searches_by_loads                 0
  lb_searches                          0

[predictor (Table 3)]
  violations                           0
  commit_violations                    7
  useless_searches                    11
  load_load_violations                 3
  pair_mispred_rate                0.00%
  pair_squash_rate                 0.00%
  store_set_waits                      0

[squashes]
  violation_squashes                   0
  instructions_squashed                0
  invalidations                        0
  invalidation_squashes                0

[stalls]
  sq_port_stalls                       0
  lq_port_stalls                       0
  commit_port_delays                   0
  lb_full_stalls                       0
  in_order_stalls                      0

[occupancy]
  lq_occupancy                    1.5000
  sq_occupancy                    0.0000
  ooo_issued_loads                0.0000
  inflight_loads                  0.0000
";
        assert_eq!(
            r.render("unit test"),
            body,
            "no segment searches, no section"
        );

        r.lsq = LsqStats::new(2);
        for depth in [0, 0, 1] {
            r.lsq.seg_search_hist.record(depth);
        }
        r.lsq.commit_violations = 7;
        r.lsq.useless_searches = 11;
        r.lsq.load_load_violations = 3;
        let segments = "
[segment searches]
  within_1_segments               66.67%
  within_2_segments               33.33%
";
        assert_eq!(r.render("unit test"), format!("{body}{segments}"));
    }

    #[test]
    fn diffing_rebases_means_and_histogram() {
        let mut before = blank();
        before.lsq = LsqStats::new(4);
        before.cycles = 1_000;
        before.lq_occupancy = 30.0; // congested warm-up window
        before.lsq.seg_search_hist.record(0);
        before.lsq.seg_search_hist.record(3);
        let mut after = blank();
        after.lsq = LsqStats::new(4);
        after.cycles = 3_000;
        // Cumulative mean: (30·1000 + 6·2000) / 3000 = 14.
        after.lq_occupancy = 14.0;
        after.lsq.seg_search_hist.record(0);
        after.lsq.seg_search_hist.record(3);
        after.lsq.seg_search_hist.record(1);
        let r = after.since(&before);
        assert_eq!(r.cycles, 2_000);
        assert!(
            (r.lq_occupancy - 6.0).abs() < 1e-9,
            "warm-up congestion removed"
        );
        // Only the measured-window observation remains.
        assert_eq!(r.lsq.seg_search_hist.count(), 1);
        assert_eq!(r.lsq.seg_search_hist.bucket(1), 1);
        assert_eq!(r.lsq.seg_search_hist.bucket(0), 0);
        assert_eq!(r.lsq.seg_search_hist.bucket(3), 0);
    }

    #[test]
    fn rebase_mean_edge_cases() {
        // No new samples: define the mean as zero rather than dividing
        // by zero.
        assert_eq!(rebase_mean(5.0, 100, 5.0, 100), 0.0);
        // No warm-up: the cumulative mean passes through.
        assert_eq!(rebase_mean(0.0, 0, 7.5, 200), 7.5);
        // A difference that would go negative (rounding noise near zero)
        // clamps at zero instead.
        assert_eq!(rebase_mean(2.0, 100, 1.0, 101), 0.0);
    }

    #[test]
    fn branch_rate() {
        let mut r = blank();
        assert_eq!(r.branch_mispredict_rate(), 0.0);
        r.branch_predictions = 10;
        r.branch_mispredictions = 1;
        assert!((r.branch_mispredict_rate() - 0.1).abs() < 1e-12);
    }
}
