//! The simulator self-profiler: scoped wall-time phase timers.
//!
//! A [`PhaseProfile`] is the phase timer of a
//! [`ProbeSet`](crate::probe::ProbeSet) and the report it leaves in
//! [`SimResult::profile`](crate::SimResult::profile). Timing sites ask the probe
//! whether it times at all, and [`NopProbe`](crate::probe::NopProbe)
//! answers a constant `false`, so an unprofiled simulator takes no
//! `Instant::now()` calls on the hot path. `tests/telemetry_profile.rs`
//! pins counter equality between profiled and unprofiled runs; the
//! interleaved A/B geomean in EXPERIMENTS.md pins throughput.
//!
//! Phase semantics are *inclusive*: [`Phase::LsqSearch`] time (the
//! issue-side SQ/LQ/LB searches) is also inside [`Phase::WakeupIssue`],
//! and [`Phase::Squash`] time is inside whichever phase detected the
//! violation (commit-time drains or issue). Summing top-level phases
//! therefore approximates a cycle's cost; the nested phases attribute
//! it. Commit-time violation searches performed by store drains are
//! charged to [`Phase::Commit`] only.

use lsq_obs::Json;

/// A named region of one simulated cycle of
/// [`Simulator::run`](crate::Simulator::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fetch stage: i-cache access, branch prediction, replay refill.
    Fetch,
    /// Dispatch stage: rename, ROB/IQ/LSQ allocation.
    Dispatch,
    /// Issue stage: event-driven wakeup (calendar drain into the ready
    /// mask), the select loop, and execute-side bookkeeping. Includes
    /// [`Phase::LsqSearch`].
    WakeupIssue,
    /// Issue-side SQ/LQ/LB associative searches (`load_issue` /
    /// `store_issue`). Nested inside [`Phase::WakeupIssue`].
    LsqSearch,
    /// Per-cycle LSQ housekeeping, notably segment advance under the
    /// segmented schemes (`begin_cycle`).
    SegmentAdvance,
    /// Commit stage: background store drains (with their commit-time
    /// violation searches) plus in-order retirement.
    Commit,
    /// Squash-and-refetch recovery. Nested inside the detecting phase.
    Squash,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 7] = [
        Phase::Fetch,
        Phase::Dispatch,
        Phase::WakeupIssue,
        Phase::LsqSearch,
        Phase::SegmentAdvance,
        Phase::Commit,
        Phase::Squash,
    ];

    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fetch => "fetch",
            Phase::Dispatch => "dispatch",
            Phase::WakeupIssue => "wakeup_issue",
            Phase::LsqSearch => "lsq_search",
            Phase::SegmentAdvance => "segment_advance",
            Phase::Commit => "commit",
            Phase::Squash => "squash",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One phase's accumulated totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Timed invocations.
    pub calls: u64,
    /// Total wall nanoseconds across those invocations.
    pub nanos: u64,
}

/// The phase timer and its per-run (or aggregated) report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Per-phase totals, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStat>,
}

impl Default for PhaseProfile {
    /// Every phase, untouched, in [`Phase::ALL`] order.
    fn default() -> Self {
        PhaseProfile {
            phases: Phase::ALL
                .iter()
                .map(|p| PhaseStat {
                    phase: p.name().to_string(),
                    calls: 0,
                    nanos: 0,
                })
                .collect(),
        }
    }
}

impl PhaseProfile {
    /// Adds one timed invocation of `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        let stat = &mut self.phases[phase.index()];
        stat.calls += 1;
        stat.nanos += nanos;
    }

    /// Total nanoseconds across phases, counting nested phases once
    /// (the nested [`Phase::LsqSearch`] and [`Phase::Squash`] spans are
    /// already inside their parents).
    pub fn total_nanos(&self) -> u64 {
        self.phases
            .iter()
            .filter(|s| s.phase != "lsq_search" && s.phase != "squash")
            .map(|s| s.nanos)
            .sum()
    }

    /// Folds another report into this one, phase by phase.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, stat) in self.phases.iter_mut().zip(&other.phases) {
            mine.calls += stat.calls;
            mine.nanos += stat.nanos;
        }
    }

    /// Serializes as `{"phase_name": {"calls": n, "nanos": n}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.phases
                .iter()
                .map(|s| {
                    (
                        s.phase.as_str(),
                        Json::obj(vec![("calls", s.calls.into()), ("nanos", s.nanos.into())]),
                    )
                })
                .collect(),
        )
    }

    /// A human-readable table: phase, calls, total ms, share of the
    /// un-nested total.
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut out = String::from("phase              calls          ms   share\n");
        for s in &self.phases {
            let nested = s.phase == "lsq_search" || s.phase == "squash";
            out.push_str(&format!(
                "{}{:<17} {:>9} {:>11.3} {:>6.1}%\n",
                if nested { "  " } else { "" },
                s.phase,
                s.calls,
                s.nanos as f64 / 1e6,
                100.0 * s.nanos as f64 / total as f64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_phase() {
        let mut p = PhaseProfile::default();
        p.record(Phase::Fetch, 10);
        p.record(Phase::Fetch, 5);
        p.record(Phase::Commit, 7);
        let fetch = p.phases.iter().find(|s| s.phase == "fetch").unwrap();
        assert_eq!((fetch.calls, fetch.nanos), (2, 15));
        let commit = p.phases.iter().find(|s| s.phase == "commit").unwrap();
        assert_eq!((commit.calls, commit.nanos), (1, 7));
        // Every phase appears, even untouched ones, in report order.
        let names: Vec<&str> = p.phases.iter().map(|s| s.phase.as_str()).collect();
        assert_eq!(names, Phase::ALL.map(Phase::name));
    }

    #[test]
    fn total_excludes_nested_phases() {
        let mut p = PhaseProfile::default();
        p.record(Phase::WakeupIssue, 100);
        p.record(Phase::LsqSearch, 60); // inside WakeupIssue
        p.record(Phase::Commit, 40);
        p.record(Phase::Squash, 10); // inside Commit
        assert_eq!(p.total_nanos(), 140);
    }

    #[test]
    fn merge_adds_phase_by_phase() {
        let mut a = PhaseProfile::default();
        a.record(Phase::Fetch, 10);
        let mut q = PhaseProfile::default();
        q.record(Phase::Fetch, 5);
        q.record(Phase::Dispatch, 3);
        a.merge(&q);
        let fetch = a.phases.iter().find(|s| s.phase == "fetch").unwrap();
        assert_eq!((fetch.calls, fetch.nanos), (2, 15));
        let dispatch = a.phases.iter().find(|s| s.phase == "dispatch").unwrap();
        assert_eq!((dispatch.calls, dispatch.nanos), (1, 3));
    }

    #[test]
    fn json_keys_every_phase_with_calls_and_nanos() {
        let mut p = PhaseProfile::default();
        p.record(Phase::LsqSearch, 42);
        p.record(Phase::Squash, 1);
        p.record(Phase::Squash, 2);
        let json = Json::parse(&p.to_json().to_string()).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let names: Vec<&str> = p.phases.iter().map(|s| s.phase.as_str()).collect();
        assert_eq!(keys, names);
        let field = |phase: &str, f: &str| json.get(phase).and_then(|s| s.get(f)?.as_u64());
        assert_eq!(field("lsq_search", "calls"), Some(1));
        assert_eq!(field("lsq_search", "nanos"), Some(42));
        assert_eq!(field("squash", "calls"), Some(2));
        assert_eq!(field("squash", "nanos"), Some(3));
        assert_eq!(field("fetch", "calls"), Some(0));
    }

    #[test]
    fn render_marks_nested_phases() {
        let mut p = PhaseProfile::default();
        p.record(Phase::WakeupIssue, 2_000_000);
        p.record(Phase::LsqSearch, 1_000_000);
        let text = p.render();
        assert!(text.contains("wakeup_issue"), "{text}");
        assert!(text.contains("  lsq_search"), "{text}");
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "fetch",
                "dispatch",
                "wakeup_issue",
                "lsq_search",
                "segment_advance",
                "commit",
                "squash"
            ]
        );
    }
}
