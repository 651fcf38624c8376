//! Cycle accounting: CPI stacks in the style of interval analysis.
//!
//! The aggregate counters say *that* a design point lost IPC; this
//! module says *where the cycles went*. Each cycle the simulator has
//! `commit_width` commit slots. Slots that retire an instruction are
//! charged to [`Component::Base`]; every remaining slot of the cycle is
//! charged to exactly **one** stall component, chosen from the head of
//! the ROB (the classic interval-analysis attribution: the oldest
//! instruction's reason is the cycle's reason). The components are
//! therefore exhaustive and mutually exclusive by construction, and the
//! hard invariant
//!
//! ```text
//! Σ component slots == cycles × commit_width
//! ```
//!
//! holds for every run — enforced by a debug assert in
//! [`Simulator::run`](crate::Simulator) and pinned by tests across all
//! design points.
//!
//! A [`CpiStack`] is both the report and the accountant of a
//! [`ProbeSet`](crate::probe::ProbeSet): the simulator charges base
//! slots through the probe's commit hook and classified stall slots
//! through its stall hook, and with
//! [`NopProbe`](crate::probe::NopProbe) every attribution site compiles
//! away. For `LSQ_ACCOUNTING_CSV` the probe set samples the stack's
//! cumulative counters ([`CpiStack::components`]) into a windowed
//! [`lsq_obs::Sampler`] labelled by [`Component::NAMES`], so the
//! per-component timeline lands in CSV next to the IPC timeline.

use lsq_obs::Json;

/// Where one commit slot of one cycle went. Exactly one component is
/// charged per slot; see the module docs for the partition invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// The slot retired an instruction: useful work.
    Base,
    /// ROB empty with fetch not stalled on a known cause: the front end
    /// simply has not delivered (startup, fetch-width limits, i-cache
    /// misses).
    Frontend,
    /// ROB empty (or head is the unresolved branch) behind a branch
    /// misprediction redirect.
    BranchRedirect,
    /// ROB empty while refetching after a memory-order violation or
    /// coherence squash: the replay penalty.
    SquashReplay,
    /// Dispatch stalled on a full ROB while the head made no progress.
    RobFull,
    /// Dispatch stalled on a full issue queue.
    IqFull,
    /// Dispatch stalled because the load queue (or the active LQ
    /// segment, under segmentation) could not accept a load.
    LqFull,
    /// Dispatch stalled because the store queue (or the active SQ
    /// segment) could not accept a store.
    SqFull,
    /// The head was ready to issue but an LSQ search port (SQ forwarding
    /// search or LQ violation search) was taken — the paper's central
    /// contended resource.
    SearchPort,
    /// The head load was ready but both d-cache ports were busy.
    DcachePort,
    /// The head load was gated by memory-order machinery: store-set /
    /// pair-predictor wait, in-order load policy, or a full load buffer.
    MemOrdering,
    /// The head load completed but may not retire past an undrained
    /// older store (background drain backpressure).
    StoreDrain,
    /// The head is waiting on operands with no resource stall recorded:
    /// a data-dependence chain.
    DepChain,
    /// The head is executing (or was issue-blocked by a busy functional
    /// unit): plain execution latency, including L1 hits.
    ExecLatency,
    /// The head load is waiting on an L1 miss served by the L2.
    CacheL2,
    /// The head load is waiting on an L2 miss served by main memory.
    CacheMem,
    /// The head load hit but paid extra cycles for a variable-latency
    /// segmented forwarding search (segment-advance overhead).
    SegmentOverhead,
}

impl Component {
    /// Every component, in report order.
    pub const ALL: [Component; 17] = [
        Component::Base,
        Component::Frontend,
        Component::BranchRedirect,
        Component::SquashReplay,
        Component::RobFull,
        Component::IqFull,
        Component::LqFull,
        Component::SqFull,
        Component::SearchPort,
        Component::DcachePort,
        Component::MemOrdering,
        Component::StoreDrain,
        Component::DepChain,
        Component::ExecLatency,
        Component::CacheL2,
        Component::CacheMem,
        Component::SegmentOverhead,
    ];

    /// Stable snake_case name used in reports, JSON, CSV columns, and
    /// the `lsq_cpi_stack_cycles_total{component=...}` metric label.
    pub fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }

    /// The component names in [`Component::ALL`] order — the labels of
    /// the windowed CPI-stack [`lsq_obs::Sampler`].
    pub const NAMES: [&'static str; 17] = [
        "base",
        "frontend",
        "branch_redirect",
        "squash_replay",
        "rob_full",
        "iq_full",
        "lq_full",
        "sq_full",
        "search_port",
        "dcache_port",
        "mem_ordering",
        "store_drain",
        "dep_chain",
        "exec_latency",
        "cache_l2",
        "cache_mem",
        "segment_overhead",
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// A per-run (or aggregated) CPI stack: the commit slots charged to
/// each [`Component`]. It is also the accountant that collects them:
/// the probe set charges a `CpiStack` slot by slot and reports a clone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// Commit slots per cycle of the machine that produced this stack.
    pub commit_width: u64,
    /// Slots charged to each component, in [`Component::ALL`] order.
    pub components: [u64; Component::ALL.len()],
}

impl CpiStack {
    /// Charges `slots` commit slots to `component`.
    #[inline]
    pub fn charge(&mut self, component: Component, slots: u64) {
        self.components[component.index()] += slots;
    }

    /// Total commit slots across components; equals
    /// `cycles × commit_width` by the partition invariant.
    pub fn total_slots(&self) -> u64 {
        self.components.iter().sum()
    }

    /// Cycles this stack accounts for (`total_slots / commit_width`).
    pub fn cycles(&self) -> u64 {
        self.total_slots()
            .checked_div(self.commit_width)
            .unwrap_or(0)
    }

    /// Slots charged to the named component (zero if unknown).
    pub fn slots(&self, component: &str) -> u64 {
        Component::NAMES
            .iter()
            .position(|&c| c == component)
            .map_or(0, |i| self.components[i])
    }

    /// Folds another stack into this one, component by component. Both
    /// stacks must come from machines of the same commit width.
    pub fn merge(&mut self, other: &CpiStack) {
        debug_assert_eq!(
            self.commit_width, other.commit_width,
            "merging stacks from different commit widths"
        );
        for (mine, theirs) in self.components.iter_mut().zip(other.components) {
            *mine += theirs;
        }
    }

    /// The component-wise difference `self − earlier`: the stack of the
    /// cycles simulated after `earlier` was captured. Used for warm-up
    /// differencing — accountant counters are cumulative and monotone,
    /// so the subtraction cannot underflow on snapshots of one run.
    ///
    /// # Panics
    /// In debug builds, if `earlier` charges more slots to some
    /// component than `self` (not a snapshot of the same run).
    pub fn minus(&self, earlier: &CpiStack) -> CpiStack {
        let mut d = self.clone();
        for ((slots, before), name) in d
            .components
            .iter_mut()
            .zip(earlier.components)
            .zip(Component::NAMES)
        {
            debug_assert!(
                *slots >= before,
                "{name}: {slots} < {before} — not a later snapshot of the same run"
            );
            *slots = slots.saturating_sub(before);
        }
        d
    }

    /// Serializes as
    /// `{"commit_width": w, "components": {"name": slots, ...}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("commit_width", self.commit_width.into()),
            (
                "components",
                Json::obj(
                    Component::NAMES
                        .into_iter()
                        .zip(self.components.map(Json::from))
                        .collect(),
                ),
            ),
        ])
    }

    /// A human-readable table: component, slots, share of all slots,
    /// and — when `committed > 0` — the component's CPI contribution
    /// (`slots / (commit_width × committed)`; the column sums to the
    /// run's CPI by the partition invariant).
    pub fn render(&self, committed: u64) -> String {
        let total = self.total_slots().max(1);
        let denom = self.commit_width.saturating_mul(committed);
        let mut out = String::from("component             slots   share      cpi\n");
        for (name, slots) in Component::NAMES.iter().zip(self.components) {
            let cpi = if denom == 0 {
                0.0
            } else {
                slots as f64 / denom as f64
            };
            out.push_str(&format!(
                "{:<18} {:>9} {:>6.1}% {:>8.4}\n",
                name,
                slots,
                100.0 * slots as f64 / total as f64,
                cpi,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(charges: &[(Component, u64)]) -> CpiStack {
        let mut s = CpiStack {
            commit_width: 8,
            ..CpiStack::default()
        };
        for &(c, n) in charges {
            s.charge(c, n);
        }
        s
    }

    #[test]
    fn charges_accumulate_per_component() {
        let stack = stack(&[
            (Component::Base, 3),
            (Component::DepChain, 5),
            (Component::Base, 8),
        ]);
        assert_eq!(stack.slots("base"), 11);
        assert_eq!(stack.slots("dep_chain"), 5);
        assert_eq!(stack.slots("no_such_component"), 0);
        assert_eq!(stack.total_slots(), 16);
        assert_eq!(stack.cycles(), 2);
    }

    #[test]
    fn merge_adds_component_wise() {
        let mut merged = stack(&[(Component::Base, 8)]);
        merged.merge(&stack(&[(Component::Base, 4), (Component::SearchPort, 4)]));
        assert_eq!(
            merged,
            stack(&[(Component::Base, 12), (Component::SearchPort, 4)])
        );
        assert_eq!(merged.total_slots(), 16);
    }

    #[test]
    fn minus_recovers_the_measured_window() {
        let before = stack(&[(Component::Base, 5), (Component::CacheMem, 3)]);
        let mut after = before.clone();
        after.charge(Component::Base, 2);
        after.charge(Component::CacheMem, 6);
        let diff = after.minus(&before);
        assert_eq!(
            diff,
            stack(&[(Component::Base, 2), (Component::CacheMem, 6)])
        );
        assert_eq!(diff.cycles(), 1);
    }

    #[test]
    fn json_keys_every_component_in_report_order() {
        let stack = stack(&[(Component::SegmentOverhead, 42), (Component::Base, 1)]);
        let json = Json::parse(&stack.to_json().to_string()).unwrap();
        assert_eq!(json.get("commit_width").and_then(Json::as_u64), Some(8));
        let components = json.get("components").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = components.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, Component::NAMES);
        for ((_, slots), &expected) in components.iter().zip(&stack.components) {
            assert_eq!(slots.as_u64(), Some(expected));
        }
    }

    #[test]
    fn render_shows_cpi_contributions() {
        let text = stack(&[(Component::Base, 800), (Component::CacheL2, 800)]).render(800);
        assert!(text.contains("base"), "{text}");
        assert!(text.contains("cache_l2"), "{text}");
        // 1600 slots over 800 committed on an 8-wide machine: CPI 0.25,
        // split evenly.
        assert!(text.contains("0.1250"), "{text}");
    }

    #[test]
    fn component_names_are_stable_and_unique() {
        assert_eq!(Component::Base.name(), "base");
        assert_eq!(Component::SearchPort.name(), "search_port");
        assert_eq!(Component::CacheMem.name(), "cache_mem");
        assert_eq!(Component::SegmentOverhead.name(), "segment_overhead");
        let names: Vec<_> = Component::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.as_slice(), &Component::NAMES);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate component name");
    }
}
