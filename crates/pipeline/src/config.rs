//! Processor configuration (the paper's Table 1) and the Figure 12
//! scaled-processor variant.

use lsq_core::LsqConfig;
use lsq_mem::HierarchyConfig;

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched (renamed) per cycle.
    pub dispatch_width: usize,
    /// Instructions issued per cycle (Table 1: 8).
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries (Table 1: 256).
    pub rob_entries: usize,
    /// Issue-queue entries (Table 1: 64).
    pub iq_entries: usize,
    /// Integer functional units (Table 1: 8).
    pub int_units: usize,
    /// Pipelined floating-point units (Table 1: 8).
    pub fp_units: usize,
    /// Data-cache ports shared by load execution and store commit
    /// (Table 1: 4).
    pub dcache_ports: usize,
    /// Branch misprediction redirect penalty in cycles (Table 1: 14).
    pub mispredict_penalty: u64,
    /// Extra recovery cycle for pair-predictor counter rollback (§2.1.2).
    pub pair_recovery_extra: u64,
    /// Extra dependent-wakeup delay for loads that forgo early
    /// scheduling under segmentation (§3).
    pub late_wakeup_penalty: u32,
    /// Per-cycle probability of an external (coherence) invalidation
    /// targeting a word an outstanding load has read — the §2.2
    /// multiprocessor scenario. 0.0 (default) models the paper's
    /// uniprocessor runs.
    pub invalidation_rate: f64,
    /// The LSQ design point under study.
    pub lsq: LsqConfig,
    /// The memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Hard cycle cap as a multiple of the instruction budget (guards
    /// against pathological configurations; generous by construction).
    pub cycle_cap_per_instr: u64,
}

impl Default for SimConfig {
    /// The paper's base processor (Table 1).
    fn default() -> Self {
        Self {
            fetch_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 256,
            iq_entries: 64,
            int_units: 8,
            fp_units: 8,
            dcache_ports: 4,
            mispredict_penalty: 14,
            pair_recovery_extra: 1,
            late_wakeup_penalty: 2,
            invalidation_rate: 0.0,
            lsq: LsqConfig::default(),
            hierarchy: HierarchyConfig::default(),
            cycle_cap_per_instr: 400,
        }
    }
}

impl SimConfig {
    /// A base processor with a specific LSQ design point.
    pub fn with_lsq(lsq: LsqConfig) -> Self {
        Self {
            lsq,
            ..Self::default()
        }
    }

    /// The §4.3 scaled processor: 12-wide issue, 96-entry issue queue,
    /// 3-cycle L1 (capacities unchanged).
    pub fn scaled(lsq: LsqConfig) -> Self {
        Self {
            fetch_width: 12,
            dispatch_width: 12,
            issue_width: 12,
            commit_width: 12,
            iq_entries: 96,
            int_units: 12,
            fp_units: 12,
            lsq,
            hierarchy: HierarchyConfig::scaled(),
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`lsq_core::ConfigError`] describing the first
    /// inconsistent field.
    pub fn validate(&self) -> Result<(), lsq_core::ConfigError> {
        use lsq_core::ConfigError;
        if self.fetch_width == 0
            || self.dispatch_width == 0
            || self.issue_width == 0
            || self.commit_width == 0
        {
            return Err(ConfigError::new("pipeline widths must be non-zero"));
        }
        if self.rob_entries == 0 || self.iq_entries == 0 {
            return Err(ConfigError::new("ROB and issue queue must be non-empty"));
        }
        if self.int_units == 0 || self.dcache_ports == 0 {
            return Err(ConfigError::new(
                "functional units and cache ports must be non-zero",
            ));
        }
        self.lsq.validate()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // tests mutate one field of a default config
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SimConfig::default();
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.rob_entries, 256);
        assert_eq!(c.iq_entries, 64);
        assert_eq!(c.int_units, 8);
        assert_eq!(c.fp_units, 8);
        assert_eq!(c.dcache_ports, 4);
        assert_eq!(c.mispredict_penalty, 14);
        assert_eq!(c.lsq.lq_entries, 32);
        assert_eq!(c.lsq.ports, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_matches_section_4_3() {
        let c = SimConfig::scaled(LsqConfig::all_techniques_one_port());
        assert_eq!(c.issue_width, 12);
        assert_eq!(c.iq_entries, 96);
        assert_eq!(c.hierarchy.l1d.hit_latency, 3);
        assert_eq!(c.rob_entries, 256, "capacities unchanged");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut c = SimConfig::default();
        c.issue_width = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.rob_entries = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.lsq.ports = 0;
        assert!(c.validate().is_err());
    }
}
