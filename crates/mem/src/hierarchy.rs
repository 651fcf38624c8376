//! The two-level hierarchy of the paper's Table 1.

use crate::cache::{Cache, CacheConfig, CacheStats};
use lsq_isa::Addr;
use lsq_obs::MissLevel;

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchyConfig {
    /// L1 instruction cache (Table 1: 64K 2-way, 2-cycle, 32 B blocks).
    pub l1i: CacheConfig,
    /// L1 data cache (Table 1: 64K 2-way, 2-cycle, 32 B blocks).
    pub l1d: CacheConfig,
    /// Unified L2 (Table 1: 2M 8-way, 12-cycle, 64 B blocks).
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (Table 1: 150).
    pub mem_latency: u32,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1i: CacheConfig {
                size_bytes: 64 << 10,
                ways: 2,
                block_bytes: 32,
                hit_latency: 2,
            },
            l1d: CacheConfig {
                size_bytes: 64 << 10,
                ways: 2,
                block_bytes: 32,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 2 << 20,
                ways: 8,
                block_bytes: 64,
                hit_latency: 12,
            },
            mem_latency: 150,
        }
    }
}

impl HierarchyConfig {
    /// The scaled-processor variant used by the paper's Figure 12: same
    /// capacities, but a 3-cycle L1 hit.
    pub fn scaled() -> Self {
        let mut cfg = Self::default();
        cfg.l1i.hit_latency = 3;
        cfg.l1d.hit_latency = 3;
        cfg
    }

    /// Latency of an L1 data hit.
    pub fn l1d_hit_latency(&self) -> u32 {
        self.l1d.hit_latency
    }
}

/// What one access cost and how far down the hierarchy it went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Total latency in cycles.
    pub latency: u32,
    /// Where an L1 miss was served; `None` on an L1 hit.
    pub miss: Option<MissLevel>,
}

/// The L1I/L1D/L2/memory timing model.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Performs a data access (load or store write-through to L1) and
    /// returns its total latency in cycles.
    pub fn data_access(&mut self, addr: Addr, write: bool) -> u32 {
        self.access(addr, write, false).latency
    }

    /// Performs a data access, or with `fetch` an instruction fetch of
    /// the block containing `addr`, and reports its latency and miss
    /// level.
    pub fn access(&mut self, addr: Addr, write: bool, fetch: bool) -> Access {
        let (l1, l1_cfg) = if fetch {
            (&mut self.l1i, &self.cfg.l1i)
        } else {
            (&mut self.l1d, &self.cfg.l1d)
        };
        let mut latency = l1_cfg.hit_latency;
        let mut miss = None;
        if !l1.access(addr, write && !fetch) {
            latency += self.cfg.l2.hit_latency;
            miss = Some(if self.l2.access(addr, false) {
                MissLevel::L2
            } else {
                latency += self.cfg.mem_latency;
                MissLevel::Memory
            });
        }
        Access { latency, miss }
    }

    /// Whether a data access to `addr` would hit in the L1 d-cache.
    pub fn l1d_would_hit(&self, addr: Addr) -> bool {
        self.l1d.probe(addr)
    }

    /// L1 d-cache statistics.
    pub fn l1d_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L1 i-cache statistics.
    pub fn l1i_stats(&self) -> &CacheStats {
        self.l1i.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Touches every block of the given data regions (read accesses,
    /// coldest region first) so that steady-state cache contents are in
    /// place before measurement — the stand-in for a multi-billion-
    /// instruction fast-forward. Statistics are cleared afterwards.
    pub fn prewarm_data(&mut self, regions: &[(u64, u64)]) {
        let block = self.cfg.l1d.block_bytes;
        for &(base, bytes) in regions {
            let mut a = base;
            while a < base + bytes {
                self.access(Addr(a), false, false);
                a += block;
            }
        }
        self.clear_stats();
    }

    /// Touches every block of the code region in the i-cache.
    pub fn prewarm_code(&mut self, base: u64, bytes: u64) {
        let block = self.cfg.l1i.block_bytes;
        let mut a = base;
        while a < base + bytes {
            self.access(Addr(a), false, true);
            a += block;
        }
        self.clear_stats();
    }

    /// Clears hit/miss statistics on all levels without invalidating
    /// cache contents.
    pub fn clear_stats(&mut self) {
        self.l1i.clear_stats();
        self.l1d.clear_stats();
        self.l2.clear_stats();
    }

    /// Invalidates all levels and clears statistics.
    pub fn reset(&mut self) {
        self.l1i.reset();
        self.l1d.reset();
        self.l2.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = HierarchyConfig::default();
        assert_eq!(c.l1d.size_bytes, 64 << 10);
        assert_eq!(c.l1d.ways, 2);
        assert_eq!(c.l1d.block_bytes, 32);
        assert_eq!(c.l1d.hit_latency, 2);
        assert_eq!(c.l2.size_bytes, 2 << 20);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.block_bytes, 64);
        assert_eq!(c.l2.hit_latency, 12);
        assert_eq!(c.mem_latency, 150);
    }

    #[test]
    fn scaled_config_slows_l1_only() {
        let c = HierarchyConfig::scaled();
        assert_eq!(c.l1d.hit_latency, 3);
        assert_eq!(c.l1i.hit_latency, 3);
        assert_eq!(c.l2.hit_latency, 12);
    }

    #[test]
    fn latency_tiers() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        // Cold: misses everywhere = 2 + 12 + 150.
        assert_eq!(m.data_access(Addr(0x8000), false), 164);
        // L1 hit.
        assert_eq!(m.data_access(Addr(0x8000), false), 2);
        // Evict from L1 but not L2: access enough conflicting blocks.
        // L1: 1024 sets * 32B; blocks 0x8000 + k*32*1024 map to the same set.
        let conflict = |k: u64| Addr(0x8000 + k * 32 * 1024);
        m.data_access(conflict(1), false);
        m.data_access(conflict(2), false);
        // 0x8000 now evicted from L1 (2-way) but resident in L2: 2 + 12.
        assert_eq!(m.data_access(Addr(0x8000), false), 14);
    }

    #[test]
    fn inst_fetch_uses_icache() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        let cold = m.access(Addr(0x400000), false, true).latency;
        let warm = m.access(Addr(0x400000), false, true).latency;
        assert_eq!(cold, 164);
        assert_eq!(warm, 2);
        assert_eq!(m.l1i_stats().accesses(), 2);
        assert_eq!(m.l1d_stats().accesses(), 0);
    }

    #[test]
    fn l2_shared_between_i_and_d() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.access(Addr(0x10000), false, true); // fills L2
                                              // Data access to the same block: L1D miss, L2 hit.
        assert_eq!(m.data_access(Addr(0x10000), false), 14);
    }

    #[test]
    fn prewarm_data_fills_and_clears_stats() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.prewarm_data(&[(0x10_0000, 4096), (0x20_0000, 4096)]);
        assert_eq!(m.l1d_stats().accesses(), 0, "stats cleared after prewarm");
        // All touched blocks are L1-resident (footprint << 64K).
        assert_eq!(m.data_access(Addr(0x10_0000), false), 2);
        assert_eq!(m.data_access(Addr(0x10_0000 + 4064), false), 2);
        assert_eq!(m.data_access(Addr(0x20_0000 + 2048), false), 2);
        // An untouched address still misses.
        assert_eq!(m.data_access(Addr(0x30_0000), false), 164);
    }

    #[test]
    fn prewarm_larger_than_l1_leaves_l2_resident() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        // 256K footprint: exceeds the 64K L1, fits the 2M L2.
        m.prewarm_data(&[(0x10_0000, 256 << 10)]);
        let lat = m.data_access(Addr(0x10_0000), false);
        assert_eq!(lat, 14, "evicted from L1 but resident in L2");
    }

    #[test]
    fn prewarm_code_fills_icache() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.prewarm_code(0x40_0000, 2048);
        assert_eq!(m.access(Addr(0x40_0000), false, true).latency, 2);
        assert_eq!(m.l1i_stats().misses, 0);
    }

    #[test]
    fn clear_stats_keeps_contents() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.data_access(Addr(0x40), false);
        m.clear_stats();
        assert_eq!(m.l1d_stats().accesses(), 0);
        assert_eq!(m.data_access(Addr(0x40), false), 2, "line still resident");
    }

    #[test]
    fn access_reports_the_miss_level() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        let miss = |a: Access| a.miss;
        assert_eq!(
            miss(m.access(Addr(0x30_0000), false, false)),
            Some(MissLevel::Memory)
        );
        assert_eq!(miss(m.access(Addr(0x30_0000), false, false)), None);
        assert_eq!(
            miss(m.access(Addr(0x30_0000), false, true)),
            Some(MissLevel::L2)
        );
    }

    #[test]
    fn probe_and_reset() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.data_access(Addr(0x40), true);
        assert!(m.l1d_would_hit(Addr(0x40)));
        m.reset();
        assert!(!m.l1d_would_hit(Addr(0x40)));
        assert_eq!(m.l1d_stats().accesses(), 0);
    }
}
