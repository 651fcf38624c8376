//! A single set-associative cache level with true-LRU replacement.

use lsq_isa::Addr;

/// Geometry and hit latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block (line) size in bytes (power of two).
    pub block_bytes: u64,
    /// Latency of a hit, in cycles. Hits are pipelined: latency, not
    /// occupancy.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two sizes, or
    /// capacity not divisible by `ways * block_bytes`).
    pub fn sets(&self) -> usize {
        assert!(
            self.size_bytes.is_power_of_two(),
            "size must be a power of two"
        );
        assert!(
            self.block_bytes.is_power_of_two(),
            "block must be a power of two"
        );
        assert!(self.ways > 0, "ways must be non-zero");
        let lines = self.size_bytes / self.block_bytes;
        assert!(
            (lines as usize).is_multiple_of(self.ways) && lines as usize >= self.ways,
            "capacity must hold a whole number of sets"
        );
        lines as usize / self.ways
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and filled).
    pub misses: u64,
    /// Dirty lines evicted (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio; 0.0 with no accesses.
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// One set-associative, write-back, write-allocate cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(block_bytes)`: block address = byte address >> this.
    block_shift: u32,
    /// `sets - 1`: set index = block address & this.
    set_mask: u64,
    /// `log2(sets)`: tag = block address >> this.
    set_shift: u32,
    lines: Vec<Line>,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        // `sets()` asserts power-of-two size and block, so the set count
        // is a power of two too and indexing needs no division.
        let sets = cfg.sets();
        Self {
            cfg,
            block_shift: cfg.block_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            lines: vec![Line::default(); sets * cfg.ways],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let block = addr.0 >> self.block_shift;
        ((block & self.set_mask) as usize, block >> self.set_shift)
    }

    /// Accesses `addr`; returns `true` on a hit. On a miss the block is
    /// filled (write-allocate), evicting the LRU way. `write` marks the
    /// line dirty.
    pub fn access(&mut self, addr: Addr, write: bool) -> bool {
        self.stamp += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.ways;
        let ways = &mut self.lines[base..base + self.cfg.ways];

        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.stamp;
            line.dirty |= write;
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            // lsq-lint: allow(no-unwrap-in-lib, reason = "associativity is validated non-zero at construction, so every set has ways")
            .expect("ways is non-empty");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.stamp,
        };
        false
    }

    /// Whether `addr`'s block is currently resident (no state change).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.ways;
        self.lines[base..base + self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Clears statistics without invalidating contents.
    pub fn clear_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates every line and clears statistics.
    pub fn reset(&mut self) {
        self.lines.fill(Line::default());
        self.stamp = 0;
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16B blocks = 64B.
        Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 2,
            block_bytes: 16,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(Addr(0), false));
        assert!(c.access(Addr(0), false));
        assert!(c.access(Addr(15), false)); // same block
        assert!(!c.access(Addr(16), false)); // next block, other set
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds blocks whose block number is even (2 sets).
        c.access(Addr(0), false); // block 0 -> set 0
        c.access(Addr(32), false); // block 2 -> set 0
        c.access(Addr(0), false); // touch block 0 (block 2 now LRU)
        c.access(Addr(64), false); // block 4 -> set 0, evicts block 2
        assert!(c.probe(Addr(0)));
        assert!(!c.probe(Addr(32)));
        assert!(c.probe(Addr(64)));
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = tiny();
        c.access(Addr(0), true); // dirty fill
        c.access(Addr(32), false);
        c.access(Addr(64), false); // evicts block 0 (dirty)
        assert_eq!(c.stats().writebacks, 1);
        c.access(Addr(96), false); // evicts block 2 (clean)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(Addr(0), false);
        c.access(Addr(0), true); // now dirty via hit
        c.access(Addr(32), false);
        c.access(Addr(64), false); // evict block 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = tiny();
        c.access(Addr(0), false);
        let before = *c.stats();
        assert!(c.probe(Addr(0)));
        assert!(!c.probe(Addr(16)));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(Addr(0), true);
        c.reset();
        assert!(!c.probe(Addr(0)));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn miss_rate_math() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(Addr(0), false);
        c.access(Addr(0), false);
        assert_eq!(c.stats().miss_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 60,
            ways: 2,
            block_bytes: 16,
            hit_latency: 1,
        });
    }

    #[test]
    fn fully_associative_degenerate_case() {
        // 1 set x 4 ways.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 4,
            block_bytes: 16,
            hit_latency: 1,
        });
        for i in 0..4 {
            c.access(Addr(i * 16), false);
        }
        for i in 0..4 {
            assert!(c.probe(Addr(i * 16)));
        }
        c.access(Addr(4 * 16), false);
        assert!(!c.probe(Addr(0))); // LRU was block 0
    }

    #[test]
    fn shift_and_mask_indexing_matches_division_on_table1_geometries() {
        let t1 = crate::HierarchyConfig::default();
        let mut rng = lsq_util::rng::Xoshiro256::seed_from_u64(7);
        for cfg in [t1.l1i, t1.l1d, t1.l2] {
            let c = Cache::new(cfg);
            let sets = cfg.sets() as u64;
            for _ in 0..10_000 {
                let a = rng.next_u64();
                let block = a / cfg.block_bytes;
                assert_eq!(Addr(a).block(cfg.block_bytes), block);
                assert_eq!(
                    c.set_and_tag(Addr(a)),
                    ((block % sets) as usize, block / sets),
                    "{cfg:?} addr {a:#x}"
                );
            }
        }
    }

    #[test]
    fn table1_l1_geometry() {
        // 64K 2-way 32B: 1024 sets.
        let cfg = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            block_bytes: 32,
            hit_latency: 2,
        };
        assert_eq!(cfg.sets(), 1024);
    }
}
