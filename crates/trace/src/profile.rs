//! The 18 SPEC2K benchmark profiles of the paper's Table 2.
//!
//! Each profile encodes the workload facts the paper reports or implies:
//! instruction mix (e.g. mgrid: 51% loads / 2% stores; vortex: 18% loads /
//! 23% stores; equake: 42% loads), working-set and access structure
//! (mcf/art pointer-chase over huge footprints → base IPC 0.3; mesa/perl
//! small hot sets → base IPC ≥ 3), store-load communication density, and
//! branch behaviour. The absolute parameter values are calibrated so the
//! *base-configuration* simulator reproduces the ordering and rough
//! magnitudes of Table 2; they are inputs to [`crate::StaticProgram`].

use crate::generator::TraceGenerator;
use crate::program::StaticProgram;

/// Workload description for one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchProfile {
    /// Benchmark name (SPEC2K short name).
    pub name: &'static str,
    /// Whether this is a floating-point benchmark.
    pub fp: bool,

    /// Fraction of dynamic instructions that are loads.
    pub loads: f64,
    /// Fraction of dynamic instructions that are stores.
    pub stores: f64,
    /// Fraction of dynamic instructions that are branches.
    pub branches: f64,
    /// Of ALU operations, fraction executed on the FP pipes.
    pub fp_ops: f64,
    /// Of ALU operations, fraction that are multiplies.
    pub mul_ops: f64,
    /// Of FP operations, fraction that are divides.
    pub div_ops: f64,

    /// Bytes of the random/pointer-chase working set.
    pub ws_bytes: u64,
    /// Bytes of the *hot* subset of the working set that random accesses
    /// concentrate in (cache-resident locality of real programs).
    pub hot_bytes: u64,
    /// Probability a random access falls in the hot subset.
    pub hot_frac: f64,
    /// Bytes per streaming region.
    pub stream_bytes: u64,
    /// Number of concurrent streaming regions.
    pub stream_regions: usize,
    /// Streaming stride in bytes (vs. the 32 B L1 block: 8 = ¼ miss rate
    /// on cold blocks, 32 = one miss per access on non-resident regions).
    pub stride: u64,

    /// Load address-pattern weights (normalised internally).
    pub load_stream: f64,
    /// Weight of uniformly random loads.
    pub load_random: f64,
    /// Weight of serialized pointer-chase loads.
    pub load_chase: f64,
    /// Weight of slot (store-communicating) loads.
    pub load_slot: f64,

    /// Store pattern weight: streaming stores.
    pub store_stream: f64,
    /// Store pattern weight: slot stores (the store half of store-load
    /// pairs); the remainder is random.
    pub store_slot: f64,

    /// Number of communication slots (stack-frame-like footprint).
    pub slots: usize,
    /// Probability a slot load reads the slot's current address (and thus
    /// matches the most recent paired store).
    pub slot_match_p: f64,

    /// Geometric recency bias of register sources: higher = tighter
    /// dependence chains = less ILP.
    pub dep_short_p: f64,
    /// Probability each ALU source operand slot is populated.
    pub src_density: f64,

    /// Number of static basic blocks.
    pub blocks: usize,
    /// Mean loop trip count for loop-ending blocks.
    pub loop_mean: u32,
    /// Fraction of blocks ending in (predictable) loop branches.
    pub loop_branch_frac: f64,
    /// Taken bias of data-dependent conditional branches.
    pub branch_bias: f64,
    /// Seed of this benchmark's canonical static program. Fixed per
    /// benchmark (a calibration choice: the representative program whose
    /// base IPC matches Table 2); the runtime seed passed to
    /// [`BenchProfile::stream`] varies only the *dynamic* randomness
    /// (addresses, branch outcomes, trip counts).
    pub program_seed: u64,
}

impl BenchProfile {
    /// Mean body (non-branch) instructions per block, derived from the
    /// requested branch fraction.
    pub fn body_len(&self) -> usize {
        let b = self.branches.clamp(0.02, 0.4);
        (((1.0 - b) / b).round() as usize).clamp(3, 56)
    }

    /// Weight of random stores (the remainder of the store mix).
    pub fn store_random(&self) -> f64 {
        (1.0 - self.store_stream - self.store_slot).max(0.0)
    }

    /// Builds this profile's canonical static program.
    pub fn program(&self) -> StaticProgram {
        StaticProgram::build(self, self.program_seed)
    }

    /// Builds a dynamic instruction stream for this profile; `seed`
    /// varies only dynamic randomness, not the program structure.
    pub fn stream(&self, seed: u64) -> TraceGenerator {
        TraceGenerator::new(self.name, self.program(), seed)
    }

    /// Looks a profile up by benchmark name.
    pub fn named(name: &str) -> Option<&'static BenchProfile> {
        ALL.iter().find(|p| p.name == name)
    }

    /// All 18 profiles, integer benchmarks first (Table 2 order).
    pub fn all() -> &'static [BenchProfile] {
        &ALL
    }
}

/// A template with middle-of-the-road values; each benchmark overrides the
/// fields that define its character.
const BASE: BenchProfile = BenchProfile {
    name: "base",
    fp: false,
    loads: 0.25,
    stores: 0.10,
    branches: 0.14,
    fp_ops: 0.0,
    mul_ops: 0.05,
    div_ops: 0.0,
    ws_bytes: 512 << 10,
    hot_bytes: 16 << 10,
    hot_frac: 0.94,
    stream_bytes: 128 << 10,
    stream_regions: 2,
    stride: 8,
    load_stream: 0.2,
    load_random: 0.45,
    load_chase: 0.05,
    load_slot: 0.3,
    store_stream: 0.1,
    store_slot: 0.6,
    slots: 64,
    slot_match_p: 0.5,
    dep_short_p: 0.45,
    src_density: 0.8,
    blocks: 32,
    loop_mean: 10,
    loop_branch_frac: 0.3,
    branch_bias: 0.9,
    program_seed: 0,
};

static ALL: [BenchProfile; 18] = [
    // ---------------- integer ----------------
    BenchProfile {
        name: "bzip",
        loads: 0.26,
        stores: 0.10,
        branches: 0.12,
        ws_bytes: 256 << 10,
        hot_bytes: 16 << 10,
        hot_frac: 0.97,
        dep_short_p: 0.5,
        src_density: 0.5,
        branch_bias: 0.97,
        blocks: 24,
        loop_mean: 60,
        loop_branch_frac: 0.45,
        stream_bytes: 16 << 10,
        program_seed: 25,
        ..BASE
    },
    BenchProfile {
        name: "gcc",
        loads: 0.25,
        stores: 0.14,
        branches: 0.16,
        ws_bytes: 1 << 20,
        hot_bytes: 16 << 10,
        hot_frac: 0.96,
        dep_short_p: 0.5,
        src_density: 0.5,
        branch_bias: 0.96,
        blocks: 48,
        loop_mean: 24,
        loop_branch_frac: 0.25,
        slot_match_p: 0.4,
        stream_bytes: 16 << 10,
        program_seed: 53,
        ..BASE
    },
    BenchProfile {
        name: "gzip",
        loads: 0.22,
        stores: 0.10,
        branches: 0.14,
        ws_bytes: 256 << 10,
        hot_bytes: 16 << 10,
        hot_frac: 0.95,
        dep_short_p: 0.28,
        src_density: 0.58,
        branch_bias: 0.955,
        blocks: 20,
        loop_mean: 40,
        loop_branch_frac: 0.4,
        stream_bytes: 16 << 10,
        program_seed: 52,
        ..BASE
    },
    BenchProfile {
        name: "mcf",
        loads: 0.30,
        stores: 0.09,
        branches: 0.17,
        ws_bytes: 12 << 20,
        hot_bytes: 512 << 10,
        hot_frac: 0.9,
        load_stream: 0.1,
        load_random: 0.5,
        load_chase: 0.15,
        load_slot: 0.25,
        store_slot: 0.5,
        dep_short_p: 0.6,
        src_density: 0.8,
        branch_bias: 0.9,
        blocks: 20,
        loop_mean: 16,
        loop_branch_frac: 0.25,
        stream_bytes: 64 << 10,
        program_seed: 15,
        ..BASE
    },
    BenchProfile {
        name: "parser",
        loads: 0.24,
        stores: 0.10,
        branches: 0.18,
        ws_bytes: 1 << 20,
        hot_bytes: 16 << 10,
        hot_frac: 0.95,
        dep_short_p: 0.4,
        src_density: 0.45,
        branch_bias: 0.96,
        blocks: 40,
        loop_mean: 40,
        loop_branch_frac: 0.25,
        stream_bytes: 16 << 10,
        program_seed: 19,
        ..BASE
    },
    BenchProfile {
        name: "perl",
        loads: 0.28,
        stores: 0.13,
        branches: 0.15,
        ws_bytes: 96 << 10,
        hot_bytes: 16 << 10,
        hot_frac: 0.99,
        dep_short_p: 0.08,
        src_density: 0.4,
        branch_bias: 0.985,
        blocks: 36,
        loop_mean: 80,
        loop_branch_frac: 0.35,
        slot_match_p: 0.5,
        stream_bytes: 12 << 10,
        load_slot: 0.2,
        load_random: 0.55,
        program_seed: 24,
        ..BASE
    },
    BenchProfile {
        name: "twolf",
        loads: 0.25,
        stores: 0.09,
        branches: 0.15,
        ws_bytes: 1 << 20,
        hot_bytes: 24 << 10,
        hot_frac: 0.88,
        load_stream: 0.15,
        load_random: 0.6,
        load_slot: 0.2,
        dep_short_p: 0.65,
        src_density: 0.6,
        branch_bias: 0.93,
        blocks: 28,
        loop_mean: 24,
        loop_branch_frac: 0.3,
        stream_bytes: 24 << 10,
        program_seed: 48,
        ..BASE
    },
    BenchProfile {
        name: "vortex",
        loads: 0.18,
        stores: 0.23,
        branches: 0.14,
        ws_bytes: 1 << 20,
        hot_bytes: 16 << 10,
        hot_frac: 0.96,
        load_slot: 0.45,
        load_random: 0.35,
        load_stream: 0.15,
        store_slot: 0.7,
        slots: 128,
        slot_match_p: 0.6,
        dep_short_p: 0.2,
        src_density: 0.55,
        branch_bias: 0.97,
        blocks: 44,
        loop_mean: 40,
        loop_branch_frac: 0.3,
        stream_bytes: 24 << 10,
        program_seed: 43,
        ..BASE
    },
    BenchProfile {
        name: "vpr",
        loads: 0.28,
        stores: 0.11,
        branches: 0.13,
        ws_bytes: 1 << 20,
        hot_bytes: 24 << 10,
        hot_frac: 0.92,
        load_stream: 0.1,
        load_random: 0.6,
        load_chase: 0.05,
        load_slot: 0.25,
        dep_short_p: 0.55,
        src_density: 0.62,
        branch_bias: 0.93,
        blocks: 26,
        loop_mean: 24,
        loop_branch_frac: 0.3,
        stream_bytes: 16 << 10,
        program_seed: 48,
        ..BASE
    },
    // ---------------- floating point ----------------
    BenchProfile {
        name: "ammp",
        fp: true,
        loads: 0.28,
        stores: 0.09,
        branches: 0.06,
        fp_ops: 0.7,
        div_ops: 0.05,
        ws_bytes: 8 << 20,
        hot_bytes: 32 << 10,
        hot_frac: 0.95,
        stream_bytes: 64 << 10,
        stream_regions: 3,
        load_stream: 0.35,
        load_random: 0.52,
        load_chase: 0.03,
        load_slot: 0.1,
        store_stream: 0.4,
        store_slot: 0.3,
        slot_match_p: 0.35,
        dep_short_p: 0.5,
        src_density: 0.65,
        blocks: 14,
        loop_mean: 60,
        loop_branch_frac: 0.55,
        branch_bias: 0.96,
        program_seed: 40,
        ..BASE
    },
    BenchProfile {
        name: "applu",
        fp: true,
        loads: 0.30,
        stores: 0.12,
        branches: 0.03,
        fp_ops: 0.75,
        ws_bytes: 1 << 20,
        hot_bytes: 32 << 10,
        hot_frac: 0.97,
        stream_bytes: 24 << 10,
        stream_regions: 4,
        load_stream: 0.8,
        load_random: 0.1,
        load_chase: 0.0,
        load_slot: 0.1,
        store_stream: 0.7,
        store_slot: 0.2,
        slot_match_p: 0.3,
        dep_short_p: 0.4,
        src_density: 0.45,
        blocks: 10,
        loop_mean: 90,
        loop_branch_frac: 0.6,
        branch_bias: 0.985,
        program_seed: 41,
        ..BASE
    },
    BenchProfile {
        name: "art",
        fp: true,
        loads: 0.35,
        stores: 0.07,
        branches: 0.09,
        fp_ops: 0.6,
        ws_bytes: 24 << 20,
        hot_bytes: 64 << 10,
        hot_frac: 0.93,
        stream_bytes: 1 << 20,
        stream_regions: 2,
        stride: 32,
        load_stream: 0.55,
        load_random: 0.28,
        load_chase: 0.12,
        load_slot: 0.05,
        store_stream: 0.3,
        store_slot: 0.3,
        slot_match_p: 0.3,
        dep_short_p: 0.5,
        src_density: 0.85,
        blocks: 10,
        loop_mean: 60,
        loop_branch_frac: 0.5,
        branch_bias: 0.96,
        program_seed: 19,
        ..BASE
    },
    BenchProfile {
        name: "equake",
        fp: true,
        loads: 0.42,
        stores: 0.08,
        branches: 0.07,
        fp_ops: 0.65,
        ws_bytes: 2 << 20,
        hot_bytes: 48 << 10,
        hot_frac: 0.88,
        stream_bytes: 96 << 10,
        stream_regions: 3,
        load_stream: 0.6,
        load_random: 0.3,
        load_chase: 0.0,
        load_slot: 0.1,
        store_stream: 0.4,
        store_slot: 0.3,
        slot_match_p: 0.35,
        dep_short_p: 0.5,
        src_density: 0.55,
        blocks: 12,
        loop_mean: 70,
        loop_branch_frac: 0.55,
        branch_bias: 0.97,
        program_seed: 1,
        ..BASE
    },
    BenchProfile {
        name: "mesa",
        fp: true,
        loads: 0.25,
        stores: 0.09,
        branches: 0.09,
        fp_ops: 0.55,
        ws_bytes: 96 << 10,
        hot_bytes: 16 << 10,
        hot_frac: 0.99,
        stream_bytes: 12 << 10,
        stream_regions: 3,
        load_stream: 0.5,
        load_random: 0.25,
        load_chase: 0.0,
        load_slot: 0.25,
        store_stream: 0.3,
        store_slot: 0.5,
        slot_match_p: 0.5,
        dep_short_p: 0.3,
        src_density: 0.35,
        blocks: 24,
        loop_mean: 90,
        loop_branch_frac: 0.45,
        branch_bias: 0.99,
        program_seed: 0,
        ..BASE
    },
    BenchProfile {
        name: "mgrid",
        fp: true,
        loads: 0.51,
        stores: 0.02,
        branches: 0.02,
        fp_ops: 0.8,
        ws_bytes: 512 << 10,
        hot_bytes: 16 << 10,
        hot_frac: 0.97,
        stream_bytes: 96 << 10,
        stream_regions: 2,
        load_stream: 0.9,
        load_random: 0.08,
        load_chase: 0.0,
        load_slot: 0.02,
        store_stream: 0.8,
        store_slot: 0.1,
        slot_match_p: 0.25,
        dep_short_p: 0.45,
        src_density: 0.5,
        blocks: 6,
        loop_mean: 120,
        loop_branch_frac: 0.7,
        branch_bias: 0.99,
        program_seed: 20,
        ..BASE
    },
    BenchProfile {
        name: "sixtrack",
        fp: true,
        loads: 0.25,
        stores: 0.10,
        branches: 0.05,
        fp_ops: 0.75,
        mul_ops: 0.15,
        ws_bytes: 384 << 10,
        hot_bytes: 16 << 10,
        hot_frac: 0.95,
        stream_bytes: 16 << 10,
        stream_regions: 3,
        load_stream: 0.65,
        load_random: 0.2,
        load_chase: 0.0,
        load_slot: 0.15,
        store_stream: 0.5,
        store_slot: 0.3,
        slot_match_p: 0.4,
        dep_short_p: 0.28,
        src_density: 0.42,
        blocks: 12,
        loop_mean: 90,
        loop_branch_frac: 0.6,
        branch_bias: 0.985,
        program_seed: 0,
        ..BASE
    },
    BenchProfile {
        name: "swim",
        fp: true,
        loads: 0.30,
        stores: 0.15,
        branches: 0.02,
        fp_ops: 0.75,
        ws_bytes: 2 << 20,
        hot_bytes: 32 << 10,
        hot_frac: 0.97,
        stream_bytes: 320 << 10,
        stream_regions: 4,
        stride: 16,
        load_stream: 0.85,
        load_random: 0.1,
        load_chase: 0.0,
        load_slot: 0.05,
        store_stream: 0.8,
        store_slot: 0.1,
        slot_match_p: 0.25,
        dep_short_p: 0.75,
        src_density: 0.5,
        blocks: 6,
        loop_mean: 140,
        loop_branch_frac: 0.7,
        branch_bias: 0.99,
        program_seed: 17,
        ..BASE
    },
    BenchProfile {
        name: "wupwise",
        fp: true,
        loads: 0.25,
        stores: 0.12,
        branches: 0.05,
        fp_ops: 0.7,
        mul_ops: 0.2,
        ws_bytes: 512 << 10,
        hot_bytes: 32 << 10,
        hot_frac: 0.95,
        stream_bytes: 16 << 10,
        stream_regions: 3,
        load_stream: 0.6,
        load_random: 0.2,
        load_chase: 0.0,
        load_slot: 0.2,
        store_stream: 0.4,
        store_slot: 0.4,
        slot_match_p: 0.45,
        dep_short_p: 0.3,
        src_density: 0.45,
        blocks: 14,
        loop_mean: 90,
        loop_branch_frac: 0.55,
        branch_bias: 0.985,
        program_seed: 50,
        ..BASE
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_benchmarks_nine_each() {
        assert_eq!(BenchProfile::all().len(), 18);
        let fp = BenchProfile::all().iter().filter(|p| p.fp).count();
        assert_eq!(fp, 9, "nine floating-point, nine integer");
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for p in BenchProfile::all() {
            assert!(seen.insert(p.name), "duplicate profile {}", p.name);
            assert_eq!(BenchProfile::named(p.name).unwrap().name, p.name);
        }
        assert!(BenchProfile::named("nonesuch").is_none());
    }

    #[test]
    fn paper_reported_mixes_hold() {
        // §4.1.2: "51% of dynamic instructions in mgrid are loads and just
        // 2% are stores"; "just 18% ... are loads and 23% are stores" for
        // vortex; §4.2: equake 42% loads.
        let mgrid = BenchProfile::named("mgrid").unwrap();
        assert_eq!(mgrid.loads, 0.51);
        assert_eq!(mgrid.stores, 0.02);
        let vortex = BenchProfile::named("vortex").unwrap();
        assert_eq!(vortex.loads, 0.18);
        assert_eq!(vortex.stores, 0.23);
        let equake = BenchProfile::named("equake").unwrap();
        assert_eq!(equake.loads, 0.42);
    }

    #[test]
    fn fractions_are_sane() {
        for p in BenchProfile::all() {
            assert!(p.loads + p.stores + p.branches < 0.8, "{}", p.name);
            let lw = p.load_stream + p.load_random + p.load_chase + p.load_slot;
            assert!(
                (lw - 1.0).abs() < 1e-9,
                "{} load weights sum to {lw}",
                p.name
            );
            assert!(p.store_stream + p.store_slot <= 1.0 + 1e-9, "{}", p.name);
            assert!(p.store_random() >= 0.0);
            assert!((0.0..=1.0).contains(&p.slot_match_p));
            assert!((0.0..=1.0).contains(&p.branch_bias));
            assert!(p.body_len() >= 3);
        }
    }

    #[test]
    fn pointer_chasers_are_the_low_ipc_benchmarks() {
        let mcf = BenchProfile::named("mcf").unwrap();
        let mesa = BenchProfile::named("mesa").unwrap();
        assert!(mcf.load_chase > 0.1);
        assert!(mcf.ws_bytes > (4 << 20), "mcf footprint exceeds the 2M L2");
        assert_eq!(mesa.load_chase, 0.0);
        assert!(mesa.ws_bytes <= (256 << 10), "mesa is cache-resident");
    }

    #[test]
    fn body_len_tracks_branch_fraction() {
        let mgrid = BenchProfile::named("mgrid").unwrap(); // 2% branches
        let parser = BenchProfile::named("parser").unwrap(); // 18% branches
        assert!(mgrid.body_len() > 40);
        assert!(parser.body_len() < 6);
    }

    #[test]
    fn streams_build_and_are_named() {
        use lsq_isa::InstructionStream;
        let mut s = BenchProfile::named("swim").unwrap().stream(3);
        assert_eq!(s.name(), "swim");
        assert!(s.next_instr().is_some());
    }
}
