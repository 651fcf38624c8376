//! The static-program model: basic blocks of static instructions with
//! stable PCs, built deterministically from a [`crate::BenchProfile`].

use crate::profile::BenchProfile;
use lsq_isa::{ArchReg, InstrKind, Pc};
use lsq_util::rng::{mix64, Xoshiro256};

/// Base address of the synthetic code segment.
pub const CODE_BASE: u64 = 0x40_0000;
/// Base address of the streaming data regions.
pub const STREAM_BASE: u64 = 0x1000_0000;
/// Base address of the random/pointer-chase region (staggered off the
/// cache set span so it does not alias the streaming regions).
pub const HEAP_BASE: u64 = 0x5000_0000 + 0x2040;
/// Base address of the slot (stack-like) region used for store-load
/// pairs (likewise staggered).
pub const SLOT_BASE: u64 = 0x7000_0000 + 0x4080;

/// How a static memory instruction generates its effective addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Walks a private streaming region with a fixed stride (array
    /// traversal; the dominant FP pattern).
    Stream {
        /// Which streaming region this instruction owns a cursor into.
        region: usize,
    },
    /// Uniformly random within the working set (hash tables, irregular
    /// structures).
    Random,
    /// Random within the working set *and* serialized on its own previous
    /// instance through a register self-dependence (pointer chasing —
    /// mcf/art style).
    Chase,
    /// Communicates through a small set of slot addresses shared between
    /// a static store and the static loads paired with it — the source of
    /// PC-stable store-load dependences (spills/reloads, struct fields).
    Slot {
        /// Which slot this instruction reads or writes.
        slot: usize,
    },
}

/// One static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Stable program counter.
    pub pc: Pc,
    /// Operation class.
    pub kind: InstrKind,
    /// Destination register, if any.
    pub dst: Option<ArchReg>,
    /// Source registers.
    pub srcs: [Option<ArchReg>; 2],
    /// Address behaviour for memory instructions.
    pub pattern: Option<AccessPattern>,
}

/// What happens at the end of a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockEnd {
    /// A backward loop branch: the block repeats `count` times per entry
    /// (taken `count - 1` times, then falls through). Highly predictable.
    Loop {
        /// Mean iteration count; the actual count per entry varies
        /// slightly around it.
        count: u32,
    },
    /// A data-dependent conditional: taken with probability `bias`
    /// (skipping the next block), otherwise falls through. Predictable
    /// only to the extent of the bias.
    Conditional {
        /// Probability the branch is taken.
        bias: f64,
    },
    /// Unconditional fall-through to the next block (no branch
    /// instruction emitted).
    FallThrough,
}

/// A basic block: body instructions plus the block-ending branch.
#[derive(Debug, Clone)]
pub struct StaticBlock {
    /// Straight-line body (no branches).
    pub body: Vec<StaticInst>,
    /// The block-ending control transfer.
    pub end: BlockEnd,
    /// PC of the block-ending branch (meaningful unless `FallThrough`).
    pub branch_pc: Pc,
}

/// A whole synthetic program.
#[derive(Debug, Clone)]
pub struct StaticProgram {
    /// The blocks, executed in order with loops and conditional skips.
    pub blocks: Vec<StaticBlock>,
    /// Number of streaming regions referenced by `Stream` patterns.
    pub stream_regions: usize,
    /// Bytes per streaming region.
    pub stream_bytes: u64,
    /// Stride of streaming cursors, bytes.
    pub stride: u64,
    /// Bytes of the random/chase working set.
    pub ws_bytes: u64,
    /// Bytes of the hot subset random accesses concentrate in.
    pub hot_bytes: u64,
    /// Probability a random access falls in the hot subset.
    pub hot_frac: f64,
    /// Number of communication slots.
    pub slots: usize,
    /// Probability a paired load reads the slot's current (matching)
    /// address rather than a stale one.
    pub slot_match_p: f64,
}

impl StaticProgram {
    /// Builds the deterministic static program for `profile`; the same
    /// `(profile, seed)` always yields the same program.
    pub fn build(profile: &BenchProfile, seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(mix64(seed) ^ mix64(hash_name(profile.name)));
        let mut blocks = Vec::with_capacity(profile.blocks);
        let mut pc = CODE_BASE;
        // Round-robin destination registers r1..=GENERAL_REGS; the upper
        // registers are reserved for pointer-chase chains (CHASE_POOL) and
        // the serial accumulator (ACC_REG), so renaming cannot
        // accidentally break or create loop-carried dependences.
        let mut next_int = 1u8;
        let mut next_fp = 1u8;
        let mut next_chase = 0u8;
        // Recent producers for source selection, per class. Cleared at
        // block boundaries: cross-block values are live-ins, modeled as
        // always ready, so the only loop-carried register dependences are
        // the ones placed deliberately (accumulators and chase chains).
        let mut recent_int: Vec<ArchReg> = Vec::new();
        let mut recent_fp: Vec<ArchReg> = Vec::new();
        // Integer ALU producers only: the pool address operands draw
        // from. Loads never feed address generation here (except the
        // deliberate Chase chains), keeping load issue close to dispatch
        // order as on real codes (paper Table 4: < 3 OoO-issued loads).
        let mut recent_addr: Vec<ArchReg> = Vec::new();
        let mut next_stream = 0usize;
        let mut next_slot = 0usize;
        // Slots written by stores of the *current block*; slot loads pair
        // with these so the paired static store and load sit in the same
        // loop body and their dynamic instances stay close — the
        // store-to-load distances real spill/reload pairs exhibit.
        let mut recent_store_slots: Vec<usize> = Vec::new();

        // Fractions of body instructions by kind. Counts are materialised
        // *exactly* per block (with stochastic rounding of the fractional
        // part) so that uneven dynamic block-visit weights cannot skew the
        // dynamic instruction mix away from the profile.
        let body_frac = 1.0 - profile.branches;
        let p_load = profile.loads / body_frac;
        let p_store = profile.stores / body_frac;

        for b in 0..profile.blocks {
            recent_int.clear();
            recent_fp.clear();
            recent_addr.clear();
            recent_store_slots.clear();
            let len = (profile.body_len() as f64 * (0.6 + 0.8 * rng.f64())).round() as usize;
            let len = len.max(2);
            let round = |x: f64, rng: &mut Xoshiro256| -> usize {
                let f = x.floor();
                f as usize + usize::from(rng.chance(x - f))
            };
            let n_load = round(p_load * len as f64, &mut rng).min(len);
            let n_store = round(p_store * len as f64, &mut rng).min(len - n_load);
            // 0 = load, 1 = store, 2 = ALU; Fisher-Yates shuffle.
            let mut kinds = vec![0u8; n_load];
            kinds.extend(std::iter::repeat_n(1u8, n_store));
            kinds.extend(std::iter::repeat_n(2u8, len - n_load - n_store));
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.range_usize(i + 1));
            }
            let mut body = Vec::with_capacity(len);
            for k in kinds {
                let inst = match k {
                    0 => Self::make_load(
                        profile,
                        &mut rng,
                        Pc(pc),
                        &mut next_int,
                        &mut next_fp,
                        &mut next_chase,
                        &mut recent_int,
                        &mut recent_fp,
                        &mut recent_addr,
                        &mut next_stream,
                        &next_slot,
                        &recent_store_slots,
                    ),
                    1 => Self::make_store(
                        profile,
                        &mut rng,
                        Pc(pc),
                        &recent_int,
                        &recent_fp,
                        &recent_addr,
                        &mut next_stream,
                        &mut next_slot,
                        &mut recent_store_slots,
                    ),
                    _ => Self::make_alu(
                        profile,
                        &mut rng,
                        Pc(pc),
                        &mut next_int,
                        &mut next_fp,
                        &mut recent_int,
                        &mut recent_fp,
                        &mut recent_addr,
                    ),
                };
                body.push(inst);
                pc += 4;
            }
            let branch_pc = Pc(pc);
            let end = if b + 1 == profile.blocks || rng.chance(profile.loop_branch_frac) {
                // The final block always loops so the program never runs
                // off the end.
                let spread = (profile.loop_mean / 2).max(1);
                let count = profile.loop_mean + rng.range_u64(u64::from(spread)) as u32;
                pc += 4;
                BlockEnd::Loop {
                    count: count.max(2),
                }
            } else if rng.chance(0.85) {
                pc += 4;
                BlockEnd::Conditional {
                    bias: profile.branch_bias,
                }
            } else {
                BlockEnd::FallThrough
            };
            blocks.push(StaticBlock {
                body,
                end,
                branch_pc,
            });
        }

        Self {
            blocks,
            stream_regions: profile.stream_regions.max(1),
            stream_bytes: profile.stream_bytes.max(64),
            stride: profile.stride.max(8),
            ws_bytes: profile.ws_bytes.max(64),
            hot_bytes: profile.hot_bytes.max(64),
            hot_frac: profile.hot_frac,
            slots: profile.slots.max(1),
            slot_match_p: profile.slot_match_p,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn make_load(
        profile: &BenchProfile,
        rng: &mut Xoshiro256,
        pc: Pc,
        next_int: &mut u8,
        next_fp: &mut u8,
        next_chase: &mut u8,
        recent_int: &mut Vec<ArchReg>,
        recent_fp: &mut Vec<ArchReg>,
        recent_addr_sink: &mut Vec<ArchReg>,
        next_stream: &mut usize,
        next_slot: &usize,
        recent_store_slots: &[usize],
    ) -> StaticInst {
        let recent_addr: Vec<ArchReg> = recent_addr_sink.clone();
        let recent_addr = &recent_addr[..];
        let w = [
            profile.load_stream,
            profile.load_random,
            profile.load_chase,
            profile.load_slot,
        ];
        let pattern = match rng.weighted(&w).unwrap_or(1) {
            0 => {
                let region = *next_stream % profile.stream_regions.max(1);
                *next_stream += 1;
                AccessPattern::Stream { region }
            }
            1 => AccessPattern::Random,
            2 => AccessPattern::Chase,
            _ => {
                // Pair with a slot stored by this block: either one of
                // the stores already generated, or — when the load comes
                // first — the slot the block's next store will claim
                // (loop-carried pairing with the previous iteration).
                let slot = if recent_store_slots.is_empty() {
                    *next_slot % profile.slots.max(1)
                } else {
                    let d = rng.short_distance(recent_store_slots.len().min(4), 0.6);
                    recent_store_slots[recent_store_slots.len() - d]
                };
                AccessPattern::Slot { slot }
            }
        };
        // FP benchmarks load into FP registers most of the time.
        let fp_dst = profile.fp && rng.chance(0.7) && pattern != AccessPattern::Chase;
        let dst = if pattern == AccessPattern::Chase {
            // Dedicated registers keep each chase chain serialized across
            // its own dynamic instances without interference from the
            // round-robin allocator. The loaded pointer also feeds later
            // address generation (pointer-derived addressing), so when a
            // chase stalls, dependent loads stall with it instead of
            // issuing around it.
            let reg = ArchReg::int(CHASE_POOL_BASE + (*next_chase % CHASE_POOL_LEN));
            *next_chase += 1;
            recent_addr_sink.push(reg);
            if recent_addr_sink.len() > ADDR_WINDOW {
                recent_addr_sink.remove(0);
            }
            reg
        } else if fp_dst {
            alloc_reg(next_fp, recent_fp, true)
        } else {
            alloc_reg(next_int, recent_int, false)
        };
        let srcs = match pattern {
            // Serialize on the previous dynamic instance: src == dst.
            AccessPattern::Chase => [Some(dst), None],
            // Address generation depends on a recently computed index or
            // pointer; the dependence is short (sp/induction arithmetic)
            // but real — it is what keeps load issue roughly following
            // dataflow order, and hence the number of out-of-order-issued
            // loads small (the paper's Table 4 measures < 3 on average).
            AccessPattern::Slot { .. } | AccessPattern::Stream { .. } | AccessPattern::Random => {
                [pick_near(rng, recent_addr), None]
            }
        };
        StaticInst {
            pc,
            kind: InstrKind::Load,
            dst: Some(dst),
            srcs,
            pattern: Some(pattern),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn make_store(
        profile: &BenchProfile,
        rng: &mut Xoshiro256,
        pc: Pc,
        recent_int: &[ArchReg],
        recent_fp: &[ArchReg],
        recent_addr: &[ArchReg],
        next_stream: &mut usize,
        next_slot: &mut usize,
        recent_store_slots: &mut Vec<usize>,
    ) -> StaticInst {
        let w = [
            profile.store_stream,
            profile.store_slot,
            profile.store_random(),
        ];
        let pattern = match rng.weighted(&w).unwrap_or(1) {
            0 => {
                let region = *next_stream % profile.stream_regions.max(1);
                *next_stream += 1;
                AccessPattern::Stream { region }
            }
            1 => {
                let slot = *next_slot % profile.slots.max(1);
                *next_slot += 1;
                recent_store_slots.push(slot);
                if recent_store_slots.len() > 8 {
                    recent_store_slots.remove(0);
                }
                AccessPattern::Slot { slot }
            }
            _ => AccessPattern::Random,
        };
        // Store data operand: real stores spill a *recently computed*
        // value, so the data dependence is short (FP data in FP codes).
        let data = if profile.fp && rng.chance(0.6) {
            pick_near(rng, recent_fp)
        } else {
            pick_near(rng, recent_int)
        };
        // Slot/stream store addresses are sp- or induction-relative
        // (ready); only irregular stores compute an address late.
        let addr_src = match pattern {
            AccessPattern::Random => pick_near(rng, recent_addr),
            _ => None,
        };
        StaticInst {
            pc,
            kind: InstrKind::Store,
            dst: None,
            srcs: [data, addr_src],
            pattern: Some(pattern),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn make_alu(
        profile: &BenchProfile,
        rng: &mut Xoshiro256,
        pc: Pc,
        next_int: &mut u8,
        next_fp: &mut u8,
        recent_int: &mut Vec<ArchReg>,
        recent_fp: &mut Vec<ArchReg>,
        recent_addr: &mut Vec<ArchReg>,
    ) -> StaticInst {
        let fp = rng.chance(profile.fp_ops);
        let kind = if fp {
            if rng.chance(profile.div_ops) {
                InstrKind::FpDiv
            } else if rng.chance(profile.mul_ops) {
                InstrKind::FpMul
            } else {
                InstrKind::FpAlu
            }
        } else if rng.chance(profile.mul_ops) {
            InstrKind::IntMul
        } else {
            InstrKind::IntAlu
        };
        // With probability `dep_short_p` the op joins the class's serial
        // accumulator chain (acc = acc ⊕ x): the deliberate loop-carried
        // dependence that bounds a block's per-iteration ILP, like
        // reductions and induction updates in real loops.
        if rng.chance(profile.dep_short_p) {
            let acc = if fp {
                ArchReg::fp(ACC_REG)
            } else {
                ArchReg::int(ACC_REG)
            };
            let recent = if fp { recent_fp } else { recent_int };
            let s1 = if rng.chance(profile.src_density) {
                pick_src(rng, recent)
            } else {
                None
            };
            return StaticInst {
                pc,
                kind,
                dst: Some(acc),
                srcs: [Some(acc), s1],
                pattern: None,
            };
        }
        let (dst, recent) = if fp {
            (alloc_reg(next_fp, recent_fp, true), recent_fp)
        } else {
            let reg = alloc_reg(next_int, recent_int, false);
            recent_addr.push(reg);
            if recent_addr.len() > ADDR_WINDOW {
                recent_addr.remove(0);
            }
            (reg, recent_int)
        };
        let s0 = if rng.chance(profile.src_density) {
            pick_src(rng, recent)
        } else {
            None
        };
        let s1 = if rng.chance(profile.src_density * 0.6) {
            pick_src(rng, recent)
        } else {
            None
        };
        StaticInst {
            pc,
            kind,
            dst: Some(dst),
            srcs: [s0, s1],
            pattern: None,
        }
    }
}

/// Highest register number handed out by the round-robin allocator.
const GENERAL_REGS: u8 = 24;
/// Size of the address-producer window: small, so that address chains
/// concentrate on few registers and a stalled producer holds dependent
/// memory operations back together (real index/pointer reuse).
const ADDR_WINDOW: usize = 4;
/// First register of the pointer-chase pool.
const CHASE_POOL_BASE: u8 = 25;
/// Number of dedicated chase-chain registers.
const CHASE_POOL_LEN: u8 = 5;
/// The per-class serial accumulator register.
const ACC_REG: u8 = 30;

/// Allocates the next destination register of a class (round-robin over
/// r1..=r24 / f1..=f24) and records it as a recent producer.
fn alloc_reg(next: &mut u8, recent: &mut Vec<ArchReg>, fp: bool) -> ArchReg {
    let num = *next;
    *next = if *next >= GENERAL_REGS { 1 } else { *next + 1 };
    let reg = if fp {
        ArchReg::fp(num)
    } else {
        ArchReg::int(num)
    };
    recent.push(reg);
    if recent.len() > 64 {
        recent.remove(0);
    }
    reg
}

/// Picks a source register uniformly among the block's recent producers
/// (wide, ILP-friendly dataflow; serial behaviour comes from the explicit
/// accumulator chains instead).
fn pick_src(rng: &mut Xoshiro256, recent: &[ArchReg]) -> Option<ArchReg> {
    if recent.is_empty() {
        return None;
    }
    let d = 1 + rng.range_usize(recent.len());
    Some(recent[recent.len() - d])
}

/// Picks a source among the last few producers (spill-style short data
/// dependence).
fn pick_near(rng: &mut Xoshiro256, recent: &[ArchReg]) -> Option<ArchReg> {
    if recent.is_empty() {
        return None;
    }
    let d = rng.short_distance(recent.len().min(4), 0.5);
    Some(recent[recent.len() - d])
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> &'static BenchProfile {
        BenchProfile::named("gcc").expect("gcc profile exists")
    }

    #[test]
    fn build_is_deterministic() {
        let p = sample_profile();
        let a = StaticProgram::build(p, 42);
        let b = StaticProgram::build(p, 42);
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.body, y.body);
            assert_eq!(x.end, y.end);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = sample_profile();
        let a = StaticProgram::build(p, 1);
        let b = StaticProgram::build(p, 2);
        let same = a
            .blocks
            .iter()
            .zip(&b.blocks)
            .filter(|(x, y)| x.body == y.body)
            .count();
        assert!(same < a.blocks.len(), "programs should differ across seeds");
    }

    #[test]
    fn pcs_are_unique_and_word_aligned() {
        let prog = StaticProgram::build(sample_profile(), 7);
        let mut seen = std::collections::HashSet::new();
        for blk in &prog.blocks {
            for i in &blk.body {
                assert_eq!(i.pc.0 % 4, 0);
                assert!(seen.insert(i.pc.0), "duplicate pc {:#x}", i.pc.0);
            }
            if blk.end != BlockEnd::FallThrough {
                assert!(seen.insert(blk.branch_pc.0));
            }
        }
    }

    #[test]
    fn last_block_always_loops() {
        for seed in 0..5 {
            let prog = StaticProgram::build(sample_profile(), seed);
            assert!(
                matches!(prog.blocks.last().unwrap().end, BlockEnd::Loop { .. }),
                "program must be repeatable"
            );
        }
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        let p = sample_profile();
        let prog = StaticProgram::build(p, 3);
        let total: usize = prog.blocks.iter().map(|b| b.body.len()).sum();
        let loads: usize = prog
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .filter(|i| i.kind.is_load())
            .count();
        let stores: usize = prog
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .filter(|i| i.kind.is_store())
            .count();
        let lf = loads as f64 / total as f64;
        let sf = stores as f64 / total as f64;
        // Within loose statistical bounds of the requested body fractions.
        let body = 1.0 - p.branches;
        assert!((lf - p.loads / body).abs() < 0.1, "load fraction {lf}");
        assert!((sf - p.stores / body).abs() < 0.1, "store fraction {sf}");
    }

    #[test]
    fn chase_loads_self_depend() {
        // mcf is chase-heavy; its chase loads serialize on themselves.
        let p = BenchProfile::named("mcf").unwrap();
        let prog = StaticProgram::build(p, 11);
        let chase: Vec<&StaticInst> = prog
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .filter(|i| i.pattern == Some(AccessPattern::Chase))
            .collect();
        assert!(!chase.is_empty(), "mcf must have chase loads");
        for c in chase {
            assert_eq!(c.srcs[0], c.dst, "chase load serializes on its own value");
        }
    }

    #[test]
    fn slot_patterns_pair_stores_with_loads() {
        let p = sample_profile();
        let prog = StaticProgram::build(p, 5);
        let slot_stores = prog
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .filter(|i| i.kind.is_store() && matches!(i.pattern, Some(AccessPattern::Slot { .. })))
            .count();
        let slot_loads = prog
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .filter(|i| i.kind.is_load() && matches!(i.pattern, Some(AccessPattern::Slot { .. })))
            .count();
        assert!(slot_stores > 0, "int codes store to slots");
        assert!(slot_loads > 0, "int codes load from slots");
    }

    #[test]
    fn every_profile_builds() {
        for p in BenchProfile::all() {
            let prog = StaticProgram::build(p, 1);
            assert!(!prog.blocks.is_empty(), "{} has blocks", p.name);
            let bodies: usize = prog.blocks.iter().map(|b| b.body.len()).sum();
            assert!(bodies > 10, "{} is non-trivial", p.name);
        }
    }
}
