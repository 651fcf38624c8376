//! Instruction, operand, and address types.

use std::fmt;

/// A program counter. Static instructions have stable PCs, which is what
/// PC-indexed predictors (store-set, store-load pair, branch) key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

impl Pc {
    /// Folds the PC into a table index of `bits` bits, the way hardware
    /// predictor tables hash the PC.
    #[inline]
    pub fn index(self, bits: u32) -> usize {
        let mask = (1u64 << bits) - 1;
        // Instructions are 4-byte aligned; drop the low 2 bits then fold.
        let word = self.0 >> 2;
        ((word ^ (word >> bits)) & mask) as usize
    }
}

/// A data memory address. The simulator disambiguates at 8-byte-word
/// granularity: two accesses conflict iff their word addresses match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr:{:#x}", self.0)
    }
}

impl Addr {
    /// The 8-byte word this address falls in; the unit of dependence
    /// checking in the load/store queue.
    #[inline]
    pub fn word(self) -> u64 {
        self.0 >> 3
    }

    /// The cache-block address for a block of `block_bytes` (a power of 2).
    #[inline]
    pub fn block(self, block_bytes: u64) -> u64 {
        debug_assert!(block_bytes.is_power_of_two());
        self.0 >> block_bytes.trailing_zeros()
    }

    /// Whether two addresses access the same 8-byte word.
    #[inline]
    pub fn same_word(self, other: Addr) -> bool {
        self.word() == other.word()
    }
}

/// Register class: the machine has separate integer and floating-point
/// register files (356 physical each in the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Integer register file.
    Int,
    /// Floating-point register file.
    Fp,
}

/// Number of architectural registers per class.
pub const ARCH_REGS_PER_CLASS: u8 = 32;

/// An architectural register: a class plus an index in `0..32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchReg {
    /// Which register file.
    pub class: RegClass,
    /// Register number within the class, `0..ARCH_REGS_PER_CLASS`.
    pub num: u8,
}

impl ArchReg {
    /// An integer register.
    ///
    /// # Panics
    ///
    /// Panics if `num >= 32`.
    pub fn int(num: u8) -> Self {
        assert!(num < ARCH_REGS_PER_CLASS, "register number out of range");
        Self {
            class: RegClass::Int,
            num,
        }
    }

    /// A floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `num >= 32`.
    pub fn fp(num: u8) -> Self {
        assert!(num < ARCH_REGS_PER_CLASS, "register number out of range");
        Self {
            class: RegClass::Fp,
            num,
        }
    }

    /// A dense index in `0..64` combining class and number, for rename maps.
    #[inline]
    pub fn flat_index(self) -> usize {
        match self.class {
            RegClass::Int => self.num as usize,
            RegClass::Fp => ARCH_REGS_PER_CLASS as usize + self.num as usize,
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.num),
            RegClass::Fp => write!(f, "f{}", self.num),
        }
    }
}

/// The operation class of an instruction, with its execution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply (3 cycles, pipelined).
    IntMul,
    /// Floating-point add/sub/convert (2 cycles, pipelined).
    FpAlu,
    /// Floating-point multiply (4 cycles, pipelined).
    FpMul,
    /// Floating-point divide (12 cycles; modeled pipelined for simplicity).
    FpDiv,
    /// Memory load; latency comes from the LSQ/cache, not from here.
    Load,
    /// Memory store; address generation in the integer pipeline.
    Store,
    /// Conditional branch, resolved in the integer pipeline (1 cycle).
    Branch,
}

impl InstrKind {
    /// Execution latency in cycles for non-memory operations. Loads and
    /// stores return the address-generation latency (1); their memory
    /// latency is determined by the LSQ and cache models.
    #[inline]
    pub fn exec_latency(self) -> u32 {
        match self {
            InstrKind::IntAlu | InstrKind::Branch | InstrKind::Load | InstrKind::Store => 1,
            InstrKind::IntMul => 3,
            InstrKind::FpAlu => 2,
            InstrKind::FpMul => 4,
            InstrKind::FpDiv => 12,
        }
    }

    /// Whether this instruction executes on the floating-point units.
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(self, InstrKind::FpAlu | InstrKind::FpMul | InstrKind::FpDiv)
    }

    /// Whether this is a load.
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, InstrKind::Load)
    }

    /// Whether this is a store.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, InstrKind::Store)
    }

    /// Whether this is a memory instruction (load or store).
    #[inline]
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether this is a conditional branch.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, InstrKind::Branch)
    }
}

impl fmt::Display for InstrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrKind::IntAlu => "int",
            InstrKind::IntMul => "mul",
            InstrKind::FpAlu => "fadd",
            InstrKind::FpMul => "fmul",
            InstrKind::FpDiv => "fdiv",
            InstrKind::Load => "load",
            InstrKind::Store => "store",
            InstrKind::Branch => "br",
        };
        f.write_str(s)
    }
}

/// One dynamic instruction on the correct path.
///
/// Memory instructions carry their effective [`Addr`]; branches carry their
/// actual outcome (`taken`). Up to two register sources and one destination
/// describe the dataflow the renamer tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// Static PC of this instruction.
    pub pc: Pc,
    /// Operation class.
    pub kind: InstrKind,
    /// Destination register, if the instruction writes one.
    pub dst: Option<ArchReg>,
    /// Source registers (dataflow inputs), up to two.
    pub srcs: [Option<ArchReg>; 2],
    /// Effective address for loads/stores; `Addr(0)` otherwise.
    pub addr: Addr,
    /// Actual branch outcome for branches; `false` otherwise.
    pub taken: bool,
}

impl Instruction {
    /// Creates a non-memory, non-branch instruction of the given kind.
    pub fn op(pc: Pc, kind: InstrKind) -> Self {
        debug_assert!(!kind.is_mem() && !kind.is_branch());
        Self {
            pc,
            kind,
            dst: None,
            srcs: [None, None],
            addr: Addr(0),
            taken: false,
        }
    }

    /// Creates a load of `addr`.
    pub fn load(pc: Pc, addr: Addr) -> Self {
        Self {
            pc,
            kind: InstrKind::Load,
            dst: None,
            srcs: [None, None],
            addr,
            taken: false,
        }
    }

    /// Creates a store to `addr`.
    pub fn store(pc: Pc, addr: Addr) -> Self {
        Self {
            pc,
            kind: InstrKind::Store,
            dst: None,
            srcs: [None, None],
            addr,
            taken: false,
        }
    }

    /// Creates a conditional branch with actual outcome `taken`.
    pub fn branch(pc: Pc, taken: bool) -> Self {
        Self {
            pc,
            kind: InstrKind::Branch,
            dst: None,
            srcs: [None, None],
            addr: Addr(0),
            taken,
        }
    }

    /// Sets the destination register (builder style).
    pub fn with_dst(mut self, dst: ArchReg) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Adds a source register into the first free source slot (builder
    /// style). A third source is silently ignored — the machine reads at
    /// most two register operands.
    pub fn with_src(mut self, src: ArchReg) -> Self {
        if self.srcs[0].is_none() {
            self.srcs[0] = Some(src);
        } else if self.srcs[1].is_none() {
            self.srcs[1] = Some(src);
        }
        self
    }

    /// Iterates over the present source registers.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_index_within_table() {
        for bits in [8u32, 10, 12] {
            for pc in [0u64, 4, 0x400_000, !3u64] {
                assert!(Pc(pc).index(bits) < (1 << bits));
            }
        }
    }

    #[test]
    fn pc_index_distinguishes_nearby_instructions() {
        let a = Pc(0x1000).index(12);
        let b = Pc(0x1004).index(12);
        assert_ne!(a, b);
    }

    #[test]
    fn addr_word_granularity() {
        assert!(Addr(0x100).same_word(Addr(0x107)));
        assert!(!Addr(0x100).same_word(Addr(0x108)));
        assert_eq!(Addr(64).block(32), 2);
    }

    #[test]
    fn arch_reg_flat_index_is_dense_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..ARCH_REGS_PER_CLASS {
            assert!(seen.insert(ArchReg::int(n).flat_index()));
            assert!(seen.insert(ArchReg::fp(n).flat_index()));
        }
        assert_eq!(seen.len(), 64);
        assert!(seen.iter().all(|&i| i < 64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arch_reg_range_checked() {
        let _ = ArchReg::int(32);
    }

    #[test]
    fn kind_classification() {
        assert!(InstrKind::Load.is_mem());
        assert!(InstrKind::Store.is_mem());
        assert!(!InstrKind::IntAlu.is_mem());
        assert!(InstrKind::Branch.is_branch());
        assert!(InstrKind::FpMul.is_fp());
        assert!(!InstrKind::Load.is_fp());
    }

    #[test]
    fn latencies_are_positive_and_ordered() {
        assert_eq!(InstrKind::IntAlu.exec_latency(), 1);
        assert!(InstrKind::IntMul.exec_latency() > InstrKind::IntAlu.exec_latency());
        assert!(InstrKind::FpDiv.exec_latency() > InstrKind::FpMul.exec_latency());
    }

    #[test]
    fn builder_fills_sources_in_order() {
        let i = Instruction::op(Pc(4), InstrKind::IntAlu)
            .with_src(ArchReg::int(1))
            .with_src(ArchReg::int(2))
            .with_src(ArchReg::int(3)); // ignored
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![ArchReg::int(1), ArchReg::int(2)]);
    }

    #[test]
    fn constructors_set_kind_fields() {
        assert!(Instruction::load(Pc(0), Addr(8)).kind.is_load());
        assert!(Instruction::store(Pc(0), Addr(8)).kind.is_store());
        assert!(Instruction::branch(Pc(0), true).taken);
        assert!(!Instruction::branch(Pc(0), false).taken);
    }

    #[test]
    fn display_impls_nonempty() {
        assert!(!format!("{}", Pc(4)).is_empty());
        assert!(!format!("{}", Addr(8)).is_empty());
        assert!(!format!("{}", ArchReg::fp(3)).is_empty());
        assert!(!format!("{}", InstrKind::Load).is_empty());
    }
}
