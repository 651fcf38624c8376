//! Instruction-stream abstraction.
//!
//! The pipeline pulls dynamic instructions from an [`InstructionStream`];
//! workload generators (`lsq-trace`) implement it lazily, and
//! [`VecStream`]/[`SliceStream`] adapt pre-built sequences for tests.

use crate::Instruction;

/// A source of correct-path dynamic instructions.
///
/// A stream is pulled exactly once per dynamic instruction; the pipeline
/// keeps its own replay buffer for squash-and-refetch, so implementations
/// need no rewind support.
pub trait InstructionStream {
    /// Produces the next dynamic instruction, or `None` at end of trace.
    fn next_instr(&mut self) -> Option<Instruction>;

    /// A human-readable workload name for reports.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// An owned vector of instructions replayed front to back.
///
/// # Examples
///
/// ```
/// use lsq_isa::{Instruction, InstructionStream, Pc, Addr, VecStream};
///
/// let mut s = VecStream::new(vec![Instruction::load(Pc(0), Addr(8))]);
/// assert!(s.next_instr().is_some());
/// assert!(s.next_instr().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct VecStream {
    instrs: Vec<Instruction>,
    pos: usize,
}

impl VecStream {
    /// Wraps a vector of instructions as a stream.
    pub fn new(instrs: Vec<Instruction>) -> Self {
        Self { instrs, pos: 0 }
    }

    /// Number of instructions not yet consumed.
    pub fn remaining(&self) -> usize {
        self.instrs.len() - self.pos
    }
}

impl InstructionStream for VecStream {
    fn next_instr(&mut self) -> Option<Instruction> {
        let i = self.instrs.get(self.pos).copied();
        if i.is_some() {
            self.pos += 1;
        }
        i
    }

    fn name(&self) -> &str {
        "vec"
    }
}

/// A borrowed slice of instructions replayed front to back.
#[derive(Debug, Clone)]
pub struct SliceStream<'a> {
    instrs: &'a [Instruction],
    pos: usize,
}

impl<'a> SliceStream<'a> {
    /// Wraps a slice of instructions as a stream.
    pub fn new(instrs: &'a [Instruction]) -> Self {
        Self { instrs, pos: 0 }
    }
}

impl InstructionStream for SliceStream<'_> {
    fn next_instr(&mut self) -> Option<Instruction> {
        let i = self.instrs.get(self.pos).copied();
        if i.is_some() {
            self.pos += 1;
        }
        i
    }

    fn name(&self) -> &str {
        "slice"
    }
}

impl<S: InstructionStream + ?Sized> InstructionStream for &mut S {
    fn next_instr(&mut self) -> Option<Instruction> {
        (**self).next_instr()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Pc};

    fn three() -> Vec<Instruction> {
        vec![
            Instruction::load(Pc(0), Addr(0)),
            Instruction::store(Pc(4), Addr(8)),
            Instruction::branch(Pc(8), true),
        ]
    }

    #[test]
    fn vec_stream_yields_in_order_then_none() {
        let mut s = VecStream::new(three());
        assert_eq!(s.name(), "vec");
        assert_eq!(s.remaining(), 3);
        assert!(s.next_instr().unwrap().kind.is_load());
        assert!(s.next_instr().unwrap().kind.is_store());
        assert!(s.next_instr().unwrap().kind.is_branch());
        assert!(s.next_instr().is_none());
        assert!(s.next_instr().is_none());
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn slice_stream_borrows() {
        let v = three();
        let mut s = SliceStream::new(&v);
        let mut n = 0;
        while s.next_instr().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn mut_ref_is_a_stream() {
        fn drain(mut s: impl InstructionStream) -> usize {
            let mut n = 0;
            while s.next_instr().is_some() {
                n += 1;
            }
            n
        }
        let mut v = VecStream::new(three());
        assert_eq!(drain(&mut v), 3);
    }
}
