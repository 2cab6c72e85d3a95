//! # eole-isa
//!
//! A compact 64-bit, RISC-style micro-op ISA used as the substrate for the
//! EOLE (ISCA 2014) reproduction, together with:
//!
//! * [`ProgramBuilder`] — an assembler-style builder with labels and data
//!   segments for authoring workloads in Rust;
//! * [`Machine`] — a functional (architectural) simulator that borrows its
//!   program and reads the data segments in place, through a sparse
//!   copy-on-write 64-bit memory;
//! * [`generate_trace`] — runs a [`Program`] to completion and records one
//!   [`DynInst`] per retired micro-op, which the cycle-level timing model in
//!   `eole-core` replays.
//!
//! The paper's substrate is x86_64 split into micro-ops; each of our
//! instructions *is* one micro-op (1 inst = 1 µ-op), which matches the
//! granularity at which the paper predicts values ("µ-ops producing a 64-bit
//! or less result that can be read by a subsequent µ-op").
//!
//! ## Example
//!
//! ```
//! use eole_isa::{ProgramBuilder, IntReg, Machine};
//!
//! # fn main() -> Result<(), eole_isa::IsaError> {
//! let mut b = ProgramBuilder::new();
//! let (r1, r2) = (IntReg::new(1), IntReg::new(2));
//! b.movi(r1, 0);
//! b.movi(r2, 10);
//! let top = b.label();
//! b.bind(top);
//! b.addi(r1, r1, 3);
//! b.subi(r2, r2, 1);
//! b.bne_imm(r2, 0, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut m = Machine::new(&program);
//! m.run(10_000)?;
//! assert_eq!(m.int_reg(r1), 30);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod builder;
mod hash;
mod inst;
mod machine;
mod memory;
mod program;
mod reg;
mod trace;

pub use builder::{Label, ProgramBuilder};
pub use hash::{WordHashMap, WordHasher};
pub use inst::{Inst, InstClass, Opcode};
pub use machine::{Machine, StepInfo};
pub use memory::SparseMemory;
pub use program::{DataSegment, Program};
pub use reg::{ArchReg, FpReg, IntReg, RegClass, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};
pub use trace::{generate_trace, next_pc, DynInst, Trace};

/// Errors produced while building or executing programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A label was referenced but never bound to a position.
    UnboundLabel(usize),
    /// A branch target is outside the program.
    TargetOutOfRange { inst: u32, target: u32 },
    /// The program counter left the program without reaching `Halt`.
    PcOutOfRange(u32),
    /// An indirect jump landed outside the program.
    IndirectOutOfRange { pc: u32, target: u64 },
    /// The step budget was exhausted before the program halted.
    StepBudgetExhausted,
    /// Two data segments overlap.
    DataOverlap { base: u64 },
    /// A data segment runs past the top of the address space.
    DataWraps { base: u64 },
    /// The program has more than [`Program::MAX_INSTS`] instructions.
    TextTooLong { len: usize },
}

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaError::UnboundLabel(id) => write!(f, "label {id} referenced but never bound"),
            IsaError::TargetOutOfRange { inst, target } => {
                write!(f, "instruction {inst} branches to out-of-range target {target}")
            }
            IsaError::PcOutOfRange(pc) => write!(f, "program counter {pc} left the program"),
            IsaError::IndirectOutOfRange { pc, target } => {
                write!(f, "indirect jump at {pc} targets out-of-range address {target}")
            }
            IsaError::StepBudgetExhausted => write!(f, "step budget exhausted before halt"),
            IsaError::DataOverlap { base } => {
                write!(f, "data segment at {base:#x} overlaps an earlier segment")
            }
            IsaError::DataWraps { base } => {
                write!(f, "data segment at {base:#x} runs past the top of the address space")
            }
            IsaError::TextTooLong { len } => {
                write!(f, "{len} instructions exceed the limit of {}", Program::MAX_INSTS)
            }
        }
    }
}

impl std::error::Error for IsaError {}
