//! Dynamic-trace generation for the timing model.
//!
//! The cycle-level simulator in `eole-core` is *trace driven*: the program
//! is executed once by the functional [`Machine`] and every retired µ-op is
//! recorded as a [`DynInst`]. The timing model replays this stream with a
//! cursor; squash-and-refetch is a cursor rewind.
//!
//! A record holds only the µ-op's dynamic facts that the trace cannot
//! derive (plus its opcode, so the timing class needs no second lookup):
//! 24 bytes. The static instruction — its registers, immediate and scale —
//! is stored once per trace in [`Trace::text`] and read through the
//! record's pc: a kernel has tens of static instructions, and a trace
//! hundreds of thousands of µ-ops. The access size is the opcode's
//! ([`DynInst::size`]), and the next pc is the next record's pc, or the
//! trace's `end_pc` after the last record ([`next_pc`]).
//!
//! Two things are precomputed here because they are pure functions of the
//! (always correct-path) instruction stream:
//!
//! * the *conditional-branch outcome log* — predictors index their global
//!   history through [`DynInst::bhist_pos`], which makes speculative-history
//!   repair after a squash unnecessary (the history at a given trace position
//!   never changes);
//! * oracle results, effective addresses and branch targets (the next
//!   record's pc).

use crate::inst::{Inst, InstClass, Opcode};
use crate::machine::Machine;
use crate::program::Program;
use crate::IsaError;

/// One retired micro-op of the dynamic instruction stream: 24 bytes. Its
/// static instruction is `text[pc]` of the trace it belongs to
/// ([`Trace::text`]); its access size is its opcode's ([`DynInst::size`])
/// and its successor's pc is the next record's ([`next_pc`]).
#[derive(Clone, Debug, PartialEq)]
pub struct DynInst {
    /// Static instruction index (the pc). A program holds at most
    /// [`Program::MAX_INSTS`] instructions, so every pc fits.
    pub pc: u16,
    /// The instruction's opcode (`text[pc].op`).
    pub op: Opcode,
    /// Oracle value written to the destination register (0 if none).
    pub result: u64,
    /// Effective address for loads/stores (0 otherwise).
    pub addr: u64,
    /// For control µ-ops: taken?
    pub taken: bool,
    /// Number of conditional-branch outcomes logged *before* this µ-op;
    /// i.e. the predictor history position at fetch.
    pub bhist_pos: u32,
}

/// Pc of the µ-op after record `idx` of `insts`: the next record's pc, or
/// `end_pc` after the last one. The one rule by which [`Trace::next_pc`]
/// and every trace built from a [`Trace`] derive the successor a record
/// does not store.
#[inline]
pub fn next_pc(insts: &[DynInst], end_pc: u32, idx: usize) -> u32 {
    insts.get(idx + 1).map_or(end_pc, |d| u32::from(d.pc))
}

impl DynInst {
    /// Access size in bytes for loads/stores (0 otherwise).
    #[inline]
    pub fn size(&self) -> u8 {
        self.op.access_size()
    }

    /// Timing class.
    pub fn class(&self) -> InstClass {
        self.op.class()
    }

    /// True if this µ-op is a load.
    pub fn is_load(&self) -> bool {
        self.class() == InstClass::Load
    }

    /// True if this µ-op is a store.
    pub fn is_store(&self) -> bool {
        self.class() == InstClass::Store
    }
}

/// A complete dynamic trace plus the conditional-branch outcome log.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The program's static instructions, indexed by pc: the text every
    /// [`DynInst::pc`] points into.
    pub text: Vec<Inst>,
    /// Retired µ-ops in program order.
    pub insts: Vec<DynInst>,
    /// Outcome (taken?) of every conditional branch, in retirement order.
    pub branch_outcomes: Vec<bool>,
    /// True if the program reached `Halt` within the budget (otherwise the
    /// trace is a truncated prefix, which is fine for timing studies).
    pub halted: bool,
    /// Pc of the µ-op after the last record: the `Halt` of a halted trace,
    /// the next unrecorded µ-op of a truncated one.
    pub end_pc: u32,
}

impl Trace {
    /// Number of µ-ops in the trace.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Pc of the µ-op after record `idx` ([`next_pc`]).
    pub fn next_pc(&self, idx: usize) -> u32 {
        next_pc(&self.insts, self.end_pc, idx)
    }
}

/// Runs `program` functionally and records up to `max_insts` retired µ-ops.
///
/// The `Halt` µ-op itself is *not* recorded (it never enters the paper's
/// pipeline statistics).
///
/// # Errors
///
/// Propagates execution errors from the functional machine. Exhausting
/// `max_insts` is *not* an error — the truncated trace is returned with
/// `halted == false`.
///
/// # Example
///
/// ```
/// use eole_isa::{generate_trace, ProgramBuilder, IntReg};
///
/// # fn main() -> Result<(), eole_isa::IsaError> {
/// let mut b = ProgramBuilder::new();
/// let r1 = IntReg::new(1);
/// b.movi(r1, 3);
/// b.addi(r1, r1, 4);
/// b.halt();
/// let trace = generate_trace(&b.build()?, 100)?;
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.insts[1].result, 7);
/// # Ok(())
/// # }
/// ```
pub fn generate_trace(program: &Program, max_insts: u64) -> Result<Trace, IsaError> {
    let mut machine = Machine::new(program);
    let mut insts = Vec::new();
    let mut branch_outcomes = Vec::new();
    let mut halted = false;
    let mut end_pc = program.entry();
    while (insts.len() as u64) < max_insts {
        let info = machine.step()?;
        if info.halted {
            halted = true;
            break;
        }
        let bhist_pos = branch_outcomes.len() as u32;
        if info.inst.is_cond_branch() {
            branch_outcomes.push(info.taken);
        }
        insts.push(DynInst {
            // Never fails: `Program::new` caps the text at `MAX_INSTS`.
            pc: u16::try_from(info.pc).map_err(|_| IsaError::PcOutOfRange(info.pc))?,
            op: info.inst.op,
            result: info.dst_value.unwrap_or(0),
            addr: info.mem_addr.unwrap_or(0),
            taken: info.taken,
            bhist_pos,
        });
        end_pc = info.next_pc;
    }
    Ok(Trace { text: program.insts().to_vec(), insts, branch_outcomes, halted, end_pc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::IntReg;

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    fn loop_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0);
        b.movi(r(2), iters);
        let top = b.label();
        b.bind(top);
        b.addi(r(1), r(1), 1);
        b.bne(r(1), r(2), top);
        b.halt();
        b.build().unwrap()
    }

    /// The record holds only what the trace cannot derive: `result` 8,
    /// `addr` 8, `bhist_pos` 4, `pc` 2, `op` 1, `taken` 1. Storing the
    /// access size or the next pc again grows every trace by a third.
    #[test]
    fn dyn_inst_is_24_bytes() {
        assert_eq!(std::mem::size_of::<DynInst>(), 24);
    }

    #[test]
    fn text_is_the_program_and_every_record_points_into_it() {
        let program = loop_program(4);
        let t = generate_trace(&program, 10_000).unwrap();
        assert_eq!(t.text, program.insts());
        for d in &t.insts {
            assert_eq!(d.op, t.text[d.pc as usize].op, "pc {}", d.pc);
        }
    }

    #[test]
    fn trace_records_all_retired_uops_except_halt() {
        let t = generate_trace(&loop_program(5), 10_000).unwrap();
        // 2 movi + 5 * (addi + bne) = 12
        assert_eq!(t.len(), 12);
        assert!(t.halted);
    }

    #[test]
    fn branch_outcomes_align_with_bhist_pos() {
        let t = generate_trace(&loop_program(3), 10_000).unwrap();
        assert_eq!(t.branch_outcomes, vec![true, true, false]);
        let branches: Vec<&DynInst> =
            t.insts.iter().filter(|d| d.class() == InstClass::Branch).collect();
        for (i, br) in branches.iter().enumerate() {
            // Each branch sees exactly the history produced by earlier branches.
            assert_eq!(br.bhist_pos as usize, i);
            assert_eq!(t.branch_outcomes[i], br.taken);
        }
    }

    #[test]
    fn truncation_is_not_an_error() {
        let t = generate_trace(&loop_program(1_000_000), 100).unwrap();
        assert_eq!(t.len(), 100);
        assert!(!t.halted);
    }

    #[test]
    fn oracle_values_and_next_pc_are_recorded() {
        let t = generate_trace(&loop_program(2), 10_000).unwrap();
        let first_addi = t.insts.iter().find(|d| d.op == Opcode::AddI).unwrap();
        assert_eq!(first_addi.result, 1);
        let taken = t.insts.iter().position(|d| d.taken).unwrap();
        assert_eq!(t.next_pc(taken), 2); // loop head
    }

    #[test]
    fn end_pc_of_a_halted_trace_is_the_halt() {
        let t = generate_trace(&loop_program(3), 10_000).unwrap();
        assert!(t.halted);
        // movi, movi, addi, bne, halt: the last record is the fall-through bne.
        assert_eq!(t.end_pc, 4);
        assert_eq!(t.text[t.end_pc as usize].op, Opcode::Halt);
        assert_eq!(t.next_pc(t.len() - 1), t.end_pc);
    }

    #[test]
    fn end_pc_of_a_truncated_trace_is_the_next_unrecorded_uop() {
        let program = loop_program(1_000_000);
        for len in [0, 1, 2, 3, 4, 99, 100] {
            let t = generate_trace(&program, len).unwrap();
            assert!(!t.halted);
            let longer = generate_trace(&program, len + 1).unwrap();
            assert_eq!(t.end_pc, u32::from(longer.insts[len as usize].pc), "len {len}");
            if len > 0 {
                assert_eq!(t.next_pc(t.len() - 1), t.end_pc);
            }
        }
    }

    #[test]
    fn store_addresses_are_recorded() {
        let mut b = ProgramBuilder::new();
        let buf = b.add_data_u64(&[0]);
        b.movi(r(1), buf as i64);
        b.movi(r(2), 9);
        b.st(r(1), 0, r(2));
        b.halt();
        let t = generate_trace(&b.build().unwrap(), 100).unwrap();
        let st = t.insts.iter().find(|d| d.is_store()).unwrap();
        assert_eq!(st.addr, buf);
        assert_eq!(st.size(), 8);
    }
}
