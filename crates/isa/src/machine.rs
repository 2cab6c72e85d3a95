//! Functional (architectural) simulator.
//!
//! Executes a [`Program`] one instruction per step, producing the oracle
//! values the timing model replays. Integer and FP results come from
//! [`Inst::eval`]; this module adds what needs machine state: registers,
//! memory and control flow.
//!
//! A machine borrows its [`Program`]: it fetches from the program's
//! instruction slice and reads the data segments in place through a
//! copy-on-write [`SparseMemory`], so building one copies neither. Only
//! the 4 KiB pages a store touches are copied, which keeps set-up cheap
//! for kernels with tens of megabytes of data of which a trace reads a
//! small part.

use crate::inst::{Inst, InstClass};
use crate::memory::SparseMemory;
use crate::program::Program;
use crate::reg::{ArchReg, FpReg, IntReg, RegClass, NUM_FP_REGS, NUM_INT_REGS};
use crate::IsaError;

/// What one retired instruction did, as reported by [`Machine::step`].
#[derive(Clone, Debug, PartialEq)]
pub struct StepInfo {
    /// Pc of the retired instruction.
    pub pc: u32,
    /// The instruction itself.
    pub inst: Inst,
    /// Value written to the destination register, if any.
    pub dst_value: Option<u64>,
    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Access size in bytes for loads/stores.
    pub mem_size: u8,
    /// For control-flow µ-ops: did it redirect (conditional taken, or any
    /// jump/call/return)?
    pub taken: bool,
    /// The pc of the next instruction to execute.
    pub next_pc: u32,
    /// True once `Halt` retires.
    pub halted: bool,
}

/// Architectural machine state over a borrowed [`Program`].
#[derive(Clone, Debug)]
pub struct Machine<'p> {
    insts: &'p [Inst],
    int_regs: [u64; NUM_INT_REGS],
    fp_regs: [u64; NUM_FP_REGS],
    pc: u32,
    mem: SparseMemory<'p>,
    halted: bool,
    retired: u64,
}

impl<'p> Machine<'p> {
    /// A fresh machine at `program`'s entry, its memory initialized to the
    /// program's data segments (read in place, not copied).
    pub fn new(program: &'p Program) -> Self {
        Machine {
            insts: program.insts(),
            int_regs: [0; NUM_INT_REGS],
            fp_regs: [0; NUM_FP_REGS],
            pc: program.entry(),
            mem: SparseMemory::backed(program.data()),
            halted: false,
            retired: 0,
        }
    }

    /// Current pc.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// True once the program has executed `Halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Retired instruction count.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an integer register.
    pub fn int_reg(&self, r: IntReg) -> u64 {
        self.int_regs[r.index() as usize]
    }

    /// Reads an FP register as its f64 value.
    pub fn fp_reg(&self, r: FpReg) -> f64 {
        f64::from_bits(self.fp_regs[r.index() as usize])
    }

    fn read(&self, r: ArchReg) -> u64 {
        match r.class() {
            RegClass::Int => self.int_regs[r.index_in_class() as usize],
            RegClass::Fp => self.fp_regs[r.index_in_class() as usize],
        }
    }

    fn write(&mut self, r: ArchReg, v: u64) {
        match r.class() {
            RegClass::Int => self.int_regs[r.index_in_class() as usize] = v,
            RegClass::Fp => self.fp_regs[r.index_in_class() as usize] = v,
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// [`IsaError::PcOutOfRange`] if the pc leaves the program without
    /// halting; [`IsaError::IndirectOutOfRange`] if an indirect jump targets
    /// an invalid instruction index.
    pub fn step(&mut self) -> Result<StepInfo, IsaError> {
        if self.halted {
            return Err(IsaError::PcOutOfRange(self.pc));
        }
        let pc = self.pc;
        let inst = *self.insts.get(pc as usize).ok_or(IsaError::PcOutOfRange(pc))?;
        let s1 = inst.src1.map(|r| self.read(r)).unwrap_or(0);
        let s2 = inst.src2.map(|r| self.read(r)).unwrap_or(0);
        let size = inst.op.access_size();
        let addr = inst.effective_addr(s1, s2);
        let len = self.insts.len() as u64;
        let indirect = |target: u64| {
            if target < len {
                Ok(target as u32)
            } else {
                Err(IsaError::IndirectOutOfRange { pc, target })
            }
        };
        let mut info = StepInfo {
            pc,
            inst,
            dst_value: inst.eval(s1, s2),
            mem_addr: (size > 0).then_some(addr),
            mem_size: size,
            taken: inst.class().is_control(),
            next_pc: pc + 1,
            halted: false,
        };

        use crate::inst::Opcode::*;
        match inst.class() {
            InstClass::Load => info.dst_value = Some(self.mem.read_le(addr, size as usize)),
            InstClass::Store => self.mem.write_le(addr, size as usize, s2),
            InstClass::Branch => {
                info.taken = match inst.op {
                    Beq => s1 == s2,
                    Bne => s1 != s2,
                    Blt => (s1 as i64) < (s2 as i64),
                    Bge => (s1 as i64) >= (s2 as i64),
                    Bltu => s1 < s2,
                    Bgeu => s1 >= s2,
                    _ => unreachable!(),
                };
                if info.taken {
                    info.next_pc = inst.imm as u32;
                }
            }
            InstClass::Jump => info.next_pc = inst.imm as u32,
            InstClass::JumpIndirect | InstClass::Return => info.next_pc = indirect(s1)?,
            InstClass::Call | InstClass::CallIndirect => {
                info.dst_value = Some((pc + 1) as u64);
                info.next_pc = match inst.op {
                    Call => inst.imm as u32,
                    _ => indirect(s1)?,
                };
            }
            InstClass::Halt => {
                self.halted = true;
                info.halted = true;
                info.next_pc = pc;
            }
            _ => {}
        }

        if let (Some(d), Some(v)) = (inst.dst, info.dst_value) {
            self.write(d, v);
        }
        self.pc = info.next_pc;
        self.retired += 1;
        debug_assert!(
            !(inst.class() == InstClass::Branch && inst.dst.is_some()),
            "branches must not write registers"
        );
        Ok(info)
    }

    /// Runs until `Halt` or until `max_steps` instructions retire.
    ///
    /// # Errors
    ///
    /// [`IsaError::StepBudgetExhausted`] if the budget runs out first, plus
    /// any error from [`Machine::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<u64, IsaError> {
        let start = self.retired;
        while !self.halted {
            if self.retired - start >= max_steps {
                return Err(IsaError::StepBudgetExhausted);
            }
            self.step()?;
        }
        Ok(self.retired - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use proptest::prelude::*;

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0);
        b.movi(r(2), 1);
        b.movi(r(3), 101);
        let top = b.label();
        b.bind(top);
        b.add(r(1), r(1), r(2));
        b.addi(r(2), r(2), 1);
        b.bne(r(2), r(3), top);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(10_000).unwrap();
        assert_eq!(m.int_reg(r(1)), (1..=100).sum::<u64>());
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut b = ProgramBuilder::new();
        let buf = b.add_data_u64(&[10, 20, 30]);
        b.movi(r(1), buf as i64);
        b.ld(r(2), r(1), 8);
        b.addi(r(2), r(2), 5);
        b.st(r(1), 16, r(2));
        b.ld(r(3), r(1), 16);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.int_reg(r(2)), 25);
        assert_eq!(m.int_reg(r(3)), 25);
    }

    #[test]
    fn narrow_loads_and_stores_touch_only_their_width() {
        let mut b = ProgramBuilder::new();
        let buf = b.add_data_u64(&[u64::MAX]);
        b.movi(r(1), buf as i64);
        b.movi(r(2), 0x1122_3344_5566_7788);
        b.st32(r(1), 0, r(2));
        b.st16(r(1), 4, r(2));
        b.st8(r(1), 7, r(2));
        b.ld(r(3), r(1), 0);
        b.ld32(r(4), r(1), 4);
        b.ld16(r(5), r(1), 2);
        b.ld8(r(6), r(1), 6);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.int_reg(r(3)), 0x88ff_7788_5566_7788);
        assert_eq!(m.int_reg(r(4)), 0x88ff_7788);
        assert_eq!(m.int_reg(r(5)), 0x5566);
        assert_eq!(m.int_reg(r(6)), 0xff);
    }

    #[test]
    fn data_is_read_in_place_until_the_first_store() {
        let words: Vec<u64> = (0..1 << 17).map(|i| i * 3).collect(); // 1 MiB
        let mut b = ProgramBuilder::new();
        let buf = b.add_data_u64(&words);
        b.movi(r(1), buf as i64);
        b.ld(r(2), r(1), 8 * 1000);
        b.ld(r(3), r(1), 8 * 131_071);
        b.st(r(1), 8 * 70_000, r(2));
        b.ld(r(4), r(1), 8 * 70_000);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.step().unwrap();
        m.step().unwrap();
        m.step().unwrap();
        assert_eq!((m.int_reg(r(2)), m.int_reg(r(3))), (3000, 393_213));
        assert_eq!(m.mem.page_count(), 0, "loads materialize nothing");
        m.run(10).unwrap();
        assert_eq!(m.int_reg(r(4)), 3000);
        assert_eq!(m.mem.page_count(), 1, "the store copies its page only");
        assert_eq!(p.data()[0].bytes[8 * 70_000..8 * 70_001], 210_000u64.to_le_bytes());
    }

    #[test]
    fn indexed_load_and_lea_agree() {
        let mut b = ProgramBuilder::new();
        let buf = b.add_data_u64(&[7, 8, 9, 10]);
        b.movi(r(1), buf as i64);
        b.movi(r(2), 3);
        b.ld_idx(r(3), r(1), r(2), 3, 0); // buf[3]
        b.lea(r(4), r(1), r(2), 3, 0);
        b.ld(r(5), r(4), 0);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.int_reg(r(3)), 10);
        assert_eq!(m.int_reg(r(5)), 10);
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgramBuilder::new();
        let func = b.label();
        b.movi(r(1), 5);
        b.call(func);
        b.addi(r(1), r(1), 100);
        b.halt();
        b.bind(func);
        b.addi(r(1), r(1), 1);
        b.ret();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.int_reg(r(1)), 106);
    }

    #[test]
    fn fp_pipeline_math() {
        let f = FpReg::new;
        let mut b = ProgramBuilder::new();
        let data = b.add_data_f64(&[1.5, 2.5]);
        b.movi(r(1), data as i64);
        b.fld(f(1), r(1), 0);
        b.fld(f(2), r(1), 8);
        b.fadd(f(3), f(1), f(2));
        b.fmul(f(4), f(3), f(2));
        b.fdiv(f(5), f(4), f(1));
        b.fcmplt(r(2), f(1), f(2));
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.fp_reg(f(3)), 4.0);
        assert_eq!(m.fp_reg(f(4)), 10.0);
        assert!((m.fp_reg(f(5)) - 10.0 / 1.5).abs() < 1e-12);
        assert_eq!(m.int_reg(r(2)), 1);
    }

    #[test]
    fn division_by_zero_follows_riscv() {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 42);
        b.movi(r(2), 0);
        b.div(r(3), r(1), r(2));
        b.rem(r(4), r(1), r(2));
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(100).unwrap();
        assert_eq!(m.int_reg(r(3)), u64::MAX);
        assert_eq!(m.int_reg(r(4)), 42);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.jmp(top);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.run(10), Err(IsaError::StepBudgetExhausted));
    }

    #[test]
    fn step_after_halt_errors() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(10).unwrap();
        assert!(m.step().is_err());
    }

    proptest! {
        #[test]
        fn alu_ops_match_rust_semantics(a: u64, b_: u64, sh in 0u32..64) {
            let mut b = ProgramBuilder::new();
            b.movi(r(1), a as i64);
            b.movi(r(2), b_ as i64);
            b.add(r(3), r(1), r(2));
            b.sub(r(4), r(1), r(2));
            b.xor(r(5), r(1), r(2));
            b.shli(r(6), r(1), sh as i64);
            b.sltu(r(7), r(1), r(2));
            b.halt();
            let p = b.build().unwrap();
            let mut m = Machine::new(&p);
            m.run(100).unwrap();
            prop_assert_eq!(m.int_reg(r(3)), a.wrapping_add(b_));
            prop_assert_eq!(m.int_reg(r(4)), a.wrapping_sub(b_));
            prop_assert_eq!(m.int_reg(r(5)), a ^ b_);
            prop_assert_eq!(m.int_reg(r(6)), a.wrapping_shl(sh));
            prop_assert_eq!(m.int_reg(r(7)), (a < b_) as u64);
        }
    }
}
