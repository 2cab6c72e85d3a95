//! Instruction definition: opcodes, operand shapes and timing classes.
//!
//! Every instruction is one micro-op. The timing model cares about the
//! [`InstClass`] (which functional-unit pool and latency it uses) and about a
//! handful of predicates: whether a µ-op is *value-prediction eligible*
//! (writes a register readable by a later µ-op — the paper's §4.2 rule) and
//! whether it is a *single-cycle ALU* µ-op (the only kind Early/Late
//! Execution handles, §3.2–3.3).

use crate::reg::ArchReg;

/// Operation code. Grouped by timing class; see [`Opcode::class`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    // ---- single-cycle integer ALU -------------------------------------
    /// `dst = src1 + src2`
    Add,
    /// `dst = src1 - src2`
    Sub,
    /// `dst = src1 & src2`
    And,
    /// `dst = src1 | src2`
    Or,
    /// `dst = src1 ^ src2`
    Xor,
    /// `dst = src1 << (src2 & 63)`
    Shl,
    /// `dst = src1 >> (src2 & 63)` (logical)
    Shr,
    /// `dst = ((src1 as i64) >> (src2 & 63)) as u64` (arithmetic)
    Sar,
    /// `dst = (src1 as i64) < (src2 as i64)`
    Slt,
    /// `dst = src1 < src2` (unsigned)
    Sltu,
    /// `dst = src1 + imm`
    AddI,
    /// `dst = src1 - imm`
    SubI,
    /// `dst = src1 & imm`
    AndI,
    /// `dst = src1 | imm`
    OrI,
    /// `dst = src1 ^ imm`
    XorI,
    /// `dst = src1 << (imm & 63)`
    ShlI,
    /// `dst = src1 >> (imm & 63)` (logical)
    ShrI,
    /// `dst = ((src1 as i64) >> (imm & 63)) as u64`
    SarI,
    /// `dst = (src1 as i64) < imm`
    SltI,
    /// `dst = imm`
    MovI,
    /// `dst = src1`
    Mov,
    /// `dst = src1 + (src2 << aux) + imm` — x86-style address generation.
    Lea,

    // ---- integer multiply / divide ------------------------------------
    /// `dst = src1 * src2` (low 64 bits), 3-cycle pipelined.
    Mul,
    /// `dst = src1 / src2` signed (RISC-V semantics on zero), 25-cycle unpipelined.
    Div,
    /// `dst = src1 % src2` signed, 25-cycle unpipelined.
    Rem,

    // ---- floating point (operands are f64 bit patterns) ---------------
    /// `dst = src1 + src2`, 3-cycle.
    Fadd,
    /// `dst = src1 - src2`, 3-cycle.
    Fsub,
    /// `dst = src1 * src2`, 5-cycle.
    Fmul,
    /// `dst = src1 / src2`, 10-cycle unpipelined.
    Fdiv,
    /// `dst = (src1 as f64 comparison src2) ? 1 : 0` into an *int* reg, 3-cycle.
    FcmpLt,
    /// Integer → double conversion, 3-cycle.
    Fcvti2f,
    /// Double → integer (truncating) conversion, 3-cycle.
    Fcvtf2i,
    /// FP move, 3-cycle (runs on the FP pool).
    Fmov,

    // ---- memory --------------------------------------------------------
    /// `dst = mem64[src1 + imm]`
    Ld,
    /// `dst = zext(mem32[src1 + imm])`
    Ld32,
    /// `dst = zext(mem16[src1 + imm])`
    Ld16,
    /// `dst = zext(mem8[src1 + imm])`
    Ld8,
    /// `dst = mem64[src1 + (src2 << aux) + imm]` — indexed load.
    LdIdx,
    /// `fdst = mem64[src1 + imm]` — FP load.
    Fld,
    /// `mem64[src1 + imm] = src2`
    St,
    /// `mem32[src1 + imm] = src2 (low 32)`
    St32,
    /// `mem16[src1 + imm] = src2 (low 16)`
    St16,
    /// `mem8[src1 + imm] = src2 (low 8)`
    St8,
    /// `mem64[src1 + imm] = fsrc2` — FP store.
    Fst,

    // ---- control flow ---------------------------------------------------
    /// Branch to `imm` if `src1 == src2`.
    Beq,
    /// Branch to `imm` if `src1 != src2`.
    Bne,
    /// Branch to `imm` if `(src1 as i64) < (src2 as i64)`.
    Blt,
    /// Branch to `imm` if `(src1 as i64) >= (src2 as i64)`.
    Bge,
    /// Branch to `imm` if `src1 < src2` (unsigned).
    Bltu,
    /// Branch to `imm` if `src1 >= src2` (unsigned).
    Bgeu,
    /// Unconditional direct jump to `imm`.
    Jmp,
    /// Indirect jump to the instruction index in `src1` (switch tables).
    JmpR,
    /// Direct call to `imm`; writes return address (pc+1) to `r31`.
    Call,
    /// Indirect call via `src1`; writes return address to `r31`.
    CallR,
    /// Return: jump to the address in `src1` (conventionally `r31`).
    Ret,
    /// Stop the machine.
    Halt,
}

/// Timing class: selects the functional-unit pool and latency in the core
/// model (Table 1 of the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Single-cycle integer ALU — the only class eligible for Early/Late
    /// Execution.
    IntAlu,
    /// Pipelined 3-cycle integer multiply.
    IntMul,
    /// Unpipelined 25-cycle integer divide.
    IntDiv,
    /// 3-cycle FP add/sub/convert/compare/move pool.
    FpAlu,
    /// 5-cycle FP multiply.
    FpMul,
    /// Unpipelined 10-cycle FP divide.
    FpDiv,
    /// Memory load (address generation + cache access).
    Load,
    /// Memory store (address generation; data drains at commit).
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump (predicted via BTB).
    JumpIndirect,
    /// Direct call (pushes the return-address stack).
    Call,
    /// Indirect call.
    CallIndirect,
    /// Return (pops the return-address stack).
    Return,
    /// Machine stop.
    Halt,
}

impl Opcode {
    /// The timing class of this opcode.
    pub fn class(self) -> InstClass {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Shl | Shr | Sar | Slt | Sltu | AddI | SubI | AndI
            | OrI | XorI | ShlI | ShrI | SarI | SltI | MovI | Mov | Lea => InstClass::IntAlu,
            Mul => InstClass::IntMul,
            Div | Rem => InstClass::IntDiv,
            Fadd | Fsub | FcmpLt | Fcvti2f | Fcvtf2i | Fmov => InstClass::FpAlu,
            Fmul => InstClass::FpMul,
            Fdiv => InstClass::FpDiv,
            Ld | Ld32 | Ld16 | Ld8 | LdIdx | Fld => InstClass::Load,
            St | St32 | St16 | St8 | Fst => InstClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => InstClass::Branch,
            Jmp => InstClass::Jump,
            JmpR => InstClass::JumpIndirect,
            Call => InstClass::Call,
            CallR => InstClass::CallIndirect,
            Ret => InstClass::Return,
            Halt => InstClass::Halt,
        }
    }

    /// Bytes a load or store accesses; 0 for every other opcode.
    pub(crate) fn access_size(self) -> u8 {
        use Opcode::*;
        match self {
            Ld | LdIdx | Fld | St | Fst => 8,
            Ld32 | St32 => 4,
            Ld16 | St16 => 2,
            Ld8 | St8 => 1,
            _ => 0,
        }
    }
}

impl InstClass {
    /// True for classes that redirect control flow.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            InstClass::Branch
                | InstClass::Jump
                | InstClass::JumpIndirect
                | InstClass::Call
                | InstClass::CallIndirect
                | InstClass::Return
        )
    }

    /// True for memory operations.
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }
}

/// One decoded instruction / micro-op.
///
/// Operand usage depends on the opcode; unused fields are `None`/0. `aux`
/// holds the shift amount for `Lea`/`LdIdx` scaled addressing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Inst {
    /// Operation.
    pub op: Opcode,
    /// Destination register, if the µ-op writes one.
    pub dst: Option<ArchReg>,
    /// First source register.
    pub src1: Option<ArchReg>,
    /// Second source register.
    pub src2: Option<ArchReg>,
    /// Immediate: ALU immediate, memory displacement, or control-flow target
    /// (an instruction index for direct branches/jumps/calls).
    pub imm: i64,
    /// Scale shift for `Lea`/`LdIdx` (0–4).
    pub aux: u8,
}

impl Inst {
    /// Creates an instruction with no operands set (used by the builder).
    pub fn new(op: Opcode) -> Self {
        Inst { op, dst: None, src1: None, src2: None, imm: 0, aux: 0 }
    }

    /// The timing class.
    pub fn class(&self) -> InstClass {
        self.op.class()
    }

    /// The value an integer or FP µ-op computes from its source values
    /// (`s1`, `s2`, read as 0 when absent) and its immediate; `None` for
    /// loads, stores and control flow, whose effects need machine state.
    /// Division by zero follows RISC-V (quotient all ones, remainder the
    /// dividend), so no µ-op traps.
    pub fn eval(&self, s1: u64, s2: u64) -> Option<u64> {
        use Opcode::*;
        let imm = self.imm as u64;
        let f = f64::from_bits;
        Some(match self.op {
            Add => s1.wrapping_add(s2),
            Sub => s1.wrapping_sub(s2),
            And => s1 & s2,
            Or => s1 | s2,
            Xor => s1 ^ s2,
            Shl => s1.wrapping_shl((s2 & 63) as u32),
            Shr => s1.wrapping_shr((s2 & 63) as u32),
            Sar => (s1 as i64).wrapping_shr((s2 & 63) as u32) as u64,
            Slt => ((s1 as i64) < (s2 as i64)) as u64,
            Sltu => (s1 < s2) as u64,
            AddI => s1.wrapping_add(imm),
            SubI => s1.wrapping_sub(imm),
            AndI => s1 & imm,
            OrI => s1 | imm,
            XorI => s1 ^ imm,
            ShlI => s1.wrapping_shl((imm & 63) as u32),
            ShrI => s1.wrapping_shr((imm & 63) as u32),
            SarI => (s1 as i64).wrapping_shr((imm & 63) as u32) as u64,
            SltI => ((s1 as i64) < self.imm) as u64,
            MovI => imm,
            Mov | Fmov => s1,
            Lea => self.effective_addr(s1, s2),
            Mul => s1.wrapping_mul(s2),
            Div => match (s1 as i64, s2 as i64) {
                (_, 0) => u64::MAX,
                (a, -1) if a == i64::MIN => a as u64,
                (a, b) => (a / b) as u64,
            },
            Rem => match (s1 as i64, s2 as i64) {
                (a, 0) => a as u64,
                (a, -1) if a == i64::MIN => 0,
                (a, b) => (a % b) as u64,
            },
            Fadd => (f(s1) + f(s2)).to_bits(),
            Fsub => (f(s1) - f(s2)).to_bits(),
            Fmul => (f(s1) * f(s2)).to_bits(),
            Fdiv => (f(s1) / f(s2)).to_bits(),
            FcmpLt => (f(s1) < f(s2)) as u64,
            Fcvti2f => ((s1 as i64) as f64).to_bits(),
            // `as` saturates out-of-range values; NaN converts to 0.
            Fcvtf2i => f(s1) as i64 as u64,
            Ld | Ld32 | Ld16 | Ld8 | LdIdx | Fld | St | St32 | St16 | St8 | Fst | Beq | Bne
            | Blt | Bge | Bltu | Bgeu | Jmp | JmpR | Call | CallR | Ret | Halt => return None,
        })
    }

    /// The address a load or store accesses, and the value `Lea` computes:
    /// `src1 + imm`, plus the scaled index `src2 << aux` for `Lea` and
    /// `LdIdx` (a store's `src2` is its data, not an index).
    pub(crate) fn effective_addr(&self, s1: u64, s2: u64) -> u64 {
        let base = s1.wrapping_add(self.imm as u64);
        match self.op {
            Opcode::Lea | Opcode::LdIdx => base.wrapping_add(s2.wrapping_shl(self.aux as u32)),
            _ => base,
        }
    }

    /// Value-prediction eligibility per the paper's §4.2: the µ-op produces
    /// a ≤64-bit register value readable by a subsequent µ-op. Call link
    /// writes are excluded (return addresses are handled by the RAS, and
    /// predicting them through the value predictor would double-count).
    pub fn is_vp_eligible(&self) -> bool {
        self.dst.is_some()
            && !matches!(self.class(), InstClass::Call | InstClass::CallIndirect)
    }

    /// True for single-cycle integer-ALU µ-ops — the only µ-ops Early and
    /// Late Execution are allowed to execute (§3.2: "it seems necessary to
    /// limit Early Execution to single-cycle ALU instructions").
    pub fn is_single_cycle_alu(&self) -> bool {
        self.class() == InstClass::IntAlu
    }

    /// True if this is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        self.class() == InstClass::Branch
    }

    /// Source registers actually read by this µ-op, in operand order.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        [self.src1, self.src2].into_iter().flatten()
    }

    /// Number of register sources.
    pub fn num_sources(&self) -> usize {
        self.src1.is_some() as usize + self.src2.is_some() as usize
    }

    /// True if the µ-op carries an immediate operand that participates in
    /// the computation (ALU immediates and address displacements — *not*
    /// branch targets).
    pub fn has_value_imm(&self) -> bool {
        use Opcode::*;
        matches!(
            self.op,
            AddI | SubI | AndI | OrI | XorI | ShlI | ShrI | SarI | SltI | MovI | Lea | Ld | Ld32
                | Ld16 | Ld8 | LdIdx | Fld | St | St32 | St16 | St8 | Fst
        )
    }
}

impl std::fmt::Display for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        if let Some(s) = self.src1 {
            write!(f, " {s}")?;
        }
        if let Some(s) = self.src2 {
            write!(f, " {s}")?;
        }
        if self.imm != 0 || self.has_value_imm() || self.class().is_control() {
            write!(f, " #{}", self.imm)?;
        }
        if self.aux != 0 {
            write!(f, " <<{}", self.aux)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{FpReg, IntReg};

    fn reg(i: u8) -> ArchReg {
        ArchReg::int(IntReg::new(i))
    }

    #[test]
    fn classes_match_pools() {
        assert_eq!(Opcode::Add.class(), InstClass::IntAlu);
        assert_eq!(Opcode::Lea.class(), InstClass::IntAlu);
        assert_eq!(Opcode::Mul.class(), InstClass::IntMul);
        assert_eq!(Opcode::Div.class(), InstClass::IntDiv);
        assert_eq!(Opcode::Fadd.class(), InstClass::FpAlu);
        assert_eq!(Opcode::Fmul.class(), InstClass::FpMul);
        assert_eq!(Opcode::Fdiv.class(), InstClass::FpDiv);
        assert_eq!(Opcode::LdIdx.class(), InstClass::Load);
        assert_eq!(Opcode::Fst.class(), InstClass::Store);
        assert_eq!(Opcode::Beq.class(), InstClass::Branch);
        assert_eq!(Opcode::Ret.class(), InstClass::Return);
    }

    #[test]
    fn vp_eligibility_follows_the_paper_rule() {
        // ALU op with a destination: eligible.
        let mut add = Inst::new(Opcode::Add);
        add.dst = Some(reg(1));
        assert!(add.is_vp_eligible());

        // Loads (incl. FP): eligible.
        let mut fld = Inst::new(Opcode::Fld);
        fld.dst = Some(ArchReg::fp(FpReg::new(2)));
        assert!(fld.is_vp_eligible());

        // Stores and branches produce no readable register: ineligible.
        assert!(!Inst::new(Opcode::St).is_vp_eligible());
        assert!(!Inst::new(Opcode::Beq).is_vp_eligible());

        // Calls write the link register but are excluded explicitly.
        let mut call = Inst::new(Opcode::Call);
        call.dst = Some(reg(31));
        assert!(!call.is_vp_eligible());
    }

    #[test]
    fn single_cycle_alu_excludes_muldiv_fp_mem() {
        assert!(Inst::new(Opcode::Add).is_single_cycle_alu());
        assert!(Inst::new(Opcode::MovI).is_single_cycle_alu());
        assert!(!Inst::new(Opcode::Mul).is_single_cycle_alu());
        assert!(!Inst::new(Opcode::Fadd).is_single_cycle_alu());
        assert!(!Inst::new(Opcode::Ld).is_single_cycle_alu());
    }

    #[test]
    fn eval_leaves_memory_and_control_to_the_machine() {
        let mut lea = Inst::new(Opcode::Lea);
        (lea.imm, lea.aux) = (4, 3);
        assert_eq!(lea.eval(100, 2), Some(120));
        assert_eq!(Inst::new(Opcode::Fcvtf2i).eval(f64::NAN.to_bits(), 0), Some(0));
        for op in [Opcode::LdIdx, Opcode::St8, Opcode::Beq, Opcode::Call, Opcode::Halt] {
            assert_eq!(Inst::new(op).eval(1, 2), None);
        }
        let sizes = [Opcode::Fld, Opcode::Ld32, Opcode::St16, Opcode::St8, Opcode::Lea];
        assert_eq!(sizes.map(Opcode::access_size), [8, 4, 2, 1, 0]);
    }

    #[test]
    fn sources_iterates_in_order() {
        let mut i = Inst::new(Opcode::Add);
        i.src1 = Some(reg(3));
        i.src2 = Some(reg(4));
        let v: Vec<_> = i.sources().collect();
        assert_eq!(v, vec![reg(3), reg(4)]);
        assert_eq!(i.num_sources(), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let mut i = Inst::new(Opcode::AddI);
        i.dst = Some(reg(1));
        i.src1 = Some(reg(2));
        i.imm = 5;
        let s = i.to_string();
        assert!(s.contains("AddI") && s.contains("r1") && s.contains("#5"));
    }
}
