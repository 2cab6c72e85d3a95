//! Assembler-style program builder with labels and data allocation.
//!
//! Workload kernels author programs through this API. Labels are forward-
//! referencable; `build` resolves them and validates the program.
//!
//! Register conventions used by the builder's convenience forms:
//! * `r31` — link register (written by `call`, read by `ret`);
//! * `r30` — assembler scratch, clobbered by the `*_imm` branch forms.

use crate::inst::{Inst, Opcode};
use crate::program::{DataSegment, Program};
use crate::reg::{ArchReg, FpReg, IntReg};
use crate::IsaError;

/// A control-flow label; create with [`ProgramBuilder::label`], place with
/// [`ProgramBuilder::bind`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builder for [`Program`]s.
///
/// # Example
///
/// ```
/// use eole_isa::{ProgramBuilder, IntReg};
///
/// # fn main() -> Result<(), eole_isa::IsaError> {
/// let mut b = ProgramBuilder::new();
/// let r1 = IntReg::new(1);
/// b.movi(r1, 41);
/// b.addi(r1, r1, 1);
/// b.halt();
/// let program = b.build()?;
/// assert_eq!(program.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    labels: Vec<Option<u32>>,
    fixups: Vec<(usize, Label)>,
    data: Vec<DataSegment>,
    data_cursor: u64,
}

/// Default base address for auto-allocated data.
const DATA_BASE: u64 = 0x1000_0000;
/// Alignment of auto-allocated data blocks.
const DATA_ALIGN: u64 = 64;

impl ProgramBuilder {
    /// Scratch register clobbered by `*_imm` branch conveniences.
    pub const SCRATCH: IntReg = IntReg::SCRATCH;

    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder { data_cursor: DATA_BASE, ..Default::default() }
    }

    /// Current instruction index (the pc the next emitted µ-op will get).
    pub fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.here());
    }

    /// Allocates an auto-addressed data segment and returns its base.
    pub fn add_data(&mut self, bytes: Vec<u8>) -> u64 {
        let base = self.data_cursor;
        let len = bytes.len() as u64;
        self.data.push(DataSegment { base, bytes });
        self.data_cursor = (base + len + DATA_ALIGN - 1) & !(DATA_ALIGN - 1);
        base
    }

    /// Allocates `words` little-endian u64 values as a data segment.
    pub fn add_data_u64(&mut self, words: &[u64]) -> u64 {
        self.add_le_words(words.len(), words.iter().copied())
    }

    /// Allocates `values` f64 values (as their bit patterns) as a data segment.
    pub fn add_data_f64(&mut self, values: &[f64]) -> u64 {
        self.add_le_words(values.len(), values.iter().map(|v| v.to_bits()))
    }

    /// Allocates `n` words, encoded little-endian straight into the segment.
    fn add_le_words(&mut self, n: usize, words: impl Iterator<Item = u64>) -> u64 {
        let mut bytes = Vec::with_capacity(n * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.add_data(bytes)
    }

    /// Reserves `len` zeroed bytes of address space (no segment is stored —
    /// unwritten memory reads as zero) and returns the base address.
    pub fn alloc_zeroed(&mut self, len: u64) -> u64 {
        let base = self.data_cursor;
        self.data_cursor = (base + len + DATA_ALIGN - 1) & !(DATA_ALIGN - 1);
        base
    }

    fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    fn push_target(&mut self, mut inst: Inst, target: Label) {
        self.fixups.push((self.insts.len(), target));
        inst.imm = 0;
        self.insts.push(inst);
    }

    fn rrr(&mut self, op: Opcode, dst: IntReg, a: IntReg, b: IntReg) {
        let mut i = Inst::new(op);
        i.dst = Some(dst.into());
        i.src1 = Some(a.into());
        i.src2 = Some(b.into());
        self.push(i);
    }

    fn rri(&mut self, op: Opcode, dst: IntReg, a: IntReg, imm: i64) {
        let mut i = Inst::new(op);
        i.dst = Some(dst.into());
        i.src1 = Some(a.into());
        i.imm = imm;
        self.push(i);
    }

    // ---- integer ALU ---------------------------------------------------

    /// `dst = a + b`
    pub fn add(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Add, dst, a, b);
    }
    /// `dst = a - b`
    pub fn sub(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Sub, dst, a, b);
    }
    /// `dst = a & b`
    pub fn and(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::And, dst, a, b);
    }
    /// `dst = a | b`
    pub fn or(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Or, dst, a, b);
    }
    /// `dst = a ^ b`
    pub fn xor(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Xor, dst, a, b);
    }
    /// `dst = a << (b & 63)`
    pub fn shl(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Shl, dst, a, b);
    }
    /// `dst = a >> (b & 63)` (logical)
    pub fn shr(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Shr, dst, a, b);
    }
    /// `dst = (a as i64) >> (b & 63)`
    pub fn sar(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Sar, dst, a, b);
    }
    /// `dst = (a as i64) < (b as i64)`
    pub fn slt(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Slt, dst, a, b);
    }
    /// `dst = a < b` (unsigned)
    pub fn sltu(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Sltu, dst, a, b);
    }
    /// `dst = a + imm`
    pub fn addi(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::AddI, dst, a, imm);
    }
    /// `dst = a - imm`
    pub fn subi(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::SubI, dst, a, imm);
    }
    /// `dst = a & imm`
    pub fn andi(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::AndI, dst, a, imm);
    }
    /// `dst = a | imm`
    pub fn ori(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::OrI, dst, a, imm);
    }
    /// `dst = a ^ imm`
    pub fn xori(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::XorI, dst, a, imm);
    }
    /// `dst = a << imm`
    pub fn shli(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::ShlI, dst, a, imm);
    }
    /// `dst = a >> imm` (logical)
    pub fn shri(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::ShrI, dst, a, imm);
    }
    /// `dst = (a as i64) >> imm`
    pub fn sari(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::SarI, dst, a, imm);
    }
    /// `dst = (a as i64) < imm`
    pub fn slti(&mut self, dst: IntReg, a: IntReg, imm: i64) {
        self.rri(Opcode::SltI, dst, a, imm);
    }
    /// `dst = imm`
    pub fn movi(&mut self, dst: IntReg, imm: i64) {
        let mut i = Inst::new(Opcode::MovI);
        i.dst = Some(dst.into());
        i.imm = imm;
        self.push(i);
    }
    /// `dst = a`
    pub fn mov(&mut self, dst: IntReg, a: IntReg) {
        let mut i = Inst::new(Opcode::Mov);
        i.dst = Some(dst.into());
        i.src1 = Some(a.into());
        self.push(i);
    }
    /// `dst = base + (index << scale) + disp`
    pub fn lea(&mut self, dst: IntReg, base: IntReg, index: IntReg, scale: u8, disp: i64) {
        let mut i = Inst::new(Opcode::Lea);
        i.dst = Some(dst.into());
        i.src1 = Some(base.into());
        i.src2 = Some(index.into());
        i.imm = disp;
        i.aux = scale;
        self.push(i);
    }

    // ---- integer multiply / divide --------------------------------------

    /// `dst = a * b` (low 64 bits)
    pub fn mul(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Mul, dst, a, b);
    }
    /// `dst = a / b` (signed; RISC-V semantics on division by zero)
    pub fn div(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Div, dst, a, b);
    }
    /// `dst = a % b` (signed)
    pub fn rem(&mut self, dst: IntReg, a: IntReg, b: IntReg) {
        self.rrr(Opcode::Rem, dst, a, b);
    }

    // ---- floating point --------------------------------------------------

    fn fff(&mut self, op: Opcode, dst: FpReg, a: FpReg, b: FpReg) {
        let mut i = Inst::new(op);
        i.dst = Some(dst.into());
        i.src1 = Some(a.into());
        i.src2 = Some(b.into());
        self.push(i);
    }

    /// `dst = a + b`
    pub fn fadd(&mut self, dst: FpReg, a: FpReg, b: FpReg) {
        self.fff(Opcode::Fadd, dst, a, b);
    }
    /// `dst = a - b`
    pub fn fsub(&mut self, dst: FpReg, a: FpReg, b: FpReg) {
        self.fff(Opcode::Fsub, dst, a, b);
    }
    /// `dst = a * b`
    pub fn fmul(&mut self, dst: FpReg, a: FpReg, b: FpReg) {
        self.fff(Opcode::Fmul, dst, a, b);
    }
    /// `dst = a / b`
    pub fn fdiv(&mut self, dst: FpReg, a: FpReg, b: FpReg) {
        self.fff(Opcode::Fdiv, dst, a, b);
    }
    /// `dst = (a < b) ? 1 : 0` — FP compare into an integer register.
    pub fn fcmplt(&mut self, dst: IntReg, a: FpReg, b: FpReg) {
        let mut i = Inst::new(Opcode::FcmpLt);
        i.dst = Some(dst.into());
        i.src1 = Some(a.into());
        i.src2 = Some(b.into());
        self.push(i);
    }
    /// `dst = a as f64` — integer to double.
    pub fn fcvti2f(&mut self, dst: FpReg, a: IntReg) {
        let mut i = Inst::new(Opcode::Fcvti2f);
        i.dst = Some(dst.into());
        i.src1 = Some(a.into());
        self.push(i);
    }
    /// `dst = a as i64` — double to integer (truncating).
    pub fn fcvtf2i(&mut self, dst: IntReg, a: FpReg) {
        let mut i = Inst::new(Opcode::Fcvtf2i);
        i.dst = Some(dst.into());
        i.src1 = Some(a.into());
        self.push(i);
    }
    /// `dst = a` — FP register move.
    pub fn fmov(&mut self, dst: FpReg, a: FpReg) {
        let mut i = Inst::new(Opcode::Fmov);
        i.dst = Some(dst.into());
        i.src1 = Some(a.into());
        self.push(i);
    }

    // ---- memory ------------------------------------------------------------

    fn load(&mut self, op: Opcode, dst: ArchReg, base: IntReg, disp: i64) {
        let mut i = Inst::new(op);
        i.dst = Some(dst);
        i.src1 = Some(base.into());
        i.imm = disp;
        self.push(i);
    }

    /// `dst = mem64[base + disp]`
    pub fn ld(&mut self, dst: IntReg, base: IntReg, disp: i64) {
        self.load(Opcode::Ld, dst.into(), base, disp);
    }
    /// `dst = zext(mem32[base + disp])`
    pub fn ld32(&mut self, dst: IntReg, base: IntReg, disp: i64) {
        self.load(Opcode::Ld32, dst.into(), base, disp);
    }
    /// `dst = zext(mem16[base + disp])`
    pub fn ld16(&mut self, dst: IntReg, base: IntReg, disp: i64) {
        self.load(Opcode::Ld16, dst.into(), base, disp);
    }
    /// `dst = zext(mem8[base + disp])`
    pub fn ld8(&mut self, dst: IntReg, base: IntReg, disp: i64) {
        self.load(Opcode::Ld8, dst.into(), base, disp);
    }
    /// `dst = mem64[base + (index << scale) + disp]`
    pub fn ld_idx(&mut self, dst: IntReg, base: IntReg, index: IntReg, scale: u8, disp: i64) {
        let mut i = Inst::new(Opcode::LdIdx);
        i.dst = Some(dst.into());
        i.src1 = Some(base.into());
        i.src2 = Some(index.into());
        i.imm = disp;
        i.aux = scale;
        self.push(i);
    }
    /// `dst = mem64[base + disp]` — FP load.
    pub fn fld(&mut self, dst: FpReg, base: IntReg, disp: i64) {
        self.load(Opcode::Fld, dst.into(), base, disp);
    }

    fn store(&mut self, op: Opcode, base: IntReg, disp: i64, data: ArchReg) {
        let mut i = Inst::new(op);
        i.src1 = Some(base.into());
        i.src2 = Some(data);
        i.imm = disp;
        self.push(i);
    }

    /// `mem64[base + disp] = data`
    pub fn st(&mut self, base: IntReg, disp: i64, data: IntReg) {
        self.store(Opcode::St, base, disp, data.into());
    }
    /// `mem32[base + disp] = data`
    pub fn st32(&mut self, base: IntReg, disp: i64, data: IntReg) {
        self.store(Opcode::St32, base, disp, data.into());
    }
    /// `mem16[base + disp] = data`
    pub fn st16(&mut self, base: IntReg, disp: i64, data: IntReg) {
        self.store(Opcode::St16, base, disp, data.into());
    }
    /// `mem8[base + disp] = data`
    pub fn st8(&mut self, base: IntReg, disp: i64, data: IntReg) {
        self.store(Opcode::St8, base, disp, data.into());
    }
    /// `mem64[base + disp] = data` — FP store.
    pub fn fst(&mut self, base: IntReg, disp: i64, data: FpReg) {
        self.store(Opcode::Fst, base, disp, data.into());
    }

    // ---- control flow --------------------------------------------------------

    fn branch(&mut self, op: Opcode, a: IntReg, b: IntReg, target: Label) {
        let mut i = Inst::new(op);
        i.src1 = Some(a.into());
        i.src2 = Some(b.into());
        self.push_target(i, target);
    }

    /// Branch if `a == b`.
    pub fn beq(&mut self, a: IntReg, b: IntReg, target: Label) {
        self.branch(Opcode::Beq, a, b, target);
    }
    /// Branch if `a != b`.
    pub fn bne(&mut self, a: IntReg, b: IntReg, target: Label) {
        self.branch(Opcode::Bne, a, b, target);
    }
    /// Branch if `(a as i64) < (b as i64)`.
    pub fn blt(&mut self, a: IntReg, b: IntReg, target: Label) {
        self.branch(Opcode::Blt, a, b, target);
    }
    /// Branch if `(a as i64) >= (b as i64)`.
    pub fn bge(&mut self, a: IntReg, b: IntReg, target: Label) {
        self.branch(Opcode::Bge, a, b, target);
    }
    /// Branch if `a < b` (unsigned).
    pub fn bltu(&mut self, a: IntReg, b: IntReg, target: Label) {
        self.branch(Opcode::Bltu, a, b, target);
    }
    /// Branch if `a >= b` (unsigned).
    pub fn bgeu(&mut self, a: IntReg, b: IntReg, target: Label) {
        self.branch(Opcode::Bgeu, a, b, target);
    }

    /// Branch if `a == imm` (clobbers the scratch register `r30`).
    pub fn beq_imm(&mut self, a: IntReg, imm: i64, target: Label) {
        self.movi(Self::SCRATCH, imm);
        self.beq(a, Self::SCRATCH, target);
    }
    /// Branch if `a != imm` (clobbers the scratch register `r30`).
    pub fn bne_imm(&mut self, a: IntReg, imm: i64, target: Label) {
        self.movi(Self::SCRATCH, imm);
        self.bne(a, Self::SCRATCH, target);
    }
    /// Branch if `(a as i64) < imm` (clobbers the scratch register `r30`).
    pub fn blt_imm(&mut self, a: IntReg, imm: i64, target: Label) {
        self.movi(Self::SCRATCH, imm);
        self.blt(a, Self::SCRATCH, target);
    }
    /// Branch if `(a as i64) >= imm` (clobbers the scratch register `r30`).
    pub fn bge_imm(&mut self, a: IntReg, imm: i64, target: Label) {
        self.movi(Self::SCRATCH, imm);
        self.bge(a, Self::SCRATCH, target);
    }

    /// Unconditional jump.
    pub fn jmp(&mut self, target: Label) {
        self.push_target(Inst::new(Opcode::Jmp), target);
    }
    /// Indirect jump to the instruction index in `a`.
    pub fn jmp_r(&mut self, a: IntReg) {
        let mut i = Inst::new(Opcode::JmpR);
        i.src1 = Some(a.into());
        self.push(i);
    }
    /// Direct call; the return address (pc+1) is written to `r31`.
    pub fn call(&mut self, target: Label) {
        let mut i = Inst::new(Opcode::Call);
        i.dst = Some(IntReg::LINK.into());
        self.push_target(i, target);
    }
    /// Indirect call via `a`; the return address is written to `r31`.
    pub fn call_r(&mut self, a: IntReg) {
        let mut i = Inst::new(Opcode::CallR);
        i.dst = Some(IntReg::LINK.into());
        i.src1 = Some(a.into());
        self.push(i);
    }
    /// Return through `r31`.
    pub fn ret(&mut self) {
        let mut i = Inst::new(Opcode::Ret);
        i.src1 = Some(IntReg::LINK.into());
        self.push(i);
    }
    /// Return through an explicit register.
    pub fn ret_via(&mut self, a: IntReg) {
        let mut i = Inst::new(Opcode::Ret);
        i.src1 = Some(a.into());
        self.push(i);
    }
    /// Stop the machine.
    pub fn halt(&mut self) {
        self.push(Inst::new(Opcode::Halt));
    }

    /// Resolves labels and produces a validated [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnboundLabel`] if a referenced label was never
    /// bound, plus any validation error from [`Program::new`].
    pub fn build(mut self) -> Result<Program, IsaError> {
        for (idx, label) in &self.fixups {
            let pos = self.labels[label.0].ok_or(IsaError::UnboundLabel(label.0))?;
            self.insts[*idx].imm = pos as i64;
        }
        Program::new(self.insts, self.data, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstClass;

    #[test]
    fn forward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        let r1 = IntReg::new(1);
        let end = b.label();
        b.movi(r1, 0);
        b.jmp(end);
        b.addi(r1, r1, 99); // skipped
        b.bind(end);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.inst(1).unwrap().imm, 3);
    }

    #[test]
    fn text_longer_than_a_16_bit_pc_is_an_error() {
        let straight_line = |len: usize| {
            let mut b = ProgramBuilder::new();
            for _ in 1..len {
                b.movi(IntReg::new(1), 0);
            }
            b.halt();
            b.build()
        };
        assert_eq!(straight_line(65_536).unwrap().len(), Program::MAX_INSTS);
        assert_eq!(straight_line(65_537).unwrap_err(), IsaError::TextTooLong { len: 65_537 });
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jmp(l);
        b.halt();
        assert!(matches!(b.build(), Err(IsaError::UnboundLabel(_))));
    }

    #[test]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.bind(l)));
        assert!(r.is_err());
    }

    #[test]
    fn data_allocation_is_aligned_and_disjoint() {
        let mut b = ProgramBuilder::new();
        let a = b.add_data(vec![1, 2, 3]);
        let c = b.add_data_u64(&[42]);
        let z = b.alloc_zeroed(100);
        assert_eq!(a % 64, 0);
        assert!(c >= a + 3);
        assert_eq!(c % 64, 0);
        assert!(z >= c + 8);
        b.halt();
        assert!(b.build().is_ok());
    }

    #[test]
    fn imm_branches_use_scratch() {
        let mut b = ProgramBuilder::new();
        let r1 = IntReg::new(1);
        let top = b.label();
        b.bind(top);
        b.bne_imm(r1, 7, top);
        b.halt();
        let p = b.build().unwrap();
        // movi scratch, 7 ; bne r1, scratch -> 2 µ-ops + halt
        assert_eq!(p.len(), 3);
        assert_eq!(p.inst(0).unwrap().dst, Some(ProgramBuilder::SCRATCH.into()));
        assert_eq!(p.inst(1).unwrap().class(), InstClass::Branch);
    }

    #[test]
    fn call_writes_link_register() {
        let mut b = ProgramBuilder::new();
        let f = b.label();
        b.call(f);
        b.halt();
        b.bind(f);
        b.ret();
        let p = b.build().unwrap();
        assert_eq!(p.inst(0).unwrap().dst, Some(IntReg::LINK.into()));
        assert_eq!(p.inst(2).unwrap().src1, Some(IntReg::LINK.into()));
    }
}
