//! Program container: instruction stream plus initial data segments.

use crate::inst::{Inst, InstClass};
use crate::IsaError;

/// An initialized region of memory: the bytes a program's data starts as.
///
/// A [`Machine`](crate::Machine) reads a segment where it lies, through a
/// borrow of its [`Program`], and never writes it: a store copies the
/// 4 KiB page it touches and writes the copy. One program can therefore
/// back any number of machines, and its segments stay the program's
/// initial data for its whole life.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSegment {
    /// Base byte address.
    pub base: u64,
    /// Contents, little-endian for multi-byte values.
    pub bytes: Vec<u8>,
}

/// A complete program: instructions (pc = instruction index) and data.
///
/// Instruction addresses are word-granular: the µ-op at index `i` occupies
/// byte addresses `[4*i, 4*i+4)` for the purposes of the I-cache and BTB
/// models.
#[derive(Clone, Debug)]
pub struct Program {
    insts: Vec<Inst>,
    data: Vec<DataSegment>,
    entry: u32,
}

impl Program {
    /// Bytes per instruction slot (used for I-cache/BTB addressing).
    pub const INST_BYTES: u64 = 4;

    /// Most static instructions a program holds: every pc fits the 16 bits
    /// a trace record stores ([`DynInst::pc`](crate::DynInst::pc)).
    pub const MAX_INSTS: usize = 1 << 16;

    /// Assembles a program from parts, validating control-flow targets.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::TextTooLong`] if there are more than
    /// [`Program::MAX_INSTS`] instructions,
    /// [`IsaError::TargetOutOfRange`] if any direct branch, jump or
    /// call targets an instruction index outside the program,
    /// [`IsaError::DataOverlap`] if two data segments overlap, and
    /// [`IsaError::DataWraps`] if one runs past `u64::MAX`.
    pub fn new(insts: Vec<Inst>, data: Vec<DataSegment>, entry: u32) -> Result<Self, IsaError> {
        if insts.len() > Self::MAX_INSTS {
            return Err(IsaError::TextTooLong { len: insts.len() });
        }
        let n = insts.len() as u32;
        if entry >= n {
            return Err(IsaError::PcOutOfRange(entry));
        }
        for (i, inst) in insts.iter().enumerate() {
            let cls = inst.class();
            let is_direct = matches!(cls, InstClass::Branch | InstClass::Jump | InstClass::Call);
            if is_direct {
                let t = inst.imm;
                if t < 0 || t as u64 >= n as u64 {
                    return Err(IsaError::TargetOutOfRange { inst: i as u32, target: t as u32 });
                }
            }
        }
        let mut spans: Vec<(u64, u64)> = data
            .iter()
            .filter(|s| !s.bytes.is_empty())
            .map(|s| {
                let end = s.base.checked_add(s.bytes.len() as u64);
                end.map(|end| (s.base, end)).ok_or(IsaError::DataWraps { base: s.base })
            })
            .collect::<Result<_, _>>()?;
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(IsaError::DataOverlap { base: w[1].0 });
            }
        }
        Ok(Program { insts, data, entry })
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn inst(&self, pc: u32) -> Option<&Inst> {
        self.insts.get(pc as usize)
    }

    /// All instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Initial data segments.
    pub fn data(&self) -> &[DataSegment] {
        &self.data
    }

    /// Entry instruction index.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Byte address of the instruction slot at `pc` (for I-cache/BTB models).
    pub fn inst_addr(pc: impl Into<u32>) -> u64 {
        u64::from(pc.into()) * Self::INST_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Opcode;

    #[test]
    fn rejects_out_of_range_branch_target() {
        let mut b = Inst::new(Opcode::Jmp);
        b.imm = 10;
        let err = Program::new(vec![b, Inst::new(Opcode::Halt)], vec![], 0).unwrap_err();
        assert!(matches!(err, IsaError::TargetOutOfRange { inst: 0, target: 10 }));
    }

    #[test]
    fn rejects_overlapping_data() {
        let insts = vec![Inst::new(Opcode::Halt)];
        let d1 = DataSegment { base: 100, bytes: vec![0; 10] };
        let d2 = DataSegment { base: 105, bytes: vec![0; 10] };
        let err = Program::new(insts, vec![d1, d2], 0).unwrap_err();
        assert!(matches!(err, IsaError::DataOverlap { base: 105 }));
    }

    #[test]
    fn rejects_data_past_the_top_of_memory() {
        let insts = vec![Inst::new(Opcode::Halt)];
        let d = DataSegment { base: u64::MAX - 3, bytes: vec![0; 8] };
        let err = Program::new(insts, vec![d], 0).unwrap_err();
        assert!(matches!(err, IsaError::DataWraps { base } if base == u64::MAX - 3));
    }

    #[test]
    fn accepts_adjacent_data() {
        let insts = vec![Inst::new(Opcode::Halt)];
        let d1 = DataSegment { base: 100, bytes: vec![0; 10] };
        let d2 = DataSegment { base: 110, bytes: vec![0; 10] };
        assert!(Program::new(insts, vec![d1, d2], 0).is_ok());
    }

    #[test]
    fn inst_addresses_are_word_spaced() {
        assert_eq!(Program::inst_addr(0u32), 0);
        assert_eq!(Program::inst_addr(16u16), 64); // 16 µ-ops per 64 B cache line
        assert_eq!(Program::inst_addr(u16::MAX), 4 * 65_535);
    }

    #[test]
    fn entry_must_be_in_range() {
        let err = Program::new(vec![Inst::new(Opcode::Halt)], vec![], 5).unwrap_err();
        assert!(matches!(err, IsaError::PcOutOfRange(5)));
    }
}
