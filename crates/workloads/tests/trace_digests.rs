//! Golden digests of every kernel's dynamic trace.
//!
//! The golden fingerprints (`tests/golden_fingerprints.rs`) pin only the
//! timing model's `(cycles, committed, squashed)` over a short prefix;
//! they never look at an oracle value or an effective address. This test
//! pins the functional machine itself: an FNV-1a digest over every field
//! of every [`DynInst`], the conditional-branch outcome log and the
//! `halted` flag, at the trace length the benchmark prepares
//! (`Runner { warmup: 50_000, measure: 150_000 }.trace_len()`).
//!
//! The digests were captured before the functional memory became
//! page-granular, so a refactor of `Machine`, `SparseMemory` or the kernel
//! generators that changes one retired µ-op fails here, not somewhere
//! downstream in a cycle count. A failure means the traces moved: that is
//! a workload change and must be justified, never re-captured silently.

use eole_isa::{ArchReg, DynInst, Trace};
use eole_workloads::all_workloads;

/// `Runner { warmup: 50_000, measure: 150_000 }.trace_len()`.
const TRACE_LEN: u64 = 50_000 + 150_000 + 16;

/// `(kernel, digest)`, in registry order.
const DIGESTS: [(&str, u64); 19] = [
    ("gzip", 0x9ada_ebde_8be4_1f86),
    ("wupwise", 0xac73_86a9_901a_b378),
    ("applu", 0xf723_e1a1_3cec_6f42),
    ("vpr", 0x6a86_101a_ae1a_9a78),
    ("art", 0x0aeb_8070_9631_b7ef),
    ("crafty", 0xec55_c9fa_31eb_46d6),
    ("parser", 0x6e60_5fca_8c1a_5276),
    ("vortex", 0xb452_2f20_e64b_0538),
    ("bzip2", 0x242d_4102_a496_d56e),
    ("gcc", 0x5063_232f_d1cd_a092),
    ("gamess", 0xa75f_4b69_20d6_05c2),
    ("mcf", 0x8ae3_b81f_b8d4_624f),
    ("milc", 0xe83f_8636_115e_ffc4),
    ("namd", 0x4867_30ff_d728_25fc),
    ("gobmk", 0xa13d_20ef_472b_3f50),
    ("hmmer", 0x663f_d5db_c3c0_ec06),
    ("sjeng", 0x0955_fc69_5feb_278f),
    ("h264", 0x82d2_b9ec_f320_0cd0),
    ("lbm", 0xe356_3272_1a4e_f165),
];

/// Streaming FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn reg(&mut self, r: Option<ArchReg>) {
        self.bytes(&[r.map_or(0xff, ArchReg::flat)]);
    }
}

/// Digest of every field of every µ-op, the outcome log and `halted`.
fn trace_digest(t: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&(t.insts.len() as u64).to_le_bytes());
    for d in &t.insts {
        let DynInst { pc, inst, result, addr, size, taken, next_pc, bhist_pos } = d;
        h.bytes(&pc.to_le_bytes());
        // The opcode by name, so reordering the enum moves no digest.
        let op = format!("{:?}", inst.op);
        h.bytes(&[op.len() as u8]);
        h.bytes(op.as_bytes());
        h.reg(inst.dst);
        h.reg(inst.src1);
        h.reg(inst.src2);
        h.bytes(&inst.imm.to_le_bytes());
        h.bytes(&[inst.aux]);
        h.bytes(&result.to_le_bytes());
        h.bytes(&addr.to_le_bytes());
        h.bytes(&[*size, *taken as u8]);
        h.bytes(&next_pc.to_le_bytes());
        h.bytes(&bhist_pos.to_le_bytes());
    }
    h.bytes(&(t.branch_outcomes.len() as u64).to_le_bytes());
    for &b in &t.branch_outcomes {
        h.bytes(&[b as u8]);
    }
    h.bytes(&[t.halted as u8]);
    h.0
}

#[test]
fn traces_are_pinned() {
    let workloads = all_workloads();
    assert_eq!(workloads.len(), DIGESTS.len());
    let mut moved = Vec::new();
    for (w, &(name, want)) in workloads.iter().zip(&DIGESTS) {
        assert_eq!(w.name, name, "registry order changed");
        let trace = w.trace(TRACE_LEN).expect("kernel runs");
        let got = trace_digest(&trace);
        if got != want {
            moved.push(format!("(\"{name}\", {got:#018x}), // was {want:#018x}"));
        }
    }
    assert!(moved.is_empty(), "traces moved:\n{}", moved.join("\n"));
}
