//! Golden digests of every kernel's dynamic trace and data segments.
//!
//! The golden fingerprints (`tests/golden_fingerprints.rs`) pin only the
//! timing model's `(cycles, committed, squashed)` over a short prefix;
//! they never look at an oracle value or an effective address. This test
//! pins the functional machine itself: an FNV-1a digest over every field
//! of every [`DynInst`] and of its static instruction (`text[pc]`), the
//! conditional-branch outcome log and the `halted` flag, at the trace length the benchmark prepares
//! (`Runner { warmup: 50_000, measure: 150_000 }.trace_len()`).
//!
//! The digests were captured before the functional memory became
//! page-granular, so a refactor of `Machine`, `SparseMemory` or the kernel
//! generators that changes one retired µ-op fails here, not somewhere
//! downstream in a cycle count. A failure means the traces moved: that is
//! a workload change and must be justified, never re-captured silently.
//!
//! A trace reads only part of a kernel's data: mcf's 200,016-µ-op window
//! visits about 1% of its 32 MB arena. `segments_are_pinned` therefore
//! also digests every byte the kernel generators write, each segment's
//! base and bytes from `Program::data()`, so a change to how the data is
//! generated or encoded fails here even where no trace reads it. They were
//! captured before the kernels encoded their data straight into segment
//! bytes and before the machine read the segments in place.

use eole_core::canon::Fnv64;
use eole_isa::{ArchReg, DynInst, Program, Trace};
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

/// `(kernel, digest of its data segments)`, in registry order.
const SEGMENT_DIGESTS: [(&str, u64); 19] = [
    ("gzip", 0xc5f2_d543_0fd0_35f9),
    ("wupwise", 0xca3c_c8e6_4d9c_6acb),
    ("applu", 0x4258_7748_0c08_c2f9),
    ("vpr", 0x28c2_a396_fdcb_c746),
    ("art", 0x4c83_4c7e_56e8_26b2),
    ("crafty", 0x4a8a_1f2b_67d0_c5f8),
    ("parser", 0x2c7b_3e14_af9b_1906),
    ("vortex", 0x06ca_b7fe_ebc7_577b),
    ("bzip2", 0xeeab_2e4c_d9b1_f45f),
    ("gcc", 0x525e_280c_0f21_32e9),
    ("gamess", 0x2b9a_75ad_4364_2dcb),
    ("mcf", 0x6f58_7421_94aa_3066),
    ("milc", 0x1894_bd72_baab_d0f2),
    ("namd", 0x0360_21cc_26f7_885e),
    ("gobmk", 0x3d04_525f_b15d_3625),
    ("hmmer", 0xf86b_fcc3_d2c4_039a),
    ("sjeng", 0x5a4d_d7b9_ba20_e5ad),
    ("h264", 0xd0a3_a4d8_dc16_11f1),
    ("lbm", 0xdcdc_cfdd_0dcb_953d),
];

/// An optional register as one byte, `0xff` for none.
fn reg(h: &mut Fnv64, r: Option<ArchReg>) {
    h.write(&[r.map_or(0xff, ArchReg::flat)]);
}

/// Digest of every field of every µ-op and its static instruction, in
/// the byte order the digests were captured in while each record still
/// carried its own copy of the instruction, its pc as 4 bytes, its access
/// size and its next pc (now derived: [`DynInst::size`], [`Trace::next_pc`]),
/// then the outcome log and `halted`.
fn trace_digest(t: &Trace) -> u64 {
    let mut h = Fnv64::new();
    h.write(&(t.insts.len() as u64).to_le_bytes());
    for (i, d) in t.insts.iter().enumerate() {
        let DynInst { pc, op, result, addr, taken, bhist_pos } = d;
        let inst = &t.text[usize::from(*pc)];
        assert_eq!(*op, inst.op, "the record's opcode is its text's, pc {pc}");
        h.write(&u32::from(*pc).to_le_bytes());
        // The opcode by name, so reordering the enum moves no digest.
        let op = format!("{:?}", inst.op);
        h.write(&[op.len() as u8]);
        h.write(op.as_bytes());
        reg(&mut h, inst.dst);
        reg(&mut h, inst.src1);
        reg(&mut h, inst.src2);
        h.write(&inst.imm.to_le_bytes());
        h.write(&[inst.aux]);
        h.write(&result.to_le_bytes());
        h.write(&addr.to_le_bytes());
        h.write(&[d.size(), *taken as u8]);
        h.write(&t.next_pc(i).to_le_bytes());
        h.write(&bhist_pos.to_le_bytes());
    }
    h.write(&(t.branch_outcomes.len() as u64).to_le_bytes());
    for &b in &t.branch_outcomes {
        h.write(&[b as u8]);
    }
    h.write(&[t.halted as u8]);
    h.finish()
}

/// Digest of the segment count and each segment's base, length and bytes,
/// in program order.
fn segment_digest(p: &Program) -> u64 {
    let mut h = Fnv64::new();
    h.write(&(p.data().len() as u64).to_le_bytes());
    for seg in p.data() {
        h.write(&seg.base.to_le_bytes());
        h.write(&(seg.bytes.len() as u64).to_le_bytes());
        h.write(&seg.bytes);
    }
    h.finish()
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

#[test]
fn segments_are_pinned() {
    let workloads = all_workloads();
    assert_eq!(workloads.len(), SEGMENT_DIGESTS.len());
    let mut moved = Vec::new();
    for (w, &(name, want)) in workloads.iter().zip(&SEGMENT_DIGESTS) {
        assert_eq!(w.name, name, "registry order changed");
        let got = segment_digest(&w.program());
        if got != want {
            moved.push(format!("(\"{name}\", {got:#018x}), // was {want:#018x}"));
        }
    }
    assert!(moved.is_empty(), "data segments moved:\n{}", moved.join("\n"));
}
