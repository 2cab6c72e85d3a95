//! `namd`-like kernel (CPU2006 444.namd, FP; paper IPC ≈ 1.86).
//!
//! Reproduced traits: the paper's best case — §3.4 reports *up to 60 %* of
//! namd's retired µ-ops can bypass the OoO engine, and Fig. 7 shows it
//! gaining >10 % from extra issue width. The pair-list force loop here is
//! dominated by perfectly strided integer work (list index, packed-index
//! decode, address generation — all value-predictable → Late Execution;
//! immediates and predicted operands → Early Execution), plus biased
//! cutoff branches (high-confidence) and a sprinkle of FP.

use eole_isa::{FpReg, IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const PAIRS: usize = 65536;
const ATOMS: usize = 4096;

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let f = FpReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x4a3d);

    // Pair list: consecutive packed indices — the list is sorted, as real
    // neighbour lists largely are, so the loaded value strides by one and
    // the whole decode chain below is value-predictable.
    let pairs: Vec<u64> = (0..PAIRS as u64).collect();
    let plist = b.add_data_u64(&pairs);
    let _ = &mut rng;
    let xs = b.add_data(gen::random_f64_le(&mut rng, ATOMS, 0.0, 64.0));
    let forces = b.alloc_zeroed((ATOMS * 8) as u64);

    let (pb, xb, fo, k, packed, ai, aj, t1, t2, near) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9), r(10));
    let (klim, epoch) = (r(11), r(12));
    let (xi, xj, d, fcut) = (f(1), f(2), f(3), f(4));

    b.movi(pb, plist as i64);
    b.movi(xb, xs as i64);
    b.movi(fo, forces as i64);
    b.movi(klim, PAIRS as i64);
    b.movi(near, 0);
    b.movi(epoch, 0);
    // Cutoff constant: the signed difference of two positions in a 0..64
    // box falls below -52 only ~9 % of the time, so the interaction branch
    // is strongly biased (high-confidence material).
    b.movi(t1, (-52.0f64).to_bits() as i64);
    b.st(pb, -8, t1);
    b.fld(fcut, pb, -8);
    let epoch_top = b.label();
    b.bind(epoch_top);
    b.movi(k, 0);
    let top = b.label();
    b.bind(top);
    // Strided list walk + packed-index decode: all value-predictable
    // single-cycle ALU work (LE/EE fodder).
    b.ld_idx(packed, pb, k, 3, 0);
    b.shli(ai, packed, 1);
    b.add(ai, ai, packed); // ai = 3·packed: strides by 3
    b.andi(ai, ai, (ATOMS - 1) as i64);
    b.addi(aj, packed, 17);
    b.andi(aj, aj, (ATOMS - 1) as i64);
    b.lea(t1, xb, ai, 3, 0);
    b.fld(xi, t1, 0);
    b.lea(t2, xb, aj, 3, 0);
    b.fld(xj, t2, 0);
    b.fsub(d, xi, xj);
    // Cutoff test: |d| < 8 is rare over a 0..64 box (biased → HC branch).
    let skip = b.label();
    b.fcmplt(t1, d, fcut);
    b.beq_imm(t1, 0, skip);
    b.fadd(d, d, fcut);
    b.lea(t2, fo, ai, 3, 0);
    b.fst(t2, 0, d);
    b.addi(near, near, 1);
    b.bind(skip);
    b.addi(k, k, 1);
    b.blt(k, klim, top);
    b.addi(epoch, epoch, 1);
    b.blt_imm(epoch, 1_000_000, epoch_top);
    b.halt();
    b.build().expect("namd kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn integer_alu_share_is_high() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let alu = t.insts.iter().filter(|d| d.class() == InstClass::IntAlu).count();
        let frac = alu as f64 / t.len() as f64;
        assert!(frac > 0.45, "namd ALU share {frac:.2}");
    }

    #[test]
    fn cutoff_branch_is_biased() {
        let t = generate_trace(&program(), 60_000).unwrap();
        // The skip branch is mostly taken; loop branch taken; exits rare.
        let taken = t.branch_outcomes.iter().filter(|x| **x).count();
        assert!(taken as f64 / t.branch_outcomes.len() as f64 > 0.8);
    }

    #[test]
    fn list_walk_is_strided() {
        let t = generate_trace(&program(), 20_000).unwrap();
        let addrs: Vec<u64> = t
            .insts
            .iter()
            .filter(|d| d.op == eole_isa::Opcode::LdIdx)
            .map(|d| d.addr)
            .collect();
        let strided = addrs.windows(2).filter(|w| w[1] == w[0] + 8).count();
        assert!(strided as f64 / addrs.len() as f64 > 0.95);
    }
}
