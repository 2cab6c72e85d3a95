//! `applu`-like kernel (CPU2000 173.applu, FP; paper IPC ≈ 1.59).
//!
//! Reproduced traits: SSOR-style 5-point stencil sweeps with constant
//! coefficients. The sweep is flattened into one long interior loop
//! (trip count ≈ 16K) so the strided index arithmetic stays stable far
//! beyond the FPC saturation horizon — applu is one of Fig. 6's clear VP
//! winners and loses >5 % at 4-issue without EOLE (Fig. 7). The 128×128
//! grid (128 KB + output) is L2-resident and prefetch-friendly.

use eole_isa::{FpReg, IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const DIM: i64 = 128;

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let f = FpReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0xa991);

    let n = (DIM * DIM) as usize;
    let grid = b.add_data(gen::random_f64_le(&mut rng, n, 0.0, 1.0));
    let out = b.alloc_zeroed((n * 8) as u64);

    let (gi, go, idx, lim, t1, t2, sweep) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
    let (c0, c1) = (f(1), f(2));
    let (cc, nn, ss, ee, ww, s1, s2) = (f(3), f(4), f(5), f(6), f(7), f(8), f(9));

    b.movi(gi, grid as i64);
    b.movi(go, out as i64);
    b.movi(lim, DIM * DIM - DIM - 1);
    // Constant coefficients parked just below the grid.
    b.movi(t1, (0.5f64).to_bits() as i64);
    b.st(gi, -16, t1);
    b.fld(c0, gi, -16);
    b.movi(t1, (0.125f64).to_bits() as i64);
    b.st(gi, -8, t1);
    b.fld(c1, gi, -8);
    b.movi(sweep, 0);
    let sweep_top = b.label();
    b.bind(sweep_top);
    b.movi(idx, DIM + 1);
    let top = b.label();
    b.bind(top);
    // Flattened interior walk: every integer value here strides by 1.
    b.lea(t1, gi, idx, 3, 0);
    b.fld(cc, t1, 0);
    b.fld(nn, t1, -(DIM * 8));
    b.fld(ss, t1, DIM * 8);
    b.fld(ww, t1, -8);
    b.fld(ee, t1, 8);
    b.fmul(s1, cc, c0);
    b.fadd(s2, nn, ss);
    b.fadd(ee, ee, ww);
    b.fadd(s2, s2, ee);
    b.fmul(s2, s2, c1);
    b.fadd(s1, s1, s2);
    b.lea(t2, go, idx, 3, 0);
    b.fst(t2, 0, s1);
    b.addi(idx, idx, 1);
    b.blt(idx, lim, top);
    b.addi(sweep, sweep, 1);
    b.blt_imm(sweep, 1_000_000, sweep_top);
    b.halt();
    b.build().expect("applu kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn branches_are_overwhelmingly_taken_loops() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let taken = t.branch_outcomes.iter().filter(|x| **x).count();
        assert!(
            taken as f64 / t.branch_outcomes.len() as f64 > 0.98,
            "one long flat loop: almost every branch is a taken back-edge"
        );
    }

    #[test]
    fn stencil_reads_five_points_per_store() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let loads = t.insts.iter().filter(|d| d.class() == InstClass::Load).count();
        let stores = t.insts.iter().filter(|d| d.class() == InstClass::Store).count();
        assert!(stores > 100);
        let ratio = loads as f64 / stores as f64;
        assert!((4.0..6.5).contains(&ratio), "load/store ratio = {ratio:.2}");
    }

    #[test]
    fn index_values_stride_for_thousands_of_instances() {
        let t = generate_trace(&program(), 40_000).unwrap();
        // Two lea streams interleave (grid and output pointers); each
        // strides by 8 against its same-parity predecessor.
        let leas: Vec<u64> = t
            .insts
            .iter()
            .filter(|d| d.op == eole_isa::Opcode::Lea)
            .map(|d| d.result)
            .collect();
        let strided = leas.windows(3).filter(|w| w[2].wrapping_sub(w[0]) == 8).count();
        assert!(strided as f64 / leas.len() as f64 > 0.9, "{strided}/{}", leas.len());
    }
}
