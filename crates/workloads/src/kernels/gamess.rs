//! `gamess`-like kernel (CPU2006 416.gamess, FP; paper IPC ≈ 1.93).
//!
//! Reproduced traits: quantum-chemistry style dense FP sweeps — four
//! independent multiply-accumulate chains per iteration (high FP ILP and
//! IPC) over one long flattened tile (trip count 16K, so the strided
//! integer addressing saturates the value predictor's confidence).
//! Fig. 13 finds gamess sensitive to removing *Early* Execution: the
//! address arithmetic here is exactly the EE-harvestable kind.

use eole_isa::{FpReg, IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const N2: usize = 128 * 128; // one 128×128 f64 tile per operand

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let f = FpReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x6a3e);

    let am = b.add_data(gen::random_f64_le(&mut rng, N2, -1.0, 1.0));
    let bm = b.add_data(gen::random_f64_le(&mut rng, N2, -1.0, 1.0));
    let cm = b.alloc_zeroed((N2 * 8) as u64);

    let (ab, bb, cb, idx, lim, t1, t2, t3, tile) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
    let (a0, a1, b0, b1) = (f(1), f(2), f(3), f(4));
    let (s0, s1, s2, s3) = (f(5), f(6), f(7), f(8));

    b.movi(ab, am as i64);
    b.movi(bb, bm as i64);
    b.movi(cb, cm as i64);
    b.movi(lim, (N2 - 2) as i64);
    b.movi(tile, 0);
    let tile_top = b.label();
    b.bind(tile_top);
    b.movi(idx, 0);
    let top = b.label();
    b.bind(top);
    // Strided addressing: every integer value advances by 2 per iteration.
    b.lea(t1, ab, idx, 3, 0);
    b.fld(a0, t1, 0);
    b.fld(a1, t1, 8);
    b.lea(t2, bb, idx, 3, 0);
    b.fld(b0, t2, 0);
    b.fld(b1, t2, 8);
    // Four independent FP chains.
    b.fmul(a0, a0, b0);
    b.fmul(a1, a1, b1);
    b.fadd(s0, s0, a0);
    b.fadd(s1, s1, a1);
    b.fmul(b0, b0, b0);
    b.fmul(b1, b1, b1);
    b.fadd(s2, s2, b0);
    b.fadd(s3, s3, b1);
    b.fadd(a0, s0, s1);
    b.lea(t3, cb, idx, 3, 0);
    b.fst(t3, 0, a0);
    b.addi(idx, idx, 2);
    b.blt(idx, lim, top);
    b.addi(tile, tile, 1);
    b.blt_imm(tile, 1_000_000, tile_top);
    b.halt();
    b.build().expect("gamess kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn fp_and_int_split_is_balanced() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let fp = t
            .insts
            .iter()
            .filter(|d| matches!(d.class(), InstClass::FpAlu | InstClass::FpMul))
            .count();
        let frac = fp as f64 / t.len() as f64;
        assert!((0.3..0.65).contains(&frac), "FP fraction {frac:.2}");
    }

    #[test]
    fn loops_are_fully_predictable() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let taken = t.branch_outcomes.iter().filter(|x| **x).count();
        assert!(taken as f64 / t.branch_outcomes.len() as f64 > 0.98);
    }

    #[test]
    fn addressing_strides_steadily() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let leas: Vec<u64> = t
            .insts
            .iter()
            .filter(|d| d.op == eole_isa::Opcode::Lea)
            .map(|d| d.result)
            .collect();
        assert!(leas.len() > 1000);
        let mut strided = 0;
        for w in leas.windows(4) {
            if w[3].wrapping_sub(w[0]) == 16 {
                strided += 1;
            }
        }
        assert!(strided as f64 / leas.len() as f64 > 0.9);
    }
}
