//! `art`-like kernel (CPU2000 179.art, FP; paper IPC ≈ 1.21).
//!
//! Reproduced traits: the paper's §3.4 singles out art as having >50 % of
//! retired µ-ops offloadable by EOLE. The kernel is an ART F1-layer scan:
//! the FP multiply-accumulate itself is a small fraction of the work, and
//! the dominant integer loop/index arithmetic strides perfectly (value-
//! predictable → Late Execution) while the fixed-trip inner loops make the
//! branches high-confidence.

use eole_isa::{FpReg, IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const NEURONS: i64 = 32;
const INPUTS: i64 = 1024;

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let f = FpReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0xa127);

    let n = (NEURONS * INPUTS) as usize;
    let weights = b.add_data(gen::random_f64_le(&mut rng, n, 0.0, 1.0));
    let inputs = b.add_data(gen::random_f64_le(&mut rng, INPUTS as usize, 0.0, 1.0));
    let acts = b.alloc_zeroed(NEURONS as u64 * 8);

    let (wb, inb, ab, i, j, idx, t1, t2, rowoff) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
    let (ilim, jlim, epoch) = (r(10), r(11), r(12));
    let (w, x, p, acc) = (f(1), f(2), f(3), f(4));

    b.movi(wb, weights as i64);
    b.movi(inb, inputs as i64);
    b.movi(ab, acts as i64);
    b.movi(ilim, INPUTS);
    b.movi(jlim, NEURONS);
    b.movi(epoch, 0);
    let epoch_top = b.label();
    b.bind(epoch_top);
    b.movi(j, 0);
    let neuron_top = b.label();
    b.bind(neuron_top);
    // rowoff = j * INPUTS * 8 — strided per neuron.
    b.shli(rowoff, j, 13);
    b.add(rowoff, rowoff, wb);
    b.movi(i, 0);
    b.xor(idx, idx, idx);
    let inner = b.label();
    b.bind(inner);
    // Integer-dominant body: index arithmetic strides, all predictable.
    b.shli(idx, i, 3);
    b.add(t1, rowoff, idx);
    b.fld(w, t1, 0);
    b.add(t2, inb, idx);
    b.fld(x, t2, 0);
    b.fmul(p, w, x);
    b.fadd(acc, acc, p);
    b.addi(i, i, 2); // stride 2: trip count 512 > FPC saturation horizon
    b.blt(i, ilim, inner);
    b.lea(t1, ab, j, 3, 0);
    b.fst(t1, 0, acc);
    b.addi(j, j, 1);
    b.blt(j, jlim, neuron_top);
    b.addi(epoch, epoch, 1);
    b.blt_imm(epoch, 1_000_000, epoch_top);
    b.halt();
    b.build().expect("art kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn integer_alu_dominates() {
        let t = generate_trace(&program(), 30_000).unwrap();
        let int_alu = t.insts.iter().filter(|d| d.class() == InstClass::IntAlu).count();
        assert!(
            int_alu as f64 / t.len() as f64 > 0.4,
            "int ALU share = {:.2}",
            int_alu as f64 / t.len() as f64
        );
    }

    #[test]
    fn branches_are_high_confidence_material() {
        let t = generate_trace(&program(), 30_000).unwrap();
        let taken = t.branch_outcomes.iter().filter(|x| **x).count();
        assert!(taken as f64 / t.branch_outcomes.len() as f64 > 0.95);
    }
}
