//! `wupwise`-like kernel (CPU2000 168.wupwise, FP; paper IPC ≈ 1.55).
//!
//! Reproduced traits: the paper's Fig. 6 shows wupwise among the biggest
//! value-prediction winners. The kernel therefore carries its complex-
//! arithmetic sweep behind a *serial index chain* (`i = next[i]` where
//! `next` is laid out sequentially, so the loaded value strides by 1):
//! without VP the chain serializes every iteration behind a load; the
//! 2-delta stride side of the hybrid predicts it exactly and collapses the
//! critical path. FP work (complex multiply-accumulate) is otherwise
//! well-pipelined.

use eole_isa::{FpReg, IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const N: usize = 4096;

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let f = FpReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x3713);

    // Sequential "linked" index array: next[i] = (i + 1) mod N.
    let next: Vec<u64> = (0..N as u64).map(|i| (i + 1) % N as u64).collect();
    let next_base = b.add_data_u64(&next);
    let re_base = b.add_data(gen::random_f64_le(&mut rng, N, -1.0, 1.0));
    let im_base = b.add_data(gen::random_f64_le(&mut rng, N, -1.0, 1.0));
    let coef = b.add_data_f64(&[0.7548776662, 0.6559780438]);

    let (i, nb, rb, ib, t1, t2, iter, bound) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8));
    let (cre, cim) = (f(1), f(2));
    let (xre, xim) = (f(3), f(4));
    let (p1, p2, p3, p4) = (f(5), f(6), f(7), f(8));
    let (acc_re, acc_im) = (f(9), f(10));

    b.movi(nb, next_base as i64);
    b.movi(rb, re_base as i64);
    b.movi(ib, im_base as i64);
    b.movi(t1, coef as i64);
    b.fld(cre, t1, 0);
    b.fld(cim, t1, 8);
    b.movi(i, 0);
    b.movi(iter, 0);
    b.movi(bound, 2_000_000_000);
    let top = b.label();
    b.bind(top);
    // Serial chain: i = next[i] — value-predictable (stride 1).
    b.ld_idx(i, nb, i, 3, 0);
    // Complex MAC: acc += (re[i] + j·im[i]) · (cre + j·cim).
    b.lea(t1, rb, i, 3, 0);
    b.fld(xre, t1, 0);
    b.lea(t2, ib, i, 3, 0);
    b.fld(xim, t2, 0);
    b.fmul(p1, xre, cre);
    b.fmul(p2, xim, cim);
    b.fmul(p3, xre, cim);
    b.fmul(p4, xim, cre);
    b.fsub(p1, p1, p2);
    b.fadd(p3, p3, p4);
    b.fadd(acc_re, acc_re, p1);
    b.fadd(acc_im, acc_im, p3);
    b.addi(iter, iter, 1);
    b.bne(iter, bound, top);
    b.halt();
    b.build().expect("wupwise kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass, Opcode};

    #[test]
    fn index_chain_values_stride_by_one() {
        let t = generate_trace(&program(), 20_000).unwrap();
        let chain: Vec<u64> = t
            .insts
            .iter()
            .filter(|d| d.op == Opcode::LdIdx)
            .map(|d| d.result)
            .collect();
        assert!(chain.len() > 500);
        let strided = chain.windows(2).filter(|w| w[1] == (w[0] + 1) % N as u64).count();
        assert!(
            strided as f64 / (chain.len() - 1) as f64 > 0.99,
            "chain must stride: {strided}/{}",
            chain.len()
        );
    }

    #[test]
    fn fp_fraction_is_substantial() {
        let t = generate_trace(&program(), 20_000).unwrap();
        let fp = t
            .insts
            .iter()
            .filter(|d| matches!(d.class(), InstClass::FpAlu | InstClass::FpMul | InstClass::FpDiv))
            .count();
        assert!(fp * 2 > t.len() / 2, "FP < 25%: {fp}/{}", t.len());
    }
}
