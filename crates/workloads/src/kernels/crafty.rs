//! `crafty`-like kernel (CPU2000 186.crafty, INT; paper IPC ≈ 1.77).
//!
//! Reproduced traits: chess bitboard manipulation — long runs of single-
//! cycle logic ops rich in *immediate* operands (SWAR popcount masks,
//! file/rank masks), a strided board index, and biased evaluation
//! branches. The paper's Fig. 13 finds crafty notably sensitive to
//! removing Early Execution; the immediate-seeded mask generation and
//! predictable index chains are what EE harvests here.

use eole_isa::{IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0xc4af);

    let boards = b.add_data_u64(&gen::random_u64(&mut rng, 8192));

    let (bb, k, bbv, t, t2, v, score, bonus) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8));
    let (m1, m2, m3, kff, atk, a, c, iter) = (r(9), r(10), r(11), r(12), r(13), r(14), r(15), r(16));
    let notfile = r(17);

    b.movi(bb, boards as i64);
    b.movi(k, 0);
    b.movi(iter, 0);
    b.movi(notfile, 0x7e7e_7e7e_7e7e_7e7eu64 as i64);
    let top = b.label();
    b.bind(top);
    // Strided board index (value-predictable; 8K-entry wrap keeps the
    // stride stable long enough for the FPC to saturate).
    b.addi(k, k, 1);
    b.andi(k, k, 8191);
    b.ld_idx(bbv, bb, k, 3, 0);
    // Immediate-seeded masks: pure EE fodder.
    b.movi(m1, 0x5555_5555_5555_5555u64 as i64);
    b.movi(m2, 0x3333_3333_3333_3333u64 as i64);
    b.movi(m3, 0x0f0f_0f0f_0f0f_0f0fu64 as i64);
    b.movi(kff, 0x0101_0101_0101_0101u64 as i64);
    // SWAR popcount of the board.
    b.shri(t, bbv, 1);
    b.and(t, t, m1);
    b.sub(v, bbv, t);
    b.and(t2, v, m2);
    b.shri(v, v, 2);
    b.and(v, v, m2);
    b.add(v, v, t2);
    b.shri(t, v, 4);
    b.add(v, v, t);
    b.and(v, v, m3);
    b.mul(v, v, kff);
    b.shri(v, v, 56);
    b.add(score, score, v);
    // Attack spread (shift-and-mask logic).
    b.shli(a, bbv, 8);
    b.shri(c, bbv, 8);
    b.or(atk, a, c);
    b.and(atk, atk, notfile);
    b.or(score, score, atk);
    // Biased evaluation branch: dense boards are rare.
    let skip = b.label();
    b.blt_imm(v, 40, skip);
    b.addi(bonus, bonus, 1);
    b.bind(skip);
    b.addi(iter, iter, 1);
    b.blt_imm(iter, 2_000_000_000, top);
    b.halt();
    b.build().expect("crafty kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass, Opcode};

    #[test]
    fn logic_heavy_integer_mix() {
        let t = generate_trace(&program(), 30_000).unwrap();
        let alu = t.insts.iter().filter(|d| d.class() == InstClass::IntAlu).count();
        assert!(alu as f64 / t.len() as f64 > 0.6, "crafty must be ALU-dominated");
    }

    #[test]
    fn many_immediate_seeded_ops() {
        let t = generate_trace(&program(), 30_000).unwrap();
        let movi = t.insts.iter().filter(|d| d.op == Opcode::MovI).count();
        assert!(movi as f64 / t.len() as f64 > 0.08, "mask immediates feed EE");
    }
}
