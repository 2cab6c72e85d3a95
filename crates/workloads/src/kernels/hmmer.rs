//! `hmmer`-like kernel (CPU2006 456.hmmer, INT; paper IPC ≈ 2.48 — the
//! highest in Table 3).
//!
//! Reproduced traits: the Viterbi inner loop — eight *independent*
//! branchless max-add lanes per iteration give very high ILP that needs a
//! deep instruction queue to exploit (the paper's Fig. 8 shows hmmer
//! suffering most when the IQ shrinks, and it is the one benchmark EOLE
//! slows down). Scores are data-dependent, so value-prediction coverage
//! is *low* — EOLE cannot offload much here.

use eole_isa::{IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const STATES: usize = 2048;

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x44e2);

    let scores = b.add_data_u64(
        &gen::random_u64(&mut rng, STATES).iter().map(|v| v % 10_000).collect::<Vec<_>>(),
    );
    let trans = b.add_data_u64(
        &gen::random_u64(&mut rng, STATES).iter().map(|v| v % 500).collect::<Vec<_>>(),
    );
    let out = b.alloc_zeroed((STATES * 8) as u64);

    let (sb, tb, ob, i, lim, pass) = (r(1), r(2), r(3), r(4), r(5), r(6));
    // Four independent lanes: s(core), t(rans), c(and), m(ask).
    let lanes: [(IntReg, IntReg, IntReg, IntReg); 4] = [
        (r(7), r(8), r(9), r(10)),
        (r(11), r(12), r(13), r(14)),
        (r(15), r(16), r(17), r(18)),
        (r(19), r(20), r(21), r(22)),
    ];
    let (addr, best) = (r(23), r(24));

    b.movi(sb, scores as i64);
    b.movi(tb, trans as i64);
    b.movi(ob, out as i64);
    b.movi(lim, (STATES - 4) as i64);
    b.movi(pass, 0);
    let pass_top = b.label();
    b.bind(pass_top);
    b.movi(i, 0);
    b.movi(best, 0);
    let top = b.label();
    b.bind(top);
    for (lane, &(s, tr, c, m)) in lanes.iter().enumerate() {
        let off = lane as i64;
        b.lea(addr, sb, i, 3, off * 8);
        b.ld(s, addr, 0);
        b.lea(addr, tb, i, 3, off * 8);
        b.ld(tr, addr, 0);
        b.add(c, s, tr); // candidate = score + transition
        // Branchless max into `best` lane-local then merge:
        b.sub(m, best, c);
        b.sari(m, m, 63); // all-ones if best < c
        b.xor(c, c, best);
        b.and(c, c, m);
        b.xor(best, best, c); // best = max(best, cand)
        b.lea(addr, ob, i, 3, off * 8);
        b.st(addr, 0, best);
    }
    b.addi(i, i, 4);
    b.blt(i, lim, top);
    b.addi(pass, pass, 1);
    b.blt_imm(pass, 1_000_000, pass_top);
    b.halt();
    b.build().expect("hmmer kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn very_few_branches_lots_of_alu() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let branches = t.insts.iter().filter(|d| d.class() == InstClass::Branch).count();
        let alu = t.insts.iter().filter(|d| d.class() == InstClass::IntAlu).count();
        assert!((branches as f64) < t.len() as f64 * 0.05, "hmmer is not branchy");
        assert!(alu as f64 / t.len() as f64 > 0.5);
    }

    #[test]
    fn lane_values_are_data_dependent() {
        let t = generate_trace(&program(), 40_000).unwrap();
        // Values loaded must not be strided. (A store's data is not in its
        // trace record, so the stored running maxima cannot be checked.)
        let loads: Vec<u64> =
            t.insts.iter().filter(|d| d.is_load()).map(|d| d.result).collect();
        let mut strided = 0;
        for w in loads.windows(3) {
            if w[1].wrapping_sub(w[0]) == w[2].wrapping_sub(w[1]) {
                strided += 1;
            }
        }
        assert!((strided as f64) < loads.len() as f64 * 0.3);
    }
}
