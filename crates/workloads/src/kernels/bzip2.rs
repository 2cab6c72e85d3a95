//! `bzip2`-like kernel (CPU2006 401.bzip2, INT; paper IPC ≈ 0.89).
//!
//! Reproduced traits: run-length walking over a block — the position
//! advances by a loaded run length that is *almost always* the same value,
//! so the serial `pos += runlen[pos]` chain is value-predictable (bzip2 is
//! one of Fig. 6's clear VP winners) with rare deviations that exercise
//! the value-misprediction squash path. A byte histogram adds data-
//! dependent store traffic.

use eole_isa::{IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const RUNS: usize = 65536;
const BLOCK: usize = 64 * 1024;

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0xb212);

    // Run lengths: constant 4, deviating to 12 once every ~4K entries —
    // rare enough that the FPC still saturates, so each deviation lands as
    // a genuine (expensive) value misprediction.
    let runs: Vec<u64> = (0..RUNS)
        .map(|_| if rng.below(4096) == 0 { 12 } else { 4 })
        .collect();
    let runs_base = b.add_data_u64(&runs);
    let block = b.add_data(gen::random_bytes(&mut rng, BLOCK));
    let counts = b.alloc_zeroed(256 * 8);

    let (rb, blk, cb, pos, run, idx, byte, t, cnt, iter) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9), r(10));

    b.movi(rb, runs_base as i64);
    b.movi(blk, block as i64);
    b.movi(cb, counts as i64);
    b.movi(pos, 0);
    b.movi(iter, 0);
    let top = b.label();
    b.bind(top);
    // Serial, value-predictable run walk.
    b.andi(idx, pos, (RUNS - 1) as i64);
    b.ld_idx(run, rb, idx, 3, 0);
    b.add(pos, pos, run);
    // Histogram the byte under the cursor.
    b.andi(t, pos, (BLOCK - 1) as i64);
    b.add(t, t, blk);
    b.ld8(byte, t, 0);
    b.lea(t, cb, byte, 3, 0);
    b.ld(cnt, t, 0);
    b.addi(cnt, cnt, 1);
    b.st(t, 0, cnt);
    b.addi(iter, iter, 1);
    b.blt_imm(iter, 2_000_000_000, top);
    b.halt();
    b.build().expect("bzip2 kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, Opcode};

    #[test]
    fn run_lengths_are_almost_constant_with_rare_deviations() {
        let t = generate_trace(&program(), 500_000).unwrap();
        let runs: Vec<u64> = t
            .insts
            .iter()
            .filter(|d| d.op == Opcode::LdIdx)
            .map(|d| d.result)
            .collect();
        let fours = runs.iter().filter(|v| **v == 4).count();
        assert!(runs.len() > 10_000);
        let frac = fours as f64 / runs.len() as f64;
        assert!(frac > 0.99, "constant-run fraction {frac:.4}");
        assert!(fours < runs.len(), "deviations must exist");
    }

    #[test]
    fn histogram_stores_to_data_dependent_slots() {
        let t = generate_trace(&program(), 60_000).unwrap();
        let mut slots = std::collections::HashSet::new();
        for d in t.insts.iter().filter(|d| d.is_store()) {
            slots.insert(d.addr);
        }
        assert!(slots.len() > 50, "many distinct histogram slots: {}", slots.len());
    }
}
