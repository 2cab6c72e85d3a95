//! `h264`-like kernel (CPU2006 464.h264ref, INT; paper IPC ≈ 1.31).
//!
//! Reproduced traits: motion-estimation SAD (sum of absolute differences)
//! over 16×16 blocks — unrolled byte loads, branchless absolute
//! differences, strided block offsets (value-predictable address
//! arithmetic: Fig. 6 shows h264 gaining noticeably from VP), and an
//! early-exit threshold branch that is strongly biased.

use eole_isa::{IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const FRAME_W: i64 = 1024;
const FRAME_BYTES: usize = (FRAME_W * FRAME_W) as usize;

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x4264);

    let cur = b.add_data(gen::random_bytes(&mut rng, FRAME_BYTES));
    // Reference frame: the current frame plus mild noise (so SADs are
    // small and the early-exit branch is biased).
    let mut reff = gen::random_bytes(&mut rng, FRAME_BYTES);
    {
        let mut r2 = DataRng::new(0x4264);
        for byte in reff.iter_mut() {
            *byte = (r2.next_u64() as u8).wrapping_add((rng.below(4)) as u8);
        }
    }
    let ref_base = b.add_data(reff);

    let (cb, rb, bx, sad, row, t, ca, ra) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8));
    let (pa, pb_, d, m, blocks, best, frame_off) =
        (r(9), r(10), r(11), r(12), r(13), r(14), r(15));

    b.movi(cb, cur as i64);
    b.movi(rb, ref_base as i64);
    b.movi(bx, 0);
    b.movi(frame_off, 0);
    b.movi(blocks, 0);
    b.movi(best, 1 << 20);
    let block_top = b.label();
    b.bind(block_top);
    b.movi(sad, 0);
    b.movi(row, 0);
    let row_top = b.label();
    b.bind(row_top);
    // Row base addresses: strided (predictable), descending through the
    // frame block-row by block-row so the working set exceeds the L1.
    b.shli(t, row, 10);
    b.add(t, t, frame_off);
    b.add(ca, cb, t);
    b.add(ca, ca, bx);
    b.add(ra, rb, t);
    b.add(ra, ra, bx);
    // 8 unrolled byte SADs per row visit.
    for kx in 0..8i64 {
        b.ld8(pa, ca, kx);
        b.ld8(pb_, ra, kx);
        b.sub(d, pa, pb_);
        b.sari(m, d, 63);
        b.xor(d, d, m);
        b.sub(d, d, m);
        b.add(sad, sad, d);
    }
    b.addi(row, row, 1);
    b.blt_imm(row, 16, row_top);
    // Early-exit compare: biased (noise keeps SADs small).
    let not_better = b.label();
    b.bge(sad, best, not_better);
    b.mov(best, sad);
    b.bind(not_better);
    b.addi(bx, bx, 16);
    b.andi(bx, bx, FRAME_W - 1);
    // After a full stripe of blocks, move 16 rows down the frame.
    let same_stripe = b.label();
    b.bne_imm(bx, 0, same_stripe);
    b.addi(frame_off, frame_off, 16 * FRAME_W);
    b.andi(frame_off, frame_off, FRAME_W * FRAME_W - 1);
    b.bind(same_stripe);
    b.addi(blocks, blocks, 1);
    b.blt_imm(blocks, 2_000_000_000, block_top);
    b.halt();
    b.build().expect("h264 kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn byte_loads_dominate_memory_traffic() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let byte_loads = t
            .insts
            .iter()
            .filter(|d| d.class() == InstClass::Load && d.size() == 1)
            .count();
        assert!(byte_loads as f64 / t.len() as f64 > 0.15);
    }

    #[test]
    fn inner_loops_are_predictable() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let taken = t.branch_outcomes.iter().filter(|x| **x).count();
        assert!(taken as f64 / t.branch_outcomes.len() as f64 > 0.8);
    }
}
