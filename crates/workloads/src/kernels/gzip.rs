//! `gzip`-like kernel (CPU2000 164.gzip, INT; paper baseline IPC ≈ 0.98).
//!
//! Reproduced traits: LZ-style compression front end — rolling 4-byte hash
//! over compressible text, hash-table probe + update, short data-dependent
//! match-extension loops. Branch behaviour is mixed (loop branches
//! predictable, match/no-match data-dependent); value predictability is
//! moderate (the position counter and address arithmetic stride, the hash
//! and text bytes do not).

use eole_isa::{IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const TEXT_BYTES: usize = 64 * 1024;
const HASH_ENTRIES: i64 = 8192;

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x9219);

    let text = b.add_data(gen::pseudo_text(&mut rng, TEXT_BYTES));
    let hash = b.alloc_zeroed(HASH_ENTRIES as u64 * 8);

    let (pos, end, tb, hb) = (r(1), r(2), r(3), r(4));
    let (word, h, prev, t1, t2) = (r(5), r(6), r(7), r(8), r(9));
    let (mlen, ca, cb, matches, kmul) = (r(10), r(11), r(12), r(13), r(14));
    let outer = r(15);

    b.movi(tb, text as i64);
    b.movi(hb, hash as i64);
    b.movi(matches, 0);
    b.movi(outer, 0);
    b.movi(kmul, 0x9e3779b1);
    let outer_top = b.label();
    b.bind(outer_top);
    b.movi(pos, 0);
    b.movi(end, (TEXT_BYTES - 64) as i64);
    let top = b.label();
    b.bind(top);
    // Rolling hash of the 4 bytes at `pos`.
    b.add(t1, tb, pos);
    b.ld32(word, t1, 0);
    b.mul(h, word, kmul);
    b.shri(h, h, 16);
    b.andi(h, h, HASH_ENTRIES - 1);
    // Probe and update the chain head.
    b.ld_idx(prev, hb, h, 3, 0);
    b.lea(t2, hb, h, 3, 0);
    b.st(t2, 0, pos);
    let no_match = b.label();
    b.beq_imm(prev, 0, no_match);
    // Extend the candidate match up to 8 bytes (data dependent).
    b.movi(mlen, 0);
    let mtop = b.label();
    let mdone = b.label();
    b.bind(mtop);
    b.add(t1, tb, prev);
    b.add(t1, t1, mlen);
    b.ld8(ca, t1, 0);
    b.add(t2, tb, pos);
    b.add(t2, t2, mlen);
    b.ld8(cb, t2, 0);
    b.bne(ca, cb, mdone);
    b.addi(mlen, mlen, 1);
    b.blt_imm(mlen, 8, mtop);
    b.bind(mdone);
    b.add(matches, matches, mlen);
    b.bind(no_match);
    b.addi(pos, pos, 1);
    b.blt(pos, end, top);
    b.addi(outer, outer, 1);
    b.blt_imm(outer, 1_000_000, outer_top);
    b.halt();
    b.build().expect("gzip kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn mix_has_loads_stores_and_branches() {
        let t = generate_trace(&program(), 30_000).unwrap();
        let loads = t.insts.iter().filter(|d| d.class() == InstClass::Load).count();
        let stores = t.insts.iter().filter(|d| d.class() == InstClass::Store).count();
        let branches = t.insts.iter().filter(|d| d.class() == InstClass::Branch).count();
        assert!(loads * 10 > t.len(), "loads < 10%");
        assert!(stores > 0);
        assert!(branches * 3 > t.len() / 10, "branches < 3%");
    }

    #[test]
    fn match_branches_are_data_dependent() {
        let t = generate_trace(&program(), 50_000).unwrap();
        // The bne at the match comparison must go both ways.
        let outcomes: Vec<bool> = t.branch_outcomes.clone();
        let taken = outcomes.iter().filter(|t| **t).count();
        assert!(taken > 0 && taken < outcomes.len());
    }
}
