//! `parser`-like kernel (CPU2000 197.parser, INT; paper IPC ≈ 0.54).
//!
//! Reproduced traits: linkage-grammar dictionary walking — a *randomized*
//! pointer chase (nothing for the value predictor to grab), key loads with
//! data-dependent accept branches, and a working set sized to miss the L1
//! on nearly every hop. The serial chase caps ILP and keeps the IPC near
//! the paper's 0.5.

use eole_isa::{IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const NODES: usize = 32 * 1024; // 32K nodes × 16 B = 512 KB (L2-resident)

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x9a25);

    // Node i: [next_index, key], interleaved in one array.
    let base = b.add_data(gen::chase_nodes(&mut rng, NODES, DataRng::next_u64));

    let (nb, p, key, hits, steps, t) = (r(1), r(2), r(3), r(4), r(5), r(6));

    b.movi(nb, base as i64);
    b.movi(p, 0);
    b.movi(hits, 0);
    b.movi(steps, 0);
    let top = b.label();
    b.bind(top);
    // Serial random chase: p = nodes[p].next (scale 4 → 16-byte nodes).
    b.ld_idx(p, nb, p, 4, 0);
    b.lea(t, nb, p, 4, 8);
    b.ld(key, t, 0);
    // Data-dependent accept (≈ 1/8 taken).
    let miss = b.label();
    b.andi(t, key, 7);
    b.bne_imm(t, 0, miss);
    b.addi(hits, hits, 1);
    b.bind(miss);
    b.addi(steps, steps, 1);
    b.blt_imm(steps, 2_000_000_000, top);
    b.halt();
    b.build().expect("parser kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, Opcode};

    #[test]
    fn chase_addresses_look_random() {
        let t = generate_trace(&program(), 30_000).unwrap();
        let hops: Vec<u64> = t
            .insts
            .iter()
            .filter(|d| d.op == Opcode::LdIdx)
            .map(|d| d.result)
            .collect();
        assert!(hops.len() > 1000);
        // No dominant stride: consecutive deltas should rarely repeat.
        let mut repeats = 0;
        for w in hops.windows(3) {
            if w[1].wrapping_sub(w[0]) == w[2].wrapping_sub(w[1]) {
                repeats += 1;
            }
        }
        assert!(
            (repeats as f64) < hops.len() as f64 * 0.05,
            "chase must be stride-free: {repeats}/{}",
            hops.len()
        );
    }

    #[test]
    fn accept_branch_fires_about_one_in_eight() {
        let t = generate_trace(&program(), 80_000).unwrap();
        // Branch stream: accept-miss (bne, taken ≈ 7/8) + loop (taken).
        let not_taken = t.branch_outcomes.iter().filter(|x| !**x).count();
        let frac = not_taken as f64 / t.branch_outcomes.len() as f64;
        assert!((0.02..0.15).contains(&frac), "not-taken fraction {frac:.3}");
    }
}
