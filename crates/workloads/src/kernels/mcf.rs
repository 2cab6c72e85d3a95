//! `mcf`-like kernel (CPU2006 429.mcf, INT; paper IPC ≈ 0.105 — the
//! slowest program in Table 3).
//!
//! Reproduced traits: network-simplex arc scanning — a serial *random*
//! pointer chase over a 32 MB arena (far beyond the 2 MB L2, so nearly
//! every hop pays DRAM latency), with a little cost arithmetic per node.
//! Nothing is value-predictable and the chase cannot overlap, so IPC
//! collapses to the memory latency floor.

use eole_isa::{IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const NODES: usize = 1 << 21; // 2M nodes × 16 B = 32 MB

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x3cf0);

    // Node i: [next_index, cost]; one giant random cycle.
    let base = b.add_data(gen::chase_nodes(&mut rng, NODES, |rng| rng.below(1 << 20)));

    let (nb, p, cost, best, t, steps) = (r(1), r(2), r(3), r(4), r(5), r(6));

    b.movi(nb, base as i64);
    b.movi(p, 0);
    b.movi(best, 0);
    b.movi(steps, 0);
    let top = b.label();
    b.bind(top);
    // DRAM-bound serial hop.
    b.ld_idx(p, nb, p, 4, 0);
    b.lea(t, nb, p, 4, 8);
    b.ld(cost, t, 0);
    // Reduced-cost bookkeeping (data dependent, branchless).
    b.sub(t, cost, best);
    b.sari(t, t, 63);
    b.and(t, t, cost);
    b.or(best, best, t);
    b.addi(steps, steps, 1);
    b.blt_imm(steps, 2_000_000_000, top);
    b.halt();
    b.build().expect("mcf kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, Opcode};

    #[test]
    fn working_set_spans_tens_of_megabytes() {
        let t = generate_trace(&program(), 50_000).unwrap();
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for d in t.insts.iter().filter(|d| d.is_load()) {
            lo = lo.min(d.addr);
            hi = hi.max(d.addr);
        }
        assert!(hi - lo > 16 << 20, "span = {} MB", (hi - lo) >> 20);
    }

    #[test]
    fn chase_is_unpredictable() {
        let t = generate_trace(&program(), 30_000).unwrap();
        let hops: Vec<u64> = t
            .insts
            .iter()
            .filter(|d| d.op == Opcode::LdIdx)
            .map(|d| d.result)
            .collect();
        let mut repeats = 0;
        for w in hops.windows(3) {
            if w[1].wrapping_sub(w[0]) == w[2].wrapping_sub(w[1]) {
                repeats += 1;
            }
        }
        assert!((repeats as f64) < hops.len() as f64 * 0.02);
    }
}
