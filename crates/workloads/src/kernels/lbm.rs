//! `lbm`-like kernel (CPU2006 470.lbm, FP; paper IPC ≈ 0.75).
//!
//! Reproduced traits: lattice-Boltzmann streaming — reads several
//! distribution functions at long strides from a 20 MB domain, a short
//! collision computation, and a streaming store. Bandwidth/DRAM-latency
//! bound with a prefetch-friendly access pattern; §3.4 puts lbm in the
//! lowest EOLE-offload group (<10 %).

use eole_isa::{FpReg, IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const CELLS: usize = 1 << 18; // 256K cells
const DIRS: i64 = 8;          // 8 distribution planes → 16 MB total

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let f = FpReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x1b30);

    let n = CELLS * DIRS as usize;
    let dist = b.add_data(gen::random_f64_le(&mut rng, n, 0.0, 1.0));
    let out = b.alloc_zeroed((CELLS * 8) as u64);

    let (db, ob, i, t, plane, lim) = (r(1), r(2), r(3), r(4), r(5), r(6));
    let (acc, v, omega) = (f(1), f(2), f(3));

    b.movi(db, dist as i64);
    b.movi(ob, out as i64);
    b.movi(lim, CELLS as i64);
    b.movi(t, (0.6f64).to_bits() as i64);
    b.st(db, -8, t);
    b.fld(omega, db, -8);
    let pass_top = b.label();
    b.bind(pass_top);
    b.movi(i, 0);
    let top = b.label();
    b.bind(top);
    // Gather one value from each plane: stride = CELLS*8 bytes (2 MB),
    // guaranteeing DRAM pressure across planes.
    b.xor(plane, plane, plane);
    b.fsub(acc, acc, acc); // acc = 0
    b.shli(t, i, 3);
    b.add(t, t, db);
    for p in 0..DIRS {
        b.fld(v, t, p * (CELLS as i64) * 8);
        b.fadd(acc, acc, v);
    }
    b.fmul(acc, acc, omega);
    b.shli(t, i, 3);
    b.add(t, t, ob);
    b.fst(t, 0, acc);
    b.addi(i, i, 64); // long unit-of-64 stride: defeats the L1, feeds the prefetcher
    b.blt(i, lim, top);
    b.jmp(pass_top);
    b.halt();
    b.build().expect("lbm kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn loads_span_many_megabytes() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for d in t.insts.iter().filter(|d| d.is_load()) {
            lo = lo.min(d.addr);
            hi = hi.max(d.addr);
        }
        assert!(hi - lo > 8 << 20, "span = {} MB", (hi - lo) >> 20);
    }

    #[test]
    fn fp_plus_memory_dominate() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let fpmem = t
            .insts
            .iter()
            .filter(|d| {
                matches!(d.class(), InstClass::FpAlu | InstClass::FpMul)
                    || d.class().is_mem()
            })
            .count();
        assert!(fpmem as f64 / t.len() as f64 > 0.55);
    }
}
