//! `milc`-like kernel (CPU2006 433.milc, FP; paper IPC ≈ 0.46).
//!
//! Reproduced traits: lattice-QCD streaming — SU(3)-flavoured complex
//! multiplies marching through a 24 MB field with unit stride. The
//! prefetcher helps but bandwidth and DRAM latency dominate; §3.4 lists
//! milc among the lowest EOLE offload fractions (<10 %), so the kernel
//! keeps integer overhead minimal and FP/memory work dominant.

use eole_isa::{FpReg, IntReg, Program, ProgramBuilder};

use crate::gen::{self, DataRng};

const SITES: usize = 1 << 18; // 256K sites × 6 f64 = 12 MB per field

/// Builds the kernel.
pub fn program() -> Program {
    let r = IntReg::new;
    let f = FpReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x317c);

    let field = b.add_data(gen::random_f64_le(&mut rng, SITES * 6, -1.0, 1.0));
    let out = b.alloc_zeroed((SITES * 2 * 8) as u64);

    let (fb, ob, i, t1, t2, lim) = (r(1), r(2), r(3), r(4), r(5), r(6));
    let (u0, u1, u2, v0, v1, v2) = (f(1), f(2), f(3), f(4), f(5), f(6));
    let (p0, p1, sre, sim) = (f(7), f(8), f(9), f(10));

    b.movi(fb, field as i64);
    b.movi(ob, out as i64);
    b.movi(lim, SITES as i64);
    let pass_top = b.label();
    b.bind(pass_top);
    b.movi(i, 0);
    let top = b.label();
    b.bind(top);
    // One site = 6 doubles (3 complex): stream them in.
    b.shli(t1, i, 3 + 2); // i * 48 via *32 + *16
    b.shli(t2, i, 3 + 1);
    b.add(t1, t1, t2);
    b.add(t1, t1, fb);
    b.fld(u0, t1, 0);
    b.fld(u1, t1, 8);
    b.fld(u2, t1, 16);
    b.fld(v0, t1, 24);
    b.fld(v1, t1, 32);
    b.fld(v2, t1, 40);
    // Complex dot-ish reduction.
    b.fmul(p0, u0, v0);
    b.fmul(p1, u1, v1);
    b.fadd(sre, p0, p1);
    b.fmul(p0, u2, v2);
    b.fadd(sre, sre, p0);
    b.fmul(p1, u0, v1);
    b.fsub(sim, p1, p0);
    b.shli(t2, i, 4);
    b.add(t2, t2, ob);
    b.fst(t2, 0, sre);
    b.fst(t2, 8, sim);
    b.addi(i, i, 1);
    b.blt(i, lim, top);
    b.jmp(pass_top);
    b.halt();
    b.build().expect("milc kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::generate_trace;

    #[test]
    fn memory_traffic_dominates() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let mem = t.insts.iter().filter(|d| d.class().is_mem()).count();
        let frac = mem as f64 / t.len() as f64;
        assert!(frac > 0.3, "memory fraction {frac:.2}");
    }

    #[test]
    fn streaming_addresses_are_unit_stride() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let addrs: Vec<u64> = t
            .insts
            .iter()
            .filter(|d| d.is_load() && d.size() == 8)
            .map(|d| d.addr)
            .collect();
        // Within a site the six loads are 8 B apart; across sites 48 B.
        let mut small = 0;
        for w in addrs.windows(2) {
            if w[1].wrapping_sub(w[0]) <= 48 {
                small += 1;
            }
        }
        assert!(small as f64 / addrs.len() as f64 > 0.9);
    }
}
