//! `gcc`-like kernel (CPU2006 403.gcc, INT; paper IPC ≈ 1.06).
//!
//! Reproduced traits: compiler-style IR walking — an interpreter loop that
//! dispatches through an *indirect jump* on an opcode stream with bursty
//! (run-correlated) opcodes, small irregular handlers, and moderate value
//! predictability. Indirect-target mispredictions (BTB last-target) and
//! mixed branch behaviour keep the IPC near 1.
//!
//! The program is laid out twice: the first pass learns the handler
//! instruction indices, the second embeds them in the in-memory jump
//! table the dispatcher loads from.

use eole_isa::{IntReg, Program, ProgramBuilder};

use crate::gen::DataRng;

const IR_LEN: usize = 65536;
const NUM_OPS: usize = 8;

/// Builds the kernel.
pub fn program() -> Program {
    let (_, pcs) = layout(&[0; NUM_OPS]);
    layout(&pcs).0
}

/// Emits the kernel with the given jump-table contents; returns the
/// program and the actual handler pcs.
fn layout(table_contents: &[u64; NUM_OPS]) -> (Program, [u64; NUM_OPS]) {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let mut rng = DataRng::new(0x6cc1);

    // Bursty opcode stream: 75 % chance to repeat the previous opcode.
    let mut ops = Vec::with_capacity(IR_LEN);
    let mut cur = 0u64;
    for _ in 0..IR_LEN {
        if rng.below(4) == 0 {
            cur = rng.below(NUM_OPS as u64);
        }
        ops.push(cur);
    }
    let ir = b.add_data_u64(&ops);
    let table = b.add_data_u64(table_contents);

    let (irb, tb, pc_ir, opc, h, acc, t) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));

    let top = b.label();

    b.movi(irb, ir as i64);
    b.movi(tb, table as i64);
    b.movi(pc_ir, 0);
    b.movi(acc, 1);
    b.bind(top);
    b.andi(pc_ir, pc_ir, (IR_LEN - 1) as i64);
    b.ld_idx(opc, irb, pc_ir, 3, 0);
    b.ld_idx(h, tb, opc, 3, 0);
    b.addi(pc_ir, pc_ir, 1);
    b.jmp_r(h);

    // Eight small handlers of varying shape; each jumps back to `top`.
    let mut pcs = [0u64; NUM_OPS];
    for (k, pc_slot) in pcs.iter_mut().enumerate() {
        *pc_slot = b.here() as u64;
        match k % 4 {
            0 => {
                b.addi(acc, acc, 3);
                b.shli(t, acc, 1);
                b.xor(acc, acc, t);
            }
            1 => {
                b.andi(t, acc, 0xff);
                b.add(acc, acc, t);
                b.andi(t, t, (IR_LEN - 1) as i64);
                b.ld_idx(t, irb, t, 3, 0);
                b.add(acc, acc, t);
            }
            2 => {
                b.shri(t, acc, 3);
                b.sub(acc, acc, t);
                b.ori(acc, acc, 1);
            }
            _ => {
                b.mul(t, acc, acc);
                b.shri(t, t, 32);
                b.xor(acc, acc, t);
            }
        }
        b.jmp(top);
    }
    b.halt(); // unreachable; the run is bounded by the trace budget

    (b.build().expect("gcc kernel assembles"), pcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_isa::{generate_trace, InstClass};

    #[test]
    fn indirect_jumps_drive_dispatch() {
        let t = generate_trace(&program(), 40_000).unwrap();
        let ind = t
            .insts
            .iter()
            .filter(|d| d.class() == InstClass::JumpIndirect)
            .count();
        assert!(ind > 1000, "indirect dispatches = {ind}");
    }

    #[test]
    fn dispatch_targets_are_bursty_but_varied() {
        let t = generate_trace(&program(), 60_000).unwrap();
        let targets: Vec<u32> = (0..t.len())
            .filter(|&i| t.insts[i].class() == InstClass::JumpIndirect)
            .map(|i| t.next_pc(i))
            .collect();
        let distinct: std::collections::HashSet<_> = targets.iter().collect();
        assert!(distinct.len() >= 4, "several handlers visited");
        let repeats = targets.windows(2).filter(|w| w[0] == w[1]).count();
        let frac = repeats as f64 / (targets.len() - 1) as f64;
        assert!((0.4..0.95).contains(&frac), "burstiness {frac:.2}");
    }

    #[test]
    fn two_pass_layout_is_stable() {
        // The second layout must place handlers at the same indices the
        // table advertises (otherwise jmp_r would wander).
        let (_, pcs1) = layout(&[0; NUM_OPS]);
        let (_, pcs2) = layout(&pcs1);
        assert_eq!(pcs1, pcs2);
    }
}
