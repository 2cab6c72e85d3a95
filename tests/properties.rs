//! Property-based end-to-end tests: randomly generated (but always
//! terminating) programs must execute functionally, trace, and simulate to
//! completion on randomly drawn configurations — deterministically.

use eole::prelude::*;
use proptest::prelude::*;

/// A recipe for one random-but-valid program.
#[derive(Clone, Debug)]
struct Recipe {
    ops: Vec<u8>,
    loop_iters: u8,
    store_every: u8,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec(0u8..12, 4..60),
        2u8..40,
        1u8..8,
    )
        .prop_map(|(ops, loop_iters, store_every)| Recipe { ops, loop_iters, store_every })
}

/// Builds a program from a recipe: an outer counted loop whose body is a
/// straight-line mix of ALU/memory ops plus a data-dependent forward skip.
fn build(recipe: &Recipe) -> Program {
    let r = IntReg::new;
    let mut b = ProgramBuilder::new();
    let buf = b.add_data_u64(&(0..256u64).map(|i| i.wrapping_mul(0x9e37)).collect::<Vec<_>>());
    let (base, i, lim, acc, t) = (r(1), r(2), r(3), r(4), r(5));
    let regs = [r(6), r(7), r(8), r(9)];

    b.movi(base, buf as i64);
    b.movi(i, 0);
    b.movi(lim, recipe.loop_iters as i64);
    b.movi(acc, 1);
    let top = b.label();
    b.bind(top);
    for (k, op) in recipe.ops.iter().enumerate() {
        let d = regs[k % 4];
        let s = regs[(k + 1) % 4];
        match op {
            0 => b.add(d, s, acc),
            1 => b.sub(d, s, acc),
            2 => b.xor(d, d, s),
            3 => b.shli(d, s, (k % 13) as i64),
            4 => b.mul(d, s, acc),
            5 => {
                b.andi(t, s, 255);
                b.ld_idx(d, base, t, 3, 0);
            }
            6 => {
                if k % recipe.store_every as usize == 0 {
                    b.andi(t, s, 255);
                    b.lea(t, base, t, 3, 0);
                    b.st(t, 0, d);
                } else {
                    b.ori(d, s, 3);
                }
            }
            7 => b.slt(d, s, acc),
            8 => {
                // Data-dependent forward skip.
                let skip = b.label();
                b.andi(t, s, 1);
                b.beq_imm(t, 0, skip);
                b.addi(acc, acc, 1);
                b.bind(skip);
            }
            9 => b.sari(d, s, 2),
            10 => b.rem(d, s, lim),
            _ => b.andi(d, s, 0xffff),
        }
        b.add(acc, acc, d);
    }
    b.addi(i, i, 1);
    b.blt(i, lim, top);
    b.halt();
    b.build().expect("generated program is valid")
}

fn config_from(seed: u8) -> CoreConfig {
    match seed % 6 {
        0 => CoreConfig::baseline_6_64(),
        1 => CoreConfig::baseline_vp_6_64(),
        2 => CoreConfig::eole_4_64(),
        3 => CoreConfig::eole_6_64(),
        4 => CoreConfig::eole_4_64_ports(4, 3),
        _ => CoreConfig::eole_4_64_banked(8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_simulate_to_completion(recipe in recipe_strategy(), cfg_seed: u8) {
        let program = build(&recipe);
        let trace = PreparedTrace::new(generate_trace(&program, 50_000).unwrap());
        prop_assume!(!trace.is_empty());
        let mut sim = Simulator::new(&trace, config_from(cfg_seed)).unwrap();
        sim.run(u64::MAX).unwrap();
        prop_assert!(sim.finished());
        prop_assert_eq!(sim.committed_total(), trace.len() as u64);
        let s = sim.stats();
        prop_assert!(s.ipc() <= 8.0, "IPC beyond commit width: {}", s.ipc());
        prop_assert!(s.committed == trace.len() as u64);
    }

    #[test]
    fn simulation_is_deterministic_for_any_program(recipe in recipe_strategy()) {
        let program = build(&recipe);
        let trace = PreparedTrace::new(generate_trace(&program, 20_000).unwrap());
        prop_assume!(!trace.is_empty());
        let run = || {
            let mut sim = Simulator::new(&trace, CoreConfig::eole_4_64()).unwrap();
            sim.run(u64::MAX).unwrap();
            let s = sim.stats();
            (s.cycles, s.vp_used, s.squashed, s.early_executed)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn functional_and_trace_results_agree(recipe in recipe_strategy()) {
        // The trace's recorded dst values must match a fresh functional
        // run, and so must the facts a record derives instead of storing:
        // its access size and its successor's pc.
        let program = build(&recipe);
        let trace = generate_trace(&program, 10_000).unwrap();
        let mut machine = Machine::new(&program);
        for (i, d) in trace.insts.iter().enumerate() {
            let info = machine.step().unwrap();
            prop_assert_eq!(info.pc, u32::from(d.pc));
            prop_assert_eq!(info.dst_value.unwrap_or(0), d.result);
            prop_assert_eq!(info.mem_size, d.size());
            prop_assert_eq!(info.next_pc, trace.next_pc(i));
        }
    }
}
