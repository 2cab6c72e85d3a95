//! Warm-state checkpoint contract: restoring a [`WarmState`] into a fresh
//! simulator is bit-identical to functionally replaying the same prefix
//! from zero, under arbitrary kernels, configurations, and checkpoint
//! positions — including *chained* capture/restore mid-sweep, which is
//! exactly what the checkpointed interval runner does.

use eole_core::config::CoreConfig;
use eole_core::pipeline::{PreparedTrace, Simulator, WarmState};
use eole_isa::{generate_trace, IntReg, ProgramBuilder};
use proptest::prelude::*;

/// A small mixed kernel: a strided load/store loop with a data-dependent
/// branch, a call/return pair, and a multiply — enough to exercise TAGE,
/// the BTB/RAS, the value predictor, and the cache hierarchy.
fn kernel_trace(iters: i64, stride: i64, flip: i64, len: usize) -> PreparedTrace {
    let mut b = ProgramBuilder::new();
    let (i, n, base, acc, tmp) = (
        IntReg::new(1),
        IntReg::new(2),
        IntReg::new(3),
        IntReg::new(4),
        IntReg::new(5),
    );
    let buf = b.alloc_zeroed(1 << 16);
    b.movi(i, 0);
    b.movi(n, iters);
    b.movi(base, buf as i64);
    b.movi(acc, 0);
    let helper = b.label();
    let top = b.label();
    let skip = b.label();
    b.jmp(top);
    b.bind(helper);
    b.addi(acc, acc, 3);
    b.ret();
    b.bind(top);
    b.ld_idx(tmp, base, i, 1, 0);
    b.add(acc, acc, tmp);
    b.st(base, 0, acc);
    b.mul(tmp, acc, n);
    b.andi(tmp, tmp, flip);
    b.beq_imm(tmp, 0, skip);
    b.call(helper);
    b.bind(skip);
    b.addi(i, i, stride);
    b.blt(i, n, top);
    b.halt();
    let program = b.build().expect("kernel assembles");
    PreparedTrace::new(generate_trace(&program, len as u64).expect("kernel traces"))
}

fn configs() -> Vec<CoreConfig> {
    vec![
        CoreConfig::eole_4_64(),
        CoreConfig::baseline_vp_6_64(),
        CoreConfig::baseline_6_64(), // no VP: exercises the absent-side path
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any prefix `[0, warm_to)`:
    ///
    /// 1. capture-at-`warm_to` equals restore(capture)-then-recapture
    ///    (the codec round-trips),
    /// 2. a *chained* sweep — warm to `mid`, checkpoint, restore into a
    ///    fresh simulator, continue warming to `warm_to` — captures the
    ///    same bytes as the one-shot replay (the producer-sweep contract),
    /// 3. the restored simulator's subsequent detailed run is
    ///    cycle-identical to the replayed one.
    #[test]
    fn checkpoint_restore_equals_prefix_replay(
        iters in 40i64..400,
        stride in 1i64..4,
        flip in prop::sample::select(vec![1i64, 3, 7]),
        len in 400usize..3_000,
        cfg_idx in 0usize..3,
        warm_num in 1u32..100,
        mid_num in 0u32..100,
    ) {
        let trace = kernel_trace(iters, stride, flip, len);
        let config = configs().swap_remove(cfg_idx);
        let warm_to = trace.len() * warm_num as usize / 100;
        let mid = warm_to * mid_num as usize / 100;

        // One-shot replay from zero.
        let mut reference = Simulator::new(&trace, config.clone()).expect("config valid");
        reference.functional_warm(warm_to);
        let golden = reference.capture_warm();
        prop_assert_eq!(golden.position().expect("cursor"), warm_to as u64);

        // (1) Round-trip through bytes into a fresh simulator.
        let decoded = WarmState::from_bytes(golden.as_bytes().to_vec()).expect("marker");
        let mut restored = Simulator::new(&trace, config.clone()).expect("config valid");
        restored.restore_warm(&decoded).expect("restore succeeds");
        prop_assert_eq!(restored.capture_warm().as_bytes(), golden.as_bytes());
        prop_assert_eq!(restored.cursor(), warm_to);

        // (2) Chained sweep: checkpoint at `mid`, restore, continue.
        let mut producer = Simulator::new(&trace, config.clone()).expect("config valid");
        producer.functional_warm(mid);
        let midpoint = producer.capture_warm();
        let mut chained = Simulator::new(&trace, config.clone()).expect("config valid");
        chained.restore_warm(&midpoint).expect("restore succeeds");
        chained.functional_warm(warm_to);
        prop_assert_eq!(chained.capture_warm().as_bytes(), golden.as_bytes());

        // (3) Detailed windows from the restored and replayed state agree.
        let window = 1_500u64;
        reference.begin_measurement();
        restored.begin_measurement();
        reference.run_exact(window).expect("no deadlock");
        restored.run_exact(window).expect("no deadlock");
        let (a, b) = (reference.stats(), restored.stats());
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.committed, b.committed);
        prop_assert_eq!(a.squashed, b.squashed);
        prop_assert_eq!(reference.cycle(), restored.cycle());
    }
}

#[test]
fn corrupt_payload_is_rejected_not_misdecoded() {
    let trace = kernel_trace(100, 1, 3, 1_200);
    let mut sim = Simulator::new(&trace, CoreConfig::eole_4_64()).expect("config valid");
    sim.functional_warm(600);
    let warm = sim.capture_warm();

    // Truncations never decode.
    for cut in [0, 1, warm.len() / 2, warm.len() - 1] {
        let bytes = warm.as_bytes()[..cut].to_vec();
        match WarmState::from_bytes(bytes) {
            Err(_) => {}
            Ok(w) => {
                let mut target =
                    Simulator::new(&trace, CoreConfig::eole_4_64()).expect("config valid");
                assert!(target.restore_warm(&w).is_err(), "truncated at {cut} must fail");
            }
        }
    }

    // A checkpoint for one configuration must not restore into another
    // shape (different predictor kind / table sizes).
    let mut other = Simulator::new(&trace, CoreConfig::baseline_6_64()).expect("config valid");
    assert!(other.restore_warm(&warm).is_err(), "vp presence mismatch must fail");
}

#[test]
fn capture_at_zero_is_the_construction_state() {
    let trace = kernel_trace(60, 1, 1, 600);
    let mut sim = Simulator::new(&trace, CoreConfig::eole_4_64()).expect("config valid");
    let warm = sim.capture_warm();
    assert_eq!(warm.position().expect("cursor"), 0);
    let mut fresh = Simulator::new(&trace, CoreConfig::eole_4_64()).expect("config valid");
    fresh.restore_warm(&warm).expect("restore succeeds");
    assert_eq!(fresh.capture_warm().as_bytes(), warm.as_bytes());
}
