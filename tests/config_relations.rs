//! Configuration relations: pairs of configurations that must simulate
//! identically, compared on `(cycles, committed, squashed)` over every
//! kernel.
//!
//! Each relation names a knob that has no effect in the stated context —
//! EOLE switched off, PRF banking with unlimited LE/VT ports, a second
//! Early Execution stage with Early Execution off, and the LE/VT depth
//! override set to the depth the configuration computes anyway. A relation
//! that fails is a finding about the model, not a test to loosen.

use eole_bench::Runner;
use eole_core::config::{CoreConfig, EoleConfig};
use eole_core::pipeline::{PreparedTrace, Simulator};

/// The methodology the relations were first checked at on every kernel.
const RELATION_RUNNER: Runner = Runner { warmup: 20_000, measure: 80_000 };

/// `(name, lhs, rhs)`: `lhs` must simulate exactly like `rhs`.
fn relations() -> Vec<(&'static str, CoreConfig, CoreConfig)> {
    let eole_off = CoreConfig { eole: EoleConfig::off(), ..CoreConfig::eole_4_64() };
    let late_only = |ee_stages| {
        let mut c = CoreConfig::eole_4_64();
        c.eole.early = false;
        c.eole.ee_stages = ee_stages;
        c
    };
    let levt_pinned =
        CoreConfig { levt_depth_override: Some(1), ..CoreConfig::baseline_vp_6_64() };
    vec![
        ("EOLE_4_64 with EOLE off ≡ Baseline_VP_4_64", eole_off, CoreConfig::baseline_vp_4_64()),
        (
            "EOLE_4_64 on 4 PRF banks ≡ EOLE_4_64",
            CoreConfig::eole_4_64_banked(4),
            CoreConfig::eole_4_64(),
        ),
        ("ee_stages 2 with EE off ≡ ee_stages 1", late_only(2), late_only(1)),
        (
            "levt_depth_override Some(1) ≡ default (Baseline_VP_6_64)",
            levt_pinned,
            CoreConfig::baseline_vp_6_64(),
        ),
    ]
}

fn fingerprint(trace: &PreparedTrace, config: &CoreConfig) -> (u64, u64, u64) {
    let mut sim = Simulator::new(trace, config.clone()).expect("config is valid");
    sim.run(RELATION_RUNNER.warmup).expect("warmup");
    sim.begin_measurement();
    sim.run(RELATION_RUNNER.measure).expect("measure");
    let s = sim.stats();
    (s.cycles, s.committed, s.squashed)
}

/// Every relation holds exactly on every kernel.
#[test]
fn configuration_relations_hold_on_every_kernel() {
    let relations = relations();
    let workloads = eole_workloads::all_workloads();
    // Two workers, each taking every other kernel.
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|worker| {
                let (relations, workloads) = (&relations, &workloads);
                s.spawn(move || {
                    let mut failures = Vec::new();
                    for w in workloads.iter().skip(worker).step_by(2) {
                        let trace = RELATION_RUNNER.prepare(w);
                        for (name, lhs, rhs) in relations {
                            let (got, want) = (fingerprint(&trace, lhs), fingerprint(&trace, rhs));
                            if got != want {
                                failures.push(format!("{name} on {}: {got:?} vs {want:?}", w.name));
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().expect("relation worker")).collect()
    });
    assert!(failures.is_empty(), "configuration relations broken:\n{}", failures.join("\n"));
}
