//! `fingerprints`: dump cycle-exactness fingerprints for the golden test.
//!
//! Prints one `("config", "workload", cycles, committed, squashed),` line
//! per (preset configuration × workload) over a small trace, then one
//! `("preset", "kind", "workload", cycles, committed, squashed),` line per
//! (VP preset × non-preset predictor kind × workload) — the exact two
//! tables `tests/golden_fingerprints.rs` asserts against. Regenerate the
//! tables with this tool ONLY when a simulator change is *intentionally*
//! cycle-visible (a model change, not a refactor); pure refactors must
//! reproduce the committed table bit-for-bit. A regeneration is also the
//! signal to bump `eole_core::canon::SIM_FINGERPRINT_VERSION` in the same
//! commit — stored results from the old behavior are stale (`PERF.md`
//! documents the rule).
//!
//! With `--digests` it instead prints the `("name", "hex"),` canonical
//! content-digest table `tests/run_identity.rs` pins — regenerate that
//! one ONLY when the canonical serialization format marker
//! (`eole-core-config/vN`) is deliberately bumped.
//!
//! ```text
//! cargo run --release -p eole-bench --bin fingerprints
//! cargo run --release -p eole-bench --bin fingerprints -- --digests
//! ```

use eole_bench::{Grid, Runner, Session};
use eole_core::config::{CoreConfig, ValuePredictorKind};

/// The golden methodology: small but long enough to exercise squashes,
/// cache misses, and every window structure. Must match the test.
pub const GOLDEN_RUNNER: Runner = Runner { warmup: 2_000, measure: 5_000 };

/// The predictor kinds no preset uses. Must match the test.
const KINDS: [ValuePredictorKind; 5] = [
    ValuePredictorKind::LastValue,
    ValuePredictorKind::Stride,
    ValuePredictorKind::TwoDeltaStride,
    ValuePredictorKind::Fcm,
    ValuePredictorKind::Vtage,
];

/// `Baseline_VP_6_64` and `EOLE_4_64`, each with its predictor swapped
/// for every one of [`KINDS`]. Must match the test.
fn kind_configs() -> Vec<CoreConfig> {
    let mut configs = Vec::new();
    for preset in [CoreConfig::baseline_vp_6_64(), CoreConfig::eole_4_64()] {
        for kind in KINDS {
            let mut c = preset.clone();
            if let Some(vp) = c.vp.as_mut() {
                vp.kind = kind;
            }
            configs.push(c);
        }
    }
    configs
}

fn main() {
    if std::env::args().any(|a| a == "--digests") {
        println!("// canonical config digests (eole-core-config format marker)");
        for c in CoreConfig::all_presets() {
            println!("(\"{}\", \"{}\"),", c.name, c.digest_hex());
        }
        return;
    }
    let runner = GOLDEN_RUNNER;
    let session = Session::new(runner);
    // Workload-major grid order matches the committed table: one trace
    // per workload (shared through the session's cache), every preset
    // over it.
    let grid = Grid::new()
        .runner(runner)
        .configs(CoreConfig::all_presets())
        .all_workloads();
    println!(
        "// ({} presets × {} workloads), runner: warmup {} + measure {} µ-ops",
        CoreConfig::all_presets().len(),
        eole_workloads::all_workloads().len(),
        runner.warmup,
        runner.measure,
    );
    for r in session.run(&grid) {
        let s = r.stats().unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", r.spec.label());
            std::process::exit(1);
        });
        println!(
            "(\"{}\", \"{}\", {}, {}, {}),",
            r.spec.config.name, r.spec.workload.name, s.cycles, s.committed, s.squashed
        );
    }
    let kinds = Grid::new().runner(runner).configs(kind_configs()).all_workloads();
    println!("// (2 VP presets × {} kinds) × workloads, same runner", KINDS.len());
    for r in session.run(&kinds) {
        let s = r.stats().unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", r.spec.label());
            std::process::exit(1);
        });
        let kind = r.spec.config.vp.as_ref().map(|vp| format!("{:?}", vp.kind));
        println!(
            "(\"{}\", \"{}\", \"{}\", {}, {}, {}),",
            r.spec.config.name,
            kind.unwrap_or_default(),
            r.spec.workload.name,
            s.cycles,
            s.committed,
            s.squashed
        );
    }
}
