//! Interval-parallel simulation: stitched-vs-serial contracts.
//!
//! A run split into K intervals (`Runner::try_run_intervals`) must
//! commit exactly the serial run's µ-ops: every interval restores the
//! predictor and cache state a functional replay of its prefix builds
//! (`Simulator::functional_warm`) and then warms timing-local state with
//! a detailed window of W µ-ops. Cycle and squashed-µ-op counts may
//! drift only within the pinned budget (`INTERVAL_CYCLE_BUDGET`, 0.5%):
//! both depend on the timing at the interval seams. The golden table
//! below pins these properties for every quick-suite preset; the
//! proptest extends them to random (K, W, runner) draws.

use eole_bench::{
    check_stitched_against_serial, quick_suite_configs, DirStore, Grid, IntervalPolicy, MemStore,
    ResultStore, RunKey, RunSpec, Runner, Session, INTERVAL_CYCLE_BUDGET, QUICK_SUITE_WORKLOADS,
    WARM_STEM_PREFIX,
};
use eole_core::config::CoreConfig;
use eole_core::stats::SimStats;
use eole_workloads::workload_by_name;
use proptest::prelude::*;
use std::sync::Arc;

fn stitched_and_serial(
    runner: Runner,
    config: &CoreConfig,
    workload: &str,
    policy: IntervalPolicy,
) -> (SimStats, SimStats) {
    let w = workload_by_name(workload).expect("suite workload");
    let trace = runner.try_prepare(&w).expect("trace");
    let (stitched, _) = runner.try_run_intervals(&trace, config.clone(), policy).expect("stitched");
    let serial = runner.try_run_serial_exact(&trace, config.clone()).expect("serial");
    (stitched, serial)
}

/// Every counter equal (`SimStats` has no `PartialEq`; its `Debug`
/// output lists every field).
fn assert_same_stats(got: &SimStats, want: &SimStats, label: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}");
}

/// `|got − want| / want`, the measure [`INTERVAL_CYCLE_BUDGET`] bounds.
fn relative_error(got: u64, want: u64) -> f64 {
    got.abs_diff(want) as f64 / want.max(1) as f64
}

/// The golden stitched-vs-serial table: every quick-suite preset, split
/// k=2 and k=8, must keep committed counts exact and cycle and squashed
/// errors inside the pinned budget.
#[test]
fn quick_suite_stitched_matches_serial_within_budget() {
    let runner = Runner::quick();
    for workload in QUICK_SUITE_WORKLOADS {
        for config in &quick_suite_configs() {
            for k in [2u32, 8] {
                let policy = IntervalPolicy::of(k, &runner);
                let (stitched, serial) = stitched_and_serial(runner, config, workload, policy);
                let label = format!("{}/{workload} k={k}", config.name);
                assert_eq!(stitched.committed, serial.committed, "{label}: committed");
                assert_eq!(stitched.committed, runner.measure, "{label}: covers the window");
                for (what, got, want) in [
                    ("cycle", stitched.cycles, serial.cycles),
                    ("squashed", stitched.squashed, serial.squashed),
                ] {
                    assert!(
                        relative_error(got, want) <= INTERVAL_CYCLE_BUDGET,
                        "{label}: {what} count {got} vs serial {want} exceeds the budget",
                    );
                }
                // The paranoid-mode checker asserts the same contract;
                // exercising it here keeps it honest (it must not panic
                // on an in-budget pair).
                check_stitched_against_serial(&label, policy, &stitched, &serial);
            }
        }
    }
}

/// Squashed counts are budgeted, not exact: a squash discards whatever
/// is in flight at that moment, and that depends on the timing at the
/// interval seams. On this cell the stitch squashes 14195 µ-ops against
/// the serial 14182 while committing exactly the same 80000; the
/// validator must accept that as within budget.
#[test]
fn seam_squash_divergence_is_within_budget() {
    let runner = Runner { warmup: 20_000, measure: 80_000 };
    let config = CoreConfig::eole_4_64_ports(4, 4);
    let policy = IntervalPolicy::of(8, &runner);
    let (stitched, serial) = stitched_and_serial(runner, &config, "hmmer", policy);
    assert_eq!((stitched.committed, serial.committed), (80_000, 80_000));
    assert_eq!((stitched.squashed, serial.squashed), (14_195, 14_182));
    check_stitched_against_serial("EOLE_4_64_4ports_4banks/hmmer k=8", policy, &stitched, &serial);
}

/// k=1 through the interval path is the exact-boundary serial run,
/// bit for bit — the degenerate stitch is a pure pass-through.
#[test]
fn single_interval_is_bit_identical_to_serial_exact() {
    let runner = Runner::quick();
    let w = workload_by_name("hmmer").unwrap();
    let trace = runner.try_prepare(&w).unwrap();
    let config = CoreConfig::eole_6_64();
    let policy = IntervalPolicy { k: 1, warmup: runner.warmup };
    let (stitched, _) = runner.try_run_intervals(&trace, config.clone(), policy).unwrap();
    let serial = runner.try_run_serial_exact(&trace, config).unwrap();
    assert_same_stats(&stitched, &serial, "k=1 stitch vs serial");
}

/// `--interval-warmup auto` on gzip / `EOLE_4_64` (the CLI's probe) over
/// the quick runner picks a pinned window, and always one of its three
/// candidates: a quarter of the warmup, the default half, or all of it.
#[test]
fn auto_interval_warmup_probe_is_pinned() {
    let runner = Runner::quick();
    let trace = runner.try_prepare(&workload_by_name("gzip").unwrap()).unwrap();
    let candidates = [runner.warmup / 4, runner.default_interval_warmup(), runner.warmup];
    for (k, pinned) in [(2u32, 2_500u64), (8, 2_500)] {
        let chosen =
            runner.try_probe_interval_warmup(&trace, CoreConfig::eole_4_64(), k).unwrap();
        assert!(candidates.contains(&chosen), "k={k}: {chosen} is no candidate of {candidates:?}");
        assert_eq!(chosen, pinned, "k={k}: probed window moved");
    }
}

/// Interval-tagged run keys never collide with serial keys: the tag
/// participates in the digest, the file stem, and the payload.
#[test]
fn interval_keys_are_distinct_from_serial_keys() {
    let runner = Runner::quick();
    let spec = RunSpec {
        config: CoreConfig::eole_6_64(),
        workload: workload_by_name("gzip").unwrap(),
        runner,
        seed: 0,
    };
    let serial = RunKey::of(&spec);
    let tagged = RunKey::of_intervals(&spec, IntervalPolicy { k: 4, warmup: 1_000 });
    assert_eq!(serial.intervals, 0);
    assert_eq!(tagged.intervals, 4);
    assert_ne!(serial.digest64(), tagged.digest64(), "tag must change the digest");
    assert!(!serial.file_stem().contains("_i"), "serial stems carry no tag");
    assert!(tagged.file_stem().contains("_i4-1000"), "{}", tagged.file_stem());
    // Different k or W are different digests too (different approximations).
    let other = RunKey::of_intervals(&spec, IntervalPolicy { k: 8, warmup: 1_000 });
    assert_ne!(tagged.digest64(), other.digest64());

    // Store round-trip: a result saved under the tagged key is invisible
    // to the serial key and vice versa.
    let store = MemStore::new();
    let stats = SimStats { cycles: 7, committed: 42, ..SimStats::default() };
    store.save(&tagged, &stats).unwrap();
    assert!(store.load(&serial).is_none(), "serial lookup must miss the tagged result");
    let back = store.load(&tagged).expect("tagged lookup hits");
    assert_eq!(back.cycles, 7);
    assert_eq!(back.committed, 42);
}

/// The session's interval path: grid results equal the library-level
/// stitch, results keep grid order, and a warm store serves the repeat
/// grid with zero simulations — under the interval-tagged keys.
#[test]
fn executor_interval_path_matches_library_stitch_and_caches() {
    let runner = Runner::quick();
    let policy = IntervalPolicy::of(4, &runner);
    let grid = Grid::new()
        .runner(runner)
        .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_6_64()])
        .workload_names(&["gzip", "namd"]);
    let store: Arc<dyn ResultStore> = Arc::new(MemStore::new());
    let session = Session::builder()
        .runner(runner)
        .threads(3)
        .intervals(4)
        .store(Arc::clone(&store))
        .build()
        .unwrap();
    assert_eq!(session.intervals(), Some(policy));
    let results = session.run(&grid);
    assert_eq!(results.len(), 4);
    assert_eq!(session.simulated(), 4);
    for (r, spec) in results.iter().zip(grid.specs()) {
        assert_eq!(r.spec.label(), spec.label(), "stitched results keep grid order");
        let got = r.stats().expect("stitched run succeeds");
        let trace = runner.try_prepare(&spec.workload).unwrap();
        let (want, _) = runner.try_run_intervals(&trace, spec.effective_config(), policy).unwrap();
        assert_same_stats(got, &want, &spec.label());
    }
    // Warm repeat: all four cells come from the store under tagged keys.
    let warm = Session::builder()
        .runner(runner)
        .threads(2)
        .intervals(4)
        .store(Arc::clone(&store))
        .build()
        .unwrap();
    let again = warm.run(&grid);
    assert_eq!(warm.simulated(), 0, "warm store serves every stitched cell");
    assert_eq!(warm.store_hits(), 4);
    for (a, b) in results.iter().zip(&again) {
        assert_same_stats(a.stats().unwrap(), b.stats().unwrap(), &a.spec.label());
    }
    // A serial session over the same grid must NOT see the stitched
    // results (tagged keys are invisible to serial lookups).
    let serial = Session::builder()
        .runner(runner)
        .threads(2)
        .store(Arc::clone(&store))
        .build()
        .unwrap();
    serial.run(&grid);
    assert_eq!(serial.store_hits(), 0, "serial keys must miss stitched results");
    assert_eq!(serial.simulated(), 4);
}

/// `(cycles, committed, squashed)` of one stitched run.
type Fingerprint = (u64, u64, u64);

/// `(config, workload, k, fingerprint)` of every
/// quick-suite stitch at the default warmup window, as the
/// replay-from-zero stitch produced them. Checkpoint restore is
/// bit-identical to that replay, so the checkpointed path must keep
/// reproducing these exactly.
const STITCHED_FINGERPRINTS: [(&str, &str, u32, Fingerprint); 40] = [
    ("Baseline_6_64", "gzip", 2, (12689, 25000, 0)),
    ("Baseline_6_64", "gzip", 8, (12689, 25000, 0)),
    ("Baseline_VP_6_64", "gzip", 2, (12543, 25000, 0)),
    ("Baseline_VP_6_64", "gzip", 8, (12543, 25000, 0)),
    ("EOLE_6_64", "gzip", 2, (12277, 25000, 0)),
    ("EOLE_6_64", "gzip", 8, (12277, 25000, 0)),
    ("EOLE_4_64_4ports_4banks", "gzip", 2, (13229, 25000, 0)),
    ("EOLE_4_64_4ports_4banks", "gzip", 8, (13227, 25000, 0)),
    ("Baseline_6_64", "h264", 2, (13204, 25000, 0)),
    ("Baseline_6_64", "h264", 8, (13204, 25000, 0)),
    ("Baseline_VP_6_64", "h264", 2, (13213, 25000, 0)),
    ("Baseline_VP_6_64", "h264", 8, (13213, 25000, 0)),
    ("EOLE_6_64", "h264", 2, (13239, 25000, 0)),
    ("EOLE_6_64", "h264", 8, (13239, 25000, 0)),
    ("EOLE_4_64_4ports_4banks", "h264", 2, (14415, 25000, 0)),
    ("EOLE_4_64_4ports_4banks", "h264", 8, (14415, 25000, 0)),
    ("Baseline_6_64", "mcf", 2, (493566, 25000, 0)),
    ("Baseline_6_64", "mcf", 8, (493566, 25000, 0)),
    ("Baseline_VP_6_64", "mcf", 2, (493566, 25000, 0)),
    ("Baseline_VP_6_64", "mcf", 8, (493566, 25000, 0)),
    ("EOLE_6_64", "mcf", 2, (493566, 25000, 0)),
    ("EOLE_6_64", "mcf", 8, (493566, 25000, 0)),
    ("EOLE_4_64_4ports_4banks", "mcf", 2, (493566, 25000, 0)),
    ("EOLE_4_64_4ports_4banks", "mcf", 8, (493566, 25000, 0)),
    ("Baseline_6_64", "namd", 2, (31479, 25000, 0)),
    ("Baseline_6_64", "namd", 8, (31479, 25000, 0)),
    ("Baseline_VP_6_64", "namd", 2, (31220, 25000, 995)),
    ("Baseline_VP_6_64", "namd", 8, (31220, 25000, 995)),
    ("EOLE_6_64", "namd", 2, (30880, 25000, 311)),
    ("EOLE_6_64", "namd", 8, (30880, 25000, 311)),
    ("EOLE_4_64_4ports_4banks", "namd", 2, (30880, 25000, 311)),
    ("EOLE_4_64_4ports_4banks", "namd", 8, (30880, 25000, 311)),
    ("Baseline_6_64", "hmmer", 2, (14655, 25000, 0)),
    ("Baseline_6_64", "hmmer", 8, (14655, 25000, 0)),
    ("Baseline_VP_6_64", "hmmer", 2, (14681, 25000, 5507)),
    ("Baseline_VP_6_64", "hmmer", 8, (14681, 25000, 5507)),
    ("EOLE_6_64", "hmmer", 2, (14688, 25000, 5366)),
    ("EOLE_6_64", "hmmer", 8, (14688, 25000, 5366)),
    ("EOLE_4_64_4ports_4banks", "hmmer", 2, (14773, 25000, 5307)),
    ("EOLE_4_64_4ports_4banks", "hmmer", 8, (14773, 25000, 5307)),
];

/// Every quick-suite stitch reproduces its pinned fingerprint, and the
/// chained checkpoint sweep behind it does O(trace) functional work: one
/// trace prefix at most, one checkpoint built per piece, none loaded
/// (no cache is offered).
#[test]
fn stitched_fingerprints_match_the_pinned_table() {
    let runner = Runner::quick();
    for workload in QUICK_SUITE_WORKLOADS {
        let w = workload_by_name(workload).expect("suite workload");
        let trace = runner.try_prepare(&w).expect("trace");
        for config in &quick_suite_configs() {
            for k in [2u32, 8] {
                let policy = IntervalPolicy::of(k, &runner);
                let (s, sweep) = runner
                    .try_run_intervals(&trace, config.clone(), policy)
                    .expect("stitched");
                let label = format!("{}/{workload} k={k}", config.name);
                let want = STITCHED_FINGERPRINTS
                    .iter()
                    .find(|(c, wl, kk, _)| *c == config.name && *wl == workload && *kk == k)
                    .unwrap_or_else(|| panic!("{label}: no pinned row"))
                    .3;
                assert_eq!((s.cycles, s.committed, s.squashed), want, "{label}");
                // One trace prefix exactly: the sweep replays up to the
                // last checkpoint position and not a µ-op more.
                let last = *runner.warm_positions(policy).last().expect("k ≥ 1 positions");
                assert_eq!(sweep.swept, last, "{label}: sweep work must be one trace prefix");
                assert_eq!(sweep.built, k as usize, "{label}: one checkpoint per piece");
                assert_eq!(sweep.loaded, 0, "{label}: no cache was offered");
            }
        }
    }
}

/// The session's checkpoint cache: a cold stitched run builds and
/// publishes its checkpoints; a later run at a *different* k (whose
/// result keys therefore miss) re-serves the positions it shares —
/// [`eole_bench::WarmKey`] deliberately carries no k, so k=2's positions
/// are a subset of k=4's and its sweep rebuilds nothing.
#[test]
fn executor_checkpoint_sweep_caches_warm_state_across_k() {
    let runner = Runner::quick();
    let grid = Grid::new()
        .runner(runner)
        .configs([CoreConfig::eole_6_64()])
        .workload_names(&["gzip"]);
    let store: Arc<dyn ResultStore> = Arc::new(MemStore::new());
    let window = Some(10_000);
    let cold = Session::builder()
        .runner(runner)
        .threads(3)
        .intervals(4)
        .interval_warmup(window)
        .store(Arc::clone(&store))
        .build()
        .unwrap();
    let first = cold.run(&grid);
    assert_eq!(cold.warm_built(), 4, "cold sweep builds one checkpoint per piece");
    assert_eq!(cold.warm_loaded(), 0);
    assert_eq!(store.len(), 1, "checkpoints never count as result entries");

    let warm = Session::builder()
        .runner(runner)
        .threads(2)
        .intervals(2)
        .interval_warmup(window)
        .store(Arc::clone(&store))
        .build()
        .unwrap();
    let second = warm.run(&grid);
    assert_eq!(warm.store_hits(), 0, "k=2 result keys miss k=4 results");
    assert_eq!(warm.warm_loaded(), 2, "k=2 positions are a subset of k=4's");
    assert_eq!(warm.warm_built(), 0, "nothing to rebuild on a warm store");
    // Checkpoint-restored pieces produce the same stitch the library does.
    let spec = &grid.specs()[0];
    let trace = runner.try_prepare(&spec.workload).unwrap();
    let policy = IntervalPolicy { k: 2, warmup: 10_000 };
    let (want, _) = runner.try_run_intervals(&trace, spec.effective_config(), policy).unwrap();
    let got = second[0].stats().expect("stitched run succeeds");
    assert_eq!(got.cycles, want.cycles);
    assert_eq!(got.committed, want.committed);
    assert_eq!(got.squashed, want.squashed);
    assert_eq!(
        first[0].stats().unwrap().committed,
        got.committed,
        "both splits commit exactly the measurement window"
    );
}

/// A damaged checkpoint on disk degrades that position to functional
/// replay (the sweep rebuilds and republishes it) and is quarantined for
/// forensics — the stitched statistics are unaffected.
#[test]
fn corrupt_warm_checkpoint_degrades_to_replay_and_heals() {
    let dir = std::env::temp_dir().join(format!("eole-warm-degrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(DirStore::open(&dir).unwrap());
    let runner = Runner::quick();
    let grid = Grid::new()
        .runner(runner)
        .configs([CoreConfig::eole_6_64()])
        .workload_names(&["gzip"]);
    let window = Some(10_000);
    let cold = Session::builder()
        .runner(runner)
        .threads(2)
        .intervals(2)
        .interval_warmup(window)
        .store(Arc::clone(&store) as Arc<dyn ResultStore>)
        .build()
        .unwrap();
    cold.run(&grid);
    assert_eq!(cold.warm_built(), 2);

    // Flip one byte inside one checkpoint payload on disk.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(WARM_STEM_PREFIX) && n.ends_with(".bin"))
        })
        .expect("a checkpoint landed on disk");
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    // k=4 misses the k=2 result key, so its sweep re-reads checkpoints:
    // the damaged one is quarantined and rebuilt, the good one is served.
    let rerun = Session::builder()
        .runner(runner)
        .threads(2)
        .intervals(4)
        .interval_warmup(window)
        .store(Arc::clone(&store) as Arc<dyn ResultStore>)
        .build()
        .unwrap();
    let results = rerun.run(&grid);
    assert_eq!(rerun.warm_loaded(), 1, "the undamaged checkpoint is served");
    assert_eq!(rerun.warm_built(), 3, "the damaged one is rebuilt, plus k=4's new positions");
    assert_eq!(store.quarantined_count(), 1, "damage is quarantined, not silently retried");
    assert!(
        victim.with_extension("quarantined").exists(),
        "the damaged payload is renamed aside for forensics"
    );
    assert!(victim.exists(), "the rebuilt checkpoint is republished at the same path (self-heal)");

    let spec = &grid.specs()[0];
    let trace = runner.try_prepare(&spec.workload).unwrap();
    let policy = IntervalPolicy { k: 4, warmup: 10_000 };
    let (want, _) = runner.try_run_intervals(&trace, spec.effective_config(), policy).unwrap();
    let got = results[0].stats().expect("degraded run still succeeds");
    assert_eq!(got.cycles, want.cycles, "statistics survive checkpoint damage untouched");
    assert_eq!(got.committed, want.committed);
    assert_eq!(got.squashed, want.squashed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The session JSON header advertises the interval policy (additive
/// field; serial sessions emit the unchanged v1 payload).
#[test]
fn session_json_header_carries_the_interval_tag() {
    let with = Session::builder()
        .runner(Runner { warmup: 11, measure: 22 })
        .intervals(3)
        .interval_warmup(Some(7))
        .build()
        .unwrap();
    let payload = with.render(&[], eole_bench::Format::Json);
    assert!(payload.contains("\"intervals\":{\"k\":3,\"warmup\":7}"), "{payload}");
    let without = Session::builder().runner(Runner { warmup: 11, measure: 22 }).build().unwrap();
    let payload = without.render(&[], eole_bench::Format::Json);
    assert!(!payload.contains("intervals"), "serial payloads must be byte-stable: {payload}");
}

/// `(workload, configuration, FNV-1a of capture_warm())`: every preset,
/// then the value-predictor kinds no preset uses swapped into
/// `EOLE_4_64`, each captured after `functional_warm(20_000)`.
const CHECKPOINT_DIGESTS: [(&str, &str, u64); 36] = [
    ("gzip", "Baseline_6_64", 0xfeef_ad55_d515_7e28),
    ("gzip", "Baseline_VP_6_64", 0x6990_8fe1_9f16_ef09),
    ("gzip", "Baseline_VP_4_64", 0x6990_8fe1_9f16_ef09),
    ("gzip", "Baseline_VP_6_48", 0x6990_8fe1_9f16_ef09),
    ("gzip", "EOLE_6_64", 0x6990_8fe1_9f16_ef09),
    ("gzip", "EOLE_4_64", 0x6990_8fe1_9f16_ef09),
    ("gzip", "EOLE_6_48", 0x6990_8fe1_9f16_ef09),
    ("gzip", "EOLE_4_64_4banks", 0x6990_8fe1_9f16_ef09),
    ("gzip", "EOLE_4_64_4ports_4banks", 0x6990_8fe1_9f16_ef09),
    ("gzip", "OLE_4_64_4ports_4banks", 0x6990_8fe1_9f16_ef09),
    ("gzip", "EOE_4_64_4ports_4banks", 0x6990_8fe1_9f16_ef09),
    ("gzip", "Baseline_DVTAGE_6_64", 0xc23a_877a_e665_3a5f),
    ("gzip", "EOLE_DVTAGE_4_64", 0xc23a_877a_e665_3a5f),
    ("gzip", "EOLE_4_64+LastValue", 0x52b6_2f27_adf7_0d27),
    ("gzip", "EOLE_4_64+Stride", 0xbc95_0cc8_7f99_4343),
    ("gzip", "EOLE_4_64+TwoDeltaStride", 0x526e_2eb0_9705_49d9),
    ("gzip", "EOLE_4_64+Fcm", 0xd730_d828_2b9c_becc),
    ("gzip", "EOLE_4_64+Vtage", 0x5e33_591a_b6dc_bef4),
    ("mcf", "Baseline_6_64", 0x5c61_db35_7407_c461),
    ("mcf", "Baseline_VP_6_64", 0x2986_7420_c1cc_de64),
    ("mcf", "Baseline_VP_4_64", 0x2986_7420_c1cc_de64),
    ("mcf", "Baseline_VP_6_48", 0x2986_7420_c1cc_de64),
    ("mcf", "EOLE_6_64", 0x2986_7420_c1cc_de64),
    ("mcf", "EOLE_4_64", 0x2986_7420_c1cc_de64),
    ("mcf", "EOLE_6_48", 0x2986_7420_c1cc_de64),
    ("mcf", "EOLE_4_64_4banks", 0x2986_7420_c1cc_de64),
    ("mcf", "EOLE_4_64_4ports_4banks", 0x2986_7420_c1cc_de64),
    ("mcf", "OLE_4_64_4ports_4banks", 0x2986_7420_c1cc_de64),
    ("mcf", "EOE_4_64_4ports_4banks", 0x2986_7420_c1cc_de64),
    ("mcf", "Baseline_DVTAGE_6_64", 0x270f_792e_2c89_c8f1),
    ("mcf", "EOLE_DVTAGE_4_64", 0x270f_792e_2c89_c8f1),
    ("mcf", "EOLE_4_64+LastValue", 0xf83d_f0c6_fc60_701b),
    ("mcf", "EOLE_4_64+Stride", 0x1a75_9169_cd47_bcb9),
    ("mcf", "EOLE_4_64+TwoDeltaStride", 0xf339_6c9f_fc62_021d),
    ("mcf", "EOLE_4_64+Fcm", 0x83bb_41ad_bd77_14cd),
    ("mcf", "EOLE_4_64+Vtage", 0x0ea6_b7e4_7974_a0f0),
];

/// Pins the checkpoint bytes of every checkpointed table (TAGE, BTB, RAS,
/// each value-predictor kind, the caches, MSHRs, DRAM and prefetcher).
/// A restore round trip passes for any self-consistent layout; stored
/// checkpoints restore only if the layout itself does not move. Every
/// stored entry must also fit one `eole-stored` frame.
#[test]
fn checkpoint_bytes_are_pinned() {
    use eole_bench::store::WARM_HEADER_LEN;
    use eole_core::canon::Fnv64;
    use eole_core::config::ValuePredictorKind;
    use eole_core::pipeline::Simulator;
    use eole_store_service::MAX_FRAME;

    let mut configs = CoreConfig::all_presets();
    for kind in [
        ValuePredictorKind::LastValue,
        ValuePredictorKind::Stride,
        ValuePredictorKind::TwoDeltaStride,
        ValuePredictorKind::Fcm,
        ValuePredictorKind::Vtage,
    ] {
        let mut c = CoreConfig::eole_4_64();
        c.vp.as_mut().expect("EOLE_4_64 predicts values").kind = kind;
        c.name = format!("EOLE_4_64+{kind:?}");
        configs.push(c);
    }
    let runner = Runner::quick();
    let mut got = Vec::new();
    for workload in ["gzip", "mcf"] {
        let trace = runner.try_prepare(&workload_by_name(workload).expect("kernel")).expect("trace");
        for config in &configs {
            let mut sim = Simulator::new(&trace, config.clone()).expect("preset builds");
            sim.functional_warm(20_000);
            let state = sim.capture_warm();
            let entry = WARM_HEADER_LEN + state.len();
            assert!(entry <= MAX_FRAME, "{workload} {}: {entry}-byte entry", config.name);
            let mut h = Fnv64::new();
            h.write(state.as_bytes());
            got.push((workload, config.name.clone(), h.finish()));
        }
    }
    let want: Vec<(&str, String, u64)> =
        CHECKPOINT_DIGESTS.iter().map(|&(w, n, d)| (w, n.to_string(), d)).collect();
    let table: Vec<String> =
        got.iter().map(|(w, n, d)| format!("(\"{w}\", \"{n}\", {d:#018x}),")).collect();
    assert!(got == want, "checkpoint bytes moved; the current table:\n{}", table.join("\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The stitching contract under random (K, W, runner): stitched
    /// committed counts equal the exact-boundary serial run's and
    /// squashed counts stay within the budget, for a VP-heavy config on
    /// the suite's worst squasher (hmmer) and a VP-less baseline on gzip.
    #[test]
    fn stitched_counts_equal_serial_for_random_k_w_and_runner(
        k in 1u32..9,
        warmup_window in 500u64..4_000,
        warmup in 1_000u64..4_000,
        measure in 2_000u64..10_000,
        vp in any::<bool>(),
    ) {
        let runner = Runner { warmup, measure };
        let policy = IntervalPolicy { k, warmup: warmup_window };
        let (config, workload) = if vp {
            (CoreConfig::eole_6_64(), "hmmer")
        } else {
            (CoreConfig::baseline_6_64(), "gzip")
        };
        let (stitched, serial) = stitched_and_serial(runner, &config, workload, policy);
        prop_assert_eq!(stitched.committed, serial.committed);
        prop_assert_eq!(stitched.committed, measure);
        prop_assert!(relative_error(stitched.squashed, serial.squashed) <= INTERVAL_CYCLE_BUDGET);
    }
}
