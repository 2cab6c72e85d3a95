//! Canonical run identity, end to end.
//!
//! Covers the contracts the result-caching redesign leans on:
//!
//! * **Digest stability** — known configurations map to known hex digests
//!   forever (goldens below; a diff here means either the canonical
//!   format marker was bumped intentionally, or identity silently broke).
//! * **Digest sensitivity** — every builder setter changes the digest
//!   (proptest-style sweep), so no configuration axis can alias another
//!   in the store.
//! * **Shard determinism** — an `n`-way partition of a grid is disjoint,
//!   covers the grid, and is independent of thread counts and processes.
//! * **`DirStore` behavior** — hit/miss/corrupt-file recovery, and the
//!   headline property: a sharded populate + merged read-back produces
//!   results identical to an unsharded run while simulating nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eole_bench::{
    DirStore, Grid, MemStore, ResultStore, RunKey, RunSpec, Runner, Session, SessionBuilder, Shard,
};
use eole_core::canon::SIM_FINGERPRINT_VERSION;
use eole_core::config::{CoreConfig, EoleConfig, FuConfig, ValuePredictorKind, VpConfig};
use proptest::prelude::*;

// ---- digest stability -----------------------------------------------------

/// Golden content digests of the presets under the canonical
/// serialization format `eole-core-config/v2` (v2 added the `VpConfig`
/// block-front fields — block size, banks, speculative-window bound —
/// in PR 5; the v1 table was regenerated with
/// `fingerprints --digests`, as the format-bump protocol requires).
///
/// These must never drift: `DirStore` filenames embed them, so a silent
/// digest change would orphan every stored result while claiming a cache
/// miss. Changing the canonical format is allowed — bump the format
/// marker in `eole_core::canon`, regenerate this table, and say so in
/// the PR.
#[rustfmt::skip]
const GOLDEN_DIGESTS: [(&str, &str); 13] = [
    ("Baseline_6_64", "08fc4b38732fe42c"),
    ("Baseline_VP_6_64", "07bfd3568c8e3d29"),
    ("Baseline_VP_4_64", "3da6b6251695ff0d"),
    ("Baseline_VP_6_48", "f8d911f3c644591f"),
    ("EOLE_6_64", "2f60b433787cc2e3"),
    ("EOLE_4_64", "e4ad4e528af13c3f"),
    ("EOLE_6_48", "0b47a243af6fbd45"),
    ("EOLE_4_64_4banks", "68acbfe662d96405"),
    ("EOLE_4_64_4ports_4banks", "33800ff968d7b7a9"),
    ("OLE_4_64_4ports_4banks", "b94ed7297c65ff4c"),
    ("EOE_4_64_4ports_4banks", "da3e259796cc6217"),
    ("Baseline_DVTAGE_6_64", "b23ab8218f6ed9ee"),
    ("EOLE_DVTAGE_4_64", "36778713a5e0277a"),
];

#[test]
fn preset_digests_match_the_goldens() {
    let presets = CoreConfig::all_presets();
    assert_eq!(presets.len(), GOLDEN_DIGESTS.len());
    for (config, (name, hex)) in presets.iter().zip(GOLDEN_DIGESTS) {
        assert_eq!(config.name, name);
        assert_eq!(
            config.digest_hex(),
            hex,
            "{name}: canonical digest drifted — stored results would be orphaned"
        );
    }
}

#[test]
fn sim_fingerprint_version_is_pinned() {
    // Bumping this constant is a deliberate act (cycle behavior changed,
    // golden fingerprints regenerated); this test makes the bump show up
    // in the diff of a second file, PERF.md-style.
    assert_eq!(SIM_FINGERPRINT_VERSION, 1);
}

// ---- digest sensitivity: every builder setter ------------------------------

/// Every fluent setter of `CoreConfigBuilder`, as (name, mutation) pairs
/// over a valid baseline. Each must move the digest.
fn setter_mutations() -> Vec<(&'static str, CoreConfig)> {
    let b = || CoreConfig::baseline_vp_6_64().to_builder();
    vec![
        ("name", b().name("renamed").build().unwrap()),
        ("issue_width", b().issue_width(5).build().unwrap()),
        ("iq", b().iq(63).build().unwrap()),
        ("rob", b().rob(191).build().unwrap()),
        ("lsq", b().lsq(47, 48).build().unwrap()),
        ("front_width", b().front_width(7).build().unwrap()),
        ("prf", b().prf(256, 192).build().unwrap()),
        ("prf_banks", b().prf_banks(2).build().unwrap()),
        ("frontend_depth", b().frontend_depth(14).build().unwrap()),
        ("vp", {
            let vp = VpConfig { kind: ValuePredictorKind::Vtage, seed: 1, ..VpConfig::paper() };
            b().vp(vp).build().unwrap()
        }),
        ("vp_kind", b().vp_kind(ValuePredictorKind::Stride).build().unwrap()),
        ("vp_dvtage", b().vp_kind(ValuePredictorKind::DVtage).build().unwrap()),
        ("vp_block", b().vp_block(4, 4).build().unwrap()),
        ("vp_block_banks", b().vp_block(1, 4).build().unwrap()),
        ("vp_spec_window", b().vp_spec_window(Some(32)).build().unwrap()),
        ("no_vp", b().no_vp().build().unwrap()),
        ("eole", b().eole(EoleConfig { early: true, ..EoleConfig::off() }).build().unwrap()),
        ("eole_full", b().eole_full().build().unwrap()),
        ("ee_stages", b().eole_full().ee_stages(2).build().unwrap()),
        ("levt_ports", b().eole_full().levt_ports(Some(3)).build().unwrap()),
        ("ee_writes_per_bank", b().eole_full().ee_writes_per_bank(Some(2)).build().unwrap()),
        ("fu", {
            let mut fu = FuConfig::paper();
            fu.int_alu = 5;
            b().fu(fu).build().unwrap()
        }),
        ("mem", {
            let mut mem = eole_mem::hierarchy::HierarchyConfig::paper();
            mem.l1d.latency = 3;
            b().mem(mem).build().unwrap()
        }),
        ("branch_seed", b().branch_seed(0x1234).build().unwrap()),
        ("levt_depth_override", b().levt_depth_override(Some(0)).build().unwrap()),
    ]
}

#[test]
fn every_builder_setter_changes_the_digest() {
    let base = CoreConfig::baseline_vp_6_64();
    let mut seen = vec![(String::from("base"), base.digest())];
    for (setter, mutated) in setter_mutations() {
        let digest = mutated.digest();
        assert_ne!(digest, base.digest(), "setter `{setter}` did not change the digest");
        // Pairwise distinct, too: no two single-setter mutations alias.
        for (other, d) in &seen {
            assert_ne!(digest, *d, "`{setter}` collides with `{other}`");
        }
        seen.push((setter.to_string(), digest));
    }
}

proptest! {
    /// Randomized sweep over the numeric setters: any drawn change to a
    /// numeric axis moves the digest, and equal inputs produce equal
    /// digests (identity is value-based, never pointer/hash-state-based).
    #[test]
    fn numeric_setters_perturb_the_digest(
        (width, iq, rob, depth, seed) in (1usize..8, 16usize..128, 64u64..512, 5u64..25, 0u64..1u64<<40)
    ) {
        let base = CoreConfig::baseline_vp_6_64();
        let derived = base.clone().to_builder()
            .issue_width(width)
            .iq(iq)
            .rob(rob as usize)
            .frontend_depth(depth)
            .branch_seed(seed)
            .build()
            .unwrap();
        let twin = base.clone().to_builder()
            .issue_width(width)
            .iq(iq)
            .rob(rob as usize)
            .frontend_depth(depth)
            .branch_seed(seed)
            .build()
            .unwrap();
        prop_assert_eq!(derived.digest(), twin.digest());
        let differs = width != base.issue_width
            || iq != base.iq_entries
            || rob as usize != base.rob_entries
            || depth != base.frontend_depth
            || seed != base.branch_seed;
        prop_assert_eq!(derived.digest() != base.digest(), differs);
    }
}

// ---- shard determinism over a real grid -----------------------------------

fn small_grid() -> Grid {
    Grid::new()
        .runner(Runner::quick())
        .configs([
            CoreConfig::baseline_6_64(),
            CoreConfig::baseline_vp_6_64(),
            CoreConfig::eole_4_64(),
        ])
        .workload_names(&["gzip", "namd", "mcf"])
}

/// A quick-methodology session over `threads` workers.
fn session(threads: usize) -> SessionBuilder {
    Session::builder().runner(Runner::quick()).threads(threads)
}

#[test]
fn shard_partitions_are_disjoint_cover_the_grid_and_ignore_thread_counts() {
    let grid = small_grid();
    let keys: Vec<RunKey> = grid.specs().iter().map(RunSpec::run_key).collect();
    for n in [1usize, 2, 3, 4, 7] {
        for key in &keys {
            let owners: Vec<usize> = (1..=n)
                .filter(|&k| Shard::new(k, n).unwrap().owns(key))
                .collect();
            assert_eq!(owners.len(), 1, "n={n}: {key:?} needs exactly one owner");
        }
    }
    // Thread counts affect scheduling, never ownership: run each shard
    // with different worker counts and check the same cells simulated.
    for k in 1..=2 {
        let shard = Shard::new(k, 2).unwrap();
        let expected: Vec<String> =
            grid.specs().iter().filter(|s| shard.owns_spec(s)).map(RunSpec::label).collect();
        for threads in [1usize, 4] {
            let ran: Vec<String> = session(threads)
                .shard(shard)
                .build()
                .unwrap()
                .run(&grid)
                .iter()
                .filter(|r| r.stats().is_ok())
                .map(|r| r.spec.label())
                .collect();
            assert_eq!(ran, expected, "shard {k}/2 with {threads} threads");
        }
    }
}

// ---- DirStore -------------------------------------------------------------

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "eole-run-identity-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

#[test]
fn dir_store_hit_miss_and_corrupt_file_recovery() {
    let dir = temp_store_dir("recovery");
    let store = DirStore::open(&dir).unwrap();
    let spec = RunSpec {
        config: CoreConfig::baseline_6_64(),
        workload: eole_workloads::workload_by_name("gzip").unwrap(),
        runner: Runner::quick(),
        seed: 0,
    };
    let key = spec.run_key();
    // Miss on an empty store.
    assert!(store.load(&key).is_none());
    assert_eq!((store.hits(), store.misses(), store.corrupt()), (0, 1, 0));
    // Save + hit.
    let stats = eole_core::stats::SimStats { cycles: 123, committed: 456, ..Default::default() };
    store.save(&key, &stats).unwrap();
    assert_eq!(store.len(), 1);
    let back = store.load(&key).expect("stored entry must hit");
    assert_eq!((back.cycles, back.committed), (123, 456));
    assert_eq!(store.hits(), 1);
    // Corrupt the file on disk: the entry degrades to a miss...
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.path().extension().is_some_and(|x| x == "json"))
        .unwrap()
        .path();
    std::fs::write(&file, "{ not json").unwrap();
    assert!(store.load(&key).is_none(), "corrupt entries are misses, not errors");
    assert_eq!(store.corrupt(), 1);
    // ...and the next save overwrites it cleanly.
    store.save(&key, &stats).unwrap();
    assert_eq!(store.load(&key).unwrap().cycles, 123);
    // A payload for a *different* key at the same path is also a miss
    // (belt-and-braces: the payload self-identifies).
    let mut other = spec.clone();
    other.seed = 9;
    let other_key = other.run_key();
    std::fs::copy(&file, dir.join(format!("{}.json", other_key.file_stem()))).unwrap();
    assert!(store.load(&other_key).is_none(), "foreign payloads must not be served");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stored_results_are_keyed_by_sim_version() {
    // A key with a different sim_version must not see entries written
    // under the current one — the "bump invalidates the store" contract.
    let dir = temp_store_dir("simver");
    let store = DirStore::open(&dir).unwrap();
    let spec = RunSpec {
        config: CoreConfig::baseline_6_64(),
        workload: eole_workloads::workload_by_name("gzip").unwrap(),
        runner: Runner::quick(),
        seed: 0,
    };
    let key = spec.run_key();
    store.save(&key, &Default::default()).unwrap();
    let bumped = RunKey { sim_version: key.sim_version + 1, ..key.clone() };
    assert_ne!(key.file_stem(), bumped.file_stem());
    assert!(store.load(&bumped).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

// ---- the headline property ------------------------------------------------

/// Shard-populate into a `DirStore`, then read the whole grid back
/// merged: the merged results are identical to a fresh unsharded run and
/// cost zero simulations. This is the in-process twin of the CI step
/// that byte-compares `results.json` payloads across processes.
#[test]
fn sharded_populate_plus_merge_equals_unsharded_run_with_zero_sims() {
    let grid = small_grid();
    let fresh = session(4).build().unwrap().run(&grid);

    let dir = temp_store_dir("merge");
    // Populate: each shard in its own session (own process, morally).
    for k in 1..=2 {
        let store: Arc<dyn ResultStore> = Arc::new(DirStore::open(&dir).unwrap());
        let populate =
            session(2).store(store).shard(Shard::new(k, 2).unwrap()).build().unwrap();
        let results = populate.run(&grid);
        let ok = results.iter().filter(|r| r.stats().is_ok()).count();
        // Successes are either this shard's own simulations or cells the
        // earlier shard already put in the shared store.
        assert_eq!(
            ok,
            populate.simulated() + populate.store_hits(),
            "shard {k}: successes = own sims + store hits"
        );
        assert!(populate.simulated() > 0, "shard {k} owns a non-empty slice of this grid");
    }
    // Merge: unsharded session over a warm store.
    let store: Arc<dyn ResultStore> = Arc::new(DirStore::open(&dir).unwrap());
    let warm = session(4).store(store).build().unwrap();
    let merged = warm.run(&grid);
    assert_eq!(warm.simulated(), 0, "a warm store serves the whole grid");
    assert_eq!(warm.store_hits(), grid.len());
    assert_eq!(warm.cache().generated(), 0, "no traces needed either");
    for (a, b) in fresh.iter().zip(&merged) {
        assert_eq!(a.spec.label(), b.spec.label());
        let (sa, sb) = (a.stats().unwrap(), b.stats().unwrap());
        assert_eq!(
            format!("{sa:?}"),
            format!("{sb:?}"),
            "{}: stored result must equal the fresh one on every counter",
            a.spec.label()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The MemStore path used for in-process dedup behaves like DirStore for
/// the session (hit counters, zero re-simulation).
#[test]
fn mem_store_dedups_repeat_grids() {
    let store: Arc<dyn ResultStore> = Arc::new(MemStore::new());
    let grid = Grid::new()
        .runner(Runner::quick())
        .config(CoreConfig::baseline_6_64())
        .workload_names(&["gzip"]);
    let session = session(1).store(Arc::clone(&store)).build().unwrap();
    session.run(&grid);
    session.run(&grid);
    assert_eq!(session.simulated(), 1);
    assert_eq!(session.store_hits(), 1);
    assert_eq!(store.len(), 1);
}

/// Concurrent-writer hammer: several `DirStore` instances over the *same*
/// directory (the multi-process shape — e.g. two sharded sessions, or an
/// `eole-stored` daemon sharing its directory with a local `--store DIR`
/// run) write the same keys from many threads at once. Temp names carry
/// pid + a process-global counter, so instances can never collide on a
/// temp file; rename is atomic, so every read observes a complete payload
/// — never a torn one — and no stray `.tmp` litter survives.
#[test]
fn dir_store_survives_a_concurrent_writer_hammer() {
    let dir = temp_store_dir("hammer");
    let stores: Vec<DirStore> = (0..3).map(|_| DirStore::open(&dir).unwrap()).collect();
    let base = RunSpec {
        config: CoreConfig::baseline_6_64(),
        workload: eole_workloads::workload_by_name("gzip").unwrap(),
        runner: Runner::quick(),
        seed: 0,
    };
    let keys: Vec<RunKey> = (0..4)
        .map(|seed| {
            let mut spec = base.clone();
            spec.seed = seed;
            spec.run_key()
        })
        .collect();
    let rounds = 25;
    std::thread::scope(|scope| {
        // 3 instances × 4 threads each, all hammering all 4 keys.
        for (instance, store) in stores.iter().enumerate() {
            for thread in 0..4 {
                let keys = &keys;
                scope.spawn(move || {
                    for round in 0..rounds {
                        for key in keys {
                            let stats = eole_core::stats::SimStats {
                                cycles: (instance * 1000 + thread * 100 + round) as u64 + 1,
                                committed: key.seed + 1,
                                ..Default::default()
                            };
                            store.save(key, &stats).unwrap();
                            // Interleave reads: anything loaded mid-hammer
                            // must be a complete, self-consistent payload.
                            if let Some(back) = store.load(key) {
                                assert_eq!(back.committed, key.seed + 1, "torn payload");
                                assert!(back.cycles >= 1);
                            }
                        }
                    }
                });
            }
        }
    });
    // Every key holds exactly one complete entry; no temp litter remains.
    let reader = DirStore::open(&dir).unwrap();
    assert_eq!(reader.len(), keys.len());
    for key in &keys {
        assert_eq!(reader.load(key).unwrap().committed, key.seed + 1);
    }
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "temp files must be consumed by rename: {stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}
