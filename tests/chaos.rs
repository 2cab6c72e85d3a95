//! Session-level chaos: seeded deterministic fault injection against
//! real (quick-methodology) simulations.
//!
//! The contracts under test, end to end:
//!
//! * **Crash isolation** — an injected panic inside one run's simulation
//!   surfaces as a typed [`RunError::Panicked`] for that run only;
//!   sibling runs complete with byte-identical statistics and the worker
//!   pool survives — for serial and interval-stitched runs alike.
//! * **Deadline watchdog** — a run that outlives the session's per-run
//!   budget fails typed ([`RunError::Deadline`]), never silently slow —
//!   serial or stitched.
//! * **Quarantine self-healing** — a damaged `DirStore` entry is set
//!   aside as `<stem>.quarantined`, transparently re-simulated, and the
//!   healed store serves bytes identical to a never-damaged one.
//! * **Replay determinism** — the same `(plan, seed)` fires the same
//!   faults at the same runs regardless of thread count.
//! * **Closure under random plans** (proptest) — any random schedule of
//!   faults yields exactly N outcomes, each `Ok` or a typed error, and
//!   every survivor matches the fault-free baseline counter for counter.
//!
//! The injector is process-global: every test serializes through
//! [`faults::install_guarded`] (RAII — uninstalls on drop), and
//! fault-free baselines are computed inside the guard with the plan
//! temporarily uninstalled.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eole_bench::faults::{self, FaultPlan};
use eole_bench::{
    DirStore, Grid, ResultStore, RunError, RunResult, Runner, Session, SessionBuilder, StoreError,
};
use eole_core::config::CoreConfig;
use proptest::prelude::*;

fn small_grid() -> Grid {
    Grid::new()
        .runner(Runner::quick())
        .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()])
        .workload_names(&["gzip", "mcf"])
}

/// A quick-methodology session over `threads` workers.
fn session(threads: usize) -> SessionBuilder {
    Session::builder().runner(Runner::quick()).threads(threads)
}

/// Both kinds of run: serial, and stitched from 4 intervals.
const INTERVAL_COUNTS: [u32; 2] = [0, 4];

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "eole-chaos-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Debug-renders every outcome (stats carry no `PartialEq`; Debug covers
/// every counter, so equal strings mean equal statistics).
fn outcome_fingerprints(results: &[RunResult]) -> Vec<Result<String, String>> {
    results
        .iter()
        .map(|r| match &r.outcome {
            Ok(stats) => Ok(format!("{stats:?}")),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

#[test]
fn injected_panic_is_isolated_to_its_run() {
    let grid = small_grid();
    // Serialize with other fault tests, then compute the fault-free
    // baseline with the plan temporarily uninstalled.
    let _guard = faults::install_guarded(FaultPlan::parse("sim.panic@1,seed=1").unwrap());
    for k in INTERVAL_COUNTS {
        faults::install(None);
        let baseline =
            outcome_fingerprints(&session(2).intervals(k).build().unwrap().run(&grid));

        // `sim.panic` is keyed by stable grid index, so run #1 crashes at
        // any thread count (and, stitched, in every piece) while every
        // sibling completes identically.
        for threads in [1usize, 2, 4] {
            faults::install(Some(FaultPlan::parse("sim.panic@1,seed=1").unwrap()));
            let results = session(threads).intervals(k).build().unwrap().run(&grid);
            let at = format!("k={k} threads={threads}");
            assert_eq!(results.len(), grid.len(), "{at}: every run has an outcome");
            for (i, (r, base)) in results.iter().zip(&baseline).enumerate() {
                if i == 1 {
                    match &r.outcome {
                        Err(RunError::Panicked { message, .. }) => {
                            assert!(message.contains("injected fault: sim.panic"), "{message}");
                        }
                        other => panic!("{at}: run 1 must be Panicked, got {other:?}"),
                    }
                } else {
                    let stats = format!("{:?}", r.outcome.as_ref().expect("sibling must survive"));
                    assert_eq!(&Ok(stats), base, "{at}: sibling {i} drifted");
                }
            }
        }
    }
}

#[test]
fn deadline_watchdog_fails_overrunning_runs_typed() {
    let grid = Grid::new()
        .runner(Runner::quick())
        .config(CoreConfig::baseline_6_64())
        .workload_names(&["gzip"]);
    for k in INTERVAL_COUNTS {
        // A 1 ms budget: any real simulation (or interval piece) overruns
        // it, deterministically.
        let budget = Some(Duration::from_millis(1));
        let results = session(1).intervals(k).run_deadline(budget).build().unwrap().run(&grid);
        match &results[0].outcome {
            Err(RunError::Deadline { elapsed_ms, budget_ms, .. }) => {
                assert_eq!(*budget_ms, 1);
                assert!(*elapsed_ms >= 1, "k={k}: elapsed {elapsed_ms} ms must be over the budget");
            }
            other => panic!("k={k}: a 1 ms budget must fail the run typed, got {other:?}"),
        }
        // A generous budget never fires.
        let budget = Some(Duration::from_secs(600));
        let results = session(1).intervals(k).run_deadline(budget).build().unwrap().run(&grid);
        assert!(results[0].outcome.is_ok(), "k={k}: {:?}", results[0].outcome);
    }
}

#[test]
fn quarantined_entry_self_heals_to_byte_identity() {
    let grid = small_grid();
    let dir = temp_store_dir("self-heal");
    let _guard = faults::install_guarded(FaultPlan::parse("dir.load.corrupt@0,seed=3").unwrap());
    faults::install(None);

    // Warm the store fault-free and keep the baseline.
    let store: Arc<dyn ResultStore> = Arc::new(DirStore::open(&dir).unwrap());
    let baseline = outcome_fingerprints(&session(2).store(store).build().unwrap().run(&grid));

    // Second pass with the fault armed: the first successful read off
    // disk is damaged in flight, quarantined, and re-simulated — the
    // results must still match the baseline byte for byte.
    faults::install(Some(FaultPlan::parse("dir.load.corrupt@0,seed=3").unwrap()));
    let store = Arc::new(DirStore::open(&dir).unwrap());
    let pass = session(2).store(Arc::<DirStore>::clone(&store)).build().unwrap();
    let healed = outcome_fingerprints(&pass.run(&grid));
    assert_eq!(healed, baseline, "self-healed results must be identical");
    assert_eq!(store.quarantined_count(), 1, "exactly one entry was damaged");
    assert_eq!(pass.simulated(), 1, "exactly one re-simulation healed it");
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "the damaged file is kept for forensics");

    // Third pass, faults off: the healed store serves everything.
    faults::install(None);
    let store = Arc::new(DirStore::open(&dir).unwrap());
    let pass = session(2).store(Arc::<DirStore>::clone(&store)).build().unwrap();
    let warm = outcome_fingerprints(&pass.run(&grid));
    assert_eq!(warm, baseline);
    assert_eq!(pass.simulated(), 0, "the healed store is fully warm");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_save_failure_is_a_typed_store_error() {
    let grid = Grid::new()
        .runner(Runner::quick())
        .config(CoreConfig::baseline_6_64())
        .workload_names(&["gzip"]);
    let dir = temp_store_dir("save-io");
    let _guard = faults::install_guarded(FaultPlan::parse("dir.save.io@0,seed=1").unwrap());
    let store: Arc<dyn ResultStore> = Arc::new(DirStore::open(&dir).unwrap());
    let results = session(1).store(store).build().unwrap().run(&grid);
    match &results[0].outcome {
        Err(RunError::Store { source: StoreError::Io(msg), .. }) => {
            assert!(msg.contains("injected fault: dir.save.io"), "{msg}");
        }
        other => panic!("a failed persist must be a typed Store error, got {other:?}"),
    }
    // No half-written litter: the fault fires before the temp write.
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(".tmp") || name.ends_with(".quarantined")
        })
        .collect();
    assert!(stray.is_empty(), "{stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rate_faults_replay_identically_across_thread_counts() {
    let grid = small_grid();
    let spec = "sim.panic~0.5,seed=7";
    let _guard = faults::install_guarded(FaultPlan::parse(spec).unwrap());
    let failing = |threads: usize| -> Vec<usize> {
        faults::install(Some(FaultPlan::parse(spec).unwrap()));
        session(threads)
            .build()
            .unwrap()
            .run(&grid)
            .iter()
            .enumerate()
            .filter(|(_, r)| r.outcome.is_err())
            .map(|(i, _)| i)
            .collect()
    };
    let first = failing(2);
    assert_eq!(first, failing(2), "same plan, same seed: same victims");
    assert_eq!(first, failing(1), "thread count must not move the faults");
    assert_eq!(first, failing(4));
    // A different seed draws a different (still deterministic) schedule.
    faults::install(Some(FaultPlan::parse("sim.panic~0.5,seed=8").unwrap()));
    let reseeded: Vec<usize> = session(2)
        .build()
        .unwrap()
        .run(&grid)
        .iter()
        .enumerate()
        .filter(|(_, r)| r.outcome.is_err())
        .map(|(i, _)| i)
        .collect();
    faults::install(Some(FaultPlan::parse("sim.panic~0.5,seed=8").unwrap()));
    let reseeded_again: Vec<usize> = session(4)
        .build()
        .unwrap()
        .run(&grid)
        .iter()
        .enumerate()
        .filter(|(_, r)| r.outcome.is_err())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(reseeded, reseeded_again, "the reseeded schedule replays too");
}

// ---- satellite: closure under random fault plans --------------------------

/// A random clause over the session-facing sites. `sim.panic` crashes a
/// run; `dir.save.io` fails a persist; `dir.load.corrupt` damages a read
/// (a no-op against the cold stores used here — load faults only fire on
/// bytes actually read — but it keeps the plan space honest).
fn clause_strategy() -> impl Strategy<Value = String> {
    // (site selector, trigger selector, parameter draw) — the vendored
    // proptest shim has no `prop_oneof`, so select by index.
    (0u8..3, 0u8..3, 1u64..4).prop_map(|(site, trigger, n)| {
        let site = ["sim.panic", "dir.save.io", "dir.load.corrupt"][site as usize];
        let trigger = match trigger {
            0 => format!("@{}", n - 1), // exact occurrence 0..=2
            1 => format!("%{n}"),       // every 1..=3
            _ => format!("~0.{n}"),     // Bernoulli 0.1..=0.3
        };
        format!("{site}{trigger}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any random plan over a 2×2 quick grid: the session returns
    /// exactly N outcomes, every failure is typed (`Panicked` or
    /// `Store` — the only errors these sites can produce), and every
    /// survivor's statistics equal the fault-free baseline's.
    #[test]
    fn random_fault_plans_never_break_the_outcome_contract(
        clauses in proptest::collection::vec(clause_strategy(), 1..4),
        seed in 0u64..1000,
    ) {
        let spec = format!("{},seed={seed}", clauses.join(","));
        let plan = FaultPlan::parse(&spec).expect("generated specs are valid");
        let grid = small_grid();

        let _guard = faults::install_guarded(plan);
        faults::install(None);
        let baseline = outcome_fingerprints(&session(2).build().unwrap().run(&grid));

        faults::install(Some(FaultPlan::parse(&spec).unwrap()));
        let dir = temp_store_dir("proptest");
        let store: Arc<dyn ResultStore> = Arc::new(DirStore::open(&dir).unwrap());
        let results = session(2).store(store).build().unwrap().run(&grid);

        prop_assert_eq!(results.len(), grid.len(), "exactly N outcomes, always");
        for (i, r) in results.iter().enumerate() {
            match &r.outcome {
                Ok(stats) => {
                    let fp = format!("{stats:?}");
                    prop_assert_eq!(
                        Ok(&fp),
                        baseline[i].as_ref(),
                        "plan `{}`: survivor {} must match the fault-free run",
                        spec,
                        i
                    );
                }
                Err(RunError::Panicked { .. } | RunError::Store { .. }) => {}
                Err(other) => {
                    prop_assert!(false, "plan `{}`: untyped failure {:?}", spec, other);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
