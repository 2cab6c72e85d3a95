//! The execution layer: what a run yields, and the job loop behind
//! [`Session::run`].
//!
//! * [`RunError`] — every way a run can fail, as data instead of a panic.
//! * [`TraceCache`] — prepared traces keyed by (workload, trace length);
//!   each trace is generated exactly once and shared across every
//!   configuration and seed that needs it.
//! * The job loop — every run of a grid is `k` piece jobs (`k = 1` for a
//!   serial run) in work-stealing deques; individual runs, not whole
//!   workloads, are the unit of scheduling, and results come back in
//!   grid order.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use eole_core::pipeline::{PreparedTrace, SimError, WarmState};
use eole_core::stats::SimStats;
use eole_store_service::lock_clean;
use eole_workloads::Workload;

use crate::faults;
use crate::plan::Shard;
use crate::session::Session;
use crate::spec::{Grid, RunSpec};
use crate::store::{RunKey, StoreError, WarmKey};
use crate::{check_stitched_against_serial, stitch_pieces, IntervalPolicy, Runner, WarmOrigin};

/// Work-stealing deques holding jobs `0..jobs`, dealt round-robin across
/// `workers` so every worker starts with a spread of them.
fn deal(jobs: usize, workers: usize) -> Vec<Mutex<VecDeque<usize>>> {
    (0..workers).map(|w| Mutex::new((w..jobs).step_by(workers).collect())).collect()
}

/// Worker `me`'s next job: its own work first (front), then steal from
/// the back of the other workers' deques.
fn next_job(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    lock_clean(&queues[me]).pop_front().or_else(|| {
        (0..queues.len()).filter(|w| *w != me).find_map(|w| lock_clean(&queues[w]).pop_back())
    })
}

/// Renders a caught panic payload (`&str` and `String` panics carry
/// their message; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panic isolation: an unwind becomes
/// [`RunError::Panicked`] for this run only, so one crashing simulation
/// can never abort the process or take sibling runs down with it.
fn catch_panic<T>(
    label: &str,
    f: impl FnOnce() -> Result<T, RunError>,
) -> Result<T, RunError> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(outcome) => outcome,
        Err(payload) => Err(RunError::Panicked {
            label: label.to_string(),
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Which phase of a run failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunPhase {
    /// Simulator construction (configuration validation).
    Build,
    /// The warmup window.
    Warmup,
    /// The measurement window.
    Measure,
}

impl std::fmt::Display for RunPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunPhase::Build => write!(f, "build"),
            RunPhase::Warmup => write!(f, "warmup"),
            RunPhase::Measure => write!(f, "measure"),
        }
    }
}

/// A failed run, as a value (the redesign of the old `panic!`/`unwrap`
/// paths in the harness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The workload kernel failed to generate a trace.
    Kernel {
        /// Workload name.
        workload: String,
        /// The functional-execution error, rendered.
        reason: String,
    },
    /// The simulator rejected the configuration or stopped retiring.
    Sim {
        /// Configuration name.
        config: String,
        /// Workload name.
        workload: String,
        /// Phase that failed.
        phase: RunPhase,
        /// Underlying simulator error.
        source: SimError,
    },
    /// An experiment name not in the harness registry (CLI lookups).
    UnknownExperiment(String),
    /// The run belongs to a different shard of a partitioned grid and was
    /// not found in the result store — expected (not a failure) during a
    /// `--shard k/n` populate pass; the merge pass sees no such cells.
    NotInShard {
        /// Human label of the skipped run.
        label: String,
        /// The shard this session was restricted to.
        shard: Shard,
    },
    /// The result store failed to persist a completed run.
    Store {
        /// Human label of the run whose result was lost.
        label: String,
        /// The typed store failure (match on the class, not the text).
        source: StoreError,
    },
    /// The simulation (or an interval piece of it) panicked; the unwind
    /// was caught at the run boundary, so sibling runs and the worker
    /// pool are unaffected.
    Panicked {
        /// Human label of the crashed run.
        label: String,
        /// The panic message, as far as it could be recovered.
        message: String,
    },
    /// The run finished but blew through the session's per-run deadline
    /// ([`SessionBuilder::run_deadline`](crate::SessionBuilder::run_deadline));
    /// its result is withheld so a CI
    /// time-budget violation is loud instead of silently slow.
    Deadline {
        /// Human label of the overrunning run.
        label: String,
        /// Observed wall-clock for the run, in milliseconds.
        elapsed_ms: u64,
        /// The configured budget, in milliseconds.
        budget_ms: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Kernel { workload, reason } => {
                write!(f, "{workload}: kernel failed to trace: {reason}")
            }
            RunError::Sim { config, workload, phase, source } => {
                write!(f, "{config}/{workload}: {phase} failed: {source}")
            }
            RunError::UnknownExperiment(name) => write!(f, "unknown experiment {name}"),
            RunError::NotInShard { label, shard } => {
                write!(f, "{label}: owned by another shard (this session runs {shard})")
            }
            RunError::Store { label, source } => {
                write!(f, "{label}: result store failed: {source}")
            }
            RunError::Panicked { label, message } => {
                write!(f, "{label}: simulation panicked (isolated to this run): {message}")
            }
            RunError::Deadline { label, elapsed_ms, budget_ms } => {
                write!(f, "{label}: run took {elapsed_ms} ms, over the {budget_ms} ms deadline")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The trace-sharing key: runs agreeing on workload and trace length
/// replay the same trace. Borrowed form — `Workload::name` is `&'static
/// str`, so building (and hashing) a key allocates nothing and a
/// steady-state cache probe stays off the heap (`tests/zero_alloc.rs`
/// enforces this).
pub type TraceKey = (&'static str, u64);

/// Computes the [`TraceKey`] for a (workload, methodology) pair. Single
/// definition — [`RunSpec::trace_key`] delegates here so spec and cache
/// can never disagree.
pub(crate) fn trace_key(workload: &Workload, runner: &Runner) -> TraceKey {
    (workload.name, runner.trace_len())
}
type TraceSlot = Arc<Mutex<Option<Result<Arc<PreparedTrace>, RunError>>>>;

/// A keyed cache of prepared traces.
///
/// The key is `(workload name, trace length)`: every configuration and
/// seed in a grid replays the same trace, so it is generated **exactly
/// once per key** — under concurrency, the first thread to claim a key
/// generates while later threads for the same key block on that slot
/// (other keys proceed in parallel).
#[derive(Debug, Default)]
pub struct TraceCache {
    slots: Mutex<HashMap<TraceKey, TraceSlot>>,
    generated: AtomicUsize,
    hits: AtomicUsize,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the prepared trace for `(workload, runner.trace_len())`,
    /// generating it on first use and sharing it afterwards.
    ///
    /// # Errors
    ///
    /// [`RunError::Kernel`] if the kernel fails to trace; the failure is
    /// cached too (a broken kernel is not retried per config).
    pub fn get_or_prepare(
        &self,
        workload: &Workload,
        runner: &Runner,
    ) -> Result<Arc<PreparedTrace>, RunError> {
        let key = trace_key(workload, runner);
        let slot = {
            let mut slots = lock_clean(&self.slots);
            Arc::clone(slots.entry(key).or_default())
        };
        // A panic mid-generation poisons the slot with nothing cached;
        // recovering the lock lets the next caller regenerate.
        let mut guard = lock_clean(&slot);
        match &*guard {
            Some(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cached.clone()
            }
            None => {
                let result = runner.try_prepare(workload).map(Arc::new);
                if result.is_ok() {
                    self.generated.fetch_add(1, Ordering::Relaxed);
                }
                *guard = Some(result.clone());
                result
            }
        }
    }

    /// Number of traces actually generated (one per distinct key).
    pub fn generated(&self) -> usize {
        self.generated.load(Ordering::Relaxed)
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

/// One completed run: the spec it came from plus its outcome.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The run description.
    pub spec: RunSpec,
    /// Statistics, or the typed failure.
    pub outcome: Result<SimStats, RunError>,
}

impl RunResult {
    /// The statistics of a successful run, or the typed failure — the
    /// non-panicking accessor every `Result`-typed experiment path uses.
    pub fn stats(&self) -> Result<&SimStats, &RunError> {
        self.outcome.as_ref()
    }

    /// The statistics of a successful run.
    ///
    /// # Panics
    ///
    /// Panics with the run label and the typed error if the run failed —
    /// for examples where failure is a bug, not a condition.
    /// `Result`-typed code uses [`RunResult::stats`] instead.
    // lint:allow(error-typing) documented `# Panics` convenience wrapper for examples
    pub fn expect_stats(&self) -> &SimStats {
        match self.stats() {
            Ok(s) => s,
            Err(e) => panic!("{}: {e}", self.spec.label()),
        }
    }
}

/// One run of a grid, shared by its `k` piece jobs (`k = 1` for a serial
/// run). The first job to start *claims* the run: it consults the store
/// and the shard, publishes the verdict, and for a stitched run becomes
/// the checkpoint-sweep producer. Every other piece job waits for the
/// verdict, then for its checkpoint slot. `swept` is published
/// unconditionally — even when the sweep fails or panics — so waiting
/// pieces always wake; a piece left with an empty slot rebuilds its own
/// checkpoint (see [`Runner::try_run_piece`]).
struct OpenRun {
    claimed: AtomicBool,
    state: Mutex<RunState>,
    ready: Condvar,
    remaining: AtomicUsize,
}

struct RunState {
    verdict: Verdict,
    warm: Vec<Option<WarmState>>,
    swept: bool,
    pieces: Vec<Option<Result<SimStats, RunError>>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The claiming job has not consulted the store yet.
    Pending,
    /// This process simulates the run.
    Simulate,
    /// A store hit or a foreign shard's cell: the claiming job returned
    /// the result, and no piece runs.
    Resolved,
}

impl OpenRun {
    fn new(k: usize) -> Self {
        OpenRun {
            claimed: AtomicBool::new(false),
            state: Mutex::new(RunState {
                verdict: Verdict::Pending,
                warm: vec![None; k],
                swept: false,
                pieces: vec![None; k],
            }),
            ready: Condvar::new(),
            remaining: AtomicUsize::new(k),
        }
    }

    /// Updates the shared state and wakes every waiting piece job.
    fn update(&self, update: impl FnOnce(&mut RunState)) {
        update(&mut lock_clean(&self.state));
        self.ready.notify_all();
    }

    /// Blocks until `done` holds of the shared state, then maps it.
    fn wait_for<T>(&self, mut done: impl FnMut(&mut RunState) -> Option<T>) -> T {
        let mut state = lock_clean(&self.state);
        loop {
            if let Some(out) = done(&mut state) {
                return out;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Session {
    /// Runs every spec of the grid; `results[i]` corresponds to
    /// `grid.specs()[i]` regardless of scheduling.
    pub fn run(&self, grid: &Grid) -> Vec<RunResult> {
        self.run_specs(grid.specs())
    }

    /// Runs an explicit spec list; results keep the input order.
    ///
    /// Every run is `k` piece jobs (`k` = the interval count, 1 for a
    /// serial run) in work-stealing deques, so pieces of one run
    /// interleave with other grid cells and a slow workload never
    /// serializes the tail. The job that finishes a run's last piece
    /// stitches the pieces in interval order, so the result is
    /// deterministic regardless of scheduling.
    pub fn run_specs(&self, specs: Vec<RunSpec>) -> Vec<RunResult> {
        let k = self.intervals.map_or(1, |policy| policy.k.max(1) as usize);
        let runs: Vec<OpenRun> = specs.iter().map(|_| OpenRun::new(k)).collect();
        // Job j is piece (j % k) of run (j / k). Specs of one workload
        // are adjacent in grid order; dealing them round-robin spreads
        // workloads across workers.
        let jobs = specs.len() * k;
        let workers = self.threads.min(jobs);
        let queues = deal(jobs, workers);
        let results: Mutex<Vec<Option<RunResult>>> = Mutex::new(vec![None; specs.len()]);
        std::thread::scope(|scope| {
            for me in 0..workers {
                let (queues, specs, runs, results) = (&queues, &specs, &runs, &results);
                scope.spawn(move || {
                    while let Some(j) = next_job(queues, me) {
                        let (i, piece) = (j / k, j % k);
                        if let Some(outcome) = self.job(&specs[i], i, &runs[i], piece) {
                            let result = RunResult { spec: specs[i].clone(), outcome };
                            lock_clean(results)[i] = Some(result);
                        }
                    }
                });
            }
        });
        let results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        results.into_iter().map(|r| r.expect("all specs executed")).collect() // lint:allow(error-typing) scope join guarantees every run's last job filled its slot
    }

    /// One piece job. Returns the run's outcome when this job settles the
    /// run: the claiming job of a resolved run, or the job that finishes
    /// the last piece.
    fn job(
        &self,
        spec: &RunSpec,
        idx: usize,
        run: &OpenRun,
        piece: usize,
    ) -> Option<Result<SimStats, RunError>> {
        let label = spec.label();
        let started = Instant::now();
        if !run.claimed.swap(true, Ordering::AcqRel) {
            if let Some(outcome) = self.claim(spec, run) {
                return Some(outcome);
            }
        } else if run.wait_for(|s| (s.verdict != Verdict::Pending).then_some(s.verdict))
            == Verdict::Resolved
        {
            return None;
        }
        let outcome = catch_panic(&label, || self.simulate_piece(spec, idx, run, piece));
        let outcome = self.enforce_deadline(&label, started, outcome);
        lock_clean(&run.state).pieces[piece] = Some(outcome);
        if run.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        // Last piece in: stitch the run (backstop catch — `stitch`
        // handles its own lease cleanup on error).
        Some(catch_panic(&label, || self.stitch(spec, run)))
    }

    /// The claiming job's duty, before any trace is prepared: resolve the
    /// run from the store or the shard, or decide to simulate it and, for
    /// a stitched run, produce its checkpoints. Returns the outcome of a
    /// resolved run.
    fn claim(&self, spec: &RunSpec, run: &OpenRun) -> Option<Result<SimStats, RunError>> {
        let resolved = catch_panic(&spec.label(), || Ok(self.consult(spec)))
            .unwrap_or_else(|e| Some(Err(e)));
        let verdict = if resolved.is_some() { Verdict::Resolved } else { Verdict::Simulate };
        run.update(|s| s.verdict = verdict);
        if let (None, Some(policy)) = (&resolved, self.intervals) {
            self.produce_warm(run, spec, policy);
        }
        resolved
    }

    /// The store key of a run under this session's interval policy.
    fn key(&self, spec: &RunSpec) -> RunKey {
        match self.intervals {
            Some(policy) => RunKey::of_intervals(spec, policy),
            None => RunKey::of(spec),
        }
    }

    /// Resolves a run before any simulation: a store hit, or
    /// [`RunError::NotInShard`] for a cell another shard owns. `None`
    /// means this process simulates it.
    fn consult(&self, spec: &RunSpec) -> Option<Result<SimStats, RunError>> {
        if self.store.is_none() && self.shard.is_none() {
            return None;
        }
        let key = self.key(spec);
        if let Some(store) = &self.store {
            if let Some(stats) = store.load(&key) {
                self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Ok(stats));
            }
            self.counters.store_misses.fetch_add(1, Ordering::Relaxed);
        }
        let shard = self.shard.filter(|shard| !shard.owns(&key))?;
        self.counters.shard_skips.fetch_add(1, Ordering::Relaxed);
        // The miss above may have granted this process the key's
        // single-flight lease; a skipped cell will never publish, so
        // release it for the owning shard's session.
        if let Some(store) = &self.store {
            store.abandon(&key);
        }
        Some(Err(RunError::NotInShard { label: spec.label(), shard }))
    }

    /// One piece of a simulated run: the whole measurement window
    /// ([`Runner::try_run`]) for a serial run, else the interval's
    /// detailed window restored from its checkpoint.
    fn simulate_piece(
        &self,
        spec: &RunSpec,
        idx: usize,
        run: &OpenRun,
        piece: usize,
    ) -> Result<SimStats, RunError> {
        let trace = self.cache.get_or_prepare(&spec.workload, &spec.runner)?;
        // Chaos hooks, keyed by the run's stable grid index (not the
        // piece), so `sim.panic@i` fails run i whole at any k and any
        // thread count. Cold path only — one atomic load each when no
        // fault plan is installed.
        faults::sleep_if_fired(faults::SIM_DELAY, idx as u64);
        faults::panic_if_fired(faults::SIM_PANIC, idx as u64);
        let outcome = match self.intervals {
            None => spec.runner.try_run(&trace, spec.effective_config()),
            Some(policy) => {
                let ws = run.wait_for(|s| match s.warm[piece].take() {
                    Some(ws) => Some(Some(ws)),
                    None => s.swept.then_some(None),
                });
                let (start, end) = spec.runner.interval_bounds(policy.k)[piece];
                let config = spec.effective_config();
                spec.runner.try_run_piece(&trace, config, ws.as_ref(), start, end, policy.warmup)
            }
        };
        outcome.map_err(|e| attribute_workload(e, spec))
    }

    /// The producer sweep: one chained functional pass over the trace
    /// emitting every piece's checkpoint in position order, fetching
    /// cached checkpoints from the result store and publishing freshly
    /// built ones back (best-effort — a read-only store never fails the
    /// run). Each checkpoint is handed to the waiting pieces the moment
    /// it exists, so detailed windows overlap the sweep's tail.
    ///
    /// A checkpoint load that misses may have granted this client the
    /// key's single-flight lease; if the sweep fails before publishing
    /// that checkpoint, the lease is released so other sessions do not
    /// wait out its TTL.
    fn produce_warm(&self, run: &OpenRun, spec: &RunSpec, policy: IntervalPolicy) {
        // The position whose checkpoint missed and is not yet published.
        let unpublished = Cell::new(None);
        let outcome = catch_panic(&spec.label(), || {
            let trace = self.cache.get_or_prepare(&spec.workload, &spec.runner)?;
            let positions = spec.runner.warm_positions(policy);
            let (_, sweep) = spec
                .runner
                .try_sweep_warm_states(
                    &trace,
                    spec.effective_config(),
                    &positions,
                    |_, pos| {
                        let store = self.store.as_ref()?;
                        let Some(bytes) = store.load_warm(&WarmKey::of(spec, pos)) else {
                            unpublished.set(Some(pos));
                            return None;
                        };
                        WarmState::from_bytes(bytes).ok()
                    },
                    |i, pos, ws, origin| {
                        if origin == WarmOrigin::Built {
                            if let Some(store) = &self.store {
                                let _ = store.save_warm(&WarmKey::of(spec, pos), ws.as_bytes());
                                unpublished.set(None);
                            }
                        }
                        run.update(|s| s.warm[i] = Some(ws.clone()));
                    },
                )
                .map_err(|e| attribute_workload(e, spec))?;
            self.counters.warm_loaded.fetch_add(sweep.loaded, Ordering::Relaxed);
            self.counters.warm_built.fetch_add(sweep.built, Ordering::Relaxed);
            Ok(())
        });
        if let (Err(_), Some(pos), Some(store)) = (outcome, unpublished.get(), &self.store) {
            store.abandon_warm(&WarmKey::of(spec, pos));
        }
        // A failed or panicked sweep leaves its remaining slots empty;
        // publishing `swept` (always, on every path) wakes the pieces,
        // which rebuild those checkpoints instead of deadlocking.
        run.update(|s| s.swept = true);
    }

    /// Applies the watchdog to one finished piece: an overrunning success
    /// is demoted to [`RunError::Deadline`] (a real failure keeps its
    /// own, more specific error).
    fn enforce_deadline(
        &self,
        label: &str,
        started: Instant,
        outcome: Result<SimStats, RunError>,
    ) -> Result<SimStats, RunError> {
        let Some(budget) = self.deadline else { return outcome };
        let elapsed = started.elapsed();
        if elapsed <= budget || outcome.is_err() {
            return outcome;
        }
        Err(RunError::Deadline {
            label: label.to_string(),
            elapsed_ms: elapsed.as_millis() as u64,
            budget_ms: budget.as_millis() as u64,
        })
    }

    /// Merges a completed run's pieces in interval order, applies the
    /// paranoid serial cross-check to a stitched run when requested, and
    /// persists the result.
    fn stitch(&self, spec: &RunSpec, run: &OpenRun) -> Result<SimStats, RunError> {
        self.counters.simulated.fetch_add(1, Ordering::Relaxed);
        let pieces = std::mem::take(&mut lock_clean(&run.state).pieces);
        let outcome = (|| -> Result<SimStats, RunError> {
            let stitched = stitch_pieces(
                pieces
                    .into_iter()
                    .map(|slot| slot.expect("remaining hit zero with a piece missing")), // lint:allow(error-typing) the atomic remaining-counter proves every piece landed
            )?;
            if let Some(policy) = self.intervals.filter(|_| eole_core::paranoid()) {
                let trace = self.cache.get_or_prepare(&spec.workload, &spec.runner)?;
                let serial = spec
                    .runner
                    .try_run_serial_exact(&trace, spec.effective_config())
                    .map_err(|e| attribute_workload(e, spec))?;
                // The paranoid comparator panics by design on a contract
                // violation; catching it here turns that into a typed
                // error *inside* this closure, so `publish` still
                // releases the lease.
                catch_panic(&spec.label(), || {
                    check_stitched_against_serial(&spec.label(), policy, &stitched, &serial);
                    Ok(())
                })?;
            }
            Ok(stitched)
        })();
        self.publish(spec, outcome)
    }

    /// Settles a simulated run's key in the store: a result is saved; a
    /// failure releases the single-flight lease the miss may hold, so
    /// waiters move on instead of idling out its TTL on a result that
    /// will never land.
    fn publish(
        &self,
        spec: &RunSpec,
        outcome: Result<SimStats, RunError>,
    ) -> Result<SimStats, RunError> {
        let Some(store) = &self.store else { return outcome };
        let key = self.key(spec);
        match outcome {
            Ok(stats) => {
                store
                    .save(&key, &stats)
                    .map_err(|source| RunError::Store { label: spec.label(), source })?;
                Ok(stats)
            }
            Err(e) => {
                store.abandon(&key);
                Err(e)
            }
        }
    }
}

/// Fills in the workload name on a [`RunError::Sim`] — the `Runner` run
/// helpers cannot know it.
pub(crate) fn attribute_workload(e: RunError, spec: &RunSpec) -> RunError {
    match e {
        RunError::Sim { config, phase, source, .. } => RunError::Sim {
            config,
            workload: spec.workload.name.to_string(),
            phase,
            source,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use crate::store::ResultStore;
    use eole_core::config::CoreConfig;
    use eole_workloads::workload_by_name;

    fn quick(threads: usize) -> SessionBuilder {
        Session::builder().runner(Runner::quick()).threads(threads)
    }

    #[test]
    fn trace_cache_generates_exactly_once_per_key() {
        let cache = Arc::new(TraceCache::new());
        let runner = Runner::quick();
        let w = workload_by_name("gzip").unwrap();
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = Arc::clone(&cache);
                let w = w.clone();
                scope.spawn(move || {
                    let t = cache.get_or_prepare(&w, &runner).unwrap();
                    assert!(!t.is_empty());
                });
            }
        });
        assert_eq!(cache.generated(), 1, "one generation per key, ever");
        assert_eq!(cache.hits(), threads - 1);
        // A different trace length is a different key.
        let longer = Runner { warmup: 20_000, measure: 30_000 };
        cache.get_or_prepare(&w, &longer).unwrap();
        assert_eq!(cache.generated(), 2);
    }

    #[test]
    fn cache_is_shared_across_configs_in_a_grid() {
        let grid = Grid::new()
            .runner(Runner::quick())
            .configs([
                CoreConfig::baseline_6_64(),
                CoreConfig::baseline_vp_6_64(),
                CoreConfig::eole_4_64(),
            ])
            .workload_names(&["gzip", "namd"]);
        let session = quick(4).build().unwrap();
        let results = session.run(&grid);
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(session.cache().generated(), 2, "one trace per workload, not per run");
        assert_eq!(session.cache().hits(), 4);
    }

    #[test]
    fn results_keep_grid_order_under_concurrency() {
        let grid = Grid::new()
            .runner(Runner::quick())
            .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()])
            .workload_names(&["gzip", "namd", "hmmer"]);
        let expected: Vec<String> = grid.specs().iter().map(RunSpec::label).collect();
        for threads in [1, 2, 7] {
            let results = quick(threads).build().unwrap().run(&grid);
            let got: Vec<String> = results.iter().map(|r| r.spec.label()).collect();
            assert_eq!(got, expected, "order must be stable with {threads} threads");
            for r in &results {
                let stats = r.stats().unwrap_or_else(|e| panic!("{}: {e}", r.spec.label()));
                assert!(stats.ipc() > 0.1, "{}", r.spec.label());
            }
        }
    }

    #[test]
    fn bad_configs_become_typed_errors_not_panics() {
        let mut bad = CoreConfig::baseline_6_64();
        bad.prf_banks = 3; // fails validation inside Simulator::new
        let grid = Grid::new()
            .runner(Runner::quick())
            .configs([bad, CoreConfig::baseline_6_64()])
            .workload_names(&["gzip"]);
        let results = quick(2).build().unwrap().run(&grid);
        assert_eq!(results.len(), 2);
        match &results[0].outcome {
            Err(RunError::Sim { phase, source, workload, .. }) => {
                assert_eq!(*phase, RunPhase::Build);
                assert_eq!(workload, "gzip");
                assert!(matches!(source, SimError::BadConfig(_)));
            }
            other => panic!("expected a Build error, got {other:?}"),
        }
        assert!(results[1].outcome.is_ok(), "one bad run must not poison the grid");
    }

    #[test]
    fn warm_store_serves_a_repeat_grid_with_zero_simulations() {
        use crate::store::MemStore;
        let store: Arc<dyn ResultStore> = Arc::new(MemStore::new());
        let grid = Grid::new()
            .runner(Runner::quick())
            .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()])
            .workload_names(&["gzip", "namd"]);
        let cold = quick(2).store(Arc::clone(&store)).build().unwrap();
        let first = cold.run(&grid);
        assert_eq!(cold.simulated(), 4);
        assert_eq!(cold.store_hits(), 0);
        let warm = quick(2).store(Arc::clone(&store)).build().unwrap();
        let second = warm.run(&grid);
        assert_eq!(warm.simulated(), 0, "every cell must come from the store");
        assert_eq!(warm.store_hits(), 4);
        assert_eq!(warm.cache().generated(), 0, "no trace is prepared on a full hit");
        for (a, b) in first.iter().zip(&second) {
            let (sa, sb) = (a.stats().unwrap(), b.stats().unwrap());
            assert_eq!(sa.cycles, sb.cycles, "{}", a.spec.label());
            assert_eq!(sa.committed, sb.committed);
        }
    }

    #[test]
    fn shard_mode_skips_foreign_cells_with_typed_errors() {
        use crate::plan::Shard;
        let grid = Grid::new()
            .runner(Runner::quick())
            .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()])
            .workload_names(&["gzip", "namd"]);
        let mut simulated = 0;
        let mut skipped = 0;
        for k in 1..=2 {
            let session = quick(2).shard(Shard::new(k, 2).unwrap()).build().unwrap();
            for r in session.run(&grid) {
                match r.stats() {
                    Ok(s) => {
                        simulated += 1;
                        assert!(s.committed > 0);
                    }
                    Err(RunError::NotInShard { shard, .. }) => {
                        skipped += 1;
                        assert_eq!(shard.count(), 2);
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            assert_eq!(session.shard_skips() + session.simulated(), 4);
        }
        // Across both shards every cell ran exactly once and was skipped
        // exactly once.
        assert_eq!(simulated, 4);
        assert_eq!(skipped, 4);
        // A full shard is a no-op.
        let full = quick(1).shard(Shard::full()).build().unwrap();
        assert!(full.run(&grid).iter().all(|r| r.stats().is_ok()));
    }

    /// A store whose checkpoint loads always miss (so a networked store
    /// would have granted this client the lease) and whose checkpoint
    /// saves panic, recording every released checkpoint lease.
    #[derive(Debug, Default)]
    struct FailingWarmStore {
        results: crate::store::MemStore,
        abandoned: Mutex<Vec<WarmKey>>,
    }

    impl ResultStore for FailingWarmStore {
        fn load(&self, key: &RunKey) -> Option<SimStats> {
            self.results.load(key)
        }

        fn save(&self, key: &RunKey, stats: &SimStats) -> Result<(), StoreError> {
            self.results.save(key, stats)
        }

        fn len(&self) -> usize {
            self.results.len()
        }

        fn save_warm(&self, _key: &WarmKey, _bytes: &[u8]) -> Result<(), StoreError> {
            panic!("injected checkpoint save failure")
        }

        fn abandon_warm(&self, key: &WarmKey) {
            lock_clean(&self.abandoned).push(key.clone());
        }
    }

    #[test]
    fn a_failed_sweep_releases_its_missed_checkpoint_lease() {
        let store = Arc::new(FailingWarmStore::default());
        let grid = Grid::new()
            .runner(Runner::quick())
            .config(CoreConfig::eole_4_64())
            .workload_names(&["gzip"]);
        let session = quick(2)
            .intervals(2)
            .store(Arc::clone(&store) as Arc<dyn ResultStore>)
            .build()
            .unwrap();
        let results = session.run(&grid);
        let spec = &grid.specs()[0];
        let policy = session.intervals().unwrap();
        let first = spec.runner.warm_positions(policy)[0];
        assert_eq!(*lock_clean(&store.abandoned), vec![WarmKey::of(spec, first)]);
        // The pieces rebuild their own checkpoints: the run completes
        // with the same stitched result as a store-less session.
        let plain = quick(2).intervals(2).build().unwrap().run(&grid);
        let (got, want) = (results[0].stats().unwrap(), plain[0].stats().unwrap());
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn executor_runs_seed_replicates() {
        let grid = Grid::new()
            .runner(Runner::quick())
            .config(CoreConfig::baseline_vp_6_64())
            .workload_names(&["gzip"])
            .seeds([0, 1, 2]);
        let session = Session::new(Runner::quick());
        let results = session.run(&grid);
        assert_eq!(results.len(), 3);
        assert_eq!(session.cache().generated(), 1, "replicates share the trace");
        for r in &results {
            assert!(r.stats().expect("replicate failed").committed > 0);
        }
    }
}
