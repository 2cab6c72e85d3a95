//! The executor layer: running many [`RunSpec`]s, fast and fallibly.
//!
//! * [`RunError`] — every way a run can fail, as data instead of a panic.
//! * [`TraceCache`] — prepared traces keyed by (workload, trace length);
//!   each trace is generated exactly once and shared across every
//!   configuration and seed that needs it.
//! * [`Executor`] — a work-stealing thread pool that schedules individual
//!   runs (not whole workloads) and returns results in grid order.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use eole_core::pipeline::{PreparedTrace, SimError, WarmState};
use eole_core::stats::SimStats;
use eole_workloads::Workload;

use crate::faults;
use crate::plan::Shard;
use crate::spec::{Grid, RunSpec};
use crate::store::{ResultStore, RunKey, StoreError, WarmKey};
use crate::{check_stitched_against_serial, stitch_pieces, IntervalPolicy, Runner, WarmOrigin};

/// Poisoning-proof lock: a panicked worker marks every mutex it held as
/// poisoned, but the protected data here (job deques, piece slots,
/// result vectors) is only ever mutated by complete push/pop/assign
/// operations, so the value is still consistent — recover it instead of
/// cascading the panic into every sibling worker.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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
        /// The shard this executor was restricted to.
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
    /// The run finished but blew through the executor's per-run deadline
    /// ([`Executor::with_deadline`]); its result is withheld so a CI
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
                write!(f, "{label}: owned by another shard (this executor runs {shard})")
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

/// A work-stealing executor over run grids.
///
/// Individual [`RunSpec`]s — not whole workloads — are the unit of
/// scheduling: each worker owns a deque of runs and, when its own
/// drains, steals from the back of the first other worker's deque that
/// still has work, so a slow workload (e.g. `mcf`'s DRAM-bound chase)
/// never serializes the tail of an experiment. Prepared traces are shared through a
/// [`TraceCache`], which can itself be shared across executors (the
/// `ExperimentSet` shares one across all experiments).
///
/// Two optional layers sit in front of the simulator:
///
/// * a [`ResultStore`] ([`Executor::with_store`]) is consulted by
///   [`RunKey`] before any trace is prepared or cycle simulated, and
///   every fresh result is saved back — a warm store serves a repeated
///   grid with **zero** simulations;
/// * a [`Shard`] ([`Executor::with_shard`]) restricts simulation to the
///   runs this process owns; foreign cells missing from the store come
///   back as [`RunError::NotInShard`] (the populate-pass contract — see
///   `crate::plan`).
#[derive(Debug)]
pub struct Executor {
    threads: usize,
    cache: Arc<TraceCache>,
    store: Option<Arc<dyn ResultStore>>,
    shard: Option<Shard>,
    intervals: Option<IntervalPolicy>,
    deadline: Option<Duration>,
    store_hits: AtomicUsize,
    store_misses: AtomicUsize,
    simulated: AtomicUsize,
    shard_skips: AtomicUsize,
    warm_loaded: AtomicUsize,
    warm_built: AtomicUsize,
}

/// Shared checkpoint slots for one stitched run: the first piece job to
/// claim the set becomes the *producer* (one chained functional sweep,
/// store-backed); every other piece is a *consumer* that blocks until
/// its slot fills. `done` is published unconditionally — even when the
/// producer fails or panics — so consumers always wake; a piece left with
/// an empty slot rebuilds its own checkpoint (see [`Runner::try_run_piece`]).
struct WarmSet {
    claimed: AtomicBool,
    slots: Mutex<WarmSlots>,
    ready: Condvar,
}

struct WarmSlots {
    states: Vec<Option<WarmState>>,
    done: bool,
}

impl WarmSet {
    fn new(k: usize) -> Self {
        WarmSet {
            claimed: AtomicBool::new(false),
            slots: Mutex::new(WarmSlots { states: vec![None; k], done: false }),
            ready: Condvar::new(),
        }
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An executor sized to the machine with a fresh trace cache.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::with_threads(threads)
    }

    /// An executor with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            cache: Arc::new(TraceCache::new()),
            store: None,
            shard: None,
            intervals: None,
            deadline: None,
            store_hits: AtomicUsize::new(0),
            store_misses: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
            shard_skips: AtomicUsize::new(0),
            warm_loaded: AtomicUsize::new(0),
            warm_built: AtomicUsize::new(0),
        }
    }

    /// Replaces the trace cache with a shared one.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<TraceCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a result store, consulted before every simulation and
    /// written after.
    #[must_use]
    pub fn with_store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Restricts simulation to the runs `shard` owns (a full `1/1` shard
    /// is a no-op and is not recorded).
    #[must_use]
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = if shard.is_full() { None } else { Some(shard) };
        self
    }

    /// Splits every simulated run into `policy.k` deterministic
    /// intervals, each scheduled as its own job in the work-stealing
    /// deques (intra-run intervals interleave with other grid cells), and
    /// stitches the per-interval statistics back together in interval
    /// order. A `k == 0` policy disables splitting; note that even
    /// `k == 1` runs through the exact-boundary piece path and is stored
    /// under an interval-tagged [`RunKey`], never the serial one.
    #[must_use]
    pub fn with_intervals(mut self, policy: IntervalPolicy) -> Self {
        self.intervals = (policy.k >= 1).then_some(policy);
        self
    }

    /// The interval policy, if interval-parallel execution is active.
    pub fn intervals(&self) -> Option<IntervalPolicy> {
        self.intervals
    }

    /// Arms a per-run wall-clock watchdog: a run (or interval piece)
    /// whose job exceeds `deadline` resolves to [`RunError::Deadline`]
    /// instead of a result. The check is cooperative — it fires when
    /// the job *returns*, so it bounds reported results, not a thread
    /// wedged inside the simulator (the simulator's own no-retirement
    /// deadlock detector covers in-sim hangs). `None` disarms.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The armed per-run deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Applies the watchdog to one finished job: an overrunning success
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

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The trace cache (inspectable: generation/hit counters).
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&Arc<dyn ResultStore>> {
        self.store.as_ref()
    }

    /// Runs served from the result store without simulating.
    pub fn store_hits(&self) -> usize {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Store lookups that found no entry (each miss is followed by a
    /// simulation, a shard skip, or — on a degraded remote store — a
    /// local fallback simulation).
    pub fn store_misses(&self) -> usize {
        self.store_misses.load(Ordering::Relaxed)
    }

    /// Runs actually simulated (the "zero on a warm store" counter).
    pub fn simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Runs skipped because another shard owns them.
    pub fn shard_skips(&self) -> usize {
        self.shard_skips.load(Ordering::Relaxed)
    }

    /// Warm checkpoints served from the result store (no functional
    /// replay paid for those positions).
    pub fn warm_loaded(&self) -> usize {
        self.warm_loaded.load(Ordering::Relaxed)
    }

    /// Warm checkpoints built by a producer sweep (and published to the
    /// store when one is attached). `--assert-warm-cached` pins this to
    /// zero on a warm store.
    pub fn warm_built(&self) -> usize {
        self.warm_built.load(Ordering::Relaxed)
    }

    fn simulate(&self, spec: &RunSpec, idx: usize) -> Result<SimStats, RunError> {
        let trace = self.cache.get_or_prepare(&spec.workload, &spec.runner)?;
        // Chaos hooks, keyed by the run's stable grid index so a plan
        // targets the same cell at any thread count. Cold path only —
        // one atomic load each when no fault plan is installed.
        faults::sleep_if_fired(faults::SIM_DELAY, idx as u64);
        faults::panic_if_fired(faults::SIM_PANIC, idx as u64);
        self.simulated.fetch_add(1, Ordering::Relaxed);
        spec.runner
            .try_run(&trace, spec.effective_config())
            .map_err(|e| attribute_workload(e, spec))
    }

    fn execute(&self, spec: &RunSpec, idx: usize) -> Result<SimStats, RunError> {
        if self.store.is_none() && self.shard.is_none() {
            return catch_panic(&spec.label(), || self.simulate(spec, idx));
        }
        let key = RunKey::of(spec);
        if let Some(outcome) = self.consult(&key, spec) {
            return outcome;
        }
        // Catch panics *here*, not just in the worker loop: the lease
        // release in `publish` must still run when the simulation
        // crashes, or single-flight waiters would idle out the TTL.
        let outcome = catch_panic(&spec.label(), || self.simulate(spec, idx));
        self.publish(&key, spec, outcome)
    }

    /// Resolves a run before any simulation: a store hit, or
    /// [`RunError::NotInShard`] for a cell another shard owns. `None`
    /// means this process simulates it.
    fn consult(&self, key: &RunKey, spec: &RunSpec) -> Option<Result<SimStats, RunError>> {
        if let Some(store) = &self.store {
            if let Some(stats) = store.load(key) {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Ok(stats));
            }
            self.store_misses.fetch_add(1, Ordering::Relaxed);
        }
        let shard = self.shard.filter(|shard| !shard.owns(key))?;
        self.shard_skips.fetch_add(1, Ordering::Relaxed);
        // The miss above may have granted this process the key's
        // single-flight lease; a skipped cell will never publish, so
        // release it for the owning shard's session.
        if let Some(store) = &self.store {
            store.abandon(key);
        }
        Some(Err(RunError::NotInShard { label: spec.label(), shard }))
    }

    /// Settles a simulated run's key in the store: a result is saved; a
    /// failure releases the single-flight lease the miss may hold, so
    /// waiters move on instead of idling out its TTL on a result that
    /// will never land.
    fn publish(
        &self,
        key: &RunKey,
        spec: &RunSpec,
        outcome: Result<SimStats, RunError>,
    ) -> Result<SimStats, RunError> {
        let Some(store) = &self.store else { return outcome };
        match outcome {
            Ok(stats) => {
                store
                    .save(key, &stats)
                    .map_err(|source| RunError::Store { label: spec.label(), source })?;
                Ok(stats)
            }
            Err(e) => {
                store.abandon(key);
                Err(e)
            }
        }
    }

    /// Runs every spec of the grid; `results[i]` corresponds to
    /// `grid.specs()[i]` regardless of scheduling.
    pub fn run(&self, grid: &Grid) -> Vec<RunResult> {
        self.run_specs(grid.specs())
    }

    /// Runs an explicit spec list; results keep the input order.
    pub fn run_specs(&self, specs: Vec<RunSpec>) -> Vec<RunResult> {
        if specs.is_empty() {
            return Vec::new();
        }
        match self.intervals {
            Some(policy) => self.run_specs_stitched(specs, policy),
            None => self.run_specs_serial(specs),
        }
    }

    fn run_specs_serial(&self, specs: Vec<RunSpec>) -> Vec<RunResult> {
        let n = specs.len();
        let workers = self.threads.min(n);
        // Specs of one workload are adjacent in grid order; dealing them
        // round-robin spreads workloads across workers.
        let queues = deal(n, workers);
        let mut results: Vec<Option<RunResult>> = (0..n).map(|_| None).collect();
        let results_mutex = Mutex::new(&mut results);
        std::thread::scope(|scope| {
            for me in 0..workers {
                let queues = &queues;
                let specs = &specs;
                let results_mutex = &results_mutex;
                scope.spawn(move || {
                    while let Some(i) = next_job(queues, me) {
                        let label = specs[i].label();
                        let started = Instant::now();
                        // Backstop isolation: `execute` catches simulation
                        // panics itself (it still has lease cleanup to do);
                        // this catch covers everything else in the job.
                        let outcome = catch_panic(&label, || self.execute(&specs[i], i));
                        let outcome = self.enforce_deadline(&label, started, outcome);
                        let result = RunResult { spec: specs[i].clone(), outcome };
                        lock_clean(results_mutex)[i] = Some(result);
                    }
                });
            }
        });
        results.into_iter().map(|r| r.expect("all specs executed")).collect() // lint:allow(error-typing) scope join guarantees every slot was filled
    }

    /// Interval-parallel execution: each pending spec fans out into
    /// `policy.k` piece jobs sharing the work-stealing deques, the last
    /// piece to finish stitches the run (in interval order, so the result
    /// is deterministic regardless of scheduling). Store and shard are
    /// consulted up front under the interval-tagged key.
    fn run_specs_stitched(&self, specs: Vec<RunSpec>, policy: IntervalPolicy) -> Vec<RunResult> {
        let n = specs.len();
        let mut results: Vec<Option<RunResult>> = (0..n).map(|_| None).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            match self.consult(&RunKey::of_intervals(spec, policy), spec) {
                Some(outcome) => results[i] = Some(RunResult { spec: spec.clone(), outcome }),
                None => open.push(i),
            }
        }
        if open.is_empty() {
            return results.into_iter().map(|r| r.expect("resolved in pre-pass")).collect(); // lint:allow(error-typing) the pre-pass above filled every slot when `open` is empty
        }

        struct PendingRun {
            spec: usize,
            pieces: Mutex<Vec<Option<Result<SimStats, RunError>>>>,
            remaining: AtomicUsize,
            warm: WarmSet,
        }
        let k = policy.k.max(1) as usize;
        let pending: Vec<PendingRun> = open
            .iter()
            .map(|&i| PendingRun {
                spec: i,
                pieces: Mutex::new(vec![None; k]),
                remaining: AtomicUsize::new(k),
                warm: WarmSet::new(k),
            })
            .collect();
        // Job j is piece (j % k) of pending run (j / k); dealt round-robin
        // like serial specs so workers start with a spread of runs.
        let jobs = pending.len() * k;
        let workers = self.threads.min(jobs);
        let queues = deal(jobs, workers);
        let results_mutex = Mutex::new(&mut results);
        std::thread::scope(|scope| {
            for me in 0..workers {
                let queues = &queues;
                let specs = &specs;
                let pending = &pending;
                let results_mutex = &results_mutex;
                scope.spawn(move || {
                    while let Some(j) = next_job(queues, me) {
                        let run = &pending[j / k];
                        let piece = j % k;
                        let spec = &specs[run.spec];
                        let label = spec.label();
                        let started = Instant::now();
                        let outcome = catch_panic(&label, || {
                            self.simulate_piece(spec, policy, piece, run.spec, &run.warm)
                        });
                        let outcome = self.enforce_deadline(&label, started, outcome);
                        lock_clean(&run.pieces)[piece] = Some(outcome);
                        if run.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            // Last piece in: stitch this run (backstop catch —
                            // `stitch` handles its own lease cleanup on error).
                            let outcome =
                                catch_panic(&label, || self.stitch(spec, policy, &run.pieces));
                            let result = RunResult { spec: spec.clone(), outcome };
                            lock_clean(results_mutex)[run.spec] = Some(result);
                        }
                    }
                });
            }
        });
        results.into_iter().map(|r| r.expect("all specs executed")).collect() // lint:allow(error-typing) scope join guarantees every slot was filled
    }

    fn simulate_piece(
        &self,
        spec: &RunSpec,
        policy: IntervalPolicy,
        piece: usize,
        idx: usize,
        warm: &WarmSet,
    ) -> Result<SimStats, RunError> {
        let trace = self.cache.get_or_prepare(&spec.workload, &spec.runner)?;
        // Keyed by the run's grid index (not the piece): `sim.panic@i`
        // fails run i whole, at any k and any thread count.
        faults::sleep_if_fired(faults::SIM_DELAY, idx as u64);
        faults::panic_if_fired(faults::SIM_PANIC, idx as u64);
        let ws = self.obtain_warm(warm, spec, policy, piece);
        let (start, end) = spec.runner.interval_bounds(policy.k)[piece];
        spec.runner
            .try_run_piece(&trace, spec.effective_config(), ws.as_ref(), start, end, policy.warmup)
            .map_err(|e| attribute_workload(e, spec))
    }

    /// Hands a piece its warm checkpoint, electing this job as the
    /// producer when the run's sweep has not started yet. Returns `None`
    /// when the sweep failed or left the slot empty — the piece then
    /// rebuilds that one checkpoint inside [`Runner::try_run_piece`],
    /// preserving the result.
    fn obtain_warm(
        &self,
        set: &WarmSet,
        spec: &RunSpec,
        policy: IntervalPolicy,
        piece: usize,
    ) -> Option<WarmState> {
        if !set.claimed.swap(true, Ordering::AcqRel) {
            self.produce_warm(set, spec, policy);
        }
        let mut slots = lock_clean(&set.slots);
        loop {
            if let Some(ws) = slots.states[piece].take() {
                return Some(ws);
            }
            if slots.done {
                return None;
            }
            slots = set.ready.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The producer sweep: one chained functional pass over the trace
    /// emitting every piece's checkpoint in position order, fetching
    /// cached checkpoints from the result store and publishing freshly
    /// built ones back (best-effort — a read-only store never fails the
    /// run). Each checkpoint is handed to the waiting consumers the
    /// moment it exists, so detailed windows overlap the sweep's tail.
    fn produce_warm(&self, set: &WarmSet, spec: &RunSpec, policy: IntervalPolicy) {
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
                        let bytes = store.load_warm(&WarmKey::of(spec, pos))?;
                        WarmState::from_bytes(bytes).ok()
                    },
                    |i, pos, ws, origin| {
                        if origin == WarmOrigin::Built {
                            if let Some(store) = &self.store {
                                let _ = store.save_warm(&WarmKey::of(spec, pos), ws.as_bytes());
                            }
                        }
                        let mut slots = lock_clean(&set.slots);
                        slots.states[i] = Some(ws.clone());
                        drop(slots);
                        set.ready.notify_all();
                    },
                )
                .map_err(|e| attribute_workload(e, spec))?;
            self.warm_loaded.fetch_add(sweep.loaded, Ordering::Relaxed);
            self.warm_built.fetch_add(sweep.built, Ordering::Relaxed);
            Ok(())
        });
        // A failed or panicked sweep leaves its remaining slots empty;
        // publishing `done` (always, on every path) wakes the consumers,
        // which rebuild those checkpoints instead of deadlocking.
        drop(outcome);
        let mut slots = lock_clean(&set.slots);
        slots.done = true;
        drop(slots);
        set.ready.notify_all();
    }

    /// Merges a completed run's pieces in interval order, applies the
    /// paranoid serial cross-check when requested, and persists the result
    /// under the interval-tagged key.
    fn stitch(
        &self,
        spec: &RunSpec,
        policy: IntervalPolicy,
        pieces: &Mutex<Vec<Option<Result<SimStats, RunError>>>>,
    ) -> Result<SimStats, RunError> {
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let outcome = (|| -> Result<SimStats, RunError> {
            let stitched = stitch_pieces(
                lock_clean(pieces)
                    .iter_mut()
                    .map(|slot| slot.take().expect("remaining hit zero with a piece missing")), // lint:allow(error-typing) the atomic remaining-counter proves every piece landed
            )?;
            if eole_core::paranoid() {
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
        self.publish(&RunKey::of_intervals(spec, policy), spec, outcome)
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
    use eole_core::config::CoreConfig;
    use eole_workloads::workload_by_name;

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
        let exec = Executor::with_threads(4);
        let results = exec.run(&grid);
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(exec.cache().generated(), 2, "one trace per workload, not per run");
        assert_eq!(exec.cache().hits(), 4);
    }

    #[test]
    fn results_keep_grid_order_under_concurrency() {
        let grid = Grid::new()
            .runner(Runner::quick())
            .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()])
            .workload_names(&["gzip", "namd", "hmmer"]);
        let expected: Vec<String> = grid.specs().iter().map(RunSpec::label).collect();
        for threads in [1, 2, 7] {
            let results = Executor::with_threads(threads).run(&grid);
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
        let results = Executor::with_threads(2).run(&grid);
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
        let cold = Executor::with_threads(2).with_store(Arc::clone(&store));
        let first = cold.run(&grid);
        assert_eq!(cold.simulated(), 4);
        assert_eq!(cold.store_hits(), 0);
        let warm = Executor::with_threads(2).with_store(Arc::clone(&store));
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
            let exec = Executor::with_threads(2).with_shard(Shard::new(k, 2).unwrap());
            for r in exec.run(&grid) {
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
            assert_eq!(exec.shard_skips() + exec.simulated(), 4);
        }
        // Across both shards every cell ran exactly once and was skipped
        // exactly once.
        assert_eq!(simulated, 4);
        assert_eq!(skipped, 4);
        // A full shard is a no-op.
        let full = Executor::with_threads(1).with_shard(Shard::full());
        assert!(full.run(&grid).iter().all(|r| r.stats().is_ok()));
    }

    #[test]
    fn executor_runs_seed_replicates() {
        let grid = Grid::new()
            .runner(Runner::quick())
            .config(CoreConfig::baseline_vp_6_64())
            .workload_names(&["gzip"])
            .seeds([0, 1, 2]);
        let exec = Executor::new();
        let results = exec.run(&grid);
        assert_eq!(results.len(), 3);
        assert_eq!(exec.cache().generated(), 1, "replicates share the trace");
        for r in &results {
            assert!(r.stats().expect("replicate failed").committed > 0);
        }
    }
}
