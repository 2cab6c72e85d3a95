//! # eole-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5–§6) over the synthetic Table 3 suite.
//!
//! The harness is split into layers, mirroring how trace-driven
//! simulators separate "describe a run", "execute many runs", and
//! "report results":
//!
//! * **Spec** ([`spec`]) — [`RunSpec`] describes one run (configuration ×
//!   workload × methodology × seed) and [`Grid`] enumerates the
//!   cross-product, in workload-major order.
//! * **Session** ([`session`], job loop in [`exec`]) — [`Session`] is the
//!   single grid driver behind the `experiments`, `sim-throughput`, and
//!   `fingerprints` bins: it schedules every run as piece jobs across a
//!   work-stealing thread pool, shares prepared traces through a keyed
//!   [`TraceCache`] (one generation per (workload, length)), and returns
//!   `Result<SimStats, RunError>` per run instead of panicking.
//! * **Report** — every experiment in [`experiments::ExperimentSet`]
//!   returns an [`eole_stats::report::ExperimentReport`], which
//!   [`Session::render`] emits as Markdown, JSON or CSV (`EXPERIMENTS.md`
//!   documents the JSON schema).
//!
//! Around those sit the run-identity layers added by the canonical-run
//! redesign:
//!
//! * **Store** ([`store`]) — [`RunKey`] is the content-addressed
//!   identity of a run (config digest × workload × methodology × seed ×
//!   [`eole_core::canon::SIM_FINGERPRINT_VERSION`]); a [`ResultStore`]
//!   ([`MemStore`] in memory, [`DirStore`] on disk) remembers completed
//!   runs so unchanged cells are never re-simulated.
//! * **Shard** ([`plan`]) — [`Shard`] partitions a grid across processes
//!   deterministically (ownership is a pure function of the run key);
//!   the store read-back merges the shards.
//!
//! The `experiments` CLI drives it all:
//! `cargo run --release -p eole-bench --bin experiments -- all --format json`.
//!
//! ## Example
//!
//! ```no_run
//! use eole_bench::{Grid, Runner, Session};
//! use eole_core::config::CoreConfig;
//!
//! let grid = Grid::new()
//!     .runner(Runner::quick())
//!     .configs([CoreConfig::baseline_vp_6_64(), CoreConfig::eole_4_64()])
//!     .workload_names(&["gzip", "namd"]);
//! let results = Session::new(Runner::quick()).run(&grid);
//! for r in &results {
//!     match &r.outcome {
//!         Ok(stats) => println!("{}: IPC {:.3}", r.spec.label(), stats.ipc()),
//!         Err(e) => eprintln!("{}: {e}", r.spec.label()),
//!     }
//! }
//! ```

#![forbid(unsafe_code)]

pub mod compare;
pub mod exec;
pub mod experiments;
pub mod faults;
pub mod plan;
pub mod remote;
pub mod session;
pub mod spec;
pub mod store;

pub use compare::Comparison;
pub use exec::{RunError, RunPhase, RunResult, TraceCache};
pub use faults::FaultPlan;
pub use plan::Shard;
pub use remote::RemoteStore;
pub use session::{Format, Session, SessionBuilder, StoreSummary, TimedRun};
pub use spec::{quick_suite_configs, Grid, RunSpec, QUICK_SUITE_WORKLOADS};
pub use store::{DirStore, MemStore, ResultStore, RunKey, StoreError, WarmKey, WARM_STEM_PREFIX};
pub use eole_core::pipeline::{WarmState, WARMSTATE_FORMAT};

use eole_core::config::CoreConfig;
use eole_core::pipeline::{PreparedTrace, SimError, Simulator};
use eole_core::stats::SimStats;
use eole_stats::report::json_string;
use eole_workloads::Workload;

/// The VP-eligible µ-op stream of a prepared trace, as
/// `(pc, history position, actual value)` triples — the input shape of
/// `eole_predictors::value::evaluate_stream`. One definition shared by
/// the `dvtage_budget` experiment and the `sim-throughput` predictor
/// microbench, so offline evaluations can never disagree on eligibility
/// or address formation.
pub fn vp_stream(trace: &PreparedTrace) -> Vec<(u64, u32, u64)> {
    trace
        .insts()
        .iter()
        .filter(|di| trace.text()[di.pc as usize].is_vp_eligible())
        .map(|di| (eole_isa::Program::inst_addr(di.pc), di.bhist_pos, di.result))
        .collect()
}

/// Interval-parallel execution policy: split one run's measurement
/// region into `k` deterministic intervals, warm each with a
/// functional-warmup prefix of `warmup` µ-ops, simulate them
/// independently, and stitch the per-interval [`SimStats`] into one
/// result (see `PERF.md`, "Interval-parallel simulation").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalPolicy {
    /// Number of intervals (`<= 1` means serial execution).
    pub k: u32,
    /// Predictor/cache warmup window simulated before each interval's
    /// measurement region (µ-ops).
    pub warmup: u64,
}

impl IntervalPolicy {
    /// A policy of `k` intervals with the methodology's default warmup
    /// window ([`Runner::default_interval_warmup`]).
    pub fn of(k: u32, runner: &Runner) -> Self {
        IntervalPolicy { k, warmup: runner.default_interval_warmup() }
    }
}

/// Relative error budget of a stitched run's cycle and squashed-µ-op
/// counts against the exact-boundary serial run (0.5%): the
/// `EOLE_PARANOID=1` mode and the golden stitched-vs-serial
/// table both pin it.
pub const INTERVAL_CYCLE_BUDGET: f64 = 0.005;

/// How a checkpoint reached the chained sweep's sink: served by the
/// fetch hook (a store hit, validated against the live configuration)
/// or built by functional replay (worth publishing to the store).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmOrigin {
    /// Fetched from a cache and validated.
    Loaded,
    /// Built by the sweep's functional replay.
    Built,
}

/// Accounting of one chained checkpoint sweep
/// ([`Runner::try_sweep_warm_states`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmSweepStats {
    /// µ-ops functionally replayed by the sweep. The O(trace) contract:
    /// with no cached checkpoints this is exactly the last checkpoint
    /// position (one trace prefix); with a fully warm cache it is zero.
    pub swept: u64,
    /// Checkpoints served by the fetch hook (store hits).
    pub loaded: usize,
    /// Checkpoints built by functional replay (published via the sink).
    pub built: usize,
}

/// Warmup/measurement methodology for one experiment run.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    /// µ-ops simulated before counters reset (caches/predictors warm up).
    pub warmup: u64,
    /// µ-ops measured after the reset.
    pub measure: u64,
}

impl Default for Runner {
    fn default() -> Self {
        Runner { warmup: 100_000, measure: 200_000 }
    }
}

impl Runner {
    /// A fast configuration for smoke tests and examples.
    pub fn quick() -> Self {
        Runner { warmup: 10_000, measure: 25_000 }
    }

    /// Total trace length needed.
    pub fn trace_len(&self) -> u64 {
        self.warmup + self.measure + 16
    }

    /// Generates the workload's trace once (shareable across configs).
    ///
    /// # Errors
    ///
    /// [`RunError::Kernel`] if the kernel fails to execute.
    pub fn try_prepare(&self, workload: &Workload) -> Result<PreparedTrace, RunError> {
        let trace = workload.trace(self.trace_len()).map_err(|e| RunError::Kernel {
            workload: workload.name.to_string(),
            reason: e.to_string(),
        })?;
        Ok(PreparedTrace::new(trace))
    }

    /// Runs one configuration over a prepared trace: warm up, reset
    /// counters, measure.
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] on configuration rejection or simulator deadlock,
    /// tagged with the phase that failed. (The workload field is filled by
    /// [`Session::run`]; direct callers get `"-"`.)
    pub fn try_run(
        &self,
        trace: &PreparedTrace,
        config: CoreConfig,
    ) -> Result<SimStats, RunError> {
        self.try_run_timed(trace, config).map(|(stats, _)| stats)
    }

    /// [`Runner::try_run`] plus the wall-clock seconds the measurement
    /// window took — the one definition of the build/warmup/measure
    /// sequence, so the throughput harness times exactly the execution
    /// the experiment harness reports.
    ///
    /// # Errors
    ///
    /// As [`Runner::try_run`].
    pub fn try_run_timed(
        &self,
        trace: &PreparedTrace,
        config: CoreConfig,
    ) -> Result<(SimStats, f64), RunError> {
        let name = config.name.clone();
        let mut sim = Simulator::new(trace, config).map_err(sim_error(&name, RunPhase::Build))?;
        sim.run(self.warmup).map_err(sim_error(&name, RunPhase::Warmup))?;
        sim.begin_measurement();
        let start = std::time::Instant::now();
        sim.run(self.measure).map_err(sim_error(&name, RunPhase::Measure))?;
        let seconds = start.elapsed().as_secs_f64();
        Ok((sim.stats(), seconds))
    }

    /// Default per-interval functional-warmup window: half the
    /// methodology's own warmup (floored at 1 000 µ-ops). Enough to warm
    /// caches and predictor tables on the Table 3 kernels while keeping
    /// the total redundant work (`k × warmup`) well under the measured
    /// region for the quick suite.
    pub fn default_interval_warmup(&self) -> u64 {
        (self.warmup / 2).max(1_000)
    }

    /// The measurement-region boundaries of a `k`-way interval split, as
    /// half-open `[start, end)` windows in committed-µ-op positions.
    /// Commit order is trace order, so these are also trace indices: the
    /// windows partition `[warmup, warmup + measure)` exactly, with the
    /// remainder spread across intervals (`start_i = warmup +
    /// ⌊i·measure/k⌋`).
    pub fn interval_bounds(&self, k: u32) -> Vec<(u64, u64)> {
        let k = u64::from(k).max(1);
        (0..k)
            .map(|i| {
                (
                    self.warmup + i * self.measure / k,
                    self.warmup + (i + 1) * self.measure / k,
                )
            })
            .collect()
    }

    /// The exact-boundary serial run: identical methodology to
    /// [`Runner::try_run`] except that the warmup and measurement windows
    /// are cut at exactly `warmup` and `measure` commits instead of
    /// overshooting into the next commit group. This is the comparator
    /// every stitched run is validated against: the single piece
    /// `[warmup, warmup + measure)` warmed from the trace head, which a
    /// 1-interval stitched run reproduces bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Runner::try_run`].
    pub fn try_run_serial_exact(
        &self,
        trace: &PreparedTrace,
        config: CoreConfig,
    ) -> Result<SimStats, RunError> {
        let (start, end) = (self.warmup, self.warmup + self.measure);
        self.try_run_piece(trace, config, None, start, end, self.warmup)
    }

    /// The warm-state checkpoint positions of a `k`-way split: piece `i`'s
    /// checkpoint sits at `start_i − warmup` (clamped at the trace head),
    /// just before its detailed warmup window begins. Non-decreasing by
    /// construction (starts increase, the window is constant), which is
    /// what lets one chained sweep emit all of them in a single O(trace)
    /// forward pass.
    pub fn warm_positions(&self, policy: IntervalPolicy) -> Vec<u64> {
        self.interval_bounds(policy.k)
            .iter()
            .map(|(start, _)| start.saturating_sub(policy.warmup))
            .collect()
    }

    /// One chained producer sweep: a single functional pass over the
    /// trace that emits the [`WarmState`] checkpoint at every requested
    /// position, in order. Total functional work is O(max position) —
    /// one trace prefix — instead of the Σ O(prefix_i) ≈ k·T/2 that
    /// replaying each piece's prefix separately would cost.
    ///
    /// `fetch(i, pos)` may supply a cached checkpoint (a store lookup);
    /// a hit is *validated* (position match + clean restore into the
    /// sweep simulator) before it is trusted — damaged bytes degrade to
    /// a rebuild: the sweep simulator is reconstructed from the last
    /// known-good checkpoint and replays forward. When every fetch hits,
    /// the sweep performs zero functional work.
    ///
    /// `sink(i, pos, state, origin)` observes every checkpoint the
    /// moment it is final (validated-loaded or freshly built), in
    /// position order — [`Session::run`] uses it to unblock waiting piece
    /// jobs and to publish built checkpoints to the store.
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] if the configuration is rejected at
    /// construction (functional warming itself is infallible).
    pub fn try_sweep_warm_states(
        &self,
        trace: &PreparedTrace,
        config: CoreConfig,
        positions: &[u64],
        mut fetch: impl FnMut(usize, u64) -> Option<WarmState>,
        mut sink: impl FnMut(usize, u64, &WarmState, WarmOrigin),
    ) -> Result<(Vec<WarmState>, WarmSweepStats), RunError> {
        let name = config.name.clone();
        let build_err = sim_error(&name, RunPhase::Build);
        let mut sim = Simulator::new(trace, config.clone()).map_err(&build_err)?;
        let mut out: Vec<WarmState> = Vec::with_capacity(positions.len());
        let mut stats = WarmSweepStats::default();
        for (i, &pos) in positions.iter().enumerate() {
            if let Some(cached) = fetch(i, pos) {
                let valid = cached.position().map(|p| p == pos).unwrap_or(false)
                    && sim.restore_warm(&cached).is_ok();
                if valid {
                    stats.loaded += 1;
                    sink(i, pos, &cached, WarmOrigin::Loaded);
                    out.push(cached);
                    continue;
                }
                // The fetched bytes were damaged or mis-shaped; a failed
                // restore may have left the sweep simulator partially
                // overwritten, so rebuild it — fresh construction, then
                // the last known-good checkpoint (if any) so only the
                // tail since the previous position is replayed.
                sim = Simulator::new(trace, config.clone()).map_err(&build_err)?;
                if let Some(prev) = out.last() {
                    if sim.restore_warm(prev).is_err() {
                        sim = Simulator::new(trace, config.clone()).map_err(&build_err)?;
                    }
                }
            }
            // Positions are non-decreasing on every caller's path, but a
            // hand-built out-of-order list must not silently checkpoint
            // the wrong prefix: restart the sweep from the trace head.
            if sim.cursor() as u64 > pos {
                sim = Simulator::new(trace, config.clone()).map_err(&build_err)?;
            }
            stats.swept += pos - sim.cursor() as u64;
            sim.functional_warm(pos as usize);
            let state = sim.capture_warm();
            stats.built += 1;
            sink(i, pos, &state, WarmOrigin::Built);
            out.push(state);
        }
        Ok((out, stats))
    }

    /// One interval piece — the only one: builds a fresh simulator,
    /// restores the [`WarmState`] captured at `start − warmup_window`
    /// (clamped at the trace head), warms it to `start` with exact commit
    /// boundaries, resets counters, and measures `[start, end)` exactly.
    ///
    /// `warm` is a cache, never a correctness dependency: when it is
    /// absent (the sweep failed), sits at another position, or fails to
    /// restore (truncated bytes, foreign shape), the piece rebuilds its
    /// checkpoint with a one-position [`Runner::try_sweep_warm_states`]
    /// and restores that. Restore is bit-identical to the functional
    /// replay of the same prefix (the [`WarmState`] contract, pinned by
    /// the `checkpoint_restore_equals_prefix_replay` proptest).
    ///
    /// Under `EOLE_PARANOID=1` the piece additionally replays the prefix
    /// from zero and asserts the two simulators agree byte for byte
    /// before the detailed window starts.
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] tagged with the failing phase, as
    /// [`Runner::try_run`] (workload attributed by [`Session::run`]).
    ///
    /// # Panics
    ///
    /// If a checkpoint the piece just swept does not restore, or, under
    /// `EOLE_PARANOID=1`, if a restored checkpoint is not byte-identical
    /// to the replayed prefix (both codec bugs).
    pub fn try_run_piece(
        &self,
        trace: &PreparedTrace,
        config: CoreConfig,
        warm: Option<&WarmState>,
        start: u64,
        end: u64,
        warmup_window: u64,
    ) -> Result<SimStats, RunError> {
        let name = config.name.clone();
        let build =
            || Simulator::new(trace, config.clone()).map_err(sim_error(&name, RunPhase::Build));
        let warm_from = start.saturating_sub(warmup_window);
        let mut sim = build()?;
        let restored = warm
            .filter(|w| w.position().ok() == Some(warm_from))
            .is_some_and(|w| sim.restore_warm(w).is_ok());
        if !restored {
            // A rejected restore may have left `sim` partially
            // overwritten: start again from a fresh simulator.
            let (rebuilt, _) = self.try_sweep_warm_states(
                trace,
                config.clone(),
                &[warm_from],
                |_, _| None,
                |_, _, _, _| {},
            )?;
            sim = build()?;
            let restored = rebuilt.first().map(|w| sim.restore_warm(w));
            assert!(
                matches!(restored, Some(Ok(()))),
                "{name}: the checkpoint just swept at {warm_from} does not restore"
            );
        }
        if eole_core::paranoid() {
            let mut replayed = build()?;
            replayed.functional_warm(warm_from as usize);
            assert_eq!(
                sim.capture_warm().as_bytes(),
                replayed.capture_warm().as_bytes(),
                "{name}: restored checkpoint at {warm_from} diverges from replay"
            );
        }
        sim.run_exact(start - warm_from).map_err(sim_error(&name, RunPhase::Warmup))?;
        sim.begin_measurement();
        sim.run_exact(end.saturating_sub(start)).map_err(sim_error(&name, RunPhase::Measure))?;
        Ok(sim.stats())
    }

    /// Interval-parallel methodology, sequentially: one chained sweep
    /// emits every piece's checkpoint ([`Runner::try_sweep_warm_states`]),
    /// each piece restores its checkpoint and runs its detailed window
    /// ([`Runner::try_run_piece`]), and [`stitch_pieces`] merges them.
    /// The committed count is exactly `measure` by construction. This is
    /// the single-threaded reference for [`Session::run`]'s interval path,
    /// and the one the compat-proptests drive; the sweep's accounting is
    /// returned alongside.
    ///
    /// # Errors
    ///
    /// The sweep's, then the first failing piece's, [`RunError`].
    pub fn try_run_intervals(
        &self,
        trace: &PreparedTrace,
        config: CoreConfig,
        policy: IntervalPolicy,
    ) -> Result<(SimStats, WarmSweepStats), RunError> {
        let (states, sweep) = self.try_sweep_warm_states(
            trace,
            config.clone(),
            &self.warm_positions(policy),
            |_, _| None,
            |_, _, _, _| {},
        )?;
        let pieces = self.interval_bounds(policy.k).into_iter().zip(&states).map(
            |((start, end), state)| {
                self.try_run_piece(trace, config.clone(), Some(state), start, end, policy.warmup)
            },
        );
        let stitched = stitch_pieces(pieces)?;
        if eole_core::paranoid() {
            let serial = self.try_run_serial_exact(trace, config.clone())?;
            check_stitched_against_serial(&config.name, policy, &stitched, &serial);
        }
        Ok((stitched, sweep))
    }

    /// Probes a sufficient per-interval warmup window (`--interval-warmup
    /// auto`): simulates the first split interval under each candidate
    /// window — a quarter of the methodology warmup, then the default
    /// half, then the full warmup — and compares its cycle count against
    /// the same interval warmed from the trace head (the zero-seam
    /// reference). The first candidate whose relative cycle error stays
    /// within half the stitched-run budget ([`INTERVAL_CYCLE_BUDGET`])
    /// wins; the full methodology warmup is the safe ceiling (its last
    /// candidate warms from the identical position, so the probe always
    /// terminates with a valid window). One sweep emits every candidate's
    /// checkpoint; the cost is a handful of detailed windows over one
    /// interval — far cheaper than a paranoid serial cross-check of a
    /// whole grid.
    ///
    /// # Errors
    ///
    /// As [`Runner::try_run_piece`].
    pub fn try_probe_interval_warmup(
        &self,
        trace: &PreparedTrace,
        config: CoreConfig,
        k: u32,
    ) -> Result<u64, RunError> {
        let (start, end) = self.interval_bounds(k.max(2))[0];
        let candidates = [
            (self.warmup / 4).max(1_000),
            self.default_interval_warmup(),
            self.warmup,
        ];
        let mut positions: Vec<u64> =
            candidates.iter().chain([&start]).map(|w| start.saturating_sub(*w)).collect();
        positions.sort_unstable();
        positions.dedup();
        let (states, _) = self.try_sweep_warm_states(
            trace,
            config.clone(),
            &positions,
            |_, _| None,
            |_, _, _, _| {},
        )?;
        let piece = |window: u64| {
            let at = positions.iter().position(|&p| p == start.saturating_sub(window));
            self.try_run_piece(trace, config.clone(), at.map(|i| &states[i]), start, end, window)
        };
        let reference = piece(start)?;
        for window in candidates {
            let probe = piece(window)?;
            let err = if reference.cycles == 0 {
                0.0
            } else {
                (probe.cycles as f64 - reference.cycles as f64).abs() / reference.cycles as f64
            };
            if err <= INTERVAL_CYCLE_BUDGET / 2.0 {
                return Ok(window);
            }
        }
        Ok(self.warmup)
    }

    /// Infallible [`Runner::try_prepare`] for examples.
    ///
    /// # Panics
    ///
    /// Panics with the typed [`RunError`] rendered.
    pub fn prepare(&self, workload: &Workload) -> PreparedTrace {
        self.try_prepare(workload).unwrap_or_else(|e| panic!("{e}")) // lint:allow(error-typing) documented `# Panics` convenience wrapper for examples
    }
}

/// A simulator failure in `phase` of a run of `config`, as a
/// [`RunError::Sim`]; the workload (`"-"` here) is attributed by
/// [`Session::run`].
fn sim_error(config: &str, phase: RunPhase) -> impl Fn(SimError) -> RunError + '_ {
    move |source| RunError::Sim {
        config: config.to_string(),
        workload: "-".to_string(),
        phase,
        source,
    }
}

/// Merges a run's interval pieces, in interval order, into the stitched
/// statistics with [`SimStats::merge`] — the one place pieces are
/// combined, shared by [`Runner::try_run_intervals`] and
/// [`Session::run`].
///
/// # Errors
///
/// The first failed piece's [`RunError`].
pub fn stitch_pieces(
    pieces: impl IntoIterator<Item = Result<SimStats, RunError>>,
) -> Result<SimStats, RunError> {
    pieces.into_iter().try_fold(SimStats::default(), |mut stitched, piece| {
        stitched.merge(&piece?);
        Ok(stitched)
    })
}

/// The `EOLE_PARANOID` validation: emits the stitched-vs-serial
/// delta as one machine-readable JSON line on stderr (`"event":
/// "interval-paranoid"`, greppable by CI) and panics when the stitch
/// breaks its contract — committed counts diverging, or the cycle or
/// squashed-µ-op error exceeding [`INTERVAL_CYCLE_BUDGET`]. Squashed
/// counts are budgeted, not exact: a squash discards however many µ-ops
/// are in flight, which depends on the timing at the interval seams.
///
/// # Panics
///
/// On any contract violation (the validation mode's failure signal; the
/// CI smoke step relies on the nonzero exit).
pub fn check_stitched_against_serial(
    label: &str,
    policy: IntervalPolicy,
    stitched: &SimStats,
    serial: &SimStats,
) {
    let relative = |a: u64, b: u64| a.abs_diff(b) as f64 / b.max(1) as f64;
    let err = relative(stitched.cycles, serial.cycles);
    let squash_err = relative(stitched.squashed, serial.squashed);
    eprintln!(
        "{{\"event\":\"interval-paranoid\",\"label\":{},\"k\":{},\"warmup\":{},\
         \"stitched_cycles\":{},\"serial_cycles\":{},\"cycle_err\":{:.6},\
         \"committed\":{},\"serial_committed\":{},\
         \"squashed\":{},\"serial_squashed\":{},\"within_budget\":{}}}",
        json_string(label),
        policy.k,
        policy.warmup,
        stitched.cycles,
        serial.cycles,
        err,
        stitched.committed,
        serial.committed,
        stitched.squashed,
        serial.squashed,
        err <= INTERVAL_CYCLE_BUDGET
            && stitched.committed == serial.committed
            && squash_err <= INTERVAL_CYCLE_BUDGET,
    );
    assert_eq!(
        stitched.committed, serial.committed,
        "{label}: stitched committed count must equal the serial run exactly"
    );
    for (what, e) in [("cycle", err), ("squashed-µ-op", squash_err)] {
        assert!(
            e <= INTERVAL_CYCLE_BUDGET,
            "{label}: stitched {what} error {:.4}% exceeds the {:.2}% budget (k={}, w={})",
            e * 100.0,
            INTERVAL_CYCLE_BUDGET * 100.0,
            policy.k,
            policy.warmup,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_measures_after_warmup() {
        let runner = Runner { warmup: 5_000, measure: 8_000 };
        let w = eole_workloads::workload_by_name("gzip").unwrap();
        let trace = runner.try_prepare(&w).unwrap();
        let stats = runner.try_run(&trace, CoreConfig::baseline_vp_6_64()).unwrap();
        assert!(stats.committed >= 8_000);
        assert!(stats.committed < 10_000, "window ends near the target");
        assert!(stats.ipc() > 0.1);
    }

    #[test]
    fn try_run_reports_the_failing_phase() {
        let runner = Runner::quick();
        let w = eole_workloads::workload_by_name("gzip").unwrap();
        let trace = runner.try_prepare(&w).unwrap();
        let mut bad = CoreConfig::baseline_6_64();
        bad.prf_banks = 3;
        match runner.try_run(&trace, bad) {
            Err(RunError::Sim { phase: RunPhase::Build, .. }) => {}
            other => panic!("expected a Build failure, got {other:?}"),
        }
    }

    #[test]
    fn panicking_wrappers_match_the_fallible_path() {
        let runner = Runner::quick();
        let w = eole_workloads::workload_by_name("namd").unwrap();
        let a = runner.prepare(&w);
        let b = runner.try_prepare(&w).unwrap();
        assert_eq!(a.insts(), b.insts());
    }
}
