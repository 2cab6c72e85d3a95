//! The experiment path, measured once per traced `vp_steady` run: a
//! `Session` with two executor workers runs the `sim-throughput` presets ×
//! the quick-suite kernels split into 8 intervals against a fresh
//! `DirStore`. A cold pass simulates, saves results and warm checkpoints
//! and renders the JSON report; a warm pass re-runs the grid and must be
//! served entirely by store reads. This gives the `core.warm`,
//! `bench.exec`, `bench.store` and `stats.report` layers, which the serial
//! path never touches. (As a timed workload of its own, `grid_intervals`,
//! it was too unsteady on a 2-core host; see the README.)

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use eole_bench::{
    DirStore, Format, Grid, ResultStore, RunKey, RunResult, RunSpec, Runner, Session, StoreError,
    StoreSummary, WarmKey, INTERVAL_CYCLE_BUDGET,
};
use eole_core::config::CoreConfig;
use eole_core::pipeline::Simulator;
use eole_core::stats::SimStats;
use eole_stats::report::{Cell, ExperimentReport};

use crate::spans::{lock_clean, SpanId, Tracer, ROOT};
use crate::summary;
use crate::Outcome;

const KERNELS: [&str; 5] = ["gzip", "h264", "mcf", "namd", "hmmer"];
const INTERVALS: u32 = 8;
const WORKERS: usize = 2;
const RUNNER: Runner = Runner {
    warmup: 20_000,
    measure: 80_000,
};

/// The `sim-throughput` presets.
fn presets() -> Vec<CoreConfig> {
    vec![
        CoreConfig::baseline_6_64(),
        CoreConfig::baseline_vp_6_64(),
        CoreConfig::eole_6_64(),
        CoreConfig::eole_4_64_ports(4, 4),
    ]
}

/// What the store saw during one pass.
#[derive(Debug, Default)]
struct PassLog {
    span: SpanId,
    save_s: f64,
    load_s: f64,
}

/// A `DirStore` seen from outside: every call is timed and recorded as a
/// span under the current pass.
#[derive(Debug)]
struct TimedStore {
    inner: DirStore,
    tracer: Arc<Tracer>,
    pass: Mutex<PassLog>,
}

impl TimedStore {
    fn open(dir: &Path, tracer: Arc<Tracer>) -> Result<Self, String> {
        Ok(TimedStore {
            inner: DirStore::open(dir)?,
            tracer,
            pass: Mutex::default(),
        })
    }

    fn begin_pass(&self, span: SpanId) {
        *lock_clean(&self.pass) = PassLog {
            span,
            ..PassLog::default()
        };
    }

    fn end_pass(&self) -> PassLog {
        std::mem::take(&mut *lock_clean(&self.pass))
    }

    fn timed<T>(&self, name: &'static str, save: bool, f: impl FnOnce(&DirStore) -> T) -> T {
        let parent = lock_clean(&self.pass).span;
        let (out, secs) = self.tracer.span(name, parent, 0, |_| f(&self.inner));
        let mut p = lock_clean(&self.pass);
        if save {
            p.save_s += secs;
        } else {
            p.load_s += secs;
        }
        out
    }
}

impl ResultStore for TimedStore {
    fn load(&self, key: &RunKey) -> Option<SimStats> {
        self.timed("bench.store.load", false, |s| s.load(key))
    }

    fn save(&self, key: &RunKey, stats: &SimStats) -> Result<(), StoreError> {
        self.timed("bench.store.save", true, |s| s.save(key, stats))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn load_warm(&self, key: &WarmKey) -> Option<Vec<u8>> {
        self.timed("bench.store.load", false, |s| s.load_warm(key))
    }

    fn save_warm(&self, key: &WarmKey, bytes: &[u8]) -> Result<(), StoreError> {
        self.timed("bench.store.save", true, |s| s.save_warm(key, bytes))
    }

    fn quarantined(&self) -> u64 {
        self.inner.quarantined()
    }
}

/// The benchmark's scratch directory; removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The JSON report a user gets from the grid (one row per cell).
fn report(results: &[RunResult]) -> ExperimentReport {
    let mut r = ExperimentReport::new("grid_intervals", "quick-suite grid, 8 stitched intervals")
        .column("config")
        .column("workload")
        .column("cycles")
        .column("committed")
        .column("squashed")
        .column_unit("ipc", "uops/cycle")
        .column("vp_used")
        .column("branch_mispredicts");
    for res in results {
        let mut row = vec![
            Cell::from(res.spec.config.name.as_str()),
            res.spec.workload.name.into(),
        ];
        match res.stats() {
            Ok(s) => row.extend([
                Cell::Int(s.cycles),
                Cell::Int(s.committed),
                Cell::Int(s.squashed),
                Cell::Num(s.ipc()),
                Cell::Int(s.vp_used),
                Cell::Int(s.branch_mispredicts),
            ]),
            Err(e) => {
                row.push(Cell::Text(e.to_string()));
                row.extend((0..5).map(|_| Cell::Int(0)));
            }
        }
        r.add_row(row);
    }
    r
}

/// The report without the session's store-accounting block, the one part
/// that legitimately differs between a cold and a warm pass.
fn strip_store_block(json: &str) -> String {
    match json.find(",\"store\":{") {
        Some(at) => match json[at..].find('}') {
            Some(end) => format!("{}{}", &json[..at], &json[at + end + 1..]),
            None => json.to_string(),
        },
        None => json.to_string(),
    }
}

/// One pass over the grid, with what the store and the executor saw.
struct Pass {
    results: Vec<RunResult>,
    log: PassLog,
    summary: StoreSummary,
    run_s: f64,
    cpu_s: f64,
    json: String,
    render_s: f64,
}

fn pass(
    name: &'static str,
    session: &Session,
    grid: &Grid,
    store: &TimedStore,
    tracer: &Tracer,
    parent: SpanId,
) -> Pass {
    let before = session.store_summary().unwrap_or_default();
    let ((results, cpu_s), run_s) = tracer.span(name, parent, 0, |id| {
        store.begin_pass(id);
        let cpu = summary::cpu_seconds();
        let results = session.run(grid);
        (results, summary::cpu_seconds() - cpu)
    });
    let log = store.end_pass();
    let after = session.store_summary().unwrap_or_default();
    let summary = StoreSummary {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        sims: after.sims - before.sims,
        ..after
    };
    let (json, render_s) = tracer.span("stats.report.render", parent, 0, |_| {
        session.render(&[report(&results)], Format::Json)
    });
    Pass {
        results,
        log,
        summary,
        run_s,
        cpu_s,
        json: strip_store_block(&json),
        render_s,
    }
}

/// Checks both passes, cell by cell: the cold pass simulates every cell
/// (exactly `measure` committed µ-ops once stitched), and the warm pass
/// simulates none and returns the same statistics and report bytes.
fn check_passes(out: &mut Outcome, cold: &Pass, warm: &Pass) {
    let n = cold.results.len();
    for (c, w) in cold.results.iter().zip(&warm.results) {
        out.attempted += 2;
        let label = c.spec.label();
        let cold_ok = c.stats().map_err(|e| e.to_string()).and_then(|s| {
            if s.committed != RUNNER.measure {
                return Err(format!(
                    "stitched committed {} != {}",
                    s.committed, RUNNER.measure
                ));
            }
            if s.vp_used_correct + s.vp_used_wrong != s.vp_used {
                return Err("vp_used_correct + vp_used_wrong != vp_used".into());
            }
            Ok(format!("{s:?}"))
        });
        let cold_print = match cold_ok {
            Ok(p) => p,
            Err(e) => {
                out.fail(format!("{label} cold pass: {e}"));
                out.fail(format!("{label} warm pass: cold result unusable"));
                continue;
            }
        };
        match w.stats() {
            Ok(s) if format!("{s:?}") == cold_print => {}
            Ok(_) => out.fail(format!("{label} warm pass: differs from the cold pass")),
            Err(e) => out.fail(format!("{label} warm pass: {e}")),
        }
    }
    if cold.summary.sims != n || cold.summary.misses != n {
        out.fail(format!(
            "cold pass: {} sims and {} misses for {n} cells",
            cold.summary.sims, cold.summary.misses
        ));
    }
    if warm.summary.sims != 0 || warm.summary.hits != n {
        out.fail(format!(
            "warm pass: {} sims and {} store hits for {n} cells",
            warm.summary.sims, warm.summary.hits
        ));
    }
    if warm.json != cold.json {
        out.fail("warm pass: report bytes differ from the cold pass");
    }
}

/// One sampled cell per kernel against the exact-boundary serial run:
/// the stitched committed count must be equal, and the squashed count
/// within the interval cycle budget. Squashes are counted in µ-ops
/// discarded, which depends on pipeline occupancy and so on the seam
/// timing the budget covers; the stitched count differs from the serial
/// one on some cells and seeds (by up to 0.12% here), so any difference
/// is reported, and only one beyond the budget fails.
fn check_against_serial(
    out: &mut Outcome,
    session: &Session,
    specs: &[RunSpec],
    cold: &[RunResult],
    seed: u64,
) -> Result<(), String> {
    let per_kernel = presets().len();
    for (k, chunk) in specs.chunks(per_kernel).enumerate() {
        let p = ((seed + k as u64) % per_kernel as u64) as usize;
        let (spec, stitched) = (&chunk[p], &cold[k * per_kernel + p]);
        out.attempted += 1;
        let trace = session.prepare(&spec.workload).map_err(|e| e.to_string())?;
        let serial = RUNNER.try_run_serial_exact(&trace, spec.effective_config());
        match (serial, stitched.stats()) {
            (Ok(a), Ok(b)) if a.committed == b.committed => {
                let diff = a.squashed.abs_diff(b.squashed);
                if diff as f64 > INTERVAL_CYCLE_BUDGET * a.squashed as f64 {
                    out.fail(format!(
                        "{}: stitched squashed {} vs serial {}, beyond the interval budget",
                        spec.label(),
                        b.squashed,
                        a.squashed
                    ));
                } else if diff > 0 {
                    eprintln!(
                        "  squash divergence within budget: {} stitched {} vs serial {}",
                        spec.label(),
                        b.squashed,
                        a.squashed
                    );
                }
            }
            (Ok(a), Ok(b)) => out.fail(format!(
                "{}: stitched committed {} != serial {}",
                spec.label(),
                b.committed,
                a.committed
            )),
            (Err(e), _) => out.fail(format!("{}: serial run: {e}", spec.label())),
            (_, Err(e)) => out.fail(format!("{}: stitched run: {e}", spec.label())),
        }
    }
    Ok(())
}

/// The warm-state layer from outside the executor: one chained sweep per
/// cell (as the producer job runs it), then every checkpoint restored
/// into a freshly built simulator and captured again. The round trip must
/// be byte-identical, and one sampled cell per kernel must match the
/// checkpoints the cold pass saved in the store.
fn probe_warm(
    out: &mut Outcome,
    session: &Session,
    specs: &[RunSpec],
    store: &TimedStore,
    tracer: &Tracer,
    parent: SpanId,
    seed: u64,
) -> Result<(), String> {
    let policy = session.intervals().ok_or("session is not interval-split")?;
    let positions = RUNNER.warm_positions(policy);
    let per_kernel = presets().len();
    let (mut sweep_s, mut swept, mut bytes) = (0.0, 0u64, 0usize);
    let (mut restore_s, mut capture_s) = (0.0, 0.0);
    for (i, spec) in specs.iter().enumerate() {
        out.attempted += 1;
        let run = i as u64;
        let trace = session.prepare(&spec.workload).map_err(|e| e.to_string())?;
        let config = spec.effective_config();
        let (sweep, secs) = tracer.span("core.warm.sweep", parent, run, |_| {
            RUNNER.try_sweep_warm_states(
                &trace,
                config.clone(),
                &positions,
                |_, _| None,
                |_, _, _, _| {},
            )
        });
        let (states, stats) = sweep.map_err(|e| e.to_string())?;
        sweep_s += secs;
        swept += stats.swept;
        let sampled =
            i % per_kernel == ((seed + (i / per_kernel) as u64) % per_kernel as u64) as usize;
        let mut problem = None;
        for (state, &pos) in states.iter().zip(&positions) {
            bytes += state.len();
            if sampled
                && store.inner.load_warm(&WarmKey::of(spec, pos)).as_deref()
                    != Some(state.as_bytes())
            {
                problem = Some(format!(
                    "stored checkpoint at {pos} differs from a fresh sweep"
                ));
            }
            let (sim, _) = tracer.span("core.pipeline.build", parent, run, |_| {
                Simulator::new(&trace, config.clone())
            });
            let mut sim = sim.map_err(|e| e.to_string())?;
            let (restored, r) = tracer.span("core.warm.restore", parent, run, |_| {
                sim.restore_warm(state)
            });
            let (captured, c) =
                tracer.span("core.warm.capture", parent, run, |_| sim.capture_warm());
            if restored.is_err() || captured != *state {
                problem = Some(format!(
                    "checkpoint at {pos} does not survive restore + capture"
                ));
            }
            restore_s += r;
            capture_s += c;
        }
        if let Some(p) = problem {
            out.fail(format!("{}: {p}", spec.label()));
        }
    }
    let m = &mut out.metrics;
    m.insert("core.warm.sweep_s", sweep_s);
    m.insert("core.warm.swept_uops", swept as f64);
    m.insert("core.warm.checkpoint_bytes", bytes as f64);
    m.insert("core.warm.restore_ms", restore_s * 1e3);
    m.insert("core.warm.capture_ms", capture_s * 1e3);
    Ok(())
}

/// Runs the experiment path once and inserts the `core.warm`,
/// `bench.exec`, `bench.store` and `stats.report` metrics.
pub fn measure(out: &mut Outcome, seed: u64, tracer: &Arc<Tracer>) -> Result<(), String> {
    let work = WorkDir(PathBuf::from(".perfbench").join(format!("grid-{}", std::process::id())));
    let store = Arc::new(TimedStore::open(&work.0, Arc::clone(tracer))?);
    let session = Session::builder()
        .runner(RUNNER)
        .threads(WORKERS)
        .store(Arc::clone(&store) as Arc<dyn ResultStore>)
        .intervals(INTERVALS)
        .build()?;
    let grid = Grid::new()
        .runner(RUNNER)
        .configs(presets())
        .workload_names(&KERNELS)
        .seeds([seed]);
    let specs = grid.specs();
    // Traces are generated before the passes, as the serial set-up does.
    for w in grid.workload_list() {
        session.prepare(w).map_err(|e| e.to_string())?;
    }
    let (cold, warm) = tracer
        .span("experiment", ROOT, 0, |id| {
            let cold = pass("bench.exec.cold", &session, &grid, &store, tracer, id);
            let warm = pass("bench.exec.warm", &session, &grid, &store, tracer, id);
            (cold, warm)
        })
        .0;
    check_passes(out, &cold, &warm);
    check_against_serial(out, &session, &specs, &cold.results, seed)?;
    let m = &mut out.metrics;
    m.insert("bench.exec.busy_s", cold.cpu_s);
    m.insert(
        "bench.exec.idle_s",
        (WORKERS as f64 * cold.run_s - cold.cpu_s).max(0.0),
    );
    m.insert("bench.exec.runs", cold.summary.sims as f64);
    m.insert("bench.store.save_ms", cold.log.save_s * 1e3);
    m.insert("bench.store.load_ms", warm.log.load_s * 1e3);
    m.insert("bench.store.hits", warm.summary.hits as f64);
    m.insert("bench.store.misses", cold.summary.misses as f64);
    m.insert("bench.store.sims", warm.summary.sims as f64);
    m.insert("bench.store.bytes_written", dir_bytes(&work.0) as f64);
    m.insert(
        "stats.report.render_ms",
        (cold.render_s + warm.render_s) * 1e3,
    );
    tracer
        .span("core.warm.probe", ROOT, 0, |id| {
            probe_warm(out, &session, &specs, &store, tracer, id, seed)
        })
        .0
}
