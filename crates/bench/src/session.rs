//! The session layer: the one grid driver, over store + trace cache +
//! job loop + report emitters.
//!
//! The `experiments` CLI, the `sim-throughput` harness, the `fingerprints`
//! regenerator and the examples all drive runs through a [`Session`]. It
//! owns:
//!
//! * the methodology ([`Runner`]) every run of the session shares;
//! * the execution settings — worker count, the
//!   [`TraceCache`], an optional persistent [`ResultStore`], an optional
//!   [`Shard`] restriction, the interval policy and the per-run
//!   deadline — and the run counters; the job loop itself lives in
//!   [`crate::exec`];
//! * the report emitters ([`Format`], [`Session::render`]) and the
//!   atomic payload writer ([`Session::write_payload`]);
//! * wall-clock timing for the throughput harness
//!   ([`Session::time_run`]) — timing is the one path that must *never*
//!   be served from the store.
//!
//! Experiments run through a session via
//! [`ExperimentSet::with_session`](crate::experiments::ExperimentSet::with_session).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eole_core::pipeline::PreparedTrace;
use eole_core::stats::SimStats;
use eole_stats::report::{reports_to_json, ExperimentReport};
use eole_store_service::dir;
use eole_workloads::Workload;

use crate::exec::{attribute_workload, RunError, TraceCache};
use crate::plan::Shard;
use crate::remote::RemoteStore;
use crate::spec::RunSpec;
use crate::store::{DirStore, ResultStore};
use crate::{IntervalPolicy, Runner};

/// Output format of the report emitters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// GitHub-flavored Markdown tables (the default).
    Markdown,
    /// One `eole-report-set/v1` JSON object (schema in `EXPERIMENTS.md`).
    Json,
    /// One CSV block per report, separated by `# id: title` lines.
    Csv,
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Format, String> {
        match s {
            "md" | "markdown" => Ok(Format::Markdown),
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!("unknown format {other} (md|json|csv)")),
        }
    }
}

/// One timed simulation: the statistics plus the wall-clock seconds the
/// measurement window took (the throughput harness's unit of work).
#[derive(Clone, Copy, Debug)]
pub struct TimedRun {
    /// Statistics of the measurement window.
    pub stats: SimStats,
    /// Wall-clock seconds spent inside the measurement window.
    pub seconds: f64,
}

/// Builder for a [`Session`].
#[derive(Debug, Default)]
pub struct SessionBuilder {
    runner: Option<Runner>,
    threads: Option<usize>,
    store: Option<Arc<dyn ResultStore>>,
    store_dir: Option<String>,
    shard: Option<Shard>,
    intervals: u32,
    interval_warmup: Option<u64>,
    deadline: Option<Duration>,
}

impl SessionBuilder {
    /// Sets the warmup/measure methodology (defaults to
    /// [`Runner::default`]).
    #[must_use]
    pub fn runner(mut self, runner: Runner) -> Self {
        self.runner = Some(runner);
        self
    }

    /// Sets an explicit worker count (defaults to the machine size).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches an already-built result store.
    #[must_use]
    pub fn store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a persistent result store by *spec*: `tcp://HOST:PORT`
    /// connects a [`RemoteStore`] to an `eole-stored` daemon; anything
    /// else is a directory path for an on-disk [`DirStore`] (created by
    /// [`SessionBuilder::build`]).
    #[must_use]
    pub fn store_dir(mut self, dir: impl Into<String>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Restricts simulation to one shard of the partition.
    #[must_use]
    pub fn shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Splits every run into `k` deterministic intervals simulated
    /// concurrently and stitched (`k == 0`, the default, keeps the serial
    /// path). Interval results live under interval-tagged store keys —
    /// see `EXPERIMENTS.md`.
    #[must_use]
    pub fn intervals(mut self, k: u32) -> Self {
        self.intervals = k;
        self
    }

    /// Overrides the per-interval functional-warmup window (µ-ops
    /// simulated before each interval's measurement region); defaults to
    /// [`Runner::default_interval_warmup`].
    #[must_use]
    pub fn interval_warmup(mut self, warmup: Option<u64>) -> Self {
        self.interval_warmup = warmup;
        self
    }

    /// Arms a per-run wall-clock watchdog: a run whose piece job
    /// outlives the budget fails with a typed [`RunError::Deadline`]
    /// instead of silently stalling the whole suite. The check is
    /// cooperative — it fires when the job *returns*, so it bounds
    /// reported results, not a thread wedged inside the simulator (the
    /// simulator's own no-retirement deadlock detector covers in-sim
    /// hangs). `None` (the default) disables it.
    #[must_use]
    pub fn run_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// A rendered description if the store directory cannot be created.
    pub fn build(self) -> Result<Session, String> {
        let runner = self.runner.unwrap_or_default();
        let store = match (self.store, self.store_dir) {
            (Some(store), _) => Some(store),
            (None, Some(spec)) => Some(match spec.strip_prefix("tcp://") {
                Some(addr) => {
                    let remote = RemoteStore::connect(addr)
                        .map_err(|e| format!("connect result store {spec}: {e}"))?;
                    Arc::new(remote) as Arc<dyn ResultStore>
                }
                None => Arc::new(DirStore::open(spec)?) as Arc<dyn ResultStore>,
            }),
            (None, None) => None,
        };
        // Even `k == 1` runs through the exact-boundary piece path and is
        // stored under an interval-tagged key, never the serial one.
        let intervals = (self.intervals >= 1).then(|| IntervalPolicy {
            k: self.intervals,
            warmup: self.interval_warmup.unwrap_or_else(|| runner.default_interval_warmup()),
        });
        let plain = Session::new(runner);
        Ok(Session {
            threads: self.threads.map_or(plain.threads, |n| n.max(1)),
            store,
            // A full `1/1` shard is no restriction.
            shard: self.shard.filter(|shard| !shard.is_full()),
            intervals,
            deadline: self.deadline,
            ..plain
        })
    }
}

/// Store accounting for one session: the session's view of cache
/// traffic plus the backing store's health. Serialized as the flat
/// `store` block of the `eole-report-set/v1` JSON header (flat on
/// purpose — byte-compare tooling strips it with one non-nested-brace
/// pattern; see `EXPERIMENTS.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSummary {
    /// Runs served from the store without simulating.
    pub hits: usize,
    /// Lookups that found no entry.
    pub misses: usize,
    /// Runs actually simulated.
    pub sims: usize,
    /// Runs skipped because another shard owns them.
    pub skips: usize,
    /// Damaged entries quarantined by the backing store (checksum or
    /// parse failures — each triggered a transparent re-simulation; a
    /// [`DirStore`] keeps the damaged file as `<stem>.quarantined`).
    pub quarantined: u64,
    /// Evictions observed at the backing store (budget-limited daemons;
    /// always 0 for local stores).
    pub evictions_observed: u64,
    /// True when a remote store fell back to cache-less operation.
    pub degraded: bool,
}

/// The run counters of a session, shared by its workers.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) store_hits: AtomicUsize,
    pub(crate) store_misses: AtomicUsize,
    pub(crate) simulated: AtomicUsize,
    pub(crate) shard_skips: AtomicUsize,
    pub(crate) warm_loaded: AtomicUsize,
    pub(crate) warm_built: AtomicUsize,
}

/// The grid driver: everything a harness front end needs to turn specs
/// into results and results into payloads.
///
/// Runs are scheduled on a pool of `threads` workers (see
/// [`Session::run`]). Two optional layers sit in front of the simulator:
///
/// * a [`ResultStore`] is consulted by [`RunKey`](crate::RunKey) before
///   any trace is prepared or cycle simulated, and every fresh result is
///   saved back — a warm store serves a repeated grid with **zero**
///   simulations;
/// * a [`Shard`] restricts simulation to the runs this process owns;
///   foreign cells missing from the store come back as
///   [`RunError::NotInShard`] (the populate-pass contract — see
///   `crate::plan`).
#[derive(Debug)]
pub struct Session {
    runner: Runner,
    pub(crate) threads: usize,
    pub(crate) cache: TraceCache,
    pub(crate) store: Option<Arc<dyn ResultStore>>,
    pub(crate) shard: Option<Shard>,
    pub(crate) intervals: Option<IntervalPolicy>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) counters: Counters,
}

impl Session {
    /// Starts a builder.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A plain session: machine-sized worker pool, fresh trace cache, no
    /// store, no shard, serial runs.
    pub fn new(runner: Runner) -> Session {
        Session {
            runner,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            cache: TraceCache::new(),
            store: None,
            shard: None,
            intervals: None,
            deadline: None,
            counters: Counters::default(),
        }
    }

    /// The methodology shared by the session's runs.
    pub fn runner(&self) -> Runner {
        self.runner
    }

    /// The interval-parallel policy, if the session splits runs.
    pub fn intervals(&self) -> Option<IntervalPolicy> {
        self.intervals
    }

    /// The trace cache (inspectable: generation/hit counters).
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// Runs served from the result store without simulating.
    pub fn store_hits(&self) -> usize {
        self.counters.store_hits.load(Ordering::Relaxed)
    }

    /// Store lookups that found no entry (each miss is followed by a
    /// simulation, a shard skip, or — on a degraded remote store — a
    /// local fallback simulation).
    pub fn store_misses(&self) -> usize {
        self.counters.store_misses.load(Ordering::Relaxed)
    }

    /// Runs actually simulated (the "zero on a warm store" counter).
    pub fn simulated(&self) -> usize {
        self.counters.simulated.load(Ordering::Relaxed)
    }

    /// Runs skipped because another shard owns them.
    pub fn shard_skips(&self) -> usize {
        self.counters.shard_skips.load(Ordering::Relaxed)
    }

    /// Warm checkpoints served from the result store (no functional
    /// replay paid for those positions).
    pub fn warm_loaded(&self) -> usize {
        self.counters.warm_loaded.load(Ordering::Relaxed)
    }

    /// Warm checkpoints built by a producer sweep (and published to the
    /// store when one is attached). `--assert-warm-cached` pins this to
    /// zero on a warm store.
    pub fn warm_built(&self) -> usize {
        self.counters.warm_built.load(Ordering::Relaxed)
    }

    /// Store accounting, if a result store is attached.
    pub fn store_summary(&self) -> Option<StoreSummary> {
        let store = self.store.as_ref()?;
        Some(StoreSummary {
            hits: self.store_hits(),
            misses: self.store_misses(),
            sims: self.simulated(),
            skips: self.shard_skips(),
            quarantined: store.quarantined(),
            evictions_observed: store.observed_evictions(),
            degraded: store.degraded(),
        })
    }

    /// The prepared trace for `workload` under the session's methodology,
    /// generated once and shared through the trace cache.
    ///
    /// # Errors
    ///
    /// [`RunError::Kernel`] if the kernel fails to trace.
    pub fn prepare(&self, workload: &Workload) -> Result<Arc<PreparedTrace>, RunError> {
        self.cache.get_or_prepare(workload, &self.runner)
    }

    /// Simulates one spec and times its measurement window (via
    /// [`Runner::try_run_timed`] — the same build/warmup/measure sequence
    /// every cached and reported result takes). Never touches the result
    /// store — a stored result has no meaningful wall-clock — but shares
    /// the trace cache.
    ///
    /// # Errors
    ///
    /// [`RunError`] as from [`Session::run`] (kernel / build / warmup /
    /// measure).
    pub fn time_run(&self, spec: &RunSpec) -> Result<TimedRun, RunError> {
        let trace = self.prepare(&spec.workload)?;
        let (stats, seconds) = self
            .runner
            .try_run_timed(&trace, spec.effective_config())
            .map_err(|e| attribute_workload(e, spec))?;
        Ok(TimedRun { stats, seconds })
    }

    /// Renders a report set in the requested format. The JSON form wraps
    /// the reports with the session's runner metadata
    /// (`eole-report-set/v1`), so payloads from different methodologies
    /// can never be confused.
    pub fn render(&self, reports: &[ExperimentReport], format: Format) -> String {
        match format {
            Format::Markdown => {
                let mut out = String::new();
                for r in reports {
                    out.push_str(&r.render_markdown());
                    out.push('\n');
                }
                out
            }
            Format::Json => {
                // Additive header fields: store-less serial sessions emit
                // the exact v1 payload bytes they always did.
                let intervals = match self.intervals() {
                    Some(p) => format!(",\"intervals\":{{\"k\":{},\"warmup\":{}}}", p.k, p.warmup),
                    None => String::new(),
                };
                // Flat (no nested objects), so byte-compare tooling can
                // strip the run-varying counters with
                // `sed 's/,"store":{[^}]*}//'` — see `EXPERIMENTS.md`.
                let store = match self.store_summary() {
                    Some(s) => format!(
                        ",\"store\":{{\"hits\":{},\"misses\":{},\"sims\":{},\"skips\":{},\"quarantined\":{},\"evictions_observed\":{},\"degraded\":{}}}",
                        s.hits, s.misses, s.sims, s.skips, s.quarantined, s.evictions_observed, s.degraded
                    ),
                    None => String::new(),
                };
                format!(
                    "{{\"schema\":\"eole-report-set/v1\",\"runner\":{{\"warmup\":{},\"measure\":{}}}{}{},\"reports\":{}}}",
                    self.runner.warmup,
                    self.runner.measure,
                    intervals,
                    store,
                    reports_to_json(reports)
                )
            }
            Format::Csv => {
                let mut out = String::new();
                for r in reports {
                    out.push_str(&format!("# {}: {}\n", r.id(), r.title()));
                    out.push_str(&r.to_csv());
                    out.push('\n');
                }
                out
            }
        }
    }

    /// Writes a payload to `path` with [`dir::write_atomically`], so a
    /// mid-write failure never truncates the previous contents (trend
    /// tooling depends on the old payload surviving). A destination that
    /// exists but is not a regular file (`/dev/null`, a FIFO) is written
    /// in place: renaming over it would replace it with a plain file.
    ///
    /// # Errors
    ///
    /// A rendered description of the I/O failure.
    pub fn write_payload(path: &str, payload: &str) -> Result<(), String> {
        if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
            return std::fs::write(path, payload).map_err(|e| format!("write {path}: {e}"));
        }
        dir::write_atomically(Path::new(path), payload.as_bytes())
    }

    /// One-line cache/store accounting for stderr status output (CI
    /// parses `simulated N` out of this line; keep that token stable).
    pub fn accounting(&self) -> String {
        let degraded = if self.store.as_ref().is_some_and(|s| s.degraded()) {
            ", store DEGRADED (daemon lost; ran without the cache)"
        } else {
            ""
        };
        let warm = if self.intervals().is_some() {
            format!(
                ", warm checkpoints loaded {} built {}",
                self.warm_loaded(),
                self.warm_built(),
            )
        } else {
            String::new()
        };
        format!(
            "store hits {}, simulated {}, shard-skipped {}, traces generated {}{}{}",
            self.store_hits(),
            self.simulated(),
            self.shard_skips(),
            self.cache.generated(),
            warm,
            degraded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Grid;
    use crate::store::MemStore;
    use eole_core::config::CoreConfig;
    use eole_workloads::workload_by_name;

    #[test]
    fn format_parses_the_cli_names() {
        assert_eq!("md".parse::<Format>().unwrap(), Format::Markdown);
        assert_eq!("markdown".parse::<Format>().unwrap(), Format::Markdown);
        assert_eq!("json".parse::<Format>().unwrap(), Format::Json);
        assert_eq!("csv".parse::<Format>().unwrap(), Format::Csv);
        assert!("yaml".parse::<Format>().is_err());
    }

    #[test]
    fn session_runs_grids_and_accounts_for_the_store() {
        let store: Arc<dyn ResultStore> = Arc::new(MemStore::new());
        let session = Session::builder()
            .runner(Runner::quick())
            .threads(2)
            .store(Arc::clone(&store))
            .build()
            .unwrap();
        let grid = Grid::new()
            .runner(session.runner())
            .config(CoreConfig::baseline_6_64())
            .workload_names(&["gzip"]);
        let results = session.run(&grid);
        assert_eq!(results.len(), 1);
        assert!(results[0].stats().is_ok());
        assert_eq!(session.simulated(), 1);
        // Second pass: pure store hits.
        let again = session.run(&grid);
        assert!(again[0].stats().is_ok());
        assert_eq!(session.simulated(), 1);
        assert_eq!(session.store_hits(), 1);
        assert!(session.accounting().contains("simulated 1"));
    }

    #[test]
    fn time_run_reports_stats_and_a_positive_wall_clock() {
        let session = Session::builder().runner(Runner::quick()).build().unwrap();
        let spec = RunSpec {
            config: CoreConfig::baseline_6_64(),
            workload: workload_by_name("gzip").unwrap(),
            runner: session.runner(),
            seed: 0,
        };
        let timed = session.time_run(&spec).unwrap();
        assert!(timed.stats.committed >= session.runner().measure);
        assert!(timed.seconds > 0.0);
    }

    /// `--out /dev/null` and other non-regular destinations are written
    /// in place: replacing them with a renamed regular file would turn a
    /// device node or a FIFO into a plain file.
    #[cfg(unix)]
    #[test]
    fn write_payload_writes_a_fifo_in_place() {
        use std::io::Read;
        use std::os::unix::fs::FileTypeExt;
        let dir = std::env::temp_dir().join(format!("eole-fifo-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fifo = dir.join("out.fifo");
        let _ = std::fs::remove_file(&fifo);
        let made = std::process::Command::new("mkfifo").arg(&fifo).status().unwrap();
        assert!(made.success(), "mkfifo failed");
        let reader = {
            let fifo = fifo.clone();
            std::thread::spawn(move || {
                let mut text = String::new();
                std::fs::File::open(&fifo).unwrap().read_to_string(&mut text).unwrap();
                text
            })
        };
        Session::write_payload(fifo.to_str().unwrap(), "payload\n").unwrap();
        let kind = std::fs::symlink_metadata(&fifo).unwrap().file_type();
        assert!(kind.is_fifo(), "the FIFO must not be replaced by a regular file");
        assert_eq!(reader.join().unwrap(), "payload\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_render_carries_the_runner_header() {
        let session = Session::new(Runner { warmup: 11, measure: 22 });
        let payload = session.render(&[], Format::Json);
        assert!(payload.contains("\"runner\":{\"warmup\":11,\"measure\":22}"));
        assert!(payload.contains("\"schema\":\"eole-report-set/v1\""));
    }
}
