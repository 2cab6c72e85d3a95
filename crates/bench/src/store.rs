//! Persistent run identity and result caching.
//!
//! * [`RunKey`] — the canonical identity of one simulation run:
//!   configuration digest + workload + methodology + seed + the
//!   simulator's cycle-behavior version
//!   ([`SIM_FINGERPRINT_VERSION`]). Two runs with equal keys produce
//!   identical [`SimStats`] (the simulator is deterministic), which is
//!   what makes caching sound.
//! * [`ResultStore`] — where completed runs live. [`MemStore`] keeps them
//!   in memory (tests, single-process dedup); [`DirStore`] persists one
//!   JSON file per key (`eole-result/v2`, schema in `EXPERIMENTS.md`) so
//!   repeated invocations — and shards of a partitioned grid — share
//!   work across processes.
//! * Warm-state checkpoints ([`WarmKey`]) are stored as their own bytes:
//!   a 16-byte header (the FNV-1a of everything after its first 8 bytes,
//!   then [`WarmKey::digest64`]) followed by the `WarmState` snapshot,
//!   one `warm__*.bin` file per key in a [`DirStore`].
//!
//! A session consults the store *before* simulating and saves every
//! fresh result after; a warm store therefore serves a whole experiment
//! suite with zero simulations (`experiments --store DIR
//! --assert-cached` turns that into a checkable gate).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use eole_store_service::{dir, lock_clean};
pub use eole_store_service::dir::WARM_STEM_PREFIX;
pub use eole_store_service::StoreError;

use eole_core::canon::{CanonicalBytes, Fnv64, SIM_FINGERPRINT_VERSION};
use eole_core::pipeline::WARMSTATE_FORMAT;
use eole_core::stats::SimStats;
use eole_mem::counters::{Counter, CounterVisitor};
use eole_stats::json::Json;
use eole_stats::report::json_string;

use crate::faults;
use crate::spec::RunSpec;

/// Why a stored payload was rejected — the distinction drives recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadError {
    /// The entry is *damaged*: bytes that are not UTF-8 or not JSON (a
    /// result), shorter than the header (a checkpoint), a truncated or
    /// malformed checksum field, or a checksum mismatch (bit rot, torn
    /// write, hostile edit). [`DirStore`] quarantines such files —
    /// renamed to `<stem>.quarantined` for forensics — and re-simulates.
    Corrupt(String),
    /// The entry is *well-formed but not ours*: a different key, schema
    /// generation, or simulator version — including pre-checksum
    /// payloads from older builds. A plain miss; the next save
    /// overwrites in place.
    Foreign(String),
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
            PayloadError::Foreign(msg) => write!(f, "foreign payload: {msg}"),
        }
    }
}

/// The canonical identity of one simulation run.
///
/// Equality here is the caching contract: everything that can change a
/// run's statistics is in the key, and nothing else is. The configuration
/// enters as its content digest (see `eole_core::canon`); the seed stays
/// a separate axis (it perturbs the config's stochastic components via
/// [`RunSpec::effective_config`], so the *base* config digest plus the
/// seed identifies the effective one).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Simulator cycle-behavior version
    /// ([`SIM_FINGERPRINT_VERSION`]); a bump invalidates every
    /// previously stored result.
    pub sim_version: u32,
    /// Display name of the configuration (kept for human-readable
    /// filenames and payloads; identity comes from the digest, which
    /// already covers the name).
    pub config_name: String,
    /// Content digest of the base configuration.
    pub config_digest: u64,
    /// Workload name (Table 3 registry).
    pub workload: String,
    /// Warmup µ-ops of the methodology.
    pub warmup: u64,
    /// Measured µ-ops of the methodology.
    pub measure: u64,
    /// Replication seed (0 = the paper's seeds, unperturbed).
    pub seed: u64,
    /// Interval count of a stitched run (`0` = serial). Stitched results
    /// are *never* stored under the serial key: interval execution cuts
    /// windows at exact commit boundaries and approximates cycle counts
    /// within a budget, so its results must not silently replace serial
    /// ones. A nonzero count (with its warmup window) tags the key.
    pub intervals: u32,
    /// Per-interval functional-warmup window (µ-ops; meaningful iff
    /// `intervals > 0`).
    pub interval_warmup: u64,
}

impl RunKey {
    /// Derives the key for a spec under the current simulator version.
    pub fn of(spec: &RunSpec) -> RunKey {
        RunKey {
            sim_version: SIM_FINGERPRINT_VERSION,
            config_name: spec.config.name.clone(),
            config_digest: spec.config.digest(),
            workload: spec.workload.name.to_string(),
            warmup: spec.runner.warmup,
            measure: spec.runner.measure,
            seed: spec.seed,
            intervals: 0,
            interval_warmup: 0,
        }
    }

    /// Derives the interval-tagged key for a stitched run of `spec`
    /// under `policy` (a non-splitting policy degrades to the serial
    /// key: `k <= 1` stitched runs are still exact-boundary runs, but
    /// keeping them tagged would fragment the store for no benefit —
    /// they are *not* bit-identical to the overshooting serial
    /// methodology, so `k == 1` is tagged too; only `k == 0` is treated
    /// as "no policy").
    pub fn of_intervals(spec: &RunSpec, policy: crate::IntervalPolicy) -> RunKey {
        let mut key = RunKey::of(spec);
        if policy.k > 0 {
            key.intervals = policy.k;
            key.interval_warmup = policy.warmup;
        }
        key
    }

    /// A 64-bit digest of the whole key (shard ownership hashes this, so
    /// a run's shard assignment is a pure function of its identity).
    pub fn digest64(&self) -> u64 {
        let mut c = CanonicalBytes::new();
        c.put_str("eole-run-key/v1");
        c.put_u64(u64::from(self.sim_version));
        c.put_u64(self.config_digest);
        c.put_str(&self.workload);
        c.put_u64(self.warmup);
        c.put_u64(self.measure);
        c.put_u64(self.seed);
        // Appended only for stitched runs, so every serial key digest —
        // and therefore every existing store file and shard assignment —
        // is unchanged.
        if self.intervals > 0 {
            c.put_str("intervals");
            c.put_u64(u64::from(self.intervals));
            c.put_u64(self.interval_warmup);
        }
        c.digest()
    }

    /// The entry's file stem (layout in `render_stem`); its axes are the
    /// sim version, methodology, seed and interval tag.
    pub fn file_stem(&self) -> String {
        let mut axes =
            format!("v{}_w{}_m{}_s{}", self.sim_version, self.warmup, self.measure, self.seed);
        if self.intervals > 0 {
            axes.push_str(&format!("_i{}-{}", self.intervals, self.interval_warmup));
        }
        let (workload, config) = (&self.workload, &self.config_name);
        render_stem("", workload, config, &axes, self.config_digest, self.digest64())
    }
}

/// The file-stem layout of both key kinds:
/// `<prefix><workload>__<config>__<axes>__<config digest>-<key digest>`.
/// Names are sanitized into the stem alphabet (ASCII alphanumerics, `_`,
/// `-` — which the `eole-stored` wire-key grammar also accepts), so two
/// names may collide there; the full key digest covers the raw names and
/// every axis, so distinct keys never share a file.
fn render_stem(
    prefix: &str,
    workload: &str,
    config: &str,
    axes: &str,
    config_digest: u64,
    key_digest: u64,
) -> String {
    let sanitize = |name: &str| -> String {
        name.chars()
            .map(|ch| if ch.is_ascii_alphanumeric() || ch == '_' || ch == '-' { ch } else { '-' })
            .collect()
    };
    let (workload, config) = (sanitize(workload), sanitize(config));
    format!("{prefix}{workload}__{config}__{axes}__{config_digest:016x}-{key_digest:016x}")
}

/// The canonical identity of one warm-state checkpoint
/// (`eole-warmstate/v2`, see [`eole_core::pipeline::WarmState`]).
///
/// A checkpoint is the byte-exact functional-warm state at trace
/// `position`, so its identity is everything that determines that state:
/// the simulator's cycle-behavior version and the snapshot format (both
/// folded into the digest via [`WARMSTATE_FORMAT`]), the base
/// configuration digest plus the replication seed (the seed perturbs the
/// effective configuration), the workload *and its generated trace
/// length* (trace identity, as in [`crate::exec::TraceCache`]), and the
/// position itself. Deliberately absent: the interval count `k` and the
/// per-interval warmup window — a checkpoint at position P is the same
/// bytes whichever split asked for it, which is what lets a `k=2` session
/// reuse the checkpoints a `k=4` session swept.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WarmKey {
    /// Simulator cycle-behavior version ([`SIM_FINGERPRINT_VERSION`]).
    pub sim_version: u32,
    /// Display name of the base configuration (filenames/payloads only).
    pub config_name: String,
    /// Content digest of the base configuration.
    pub config_digest: u64,
    /// Workload name (Table 3 registry).
    pub workload: String,
    /// Generated trace length in µ-ops ([`crate::Runner::trace_len`]).
    pub trace_len: u64,
    /// Replication seed (perturbs the effective configuration).
    pub seed: u64,
    /// Trace position (µ-op index) the checkpoint was captured at.
    pub position: u64,
}

impl WarmKey {
    /// Derives the checkpoint key for `spec` at `position` under the
    /// current simulator version.
    pub fn of(spec: &RunSpec, position: u64) -> WarmKey {
        WarmKey {
            sim_version: SIM_FINGERPRINT_VERSION,
            config_name: spec.config.name.clone(),
            config_digest: spec.config.digest(),
            workload: spec.workload.name.to_string(),
            trace_len: spec.runner.trace_len(),
            seed: spec.seed,
            position,
        }
    }

    /// A 64-bit digest of the whole key. The snapshot format marker
    /// participates, so a `WARMSTATE_FORMAT` bump (any snapshot layout
    /// change) silently invalidates every cached checkpoint — old
    /// entries become misses that degrade to a functional rebuild.
    pub fn digest64(&self) -> u64 {
        let mut c = CanonicalBytes::new();
        c.put_str("eole-warm-key/v1");
        c.put_str(WARMSTATE_FORMAT);
        c.put_u64(u64::from(self.sim_version));
        c.put_u64(self.config_digest);
        c.put_str(&self.workload);
        c.put_u64(self.trace_len);
        c.put_u64(self.seed);
        c.put_u64(self.position);
        c.digest()
    }

    /// The entry's file stem (layout in `render_stem`), always starting
    /// with [`WARM_STEM_PREFIX`]; its axes are the sim version, trace
    /// length, seed and position.
    pub fn file_stem(&self) -> String {
        let axes =
            format!("v{}_t{}_s{}_p{}", self.sim_version, self.trace_len, self.seed, self.position);
        let (workload, config) = (&self.workload, &self.config_name);
        render_stem(WARM_STEM_PREFIX, workload, config, &axes, self.config_digest, self.digest64())
    }
}

/// Where completed runs are remembered.
///
/// Implementations must be shareable across a session's worker threads
/// (`&self` methods, internal synchronization). `load` answering `None`
/// means "simulate it"; a corrupt or unreadable entry is a miss, never an
/// error — the store is a cache, and the simulator is always able to
/// regenerate the truth.
pub trait ResultStore: Send + Sync + std::fmt::Debug {
    /// The stored statistics for `key`, if present and readable.
    fn load(&self, key: &RunKey) -> Option<SimStats>;

    /// Persists the statistics for `key` (overwrites an existing entry).
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`], if any. Losing a cache write is not
    /// recoverable silently — the caller surfaces it as a typed run
    /// error so CI catches a broken store directory.
    fn save(&self, key: &RunKey, stats: &SimStats) -> Result<(), StoreError>;

    /// Number of entries currently stored.
    fn len(&self) -> usize;

    /// True when the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Releases any in-flight claim this process holds on `key` without
    /// publishing a result — called when the simulation behind a
    /// single-flight lease fails, so waiters on a networked store are
    /// woken instead of blocking until the lease TTL. Local stores have
    /// no leases; the default is a no-op.
    fn abandon(&self, _key: &RunKey) {}

    /// The serialized warm-state checkpoint for `key`
    /// (`eole-warmstate/v2` bytes), if present and intact. Checkpoints
    /// are an optional acceleration layer: a store that does not persist
    /// them (the default) answers `None` and the chained sweep rebuilds
    /// the state functionally — a miss, or a corrupt entry, costs a
    /// rebuild, never correctness.
    fn load_warm(&self, _key: &WarmKey) -> Option<Vec<u8>> {
        None
    }

    /// Persists a warm-state checkpoint (overwrites an existing entry).
    /// Best-effort by contract — callers treat a failure as "not
    /// cached", not as a run failure.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] for accounting; the default drops the
    /// checkpoint and reports success.
    fn save_warm(&self, _key: &WarmKey, _bytes: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }

    /// Releases an in-flight single-flight claim on a checkpoint key
    /// without publishing (the warm analogue of [`ResultStore::abandon`]).
    fn abandon_warm(&self, _key: &WarmKey) {}

    /// True when the store has fallen back to cache-less operation
    /// (e.g. the remote daemon became unreachable); loads answer `None`
    /// and saves are dropped, so runs still complete correctly.
    fn degraded(&self) -> bool {
        false
    }

    /// Evictions observed at the backing store (LRU sweeps at a
    /// budget-limited daemon); local stores never evict.
    fn observed_evictions(&self) -> u64 {
        0
    }

    /// Entries found *damaged* (checksum mismatch or unparsable bytes)
    /// and set aside so they can never be served again — [`DirStore`]
    /// renames them to `<stem>.quarantined`; a remote store counts the
    /// daemon payloads it rejected. Foreign-but-well-formed entries are
    /// plain misses and are not counted here.
    fn quarantined(&self) -> u64 {
        0
    }
}

/// An in-memory [`ResultStore`]: per-process dedup and tests.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<HashMap<RunKey, SimStats>>,
    warm: Mutex<HashMap<WarmKey, Vec<u8>>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResultStore for MemStore {
    fn load(&self, key: &RunKey) -> Option<SimStats> {
        lock_clean(&self.map).get(key).copied()
    }

    fn save(&self, key: &RunKey, stats: &SimStats) -> Result<(), StoreError> {
        lock_clean(&self.map).insert(key.clone(), *stats);
        Ok(())
    }

    // Checkpoints live beside results but never count in `len()` — the
    // store-size invariants (shard accounting, `--assert-cached`) are
    // about run results.
    fn load_warm(&self, key: &WarmKey) -> Option<Vec<u8>> {
        lock_clean(&self.warm).get(key).cloned()
    }

    fn save_warm(&self, key: &WarmKey, bytes: &[u8]) -> Result<(), StoreError> {
        lock_clean(&self.warm).insert(key.clone(), bytes.to_vec());
        Ok(())
    }

    fn len(&self) -> usize {
        lock_clean(&self.map).len()
    }
}

/// An on-disk [`ResultStore`]: one file per key (`<stem>.json` for a
/// result, `<stem>.bin` for a checkpoint), in the
/// [`eole_store_service::dir`] layout the `eole-stored` daemon shares.
///
/// Writes go through [`dir::write_atomically`], so a crashed or killed
/// process can leave at worst a stray `.tmp-*` file — never a truncated
/// entry. Every payload carries an FNV-1a checksum; reads that fail it
/// (or fail to parse at all) are *damaged* — the file is renamed to
/// `<stem>.quarantined` so it can never be served again, the miss
/// triggers a re-simulation, and the fresh save recreates the entry.
/// Well-formed entries that merely belong to another schema generation
/// or key are plain misses; both kinds count in [`DirStore::corrupt`],
/// quarantines additionally in [`DirStore::quarantined_count`].
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
    hits: AtomicUsize,
    misses: AtomicUsize,
    corrupt: AtomicUsize,
    quarantined: AtomicUsize,
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// A rendered description if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DirStore, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create result store {}: {e}", dir.display()))?;
        Ok(DirStore {
            dir,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            corrupt: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lookups served from disk.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found no entry.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries that existed but failed to parse or verify (each was
    /// treated as a miss and will be overwritten by the next save).
    /// Superset of [`DirStore::quarantined_count`]: damaged *and*
    /// foreign entries both land here.
    pub fn corrupt(&self) -> usize {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Damaged entries renamed to `<stem>.quarantined` (checksum
    /// mismatch or unparsable bytes — never served, kept for forensics;
    /// the re-simulated result lands in a fresh entry).
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// The one load path of results and checkpoints: read the entry,
    /// parse it against its key, and quarantine it if it is damaged.
    fn load_entry<T>(
        &self,
        stem: &str,
        parse: impl FnOnce(&[u8]) -> Result<T, PayloadError>,
    ) -> Option<T> {
        let path = dir::entry_path(&self.dir, stem);
        let Ok(mut bytes) = std::fs::read(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        if faults::fire(faults::DIR_LOAD_CORRUPT).is_some() {
            // Simulated media damage: halving the entry leaves unparsable
            // JSON or a checksum mismatch, so the quarantine path below
            // always fires.
            bytes.truncate(bytes.len() / 2);
        }
        match parse(&bytes) {
            Ok(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Err(why) => {
                // A damaged entry is set aside under a name no lookup will
                // ever read again (forensics can inspect it); the session
                // re-simulates (or the sweep rebuilds) and saves a fresh
                // entry. A rename race (another worker already
                // quarantined it) is harmless: only one read can have seen
                // each damaged file before the first rename wins. A
                // foreign entry (old schema, key drift) is a plain miss
                // that the next save overwrites in place.
                if matches!(why, PayloadError::Corrupt(_)) {
                    let _ = std::fs::rename(&path, path.with_extension("quarantined"));
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The one save path of results and checkpoints.
    fn save_entry(&self, stem: &str, payload: &[u8]) -> Result<(), StoreError> {
        if faults::fire(faults::DIR_SAVE_IO).is_some() {
            // Before the temp write, so an injected failure never leaks
            // a `.tmp-*` file.
            return Err(StoreError::Io("injected fault: dir.save.io".to_string()));
        }
        dir::write_atomically(&dir::entry_path(&self.dir, stem), payload)
            .map_err(StoreError::Io)
    }
}

impl ResultStore for DirStore {
    fn load(&self, key: &RunKey) -> Option<SimStats> {
        self.load_entry(&key.file_stem(), |payload| parse_result_payload(payload, key))
    }

    fn save(&self, key: &RunKey, stats: &SimStats) -> Result<(), StoreError> {
        self.save_entry(&key.file_stem(), render_result_payload(key, stats).as_bytes())
    }

    fn load_warm(&self, key: &WarmKey) -> Option<Vec<u8>> {
        self.load_entry(&key.file_stem(), |payload| parse_warm_payload(payload, key))
    }

    fn save_warm(&self, key: &WarmKey, bytes: &[u8]) -> Result<(), StoreError> {
        self.save_entry(&key.file_stem(), &render_warm_payload(key, bytes))
    }

    fn len(&self) -> usize {
        // Warm-state checkpoints share the directory but are excluded:
        // `len()` is the *result* count (shard accounting and the
        // single-flight CI invariant `sims == keys` depend on it).
        dir::scan(&self.dir).iter().filter(|(stem, _)| !stem.starts_with(WARM_STEM_PREFIX)).count()
    }

    fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed) as u64
    }
}

// ---- eole-result/v2 payload ----------------------------------------------
// (v2 = v1 plus the per-confidence-level and block-front counters; v1
// files degrade to cache misses and are overwritten on the next save.)

/// Renders the stored-result payload (schema documented in
/// `EXPERIMENTS.md`). Every counter is an exact JSON integer, so a report
/// built from stored results is byte-identical to one built from fresh
/// simulations.
pub fn render_result_payload(key: &RunKey, s: &SimStats) -> String {
    let mut out = String::with_capacity(1536);
    // The checksum field sits right after the schema tag, *before* any
    // user-influenced string (config/workload names are JSON-escaped but
    // could still contain the bytes `"crc":"` if it appeared later), so
    // the first occurrence of CRC_FIELD in the text is always this one.
    out.push_str(&format!(
        "{{\"schema\":\"{RESULT_SCHEMA}\",\"crc\":\"0000000000000000\",\"sim_version\":{},\
         \"key\":{{\"config\":{},\"config_digest\":\"{:016x}\",\"workload\":{},\
         \"warmup\":{},\"measure\":{},\"seed\":{}",
        key.sim_version,
        json_string(&key.config_name),
        key.config_digest,
        json_string(&key.workload),
        key.warmup,
        key.measure,
        key.seed
    ));
    if key.intervals > 0 {
        out.push_str(&format!(
            ",\"intervals\":{{\"k\":{},\"warmup\":{}}}",
            key.intervals, key.interval_warmup
        ));
    }
    out.push_str("},\"stats\":{");
    // Counters in declaration order, nested structs as nested objects.
    let mut stats = *s;
    stats.visit_counters(&mut RenderCounters { out: &mut out, first: true });
    out.push_str("}}\n");
    splice_checksum(out)
}

/// The schema tag of a stored run result.
const RESULT_SCHEMA: &str = "eole-result/v2";

/// The checksum field marker; rendered once, immediately after the
/// schema tag.
const CRC_FIELD: &str = "\"crc\":\"";

/// Splices the checksum over the zero placeholder of a rendered payload:
/// digest the payload with the crc field zeroed, then write the 16-hex
/// digest in place. Verification reverses this (re-zero, re-digest,
/// compare), so the bytes on disk are self-validating without a sidecar
/// file.
fn splice_checksum(mut out: String) -> String {
    let at = out.find(CRC_FIELD).expect("crc placeholder rendered first") + CRC_FIELD.len(); // lint:allow(error-typing) render_result_payload emits the placeholder right after the schema tag
    let digest = format!("{:016x}", Fnv64::digest(out.as_bytes()));
    out.replace_range(at..at + 16, &digest);
    out
}

/// Verifies the spliced-in payload checksum.
///
/// * missing field → [`PayloadError::Foreign`] — a well-formed payload
///   from a pre-checksum build; a plain miss, not damage.
/// * truncated/malformed field, or digest mismatch →
///   [`PayloadError::Corrupt`] — the bytes cannot be trusted.
fn verify_payload_checksum(text: &str) -> Result<(), PayloadError> {
    let Some(field) = text.find(CRC_FIELD) else {
        return Err(PayloadError::Foreign("no checksum (pre-hardening payload)".into()));
    };
    let start = field + CRC_FIELD.len();
    let end = start + 16;
    let stored = match text.get(start..end) {
        Some(hex)
            if hex.bytes().all(|b| b.is_ascii_hexdigit())
                && text.as_bytes().get(end) == Some(&b'"') =>
        {
            hex
        }
        _ => return Err(PayloadError::Corrupt("truncated or malformed checksum field".into())),
    };
    let mut zeroed = text.to_string();
    zeroed.replace_range(start..end, "0000000000000000");
    let computed = format!("{:016x}", Fnv64::digest(zeroed.as_bytes()));
    if computed == stored {
        Ok(())
    } else {
        Err(PayloadError::Corrupt(format!(
            "checksum mismatch: stored {stored}, computed {computed}"
        )))
    }
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

/// Writes every counter it visits as a JSON member (`"name":value`,
/// arrays as JSON arrays, nested counter structs as nested objects).
struct RenderCounters<'a> {
    out: &'a mut String,
    first: bool,
}

impl RenderCounters<'_> {
    fn member(&mut self, name: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(&format!("\"{name}\":"));
    }
}

impl CounterVisitor for RenderCounters<'_> {
    fn counter(&mut self, name: &'static str, value: Counter<'_>) {
        self.member(name);
        match value {
            Counter::Scalar(v) => self.out.push_str(&v.to_string()),
            Counter::Array(vs) => {
                let items: Vec<String> = vs.iter().map(u64::to_string).collect();
                self.out.push_str(&format!("[{}]", items.join(",")));
            }
        }
    }

    fn enter(&mut self, name: &'static str) {
        self.member(name);
        self.out.push('{');
        self.first = true;
    }

    fn leave(&mut self) {
        self.out.push('}');
        self.first = false;
    }
}

/// Reads every counter it visits from the JSON object at the same path
/// (a missing group reads as `null`, so its first counter fails); the
/// first failure is kept in `error` and later counters are skipped.
struct ParseCounters<'a> {
    path: Vec<&'a Json>,
    error: Option<String>,
}

/// Reads one counter (or counter array) named `name` from `obj`.
fn read_counter(obj: &Json, name: &str, value: Counter<'_>) -> Result<(), String> {
    match value {
        Counter::Scalar(v) => *v = u64_field(obj, name)?,
        Counter::Array(vs) => {
            let arr = obj
                .get(name)
                .and_then(Json::as_arr)
                .filter(|arr| arr.len() == vs.len())
                .ok_or_else(|| format!("missing field `{name}` or not {} entries", vs.len()))?;
            for (slot, e) in vs.iter_mut().zip(arr) {
                *slot = e.as_u64().ok_or_else(|| format!("non-integer entry in `{name}`"))?;
            }
        }
    }
    Ok(())
}

impl CounterVisitor for ParseCounters<'_> {
    fn counter(&mut self, name: &'static str, value: Counter<'_>) {
        if let (None, Some(obj)) = (&self.error, self.path.last()) {
            self.error = read_counter(obj, name, value).err();
        }
    }

    fn enter(&mut self, name: &'static str) {
        const NULL: &Json = &Json::Null;
        let inner = self.path.last().and_then(|obj| obj.get(name)).unwrap_or(NULL);
        self.path.push(inner);
    }

    fn leave(&mut self) {
        self.path.pop();
    }
}

/// Parses an `eole-result/v2` payload back into [`SimStats`], verifying
/// that it belongs to `key` (schema, sim version, digest, workload,
/// methodology, seed) and that its checksum holds. Any failure is a
/// cache miss, but the error's variant drives recovery: [`DirStore`]
/// quarantines [`PayloadError::Corrupt`] entries and plainly overwrites
/// [`PayloadError::Foreign`] ones.
///
/// The checks run in recovery order: bytes that are not UTF-8 JSON are
/// damage (every generation of this store wrote valid JSON); a parsable
/// payload with another schema tag is foreign, and only a schema-matched
/// payload gets checksum-checked.
pub fn parse_result_payload(payload: &[u8], key: &RunKey) -> Result<SimStats, PayloadError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| PayloadError::Corrupt(format!("not UTF-8: {e}")))?;
    let v = Json::parse(text).map_err(PayloadError::Corrupt)?;
    if v.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
        return Err(PayloadError::Foreign(format!("not an {RESULT_SCHEMA} payload")));
    }
    verify_payload_checksum(text)?;
    parse_checked_payload(&v, key).map_err(PayloadError::Foreign)
}

/// The key members and the counters of a payload whose schema and
/// checksum held; every failure here is a key/schema-drift mismatch
/// ([`PayloadError::Foreign`]), never damage.
fn parse_checked_payload(v: &Json, key: &RunKey) -> Result<SimStats, String> {
    if u64_field(v, "sim_version")? != u64::from(key.sim_version) {
        return Err("sim_version mismatch".into());
    }
    let k = v.get("key").ok_or("missing `key`")?;
    if k.get("config_digest").and_then(Json::as_str)
        != Some(format!("{:016x}", key.config_digest).as_str())
        || k.get("workload").and_then(Json::as_str) != Some(key.workload.as_str())
        || u64_field(k, "warmup")? != key.warmup
        || u64_field(k, "measure")? != key.measure
        || u64_field(k, "seed")? != key.seed
    {
        return Err("key mismatch".into());
    }
    // Interval tag: a serial key must see no tag, a stitched key must see
    // its exact (k, warmup) — a stitched payload can never satisfy a
    // serial lookup or vice versa.
    match k.get("intervals") {
        None if key.intervals == 0 => {}
        Some(tag)
            if key.intervals > 0
                && u64_field(tag, "k")? == u64::from(key.intervals)
                && u64_field(tag, "warmup")? == key.interval_warmup => {}
        _ => return Err("interval-tag mismatch".into()),
    }
    let stats_obj = v.get("stats").ok_or("missing `stats`")?;
    let mut parse = ParseCounters { path: vec![stats_obj], error: None };
    let mut stats = SimStats::default();
    stats.visit_counters(&mut parse);
    match parse.error {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

// ---- stored checkpoints --------------------------------------------------
// A checkpoint entry is the `WarmState` bytes behind a 16-byte header.
// The snapshot bytes already open with `WARMSTATE_FORMAT` and the
// position, and the key digest covers every other axis, so the header
// needs nothing more. A corrupt or foreign entry is a miss that degrades
// to a functional rebuild, never an error.

/// Bytes ahead of the snapshot in a stored checkpoint: the little-endian
/// FNV-1a of everything after the first 8 bytes, then the little-endian
/// [`WarmKey::digest64`].
pub const WARM_HEADER_LEN: usize = 16;

/// Renders the stored checkpoint entry for `key`: the header, then the
/// snapshot bytes unchanged.
pub fn render_warm_payload(key: &WarmKey, bytes: &[u8]) -> Vec<u8> {
    let digest = key.digest64().to_le_bytes();
    let mut sum = Fnv64::new();
    sum.write(&digest);
    sum.write(bytes);
    [&sum.finish().to_le_bytes()[..], &digest, bytes].concat()
}

/// Returns the snapshot bytes of a stored checkpoint entry after checking
/// it against `key`. The same recovery split as results: an entry
/// shorter than the header or failing its checksum is
/// [`PayloadError::Corrupt`] (quarantined by [`DirStore`]); one whose key
/// digest differs is [`PayloadError::Foreign`], a plain miss — either
/// way the sweep rebuilds the checkpoint.
///
/// # Errors
///
/// [`PayloadError`] as above; never a panic.
pub fn parse_warm_payload(payload: &[u8], key: &WarmKey) -> Result<Vec<u8>, PayloadError> {
    if payload.len() < WARM_HEADER_LEN {
        return Err(PayloadError::Corrupt(format!(
            "{} bytes, shorter than the {WARM_HEADER_LEN}-byte header",
            payload.len()
        )));
    }
    let (sum, rest) = payload.split_at(8);
    let computed = Fnv64::digest(rest);
    if sum != computed.to_le_bytes() {
        return Err(PayloadError::Corrupt(format!("checksum mismatch: computed {computed:016x}")));
    }
    let (digest, snapshot) = rest.split_at(8);
    if digest != key.digest64().to_le_bytes() {
        return Err(PayloadError::Foreign("key mismatch".into()));
    }
    Ok(snapshot.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runner;
    use eole_core::config::CoreConfig;
    use eole_mem::counters::EachCount;
    use eole_workloads::workload_by_name;

    fn spec() -> RunSpec {
        RunSpec {
            config: CoreConfig::eole_4_64(),
            workload: workload_by_name("gzip").unwrap(),
            runner: Runner::quick(),
            seed: 0,
        }
    }

    fn dense_stats() -> SimStats {
        // Every counter non-zero and distinct — numbered 1, 2, 3, … in
        // declaration order, arrays element by element — so a dropped or
        // swapped field cannot hide in a default.
        let mut s = SimStats::default();
        let mut n = 0u64;
        s.visit_counters(&mut EachCount(|v: &mut u64| {
            n += 1;
            *v = n;
        }));
        s
    }

    /// The `eole-result/v2` bytes of a fixed key and [`dense_stats`]:
    /// field names, order, nesting and checksum are the on-disk format,
    /// so any drift in them fails here (a Debug round-trip alone would
    /// not notice a reordered field).
    #[test]
    fn payload_bytes_are_pinned() {
        let key = RunKey {
            sim_version: 7,
            config_name: "EOLE_4_64".into(),
            config_digest: 0x0123_4567_89ab_cdef,
            workload: "gzip".into(),
            warmup: 10_000,
            measure: 25_000,
            seed: 3,
            intervals: 8,
            interval_warmup: 5_000,
        };
        assert_eq!(render_result_payload(&key, &dense_stats()), PINNED_PAYLOAD);
    }

    const PINNED_PAYLOAD: &str = "{\"schema\":\"eole-result/v2\",\"crc\":\"d8e15d2884f6f698\",\
        \"sim_version\":7,\"key\":{\"config\":\"EOLE_4_64\",\"config_digest\":\"0123456789abcdef\",\
        \"workload\":\"gzip\",\"warmup\":10000,\"measure\":25000,\"seed\":3,\
        \"intervals\":{\"k\":8,\"warmup\":5000}},\"stats\":{\"cycles\":1,\"committed\":2,\
        \"fetched\":3,\"squashed\":4,\"vp_eligible\":5,\"vp_predicted\":6,\"vp_used\":7,\
        \"vp_used_correct\":8,\"vp_used_wrong\":9,\"vp_squashes\":10,\
        \"vp_squash_cycles_frontend\":11,\"vp_squash_cycles_levt\":12,\
        \"vp_squash_cycles_window\":13,\"vp_pred_by_level\":[14,15,16,17,18,19,20,21],\
        \"vp_correct_by_level\":[22,23,24,25,26,27,28,29],\"vp_block_reads\":30,\
        \"vp_window_rejects\":31,\"early_executed\":32,\"late_executed_alu\":33,\
        \"late_executed_branches\":34,\"levt_port_stalls\":35,\"ee_write_stalls\":36,\
        \"cond_branches\":37,\"branch_mispredicts\":38,\"hc_branches\":39,\
        \"hc_branch_mispredicts\":40,\"indirect_mispredicts\":41,\"btb_miss_bubbles\":42,\
        \"memory_order_squashes\":43,\"sq_forwards\":44,\"stall_rob_full\":45,\
        \"stall_iq_full\":46,\"stall_lsq_full\":47,\"stall_prf\":48,\
        \"mem\":{\"l1i\":{\"accesses\":49,\"misses\":50},\"l1d\":{\"accesses\":51,\"misses\":52},\
        \"l2\":{\"accesses\":53,\"misses\":54},\
        \"dram\":{\"accesses\":55,\"row_hits\":56,\"row_conflicts\":57},\
        \"prefetch\":{\"trains\":58,\"issued\":59},\"writebacks\":60}}}\n";

    /// The stored checkpoint bytes of a fixed key and a 40-byte snapshot:
    /// the 16-byte header, then the snapshot unchanged.
    #[test]
    fn warm_payload_bytes_are_pinned() {
        let key = WarmKey {
            sim_version: 7,
            config_name: "EOLE_4_64".into(),
            config_digest: 0x0123_4567_89ab_cdef,
            workload: "gzip".into(),
            trace_len: 35_000,
            seed: 3,
            position: 12_500,
        };
        let bytes: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        let mut want = PINNED_WARM_HEADER.to_vec();
        want.extend_from_slice(&bytes);
        assert_eq!(render_warm_payload(&key, &bytes), want);
        assert_eq!(parse_warm_payload(&want, &key).unwrap(), bytes);
    }

    /// FNV-1a `0x99013055d98d04e0` of the 48 bytes after it, then the key
    /// digest `0xd42c520d1a8bb140` (the one in the key's file stem), both
    /// little-endian.
    const PINNED_WARM_HEADER: [u8; WARM_HEADER_LEN] = [
        0xe0, 0x04, 0x8d, 0xd9, 0x55, 0x30, 0x01, 0x99, //
        0x40, 0xb1, 0x8b, 0x1a, 0x0d, 0x52, 0x2c, 0xd4,
    ];

    /// File stems are the store's addresses: a drift would orphan every
    /// stored entry while reading as a plain cache miss.
    #[test]
    fn file_stems_are_pinned() {
        let serial = RunKey {
            sim_version: 7,
            config_name: "EOLE_4_64".into(),
            config_digest: 0x0123_4567_89ab_cdef,
            workload: "gzip".into(),
            warmup: 10_000,
            measure: 25_000,
            seed: 3,
            intervals: 0,
            interval_warmup: 0,
        };
        assert_eq!(
            serial.file_stem(),
            "gzip__EOLE_4_64__v7_w10000_m25000_s3__0123456789abcdef-b3ccd033da1f1876"
        );
        let tagged = RunKey {
            config_name: "odd name/v2".into(),
            intervals: 8,
            interval_warmup: 5_000,
            ..serial
        };
        assert_eq!(
            tagged.file_stem(),
            "gzip__odd-name-v2__v7_w10000_m25000_s3_i8-5000__0123456789abcdef-5f1ef157999d193b"
        );
        let warm = WarmKey {
            sim_version: 7,
            config_name: "EOLE_4_64".into(),
            config_digest: 0x0123_4567_89ab_cdef,
            workload: "gzip".into(),
            trace_len: 35_000,
            seed: 3,
            position: 12_500,
        };
        assert_eq!(
            warm.file_stem(),
            "warm__gzip__EOLE_4_64__v7_t35000_s3_p12500__0123456789abcdef-d42c520d1a8bb140"
        );
    }

    #[test]
    fn payload_round_trips_every_counter() {
        let key = RunKey::of(&spec());
        let s = dense_stats();
        let payload = render_result_payload(&key, &s);
        let back = parse_result_payload(payload.as_bytes(), &key).unwrap();
        // SimStats has no PartialEq; Debug covers every field, so equal
        // renderings mean equal structs — and a field added to SimStats
        // but forgotten here fails this test as long as it is non-zero
        // in dense_stats().
        assert_eq!(format!("{s:?}"), format!("{back:?}"));
    }

    /// Driven by the counter walk, so it covers every counter declared
    /// now or later: each is distinct and non-zero in `dense_stats()`,
    /// survives the payload round trip, and doubles when the struct is
    /// merged into itself.
    #[test]
    fn every_declared_counter_round_trips_and_merges() {
        fn counts(mut s: SimStats) -> Vec<u64> {
            let mut out = Vec::new();
            s.visit_counters(&mut EachCount(|v: &mut u64| out.push(*v)));
            out
        }
        let s = dense_stats();
        let mut distinct = counts(s);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), counts(s).len(), "counters must be distinct");
        assert!(!distinct.contains(&0), "counters must be non-zero");

        let key = RunKey::of(&spec());
        let back = parse_result_payload(render_result_payload(&key, &s).as_bytes(), &key).unwrap();
        assert_eq!(counts(back), counts(s));

        let mut doubled = s;
        doubled.merge(&s);
        let want: Vec<u64> = counts(s).iter().map(|v| 2 * v).collect();
        assert_eq!(counts(doubled), want);
    }

    #[test]
    fn parse_rejects_a_missing_counter_group() {
        let key = RunKey::of(&spec());
        let payload = render_result_payload(&key, &dense_stats());
        let v = Json::parse(&payload.replace("\"dram\":", "\"dram_v0\":")).unwrap();
        let err = parse_checked_payload(&v, &key).unwrap_err();
        assert!(err.contains("`accesses`"), "{err}");
    }

    #[test]
    fn payload_rejects_foreign_keys() {
        let base = spec();
        let key = RunKey::of(&base);
        let payload = render_result_payload(&key, &dense_stats());
        let payload = payload.as_bytes();
        let other_workload = RunKey { workload: "mcf".into(), ..key.clone() };
        assert!(parse_result_payload(payload, &other_workload).is_err());
        let other_seed = RunKey { seed: 7, ..key.clone() };
        assert!(parse_result_payload(payload, &other_seed).is_err());
        let other_version = RunKey { sim_version: key.sim_version + 1, ..key.clone() };
        assert!(parse_result_payload(payload, &other_version).is_err());
        let other_config = RunKey { config_digest: key.config_digest ^ 1, ..key };
        assert!(parse_result_payload(payload, &other_config).is_err());
    }

    #[test]
    fn run_key_separates_every_axis() {
        let base = spec();
        let key = RunKey::of(&base);
        assert_eq!(key, RunKey::of(&base.clone()), "identity is value-based");
        let mut by_config = base.clone();
        by_config.config = CoreConfig::baseline_6_64();
        let mut by_seed = base.clone();
        by_seed.seed = 3;
        let mut by_runner = base.clone();
        by_runner.runner = Runner::default();
        let mut by_workload = base.clone();
        by_workload.workload = workload_by_name("mcf").unwrap();
        for (what, other) in [
            ("config", &by_config),
            ("seed", &by_seed),
            ("runner", &by_runner),
            ("workload", &by_workload),
        ] {
            let other_key = RunKey::of(other);
            assert_ne!(key, other_key, "{what} must change the key");
            assert_ne!(key.digest64(), other_key.digest64(), "{what} must change the digest");
            assert_ne!(key.file_stem(), other_key.file_stem(), "{what} must change the file");
        }
    }

    #[test]
    fn sanitized_name_collisions_still_get_distinct_files() {
        // "gzip.v2" and "gzip-v2" sanitize to the same prefix; the
        // trailing key digest must keep their files apart.
        let key = RunKey::of(&spec());
        let a = RunKey { workload: "gzip.v2".into(), ..key.clone() };
        let b = RunKey { workload: "gzip-v2".into(), ..key };
        assert_ne!(a.file_stem(), b.file_stem());
    }

    #[test]
    fn file_stems_are_filesystem_safe() {
        let mut s = spec();
        s.config.name = "weird name/with:chars".into();
        let stem = RunKey::of(&s).file_stem();
        assert!(stem.chars().all(|c| c.is_ascii_alphanumeric() || "_-".contains(c)),
            "{stem}");
    }

    #[test]
    fn payload_checksum_catches_single_bit_damage() {
        let key = RunKey::of(&spec());
        let payload = render_result_payload(&key, &dense_stats());
        let pristine = parse_result_payload(payload.as_bytes(), &key);
        assert!(pristine.is_ok(), "pristine payload must verify");
        // Flip one digit inside a stats value: still perfectly valid
        // JSON with a matching key, so only the checksum can catch it.
        let digit_at = payload.find("\"cycles\":").unwrap() + "\"cycles\":".len();
        let mut tampered = payload.clone().into_bytes();
        tampered[digit_at] = if tampered[digit_at] == b'1' { b'2' } else { b'1' };
        match parse_result_payload(&tampered, &key) {
            Err(PayloadError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("tampered payload must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn payload_classifies_foreign_vs_corrupt() {
        let key = RunKey::of(&spec());
        let payload = render_result_payload(&key, &dense_stats());
        // Unparsable bytes are damage, and so are bytes that are not UTF-8.
        assert!(matches!(
            parse_result_payload(b"{ not json", &key),
            Err(PayloadError::Corrupt(_))
        ));
        let mut high_bit = payload.clone().into_bytes();
        high_bit[payload.len() / 2] ^= 0x80;
        assert!(matches!(parse_result_payload(&high_bit, &key), Err(PayloadError::Corrupt(_))));
        // Truncation is damage (unparsable JSON).
        assert!(matches!(
            parse_result_payload(&payload.as_bytes()[..payload.len() / 2], &key),
            Err(PayloadError::Corrupt(_))
        ));
        // A payload without a crc field is a pre-hardening store file:
        // well-formed, just old — Foreign, never quarantined.
        let crc_at = payload.find(CRC_FIELD).unwrap();
        let mut pre_crc = payload.clone();
        pre_crc.replace_range(crc_at..crc_at + CRC_FIELD.len() + 16 + 2, "");
        assert!(matches!(
            parse_result_payload(pre_crc.as_bytes(), &key),
            Err(PayloadError::Foreign(_))
        ));
        // A valid payload for a different key is Foreign.
        let other = RunKey { seed: key.seed + 1, ..key.clone() };
        assert!(matches!(
            parse_result_payload(payload.as_bytes(), &other),
            Err(PayloadError::Foreign(_))
        ));
    }

    #[test]
    fn dir_store_quarantines_damaged_entries() {
        let dir =
            std::env::temp_dir().join(format!("eole-quarantine-test-{}", std::process::id()));
        let store = DirStore::open(&dir).unwrap();
        let key = RunKey::of(&spec());
        store.save(&key, &dense_stats()).unwrap();
        let path = dir::entry_path(&dir, &key.file_stem());
        let quarantine = path.with_extension("quarantined");

        // Damage the entry on disk, once with a low bit (still UTF-8, so
        // the checksum catches it) and once with a high bit (no longer
        // UTF-8): each next load must miss, quarantine the file, and
        // leave nothing a future lookup could be served from.
        for (round, flip) in [0x01u8, 0x80].into_iter().enumerate() {
            let mut bytes = std::fs::read(&path).unwrap();
            let at = bytes.len() / 2;
            bytes[at] ^= flip;
            std::fs::write(&path, &bytes).unwrap();
            assert!(store.load(&key).is_none(), "flip {flip:#04x}");
            assert_eq!(store.quarantined_count(), round + 1, "flip {flip:#04x}");
            assert_eq!(store.corrupt(), round + 1, "flip {flip:#04x}");
            assert!(!path.exists(), "damaged entry must be renamed away");
            assert!(quarantine.exists(), "damaged entry must be kept for forensics");

            // Self-heal: a fresh save recreates the `.json`, and the next
            // load serves it while the quarantined file stays untouched.
            store.save(&key, &dense_stats()).unwrap();
            let back = store.load(&key).unwrap();
            assert_eq!(format!("{back:?}"), format!("{:?}", dense_stats()));
            assert!(quarantine.exists());
        }

        // A pre-checksum (foreign) entry is a plain miss: overwritten in
        // place, never quarantined.
        let pristine = std::fs::read_to_string(&path).unwrap();
        let crc_at = pristine.find(CRC_FIELD).unwrap();
        let mut pre_crc = pristine.clone();
        pre_crc.replace_range(crc_at..crc_at + CRC_FIELD.len() + 16 + 2, "");
        std::fs::write(&path, &pre_crc).unwrap();
        assert!(store.load(&key).is_none());
        assert_eq!(store.quarantined_count(), 2, "foreign entries are not quarantined");
        assert_eq!(store.corrupt(), 3);
        assert!(path.exists(), "foreign entry stays in place for the overwrite");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_round_trips() {
        let store = MemStore::new();
        let key = RunKey::of(&spec());
        assert!(store.load(&key).is_none());
        assert!(store.is_empty());
        store.save(&key, &dense_stats()).unwrap();
        assert_eq!(store.len(), 1);
        let back = store.load(&key).unwrap();
        assert_eq!(format!("{back:?}"), format!("{:?}", dense_stats()));
    }

    #[test]
    fn warm_payload_round_trips_and_verifies_identity() {
        let key = WarmKey::of(&spec(), 12_500);
        let bytes: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        let payload = render_warm_payload(&key, &bytes);
        assert_eq!(parse_warm_payload(&payload, &key).unwrap(), bytes);

        // Foreign: any key axis moving (position, seed, trace length,
        // config, workload, sim version) must reject the payload.
        for other in [
            WarmKey { position: 12_501, ..key.clone() },
            WarmKey { seed: 1, ..key.clone() },
            WarmKey { trace_len: key.trace_len + 1, ..key.clone() },
            WarmKey { config_digest: key.config_digest ^ 1, ..key.clone() },
            WarmKey { workload: "mcf".into(), ..key.clone() },
            WarmKey { sim_version: key.sim_version + 1, ..key.clone() },
        ] {
            assert!(
                matches!(parse_warm_payload(&payload, &other), Err(PayloadError::Foreign(_))),
                "{other:?} must be foreign"
            );
        }

        // Corrupt: a flipped bit anywhere (checksum, key digest or body)
        // fails the checksum, and so does truncation, down to entries
        // shorter than the header.
        for at in [0, 8, WARM_HEADER_LEN + 3, payload.len() - 1] {
            let mut tampered = payload.clone();
            tampered[at] ^= 0x01;
            assert!(
                matches!(parse_warm_payload(&tampered, &key), Err(PayloadError::Corrupt(_))),
                "bit flip at {at}"
            );
        }
        for len in [0, WARM_HEADER_LEN - 1, WARM_HEADER_LEN, payload.len() / 2] {
            assert!(
                matches!(parse_warm_payload(&payload[..len], &key), Err(PayloadError::Corrupt(_))),
                "truncated to {len}"
            );
        }
        // A result payload under a warm key is rejected: its first eight
        // bytes are no checksum of the rest.
        let result = render_result_payload(&RunKey::of(&spec()), &dense_stats());
        assert!(matches!(
            parse_warm_payload(result.as_bytes(), &key),
            Err(PayloadError::Corrupt(_))
        ));
    }

    #[test]
    fn warm_key_stems_are_wire_safe_and_distinct() {
        let a = WarmKey::of(&spec(), 0);
        let b = WarmKey::of(&spec(), 6_250);
        assert_ne!(a.digest64(), b.digest64(), "position must change the digest");
        assert_ne!(a.file_stem(), b.file_stem());
        for key in [&a, &b] {
            let stem = key.file_stem();
            assert!(stem.starts_with(WARM_STEM_PREFIX), "{stem}");
            assert!(stem.len() <= 512, "daemon wire keys are capped at 512 chars");
            assert!(
                stem.chars().all(|c| c.is_ascii_alphanumeric() || "_-".contains(c)),
                "{stem}"
            );
        }
        // A warm stem never collides with any result stem's shape: the
        // prefix is reserved (no Table 3 workload is named `warm`).
        assert!(!RunKey::of(&spec()).file_stem().starts_with(WARM_STEM_PREFIX));
    }

    #[test]
    fn mem_store_keeps_checkpoints_out_of_len() {
        let store = MemStore::new();
        let key = WarmKey::of(&spec(), 5_000);
        assert!(store.load_warm(&key).is_none());
        store.save_warm(&key, b"snapshot bytes").unwrap();
        assert_eq!(store.load_warm(&key).as_deref(), Some(&b"snapshot bytes"[..]));
        assert_eq!(store.len(), 0, "checkpoints are not results");
    }

    #[test]
    fn dir_store_warm_round_trip_quarantines_damage_and_skips_len() {
        let dir =
            std::env::temp_dir().join(format!("eole-warm-store-test-{}", std::process::id()));
        let store = DirStore::open(&dir).unwrap();
        let key = WarmKey::of(&spec(), 10_000);
        let bytes: Vec<u8> = (0..4_096u32).map(|i| (i % 253) as u8).collect();
        store.save_warm(&key, &bytes).unwrap();
        assert_eq!(store.load_warm(&key).as_deref(), Some(bytes.as_slice()));
        assert_eq!(store.len(), 0, "checkpoint files never count as results");
        store.save(&RunKey::of(&spec()), &dense_stats()).unwrap();
        assert_eq!(store.len(), 1, "results still count");

        // The checkpoint is a `.bin` file: the header, then the snapshot.
        let path = dir::entry_path(&dir, &key.file_stem());
        assert_eq!(path.extension().and_then(|e| e.to_str()), Some("bin"));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), (WARM_HEADER_LEN + bytes.len()) as u64);

        // Damage the checkpoint: the load must miss, quarantine the
        // file, and a fresh save must self-heal.
        let mut raw = std::fs::read(&path).unwrap();
        let at = raw.len() / 2;
        raw[at] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        assert!(store.load_warm(&key).is_none(), "damaged checkpoint must miss");
        assert!(path.with_extension("quarantined").exists());
        assert_eq!(store.quarantined_count(), 1);
        store.save_warm(&key, &bytes).unwrap();
        assert_eq!(store.load_warm(&key).as_deref(), Some(bytes.as_slice()));

        std::fs::remove_dir_all(&dir).ok();
    }
}
