//! Seeded, deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] schedules named faults at *cold-path* boundaries —
//! store IO, protocol frames, lease bookkeeping, worker scheduling —
//! each fired at a deterministic (site, occurrence-index) pair so a
//! chaos run is exactly reproducible from its spec string. The plan is
//! installed process-globally (`--faults SPEC` / `EOLE_FAULTS`); every
//! hook compiles down to one relaxed atomic load when no plan is
//! installed, and no hook sits inside the per-µop hot loop.
//!
//! ## Spec grammar
//!
//! A spec is a comma-separated list of clauses:
//!
//! ```text
//! seed=N                 seed for ~RATE clauses (default 0)
//! SITE@INDEX[:ARG]       fire at the exact 0-based occurrence INDEX
//! SITE%EVERY[:ARG]       fire at every occurrence divisible by EVERY
//! SITE~RATE[:ARG]        fire with probability RATE in [0,1], decided
//!                        by hash(seed, site, occurrence) — the same
//!                        seed replays the identical fault sequence
//! ```
//!
//! `ARG` is a site-specific integer (delay sites read it as
//! milliseconds, default 25). Example:
//! `seed=7,sim.panic@3,client.recv.corrupt~0.05,dir.save.io%10`.
//!
//! ## Occurrence indices
//!
//! Stream sites ([`fire`]) count every pass through the site with a
//! process-global per-site counter, so `SITE@K` means "the K-th time
//! this process reaches the site". Under multiple worker threads the
//! *mapping* from occurrence to run is scheduling-dependent (the fault
//! still fires exactly once); run-scoped sites ([`fires_at`], e.g.
//! `sim.panic`) are instead keyed by the run's stable grid index, so
//! `sim.panic@3` targets the same grid cell at any thread count.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

// ---- site catalog --------------------------------------------------------

/// `DirStore::load`: the entry's text is garbled before parsing, so it
/// classifies as corrupt and is quarantined.
pub const DIR_LOAD_CORRUPT: &str = "dir.load.corrupt";
/// `DirStore::save`: the write fails with an injected IO error.
pub const DIR_SAVE_IO: &str = "dir.save.io";
/// Session worker: the simulation panics (keyed by grid index).
pub const SIM_PANIC: &str = "sim.panic";
/// Session worker: the simulation stalls for ARG ms (keyed by grid
/// index) — exercises the per-run deadline watchdog.
pub const SIM_DELAY: &str = "sim.delay";
/// `StoreClient`: sending the request frame fails with an IO error
/// (retried like a real transport fault).
pub const CLIENT_SEND_IO: &str = "client.send.io";
/// `StoreClient`: the response frame is garbled after the read.
pub const CLIENT_RECV_CORRUPT: &str = "client.recv.corrupt";
/// `StoreClient`: the response frame is truncated after the read.
pub const CLIENT_RECV_TRUNCATE: &str = "client.recv.truncate";
/// `StoreClient`: the request is delayed ARG ms before sending.
pub const CLIENT_DELAY: &str = "client.delay";
/// Server connection loop: the request frame is garbled after the read.
pub const SERVER_RECV_CORRUPT: &str = "server.recv.corrupt";
/// Server single-flight state: the next lease-expiry check treats the
/// lease as already past its TTL (forces a reclaim).
pub const SERVER_LEASE_EXPIRE: &str = "server.lease.expire";
/// `RemoteStore::load`: a `Hit` payload is garbled before verification.
pub const REMOTE_PAYLOAD_CORRUPT: &str = "remote.payload.corrupt";

/// Every site a clause may name; parsing rejects anything else so a
/// typo'd chaos spec fails loudly instead of silently injecting nothing.
pub const KNOWN_SITES: &[&str] = &[
    DIR_LOAD_CORRUPT,
    DIR_SAVE_IO,
    SIM_PANIC,
    SIM_DELAY,
    CLIENT_SEND_IO,
    CLIENT_RECV_CORRUPT,
    CLIENT_RECV_TRUNCATE,
    CLIENT_DELAY,
    SERVER_RECV_CORRUPT,
    SERVER_LEASE_EXPIRE,
    REMOTE_PAYLOAD_CORRUPT,
];

// ---- plan ----------------------------------------------------------------

/// When a clause fires relative to its site's occurrence index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Exactly at this 0-based occurrence.
    At(u64),
    /// At every occurrence divisible by the period (period ≥ 1).
    Every(u64),
    /// Seeded Bernoulli per occurrence: fires iff
    /// `fnv(seed, site, occurrence) < rate · 2⁶⁴`.
    Rate(f64),
}

/// One `SITE<trigger>[:ARG]` clause of a fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Clause {
    /// One of [`KNOWN_SITES`].
    pub site: String,
    /// When the clause fires.
    pub trigger: Trigger,
    /// Site-specific argument (`:ARG` suffix).
    pub arg: Option<u64>,
}

/// A parsed, installable fault schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for `~RATE` clauses.
    pub seed: u64,
    /// All clauses, in spec order.
    pub clauses: Vec<Clause>,
}

impl FaultPlan {
    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending clause: unknown
    /// site, malformed trigger, rate outside `[0, 1]`, zero period.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for raw in spec.split(',') {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("seed=") {
                plan.seed =
                    v.parse().map_err(|_| format!("fault spec: bad seed in {clause:?}"))?;
                continue;
            }
            let sep = clause
                .find(['@', '%', '~'])
                .ok_or_else(|| format!("fault spec: {clause:?} has no @/%/~ trigger"))?;
            let (site, rest) = clause.split_at(sep);
            if !KNOWN_SITES.contains(&site) {
                return Err(format!(
                    "fault spec: unknown site {site:?} (known: {})",
                    KNOWN_SITES.join(", ")
                ));
            }
            let (kind, rest) = rest.split_at(1);
            let (value, arg) = match rest.split_once(':') {
                Some((v, a)) => {
                    let arg =
                        a.parse().map_err(|_| format!("fault spec: bad arg in {clause:?}"))?;
                    (v, Some(arg))
                }
                None => (rest, None),
            };
            let trigger = match kind {
                "@" => Trigger::At(
                    value.parse().map_err(|_| format!("fault spec: bad index in {clause:?}"))?,
                ),
                "%" => {
                    let period: u64 = value
                        .parse()
                        .map_err(|_| format!("fault spec: bad period in {clause:?}"))?;
                    if period == 0 {
                        return Err(format!("fault spec: zero period in {clause:?}"));
                    }
                    Trigger::Every(period)
                }
                _ => {
                    let rate: f64 = value
                        .parse()
                        .map_err(|_| format!("fault spec: bad rate in {clause:?}"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("fault spec: rate outside [0,1] in {clause:?}"));
                    }
                    Trigger::Rate(rate)
                }
            };
            plan.clauses.push(Clause { site: site.to_string(), trigger, arg });
        }
        Ok(plan)
    }

    /// Does any clause fire for this (site, occurrence)? Returns the
    /// matching clause's `arg` (first match wins).
    pub fn fires(&self, site: &str, occurrence: u64) -> Option<Option<u64>> {
        for c in &self.clauses {
            if c.site != site {
                continue;
            }
            let hit = match c.trigger {
                Trigger::At(i) => occurrence == i,
                Trigger::Every(p) => occurrence.is_multiple_of(p),
                Trigger::Rate(r) => {
                    let h = fault_hash(self.seed, site, occurrence) as u128;
                    // rate·2⁶⁴ in u128 so rate = 1.0 fires on every draw.
                    h < (r * 18_446_744_073_709_551_616.0) as u128
                }
            };
            if hit {
                return Some(c.arg);
            }
        }
        None
    }

    /// One-line rendering for startup logs (`site@i, site~0.05 …`).
    pub fn summary(&self) -> String {
        let clauses: Vec<String> = self
            .clauses
            .iter()
            .map(|c| {
                let trig = match c.trigger {
                    Trigger::At(i) => format!("@{i}"),
                    Trigger::Every(p) => format!("%{p}"),
                    Trigger::Rate(r) => format!("~{r}"),
                };
                let arg = c.arg.map(|a| format!(":{a}")).unwrap_or_default();
                format!("{}{trig}{arg}", c.site)
            })
            .collect();
        format!("seed={} {}", self.seed, clauses.join(","))
    }
}

/// FNV-1a over (seed, site, occurrence): the deterministic coin for
/// `~RATE` clauses. Identical inputs fire identically on every run,
/// platform, and thread schedule.
fn fault_hash(seed: u64, site: &str, occurrence: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for chunk in [seed.to_le_bytes(), occurrence.to_le_bytes()] {
        for b in chunk {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    for b in site.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

// ---- process-global registry ---------------------------------------------

/// Fast-path gate: hooks bail on one relaxed load when nothing is
/// installed, so a fault-free run pays nothing measurable.
static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
static COUNTERS: Mutex<Option<HashMap<String, u64>>> = Mutex::new(None);

use crate::lock_clean;

/// Installs `plan` process-globally (replacing any previous plan) and
/// resets all occurrence counters; `None` disables injection.
pub fn install(plan: Option<FaultPlan>) {
    let arc = plan.map(Arc::new);
    ENABLED.store(arc.is_some(), Ordering::Release);
    *lock_clean(&PLAN) = arc;
    *lock_clean(&COUNTERS) = Some(HashMap::new());
}

/// Parses and installs a spec string.
///
/// # Errors
///
/// Propagates [`FaultPlan::parse`] errors; nothing is installed then.
pub fn install_spec(spec: &str) -> Result<(), String> {
    let plan = FaultPlan::parse(spec)?;
    install(Some(plan));
    Ok(())
}

/// Installs a plan from `EOLE_FAULTS` if the variable is set and
/// non-empty; returns the installed plan's summary for logging.
///
/// # Errors
///
/// As [`install_spec`] — a malformed `EOLE_FAULTS` must fail loudly,
/// not silently run fault-free.
pub fn install_from_env() -> Result<Option<String>, String> {
    match std::env::var("EOLE_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install_spec(&spec)?;
            Ok(current_summary())
        }
        _ => Ok(None),
    }
}

/// True iff a plan is installed (one relaxed load — the hot-path gate).
#[inline]
pub fn active() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Summary of the installed plan, if any.
pub fn current_summary() -> Option<String> {
    lock_clean(&PLAN).as_ref().map(|p| p.summary())
}

/// Stream-counted hook: bumps `site`'s process-global occurrence
/// counter and reports whether a clause fires at this occurrence
/// (`Some(arg)` — `arg` is `Some` only when the clause carried `:ARG`).
#[inline]
pub fn fire(site: &str) -> Option<Option<u64>> {
    if !active() {
        return None;
    }
    let plan = lock_clean(&PLAN).clone()?;
    let occurrence = {
        let mut counters = lock_clean(&COUNTERS);
        let slot = counters.get_or_insert_with(HashMap::new).entry(site.to_string()).or_insert(0);
        let occ = *slot;
        *slot += 1;
        occ
    };
    plan.fires(site, occurrence)
}

/// Keyed hook: like [`fire`] but at an explicit occurrence index (a
/// run's grid position) instead of a stream counter — deterministic at
/// any thread count. Does not touch the counters.
#[inline]
pub fn fires_at(site: &str, occurrence: u64) -> Option<Option<u64>> {
    if !active() {
        return None;
    }
    let plan = lock_clean(&PLAN).clone()?;
    plan.fires(site, occurrence)
}

/// [`fires_at`] that panics with a recognizable message — the injected
/// stand-in for a worker-thread crash.
#[inline]
// lint:allow(error-typing) the injected panic IS this hook's contract (simulated worker crash)
pub fn panic_if_fired(site: &str, occurrence: u64) {
    if fires_at(site, occurrence).is_some() {
        panic!("injected fault: {site}@{occurrence}");
    }
}

/// Sleeps `arg` ms (default 25) if the keyed site fires — the injected
/// stand-in for a wedged or slow run.
#[inline]
pub fn sleep_if_fired(site: &str, occurrence: u64) {
    if let Some(arg) = fires_at(site, occurrence) {
        std::thread::sleep(std::time::Duration::from_millis(arg.unwrap_or(25)));
    }
}

/// Deterministically corrupts a frame or payload in place: flips bits
/// at a salt-derived position (appends a byte if empty), so the same
/// (plan, occurrence) garbles identically on every replay.
pub fn garble(bytes: &mut Vec<u8>, salt: u64) {
    if bytes.is_empty() {
        bytes.push(0xEE);
        return;
    }
    let n = bytes.len();
    let h = fault_hash(salt, "garble", n as u64);
    bytes[(h as usize) % n] ^= 0xA5;
    if n > 1 {
        bytes[((h >> 32) as usize) % n] ^= 0x5A;
    }
}

// ---- test support --------------------------------------------------------

/// Serializes fault-using tests within one binary: the injector is
/// process-global, so concurrent tests would trample each other's
/// plans. Guard construction takes this lock; drop uninstalls the plan
/// and releases it.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// RAII install for tests: holds the cross-test serialization lock and
/// uninstalls on drop, so a plan can never leak into a sibling test.
pub struct InstallGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        install(None);
    }
}

/// Installs `plan` under the test serialization lock (see
/// [`InstallGuard`]). Intended for `#[test]` code in any crate.
pub fn install_guarded(plan: FaultPlan) -> InstallGuard {
    let lock = lock_clean(&TEST_LOCK);
    install(Some(plan));
    InstallGuard { _lock: lock }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_every_trigger_kind() {
        let plan =
            FaultPlan::parse("seed=7,sim.panic@3,client.recv.corrupt~0.05,dir.save.io%10:4")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.clauses.len(), 3);
        assert_eq!(plan.clauses[0].trigger, Trigger::At(3));
        assert_eq!(plan.clauses[1].trigger, Trigger::Rate(0.05));
        assert_eq!(plan.clauses[2].trigger, Trigger::Every(10));
        assert_eq!(plan.clauses[2].arg, Some(4));
        assert!(plan.summary().contains("sim.panic@3"));
    }

    #[test]
    fn bad_specs_are_loud_typed_errors() {
        for bad in [
            "nosuch.site@1",       // unknown site
            "sim.panic",           // no trigger
            "sim.panic@x",         // bad index
            "sim.panic~1.5",       // rate out of range
            "dir.save.io%0",       // zero period
            "seed=banana",         // bad seed
            "sim.panic@1:zzz",     // bad arg
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Empty clauses (stray commas) are tolerated.
        assert_eq!(FaultPlan::parse(",,").unwrap(), FaultPlan::default());
    }

    #[test]
    fn at_and_every_fire_exactly_where_scheduled() {
        let plan = FaultPlan::parse("sim.panic@3,dir.save.io%4").unwrap();
        let at: Vec<u64> = (0..10).filter(|&i| plan.fires(SIM_PANIC, i).is_some()).collect();
        assert_eq!(at, vec![3]);
        let every: Vec<u64> = (0..10).filter(|&i| plan.fires(DIR_SAVE_IO, i).is_some()).collect();
        assert_eq!(every, vec![0, 4, 8]);
    }

    #[test]
    fn rate_clauses_replay_identically_and_scale_with_rate() {
        let plan = FaultPlan::parse("seed=11,client.recv.corrupt~0.25").unwrap();
        let draws: Vec<bool> =
            (0..4000).map(|i| plan.fires(CLIENT_RECV_CORRUPT, i).is_some()).collect();
        let replay: Vec<bool> =
            (0..4000).map(|i| plan.fires(CLIENT_RECV_CORRUPT, i).is_some()).collect();
        assert_eq!(draws, replay, "same seed must replay the identical sequence");
        let hits = draws.iter().filter(|&&b| b).count();
        assert!((600..1400).contains(&hits), "~25% of 4000 draws, got {hits}");
        // A different seed draws a different sequence.
        let other = FaultPlan::parse("seed=12,client.recv.corrupt~0.25").unwrap();
        let other_draws: Vec<bool> =
            (0..4000).map(|i| other.fires(CLIENT_RECV_CORRUPT, i).is_some()).collect();
        assert_ne!(draws, other_draws);
        // Rate 0 never fires; rate 1 always fires.
        let never = FaultPlan::parse("client.recv.corrupt~0").unwrap();
        assert!((0..100).all(|i| never.fires(CLIENT_RECV_CORRUPT, i).is_none()));
        let always = FaultPlan::parse("client.recv.corrupt~1").unwrap();
        assert!((0..100).all(|i| always.fires(CLIENT_RECV_CORRUPT, i).is_some()));
    }

    #[test]
    fn global_registry_counts_occurrences_per_site() {
        let _guard = install_guarded(FaultPlan::parse("dir.save.io@1").unwrap());
        assert!(fire(DIR_SAVE_IO).is_none(), "occurrence 0");
        assert!(fire(DIR_SAVE_IO).is_some(), "occurrence 1 fires");
        assert!(fire(DIR_SAVE_IO).is_none(), "occurrence 2");
        // Keyed hooks don't consume stream occurrences.
        assert!(fires_at(SIM_PANIC, 5).is_none());
        drop(_guard);
        assert!(!active(), "guard drop uninstalls the plan");
        assert!(fire(DIR_SAVE_IO).is_none());
    }

    #[test]
    fn garble_always_changes_the_bytes_deterministically() {
        let original = b"the quick brown fox".to_vec();
        let mut a = original.clone();
        let mut b = original.clone();
        garble(&mut a, 42);
        garble(&mut b, 42);
        assert_eq!(a, b, "same salt garbles identically");
        assert_ne!(a, original, "garbling must change the bytes");
        let mut empty = Vec::new();
        garble(&mut empty, 0);
        assert!(!empty.is_empty());
    }
}
