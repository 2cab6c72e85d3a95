//! [`RemoteStore`]: the networked [`ResultStore`] — an adapter over
//! `eole-store-service`'s [`StoreClient`] that lets a [`Session`]
//! share one result cache with every other session talking to the same
//! `eole-stored` daemon (`experiments --store tcp://HOST:PORT`).
//! Payloads cross the wire as the bytes a [`DirStore`](crate::store::DirStore)
//! files — `eole-result/v2` JSON for results, the 16-byte header and
//! snapshot for checkpoints (which the daemon files as `warm__*.bin`) —
//! and are checked client-side by the same parsers.
//!
//! Two behaviors distinguish it from [`DirStore`](crate::store::DirStore):
//!
//! * **Single-flight.** A [`RemoteStore::load`] miss on a cold key means
//!   this client was granted the key's *lease*: exactly one client
//!   simulates while every concurrent requester waits (server-side, on
//!   the same `Get`) for the lease holder's `save`. Two sessions racing
//!   on a cold key therefore trigger exactly one simulation. If the
//!   simulation fails, the session calls [`RemoteStore::abandon`] so
//!   waiters are woken instead of idling out the lease TTL.
//! * **Graceful degradation.** The first unrecoverable transport failure
//!   (after the client's bounded retries) flips the store into degraded
//!   mode: every subsequent `load` answers `None` (simulate locally) and
//!   every `save` is dropped. A dying daemon costs cache
//!   efficiency, never correctness — the run completes with the same
//!   statistics it would have produced with no store at all.
//!
//! [`Session`]: crate::Session

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use eole_core::stats::SimStats;
use eole_store_service::{ClientConfig, GetOutcome, ServiceStats, StoreClient, StoreError};

use crate::faults;
use crate::store::{
    parse_result_payload, parse_warm_payload, render_result_payload, render_warm_payload,
    PayloadError, ResultStore, RunKey, WarmKey,
};

/// How long one server-held `Get` may park before the client re-polls
/// (bounds how stale a dropped-waiter diagnosis can get; the server
/// wakes waiters immediately on publish, so this is a ceiling, not a
/// latency).
const WAIT_SLICE: Duration = Duration::from_secs(5);

/// Total time a `load` will wait on another session's lease before
/// giving up and simulating locally (a duplicated simulation, never a
/// wrong one — the later `save` republishes the identical payload).
const MAX_FLIGHT_WAIT: Duration = Duration::from_secs(180);

/// A [`ResultStore`] served by a remote `eole-stored` daemon.
#[derive(Debug)]
pub struct RemoteStore {
    client: StoreClient,
    degraded: AtomicBool,
    quarantined: AtomicU64,
}

impl RemoteStore {
    /// Connects to the daemon at `addr` (`host:port`, no scheme) and
    /// verifies the protocol handshake.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] when the daemon is unreachable or speaks a
    /// different protocol version. Connection *loss* after this point
    /// degrades gracefully; connection *failure* at startup is loud —
    /// the caller asked for a store that does not exist.
    pub fn connect(addr: &str) -> Result<RemoteStore, StoreError> {
        let client = StoreClient::connect(ClientConfig::new(addr))?;
        Ok(RemoteStore { client, degraded: AtomicBool::new(false), quarantined: AtomicU64::new(0) })
    }

    /// The daemon address this store talks to.
    pub fn addr(&self) -> &str {
        self.client.addr()
    }

    fn degrade(&self, why: &StoreError) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "[store degraded: {why}; continuing without the cache at {}]",
                self.client.addr()
            );
        }
    }

    /// The one get path of results and checkpoints. `None` means *produce
    /// it*: the key is cold and this client now holds its single-flight
    /// lease, the payload failed validation, or the store is
    /// degraded/overdue and a local (possibly duplicated) simulation or
    /// rebuild is the correct fallback.
    fn fetch<T>(
        &self,
        stem: &str,
        parse: impl Fn(&[u8]) -> Result<T, PayloadError>,
    ) -> Option<T> {
        if self.degraded.load(Ordering::Relaxed) {
            return None;
        }
        let start = Instant::now();
        let slice = u32::try_from(WAIT_SLICE.as_millis()).unwrap_or(u32::MAX);
        loop {
            match self.client.get(stem, slice) {
                Ok(GetOutcome::Hit(mut payload)) => {
                    if let Some(salt) = faults::fire(faults::REMOTE_PAYLOAD_CORRUPT) {
                        faults::garble(&mut payload, salt.unwrap_or(0));
                    }
                    let parsed = parse(&payload);
                    if let Err(why) = &parsed {
                        // A payload that does not verify against its key
                        // is a miss; the fresh one overwrites it at the
                        // daemon. Damaged payloads (crc failures —
                        // daemon-side bit rot or a mangled frame the
                        // transport could not catch) count as quarantined
                        // so the report surfaces them.
                        eprintln!("[store: {why} for {stem}]");
                        if matches!(why, PayloadError::Corrupt(_)) {
                            self.quarantined.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    return parsed.ok();
                }
                Ok(GetOutcome::Lease) => return None,
                Ok(GetOutcome::Busy { retry_ms }) => {
                    // Another session is producing this very entry;
                    // waiting beats duplicating the work — until the
                    // lease holder is slower than any plausible
                    // simulation.
                    if start.elapsed() >= MAX_FLIGHT_WAIT {
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(retry_ms.clamp(10, 1000))));
                }
                Err(e) => {
                    self.degrade(&e);
                    return None;
                }
            }
        }
    }

    /// The one put path of results and checkpoints: publishes the payload
    /// (releasing this client's lease on `stem`, waking any waiters).
    /// Degraded or budget-refused puts are dropped — the value is already
    /// in hand, so a lost cache write must never fail the run.
    fn put(&self, stem: &str, payload: Vec<u8>) -> Result<(), StoreError> {
        if self.degraded.load(Ordering::Relaxed) {
            return Ok(());
        }
        match self.client.put(stem, payload) {
            Ok(()) | Err(StoreError::Evicted) => {}
            Err(e) => self.degrade(&e),
        }
        Ok(())
    }

    /// The daemon's counters (`None` when degraded or unanswerable).
    fn daemon_stats(&self) -> Option<ServiceStats> {
        if self.degraded.load(Ordering::Relaxed) {
            return None;
        }
        self.client.stats().ok()
    }

    /// Releases this client's lease on `stem`. Best-effort: a failed
    /// abandon leaves the lease to the TTL backstop (or to our
    /// disconnect), never blocks the error path.
    fn release(&self, stem: &str) {
        if !self.degraded.load(Ordering::Relaxed) {
            let _ = self.client.abandon(stem);
        }
    }
}

/// Warm checkpoints ride the same wire protocol and the same paths as
/// results — the daemon is payload-agnostic, and [`WarmKey::file_stem`]
/// keeps the two namespaces disjoint (`warm__` prefix). A failing daemon
/// costs warmup time, never statistics: the sweep rebuilds a missing
/// checkpoint by functional replay.
impl ResultStore for RemoteStore {
    fn load(&self, key: &RunKey) -> Option<SimStats> {
        self.fetch(&key.file_stem(), |payload| parse_result_payload(payload, key))
    }

    fn save(&self, key: &RunKey, stats: &SimStats) -> Result<(), StoreError> {
        self.put(&key.file_stem(), render_result_payload(key, stats).into_bytes())
    }

    /// Entry count at the daemon (0 when degraded or unanswerable — the
    /// store is a cache; an unknown size is an empty-enough answer).
    fn len(&self) -> usize {
        self.daemon_stats().map_or(0, |s| usize::try_from(s.entries).unwrap_or(usize::MAX))
    }

    fn abandon(&self, key: &RunKey) {
        self.release(&key.file_stem());
    }

    fn load_warm(&self, key: &WarmKey) -> Option<Vec<u8>> {
        self.fetch(&key.file_stem(), |payload| parse_warm_payload(payload, key))
    }

    fn save_warm(&self, key: &WarmKey, bytes: &[u8]) -> Result<(), StoreError> {
        self.put(&key.file_stem(), render_warm_payload(key, bytes))
    }

    fn abandon_warm(&self, key: &WarmKey) {
        self.release(&key.file_stem());
    }

    fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn observed_evictions(&self) -> u64 {
        self.daemon_stats().map_or(0, |s| s.evictions)
    }

    fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}
