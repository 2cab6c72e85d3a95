//! [`RemoteStore`]: the networked [`ResultStore`] — an adapter over
//! `eole-store-service`'s [`StoreClient`] that lets a [`Session`]
//! share one result cache with every other session talking to the same
//! `eole-stored` daemon (`experiments --store tcp://HOST:PORT`).
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
//!   every `save` is dropped and counted. A dying daemon costs cache
//!   efficiency, never correctness — the run completes with the same
//!   statistics it would have produced with no store at all.
//!
//! [`Session`]: crate::Session

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use eole_core::stats::SimStats;
use eole_store_service::{ClientConfig, GetOutcome, StoreClient, StoreError};

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
    hits: AtomicUsize,
    corrupt: AtomicUsize,
    quarantined: AtomicUsize,
    dropped_saves: AtomicUsize,
    evicted_saves: AtomicUsize,
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
        Ok(RemoteStore {
            client,
            degraded: AtomicBool::new(false),
            hits: AtomicUsize::new(0),
            corrupt: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            dropped_saves: AtomicUsize::new(0),
            evicted_saves: AtomicUsize::new(0),
        })
    }

    /// The daemon address this store talks to.
    pub fn addr(&self) -> &str {
        self.client.addr()
    }

    /// Loads served by the daemon.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Stored payloads that failed validation against their key (each
    /// was treated as a miss; the re-simulated result overwrites it).
    /// Superset of the *damaged* subset reported by
    /// [`ResultStore::quarantined`]: foreign-but-well-formed payloads
    /// count only here.
    pub fn corrupt(&self) -> usize {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Saves dropped because the store was degraded.
    pub fn dropped_saves(&self) -> usize {
        self.dropped_saves.load(Ordering::Relaxed)
    }

    /// Saves the daemon refused under its byte budget.
    pub fn evicted_saves(&self) -> usize {
        self.evicted_saves.load(Ordering::Relaxed)
    }

    fn degrade(&self, why: &StoreError) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "[store degraded: {why}; continuing without the cache at {}]",
                self.client.addr()
            );
        }
    }
}

impl ResultStore for RemoteStore {
    /// `None` means *simulate it* — either the key is cold and this
    /// client now holds its single-flight lease, or the store is
    /// degraded/overdue and a local (possibly duplicated) simulation is
    /// the correct fallback.
    fn load(&self, key: &RunKey) -> Option<SimStats> {
        if self.degraded.load(Ordering::Relaxed) {
            return None;
        }
        let wire_key = key.file_stem();
        let start = Instant::now();
        loop {
            let slice = u32::try_from(WAIT_SLICE.as_millis()).unwrap_or(u32::MAX);
            match self.client.get(&wire_key, slice) {
                Ok(GetOutcome::Hit(mut payload)) => {
                    if let Some(salt) = faults::fire(faults::REMOTE_PAYLOAD_CORRUPT) {
                        faults::garble(&mut payload, salt.unwrap_or(0));
                    }
                    let text = String::from_utf8_lossy(&payload);
                    match parse_result_payload(&text, key) {
                        Ok(stats) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Some(stats);
                        }
                        Err(why) => {
                            // A payload that does not verify against its
                            // key is a miss; the fresh result overwrites
                            // it at the daemon. Damaged payloads (crc
                            // failures — daemon-side bit rot or a mangled
                            // frame the transport could not catch) also
                            // count as quarantined so the report surfaces
                            // them distinctly.
                            eprintln!("[store: {why} for {wire_key}]");
                            if matches!(why, PayloadError::Corrupt(_)) {
                                self.quarantined.fetch_add(1, Ordering::Relaxed);
                            }
                            self.corrupt.fetch_add(1, Ordering::Relaxed);
                            return None;
                        }
                    }
                }
                Ok(GetOutcome::Lease) => return None,
                Ok(GetOutcome::Busy { retry_ms }) => {
                    if start.elapsed() >= MAX_FLIGHT_WAIT {
                        // The lease holder is slower than any plausible
                        // simulation; duplicate the work rather than hang.
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

    /// Publishes the result (and releases this client's lease on `key`,
    /// waking any waiters). Degraded or budget-refused saves are counted
    /// and swallowed: the statistics are already in hand, so a lost
    /// cache write must never fail the run.
    fn save(&self, key: &RunKey, stats: &SimStats) -> Result<(), StoreError> {
        if self.degraded.load(Ordering::Relaxed) {
            self.dropped_saves.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let payload = render_result_payload(key, stats);
        match self.client.put(&key.file_stem(), payload.into_bytes()) {
            Ok(()) => Ok(()),
            Err(StoreError::Evicted) => {
                self.evicted_saves.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.degrade(&e);
                self.dropped_saves.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Entry count at the daemon (0 when degraded or unanswerable — the
    /// store is a cache; an unknown size is an empty-enough answer).
    fn len(&self) -> usize {
        if self.degraded.load(Ordering::Relaxed) {
            return 0;
        }
        match self.client.stats() {
            Ok(s) => usize::try_from(s.entries).unwrap_or(usize::MAX),
            Err(_) => 0,
        }
    }

    fn abandon(&self, key: &RunKey) {
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        // Best-effort: a failed abandon leaves the lease to the TTL
        // backstop (or to our disconnect), never blocks the error path.
        let _ = self.client.abandon(&key.file_stem());
    }

    /// Warm checkpoints ride the same wire protocol as results — the
    /// daemon is payload-agnostic, and [`WarmKey::file_stem`] keeps the
    /// two namespaces disjoint (`warm__` prefix). `None` means *build
    /// it*: a cold key (this client now holds its lease — released by
    /// the producer's `save_warm`), a payload that fails validation, or
    /// a degraded store; the sweep rebuilds by functional replay in all
    /// three cases, so a failing daemon costs warmup time, never
    /// statistics.
    fn load_warm(&self, key: &WarmKey) -> Option<Vec<u8>> {
        if self.degraded.load(Ordering::Relaxed) {
            return None;
        }
        let wire_key = key.file_stem();
        let start = Instant::now();
        loop {
            let slice = u32::try_from(WAIT_SLICE.as_millis()).unwrap_or(u32::MAX);
            match self.client.get(&wire_key, slice) {
                Ok(GetOutcome::Hit(mut payload)) => {
                    if let Some(salt) = faults::fire(faults::REMOTE_PAYLOAD_CORRUPT) {
                        faults::garble(&mut payload, salt.unwrap_or(0));
                    }
                    let text = String::from_utf8_lossy(&payload);
                    match parse_warm_payload(&text, key) {
                        Ok(bytes) => return Some(bytes),
                        Err(why) => {
                            eprintln!("[store: {why} for {wire_key}]");
                            if matches!(why, PayloadError::Corrupt(_)) {
                                self.quarantined.fetch_add(1, Ordering::Relaxed);
                            }
                            self.corrupt.fetch_add(1, Ordering::Relaxed);
                            return None;
                        }
                    }
                }
                Ok(GetOutcome::Lease) => return None,
                Ok(GetOutcome::Busy { retry_ms }) => {
                    // Another session's sweep is building this very
                    // checkpoint; waiting beats duplicating the replay,
                    // bounded exactly like a result-key wait.
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

    /// Publishes a freshly built checkpoint (releasing this client's
    /// lease on its key). Like [`RemoteStore::save`], degraded and
    /// budget-refused writes are counted and swallowed — a checkpoint is
    /// pure warmup savings, so losing one must never fail the run.
    fn save_warm(&self, key: &WarmKey, bytes: &[u8]) -> Result<(), StoreError> {
        if self.degraded.load(Ordering::Relaxed) {
            self.dropped_saves.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let payload = render_warm_payload(key, bytes);
        match self.client.put(&key.file_stem(), payload.into_bytes()) {
            Ok(()) => Ok(()),
            Err(StoreError::Evicted) => {
                self.evicted_saves.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.degrade(&e);
                self.dropped_saves.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    fn abandon_warm(&self, key: &WarmKey) {
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let _ = self.client.abandon(&key.file_stem());
    }

    fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn observed_evictions(&self) -> u64 {
        if self.degraded.load(Ordering::Relaxed) {
            return 0;
        }
        self.client.stats().map(|s| s.evictions).unwrap_or(0)
    }

    fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed) as u64
    }
}
