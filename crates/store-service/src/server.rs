//! The `eole-stored` server: a thread-per-connection TCP daemon over a
//! store directory in the [`crate::dir`] layout (shared with `DirStore`),
//! adding the three things a *shared* cache needs beyond a directory:
//! single-flight leases, an eviction budget, and crash-safe publication.
//!
//! ## Single-flight leases
//!
//! A `Get` on a cold key atomically grants the requesting *connection* a
//! lease and answers [`crate::proto::Response::Lease`]: that client simulates
//! and publishes with `Put`. Any other connection's `Get` for the same
//! key parks on a condvar (up to the request's `wait_ms`) and is served
//! the payload the moment it is published — or told
//! [`crate::proto::Response::Busy`] so it polls again. A lease dies with its
//! connection (a killed client never wedges the key) and also expires
//! after [`ServerConfig::lease_ttl`] as a backstop against a *hung*
//! client that keeps its socket open.
//!
//! ## Eviction
//!
//! Optional byte and entry budgets ([`ServerConfig::max_bytes`],
//! [`ServerConfig::max_entries`]) are enforced after every `Put` (and
//! once at startup) by evicting least-recently-accessed entries —
//! access = hit or publish, with on-disk mtimes doubling as the
//! cross-restart access record. Keys with an active lease or parked
//! waiters are never evicted, and neither is the entry just published
//! (its waiters have not read it yet).
//!
//! ## Publication
//!
//! Payload files are published with [`crate::dir::write_atomically`], so a
//! crashed daemon can leave at worst a stray `.tmp-*` file, never a torn
//! entry.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime};

use crate::dir;
use crate::faults;
use crate::proto::{
    decode_request, encode_response, read_frame, valid_key, write_frame, Request, Response,
    ServiceStats, ERR_EVICTED, ERR_GENERIC, PROTO_VERSION,
};
use crate::StoreError;

/// Tuning knobs of one `eole-stored` instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Store directory in the [`crate::dir`] layout (created if absent;
    /// shareable with `DirStore`).
    pub dir: PathBuf,
    /// Evict down to this many payload bytes (`None` = unbounded).
    pub max_bytes: Option<u64>,
    /// Evict down to this many entries (`None` = unbounded).
    pub max_entries: Option<usize>,
    /// Backstop expiry for a lease whose holder keeps the connection open
    /// but never publishes; sized for the slowest expected simulation.
    pub lease_ttl: Duration,
    /// Client-side delay hinted by a `Busy` response.
    pub busy_retry_ms: u32,
}

impl ServerConfig {
    /// Defaults: unbounded budgets, 120 s lease TTL, 50 ms busy hint.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            dir: dir.into(),
            max_bytes: None,
            max_entries: None,
            lease_ttl: Duration::from_secs(120),
            busy_retry_ms: 50,
        }
    }
}

#[derive(Debug)]
struct Entry {
    bytes: u64,
    last_access: u64,
}

#[derive(Debug)]
struct Lease {
    conn_id: u64,
    deadline: Instant,
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<String, Entry>,
    total_bytes: u64,
    leases: HashMap<String, Lease>,
    /// Connections currently parked on a key's lease — such keys are
    /// pinned against eviction until the waiters have read them.
    waiters: HashMap<String, usize>,
    tick: u64,
    stats: ServiceStats,
}

#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    state: Mutex<State>,
    published: Condvar,
    stop: AtomicBool,
    active_conns: AtomicUsize,
    next_conn: AtomicU64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Poisoning-proof state lock: a panicking connection thread must
    /// not wedge every other connection behind a `PoisonError`.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        crate::lock_clean(&self.state)
    }

    /// Atomic publish, then index update and waiter wakeup.
    fn publish(&self, key: &str, payload: &[u8]) -> Result<(), StoreError> {
        dir::write_atomically(&dir::entry_path(&self.config.dir, key), payload)
            .map_err(StoreError::Io)?;
        let mut st = self.lock_state();
        st.tick += 1;
        let tick = st.tick;
        let new_bytes = payload.len() as u64;
        let old = st.entries.insert(key.to_string(), Entry { bytes: new_bytes, last_access: tick });
        st.total_bytes = st.total_bytes - old.map_or(0, |e| e.bytes) + new_bytes;
        st.leases.remove(key);
        st.stats.puts += 1;
        self.evict(&mut st, Some(key));
        drop(st);
        self.published.notify_all();
        Ok(())
    }

    /// Evicts least-recently-accessed entries until the budgets hold.
    /// Leased keys hold no entry by construction; keys with parked
    /// waiters and the just-published `protect` key are skipped.
    fn evict(&self, st: &mut State, protect: Option<&str>) {
        let over = |st: &State| {
            self.config.max_bytes.is_some_and(|b| st.total_bytes > b)
                || self.config.max_entries.is_some_and(|n| st.entries.len() > n)
        };
        while over(st) {
            let candidate = st
                .entries
                .iter()
                .filter(|(k, _)| {
                    protect != Some(k.as_str())
                        && st.waiters.get(k.as_str()).copied().unwrap_or(0) == 0
                        && !st.leases.contains_key(k.as_str())
                })
                .min_by_key(|(_, e)| e.last_access)
                .map(|(k, _)| k.clone());
            let Some(key) = candidate else { break };
            let Some(entry) = st.entries.remove(&key) else { break };
            st.total_bytes -= entry.bytes;
            st.stats.evictions += 1;
            let _ = std::fs::remove_file(dir::entry_path(&self.config.dir, &key));
        }
    }

    /// The single-flight lookup. Returns `Hit` / `Lease` / `Busy`.
    fn get(&self, conn_id: u64, key: &str, wait_ms: u32) -> Response {
        let deadline = Instant::now() + Duration::from_millis(u64::from(wait_ms));
        let mut st = self.lock_state();
        let mut waiting = false;
        let unregister = |st: &mut State, waiting: bool| {
            if waiting {
                if let Some(n) = st.waiters.get_mut(key) {
                    *n -= 1;
                    if *n == 0 {
                        st.waiters.remove(key);
                    }
                }
            }
        };
        loop {
            if st.entries.contains_key(key) {
                let path = dir::entry_path(&self.config.dir, key);
                match std::fs::read(&path) {
                    Ok(payload) => {
                        st.tick += 1;
                        let tick = st.tick;
                        if let Some(e) = st.entries.get_mut(key) {
                            e.last_access = tick;
                        }
                        st.stats.hits += 1;
                        unregister(&mut st, waiting);
                        // Persist the access for cross-restart LRU;
                        // best-effort (a read-only volume just loses
                        // recency refinement, not correctness).
                        if let Ok(f) = std::fs::File::open(&path) {
                            let _ = f.set_modified(SystemTime::now());
                        }
                        return Response::Hit { payload };
                    }
                    Err(_) => {
                        // The file vanished or broke under us: drop the
                        // index entry and fall through to the miss path.
                        if let Some(entry) = st.entries.remove(key) {
                            st.total_bytes -= entry.bytes;
                        }
                    }
                }
            }
            let now = Instant::now();
            let lease = st.leases.get(key).map(|l| (l.conn_id, l.deadline));
            match lease {
                Some((holder, _)) if holder == conn_id => {
                    // Re-grant to the holder (refreshing the TTL): the
                    // same client asking again still owes exactly one
                    // simulation, and answering Busy could deadlock a
                    // single-connection client against itself.
                    st.leases.insert(
                        key.to_string(),
                        Lease { conn_id, deadline: now + self.config.lease_ttl },
                    );
                    unregister(&mut st, waiting);
                    return Response::Lease;
                }
                Some((_, lease_deadline))
                    if now >= lease_deadline
                        || faults::fire(faults::SERVER_LEASE_EXPIRE).is_some() =>
                {
                    // Expired: the holder hung. Drop the lease; the loop
                    // re-evaluates and grants it to this connection.
                    st.leases.remove(key);
                    st.stats.leases_expired += 1;
                }
                Some((_, lease_deadline)) => {
                    if now >= deadline || self.stopping() {
                        unregister(&mut st, waiting);
                        return Response::Busy { retry_ms: self.config.busy_retry_ms };
                    }
                    if !waiting {
                        waiting = true;
                        *st.waiters.entry(key.to_string()).or_default() += 1;
                        st.stats.lease_waits += 1;
                    }
                    // Sleep until publish, lease expiry, or our own
                    // deadline — whichever comes first.
                    let until = deadline.min(lease_deadline);
                    let dur = until.saturating_duration_since(now);
                    let (guard, _) = self
                        .published
                        .wait_timeout(st, dur)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
                None => {
                    st.stats.misses += 1;
                    st.stats.leases_granted += 1;
                    st.leases.insert(
                        key.to_string(),
                        Lease { conn_id, deadline: now + self.config.lease_ttl },
                    );
                    unregister(&mut st, waiting);
                    return Response::Lease;
                }
            }
        }
    }

    fn abandon(&self, conn_id: u64, key: &str) {
        let mut st = self.lock_state();
        if st.leases.get(key).is_some_and(|l| l.conn_id == conn_id) {
            st.leases.remove(key);
            drop(st);
            // Wake waiters so one of them claims a fresh lease.
            self.published.notify_all();
        }
    }

    fn release_connection(&self, conn_id: u64) {
        let mut st = self.lock_state();
        let before = st.leases.len();
        st.leases.retain(|_, l| l.conn_id != conn_id);
        let released = before != st.leases.len();
        drop(st);
        if released {
            self.published.notify_all();
        }
    }

    fn stats(&self) -> ServiceStats {
        let st = self.lock_state();
        ServiceStats {
            entries: st.entries.len() as u64,
            bytes: st.total_bytes,
            ..st.stats
        }
    }
}

/// A bound (but not yet serving) store server.
#[derive(Debug)]
pub struct StoreServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl StoreServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), creates
    /// the store directory, seeds the LRU index from the files already
    /// present (ordered by mtime), and applies the eviction budget once.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created or the
    /// address cannot be bound.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<StoreServer, StoreError> {
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| StoreError::Io(format!("create store dir {}: {e}", config.dir.display())))?;
        let listener =
            TcpListener::bind(addr).map_err(|e| StoreError::Io(format!("bind {addr}: {e}")))?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            published: Condvar::new(),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            next_conn: AtomicU64::new(1),
            config,
        });
        let mut found = dir::scan(&shared.config.dir);
        found.retain(|(stem, _)| valid_key(stem));
        found.sort_by_key(|(_, meta)| meta.modified().unwrap_or(SystemTime::UNIX_EPOCH));
        {
            let mut st = shared.lock_state();
            for (key, meta) in found {
                st.tick += 1;
                let tick = st.tick;
                st.total_bytes += meta.len();
                st.entries.insert(key, Entry { bytes: meta.len(), last_access: tick });
            }
            shared.evict(&mut st, None);
        }
        Ok(StoreServer { listener, shared })
    }

    /// The bound address (resolves an ephemeral port request).
    ///
    /// # Panics
    ///
    /// Never in practice — a bound listener always has a local address.
    pub fn local_addr(&self) -> SocketAddr {
        // lint:allow(error-typing) documented `# Panics`: a bound listener always has a local address
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Entries currently stored (test/CLI introspection shortcut).
    pub fn entries(&self) -> usize {
        self.shared.stats().entries as usize
    }

    /// Serves until [`ServerHandle::shutdown`] (from a [`StoreServer::spawn`]ed
    /// instance) or process death; one thread per connection.
    pub fn serve(self) {
        for stream in self.listener.incoming() {
            if self.shared.stopping() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            shared.active_conns.fetch_add(1, Ordering::AcqRel);
            std::thread::spawn(move || {
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                serve_connection(&shared, stream, conn_id);
                shared.release_connection(conn_id);
                shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            });
        }
    }

    /// Runs the accept loop on a background thread and returns a handle
    /// for tests and in-process embedding.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.serve());
        ServerHandle { addr, shared, thread }
    }
}

/// Handle to a [`StoreServer::spawn`]ed server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters snapshot (same numbers a `Stats` request returns).
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Stops accepting, wakes parked waiters, closes live connections
    /// (they poll a stop flag between requests), and joins the accept
    /// loop. Waits up to ~2 s for connection threads to drain.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.published.notify_all();
        // Nudge the blocking accept so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Per-connection request loop. The read timeout doubles as the stop-flag
/// poll interval, so a shutdown tears down idle connections within ~250 ms.
fn serve_connection(shared: &Shared, mut stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut shook_hands = false;
    loop {
        if shared.stopping() {
            return;
        }
        let mut body = match read_frame(&mut stream) {
            Ok(body) => body,
            Err(StoreError::Timeout(_)) => continue, // idle poll; check stop and re-read
            Err(_) => return,                        // EOF, reset, or an oversized frame
        };
        if faults::fire(faults::SERVER_RECV_CORRUPT).is_some() {
            faults::garble(&mut body, conn_id);
        }
        let (response, fatal) = match decode_request(&body) {
            Ok(Request::Ping { proto }) if proto == PROTO_VERSION => {
                shook_hands = true;
                (Response::Pong { proto: PROTO_VERSION.to_string() }, false)
            }
            Ok(Request::Ping { proto }) => (
                Response::Err {
                    code: ERR_GENERIC,
                    msg: format!("server speaks {PROTO_VERSION}, client sent {proto}"),
                },
                true,
            ),
            Ok(_) if !shook_hands => (
                Response::Err {
                    code: ERR_GENERIC,
                    msg: "handshake required: send Ping first".to_string(),
                },
                true,
            ),
            Ok(Request::Get { key, wait_ms }) if valid_key(&key) => {
                (shared.get(conn_id, &key, wait_ms), false)
            }
            Ok(Request::Put { key, payload }) if valid_key(&key) => {
                if shared.config.max_bytes.is_some_and(|b| payload.len() as u64 > b) {
                    // The publisher is giving up on this key as far as the
                    // store is concerned; release its lease so waiters
                    // simulate for themselves instead of idling out the TTL.
                    shared.abandon(conn_id, &key);
                    (
                        Response::Err {
                            code: ERR_EVICTED,
                            msg: format!(
                                "payload of {} bytes exceeds the {}-byte budget",
                                payload.len(),
                                shared.config.max_bytes.unwrap_or(0)
                            ),
                        },
                        false,
                    )
                } else {
                    match shared.publish(&key, &payload) {
                        Ok(()) => (Response::Ok, false),
                        Err(e) => {
                            (Response::Err { code: ERR_GENERIC, msg: e.to_string() }, false)
                        }
                    }
                }
            }
            Ok(Request::Abandon { key }) if valid_key(&key) => {
                shared.abandon(conn_id, &key);
                (Response::Ok, false)
            }
            Ok(Request::Get { key, .. } | Request::Put { key, .. } | Request::Abandon { key }) => (
                Response::Err { code: ERR_GENERIC, msg: format!("invalid key {key:?}") },
                true,
            ),
            Ok(Request::Stats) => (Response::Stats(shared.stats()), false),
            // Undecodable request: answer (the peer may still be reading)
            // and close — the stream offset can no longer be trusted.
            Err(e) => (Response::Err { code: ERR_GENERIC, msg: e.to_string() }, true),
        };
        if write_frame(&mut stream, &encode_response(&response)).is_err() || fatal {
            return;
        }
    }
}
