//! Wire-level chaos: seeded fault injection against a real daemon over
//! loopback TCP. Every injected transport fault must surface as a typed
//! [`StoreError`] (or be absorbed by the client's bounded retry) — never
//! a panic, a hang, or a silently wrong payload.
//!
//! The fault injector is process-global, so every test holds the
//! injector's test lock for its whole body ([`serialized`]): servers and
//! clients are set up with nothing installed, and the test installs its
//! plan just before the request it targets. A sibling test's server or
//! request can then never consume an occurrence of this test's plan.

use std::time::Duration;

use eole_store_service::faults::{self, FaultPlan};
use eole_store_service::{
    ClientConfig, GetOutcome, ServerConfig, ServerHandle, StoreClient, StoreError, StoreServer,
};

/// Takes the process-wide fault-test lock with no plan installed; the
/// guard uninstalls whatever the test installed and releases the lock
/// on drop.
fn serialized() -> faults::InstallGuard {
    let guard = faults::install_guarded(FaultPlan::default());
    faults::install(None);
    guard
}

/// Installs `spec` (under the lock [`serialized`] holds).
fn arm(spec: &str) {
    faults::install(Some(FaultPlan::parse(spec).unwrap()));
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    StoreServer::bind("127.0.0.1:0", config).expect("bind loopback").spawn()
}

fn fast_client(handle: &ServerHandle) -> StoreClient {
    // Short backoff so retry-path tests stay quick.
    let mut config = ClientConfig::new(handle.addr().to_string());
    config.backoff = Duration::from_millis(10);
    StoreClient::connect(config).expect("connect")
}

fn tempdir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("eole-chaos-wire-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.to_string_lossy().into_owned()
}

/// Polls `get` until the lease lands (bounded): the previous faulted
/// exchange may have left a server-side lease whose disconnect-release
/// races the reconnect.
fn get_lease_eventually(client: &StoreClient, key: &str) {
    let start = std::time::Instant::now();
    loop {
        match client.get(key, 500).unwrap() {
            GetOutcome::Lease => return,
            GetOutcome::Busy { retry_ms } => {
                assert!(start.elapsed() < Duration::from_secs(10), "lease never released");
                std::thread::sleep(Duration::from_millis(u64::from(retry_ms.clamp(10, 100))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn garbled_response_is_a_typed_protocol_error_not_a_retry_storm() {
    let _guard = serialized();
    let dir = tempdir("garble");
    let server = spawn_server(ServerConfig::new(&dir));
    // Connect BEFORE installing the plan: the handshake bypasses the
    // request path, but keeping it fault-free makes occurrence 0 below
    // unambiguous.
    let client = fast_client(&server);
    arm("client.recv.corrupt@0,seed=1");
    // The very first request's response frame is garbled in flight: the
    // decoder must reject it typed, and the client must NOT retry (a
    // corrupted stream is not a transient transport failure).
    let err = client.get("k", 0).unwrap_err();
    assert!(matches!(err, StoreError::Protocol(_)), "got {err:?}");
    // The connection was dropped after the protocol error; the next
    // request re-dials and works (occurrence 1 does not fire).
    get_lease_eventually(&client, "k");
    server.shutdown();
}

#[test]
fn truncated_response_is_a_typed_protocol_error() {
    let _guard = serialized();
    let dir = tempdir("truncate");
    let server = spawn_server(ServerConfig::new(&dir));
    let client = fast_client(&server);
    arm("client.recv.truncate@0,seed=1");
    let err = client.get("k", 0).unwrap_err();
    assert!(matches!(err, StoreError::Protocol(_)), "got {err:?}");
    get_lease_eventually(&client, "k"); // recovers on the next request
    server.shutdown();
}

#[test]
fn injected_send_failure_is_absorbed_by_reconnect_and_retry() {
    let _guard = serialized();
    let dir = tempdir("send-io");
    let server = spawn_server(ServerConfig::new(&dir));
    let client = fast_client(&server);
    arm("client.send.io@0,seed=1");
    // Attempt 0 fails with an injected Io error; the client reconnects
    // and attempt 1 (occurrence 1 — no match) succeeds. The caller never
    // sees the fault.
    assert_eq!(client.get("k", 0).unwrap(), GetOutcome::Lease);
    client.put("k", b"survived".to_vec()).unwrap();
    assert_eq!(client.get("k", 0).unwrap(), GetOutcome::Hit(b"survived".to_vec()));
    server.shutdown();
}

#[test]
fn forced_lease_expiry_regrants_and_counts() {
    let _guard = serialized();
    let dir = tempdir("lease-expire");
    let server = spawn_server(ServerConfig::new(&dir));
    let a = fast_client(&server);
    let b = fast_client(&server);
    assert_eq!(a.get("k", 0).unwrap(), GetOutcome::Lease);
    // Force the server to treat a's (healthy, hours-from-expiry) lease as
    // expired the moment b asks — the deterministic stand-in for a real
    // TTL expiry, without the wall-clock wait.
    arm("server.lease.expire@0,seed=1");
    assert_eq!(b.get("k", 0).unwrap(), GetOutcome::Lease, "the expired lease is re-granted");
    let stats = server.stats();
    assert_eq!(stats.leases_expired, 1);
    assert_eq!(stats.leases_granted, 2);
    // b (the new holder) publishes; a's late put is still accepted.
    b.put("k", b"payload".to_vec()).unwrap();
    a.put("k", b"payload".to_vec()).unwrap();
    assert_eq!(a.get("k", 0).unwrap(), GetOutcome::Hit(b"payload".to_vec()));
    server.shutdown();
}

#[test]
fn garbled_inbound_request_gets_a_typed_err_response_and_the_daemon_lives() {
    let _guard = serialized();
    let dir = tempdir("server-garble");
    let server = spawn_server(ServerConfig::new(&dir));
    let client = fast_client(&server);
    // Garble the server's *inbound* view of the next request body: the
    // daemon must answer a typed Err (which the client surfaces as a
    // Protocol error) and keep serving other connections. A Stats
    // request is a single tag byte, so the garble always destroys the
    // tag — deterministic regardless of where the salt lands the flip.
    arm("server.recv.corrupt@0,seed=2");
    let err = client.stats().unwrap_err();
    assert!(matches!(err, StoreError::Protocol(_)), "got {err:?}");
    // The daemon is still healthy for a fresh connection.
    let fresh = fast_client(&server);
    assert_eq!(fresh.get("k", 0).unwrap(), GetOutcome::Lease);
    server.shutdown();
}

#[test]
fn injected_client_delay_only_slows_the_request() {
    let _guard = serialized();
    let dir = tempdir("delay");
    let server = spawn_server(ServerConfig::new(&dir));
    let client = fast_client(&server);
    arm("client.delay@0:80,seed=1");
    let start = std::time::Instant::now();
    assert_eq!(client.get("k", 0).unwrap(), GetOutcome::Lease);
    assert!(start.elapsed() >= Duration::from_millis(80), "the delay was injected");
    let quick = std::time::Instant::now();
    client.put("k", b"p".to_vec()).unwrap();
    assert!(quick.elapsed() < Duration::from_millis(80), "only occurrence 0 is delayed");
    server.shutdown();
}
