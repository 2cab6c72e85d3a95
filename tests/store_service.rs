//! End-to-end `eole-stored` integration: concurrent Sessions sharing one
//! daemon must single-flight every unique RunKey (exactly one simulation
//! fleet-wide), produce results byte-identical to a store-less serial
//! run, serve a warm re-run with 100% hits — and degrade gracefully to
//! local simulation when the daemon dies mid-run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use eole_bench::store::{render_result_payload, RunKey};
use eole_bench::{Format, Grid, Runner, Session};
use eole_core::config::CoreConfig;
use eole_store_service::{ServerConfig, ServerHandle, StoreServer};

fn small_grid() -> Grid {
    Grid::new()
        .runner(Runner::quick())
        .configs([CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()])
        .workload_names(&["gzip", "namd"])
}

fn temp_dir(tag: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eole-stored-e2e-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn spawn_daemon(dir: &str) -> ServerHandle {
    StoreServer::bind("127.0.0.1:0", ServerConfig::new(dir)).expect("bind loopback").spawn()
}

/// The store-less serial truth: per-cell payload bytes (the same
/// `eole-result/v2` rendering every store path round-trips through, so
/// payload equality is byte-identity for everything downstream).
fn reference_payloads() -> HashMap<String, String> {
    let session = Session::builder().runner(Runner::quick()).threads(2).build().unwrap();
    session
        .run(&small_grid())
        .into_iter()
        .map(|r| {
            let key = RunKey::of(&r.spec);
            let stats = r.outcome.expect("reference run succeeds");
            (r.spec.label(), render_result_payload(&key, &stats))
        })
        .collect()
}

fn payloads_of(results: Vec<eole_bench::RunResult>) -> HashMap<String, String> {
    results
        .into_iter()
        .map(|r| {
            let key = RunKey::of(&r.spec);
            let stats = r.outcome.expect("run succeeds");
            (r.spec.label(), render_result_payload(&key, &stats))
        })
        .collect()
}

#[test]
fn concurrent_sessions_single_flight_and_match_the_serial_run_byte_for_byte() {
    let reference = reference_payloads();
    let dir = temp_dir("single-flight");
    let daemon = spawn_daemon(&dir);
    let url = format!("tcp://{}", daemon.addr());

    // Four Sessions race the same cold grid through one daemon.
    const SESSIONS: usize = 4;
    let total_sims = AtomicUsize::new(0);
    let per_cell_sims: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|_| {
                let url = url.clone();
                scope.spawn(move || {
                    let session = Session::builder()
                        .runner(Runner::quick())
                        .threads(2)
                        .store_dir(url)
                        .build()
                        .unwrap();
                    let payloads = payloads_of(session.run(&small_grid()));
                    let summary = session.store_summary().expect("store attached");
                    assert!(!summary.degraded, "healthy daemon must not degrade");
                    assert_eq!(
                        summary.hits + summary.sims,
                        payloads.len(),
                        "every cell is a hit or a simulation"
                    );
                    (payloads, summary.sims)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                let (payloads, sims) = h.join().expect("session thread");
                total_sims.fetch_add(sims, Ordering::Relaxed);
                payloads.into_iter()
            })
            .collect()
    });

    // Byte-identity: every session's every cell matches the serial truth.
    assert_eq!(per_cell_sims.len(), SESSIONS * reference.len());
    for (label, payload) in &per_cell_sims {
        assert_eq!(payload, &reference[label], "{label}: payload differs from serial run");
    }
    // Single-flight: exactly one simulation per unique key, fleet-wide.
    assert_eq!(
        total_sims.load(Ordering::Relaxed),
        reference.len(),
        "N sessions racing a cold key must simulate it exactly once"
    );
    assert_eq!(daemon.stats().leases_granted as usize, reference.len());

    // Warm re-run: a fresh session is served entirely from the daemon.
    let warm = Session::builder()
        .runner(Runner::quick())
        .threads(2)
        .store_dir(url.clone())
        .build()
        .unwrap();
    let warm_payloads = payloads_of(warm.run(&small_grid()));
    for (label, payload) in &warm_payloads {
        assert_eq!(payload, &reference[label]);
    }
    assert_eq!(warm.simulated(), 0, "warm re-run must be 100% hits");
    assert_eq!(warm.store_hits(), reference.len());

    // The report-set header carries the flat store block, and stripping
    // it (the CI byte-compare discipline) restores the store-less bytes.
    let with_store = warm.render(&[], Format::Json);
    assert!(with_store.contains(",\"store\":{\"hits\":4,\"misses\":0,\"sims\":0,"));
    let stripped = {
        let start = with_store.find(",\"store\":{").unwrap();
        let end = start + with_store[start..].find('}').unwrap() + 1;
        format!("{}{}", &with_store[..start], &with_store[end..])
    };
    let store_less = Session::new(Runner::quick()).render(&[], Format::Json);
    assert_eq!(stripped, store_less, "store block must strip back to the v1 bytes");

    daemon.shutdown();
}

#[test]
fn daemon_loss_mid_run_degrades_to_local_simulation() {
    let reference = reference_payloads();
    let dir = temp_dir("daemon-loss");
    let daemon = spawn_daemon(&dir);

    // The session connects while the daemon is alive…
    let session = Session::builder()
        .runner(Runner::quick())
        .threads(2)
        .store_dir(format!("tcp://{}", daemon.addr()))
        .build()
        .unwrap();
    // …then the daemon is killed before any run starts.
    daemon.shutdown();

    // The run must complete — locally, with the exact serial results —
    // instead of failing or hanging on the dead daemon.
    let payloads = payloads_of(session.run(&small_grid()));
    for (label, payload) in &payloads {
        assert_eq!(payload, &reference[label], "{label}: degraded run must stay correct");
    }
    assert_eq!(session.simulated(), reference.len(), "all cells simulated locally");
    let summary = session.store_summary().expect("store attached");
    assert!(summary.degraded, "losing the daemon must flip the degraded flag");
    assert!(session.accounting().contains("DEGRADED"), "{}", session.accounting());
    let rendered = session.render(&[], Format::Json);
    assert!(rendered.contains("\"degraded\":true"), "{rendered}");
}

/// Warm checkpoints ride the daemon end to end: a real captured
/// [`WarmState`] published by one client is served to another, decodes,
/// and restores bit-identically — the daemon is payload-agnostic, so
/// `eole-warmstate/v2` needs no server-side support, only the disjoint
/// `warm__` key namespace.
///
/// [`WarmState`]: eole_core::pipeline::WarmState
#[test]
fn warm_checkpoints_round_trip_through_the_daemon() {
    use eole_bench::{RemoteStore, ResultStore, RunSpec, WarmKey};
    use eole_core::pipeline::{Simulator, WarmState};
    use eole_workloads::workload_by_name;

    let dir = temp_dir("warmstate");
    let daemon = spawn_daemon(&dir);
    let runner = Runner::quick();
    let spec = RunSpec {
        config: CoreConfig::eole_6_64(),
        workload: workload_by_name("gzip").unwrap(),
        runner,
        seed: 0,
    };
    let trace = runner.try_prepare(&spec.workload).unwrap();
    let mut sim = Simulator::new(&trace, spec.config.clone()).unwrap();
    sim.functional_warm(7_500);
    let warm = sim.capture_warm();
    let key = WarmKey::of(&spec, 7_500);

    let producer = RemoteStore::connect(&daemon.addr().to_string()).unwrap();
    // Cold key: the daemon grants this client the lease (a `None`,
    // meaning *build it*)…
    assert!(producer.load_warm(&key).is_none());
    // …and the publish releases it. The daemon files the entry as
    // `<stem>.bin`: the 16-byte header, then the snapshot.
    producer.save_warm(&key, warm.as_bytes()).unwrap();
    let filed = std::path::Path::new(&dir).join(format!("{}.bin", key.file_stem()));
    assert_eq!(std::fs::metadata(filed).unwrap().len(), (16 + warm.len()) as u64);

    // A second session's client is served the identical bytes, which
    // restore into a simulator bit-identically to the original capture.
    let consumer = RemoteStore::connect(&daemon.addr().to_string()).unwrap();
    let bytes = consumer.load_warm(&key).expect("published checkpoint is served");
    let decoded = WarmState::from_bytes(bytes).expect("payload decodes");
    let mut restored = Simulator::new(&trace, spec.config.clone()).unwrap();
    restored.restore_warm(&decoded).expect("restore succeeds");
    assert_eq!(restored.capture_warm().as_bytes(), warm.as_bytes());

    // A different position is a different wire key — cold, not served.
    assert!(consumer.load_warm(&WarmKey::of(&spec, 9_999)).is_none());
    // The configuration participates in the key (stem and digest), so
    // the same position under another config is cold too — a checkpoint
    // can never be served across configurations.
    let other = RunSpec { config: CoreConfig::baseline_6_64(), ..spec.clone() };
    assert!(consumer.load_warm(&WarmKey::of(&other, 7_500)).is_none());
    // Release the leases those cold misses granted, so shutdown is clean.
    consumer.abandon_warm(&WarmKey::of(&spec, 9_999));
    consumer.abandon_warm(&WarmKey::of(&other, 7_500));
    assert!(!producer.degraded() && !consumer.degraded());
    daemon.shutdown();
}

#[test]
fn dead_daemon_at_connect_time_is_a_loud_typed_error() {
    // Degradation covers daemons that *die*; a daemon that never existed
    // is a user error and must fail the build step, not silently run
    // store-less.
    let err = Session::builder()
        .runner(Runner::quick())
        .store_dir("tcp://127.0.0.1:1") // nothing listens on port 1
        .build()
        .unwrap_err();
    assert!(err.contains("connect result store"), "{err}");
}

/// A daemon and a `DirStore` in one process publish into one directory
/// through one temp-name sequence. Two sequences that both start at 0
/// hand out the same `.tmp-{pid}-{n}` name whenever they run in step;
/// the `stats` round trip before each save keeps them in step, so a
/// shared name would lose an entry or fail a rename here.
#[test]
fn dir_store_and_in_process_daemon_never_share_a_temp_name() {
    use eole_bench::{DirStore, ResultStore};
    use eole_core::stats::SimStats;
    use eole_store_service::{ClientConfig, StoreClient};

    const WRITES: u64 = 4_000;
    let dir = temp_dir("tmp-seq");
    let daemon = spawn_daemon(&dir);
    let addr = daemon.addr().to_string();
    let store = DirStore::open(&dir).unwrap();
    let base = RunKey::of(&small_grid().specs()[0]);
    std::thread::scope(|scope| {
        let saver = scope.spawn(|| {
            let pacer = StoreClient::connect(ClientConfig::new(addr.clone())).unwrap();
            for seed in 0..WRITES {
                pacer.stats().unwrap();
                let key = RunKey { seed, ..base.clone() };
                store.save(&key, &SimStats::default()).unwrap();
            }
        });
        let putter = scope.spawn(|| {
            let client = StoreClient::connect(ClientConfig::new(addr.clone())).unwrap();
            for n in 0..WRITES {
                client.put(&format!("tmp-seq-{n}"), b"{}\n".to_vec()).unwrap();
            }
        });
        saver.join().expect("every DirStore save succeeds");
        putter.join().expect("every daemon put succeeds");
    });
    let entries = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
        .count();
    assert_eq!(entries as u64, 2 * WRITES, "no write may be lost");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
