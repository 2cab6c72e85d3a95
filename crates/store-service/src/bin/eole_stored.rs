//! `eole-stored`: the networked result-store daemon.
//!
//! ```text
//! eole-stored --dir DIR [--addr HOST:PORT] [--max-bytes N] [--max-entries N]
//!             [--lease-ttl-secs N]
//! ```
//!
//! Serves the `eole-store/v2` protocol over `DIR` (the
//! `eole_store_service::dir` layout `experiments --store DIR` writes, so a warm
//! local store can be promoted to a shared one by pointing the daemon at
//! it). Clients connect via `experiments --store tcp://HOST:PORT`.
//!
//! Prints exactly one `listening on ADDR` line to stdout once bound (CI
//! and scripts wait on it; with `--addr ...:0` it carries the ephemeral
//! port), then serves until killed. Every state change is crash-safe
//! (temp + rename), so `kill -9` at any point leaves a valid store.

use eole_store_service::{faults, ServerConfig, StoreServer};

const USAGE: &str = "usage: eole-stored --dir DIR [--addr HOST:PORT] [--max-bytes N] \
[--max-entries N] [--lease-ttl-secs N] [--faults SPEC]
  --dir DIR           store directory (created if absent; DirStore-compatible layout)
  --addr HOST:PORT    listen address (default 127.0.0.1:7407; port 0 picks one)
  --max-bytes N       evict LRU entries once stored payload bytes exceed N
  --max-entries N     evict LRU entries once the entry count exceeds N
  --lease-ttl-secs N  single-flight lease backstop expiry (default 120)
  --faults SPEC       install a deterministic fault-injection plan (chaos
                      testing; also read from EOLE_FAULTS — see EXPERIMENTS.md)";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<String> = None;
    let mut addr = "127.0.0.1:7407".to_string();
    let mut max_bytes: Option<u64> = None;
    let mut max_entries: Option<usize> = None;
    let mut lease_ttl_secs = 120u64;
    let mut faults_spec: Option<String> = None;
    let take = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).unwrap_or_else(|| fail(&format!("{flag} needs a value"))).clone()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => dir = Some(take(&args, &mut i, "--dir")),
            "--addr" => addr = take(&args, &mut i, "--addr"),
            "--max-bytes" => {
                max_bytes = Some(
                    take(&args, &mut i, "--max-bytes")
                        .parse()
                        .unwrap_or_else(|_| fail("--max-bytes takes a number")),
                );
            }
            "--max-entries" => {
                max_entries = Some(
                    take(&args, &mut i, "--max-entries")
                        .parse()
                        .unwrap_or_else(|_| fail("--max-entries takes a number")),
                );
            }
            "--lease-ttl-secs" => {
                lease_ttl_secs = take(&args, &mut i, "--lease-ttl-secs")
                    .parse()
                    .unwrap_or_else(|_| fail("--lease-ttl-secs takes a number"));
            }
            "--faults" => faults_spec = Some(take(&args, &mut i, "--faults")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let Some(dir) = dir else { fail("--dir is required") };
    match faults_spec {
        Some(spec) => faults::install_spec(&spec).unwrap_or_else(|e| fail(&e)),
        None => {
            faults::install_from_env().unwrap_or_else(|e| fail(&e));
        }
    }
    if let Some(summary) = faults::current_summary() {
        eprintln!("[eole-stored: FAULT INJECTION ACTIVE — {summary}]");
    }
    let mut config = ServerConfig::new(&dir);
    config.max_bytes = max_bytes;
    config.max_entries = max_entries;
    config.lease_ttl = std::time::Duration::from_secs(lease_ttl_secs);
    let server = StoreServer::bind(&addr, config).unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!(
        "[eole-stored: dir {dir}, {} entries seeded, budgets {} bytes / {} entries, lease TTL {lease_ttl_secs}s]",
        server.entries(),
        max_bytes.map_or("unbounded".to_string(), |b| b.to_string()),
        max_entries.map_or("unbounded".to_string(), |n| n.to_string()),
    );
    use std::io::Write;
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    server.serve();
}
