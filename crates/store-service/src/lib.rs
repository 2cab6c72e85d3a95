//! # eole-store-service
//!
//! `eole-stored`: a long-running result-store daemon plus the wire
//! protocol and client it speaks — the fleet-scale face of the bench
//! harness's content-addressed result cache (`eole-bench`'s `DirStore`).
//!
//! The service is deliberately *generic*: it stores opaque payload bytes
//! under filesystem-safe string keys, in the directory layout of the
//! [`dir`] module, which `DirStore` uses too — a directory served by
//! `eole-stored` can be opened directly by `--store DIR` and vice versa.
//! Interpreting payloads (the `eole-result/v2` schema, key verification)
//! stays client-side in `eole-bench::RemoteStore`, so the daemon never
//! needs to understand simulator statistics and the dependency arrow
//! points one way: `eole-bench → eole-store-service → std`.
//!
//! Three things make the shared cache fleet-worthy (see `server`):
//!
//! * **Single-flight dedup** — a `Get` on a cold key grants the
//!   connection a *lease*; concurrent `Get`s for the same key wait for
//!   the lease holder's `Put` instead of simulating redundantly. Two
//!   clients racing on a cold key trigger exactly one simulation.
//! * **Eviction** — optional byte/entry budgets enforced by an
//!   LRU-by-access sweep that never evicts keys under an active lease or
//!   with waiters queued.
//! * **Robust clients** — [`client::StoreClient`] adds connect/read
//!   timeouts, bounded retry with exponential backoff, and typed
//!   [`StoreError`]s so callers can degrade gracefully (simulate without
//!   the cache) instead of panicking when the daemon disappears.

#![forbid(unsafe_code)]

pub mod client;
pub mod dir;
pub mod faults;
pub mod proto;
pub mod server;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Poisoning-proof mutex acquisition — the only sanctioned way to take a
/// lock in this crate and in `eole-bench` (`eole-lint`'s `lock-hygiene`
/// rule enforces it). A panic isolated to one connection or one run must
/// not wedge every later acquisition behind a `PoisonError`; the
/// protected state is always left consistent because every critical
/// section is short bookkeeping made of complete push, pop and assign
/// operations.
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use client::{ClientConfig, GetOutcome, StoreClient};
pub use faults::FaultPlan;
pub use proto::{ServiceStats, MAX_FRAME, PROTO_VERSION};
pub use server::{ServerConfig, ServerHandle, StoreServer};

/// Every way a store interaction can fail, as data. `eole-bench` surfaces
/// these through `RunError::Store`, so callers and tests match on the
/// failure *class* instead of grepping rendered strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Transport or filesystem failure (connection refused/reset, write
    /// error, rename failure).
    Io(String),
    /// A connect or read deadline passed.
    Timeout(String),
    /// The peer violated `eole-store/v2`: bad tag, truncated or oversized
    /// frame, version mismatch, trailing bytes, invalid key.
    Protocol(String),
    /// A stored payload exists but failed validation against its key
    /// (detected client-side; treated as a miss and overwritten).
    Corrupt(String),
    /// The payload cannot be admitted (or was dropped) under the store's
    /// configured budget.
    Evicted,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store i/o: {msg}"),
            StoreError::Timeout(msg) => write!(f, "store timeout: {msg}"),
            StoreError::Protocol(msg) => write!(f, "store protocol: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "store payload corrupt: {msg}"),
            StoreError::Evicted => write!(f, "store payload not admissible under the eviction budget"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_error_display_names_the_class() {
        assert!(StoreError::Io("x".into()).to_string().contains("i/o"));
        assert!(StoreError::Timeout("x".into()).to_string().contains("timeout"));
        assert!(StoreError::Protocol("x".into()).to_string().contains("protocol"));
        assert!(StoreError::Corrupt("x".into()).to_string().contains("corrupt"));
        assert!(StoreError::Evicted.to_string().contains("eviction budget"));
    }
}
