//! Deterministic fault injection — the bench-side face.
//!
//! The engine lives in [`eole_store_service::faults`] (the dependency
//! arrow points `eole-bench → eole-store-service`, and the daemon needs
//! the same hooks), so this module re-exports it wholesale: one
//! process-global plan covers every layer — `DirStore` IO, the
//! session's workers, the remote client's frames, and (in-process
//! servers) the daemon itself. See that module for the spec grammar and
//! the site catalog; EXPERIMENTS.md ("Fault injection") documents the
//! user-facing semantics.
//!
//! Install via `experiments --faults SPEC`, the `EOLE_FAULTS`
//! environment variable ([`install_from_env`]), or [`install_spec`]
//! programmatically. All hooks sit on cold paths (per-run, per-frame,
//! per-store-access); a run without an installed plan pays one relaxed
//! atomic load per hook, which the zero-alloc and throughput gates
//! never see.

pub use eole_store_service::faults::{
    active, current_summary, fire, fires_at, garble, install, install_from_env, install_guarded,
    install_spec, panic_if_fired, sleep_if_fired, Clause, FaultPlan, InstallGuard, Trigger,
    CLIENT_DELAY, CLIENT_RECV_CORRUPT, CLIENT_RECV_TRUNCATE, CLIENT_SEND_IO, DIR_LOAD_CORRUPT,
    DIR_SAVE_IO, KNOWN_SITES, REMOTE_PAYLOAD_CORRUPT, SERVER_LEASE_EXPIRE, SERVER_RECV_CORRUPT,
    SIM_DELAY, SIM_PANIC,
};
