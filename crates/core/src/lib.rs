//! # eole-core
//!
//! The paper's primary contribution: a cycle-level model of the
//! {Early | Out-of-Order | Late} Execution microarchitecture (EOLE,
//! Perais & Seznec, ISCA 2014) together with its baselines.
//!
//! * [`config::CoreConfig`] — Table 1 presets (`Baseline_6_64`,
//!   `Baseline_VP_6_64`, `EOLE_4_64`, `OLE`/`EOE` variants, banked/port-
//!   limited PRFs).
//! * [`pipeline::Simulator`] — trace-driven superscalar pipeline with
//!   value prediction at fetch, Early Execution beside Rename, an OoO
//!   scheduler with store sets, and the Late Execution/Validation/Training
//!   stage before Commit.
//! * [`prf::Prf`] — banked physical register file with the §6.3
//!   round-robin allocation rule.
//! * [`complexity`] — §6's register-file port/area arithmetic.
//! * [`stats::SimStats`] — IPC, offload fractions (Figs. 2/4), VP
//!   coverage/accuracy, branch MPKI.
//! * [`canon`] — canonical configuration serialization and FNV-1a
//!   digests ([`CoreConfig::digest`](config::CoreConfig::digest)), plus
//!   [`canon::SIM_FINGERPRINT_VERSION`], the cycle-behavior version that
//!   keys every stored result.
//!
//! ## Example
//!
//! ```
//! use eole_core::config::CoreConfig;
//! use eole_core::pipeline::{PreparedTrace, Simulator};
//! use eole_isa::{generate_trace, IntReg, ProgramBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny strided loop: value prediction eats it for breakfast.
//! let mut b = ProgramBuilder::new();
//! let (i, n) = (IntReg::new(1), IntReg::new(2));
//! b.movi(i, 0);
//! b.movi(n, 500);
//! let top = b.label();
//! b.bind(top);
//! b.addi(i, i, 1);
//! b.bne(i, n, top);
//! b.halt();
//! let trace = PreparedTrace::new(generate_trace(&b.build()?, 10_000)?);
//!
//! let mut sim = Simulator::new(&trace, CoreConfig::eole_4_64())?;
//! sim.run(u64::MAX)?;
//! assert!(sim.finished());
//! assert!(sim.stats().ipc() > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod canon;
pub mod complexity;
pub mod config;
pub mod pipeline;
pub mod prf;
pub mod stats;

/// True when `EOLE_PARANOID` is set: the one switch for every
/// crash-on-divergence validation mode. The simulator single-steps each
/// idle cycle it would fast-forward over and panics if one acts, and
/// cross-checks the issue stage's waiter lists after every cycle; the
/// interval harness (`eole-bench`) re-checks restored checkpoints and
/// stitched runs against replays. Read once per process, so the hot path
/// stays allocation-free.
pub fn paranoid() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("EOLE_PARANOID").is_some())
}
