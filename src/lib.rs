//! # eole — a full reproduction of *EOLE: Paving the Way for an Effective
//! Implementation of Value Prediction* (Perais & Seznec, ISCA 2014)
//!
//! This umbrella crate re-exports the whole stack:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`isa`] | 64-bit RISC-style µ-op ISA, assembler builder, functional machine, trace generation |
//! | [`predictors`] | VTAGE-2DStride hybrid value predictor + FPC confidence, TAGE + BTB + RAS, Store Sets |
//! | [`mem`] | L1I/L1D/L2 caches, MSHRs, stride prefetcher, DRAM model |
//! | [`core`] | the cycle-level EOLE pipeline (Early Execution, OoO engine, Late Execution/Validation/Training), banked PRF, §6 complexity model |
//! | [`workloads`] | 19 synthetic kernels mirroring the paper's Table 3 suite |
//! | [`stats`] | result tables and summary statistics |
//!
//! ## Quickstart
//!
//! ```no_run
//! use eole::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = workload_by_name("gzip").expect("known workload");
//! let trace = PreparedTrace::new(workload.trace(20_000)?);
//!
//! let mut baseline = Simulator::new(&trace, CoreConfig::baseline_vp_6_64())?;
//! baseline.run(u64::MAX)?;
//!
//! let mut eole = Simulator::new(&trace, CoreConfig::eole_4_64())?;
//! eole.run(u64::MAX)?;
//!
//! // A 4-issue EOLE core keeps up with the 6-issue VP baseline.
//! assert!(eole.stats().ipc() > 0.5 * baseline.stats().ipc());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use eole_core as core;
pub use eole_isa as isa;
pub use eole_mem as mem;
pub use eole_predictors as predictors;
pub use eole_stats as stats;
pub use eole_workloads as workloads;

/// The most common imports for driving the simulator.
pub mod prelude {
    pub use eole_core::complexity::{PortCount, PrfPortModel};
    pub use eole_core::config::{CoreConfig, EoleConfig, ValuePredictorKind, VpConfig};
    pub use eole_core::pipeline::{PreparedTrace, SimError, Simulator};
    pub use eole_core::stats::SimStats;
    pub use eole_isa::{
        generate_trace, FpReg, IntReg, Machine, Program, ProgramBuilder, Trace,
    };
    pub use eole_stats::report::{Cell, ColumnSpec, ExperimentReport};
    pub use eole_stats::summary::geometric_mean;
    pub use eole_workloads::{all_workloads, workload_by_name, Workload};
}
