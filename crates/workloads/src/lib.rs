//! # eole-workloads
//!
//! A 19-program synthetic benchmark suite mirroring the paper's Table 3
//! (12 INT + 7 FP, named after their SPEC CPU2000/2006 counterparts).
//! SPEC sources and reference inputs are not redistributable, so each
//! kernel reproduces the *behavioural profile* the paper reports for its
//! namesake; each kernel module documents its specific targets.
//!
//! ## Why synthetic kernels can stand in for SPEC
//!
//! The paper's results do not depend on what a program computes. They
//! depend on a few traits of its dynamic µ-op stream:
//! - how many results a value predictor can predict with confidence
//!   (strided, constant or history-correlated values);
//! - how predictable the branches are, which sets both the refill cost
//!   and which branches are very-high-confidence and can late-execute;
//! - how memory-bound it is (cache and DRAM misses hide or expose the
//!   gain from value prediction);
//! - its ILP, and the share of single-cycle ALU µ-ops that Early and Late
//!   Execution can take off the out-of-order engine.
//!
//! Each kernel is a small loop program, tuned so that these traits land
//! where the paper reports them for its namesake (for example, the
//! baseline IPC of Table 3). The suite therefore covers the same axes
//! that the paper's figures sweep. The absolute numbers are not SPEC's,
//! and a kernel is not a re-implementation of SPEC code. The claims the
//! simulator can check are the paper's relative ones: which
//! configuration wins, by roughly how much, and on which kind of program.
//!
//! ## Example
//!
//! ```
//! use eole_workloads::{all_workloads, workload_by_name};
//!
//! assert_eq!(all_workloads().len(), 19);
//! let namd = workload_by_name("namd").expect("namd exists");
//! let trace = namd.trace(10_000).expect("kernel runs");
//! assert!(trace.len() >= 9_999);
//! ```

#![forbid(unsafe_code)]

pub mod gen;
pub mod kernels;
mod registry;

pub use registry::{all_workloads, workload_by_name, Kind, Suite, Workload};
