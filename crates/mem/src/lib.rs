//! # eole-mem
//!
//! The memory system of the paper's Table 1, built from scratch:
//!
//! * [`cache::Cache`] — set-associative, LRU, write-back, with per-line
//!   fill timing so in-flight fills delay dependent hits;
//! * [`mshr::MshrFile`] — bounded outstanding misses with merge and
//!   full-file delay semantics;
//! * [`prefetch::StridePrefetcher`] — per-pc stride prefetcher
//!   (degree 8, distance 1) in front of the L2;
//! * [`dram::Dram`] — open-row DDR3-style latency model
//!   (75/130/185-cycle row hit/closed/conflict, per-bank serialization);
//! * [`hierarchy::MemoryHierarchy`] — L1I + L1D + unified L2 + DRAM glue
//!   with write-back victims and demand/prefetch interleaving;
//! * [`counters`] — the `counters!` declaration every statistics struct
//!   (`CacheStats` … `MemStats`, and the pipeline's `SimStats`) is written
//!   in: one field list yields the struct, its `merge` and a name/value
//!   visitor.
//!
//! ## Example
//!
//! ```
//! use eole_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
//!
//! let mut mem = MemoryHierarchy::new(&HierarchyConfig::paper());
//! let t1 = mem.load(0x400, 0x1000, 0); // cold miss: goes to DRAM
//! let t2 = mem.load(0x400, 0x1008, t1); // same line: L1 hit, +2 cycles
//! assert_eq!(t2, t1 + 2);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod counters;
pub mod dram;
pub mod hierarchy;
pub mod mshr;
pub mod prefetch;
