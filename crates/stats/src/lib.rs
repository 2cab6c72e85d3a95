//! # eole-stats
//!
//! Reporting utilities for the EOLE reproduction:
//!
//! * [`report::ExperimentReport`] — the typed result grid every experiment
//!   returns: named, unit-annotated columns and text/Markdown/JSON/CSV
//!   emitters (the JSON layout is documented in `EXPERIMENTS.md`).
//! * [`json::Json`] — a minimal JSON reader, the matching parser for the
//!   hand-rolled emitters (trend tooling reads back `results.json` and
//!   `BENCH_throughput.json` with it).
//! * [`summary`] — geometric-mean speedup aggregation and occupancy
//!   histograms.
//!
//! ## Example
//!
//! ```
//! use eole_stats::report::{Cell, ExperimentReport};
//! use eole_stats::summary::geometric_mean;
//!
//! let mut r = ExperimentReport::new("fig6", "Fig. 6 — VP speedup")
//!     .column("bench")
//!     .column_unit("speedup", "×");
//! r.add_row(vec!["wupwise".into(), Cell::Num(1.25)]);
//! assert!(r.render_markdown().contains("| wupwise | 1.250 |"));
//! assert!(r.to_json().contains("\"rows\":[[\"wupwise\",1.25]]"));
//! assert!((geometric_mean(&[1.2, 1.2]).unwrap() - 1.2).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod json;
pub mod report;
pub mod summary;
