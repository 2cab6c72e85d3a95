//! Golden cycle-exactness fingerprints.
//!
//! The hot-loop refactor (flat `SeqRing` windows, scratch buffers, wakeup
//! filtering, idle-cycle fast-forward — see `PERF.md`) is required to be
//! a *pure* optimization: for every preset configuration and workload the
//! simulator must reproduce, bit for bit, the `(cycles, committed,
//! squashed)` counters the pre-refactor `VecDeque` simulator produced.
//! The 209 paper-preset rows were captured at commit 581994e (PR 2) with
//! the `fingerprints` tool and pin that contract forever — the PR 5
//! block-based predictor refactor (BeBoP/D-VTAGE) reproduced all of them
//! bit-for-bit, and appended 38 rows for the two new D-VTAGE presets
//! (`Baseline_DVTAGE_6_64`, `EOLE_DVTAGE_4_64`). Any future change that
//! moves one of these numbers is a *model* change and must say so —
//! regenerate with `cargo run --release -p eole-bench --bin fingerprints`
//! and justify the diff in the PR.
//!
//! Methodology: warmup 2 000 + measure 5 000 µ-ops (matches
//! `GOLDEN_RUNNER` in the tool), every preset of
//! `CoreConfig::all_presets()` over every Table 3 workload.
//!
//! The presets only drive the hybrid and D-VTAGE, so a second table pins
//! the other five predictor kinds (LVP, Stride, 2D-Stride, FCM, VTAGE)
//! behind `Baseline_VP_6_64` and `EOLE_4_64` — including the stride
//! family's extrapolation over overlapping in-flight instances, which
//! only shows in the timing pipeline.

use std::collections::HashMap;

use eole_bench::Runner;
use eole_core::config::{CoreConfig, ValuePredictorKind};
use eole_core::pipeline::{PreparedTrace, Simulator};

const GOLDEN_RUNNER: Runner = Runner { warmup: 2_000, measure: 5_000 };

/// `(config, workload, cycles, committed, squashed)` — captured pre-refactor.
#[rustfmt::skip]
const FINGERPRINTS: [(&str, &str, u64, u64, u64); 247] = [
    ("Baseline_6_64", "gzip", 3009, 5001, 0),
    ("Baseline_VP_6_64", "gzip", 3012, 5001, 0),
    ("Baseline_VP_4_64", "gzip", 3235, 5001, 0),
    ("Baseline_VP_6_48", "gzip", 3012, 5001, 0),
    ("EOLE_6_64", "gzip", 2950, 5001, 0),
    ("EOLE_4_64", "gzip", 3159, 5001, 0),
    ("EOLE_6_48", "gzip", 2956, 5001, 0),
    ("EOLE_4_64_4banks", "gzip", 3159, 5001, 0),
    ("EOLE_4_64_4ports_4banks", "gzip", 3159, 5001, 0),
    ("OLE_4_64_4ports_4banks", "gzip", 3175, 5001, 0),
    ("EOE_4_64_4ports_4banks", "gzip", 3168, 5001, 0),
    ("Baseline_DVTAGE_6_64", "gzip", 3016, 5001, 0),
    ("EOLE_DVTAGE_4_64", "gzip", 3159, 5001, 0),
    ("Baseline_6_64", "wupwise", 3074, 5003, 0),
    ("Baseline_VP_6_64", "wupwise", 3059, 5003, 0),
    ("Baseline_VP_4_64", "wupwise", 3072, 5003, 0),
    ("Baseline_VP_6_48", "wupwise", 3070, 5003, 0),
    ("EOLE_6_64", "wupwise", 3075, 5003, 0),
    ("EOLE_4_64", "wupwise", 3071, 5003, 0),
    ("EOLE_6_48", "wupwise", 3074, 5003, 0),
    ("EOLE_4_64_4banks", "wupwise", 3071, 5003, 0),
    ("EOLE_4_64_4ports_4banks", "wupwise", 3071, 5002, 0),
    ("OLE_4_64_4ports_4banks", "wupwise", 3071, 5002, 0),
    ("EOE_4_64_4ports_4banks", "wupwise", 3072, 5003, 0),
    ("Baseline_DVTAGE_6_64", "wupwise", 3063, 5003, 0),
    ("EOLE_DVTAGE_4_64", "wupwise", 3055, 5003, 0),
    ("Baseline_6_64", "applu", 2926, 5000, 0),
    ("Baseline_VP_6_64", "applu", 2950, 5000, 0),
    ("Baseline_VP_4_64", "applu", 2926, 5000, 0),
    ("Baseline_VP_6_48", "applu", 2926, 5000, 0),
    ("EOLE_6_64", "applu", 2950, 5000, 0),
    ("EOLE_4_64", "applu", 2926, 5000, 0),
    ("EOLE_6_48", "applu", 2926, 5000, 0),
    ("EOLE_4_64_4banks", "applu", 2926, 5000, 0),
    ("EOLE_4_64_4ports_4banks", "applu", 2926, 5000, 0),
    ("OLE_4_64_4ports_4banks", "applu", 2926, 5000, 0),
    ("EOE_4_64_4ports_4banks", "applu", 2926, 5000, 0),
    ("Baseline_DVTAGE_6_64", "applu", 2950, 5000, 0),
    ("EOLE_DVTAGE_4_64", "applu", 2926, 5000, 0),
    ("Baseline_6_64", "vpr", 15774, 5001, 0),
    ("Baseline_VP_6_64", "vpr", 15774, 5001, 0),
    ("Baseline_VP_4_64", "vpr", 15775, 5001, 0),
    ("Baseline_VP_6_48", "vpr", 15774, 5001, 0),
    ("EOLE_6_64", "vpr", 15747, 5001, 0),
    ("EOLE_4_64", "vpr", 15775, 5001, 0),
    ("EOLE_6_48", "vpr", 15747, 5001, 0),
    ("EOLE_4_64_4banks", "vpr", 15775, 5001, 0),
    ("EOLE_4_64_4ports_4banks", "vpr", 15775, 5001, 0),
    ("OLE_4_64_4ports_4banks", "vpr", 15775, 5001, 0),
    ("EOE_4_64_4ports_4banks", "vpr", 15775, 5001, 0),
    ("Baseline_DVTAGE_6_64", "vpr", 15774, 5001, 0),
    ("EOLE_DVTAGE_4_64", "vpr", 15775, 5001, 0),
    ("Baseline_6_64", "art", 10343, 5000, 0),
    ("Baseline_VP_6_64", "art", 10351, 5000, 890),
    ("Baseline_VP_4_64", "art", 10351, 5000, 881),
    ("Baseline_VP_6_48", "art", 10351, 5000, 890),
    ("EOLE_6_64", "art", 10351, 5000, 612),
    ("EOLE_4_64", "art", 10351, 5000, 612),
    ("EOLE_6_48", "art", 10351, 5000, 612),
    ("EOLE_4_64_4banks", "art", 10351, 5000, 612),
    ("EOLE_4_64_4ports_4banks", "art", 10351, 5000, 612),
    ("OLE_4_64_4ports_4banks", "art", 10351, 5000, 612),
    ("EOE_4_64_4ports_4banks", "art", 10351, 5000, 890),
    ("Baseline_DVTAGE_6_64", "art", 10343, 5000, 0),
    ("EOLE_DVTAGE_4_64", "art", 10343, 5000, 0),
    ("Baseline_6_64", "crafty", 1114, 5004, 0),
    ("Baseline_VP_6_64", "crafty", 1114, 5004, 0),
    ("Baseline_VP_4_64", "crafty", 1445, 5004, 0),
    ("Baseline_VP_6_48", "crafty", 1115, 5004, 0),
    ("EOLE_6_64", "crafty", 1126, 5004, 0),
    ("EOLE_4_64", "crafty", 1255, 5004, 0),
    ("EOLE_6_48", "crafty", 1124, 5004, 0),
    ("EOLE_4_64_4banks", "crafty", 1255, 5004, 0),
    ("EOLE_4_64_4ports_4banks", "crafty", 1255, 5004, 0),
    ("OLE_4_64_4ports_4banks", "crafty", 1372, 5004, 0),
    ("EOE_4_64_4ports_4banks", "crafty", 1252, 5004, 0),
    ("Baseline_DVTAGE_6_64", "crafty", 1114, 5004, 0),
    ("EOLE_DVTAGE_4_64", "crafty", 1255, 5004, 0),
    ("Baseline_6_64", "parser", 91404, 5004, 0),
    ("Baseline_VP_6_64", "parser", 91404, 5004, 0),
    ("Baseline_VP_4_64", "parser", 91474, 5004, 0),
    ("Baseline_VP_6_48", "parser", 91404, 5004, 0),
    ("EOLE_6_64", "parser", 91404, 5004, 0),
    ("EOLE_4_64", "parser", 91404, 5004, 0),
    ("EOLE_6_48", "parser", 91404, 5004, 0),
    ("EOLE_4_64_4banks", "parser", 91404, 5004, 0),
    ("EOLE_4_64_4ports_4banks", "parser", 91404, 5004, 0),
    ("OLE_4_64_4ports_4banks", "parser", 91404, 5004, 0),
    ("EOE_4_64_4ports_4banks", "parser", 91404, 5004, 0),
    ("Baseline_DVTAGE_6_64", "parser", 91404, 5004, 0),
    ("EOLE_DVTAGE_4_64", "parser", 91404, 5004, 0),
    ("Baseline_6_64", "vortex", 11773, 5000, 0),
    ("Baseline_VP_6_64", "vortex", 11773, 5000, 0),
    ("Baseline_VP_4_64", "vortex", 11773, 5000, 0),
    ("Baseline_VP_6_48", "vortex", 11773, 5000, 0),
    ("EOLE_6_64", "vortex", 11773, 5000, 0),
    ("EOLE_4_64", "vortex", 11773, 5000, 0),
    ("EOLE_6_48", "vortex", 11773, 5000, 0),
    ("EOLE_4_64_4banks", "vortex", 11773, 5000, 0),
    ("EOLE_4_64_4ports_4banks", "vortex", 11773, 5000, 0),
    ("OLE_4_64_4ports_4banks", "vortex", 11773, 5000, 0),
    ("EOE_4_64_4ports_4banks", "vortex", 11773, 5000, 0),
    ("Baseline_DVTAGE_6_64", "vortex", 11773, 5000, 0),
    ("EOLE_DVTAGE_4_64", "vortex", 11773, 5000, 0),
    ("Baseline_6_64", "bzip2", 14432, 5000, 0),
    ("Baseline_VP_6_64", "bzip2", 14449, 5005, 0),
    ("Baseline_VP_4_64", "bzip2", 14449, 5005, 0),
    ("Baseline_VP_6_48", "bzip2", 14449, 5005, 0),
    ("EOLE_6_64", "bzip2", 14449, 5005, 0),
    ("EOLE_4_64", "bzip2", 14449, 5005, 0),
    ("EOLE_6_48", "bzip2", 14449, 5005, 0),
    ("EOLE_4_64_4banks", "bzip2", 14449, 5005, 0),
    ("EOLE_4_64_4ports_4banks", "bzip2", 14449, 5005, 0),
    ("OLE_4_64_4ports_4banks", "bzip2", 14449, 5005, 0),
    ("EOE_4_64_4ports_4banks", "bzip2", 14449, 5005, 0),
    ("Baseline_DVTAGE_6_64", "bzip2", 14432, 5000, 0),
    ("EOLE_DVTAGE_4_64", "bzip2", 14432, 5000, 0),
    ("Baseline_6_64", "gcc", 5174, 5003, 0),
    ("Baseline_VP_6_64", "gcc", 5126, 5003, 0),
    ("Baseline_VP_4_64", "gcc", 5139, 5003, 0),
    ("Baseline_VP_6_48", "gcc", 5129, 5003, 0),
    ("EOLE_6_64", "gcc", 5126, 5003, 0),
    ("EOLE_4_64", "gcc", 5126, 5003, 0),
    ("EOLE_6_48", "gcc", 5128, 5003, 0),
    ("EOLE_4_64_4banks", "gcc", 5126, 5003, 0),
    ("EOLE_4_64_4ports_4banks", "gcc", 5126, 5003, 0),
    ("OLE_4_64_4ports_4banks", "gcc", 5126, 5003, 0),
    ("EOE_4_64_4ports_4banks", "gcc", 5129, 5003, 0),
    ("Baseline_DVTAGE_6_64", "gcc", 5174, 5003, 0),
    ("EOLE_DVTAGE_4_64", "gcc", 5195, 5003, 0),
    ("Baseline_6_64", "gamess", 4943, 5000, 0),
    ("Baseline_VP_6_64", "gamess", 4943, 5000, 0),
    ("Baseline_VP_4_64", "gamess", 4943, 5000, 0),
    ("Baseline_VP_6_48", "gamess", 4943, 5000, 0),
    ("EOLE_6_64", "gamess", 4943, 5000, 0),
    ("EOLE_4_64", "gamess", 4943, 5000, 0),
    ("EOLE_6_48", "gamess", 4943, 5000, 0),
    ("EOLE_4_64_4banks", "gamess", 4943, 5000, 0),
    ("EOLE_4_64_4ports_4banks", "gamess", 4943, 5000, 0),
    ("OLE_4_64_4ports_4banks", "gamess", 4943, 5000, 0),
    ("EOE_4_64_4ports_4banks", "gamess", 4943, 5000, 0),
    ("Baseline_DVTAGE_6_64", "gamess", 4943, 5000, 0),
    ("EOLE_DVTAGE_4_64", "gamess", 4943, 5000, 0),
    ("Baseline_6_64", "mcf", 99083, 5000, 0),
    ("Baseline_VP_6_64", "mcf", 99082, 5000, 0),
    ("Baseline_VP_4_64", "mcf", 99082, 5000, 0),
    ("Baseline_VP_6_48", "mcf", 99082, 5000, 0),
    ("EOLE_6_64", "mcf", 99083, 5000, 0),
    ("EOLE_4_64", "mcf", 99083, 5000, 0),
    ("EOLE_6_48", "mcf", 99083, 5000, 0),
    ("EOLE_4_64_4banks", "mcf", 99083, 5000, 0),
    ("EOLE_4_64_4ports_4banks", "mcf", 99083, 5000, 0),
    ("OLE_4_64_4ports_4banks", "mcf", 99083, 5000, 0),
    ("EOE_4_64_4ports_4banks", "mcf", 99082, 5000, 0),
    ("Baseline_DVTAGE_6_64", "mcf", 99083, 5000, 0),
    ("EOLE_DVTAGE_4_64", "mcf", 99083, 5005, 250),
    ("Baseline_6_64", "milc", 12198, 5000, 0),
    ("Baseline_VP_6_64", "milc", 12198, 5000, 0),
    ("Baseline_VP_4_64", "milc", 12198, 5000, 0),
    ("Baseline_VP_6_48", "milc", 12202, 5000, 0),
    ("EOLE_6_64", "milc", 12198, 5000, 0),
    ("EOLE_4_64", "milc", 12198, 5000, 0),
    ("EOLE_6_48", "milc", 12202, 5000, 0),
    ("EOLE_4_64_4banks", "milc", 12198, 5000, 0),
    ("EOLE_4_64_4ports_4banks", "milc", 12198, 5000, 0),
    ("OLE_4_64_4ports_4banks", "milc", 12198, 5000, 0),
    ("EOE_4_64_4ports_4banks", "milc", 12198, 5000, 0),
    ("Baseline_DVTAGE_6_64", "milc", 12198, 5000, 0),
    ("EOLE_DVTAGE_4_64", "milc", 12198, 5000, 0),
    ("Baseline_6_64", "namd", 9198, 5003, 0),
    ("Baseline_VP_6_64", "namd", 9048, 5003, 0),
    ("Baseline_VP_4_64", "namd", 9050, 5003, 0),
    ("Baseline_VP_6_48", "namd", 9048, 5003, 0),
    ("EOLE_6_64", "namd", 9048, 5003, 0),
    ("EOLE_4_64", "namd", 9009, 5003, 0),
    ("EOLE_6_48", "namd", 9048, 5003, 0),
    ("EOLE_4_64_4banks", "namd", 9009, 5003, 0),
    ("EOLE_4_64_4ports_4banks", "namd", 9009, 5002, 0),
    ("OLE_4_64_4ports_4banks", "namd", 9050, 5002, 0),
    ("EOE_4_64_4ports_4banks", "namd", 9049, 5003, 0),
    ("Baseline_DVTAGE_6_64", "namd", 9200, 5003, 0),
    ("EOLE_DVTAGE_4_64", "namd", 9125, 5003, 0),
    ("Baseline_6_64", "gobmk", 40157, 5001, 0),
    ("Baseline_VP_6_64", "gobmk", 40157, 5001, 0),
    ("Baseline_VP_4_64", "gobmk", 40166, 5001, 0),
    ("Baseline_VP_6_48", "gobmk", 40157, 5001, 0),
    ("EOLE_6_64", "gobmk", 40157, 5001, 0),
    ("EOLE_4_64", "gobmk", 40157, 5001, 0),
    ("EOLE_6_48", "gobmk", 40157, 5001, 0),
    ("EOLE_4_64_4banks", "gobmk", 40157, 5001, 0),
    ("EOLE_4_64_4ports_4banks", "gobmk", 40157, 5001, 0),
    ("OLE_4_64_4ports_4banks", "gobmk", 40166, 5001, 0),
    ("EOE_4_64_4ports_4banks", "gobmk", 40157, 5001, 0),
    ("Baseline_DVTAGE_6_64", "gobmk", 40175, 5001, 19),
    ("EOLE_DVTAGE_4_64", "gobmk", 40175, 5001, 19),
    ("Baseline_6_64", "hmmer", 3750, 5000, 0),
    ("Baseline_VP_6_64", "hmmer", 3750, 5000, 0),
    ("Baseline_VP_4_64", "hmmer", 3750, 5000, 0),
    ("Baseline_VP_6_48", "hmmer", 3762, 5000, 0),
    ("EOLE_6_64", "hmmer", 3750, 5000, 0),
    ("EOLE_4_64", "hmmer", 3750, 5000, 0),
    ("EOLE_6_48", "hmmer", 3762, 5000, 0),
    ("EOLE_4_64_4banks", "hmmer", 3750, 5000, 0),
    ("EOLE_4_64_4ports_4banks", "hmmer", 3750, 5000, 0),
    ("OLE_4_64_4ports_4banks", "hmmer", 3750, 5000, 0),
    ("EOE_4_64_4ports_4banks", "hmmer", 3750, 5000, 0),
    ("Baseline_DVTAGE_6_64", "hmmer", 3750, 5000, 0),
    ("EOLE_DVTAGE_4_64", "hmmer", 3750, 5000, 0),
    ("Baseline_6_64", "sjeng", 18582, 5005, 0),
    ("Baseline_VP_6_64", "sjeng", 18582, 5005, 0),
    ("Baseline_VP_4_64", "sjeng", 18650, 5004, 0),
    ("Baseline_VP_6_48", "sjeng", 18582, 5005, 0),
    ("EOLE_6_64", "sjeng", 18578, 5004, 0),
    ("EOLE_4_64", "sjeng", 18602, 5004, 0),
    ("EOLE_6_48", "sjeng", 18578, 5004, 0),
    ("EOLE_4_64_4banks", "sjeng", 18602, 5004, 0),
    ("EOLE_4_64_4ports_4banks", "sjeng", 18602, 5004, 0),
    ("OLE_4_64_4ports_4banks", "sjeng", 18646, 5003, 0),
    ("EOE_4_64_4ports_4banks", "sjeng", 18644, 5002, 0),
    ("Baseline_DVTAGE_6_64", "sjeng", 18582, 5005, 0),
    ("EOLE_DVTAGE_4_64", "sjeng", 18643, 5003, 0),
    ("Baseline_6_64", "h264", 2512, 5005, 0),
    ("Baseline_VP_6_64", "h264", 2520, 5005, 0),
    ("Baseline_VP_4_64", "h264", 2804, 5003, 0),
    ("Baseline_VP_6_48", "h264", 2619, 5005, 0),
    ("EOLE_6_64", "h264", 2516, 5005, 0),
    ("EOLE_4_64", "h264", 2773, 5003, 0),
    ("EOLE_6_48", "h264", 2615, 5005, 0),
    ("EOLE_4_64_4banks", "h264", 2773, 5003, 0),
    ("EOLE_4_64_4ports_4banks", "h264", 2773, 5003, 0),
    ("OLE_4_64_4ports_4banks", "h264", 2804, 5003, 0),
    ("EOE_4_64_4ports_4banks", "h264", 2773, 5003, 0),
    ("Baseline_DVTAGE_6_64", "h264", 2520, 5005, 0),
    ("EOLE_DVTAGE_4_64", "h264", 2773, 5003, 0),
    ("Baseline_6_64", "lbm", 24376, 5002, 0),
    ("Baseline_VP_6_64", "lbm", 24057, 5002, 0),
    ("Baseline_VP_4_64", "lbm", 24057, 5002, 0),
    ("Baseline_VP_6_48", "lbm", 24005, 5002, 0),
    ("EOLE_6_64", "lbm", 24057, 5002, 0),
    ("EOLE_4_64", "lbm", 24057, 5002, 0),
    ("EOLE_6_48", "lbm", 24005, 5002, 0),
    ("EOLE_4_64_4banks", "lbm", 24057, 5002, 0),
    ("EOLE_4_64_4ports_4banks", "lbm", 24057, 5002, 0),
    ("OLE_4_64_4ports_4banks", "lbm", 24057, 5002, 0),
    ("EOE_4_64_4ports_4banks", "lbm", 24057, 5002, 0),
    ("Baseline_DVTAGE_6_64", "lbm", 24057, 5002, 0),
    ("EOLE_DVTAGE_4_64", "lbm", 24057, 5002, 0),
];

/// The predictor kinds no preset uses (matches `KINDS` in the tool).
const KINDS: [ValuePredictorKind; 5] = [
    ValuePredictorKind::LastValue,
    ValuePredictorKind::Stride,
    ValuePredictorKind::TwoDeltaStride,
    ValuePredictorKind::Fcm,
    ValuePredictorKind::Vtage,
];

/// `(preset, kind, workload, cycles, committed, squashed)` — the VP
/// presets with their predictor swapped for each of [`KINDS`].
#[rustfmt::skip]
const KIND_FINGERPRINTS: [(&str, &str, &str, u64, u64, u64); 190] = [
    ("Baseline_VP_6_64", "LastValue", "gzip", 3012, 5001, 0),
    ("Baseline_VP_6_64", "Stride", "gzip", 3012, 5001, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "gzip", 3015, 5001, 0),
    ("Baseline_VP_6_64", "Fcm", "gzip", 3012, 5001, 0),
    ("Baseline_VP_6_64", "Vtage", "gzip", 3012, 5001, 0),
    ("EOLE_4_64", "LastValue", "gzip", 3159, 5001, 0),
    ("EOLE_4_64", "Stride", "gzip", 3159, 5001, 0),
    ("EOLE_4_64", "TwoDeltaStride", "gzip", 3156, 5001, 0),
    ("EOLE_4_64", "Fcm", "gzip", 3159, 5001, 0),
    ("EOLE_4_64", "Vtage", "gzip", 3159, 5001, 0),
    ("Baseline_VP_6_64", "LastValue", "wupwise", 3063, 5003, 0),
    ("Baseline_VP_6_64", "Stride", "wupwise", 3059, 5003, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "wupwise", 3059, 5003, 0),
    ("Baseline_VP_6_64", "Fcm", "wupwise", 3063, 5003, 0),
    ("Baseline_VP_6_64", "Vtage", "wupwise", 3063, 5003, 0),
    ("EOLE_4_64", "LastValue", "wupwise", 3055, 5003, 0),
    ("EOLE_4_64", "Stride", "wupwise", 3059, 5003, 0),
    ("EOLE_4_64", "TwoDeltaStride", "wupwise", 3203, 5000, 0),
    ("EOLE_4_64", "Fcm", "wupwise", 3055, 5003, 0),
    ("EOLE_4_64", "Vtage", "wupwise", 3055, 5003, 0),
    ("Baseline_VP_6_64", "LastValue", "applu", 2950, 5000, 0),
    ("Baseline_VP_6_64", "Stride", "applu", 2950, 5000, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "applu", 2950, 5000, 0),
    ("Baseline_VP_6_64", "Fcm", "applu", 2950, 5000, 0),
    ("Baseline_VP_6_64", "Vtage", "applu", 2950, 5000, 0),
    ("EOLE_4_64", "LastValue", "applu", 2926, 5000, 0),
    ("EOLE_4_64", "Stride", "applu", 2926, 5000, 0),
    ("EOLE_4_64", "TwoDeltaStride", "applu", 2926, 5000, 0),
    ("EOLE_4_64", "Fcm", "applu", 2926, 5000, 0),
    ("EOLE_4_64", "Vtage", "applu", 2926, 5000, 0),
    ("Baseline_VP_6_64", "LastValue", "vpr", 15774, 5001, 0),
    ("Baseline_VP_6_64", "Stride", "vpr", 15774, 5001, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "vpr", 15774, 5001, 0),
    ("Baseline_VP_6_64", "Fcm", "vpr", 15774, 5001, 0),
    ("Baseline_VP_6_64", "Vtage", "vpr", 15774, 5001, 0),
    ("EOLE_4_64", "LastValue", "vpr", 15775, 5001, 0),
    ("EOLE_4_64", "Stride", "vpr", 15775, 5001, 0),
    ("EOLE_4_64", "TwoDeltaStride", "vpr", 15775, 5001, 0),
    ("EOLE_4_64", "Fcm", "vpr", 15775, 5001, 0),
    ("EOLE_4_64", "Vtage", "vpr", 15775, 5001, 0),
    ("Baseline_VP_6_64", "LastValue", "art", 10343, 5000, 0),
    ("Baseline_VP_6_64", "Stride", "art", 10343, 5000, 881),
    ("Baseline_VP_6_64", "TwoDeltaStride", "art", 10343, 5000, 881),
    ("Baseline_VP_6_64", "Fcm", "art", 10343, 5000, 0),
    ("Baseline_VP_6_64", "Vtage", "art", 10343, 5000, 0),
    ("EOLE_4_64", "LastValue", "art", 10343, 5000, 0),
    ("EOLE_4_64", "Stride", "art", 10343, 5000, 516),
    ("EOLE_4_64", "TwoDeltaStride", "art", 10343, 5000, 516),
    ("EOLE_4_64", "Fcm", "art", 10343, 5000, 0),
    ("EOLE_4_64", "Vtage", "art", 10343, 5000, 0),
    ("Baseline_VP_6_64", "LastValue", "crafty", 1114, 5004, 0),
    ("Baseline_VP_6_64", "Stride", "crafty", 1114, 5004, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "crafty", 1114, 5004, 0),
    ("Baseline_VP_6_64", "Fcm", "crafty", 1114, 5004, 0),
    ("Baseline_VP_6_64", "Vtage", "crafty", 1114, 5004, 0),
    ("EOLE_4_64", "LastValue", "crafty", 1255, 5004, 0),
    ("EOLE_4_64", "Stride", "crafty", 1188, 5004, 0),
    ("EOLE_4_64", "TwoDeltaStride", "crafty", 1211, 5004, 0),
    ("EOLE_4_64", "Fcm", "crafty", 1255, 5004, 0),
    ("EOLE_4_64", "Vtage", "crafty", 1255, 5004, 0),
    ("Baseline_VP_6_64", "LastValue", "parser", 91404, 5004, 0),
    ("Baseline_VP_6_64", "Stride", "parser", 91404, 5004, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "parser", 91404, 5004, 0),
    ("Baseline_VP_6_64", "Fcm", "parser", 91404, 5004, 0),
    ("Baseline_VP_6_64", "Vtage", "parser", 91404, 5004, 0),
    ("EOLE_4_64", "LastValue", "parser", 91404, 5004, 0),
    ("EOLE_4_64", "Stride", "parser", 91404, 5004, 0),
    ("EOLE_4_64", "TwoDeltaStride", "parser", 91404, 5004, 0),
    ("EOLE_4_64", "Fcm", "parser", 91404, 5004, 0),
    ("EOLE_4_64", "Vtage", "parser", 91404, 5004, 0),
    ("Baseline_VP_6_64", "LastValue", "vortex", 11773, 5000, 0),
    ("Baseline_VP_6_64", "Stride", "vortex", 11773, 5000, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "vortex", 11773, 5000, 0),
    ("Baseline_VP_6_64", "Fcm", "vortex", 11773, 5000, 0),
    ("Baseline_VP_6_64", "Vtage", "vortex", 11773, 5000, 0),
    ("EOLE_4_64", "LastValue", "vortex", 11773, 5000, 0),
    ("EOLE_4_64", "Stride", "vortex", 11773, 5000, 0),
    ("EOLE_4_64", "TwoDeltaStride", "vortex", 11773, 5000, 0),
    ("EOLE_4_64", "Fcm", "vortex", 11773, 5000, 0),
    ("EOLE_4_64", "Vtage", "vortex", 11773, 5000, 0),
    ("Baseline_VP_6_64", "LastValue", "bzip2", 14436, 5007, 0),
    ("Baseline_VP_6_64", "Stride", "bzip2", 14440, 5007, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "bzip2", 14449, 5005, 0),
    ("Baseline_VP_6_64", "Fcm", "bzip2", 14432, 5000, 251),
    ("Baseline_VP_6_64", "Vtage", "bzip2", 14440, 5007, 0),
    ("EOLE_4_64", "LastValue", "bzip2", 14436, 5007, 0),
    ("EOLE_4_64", "Stride", "bzip2", 14440, 5007, 0),
    ("EOLE_4_64", "TwoDeltaStride", "bzip2", 14449, 5005, 0),
    ("EOLE_4_64", "Fcm", "bzip2", 14432, 5000, 251),
    ("EOLE_4_64", "Vtage", "bzip2", 14440, 5007, 0),
    ("Baseline_VP_6_64", "LastValue", "gcc", 5174, 5003, 0),
    ("Baseline_VP_6_64", "Stride", "gcc", 5142, 5003, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "gcc", 5133, 5003, 0),
    ("Baseline_VP_6_64", "Fcm", "gcc", 5174, 5003, 0),
    ("Baseline_VP_6_64", "Vtage", "gcc", 5174, 5003, 0),
    ("EOLE_4_64", "LastValue", "gcc", 5195, 5003, 0),
    ("EOLE_4_64", "Stride", "gcc", 5145, 5003, 0),
    ("EOLE_4_64", "TwoDeltaStride", "gcc", 5135, 5003, 0),
    ("EOLE_4_64", "Fcm", "gcc", 5195, 5003, 0),
    ("EOLE_4_64", "Vtage", "gcc", 5195, 5003, 0),
    ("Baseline_VP_6_64", "LastValue", "gamess", 4943, 5000, 0),
    ("Baseline_VP_6_64", "Stride", "gamess", 4943, 5000, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "gamess", 4943, 5000, 0),
    ("Baseline_VP_6_64", "Fcm", "gamess", 4943, 5000, 0),
    ("Baseline_VP_6_64", "Vtage", "gamess", 4943, 5000, 0),
    ("EOLE_4_64", "LastValue", "gamess", 4943, 5000, 0),
    ("EOLE_4_64", "Stride", "gamess", 4951, 5000, 0),
    ("EOLE_4_64", "TwoDeltaStride", "gamess", 4951, 5000, 0),
    ("EOLE_4_64", "Fcm", "gamess", 4943, 5000, 0),
    ("EOLE_4_64", "Vtage", "gamess", 4943, 5000, 0),
    ("Baseline_VP_6_64", "LastValue", "mcf", 99082, 5006, 0),
    ("Baseline_VP_6_64", "Stride", "mcf", 99082, 5006, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "mcf", 99082, 5006, 0),
    ("Baseline_VP_6_64", "Fcm", "mcf", 99082, 5006, 0),
    ("Baseline_VP_6_64", "Vtage", "mcf", 99082, 5006, 0),
    ("EOLE_4_64", "LastValue", "mcf", 99081, 5005, 0),
    ("EOLE_4_64", "Stride", "mcf", 99081, 5005, 0),
    ("EOLE_4_64", "TwoDeltaStride", "mcf", 99081, 5005, 0),
    ("EOLE_4_64", "Fcm", "mcf", 99081, 5005, 0),
    ("EOLE_4_64", "Vtage", "mcf", 99081, 5005, 0),
    ("Baseline_VP_6_64", "LastValue", "milc", 12198, 5000, 0),
    ("Baseline_VP_6_64", "Stride", "milc", 12198, 5000, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "milc", 12198, 5000, 0),
    ("Baseline_VP_6_64", "Fcm", "milc", 12198, 5000, 0),
    ("Baseline_VP_6_64", "Vtage", "milc", 12198, 5000, 0),
    ("EOLE_4_64", "LastValue", "milc", 12198, 5000, 0),
    ("EOLE_4_64", "Stride", "milc", 12198, 5000, 0),
    ("EOLE_4_64", "TwoDeltaStride", "milc", 12198, 5000, 0),
    ("EOLE_4_64", "Fcm", "milc", 12198, 5000, 0),
    ("EOLE_4_64", "Vtage", "milc", 12198, 5000, 0),
    ("Baseline_VP_6_64", "LastValue", "namd", 9200, 5003, 0),
    ("Baseline_VP_6_64", "Stride", "namd", 9000, 5003, 343),
    ("Baseline_VP_6_64", "TwoDeltaStride", "namd", 9049, 5003, 0),
    ("Baseline_VP_6_64", "Fcm", "namd", 9200, 5003, 0),
    ("Baseline_VP_6_64", "Vtage", "namd", 9200, 5003, 0),
    ("EOLE_4_64", "LastValue", "namd", 9125, 5003, 0),
    ("EOLE_4_64", "Stride", "namd", 9000, 5003, 343),
    ("EOLE_4_64", "TwoDeltaStride", "namd", 9049, 5003, 0),
    ("EOLE_4_64", "Fcm", "namd", 9125, 5003, 0),
    ("EOLE_4_64", "Vtage", "namd", 9125, 5003, 0),
    ("Baseline_VP_6_64", "LastValue", "gobmk", 40157, 5001, 0),
    ("Baseline_VP_6_64", "Stride", "gobmk", 40157, 5001, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "gobmk", 40157, 5001, 0),
    ("Baseline_VP_6_64", "Fcm", "gobmk", 40157, 5001, 0),
    ("Baseline_VP_6_64", "Vtage", "gobmk", 40157, 5001, 0),
    ("EOLE_4_64", "LastValue", "gobmk", 40157, 5001, 0),
    ("EOLE_4_64", "Stride", "gobmk", 40157, 5001, 0),
    ("EOLE_4_64", "TwoDeltaStride", "gobmk", 40157, 5001, 0),
    ("EOLE_4_64", "Fcm", "gobmk", 40157, 5001, 0),
    ("EOLE_4_64", "Vtage", "gobmk", 40157, 5001, 0),
    ("Baseline_VP_6_64", "LastValue", "hmmer", 3744, 5000, 0),
    ("Baseline_VP_6_64", "Stride", "hmmer", 3745, 5000, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "hmmer", 3750, 5000, 0),
    ("Baseline_VP_6_64", "Fcm", "hmmer", 3750, 5000, 0),
    ("Baseline_VP_6_64", "Vtage", "hmmer", 3750, 5000, 0),
    ("EOLE_4_64", "LastValue", "hmmer", 3744, 5000, 0),
    ("EOLE_4_64", "Stride", "hmmer", 3745, 5000, 0),
    ("EOLE_4_64", "TwoDeltaStride", "hmmer", 3750, 5000, 0),
    ("EOLE_4_64", "Fcm", "hmmer", 3750, 5000, 0),
    ("EOLE_4_64", "Vtage", "hmmer", 3750, 5000, 0),
    ("Baseline_VP_6_64", "LastValue", "sjeng", 18582, 5005, 0),
    ("Baseline_VP_6_64", "Stride", "sjeng", 18582, 5005, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "sjeng", 18582, 5005, 0),
    ("Baseline_VP_6_64", "Fcm", "sjeng", 18582, 5005, 0),
    ("Baseline_VP_6_64", "Vtage", "sjeng", 18582, 5005, 0),
    ("EOLE_4_64", "LastValue", "sjeng", 18643, 5003, 0),
    ("EOLE_4_64", "Stride", "sjeng", 18599, 5004, 0),
    ("EOLE_4_64", "TwoDeltaStride", "sjeng", 18635, 5004, 0),
    ("EOLE_4_64", "Fcm", "sjeng", 18643, 5003, 0),
    ("EOLE_4_64", "Vtage", "sjeng", 18643, 5003, 0),
    ("Baseline_VP_6_64", "LastValue", "h264", 2520, 5005, 0),
    ("Baseline_VP_6_64", "Stride", "h264", 2520, 5005, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "h264", 2520, 5005, 0),
    ("Baseline_VP_6_64", "Fcm", "h264", 2520, 5005, 0),
    ("Baseline_VP_6_64", "Vtage", "h264", 2520, 5005, 0),
    ("EOLE_4_64", "LastValue", "h264", 2773, 5003, 0),
    ("EOLE_4_64", "Stride", "h264", 2773, 5003, 0),
    ("EOLE_4_64", "TwoDeltaStride", "h264", 2773, 5003, 0),
    ("EOLE_4_64", "Fcm", "h264", 2773, 5003, 0),
    ("EOLE_4_64", "Vtage", "h264", 2773, 5003, 0),
    ("Baseline_VP_6_64", "LastValue", "lbm", 24057, 5002, 0),
    ("Baseline_VP_6_64", "Stride", "lbm", 24057, 5002, 0),
    ("Baseline_VP_6_64", "TwoDeltaStride", "lbm", 24057, 5002, 0),
    ("Baseline_VP_6_64", "Fcm", "lbm", 24057, 5002, 0),
    ("Baseline_VP_6_64", "Vtage", "lbm", 24057, 5002, 0),
    ("EOLE_4_64", "LastValue", "lbm", 24057, 5002, 0),
    ("EOLE_4_64", "Stride", "lbm", 24057, 5002, 0),
    ("EOLE_4_64", "TwoDeltaStride", "lbm", 24057, 5002, 0),
    ("EOLE_4_64", "Fcm", "lbm", 24057, 5002, 0),
    ("EOLE_4_64", "Vtage", "lbm", 24057, 5002, 0),
];

/// Simulates `config` over `trace` with the golden methodology.
fn fingerprint(trace: &PreparedTrace, config: &CoreConfig) -> (u64, u64, u64) {
    let mut sim = Simulator::new(trace, config.clone()).expect("config is valid");
    sim.run(GOLDEN_RUNNER.warmup).expect("warmup");
    sim.begin_measurement();
    sim.run(GOLDEN_RUNNER.measure).expect("measure");
    let s = sim.stats();
    (s.cycles, s.committed, s.squashed)
}

/// Every preset × workload reproduces its pre-refactor fingerprint.
#[test]
fn flat_window_simulator_is_cycle_exact() {
    let mut expected: HashMap<(&str, &str), (u64, u64, u64)> = HashMap::new();
    for (config, workload, cycles, committed, squashed) in FINGERPRINTS {
        expected.insert((config, workload), (cycles, committed, squashed));
    }
    let presets = CoreConfig::all_presets();
    let mut checked = 0usize;
    let mut mismatches = Vec::new();
    for w in eole_workloads::all_workloads() {
        let trace = GOLDEN_RUNNER.prepare(&w);
        for config in &presets {
            let name = config.name.clone();
            let got = fingerprint(&trace, config);
            match expected.get(&(name.as_str(), w.name)) {
                Some(want) if *want == got => checked += 1,
                Some(want) => mismatches.push(format!(
                    "{name}/{}: expected {want:?}, got {got:?}", w.name
                )),
                None => mismatches.push(format!("{name}/{}: no golden entry", w.name)),
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "cycle-exactness broken for {} of {} runs:\n{}",
        mismatches.len(),
        checked + mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(checked, FINGERPRINTS.len(), "every golden entry exercised");
}

/// The golden table covers the full preset × workload cross product (no
/// silently dropped coverage).
#[test]
fn golden_table_covers_the_cross_product() {
    let presets = CoreConfig::all_presets();
    let workloads = eole_workloads::all_workloads();
    assert_eq!(FINGERPRINTS.len(), presets.len() * workloads.len());
    for config in &presets {
        for w in &workloads {
            assert!(
                FINGERPRINTS.iter().any(|(c, b, ..)| *c == config.name && *b == w.name),
                "missing golden entry for {}/{}",
                config.name,
                w.name
            );
        }
    }
}

/// Every VP preset × non-preset kind × workload reproduces its pinned
/// fingerprint, and the table covers that whole cross product.
#[test]
fn non_preset_kinds_are_cycle_exact() {
    let workloads = eole_workloads::all_workloads();
    assert_eq!(KIND_FINGERPRINTS.len(), 2 * KINDS.len() * workloads.len());
    let mut mismatches = Vec::new();
    for w in &workloads {
        let trace = GOLDEN_RUNNER.prepare(w);
        for preset in [CoreConfig::baseline_vp_6_64(), CoreConfig::eole_4_64()] {
            for kind in KINDS {
                let mut config = preset.clone();
                config.vp.as_mut().expect("VP preset").kind = kind;
                let kind = format!("{kind:?}");
                let got = fingerprint(&trace, &config);
                let want = KIND_FINGERPRINTS
                    .iter()
                    .find(|(p, k, b, ..)| *p == preset.name && *k == kind && *b == w.name)
                    .map(|&(.., c, n, q)| (c, n, q));
                if want != Some(got) {
                    mismatches.push(format!(
                        "{}/{kind}/{}: expected {want:?}, got {got:?}",
                        preset.name, w.name
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "cycle-exactness broken for {} of {} kind runs:\n{}",
        mismatches.len(),
        KIND_FINGERPRINTS.len(),
        mismatches.join("\n")
    );
}
