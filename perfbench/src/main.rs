//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <vp_steady|mem_bound> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One closed-loop process per workload: runs are submitted back to back
//! for `--seconds` seconds (whole rounds, at least [`MIN_ROUNDS`]), every
//! simulated output is checked, and the last line of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A human-readable
//! summary goes to standard error. See `perfbench/README.md`.

mod grid;
mod layers;
mod serial;
mod spans;
mod summary;

use std::collections::BTreeMap;
use std::process::ExitCode;

use spans::Tracer;

const USAGE: &str = "usage: perfbench --workload <vp_steady|mem_bound> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Seed used while the benchmark was developed (the default).
const DEV_SEED: u64 = 1;

/// Fewest rounds a timed phase runs, so that every cell has several
/// chances at the host's fast state.
pub const MIN_ROUNDS: u64 = 5;

/// Hard cap on a timed phase, whatever `--seconds` and [`MIN_ROUNDS`]
/// ask for, so one invocation always ends well within three minutes.
pub const MAX_PHASE_SECONDS: f64 = 120.0;

/// End-to-end metrics, printed by an untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mups", "Muops/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_ipc_gmean", "uops/cycle"),
];

/// Per-layer metrics, printed by a traced run: (name, unit). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workloads.trace_s", "s"),
    ("isa.prepare_s", "s"),
    ("core.pipeline.build_ms", "ms"),
    ("core.pipeline.warmup_s", "s"),
    ("core.pipeline.measure_s", "s"),
    ("core.pipeline.host_ns_per_uop", "ns"),
    ("core.pipeline.host_ns_per_cycle", "ns"),
    ("core.pipeline.committed", "count"),
    ("core.pipeline.cycles", "count"),
    ("core.pipeline.useful_ratio", "ratio"),
    ("predictors.value.lookup_ns", "ns"),
    ("predictors.value.lookups", "count"),
    ("predictors.value.used_ratio", "ratio"),
    ("predictors.value.accuracy", "ratio"),
    ("predictors.value.block_reads", "count"),
    ("predictors.value.squashes", "count"),
    ("predictors.branch.lookup_ns", "ns"),
    ("predictors.branch.mispredict_ratio", "ratio"),
    ("mem.access_ns", "ns"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.dram_accesses", "count"),
    ("core.warm.sweep_s", "s"),
    ("core.warm.swept_uops", "count"),
    ("core.warm.capture_ms", "ms"),
    ("core.warm.restore_ms", "ms"),
    ("core.warm.checkpoint_bytes", "bytes"),
    ("bench.exec.busy_s", "s"),
    ("bench.exec.idle_s", "s"),
    ("bench.exec.runs", "count"),
    ("bench.store.save_ms", "ms"),
    ("bench.store.load_ms", "ms"),
    ("bench.store.hits", "count"),
    ("bench.store.misses", "count"),
    ("bench.store.sims", "count"),
    ("bench.store.bytes_written", "bytes"),
    ("stats.report.render_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Command-line arguments, validated.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEV_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= MAX_PHASE_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_PHASE_SECONDS}]"));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What one workload run produced: runs attempted and failed (a failed
/// check counts as a failed run), and metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one failure with its reason on standard error — failures
    /// are never dropped silently.
    pub fn fail(&mut self, reason: impl std::fmt::Display) {
        eprintln!("FAIL: {reason}");
        self.failed += 1;
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = std::sync::Arc::new(Tracer::new());
    tracer.set_recording(args.trace);
    let outcome = match args.workload.as_str() {
        // The traced `vp_steady` run also measures the experiment path.
        "vp_steady" => serial::run(&serial::VP_STEADY, &args, &tracer).and_then(|mut o| {
            if args.trace {
                grid::measure(&mut o, args.seed, &tracer)?;
            }
            Ok(o)
        }),
        "mem_bound" => serial::run(&serial::MEM_BOUND, &args, &tracer),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    outcome.attempted = outcome.attempted.max(1);
    let fail_ratio = outcome.failed as f64 / outcome.attempted as f64;
    outcome.metrics.insert("fail_ratio", fail_ratio);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    eprintln!(
        "perfbench {} seed {} ({}): model unvalidated — no real-hardware reference \
         results exist, so no error figure is given; caches and predictors are warmed \
         before any statistic is taken",
        args.workload,
        args.seed,
        if args.trace {
            "traced, per-layer metrics"
        } else {
            "untraced, end-to-end metrics"
        },
    );
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => 0.0,
            None if args.trace => 0.0,
            None => {
                eprintln!("error: end-to-end metric {name} was not measured");
                return ExitCode::from(1);
            }
        };
        eprintln!("  {name:<36} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    if args.trace {
        let spans = tracer.spans();
        eprintln!("  self time by span (span time minus child-span time):");
        for (name, t) in spans::self_times(&spans) {
            eprintln!(
                "    {name:<34} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_s * 1e3,
                t.self_s * 1e3
            );
        }
        let path = format!(".perfbench/spans-{}-seed{}.jsonl", args.workload, args.seed);
        match std::fs::create_dir_all(".perfbench")
            .and_then(|()| std::fs::write(&path, spans::to_json_lines(&spans)))
        {
            Ok(()) => eprintln!("  {} spans written to {path}", spans.len()),
            Err(e) => eprintln!("  spans not written to {path}: {e}"),
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
