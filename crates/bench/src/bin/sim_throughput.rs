//! `sim-throughput`: steady-state simulator throughput, as data.
//!
//! Measures how many µ-ops per wall-clock second `Simulator::step` retires
//! in steady state (after warmup), per (configuration, workload) pair of
//! the quick suite, and emits the `eole-throughput/v4` JSON payload
//! (schema in `PERF.md`). This is the regression harness for the hot
//! loop: CI runs it per push, and `BENCH_throughput.json` at the repo
//! root records the trajectory.
//!
//! v2 added a `threads` section: the full suite re-run interval-parallel
//! (`--intervals K` pieces per run) at 1, 2, and machine-size workers,
//! recording wall-clock seconds and the speedup over one worker — the
//! scaling record for interval-parallel simulation. v3 split each scale
//! entry's time into the checkpoint sweep and the detailed pieces; v4
//! drops that split again: the suite runs through [`Session::run_specs`],
//! which overlaps each run's sweep with its pieces and with other runs,
//! so each entry records the batch's wall-clock only. `--baseline`
//! accepts v1–v4 payloads (only their `current` sections are read).
//!
//! ```text
//! cargo run --release -p eole-bench --bin sim-throughput
//! cargo run --release -p eole-bench --bin sim-throughput -- --quick --out BENCH_throughput.json
//! cargo run --release -p eole-bench --bin sim-throughput -- --baseline old.json --min-speedup 0.9
//! ```
//!
//! With `--baseline FILE`, the previous payload's `current` section is
//! embedded as `baseline` and the gmean speedup is computed;
//! `--min-speedup X` then turns the exit status into a regression gate.
//!
//! The payload also carries a `microbench` section — raw
//! `evaluate_stream` lookups/sec per value-predictor kind (LVP through
//! D-VTAGE), TAGE's keyed predict + update rate over the conditional
//! branches, and the rate at which their keys are built — isolating
//! predictor table cost from pipeline cost — unless `--no-microbench`
//! skips it.

use eole_bench::{quick_suite_configs, Grid, RunSpec, Runner, Session, QUICK_SUITE_WORKLOADS};
use eole_core::config::CoreConfig;
use eole_isa::{InstClass, Program};
use eole_predictors::branch::{Tage, TageKeys};
use eole_predictors::value::{
    evaluate_stream, DVtage, Fcm, LastValue, StridePredictor, TwoDeltaStride, ValuePredictor,
    Vtage, VtageTwoDeltaStride,
};
use eole_stats::json::Json;
use eole_stats::report::json_string;
use eole_stats::summary::geometric_mean;

const USAGE: &str = "usage: sim-throughput [--quick] [--warmup N] [--measure N] [--reps N] \
[--label S] [--baseline FILE] [--min-speedup X] [--out FILE] [--no-microbench] \
[--intervals K] [--no-threads-scan]";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Measured {
    config: String,
    workload: String,
    committed: u64,
    seconds: f64,
}

impl Measured {
    fn mups(&self) -> f64 {
        self.committed as f64 / self.seconds / 1.0e6
    }
}

/// One steady-state measurement, repeated `reps` times through
/// [`Session::time_run`]: each rep builds a fresh simulator, warms it up
/// (trace-cold effects, predictor and cache training), then times the
/// identical measurement window. The fastest rep is kept — every rep
/// simulates the exact same µ-op stream, so the minimum is the
/// least-noisy estimate of the hot loop's cost. Timing never consults a
/// result store by construction (`time_run` is the uncacheable path).
fn measure(session: &Session, spec: &RunSpec, reps: usize) -> Measured {
    let mut best_seconds = f64::INFINITY;
    let mut committed = 0;
    for _ in 0..reps.max(1) {
        let timed = session
            .time_run(spec)
            .unwrap_or_else(|e| fail(&e.to_string()));
        committed = timed.stats.committed;
        best_seconds = best_seconds.min(timed.seconds);
    }
    Measured {
        config: spec.config.name.clone(),
        workload: spec.workload.name.to_string(),
        committed,
        seconds: best_seconds,
    }
}

/// The predictor microbench: raw `evaluate_stream` lookup throughput
/// (one lookup = predict + train) per predictor kind over gzip's
/// VP-eligible µ-op stream — the cost of the predictor *itself*,
/// isolated from the timing pipeline, so a table-layout change (e.g.
/// D-VTAGE's block organization) shows up as a lookups/sec delta in
/// `BENCH_throughput.json` even when pipeline throughput hides it. The
/// `TAGE` row times keyed `predict` + `update` per conditional branch of
/// the same trace, as the pipeline drives them, with the keys built
/// before the clock starts; the `TAGE-keys` row times building those
/// keys, the once-per-trace cost the pipeline pays (both rows' `events`
/// are the branch count).
fn microbench(session: &Session, reps: usize) -> String {
    let w = eole_workloads::workload_by_name("gzip").expect("gzip is in the registry");
    let trace = session.prepare(&w).unwrap_or_else(|e| fail(&e.to_string()));
    let stream = eole_bench::vp_stream(&trace);
    let seed = 0xe01e;
    type Builder = Box<dyn Fn() -> Box<dyn ValuePredictor>>;
    let make: Vec<(&str, Builder)> = vec![
        ("LVP", Box::new(move || Box::new(LastValue::new(8192, seed)))),
        ("Stride", Box::new(move || Box::new(StridePredictor::new(8192, seed)))),
        ("2D-Stride", Box::new(move || Box::new(TwoDeltaStride::paper(seed)))),
        ("FCM-4", Box::new(move || Box::new(Fcm::new(8192, 8192, seed)))),
        ("VTAGE", Box::new(move || Box::new(Vtage::paper(seed)))),
        ("VTAGE-2DStride", Box::new(move || Box::new(VtageTwoDeltaStride::paper(seed)))),
        ("D-VTAGE", Box::new(move || Box::new(DVtage::paper(4, 4, seed)))),
    ];
    // Fastest of `reps` replays (each returns its timed seconds, with
    // predictor construction left out), as a microbench JSON row.
    let row = |name: &str, events: usize, replay: &dyn Fn() -> f64| {
        let best = (0..reps.max(1)).map(|_| replay()).fold(f64::INFINITY, f64::min);
        let mlps = events as f64 / best / 1.0e6;
        eprintln!("  microbench {name:<16} {mlps:>8.3} Mlookups/s");
        format!(
            "{{\"predictor\":{},\"mlookups_per_sec\":{mlps:.4},\"events\":{events}}}",
            json_string(name)
        )
    };
    let mut runs = Vec::new();
    for (name, build) in &make {
        runs.push(row(name, stream.len(), &|| {
            let mut p = build();
            let start = std::time::Instant::now();
            let stats = evaluate_stream(&mut *p, trace.history(), stream.iter().copied());
            std::hint::black_box(stats);
            start.elapsed().as_secs_f64()
        }));
    }
    let branches: Vec<(u64, usize, bool)> = trace
        .insts()
        .iter()
        .filter(|di| di.class() == InstClass::Branch)
        .map(|di| (Program::inst_addr(di.pc), di.bhist_pos as usize, di.taken))
        .collect();
    let build_keys = |tage: &mut Tage| -> Vec<TageKeys> {
        branches.iter().map(|&(pc, pos, _)| tage.keys(pc, trace.history().view(pos))).collect()
    };
    let keys = build_keys(&mut Tage::paper(seed));
    runs.push(row("TAGE", branches.len(), &|| {
        let mut tage = Tage::paper(seed);
        let start = std::time::Instant::now();
        for (k, &(pc, _, taken)) in keys.iter().zip(&branches) {
            std::hint::black_box(tage.predict_keyed(pc, k));
            tage.update_keyed(pc, k, taken);
        }
        start.elapsed().as_secs_f64()
    }));
    runs.push(row("TAGE-keys", branches.len(), &|| {
        let mut tage = Tage::paper(seed);
        let start = std::time::Instant::now();
        std::hint::black_box(build_keys(&mut tage));
        start.elapsed().as_secs_f64()
    }));
    format!("{{\"workload\":\"gzip\",\"runs\":[{}]}}", runs.join(","))
}

/// One run as an `eole-throughput/v1` JSON object (strings escaped).
fn run_to_json(config: &str, workload: &str, mups: f64, committed: u64, seconds: f64) -> String {
    format!(
        "{{\"config\":{},\"workload\":{},\"mups\":{mups:.4},\"committed\":{committed},\"seconds\":{seconds:.6}}}",
        json_string(config),
        json_string(workload),
    )
}

fn section_to_json(label: &str, runs: &[String], gmean: f64) -> String {
    format!(
        "{{\"label\":{},\"runs\":[{}],\"gmean_mups\":{gmean:.4}}}",
        json_string(label),
        runs.join(",")
    )
}

fn runs_to_json(runs: &[Measured], label: &str) -> String {
    let rendered: Vec<String> = runs
        .iter()
        .map(|r| run_to_json(&r.config, &r.workload, r.mups(), r.committed, r.seconds))
        .collect();
    let gmean = geometric_mean(&runs.iter().map(Measured::mups).collect::<Vec<_>>())
        .unwrap_or(0.0);
    section_to_json(label, &rendered, gmean)
}

/// The interval-parallel threads scaling section: the whole suite,
/// split into `k` intervals per run, timed as one [`Session::run_specs`]
/// batch at each worker count of `counts` (traces prepared before the
/// clock starts). The first count is the reference for `speedup_vs_1`.
fn threads_scan(
    configs: &[CoreConfig],
    runner: Runner,
    k: u32,
    reps: usize,
    counts: &[usize],
) -> String {
    let grid = Grid::new()
        .runner(runner)
        .workload_names(&QUICK_SUITE_WORKLOADS)
        .configs(configs.iter().cloned());
    let specs = grid.specs();
    let mut entries: Vec<String> = Vec::new();
    let mut reference = None;
    for &t in counts {
        let session = Session::builder()
            .runner(runner)
            .threads(t)
            .intervals(k)
            .build()
            .unwrap_or_else(|e| fail(&e));
        for w in grid.workload_list() {
            session.prepare(w).unwrap_or_else(|e| fail(&e.to_string()));
        }
        let mut seconds = f64::INFINITY;
        let mut committed = 0u64;
        for _ in 0..reps.max(1) {
            let batch = specs.clone();
            let start = std::time::Instant::now();
            let results = session.run_specs(batch);
            seconds = seconds.min(start.elapsed().as_secs_f64());
            committed = results
                .iter()
                .map(|r| r.stats().map_or_else(|e| fail(&e.to_string()), |s| s.committed))
                .sum();
        }
        let reference = *reference.get_or_insert(seconds);
        let speedup = if seconds > 0.0 { reference / seconds } else { 0.0 };
        let mups = committed as f64 / seconds / 1.0e6;
        eprintln!(
            "  threads {t:<2} suite {seconds:>8.3}s  {mups:>8.3} Mµops/s  {speedup:.2}x vs 1"
        );
        entries.push(format!(
            "{{\"threads\":{t},\"seconds\":{seconds:.6},\"mups\":{mups:.4},\
             \"speedup_vs_1\":{speedup:.4}}}"
        ));
    }
    format!(
        "{{\"intervals\":{k},\"interval_warmup\":{},\"scales\":[{}]}}",
        runner.default_interval_warmup(),
        entries.join(",")
    )
}

/// Extracts the `current` section of a previous payload verbatim (it
/// becomes the new payload's `baseline`), plus its gmean. Accepts v1–v4
/// (every version has the same `current` shape).
fn load_baseline(path: &str) -> (String, f64) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let v = Json::parse(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
    let schema = v.get("schema").and_then(Json::as_str);
    if !matches!(
        schema,
        Some(
            "eole-throughput/v1"
                | "eole-throughput/v2"
                | "eole-throughput/v3"
                | "eole-throughput/v4"
        )
    ) {
        fail(&format!("{path} is not an eole-throughput/v1–v4 payload"));
    }
    let current = v.get("current").unwrap_or_else(|| fail(&format!("{path}: no `current`")));
    let gmean = current
        .get("gmean_mups")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail(&format!("{path}: no gmean_mups")));
    let label = current.get("label").and_then(Json::as_str).unwrap_or("baseline");
    let runs = current.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    let rendered: Vec<String> = runs
        .iter()
        .map(|r| {
            run_to_json(
                r.get("config").and_then(Json::as_str).unwrap_or("?"),
                r.get("workload").and_then(Json::as_str).unwrap_or("?"),
                r.get("mups").and_then(Json::as_f64).unwrap_or(0.0),
                r.get("committed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                r.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
            )
        })
        .collect();
    (section_to_json(label, &rendered, gmean), gmean)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runner = Runner { warmup: 20_000, measure: 80_000 };
    let mut reps = 3usize;
    let mut label = "working tree".to_string();
    let mut baseline_path: Option<String> = None;
    let mut min_speedup: Option<f64> = None;
    let mut out_path: Option<String> = None;
    let mut run_microbench = true;
    let mut run_threads_scan = true;
    let mut intervals = 8u32;
    let take = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).unwrap_or_else(|| fail(&format!("{flag} needs a value"))).clone()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                runner = Runner { warmup: 15_000, measure: 40_000 };
                reps = 2;
            }
            "--warmup" => {
                runner.warmup = take(&args, &mut i, "--warmup")
                    .parse()
                    .unwrap_or_else(|_| fail("--warmup takes a number"));
            }
            "--measure" => {
                runner.measure = take(&args, &mut i, "--measure")
                    .parse()
                    .unwrap_or_else(|_| fail("--measure takes a number"));
            }
            "--reps" => {
                reps = take(&args, &mut i, "--reps")
                    .parse()
                    .unwrap_or_else(|_| fail("--reps takes a number"));
            }
            "--label" => label = take(&args, &mut i, "--label"),
            "--baseline" => baseline_path = Some(take(&args, &mut i, "--baseline")),
            "--min-speedup" => {
                min_speedup = Some(
                    take(&args, &mut i, "--min-speedup")
                        .parse()
                        .unwrap_or_else(|_| fail("--min-speedup takes a number")),
                );
            }
            "--out" => out_path = Some(take(&args, &mut i, "--out")),
            "--no-microbench" => run_microbench = false,
            "--no-threads-scan" => run_threads_scan = false,
            "--intervals" => {
                intervals = take(&args, &mut i, "--intervals")
                    .parse()
                    .unwrap_or_else(|_| fail("--intervals takes a number"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    let session = Session::new(runner);
    let configs = quick_suite_configs();
    let mut runs: Vec<Measured> = Vec::new();
    for name in QUICK_SUITE_WORKLOADS {
        let w = eole_workloads::workload_by_name(name)
            .unwrap_or_else(|| fail(&format!("unknown workload {name}")));
        // Warm the session's trace cache once per workload; every config
        // rep below replays the same prepared trace.
        session.prepare(&w).unwrap_or_else(|e| fail(&e.to_string()));
        for config in &configs {
            let spec =
                RunSpec { config: config.clone(), workload: w.clone(), runner, seed: 0 };
            let m = measure(&session, &spec, reps);
            eprintln!("  {:<28} {:<8} {:>8.3} Mµops/s", m.config, m.workload, m.mups());
            runs.push(m);
        }
    }

    let current = runs_to_json(&runs, &label);
    let mut payload = String::new();
    payload.push_str("{\"schema\":\"eole-throughput/v4\",");
    payload.push_str(&format!(
        "\"runner\":{{\"warmup\":{},\"measure\":{}}},\"reps\":{reps},",
        runner.warmup, runner.measure
    ));
    payload.push_str(&format!("\"current\":{current}"));
    if run_microbench {
        payload.push_str(&format!(",\"microbench\":{}", microbench(&session, reps)));
    }
    if run_threads_scan {
        let machine = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mut counts = vec![1usize, 2, machine];
        counts.sort_unstable();
        counts.dedup();
        eprintln!("[threads scan: intervals={intervals}, workers {counts:?}]");
        let section = threads_scan(&configs, runner, intervals, reps, &counts);
        payload.push_str(&format!(",\"threads\":{section}"));
    }
    let mut speedup = None;
    if let Some(path) = &baseline_path {
        let (baseline_json, baseline_gmean) = load_baseline(path);
        let current_gmean =
            geometric_mean(&runs.iter().map(Measured::mups).collect::<Vec<_>>()).unwrap_or(0.0);
        let s = if baseline_gmean > 0.0 { current_gmean / baseline_gmean } else { 0.0 };
        payload.push_str(&format!(",\"baseline\":{baseline_json},\"speedup\":{s:.4}"));
        speedup = Some(s);
    }
    payload.push_str("}\n");

    match &out_path {
        Some(path) => {
            // Same temp-file + rename discipline as every session payload:
            // a failure mid-write never truncates the committed baseline.
            Session::write_payload(path, &payload).unwrap_or_else(|e| fail(&e));
            eprintln!("[written to {path}]");
        }
        None => print!("{payload}"),
    }
    if let Some(s) = speedup {
        eprintln!("[gmean speedup vs baseline: {s:.3}x]");
        if let Some(min) = min_speedup {
            if s < min {
                eprintln!("[FAIL: speedup {s:.3}x below the --min-speedup {min} gate]");
                std::process::exit(1);
            }
        }
    }
}
