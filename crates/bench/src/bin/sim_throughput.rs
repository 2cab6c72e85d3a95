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
//! The payload also carries a `microbench` section — lookups/sec per
//! value-predictor kind (LVP through D-VTAGE, the kinds with keys on the
//! keyed path the pipeline runs), TAGE's keyed predict + update rate over
//! the conditional branches, and the rates at which the keys are built —
//! isolating predictor table cost from pipeline cost — unless
//! `--no-microbench` skips it.
//!
//! Every row is the fastest of `--reps` timings, and within each section
//! the reps run round-robin across its rows (round `r` times every row
//! once before round `r + 1` starts), so a drift in host speed reaches
//! every row alike.

use eole_bench::{quick_suite_configs, Grid, RunSpec, Runner, Session, QUICK_SUITE_WORKLOADS};
use eole_core::config::CoreConfig;
use eole_isa::{InstClass, Program};
use eole_predictors::branch::{Tage, TageKeys};
use eole_predictors::value::{
    evaluate_stream, AnyValuePredictor, DVtage, Fcm, InFlight, LastValue, StridePredictor,
    TwoDeltaStride, VpKeys, Vtage, VtageTwoDeltaStride,
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

/// The fastest of `reps` timings per row, the reps round-robin across
/// rows: round `r` times every row once before round `r + 1` starts.
fn best_of_interleaved(rows: usize, reps: usize, mut time: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; rows];
    for _ in 0..reps.max(1) {
        for (i, b) in best.iter_mut().enumerate() {
            *b = b.min(time(i));
        }
    }
    best
}

/// The steady-state suite: every spec timed `reps` times through
/// [`Session::time_run`], round-robin ([`best_of_interleaved`]). Each rep
/// builds a fresh simulator, warms it up (trace-cold effects, predictor
/// and cache training), then times the identical measurement window; the
/// fastest rep is kept — every rep simulates the exact same µ-op stream,
/// so the minimum is the least-noisy estimate of the hot loop's cost.
/// Timing never consults a result store by construction (`time_run` is
/// the uncacheable path).
fn measure_suite(session: &Session, specs: &[RunSpec], reps: usize) -> Vec<Measured> {
    let mut committed = vec![0; specs.len()];
    let best = best_of_interleaved(specs.len(), reps, |i| {
        let timed = session.time_run(&specs[i]).unwrap_or_else(|e| fail(&e.to_string()));
        committed[i] = timed.stats.committed;
        timed.seconds
    });
    specs
        .iter()
        .zip(best)
        .zip(committed)
        .map(|((spec, seconds), committed)| Measured {
            config: spec.config.name.clone(),
            workload: spec.workload.name.to_string(),
            committed,
            seconds,
        })
        .collect()
}

/// The predictor microbench over gzip's trace: lookups/sec (one lookup
/// = predict + train) per predictor kind over the VP-eligible µ-op
/// stream — the cost of the predictor *itself*, isolated from the timing
/// pipeline, so a table-layout change (e.g. D-VTAGE's block
/// organization) shows up as a lookups/sec delta in
/// `BENCH_throughput.json` even when pipeline throughput hides it. The
/// kinds without keys replay `evaluate_stream`; `VTAGE`,
/// `VTAGE-2DStride` and `D-VTAGE` replay keyed predict + train, as the
/// pipeline drives them, with the keys built before the clock starts,
/// and the `VTAGE-keys` / `D-VTAGE-keys` rows time deriving those keys
/// only: the pipeline's once-per-trace table build also deduplicates
/// them, which these rows leave out (the hybrid's keys are VTAGE's).
/// The `TAGE` and `TAGE-keys` rows do the same per conditional
/// branch (their `events` are the branch count). Predictor construction
/// is left out of every timing.
fn microbench(session: &Session, reps: usize) -> String {
    let w = eole_workloads::workload_by_name("gzip").expect("gzip is in the registry");
    let trace = session.prepare(&w).unwrap_or_else(|e| fail(&e.to_string()));
    let hist = trace.history();
    let stream = &eole_bench::vp_stream(&trace);
    let seed = 0xe01e;
    type Make = fn(u64) -> AnyValuePredictor;
    let kinds: [(&str, Make); 7] = [
        ("LVP", |s| LastValue::new(8192, s).into()),
        ("Stride", |s| StridePredictor::new(8192, s).into()),
        ("2D-Stride", |s| TwoDeltaStride::paper(s).into()),
        ("FCM-4", |s| Fcm::new(8192, 8192, s).into()),
        ("VTAGE", |s| Vtage::paper(s).into()),
        ("VTAGE-2DStride", |s| VtageTwoDeltaStride::paper(s).into()),
        ("D-VTAGE", |s| DVtage::paper(4, 4, s).into()),
    ];
    // Every VP-eligible µ-op's keys, for the kinds that have them.
    let build_vp_keys = |p: &mut AnyValuePredictor| -> Option<Vec<VpKeys>> {
        let mut keys = |&(pc, pos, _): &(u64, u32, u64)| p.keys(pc, hist.view(pos as usize));
        stream.iter().map(&mut keys).collect()
    };
    let vp_keys: Vec<Option<Vec<VpKeys>>> =
        kinds.iter().map(|(_, make)| build_vp_keys(&mut make(seed))).collect();
    let branches: Vec<(u64, usize, bool)> = trace
        .insts()
        .iter()
        .filter(|di| di.class() == InstClass::Branch)
        .map(|di| (Program::inst_addr(di.pc), di.bhist_pos as usize, di.taken))
        .collect();
    let build_tage_keys = |tage: &mut Tage| -> Vec<TageKeys> {
        branches.iter().map(|&(pc, pos, _)| tage.keys(pc, hist.view(pos))).collect()
    };
    let tage_keys = build_tage_keys(&mut Tage::paper(seed));

    // Each row: its name, its event count, and one timed replay.
    type Replay<'a> = Box<dyn Fn() -> f64 + 'a>;
    let mut rows: Vec<(&str, usize, Replay)> = Vec::new();
    for ((name, make), keys) in kinds.iter().zip(&vp_keys) {
        let replay: Replay = match keys {
            None => Box::new(|| {
                let mut p = make(seed);
                let start = std::time::Instant::now();
                let stats = evaluate_stream(&mut p, hist, stream.iter().copied());
                std::hint::black_box(stats);
                start.elapsed().as_secs_f64()
            }),
            Some(keys) => Box::new(move || {
                let mut p = make(seed);
                let start = std::time::Instant::now();
                for (k, &(pc, pos, actual)) in keys.iter().zip(stream) {
                    let view = hist.view(pos as usize);
                    std::hint::black_box(p.predict_keyed(pc, view, k, InFlight::default()));
                    p.train_keyed(pc, view, k, actual);
                }
                start.elapsed().as_secs_f64()
            }),
        };
        rows.push((name, stream.len(), replay));
    }
    for (name, kind) in [("VTAGE-keys", "VTAGE"), ("D-VTAGE-keys", "D-VTAGE")] {
        let make = kinds.iter().find(|(k, _)| *k == kind).expect("a listed kind").1;
        let build = &build_vp_keys;
        rows.push((name, stream.len(), Box::new(move || {
            let mut p = make(seed);
            let start = std::time::Instant::now();
            std::hint::black_box(build(&mut p));
            start.elapsed().as_secs_f64()
        })));
    }
    rows.push(("TAGE", branches.len(), Box::new(|| {
        let mut tage = Tage::paper(seed);
        let start = std::time::Instant::now();
        for (k, &(pc, _, taken)) in tage_keys.iter().zip(&branches) {
            std::hint::black_box(tage.predict_keyed(pc, k));
            tage.update_keyed(pc, k, taken);
        }
        start.elapsed().as_secs_f64()
    })));
    rows.push(("TAGE-keys", branches.len(), Box::new(|| {
        let mut tage = Tage::paper(seed);
        let start = std::time::Instant::now();
        std::hint::black_box(build_tage_keys(&mut tage));
        start.elapsed().as_secs_f64()
    })));

    let best = best_of_interleaved(rows.len(), reps, |i| (rows[i].2)());
    let runs: Vec<String> = rows
        .iter()
        .zip(best)
        .map(|((name, events, _), best)| {
            let mlps = *events as f64 / best / 1.0e6;
            eprintln!("  microbench {name:<16} {mlps:>8.3} Mlookups/s");
            format!(
                "{{\"predictor\":{},\"mlookups_per_sec\":{mlps:.4},\"events\":{events}}}",
                json_string(name)
            )
        })
        .collect();
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
    let mut specs: Vec<RunSpec> = Vec::new();
    for name in QUICK_SUITE_WORKLOADS {
        let w = eole_workloads::workload_by_name(name)
            .unwrap_or_else(|| fail(&format!("unknown workload {name}")));
        // Warm the session's trace cache once per workload; every config
        // rep replays the same prepared trace.
        session.prepare(&w).unwrap_or_else(|e| fail(&e.to_string()));
        for config in &configs {
            specs.push(RunSpec { config: config.clone(), workload: w.clone(), runner, seed: 0 });
        }
    }
    let runs = measure_suite(&session, &specs, reps);
    for m in &runs {
        eprintln!("  {:<28} {:<8} {:>8.3} Mµops/s", m.config, m.workload, m.mups());
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
