//! CLI for regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p eole-bench --bin experiments -- all
//! cargo run --release -p eole-bench --bin experiments -- all --format json --out results.json
//! cargo run --release -p eole-bench --bin experiments -- fig7 fig12 --format csv
//! cargo run --release -p eole-bench --bin experiments -- fig6 --warmup 50000 --measure 100000
//! cargo run --release -p eole-bench --bin experiments -- table3 --quick
//! cargo run --release -p eole-bench --bin experiments -- all --quick --store target/eole-results
//! cargo run --release -p eole-bench --bin experiments -- all --quick --store DIR --shard 1/2
//! ```
//!
//! Default output is Markdown on stdout; `--format json` emits one
//! `eole-report-set/v1` object covering every selected report (schema in
//! `EXPERIMENTS.md`); `--out FILE` redirects the payload to a file, with
//! a progress line on stderr either way.
//!
//! `--store DIR` caches every run in a persistent `DirStore`: a repeat
//! invocation serves all cells from disk and simulates nothing
//! (`--assert-cached` turns that into an exit-status gate).
//! `--store tcp://HOST:PORT` shares one cache across machines through an
//! `eole-stored` daemon — concurrent sessions single-flight each key, so
//! a cold grid run by N sessions still simulates each cell exactly once,
//! and a dying daemon degrades to local simulation. `--shard K/N`
//! runs only the grid cells this process owns — a *populate* pass that
//! fills the store and emits no reports; a final unsharded `--store DIR`
//! invocation merges everything into the same payload an unsharded run
//! produces, byte for byte (CI asserts this per push).

use eole_bench::experiments::{ExperimentSet, EXPERIMENT_NAMES};
use eole_bench::{Format, RunError, Runner, Session, Shard};
use eole_core::config::CoreConfig;
use eole_stats::report::ExperimentReport;
use eole_workloads::{all_workloads, workload_by_name};

const USAGE: &str = "usage: experiments [names...|all] [--quick] [--warmup N] [--measure N] \
[--intervals K] [--interval-warmup W|auto] \
[--format md|json|csv] [--out FILE] [--md FILE] [--store DIR|tcp://HOST:PORT] [--shard K/N] \
[--assert-cached] [--assert-warm-cached] [--faults SPEC] [--run-deadline-ms N]
       experiments compare OLD.json NEW.json [--threshold PCT] [--out FILE]
experiments: table1 table2 table3 fig2 fig4 offload fig6 fig7 fig8 fig10 fig11 fig12 fig13 \
vp_ablation ee_writes squash_cost levt_depth_ablation dvtage_budget bebop_block_size complexity
compare: diff two results.json report sets (Markdown delta table on stdout; exits 1 on \
>PCT% drops in IPC/speedup columns, default 2%)
store/shard: --store caches per-run results on disk (eole-result/v2, one file per run key) or, \
with tcp://HOST:PORT, in a shared eole-stored daemon (single-flight dedup across sessions; \
graceful local fallback if the daemon dies); --shard K/N simulates only the cells this process \
owns (populate pass, no reports) — merge by re-running unsharded with the same --store; \
--assert-cached exits 1 if anything simulated
intervals: --intervals K splits every run into K deterministic intervals simulated \
concurrently and stitched (committed counts exact, cycle and squashed counts within the \
pinned budget; stored \
under interval-tagged keys); --interval-warmup W sets the per-interval warmup window in \
µ-ops (default warmup/2, min 1000), or `auto` to probe the smallest window whose seam \
error clears half the pinned budget; warm checkpoints are cached in the --store under \
eole-warmstate/v1 keys, and --assert-warm-cached exits 1 if any checkpoint was rebuilt \
instead of served; EOLE_PARANOID=1 cross-checks every stitched run against a serial \
one (machine-readable delta line on stderr) and single-steps every fast-forwarded idle cycle
robustness: --faults SPEC installs a seeded deterministic fault-injection plan (chaos testing; \
also read from EOLE_FAULTS — grammar and site catalog in EXPERIMENTS.md); --run-deadline-ms N \
fails any single run whose job exceeds N ms wall-clock with a typed deadline error instead of \
stalling the suite";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(1);
}

/// `experiments compare OLD.json NEW.json`: the ROADMAP's trend gate.
fn run_compare(args: &[String]) -> ! {
    let mut threshold = 2.0f64;
    let mut out_path: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--threshold takes a number"));
            }
            "--out" => {
                i += 1;
                out_path =
                    Some(args.get(i).unwrap_or_else(|| fail("--out needs a value")).clone());
            }
            other => files.push(other.to_string()),
        }
        i += 1;
    }
    let [old_path, new_path] = files.as_slice() else {
        fail("compare takes exactly two files: OLD.json NEW.json")
    };
    let read = |path: &String| -> eole_stats::json::Json {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        eole_stats::json::Json::parse(&text)
            .unwrap_or_else(|e| fail(&format!("parse {path}: {e}")))
    };
    let cmp = eole_bench::Comparison::compare(&read(old_path), &read(new_path), threshold)
        .unwrap_or_else(|e| fail(&e));
    let md = cmp.to_markdown();
    match out_path {
        Some(path) => {
            std::fs::write(&path, &md).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!("[written to {path}]");
        }
        None => print!("{md}"),
    }
    if cmp.has_regressions() {
        eprintln!(
            "[FAIL: {} regression(s) worse than {threshold}% — see above]",
            cmp.regressions.len()
        );
        std::process::exit(1);
    }
    eprintln!("[no regressions worse than {threshold}%]");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..]);
    }
    let mut names: Vec<String> = Vec::new();
    let mut runner = Runner::default();
    let mut format = Format::Markdown;
    let mut out_path: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut shard: Option<Shard> = None;
    let mut assert_cached = false;
    let mut assert_warm_cached = false;
    let mut intervals = 0u32;
    /// `--interval-warmup` before resolution: a fixed window or `auto`.
    enum WarmupArg {
        Fixed(u64),
        Auto,
    }
    let mut interval_warmup: Option<WarmupArg> = None;
    let mut faults_spec: Option<String> = None;
    let mut run_deadline: Option<std::time::Duration> = None;
    let take = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).unwrap_or_else(|| fail(&format!("{flag} needs a value"))).clone()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => runner = Runner::quick(),
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
            "--format" => {
                format = take(&args, &mut i, "--format")
                    .parse::<Format>()
                    .unwrap_or_else(|e: String| fail(&e));
            }
            "--out" => out_path = Some(take(&args, &mut i, "--out")),
            // Back-compat alias from the pre-redesign CLI.
            "--md" => {
                format = Format::Markdown;
                out_path = Some(take(&args, &mut i, "--md"));
            }
            "--intervals" => {
                intervals = take(&args, &mut i, "--intervals")
                    .parse()
                    .unwrap_or_else(|_| fail("--intervals takes a number"));
            }
            "--interval-warmup" => {
                let v = take(&args, &mut i, "--interval-warmup");
                interval_warmup = Some(if v == "auto" {
                    WarmupArg::Auto
                } else {
                    WarmupArg::Fixed(
                        v.parse()
                            .unwrap_or_else(|_| fail("--interval-warmup takes a number or `auto`")),
                    )
                });
            }
            "--store" => store_dir = Some(take(&args, &mut i, "--store")),
            "--shard" => {
                shard = Some(
                    Shard::parse(&take(&args, &mut i, "--shard")).unwrap_or_else(|e| fail(&e)),
                );
            }
            "--assert-cached" => assert_cached = true,
            "--assert-warm-cached" => assert_warm_cached = true,
            "--faults" => faults_spec = Some(take(&args, &mut i, "--faults")),
            "--run-deadline-ms" => {
                let ms: u64 = take(&args, &mut i, "--run-deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--run-deadline-ms takes a number"));
                run_deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => names.push(other.to_string()),
        }
        i += 1;
    }
    if names.is_empty() {
        println!("{USAGE}");
        return;
    }
    let shard = shard.unwrap_or_else(Shard::full);
    if !shard.is_full() && store_dir.is_none() {
        fail("--shard requires --store (shards meet through the result store)");
    }

    // Fail fast on an unwritable --out before hours of simulation — but
    // never touch `path` itself (the previous payload must survive until
    // the new one is complete; the `compare` trend workflow depends on
    // it), and probe with a process-unique name that is removed at once,
    // so no stray file is left and no concurrent writer's temp file is
    // truncated. Populate passes emit no payload, so they skip the probe.
    if let (Some(path), true) = (&out_path, shard.is_full()) {
        let probe = format!("{path}.probe-{}.tmp", std::process::id());
        std::fs::File::create(&probe).unwrap_or_else(|e| fail(&format!("create {probe}: {e}")));
        std::fs::remove_file(&probe).ok();
    }

    if interval_warmup.is_some() && intervals == 0 {
        fail("--interval-warmup requires --intervals");
    }
    // `auto` resolves *before* the session exists: one quick seam-error
    // probe on a representative workload/configuration pair (gzip's tight
    // loops under the full EOLE core — predictor-heavy, so its seams are
    // the hard case) picks the smallest candidate window whose first
    // interval lands within half the pinned cycle budget.
    let interval_warmup: Option<u64> = match interval_warmup {
        Some(WarmupArg::Auto) => {
            let w = workload_by_name("gzip")
                .unwrap_or_else(|| fail("probe workload gzip missing from the registry"));
            let trace = runner.try_prepare(&w).unwrap_or_else(|e| fail(&e.to_string()));
            let chosen = runner
                .try_probe_interval_warmup(&trace, CoreConfig::eole_4_64(), intervals)
                .unwrap_or_else(|e| fail(&e.to_string()));
            eprintln!("[interval-warmup auto: probed W={chosen} µ-ops (gzip / eole_4_64)]");
            Some(chosen)
        }
        Some(WarmupArg::Fixed(w)) => Some(w),
        None => None,
    };

    // Fault injection: the flag wins; otherwise EOLE_FAULTS (so CI can
    // wrap any invocation without touching its arguments). A bad spec is
    // loud either way — silently ignoring a typo'd chaos plan would turn
    // a chaos run into a false-confidence ordinary run.
    match &faults_spec {
        Some(spec) => eole_bench::faults::install_spec(spec).unwrap_or_else(|e| fail(&e)),
        None => {
            eole_bench::faults::install_from_env().unwrap_or_else(|e| fail(&e));
        }
    }
    if let Some(summary) = eole_bench::faults::current_summary() {
        eprintln!("[experiments: FAULT INJECTION ACTIVE — {summary}]");
    }

    let mut builder = Session::builder()
        .runner(runner)
        .shard(shard)
        .intervals(intervals)
        .interval_warmup(interval_warmup)
        .run_deadline(run_deadline);
    if let Some(dir) = &store_dir {
        builder = builder.store_dir(dir.clone());
    }
    let session = builder.build().unwrap_or_else(|e| fail(&e));
    let set = ExperimentSet::with_session(session, all_workloads());

    let start = std::time::Instant::now();
    let selected: Vec<String> = if names.iter().any(|n| n == "all") {
        EXPERIMENT_NAMES.iter().map(|n| n.to_string()).collect()
    } else {
        names
    };
    let mut reports: Vec<ExperimentReport> = Vec::with_capacity(selected.len());
    let mut populated = 0usize;
    for name in &selected {
        match set.by_name(name) {
            Ok(mut report) => {
                if let Some(p) = set.session().intervals() {
                    report.push_note(format!(
                        "interval-stitched: k={} warmup={} µ-ops (committed counts exact, \
                         cycles within the pinned budget — see PERF.md)",
                        p.k, p.warmup
                    ));
                }
                reports.push(report);
            }
            // A populate pass owns only part of each grid: foreign cells
            // surface as NotInShard, which just means "this experiment's
            // report belongs to the merge pass".
            Err(RunError::NotInShard { .. }) if !shard.is_full() => populated += 1,
            Err(e) => fail(&e.to_string()),
        }
    }

    if shard.is_full() {
        let payload = set.session().render(&reports, format);
        match &out_path {
            Some(path) => {
                Session::write_payload(path, &payload).unwrap_or_else(|e| fail(&e));
                eprintln!("[written to {path}]");
            }
            None => print!("{payload}"),
        }
    } else {
        eprintln!(
            "[shard {shard}: populate pass, no reports emitted ({} complete, {populated} partial)]",
            reports.len()
        );
    }
    eprintln!(
        "[{} report(s), warmup {} + measure {} µ-ops per run, {}, {:.1}s]",
        reports.len(),
        runner.warmup,
        runner.measure,
        set.session().accounting(),
        start.elapsed().as_secs_f64()
    );
    if assert_cached && set.executor().simulated() > 0 {
        eprintln!(
            "[FAIL: --assert-cached but {} run(s) were simulated instead of served from the store]",
            set.executor().simulated()
        );
        std::process::exit(1);
    }
    if assert_warm_cached && set.executor().warm_built() > 0 {
        eprintln!(
            "[FAIL: --assert-warm-cached but {} warm checkpoint(s) were rebuilt instead of \
             served from the store]",
            set.executor().warm_built()
        );
        std::process::exit(1);
    }
}
