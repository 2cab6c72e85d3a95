//! The serial workloads, `vp_steady` and `mem_bound`: one thread runs
//! steady-state simulations (`Runner::try_run_timed`) back to back, one
//! round at a time over every (preset, kernel) cell.

use std::time::Instant;

use eole_bench::{RunSpec, Runner};
use eole_core::config::CoreConfig;
use eole_core::pipeline::{PreparedTrace, Simulator};
use eole_core::stats::SimStats;

use crate::spans::{SpanId, Tracer, ROOT};
use crate::summary::{self, median, ratio};
use crate::{layers, Args, Outcome, MAX_PHASE_SECONDS, MIN_ROUNDS};

/// A serial workload: presets × cache-resident or memory-bound kernels.
pub struct Serial {
    pub presets: fn() -> Vec<CoreConfig>,
    pub kernels: &'static [&'static str],
    pub runner: Runner,
}

/// VP-on presets on value-predictable, cache-resident kernels: the value
/// predictor and the pipeline do most of the work.
pub const VP_STEADY: Serial = Serial {
    presets: || {
        vec![
            CoreConfig::baseline_vp_6_64(),
            CoreConfig::eole_4_64(),
            CoreConfig::eole_dvtage_4_64(),
        ]
    },
    kernels: &["gzip", "namd", "hmmer", "h264", "crafty"],
    runner: Runner {
        warmup: 50_000,
        measure: 150_000,
    },
};

/// VP off on DRAM- and cache-bound kernels: the memory hierarchy and
/// idle-cycle fast-forward dominate, the value predictor does nothing.
pub const MEM_BOUND: Serial = Serial {
    presets: || vec![CoreConfig::baseline_6_64()],
    kernels: &["mcf", "lbm", "milc", "parser"],
    runner: Runner {
        warmup: 50_000,
        measure: 100_000,
    },
};

/// What the rounds observed of one cell: the first round's statistics
/// (every later round must match them) and the best timings, untraced and
/// traced.
#[derive(Default)]
struct CellRecord {
    stats: Option<SimStats>,
    untraced: Option<Timing>,
    traced: Option<Timing>,
}

/// Seconds of one run: the whole call and, where the run is decomposed,
/// its phases.
#[derive(Clone, Copy, Default)]
struct Timing {
    run_s: f64,
    build_s: f64,
    warmup_s: f64,
    measure_s: f64,
}

impl Timing {
    /// The field-wise best of two timings.
    fn min(self, o: Timing) -> Timing {
        Timing {
            run_s: self.run_s.min(o.run_s),
            build_s: self.build_s.min(o.build_s),
            warmup_s: self.warmup_s.min(o.warmup_s),
            measure_s: self.measure_s.min(o.measure_s),
        }
    }
}

/// The traced form of `Runner::try_run_timed`: the same build, warmup,
/// reset and measure calls, each inside its own span.
fn run_traced(
    runner: Runner,
    trace: &PreparedTrace,
    config: CoreConfig,
    tracer: &Tracer,
    parent: SpanId,
    run: u64,
) -> Result<(SimStats, Timing), String> {
    let (sim, build_s) = tracer.span("core.pipeline.build", parent, run, |_| {
        Simulator::new(trace, config)
    });
    let mut sim = sim.map_err(|e| format!("build failed: {e}"))?;
    let (r, warmup_s) = tracer.span("core.pipeline.warmup", parent, run, |_| {
        sim.run(runner.warmup)
    });
    r.map_err(|e| format!("warmup failed: {e}"))?;
    sim.begin_measurement();
    let (r, measure_s) = tracer.span("core.pipeline.measure", parent, run, |_| {
        sim.run(runner.measure)
    });
    r.map_err(|e| format!("measure failed: {e}"))?;
    Ok((
        sim.stats(),
        Timing {
            run_s: 0.0,
            build_s,
            warmup_s,
            measure_s,
        },
    ))
}

/// The per-run checks: the measure window ends within one commit group
/// of its target, and used predictions split exactly into correct and
/// wrong ones.
fn check_run(s: &SimStats, runner: Runner, commit_width: usize) -> Result<(), String> {
    let window = runner.measure..runner.measure + commit_width as u64;
    if !window.contains(&s.committed) {
        return Err(format!("committed {} outside {window:?}", s.committed));
    }
    if s.vp_used_correct + s.vp_used_wrong != s.vp_used {
        return Err(format!(
            "vp_used_correct {} + vp_used_wrong {} != vp_used {}",
            s.vp_used_correct, s.vp_used_wrong, s.vp_used
        ));
    }
    if s.cycles == 0 {
        return Err("zero cycles".into());
    }
    Ok(())
}

pub fn run(w: &Serial, args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let prepared = summary::prepare(w.kernels, w.runner, tracer)?;
    // Workload-major cells, as `Grid` enumerates them.
    let cells: Vec<(RunSpec, usize)> = prepared
        .workloads
        .iter()
        .enumerate()
        .flat_map(|(k, wl)| {
            (w.presets)().into_iter().map(move |config| {
                let spec = RunSpec {
                    config,
                    workload: wl.clone(),
                    runner: w.runner,
                    seed: args.seed,
                };
                (spec, k)
            })
        })
        .collect();
    let configs: Vec<CoreConfig> = cells.iter().map(|(s, _)| s.effective_config()).collect();

    let mut out = Outcome::default();
    let mut record: Vec<CellRecord> = cells.iter().map(|_| CellRecord::default()).collect();
    let start = Instant::now();
    let mut round = 0u64;
    // Whole rounds until the time is up; a traced run alternates
    // untraced and traced rounds so the difference is the tracing
    // overhead.
    while (start.elapsed().as_secs_f64() < args.seconds || round < MIN_ROUNDS)
        && start.elapsed().as_secs_f64() < MAX_PHASE_SECONDS
    {
        let traced = args.trace && round % 2 == 1;
        tracer.set_recording(traced);
        tracer.span("round", ROOT, round, |round_span| {
            for (i, (spec, k)) in cells.iter().enumerate() {
                out.attempted += 1;
                let trace = &prepared.traces[*k];
                let run_id = round * cells.len() as u64 + i as u64;
                let result = if traced {
                    // The whole traced run, span bookkeeping included, so
                    // that its excess over an untraced run is the overhead.
                    let (r, run_s) = tracer.span("run", round_span, run_id, |id| {
                        run_traced(w.runner, trace, configs[i].clone(), tracer, id, run_id)
                    });
                    r.map(|(s, t)| (s, Timing { run_s, ..t }))
                } else {
                    let t0 = Instant::now();
                    w.runner
                        .try_run_timed(trace, configs[i].clone())
                        .map(|(s, measure_s)| {
                            let run_s = t0.elapsed().as_secs_f64();
                            (
                                s,
                                Timing {
                                    run_s,
                                    measure_s,
                                    ..Timing::default()
                                },
                            )
                        })
                        .map_err(|e| e.to_string())
                };
                let label = spec.label();
                let (s, t) = match result {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("{label} round {round}: {e}"));
                        continue;
                    }
                };
                // Simulated statistics are exact: every round, traced or
                // not, must reproduce the first observation bit for bit.
                let rec = &mut record[i];
                let checked = check_run(&s, w.runner, configs[i].commit_width).and_then(|()| {
                    match &rec.stats {
                        Some(first) if format!("{first:?}") != format!("{s:?}") => {
                            Err("statistics differ from the first round".into())
                        }
                        _ => Ok(()),
                    }
                });
                if let Err(e) = checked {
                    out.fail(format!("{label} round {round}: {e}"));
                    continue;
                }
                rec.stats.get_or_insert(s);
                let slot = if traced {
                    &mut rec.traced
                } else {
                    &mut rec.untraced
                };
                *slot = Some(slot.map_or(t, |b| b.min(t)));
            }
        });
        round += 1;
    }
    tracer.set_recording(false);

    // Host time is taken at each cell's best round (see the README); the
    // simulated counters are the same in every round.
    let stats: Vec<SimStats> = record.iter().filter_map(|r| r.stats).collect();
    let committed: u64 = stats.iter().map(|s| s.committed).sum();
    let sum = |pick: fn(&CellRecord) -> Option<Timing>, field: fn(Timing) -> f64| -> f64 {
        record.iter().filter_map(pick).map(field).sum()
    };
    let m = &mut out.metrics;
    if args.trace {
        summary::sim_counters(m, &stats);
        let traced = |field| sum(|r| r.traced, field);
        let measure_s = traced(|t| t.measure_s);
        m.insert("core.pipeline.build_ms", traced(|t| t.build_s) * 1e3);
        m.insert("core.pipeline.warmup_s", traced(|t| t.warmup_s));
        m.insert("core.pipeline.measure_s", measure_s);
        m.insert(
            "core.pipeline.host_ns_per_uop",
            ratio(measure_s * 1e9, committed as f64),
        );
        let cycles = m["core.pipeline.cycles"];
        m.insert(
            "core.pipeline.host_ns_per_cycle",
            ratio(measure_s * 1e9, cycles),
        );
        m.insert(
            "trace.overhead_s",
            traced(|t| t.run_s) - sum(|r| r.untraced, |t| t.run_s),
        );
        tracer.set_recording(true);
        let traces: Vec<&PreparedTrace> = prepared.traces.iter().collect();
        let (presets, _) = configs.split_at((w.presets)().len());
        tracer.span("layers", ROOT, 0, |id| {
            layers::replay(m, presets, &traces, tracer, id)
        });
        m.insert("workloads.trace_s", prepared.trace_s);
        m.insert("isa.prepare_s", prepared.prepare_s);
    } else {
        let run_ms: Vec<f64> = record
            .iter()
            .filter_map(|r| r.untraced)
            .map(|t| t.run_s * 1e3)
            .collect();
        let (tail, pct) = summary::tail(&run_ms);
        m.insert("setup_s", prepared.setup_s);
        m.insert("wall_s", run_ms.iter().sum::<f64>() / 1e3);
        let measure_s = sum(|r| r.untraced, |t| t.measure_s);
        m.insert("sim_mups", ratio(committed as f64, measure_s) / 1e6);
        m.insert("run_ms_p50", median(&run_ms));
        m.insert("run_ms_tail", tail);
        m.insert("peak_rss_mb", summary::peak_rss_mb());
        m.insert(
            "sim_ipc_gmean",
            summary::gmean(&stats.iter().map(SimStats::ipc).collect::<Vec<_>>()),
        );
        eprintln!(
            "  {round} rounds of {} cells; times are per-cell bests over rounds; \
             run_ms_tail is p{pct} of n={} cells",
            cells.len(),
            run_ms.len()
        );
    }
    Ok(out)
}
