//! Order statistics, process counters, and the metrics every workload
//! derives the same way: trace set-up and the simulated counters.

use std::collections::BTreeMap;

use eole_bench::{RunError, Runner};
use eole_core::pipeline::PreparedTrace;
use eole_core::stats::SimStats;
use eole_workloads::Workload;

use crate::spans::{Tracer, ROOT};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest value; 0 when empty.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The tail of a sample, as (value, percentile): the highest of p75, p90,
/// p95, p99 and p99.9 (nearest rank) with at least ten samples beyond
/// it, or the maximum (p100) when the sample is too small for any.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|p| {
            let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
            (n >= rank + 10).then(|| (v[rank - 1], p))
        })
        .unwrap_or((v.last().copied().unwrap_or(0.0), 100.0))
}

/// Geometric mean; 0 when empty or when any value is not positive.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// This process's peak resident set (Linux `VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads included
/// (also those that have exited), from `/proc/self/stat` at the usual
/// 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| {
        rest.split_whitespace()
            .nth(i - 3)
            .and_then(|x| x.parse::<u64>().ok())
    };
    match (field(14), field(15)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

/// Prepared traces of a workload's kernels plus set-up timings.
pub struct Prepared {
    pub workloads: Vec<Workload>,
    pub traces: Vec<PreparedTrace>,
    /// Median set-up seconds (trace generation + `PreparedTrace` build).
    pub setup_s: f64,
    /// Median seconds in `Workload::trace`.
    pub trace_s: f64,
    /// Median seconds in `PreparedTrace::new`.
    pub prepare_s: f64,
}

/// Generates and prepares every kernel's trace [`SETUP_REPS`] times,
/// keeping the last set.
pub fn prepare(kernels: &[&str], runner: Runner, tracer: &Tracer) -> Result<Prepared, String> {
    let workloads = kernels
        .iter()
        .map(|k| eole_workloads::workload_by_name(k).ok_or(format!("unknown kernel {k}")))
        .collect::<Result<Vec<_>, _>>()?;
    let (mut setup, mut trace_s, mut prepare_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traces = Vec::new();
    for rep in 0..SETUP_REPS {
        let (mut gen, mut prep) = (0.0, 0.0);
        let (built, secs) = tracer.span("setup", ROOT, rep as u64, |id| {
            workloads
                .iter()
                .map(|w| {
                    let (raw, g) = tracer.span("workloads.trace", id, rep as u64, |_| {
                        w.trace(runner.trace_len())
                    });
                    let raw = raw.map_err(|e| {
                        RunError::Kernel {
                            workload: w.name.into(),
                            reason: e.to_string(),
                        }
                        .to_string()
                    })?;
                    let (t, p) =
                        tracer.span("isa.prepare", id, rep as u64, |_| PreparedTrace::new(raw));
                    gen += g;
                    prep += p;
                    Ok(t)
                })
                .collect::<Result<Vec<_>, String>>()
        });
        traces = built?;
        setup.push(secs);
        trace_s.push(gen);
        prepare_s.push(prep);
    }
    Ok(Prepared {
        workloads,
        traces,
        setup_s: median(&setup),
        trace_s: median(&trace_s),
        prepare_s: median(&prepare_s),
    })
}

/// The simulated-counter metrics of a set of runs (sums over runs, then
/// ratios): exact, so they repeat bit for bit at a fixed seed.
pub fn sim_counters(m: &mut BTreeMap<&'static str, f64>, runs: &[SimStats]) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let committed = sum(&|s| s.committed);
    m.insert("core.pipeline.committed", committed);
    m.insert("core.pipeline.cycles", sum(&|s| s.cycles));
    m.insert(
        "core.pipeline.useful_ratio",
        ratio(committed, sum(&|s| s.fetched)),
    );
    let used = sum(&|s| s.vp_used);
    m.insert(
        "predictors.value.used_ratio",
        ratio(used, sum(&|s| s.vp_eligible)),
    );
    m.insert(
        "predictors.value.accuracy",
        ratio(sum(&|s| s.vp_used_correct), used),
    );
    m.insert("predictors.value.block_reads", sum(&|s| s.vp_block_reads));
    m.insert("predictors.value.squashes", sum(&|s| s.vp_squashes));
    m.insert(
        "predictors.branch.mispredict_ratio",
        ratio(
            sum(&|s| s.branch_mispredicts + s.hc_branch_mispredicts),
            sum(&|s| s.cond_branches),
        ),
    );
    m.insert(
        "mem.l1d_miss_ratio",
        ratio(sum(&|s| s.mem.l1d.misses), sum(&|s| s.mem.l1d.accesses)),
    );
    m.insert(
        "mem.l2_miss_ratio",
        ratio(sum(&|s| s.mem.l2.misses), sum(&|s| s.mem.l2.accesses)),
    );
    m.insert("mem.dram_accesses", sum(&|s| s.mem.dram.accesses));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&v[..40]), (30.0, 75.0));
        assert_eq!(tail(&v[..20]), (20.0, 100.0));
        assert_eq!(best(&v[3..]), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
