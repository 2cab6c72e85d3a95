//! Per-component cost outside the pipeline, driven from the same prepared
//! traces the timed runs use: the value predictor through
//! `evaluate_stream`, TAGE through `DirectionPredictor::predict`/`update`,
//! and the memory hierarchy through `MemoryHierarchy::load`/`store`.

use std::collections::BTreeMap;

use eole_core::config::{CoreConfig, ValuePredictorKind, VpConfig};
use eole_core::pipeline::PreparedTrace;
use eole_isa::{InstClass, Program};
use eole_mem::hierarchy::MemoryHierarchy;
use eole_predictors::branch::{DirectionPredictor, Tage};
use eole_predictors::value::{
    evaluate_stream, DVtage, Fcm, LastValue, StridePredictor, TwoDeltaStride, ValuePredictor,
    Vtage, VtageTwoDeltaStride,
};

use crate::spans::{SpanId, Tracer};
use crate::summary::{best, ratio};

/// Repetitions of each replay; the reported cost is the best.
const REPS: usize = 3;

/// The value predictor a VP configuration drives (the pipeline wraps the
/// same predictor behind its block front).
fn value_predictor(vp: &VpConfig) -> Box<dyn ValuePredictor> {
    match vp.kind {
        ValuePredictorKind::VtageTwoDeltaStride => Box::new(VtageTwoDeltaStride::paper(vp.seed)),
        ValuePredictorKind::Vtage => Box::new(Vtage::paper(vp.seed)),
        ValuePredictorKind::TwoDeltaStride => Box::new(TwoDeltaStride::paper(vp.seed)),
        ValuePredictorKind::Stride => Box::new(StridePredictor::new(8192, vp.seed)),
        ValuePredictorKind::LastValue => Box::new(LastValue::new(8192, vp.seed)),
        ValuePredictorKind::Fcm => Box::new(Fcm::new(8192, 8192, vp.seed)),
        ValuePredictorKind::DVtage => Box::new(DVtage::paper(vp.block_size, vp.banks, vp.seed)),
    }
}

/// Replays each component over every trace ([`REPS`] times) and inserts
/// `predictors.value.lookup_ns`/`.lookups`, `predictors.branch.lookup_ns`
/// and `mem.access_ns`. `configs` are the workload's effective (seeded)
/// configurations: the value predictor is replayed once per distinct VP
/// configuration; TAGE and the hierarchy once per trace, from the first
/// configuration (presets share both).
pub fn replay(
    m: &mut BTreeMap<&'static str, f64>,
    configs: &[CoreConfig],
    traces: &[&PreparedTrace],
    tracer: &Tracer,
    parent: SpanId,
) {
    let streams: Vec<Vec<(u64, u32, u64)>> =
        traces.iter().map(|t| eole_bench::vp_stream(t)).collect();
    let (mut value_s, mut branch_s, mut mem_s) = (Vec::new(), Vec::new(), Vec::new());
    // Presets that share a value-predictor configuration share its cost.
    let mut seen = Vec::new();
    let vps: Vec<&VpConfig> = configs
        .iter()
        .filter_map(|c| c.vp.as_ref())
        .filter(|vp| {
            let key = format!("{vp:?}");
            !seen.contains(&key) && {
                seen.push(key);
                true
            }
        })
        .collect();
    let (mut lookups, mut branches, mut accesses) = (0u64, 0u64, 0u64);
    for rep in 0..REPS as u64 {
        let (mut v, mut b, mut a) = (0.0, 0.0, 0.0);
        lookups = 0;
        for vp in &vps {
            for (trace, stream) in traces.iter().zip(&streams) {
                let mut p = value_predictor(vp);
                let (stats, secs) = tracer.span("predictors.value.replay", parent, rep, |_| {
                    evaluate_stream(&mut *p, trace.history(), stream.iter().copied())
                });
                std::hint::black_box(stats);
                lookups += stats.attempted;
                v += secs;
            }
        }
        let Some(config) = configs.first() else { break };
        (branches, accesses) = (0, 0);
        for trace in traces {
            let mut tage = Tage::paper(config.branch_seed);
            let (n, secs) = tracer.span("predictors.branch.replay", parent, rep, |_| {
                let mut n = 0u64;
                for di in trace
                    .insts()
                    .iter()
                    .filter(|di| di.class() == InstClass::Branch)
                {
                    let pc = Program::inst_addr(di.pc);
                    let view = trace.history().view(di.bhist_pos as usize);
                    std::hint::black_box(tage.predict(pc, view));
                    tage.update(pc, view, di.taken);
                    n += 1;
                }
                n
            });
            branches += n;
            b += secs;

            let mut mem = MemoryHierarchy::new(&config.mem);
            let (n, secs) = tracer.span("mem.replay", parent, rep, |_| {
                // A monotone clock: each µ-op advances it by one cycle
                // and a load's completion can only push it forward.
                let (mut cycle, mut n) = (0u64, 0u64);
                for di in trace.insts() {
                    let pc = Program::inst_addr(di.pc);
                    match di.class() {
                        InstClass::Load => {
                            cycle = cycle.max(mem.load(pc, di.addr, cycle));
                            n += 1;
                        }
                        InstClass::Store => {
                            mem.store(pc, di.addr, cycle);
                            n += 1;
                        }
                        _ => {}
                    }
                    cycle += 1;
                }
                n
            });
            std::hint::black_box(mem.stats());
            accesses += n;
            a += secs;
        }
        value_s.push(v);
        branch_s.push(b);
        mem_s.push(a);
    }
    m.insert("predictors.value.lookups", lookups as f64);
    m.insert(
        "predictors.value.lookup_ns",
        ratio(best(&value_s) * 1e9, lookups as f64),
    );
    m.insert(
        "predictors.branch.lookup_ns",
        ratio(best(&branch_s) * 1e9, branches as f64),
    );
    m.insert("mem.access_ns", ratio(best(&mem_s) * 1e9, accesses as f64));
}
