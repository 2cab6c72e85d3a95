//! Offline comparison of every value predictor in the crate (the §2
//! taxonomy: computational vs context-based) on real workload value
//! streams.
//!
//! Coverage = fraction of eligible µ-ops with a *saturated-confidence*
//! prediction (the only ones the pipeline may use); accuracy = correctness
//! of those. The FPC design goal is accuracy ≈ 100 % at whatever coverage
//! the program's value locality allows.
//!
//! Run with: `cargo run --release --example predictor_showdown [workload]`

use eole::predictors::history::BranchHistory;
use eole::predictors::value::{
    evaluate_stream, DVtage, Fcm, LastValue, StridePredictor, TwoDeltaStride, ValuePredictor,
    Vtage, VtageTwoDeltaStride,
};
use eole::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "wupwise".to_string());
    let workload = workload_by_name(&name).expect("known workload");
    let trace = workload.trace(200_000)?;
    let history = BranchHistory::from_outcomes(&trace.branch_outcomes);

    // The (pc, history position, value) stream of VP-eligible µ-ops.
    let stream: Vec<(u64, u32, u64)> = trace
        .insts
        .iter()
        .filter(|d| trace.text[usize::from(d.pc)].is_vp_eligible())
        .map(|d| (Program::inst_addr(d.pc), d.bhist_pos, d.result))
        .collect();
    println!("workload {name}: {} eligible µ-ops of {}\n", stream.len(), trace.insts.len());

    let mut predictors: Vec<Box<dyn ValuePredictor>> = vec![
        Box::new(LastValue::new(8192, 1)),
        Box::new(StridePredictor::new(8192, 2)),
        Box::new(TwoDeltaStride::paper(3)),
        Box::new(Fcm::new(8192, 8192, 4)),
        Box::new(Vtage::paper(5)),
        Box::new(VtageTwoDeltaStride::paper(6)),
        Box::new(DVtage::paper(4, 4, 7)),
    ];

    let mut report = ExperimentReport::new("predictor_showdown", "value predictor showdown")
        .column("predictor")
        .column_unit("size", "KB")
        .column_unit("coverage", "%")
        .column_unit("accuracy", "%")
        .column_unit("raw correct", "%");
    for p in predictors.iter_mut() {
        let stats = evaluate_stream(p.as_mut(), &history, stream.iter().copied());
        report.add_row(vec![
            p.name().into(),
            Cell::Num(p.storage_bits() as f64 / 8.0 / 1024.0),
            Cell::Num(stats.coverage() * 100.0),
            Cell::Num(stats.accuracy() * 100.0),
            Cell::Num(stats.correct as f64 / stats.attempted as f64 * 100.0),
        ]);
    }
    println!("{}", report.render_text());
    // The same numbers, machine-readable (full precision, stdout).
    println!("{}", report.to_csv());
    Ok(())
}
