//! Quickstart: simulate one workload on the paper's three headline
//! configurations — described as a [`Grid`], executed by a [`Session`]'s
//! job queue, reported as an [`ExperimentReport`].
//!
//! Run with: `cargo run --release --example quickstart [workload]`

use eole::prelude::*;
use eole_bench::{Grid, Runner, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "namd".to_string());
    let workload = workload_by_name(&name)
        .unwrap_or_else(|| panic!("unknown workload {name}; try one of Table 3's names"));
    println!("workload: {} — {}", workload.name, workload.description);

    let runner = Runner { warmup: 50_000, measure: 100_000 };
    let grid = Grid::new()
        .runner(runner)
        .workload(workload)
        .configs([
            CoreConfig::baseline_6_64(),
            CoreConfig::baseline_vp_6_64(),
            CoreConfig::eole_4_64(),
        ]);
    let results = Session::new(runner).run(&grid);
    println!(
        "trace: prepared once, shared across {} configs\n",
        grid.config_list().len()
    );

    let mut report = ExperimentReport::new("quickstart", format!("{name}: baseline vs VP vs EOLE"))
        .column("config")
        .column_unit("IPC", "µ-ops/cycle")
        .column_unit("VP coverage", "%")
        .column_unit("VP accuracy", "%")
        .column_unit("early", "%")
        .column_unit("late ALU", "%")
        .column_unit("late br", "%")
        .column_unit("offload", "%");
    for r in &results {
        let s = r.outcome.as_ref().map_err(|e| e.to_string())?;
        report.add_row(vec![
            r.spec.config.name.as_str().into(),
            Cell::Num(s.ipc()),
            Cell::Num(s.vp_coverage() * 100.0),
            Cell::Num(s.vp_accuracy() * 100.0),
            Cell::Num(s.early_exec_fraction() * 100.0),
            Cell::Num(s.late_alu_fraction() * 100.0),
            Cell::Num(s.late_branch_fraction() * 100.0),
            Cell::Num(s.offload_fraction() * 100.0),
        ]);
    }
    println!("{}", report.render_text());
    println!("(EOLE_4_64 runs a 33% narrower out-of-order engine than Baseline_VP_6_64.)");
    println!("\nThe same report as machine-readable JSON:\n{}", report.to_json());
    Ok(())
}
