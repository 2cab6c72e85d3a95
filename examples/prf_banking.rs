//! The paper's §6.3 register-file study in miniature: banked PRFs
//! (Fig. 10) and restricted LE/VT read ports (Fig. 11), plus the §6.2
//! port/area arithmetic — one grid, one session pass, two reports.
//!
//! Run with: `cargo run --release --example prf_banking [workload]`

use eole::prelude::*;
use eole_bench::{Grid, Runner, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "namd".to_string());
    let workload = workload_by_name(&name).expect("known workload");

    let runner = Runner { warmup: 30_000, measure: 120_000 };
    let grid = Grid::new()
        .runner(runner)
        .workload(workload)
        .config(CoreConfig::eole_4_64()) // unbanked reference, first
        .configs([
            CoreConfig::eole_4_64_banked(2),
            CoreConfig::eole_4_64_banked(4),
            CoreConfig::eole_4_64_banked(8),
            CoreConfig::eole_4_64_ports(4, 2),
            CoreConfig::eole_4_64_ports(4, 3),
            CoreConfig::eole_4_64_ports(4, 4),
        ]);
    let results = Session::new(runner).run(&grid);
    let reference = results[0].expect_stats().ipc();

    let mut report = ExperimentReport::new(
        "prf_banking",
        format!("{name}: PRF banking & LE/VT ports (relative to unbanked EOLE_4_64)"),
    )
    .column("config")
    .column_unit("IPC", "µ-ops/cycle")
    .column_unit("relative", "×")
    .column_unit("rename PRF stalls", "count")
    .column_unit("LE/VT port stalls", "count");
    for r in &results[1..] {
        let s = r.expect_stats();
        report.add_row(vec![
            r.spec.config.name.as_str().into(),
            Cell::Num(s.ipc()),
            Cell::Num(s.ipc() / reference),
            Cell::Int(s.stall_prf),
            Cell::Int(s.levt_port_stalls),
        ]);
    }
    println!("{}", report.render_text());

    // §6.2/6.3 arithmetic: ports and relative area.
    let base6 = PrfPortModel::new(6, 8, 8, false, false);
    let vp6 = PrfPortModel::new(6, 8, 8, true, false);
    let eole4 = PrfPortModel::new(4, 8, 8, true, true);
    let mut ports = ExperimentReport::new(
        "prf_ports",
        "register-file ports (§6.2) and area model (R+W)(R+2W)",
    )
    .column("organization")
    .column_unit("reads", "ports")
    .column_unit("writes", "ports")
    .column_unit("relative area", "×");
    for (label, pc) in [
        ("Baseline_6_64 (monolithic)", base6.monolithic()),
        ("Baseline_VP_6_64 (monolithic)", vp6.monolithic()),
        ("EOLE_4_64 (monolithic)", eole4.monolithic()),
        ("EOLE_4_64 (4 banks, 4 LE/VT ports) per bank", eole4.banked(4, 4)),
    ] {
        ports.add_row(vec![
            label.into(),
            Cell::Int(pc.reads as u64),
            Cell::Int(pc.writes as u64),
            Cell::Num(pc.relative_area() / base6.monolithic().relative_area()),
        ]);
    }
    println!("{}", ports.render_text());
    println!("Banked EOLE lands on exactly the 6-issue baseline's per-bank ports (the paper's §6.3 punchline).");
    Ok(())
}
