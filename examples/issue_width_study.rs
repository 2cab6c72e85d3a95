//! The paper's §5.2 in miniature: how much does shrinking the OoO issue
//! width hurt, with and without EOLE?
//!
//! Expected shape (paper Fig. 7): the VP baseline loses noticeably at
//! 4-issue; EOLE at 4-issue stays close to the 6-issue baseline because
//! 10–60 % of µ-ops bypass the OoO engine entirely.
//!
//! The whole study is one [`Grid`]: 4 configurations × N workloads,
//! scheduled run-by-run across the session's thread pool with the
//! prepared traces shared through its [`TraceCache`].
//!
//! Run with: `cargo run --release --example issue_width_study [workload ...]`

use eole::prelude::*;
use eole_bench::{Grid, Runner, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if args.is_empty() {
        vec!["applu".into(), "namd".into(), "crafty".into(), "hmmer".into()]
    } else {
        args
    };

    let configs = [
        CoreConfig::baseline_vp_6_64(), // normalization baseline, first
        CoreConfig::baseline_vp_4_64(),
        CoreConfig::eole_4_64(),
        CoreConfig::eole_6_64(),
    ];
    let runner = Runner { warmup: 30_000, measure: 120_000 };
    let mut grid = Grid::new()
        .runner(runner)
        .configs(configs.clone());
    for name in &names {
        grid = grid.workload(workload_by_name(name).expect("known workload"));
    }

    let session = Session::new(runner);
    let results = session.run(&grid);

    let mut report = ExperimentReport::new(
        "issue_width_study",
        "issue-width study (speedup over Baseline_VP_6_64)",
    )
    .column("bench")
    .columns_unit(configs[1..].iter().map(|c| c.name.clone()), "×")
    .column_unit("offload@EOLE_4_64", "%");
    for (w, chunk) in names.iter().zip(results.chunks(configs.len())) {
        let stats: Vec<&SimStats> =
            chunk.iter().map(|r| r.expect_stats()).collect();
        let base = stats[0].ipc();
        report.add_row(vec![
            w.as_str().into(),
            Cell::Num(stats[1].ipc() / base),
            Cell::Num(stats[2].ipc() / base),
            Cell::Num(stats[3].ipc() / base),
            Cell::Num(stats[2].offload_fraction() * 100.0),
        ]);
    }
    println!("{}", report.render_text());
    eprintln!(
        "[{} runs, {} trace(s) prepared once each]",
        grid.len(),
        session.cache().generated()
    );
    Ok(())
}
