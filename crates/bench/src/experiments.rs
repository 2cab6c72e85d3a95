//! One function per table/figure of the paper's evaluation.
//!
//! Each experiment builds a [`Grid`], hands it to the shared
//! [`Session`] (one [`TraceCache`](crate::TraceCache) across the whole
//! set, so a workload's trace is generated once no matter how many
//! experiments replay it), and folds the per-run statistics into an
//! [`ExperimentReport`] whose rows follow the paper's benchmark order;
//! speedup figures append a geometric-mean row. `EXPERIMENTS.md` records
//! the paper-vs-measured comparison for each, plus the JSON schema the
//! reports serialize to.

use eole_core::complexity::PrfPortModel;
use eole_core::config::{CoreConfig, ValuePredictorKind};
use eole_core::stats::SimStats;
use eole_predictors::value::{
    evaluate_stream, DVtage, DVtageConfig, EvalStats, TwoDeltaStride, ValuePredictor, Vtage,
    VtageTwoDeltaStride,
};
use eole_stats::report::{Cell, ExperimentReport};
use eole_stats::summary::geometric_mean;
use eole_workloads::{all_workloads, Workload};

use crate::exec::RunError;
use crate::session::Session;
use crate::spec::Grid;
use crate::Runner;

/// Paper Table 3 baseline IPCs, in suite order (for shape comparison).
pub const PAPER_IPC: [(&str, f64); 19] = [
    ("gzip", 0.984),
    ("wupwise", 1.553),
    ("applu", 1.591),
    ("vpr", 1.326),
    ("art", 1.211),
    ("crafty", 1.769),
    ("parser", 0.544),
    ("vortex", 1.781),
    ("bzip2", 0.888),
    ("gcc", 1.055),
    ("gamess", 1.929),
    ("mcf", 0.105),
    ("milc", 0.459),
    ("namd", 1.860),
    ("gobmk", 0.766),
    ("hmmer", 2.477),
    ("sjeng", 1.321),
    ("h264", 1.312),
    ("lbm", 0.748),
];

/// Every experiment name the harness knows, in paper order.
pub const EXPERIMENT_NAMES: [&str; 20] = [
    "table1", "table2", "table3", "fig2", "fig4", "offload", "fig6", "fig7", "fig8",
    "fig10", "fig11", "fig12", "fig13", "vp_ablation", "ee_writes", "squash_cost",
    "levt_depth_ablation", "dvtage_budget", "bebop_block_size", "complexity",
];

/// Driver for the full experiment suite.
pub struct ExperimentSet {
    workloads: Vec<Workload>,
    session: Session,
}

impl ExperimentSet {
    /// Builds a set over the full Table 3 suite with a plain session
    /// (no result store, no shard restriction).
    pub fn new(runner: Runner) -> Self {
        Self::with_session(Session::new(runner), all_workloads())
    }

    /// Restricts the suite to the named workloads (smoke tests).
    pub fn with_workloads(runner: Runner, names: &[&str]) -> Self {
        let workloads =
            all_workloads().into_iter().filter(|w| names.contains(&w.name)).collect();
        Self::with_session(Session::new(runner), workloads)
    }

    /// Builds a set over an explicit [`Session`] — the way the CLI wires
    /// in a persistent result store and/or a shard restriction.
    pub fn with_session(session: Session, workloads: Vec<Workload>) -> Self {
        ExperimentSet { workloads, session }
    }

    /// The session driving the runs (its [`crate::TraceCache`] and store
    /// counters show trace/result sharing across experiments).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Runs `configs` over every workload of the set and returns, per
    /// workload (suite order), the statistics per config (input order).
    fn run_grid(&self, configs: Vec<CoreConfig>) -> Result<Vec<Vec<SimStats>>, RunError> {
        let n_configs = configs.len();
        let grid = Grid::new()
            .runner(self.session.runner())
            .workloads(self.workloads.iter().cloned())
            .configs(configs);
        let results = self.session.run(&grid);
        // Real failures outrank shard skips: in a `--shard` populate pass
        // roughly every other cell is a benign NotInShard, and the first
        // one in grid order must not mask a genuine Sim/Store/Kernel
        // error on a cell this process *does* own.
        if let Some(real) = results.iter().find_map(|r| match &r.outcome {
            Err(e) if !matches!(e, RunError::NotInShard { .. }) => Some(e.clone()),
            _ => None,
        }) {
            return Err(real);
        }
        let mut per_workload = Vec::with_capacity(self.workloads.len());
        for chunk in results.chunks(n_configs) {
            let mut stats = Vec::with_capacity(n_configs);
            for r in chunk {
                stats.push(*r.stats().map_err(Clone::clone)?);
            }
            per_workload.push(stats);
        }
        Ok(per_workload)
    }

    /// Per-workload speedup report: `configs` normalized to `baseline`.
    fn speedup_report(
        &self,
        id: &str,
        title: &str,
        baseline: CoreConfig,
        configs: &[CoreConfig],
    ) -> Result<ExperimentReport, RunError> {
        let names: Vec<String> = configs.iter().map(|c| c.name.clone()).collect();
        let mut report = ExperimentReport::new(id, title)
            .column("bench")
            .columns_unit(names, "×");
        let mut all = vec![baseline];
        all.extend_from_slice(configs);
        let rows = self.run_grid(all)?;
        let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
        for (w, stats) in self.workloads.iter().zip(&rows) {
            let base = stats[0].ipc();
            let mut cells: Vec<Cell> = vec![w.name.into()];
            for (i, s) in stats[1..].iter().enumerate() {
                let speed = s.ipc() / base;
                cells.push(Cell::Num(speed));
                per_config[i].push(speed);
            }
            report.add_row(cells);
        }
        let mut gm: Vec<Cell> = vec!["gmean".into()];
        for col in &per_config {
            gm.push(Cell::Num(geometric_mean(col).unwrap_or(0.0)));
        }
        report.add_row(gm);
        Ok(report)
    }

    /// Table 1: the simulated configuration (static dump for the record).
    pub fn table1(&self) -> Result<ExperimentReport, RunError> {
        let c = CoreConfig::baseline_6_64();
        let mut t = ExperimentReport::new("table1", "Table 1 — simulator configuration")
            .column("parameter")
            .column("value");
        let rows: Vec<(&str, String)> = vec![
            ("fetch/rename/commit width", format!("{}/{}/{} µ-ops", c.fetch_width, c.rename_width, c.commit_width)),
            ("issue width", format!("{} (4 in EOLE_4_*)", c.issue_width)),
            ("ROB / IQ / LQ / SQ", format!("{} / {} / {} / {}", c.rob_entries, c.iq_entries, c.lq_entries, c.sq_entries)),
            ("PRF", format!("{} INT + {} FP", c.int_prf, c.fp_prf)),
            ("front-end depth", format!("{} cycles (+1 LE/VT with VP)", c.frontend_depth)),
            ("branch predictor", "TAGE 1+12 comps, 2-way 4K BTB, 32-entry RAS".into()),
            ("memory dependence", "Store Sets 1K SSIT / 128 SSIDs".into()),
            ("FUs", format!("{} ALU(1c), {} MulDiv(3c/25c*), {} FP(3c), {} FPMulDiv(5c/10c*), {} Ld/Str", c.fu.int_alu, c.fu.int_muldiv, c.fu.fp_alu, c.fu.fp_muldiv, c.fu.mem_ports)),
            ("L1I / L1D", "32 KB 4-way; L1D 2 cycles, 64 MSHRs".into()),
            ("L2", "2 MB 16-way, 12 cycles, stride prefetcher degree 8".into()),
            ("DRAM", "DDR3-ish: 75/130/185-cycle row hit/closed/conflict".into()),
            ("value predictor", "VTAGE-2DStride hybrid + 3-bit FPC {1,1/32×4,1/64×2}".into()),
        ];
        for (k, v) in rows {
            t.add_row(vec![k.into(), v.into()]);
        }
        Ok(t)
    }

    /// Table 2: predictor layout summary.
    pub fn table2(&self) -> Result<ExperimentReport, RunError> {
        let mut t = ExperimentReport::new("table2", "Table 2 — predictor layout")
            .column("predictor")
            .column("#entries")
            .column("tag")
            .column_unit("size", "KB")
            .column_unit("paper", "KB");
        let stride = TwoDeltaStride::paper(1);
        let vtage = Vtage::paper(1);
        let hybrid = VtageTwoDeltaStride::paper(1);
        let kb = |bits: u64| Cell::Num(bits as f64 / 8.0 / 1024.0);
        t.add_row(vec![
            "2D-Stride".into(),
            "8192".into(),
            "full (64)".into(),
            kb(stride.storage_bits()),
            "251.9".into(),
        ]);
        t.add_row(vec![
            "VTAGE".into(),
            "8192 base + 6×1024".into(),
            "12 + rank".into(),
            kb(vtage.storage_bits()),
            "68.7 + 64.1".into(),
        ]);
        t.add_row(vec![
            "hybrid total".into(),
            "-".into(),
            "-".into(),
            kb(hybrid.storage_bits()),
            "~385".into(),
        ]);
        Ok(t)
    }

    /// Table 3: per-benchmark baseline IPC (ours vs the paper's, for shape).
    pub fn table3(&self) -> Result<ExperimentReport, RunError> {
        let mut t = ExperimentReport::new("table3", "Table 3 — benchmarks and Baseline_6_64 IPC")
            .column("bench")
            .column("kind")
            .column_unit("ours", "IPC")
            .column_unit("paper", "IPC");
        let rows = self.run_grid(vec![CoreConfig::baseline_6_64()])?;
        for (w, stats) in self.workloads.iter().zip(&rows) {
            let paper = PAPER_IPC
                .iter()
                .find(|(n, _)| *n == w.name)
                .map(|(_, v)| Cell::Num(*v))
                .unwrap_or_else(|| "-".into());
            t.add_row(vec![
                w.name.into(),
                format!("{:?}", w.kind).to_uppercase().into(),
                Cell::Num(stats[0].ipc()),
                paper,
            ]);
        }
        Ok(t)
    }

    /// Fig. 2: fraction of committed µ-ops early-executable, 1 vs 2 EE
    /// stages (measured on the 6-issue EOLE pipeline, as in the paper).
    pub fn fig2(&self) -> Result<ExperimentReport, RunError> {
        let ee2 = CoreConfig::eole_6_64()
            .to_builder()
            .name("EOLE_6_64_2ee")
            .ee_stages(2)
            .build()
            .expect("preset variant is valid"); // lint:allow(error-typing) static preset authoring invariant, covered by preset tests
        let mut t = ExperimentReport::new("fig2", "Fig. 2 — early-executed fraction of committed µ-ops")
            .column("bench")
            .column_unit("1 ALU stage", "fraction")
            .column_unit("2 ALU stages", "fraction");
        let rows = self.run_grid(vec![CoreConfig::eole_6_64(), ee2])?;
        for (w, stats) in self.workloads.iter().zip(&rows) {
            t.add_row(vec![
                w.name.into(),
                Cell::Num(stats[0].early_exec_fraction()),
                Cell::Num(stats[1].early_exec_fraction()),
            ]);
        }
        Ok(t)
    }

    /// Fig. 4: fraction of committed µ-ops late-executable, split into
    /// high-confidence branches and value-predicted ALU µ-ops.
    pub fn fig4(&self) -> Result<ExperimentReport, RunError> {
        let mut t = ExperimentReport::new("fig4", "Fig. 4 — late-executed fraction of committed µ-ops")
            .column("bench")
            .column_unit("HC branches", "fraction")
            .column_unit("value-predicted ALU", "fraction")
            .column_unit("total", "fraction");
        let rows = self.run_grid(vec![CoreConfig::eole_6_64()])?;
        for (w, stats) in self.workloads.iter().zip(&rows) {
            let s = &stats[0];
            t.add_row(vec![
                w.name.into(),
                Cell::Num(s.late_branch_fraction()),
                Cell::Num(s.late_alu_fraction()),
                Cell::Num(s.late_branch_fraction() + s.late_alu_fraction()),
            ]);
        }
        Ok(t)
    }

    /// §3.4: total OoO-engine offload (Fig. 2 + Fig. 4, disjoint sets).
    pub fn offload(&self) -> Result<ExperimentReport, RunError> {
        let mut t = ExperimentReport::new(
            "offload",
            "§3.4 — µ-ops bypassing the OoO engine (paper: 10%–60%)",
        )
        .column("bench")
        .column_unit("early", "fraction")
        .column_unit("late ALU", "fraction")
        .column_unit("late branch", "fraction")
        .column_unit("total", "fraction");
        let rows = self.run_grid(vec![CoreConfig::eole_6_64()])?;
        for (w, stats) in self.workloads.iter().zip(&rows) {
            let s = &stats[0];
            t.add_row(vec![
                w.name.into(),
                Cell::Num(s.early_exec_fraction()),
                Cell::Num(s.late_alu_fraction()),
                Cell::Num(s.late_branch_fraction()),
                Cell::Num(s.offload_fraction()),
            ]);
        }
        Ok(t)
    }

    /// Fig. 6: speedup from adding the VTAGE-2DStride predictor.
    pub fn fig6(&self) -> Result<ExperimentReport, RunError> {
        self.speedup_report(
            "fig6",
            "Fig. 6 — Baseline_VP_6_64 speedup over Baseline_6_64",
            CoreConfig::baseline_6_64(),
            &[CoreConfig::baseline_vp_6_64()],
        )
    }

    /// Fig. 7: issue-width study, normalized to Baseline_VP_6_64.
    pub fn fig7(&self) -> Result<ExperimentReport, RunError> {
        self.speedup_report(
            "fig7",
            "Fig. 7 — issue width (normalized to Baseline_VP_6_64)",
            CoreConfig::baseline_vp_6_64(),
            &[
                CoreConfig::baseline_vp_4_64(),
                CoreConfig::eole_4_64(),
                CoreConfig::eole_6_64(),
            ],
        )
    }

    /// Fig. 8: IQ-size study, normalized to Baseline_VP_6_64.
    pub fn fig8(&self) -> Result<ExperimentReport, RunError> {
        self.speedup_report(
            "fig8",
            "Fig. 8 — IQ size (normalized to Baseline_VP_6_64)",
            CoreConfig::baseline_vp_6_64(),
            &[
                CoreConfig::baseline_vp_6_48(),
                CoreConfig::eole_6_48(),
                CoreConfig::eole_6_64(),
            ],
        )
    }

    /// Fig. 10: PRF banking, normalized to single-bank EOLE_4_64.
    pub fn fig10(&self) -> Result<ExperimentReport, RunError> {
        self.speedup_report(
            "fig10",
            "Fig. 10 — PRF banking (normalized to 1-bank EOLE_4_64)",
            CoreConfig::eole_4_64(),
            &[
                CoreConfig::eole_4_64_banked(2),
                CoreConfig::eole_4_64_banked(4),
                CoreConfig::eole_4_64_banked(8),
            ],
        )
    }

    /// Fig. 11: LE/VT read ports per bank, normalized to unconstrained
    /// EOLE_4_64.
    pub fn fig11(&self) -> Result<ExperimentReport, RunError> {
        self.speedup_report(
            "fig11",
            "Fig. 11 — LE/VT read ports per bank (4-bank PRF, normalized to EOLE_4_64)",
            CoreConfig::eole_4_64(),
            &[
                CoreConfig::eole_4_64_ports(4, 2),
                CoreConfig::eole_4_64_ports(4, 3),
                CoreConfig::eole_4_64_ports(4, 4),
            ],
        )
    }

    /// Fig. 12: the headline summary.
    pub fn fig12(&self) -> Result<ExperimentReport, RunError> {
        self.speedup_report(
            "fig12",
            "Fig. 12 — headline (normalized to Baseline_VP_6_64)",
            CoreConfig::baseline_vp_6_64(),
            &[
                CoreConfig::baseline_6_64(),
                CoreConfig::eole_4_64(),
                CoreConfig::eole_4_64_ports(4, 4),
            ],
        )
    }

    /// Fig. 13: modularity — EOLE vs OLE (late only) vs EOE (early only).
    pub fn fig13(&self) -> Result<ExperimentReport, RunError> {
        self.speedup_report(
            "fig13",
            "Fig. 13 — EOLE vs OLE vs EOE (4 ports, 4 banks; normalized to Baseline_VP_6_64)",
            CoreConfig::baseline_vp_6_64(),
            &[
                CoreConfig::eole_4_64_ports(4, 4),
                CoreConfig::ole_4_64_ports(4, 4),
                CoreConfig::eoe_4_64_ports(4, 4),
            ],
        )
    }

    /// Extension of §2's taxonomy: swap the value predictor of
    /// `Baseline_VP_6_64` and report the speedup over the no-VP baseline —
    /// computational (stride family) vs context-based (FCM/VTAGE) vs the
    /// evaluated hybrid.
    pub fn vp_ablation(&self) -> Result<ExperimentReport, RunError> {
        let kinds = [
            ("LVP", ValuePredictorKind::LastValue),
            ("Stride", ValuePredictorKind::Stride),
            ("2D-Stride", ValuePredictorKind::TwoDeltaStride),
            ("FCM-4", ValuePredictorKind::Fcm),
            ("VTAGE", ValuePredictorKind::Vtage),
            ("hybrid", ValuePredictorKind::VtageTwoDeltaStride),
            ("D-VTAGE", ValuePredictorKind::DVtage),
        ];
        let configs: Vec<CoreConfig> = kinds
            .iter()
            .map(|(label, kind)| {
                CoreConfig::baseline_vp_6_64()
                    .to_builder()
                    .name(*label)
                    .vp_kind(*kind)
                    .build()
                    .expect("predictor swap keeps the preset valid") // lint:allow(error-typing) static preset authoring invariant, covered by preset tests
            })
            .collect();
        self.speedup_report(
            "vp_ablation",
            "VP ablation — predictor kind (speedup over Baseline_6_64)",
            CoreConfig::baseline_6_64(),
            &configs,
        )
    }

    /// §6.3 "further possible hardware optimizations": cap EE/prediction
    /// PRF writes per bank per dispatch group (the paper suggests ~4 per
    /// group of 8 suffices — i.e. 1 per bank with 4 banks).
    pub fn ablation_ee_writes(&self) -> Result<ExperimentReport, RunError> {
        let mut configs = Vec::new();
        for cap in [1usize, 2] {
            configs.push(
                CoreConfig::eole_4_64_banked(4)
                    .to_builder()
                    .name(format!("EOLE_4_64_4banks_eewr{cap}"))
                    .ee_writes_per_bank(Some(cap))
                    .build()
                    .expect("write cap keeps the preset valid"), // lint:allow(error-typing) static preset authoring invariant, covered by preset tests
            );
        }
        configs.push(CoreConfig::eole_4_64_banked(4));
        self.speedup_report(
            "ee_writes",
            "§6.3 ablation — EE/prediction writes per bank per group (normalized to EOLE_4_64)",
            CoreConfig::eole_4_64(),
            &configs,
        )
    }

    /// Squash-cost probe: where do value-misprediction squash cycles go,
    /// per workload, for the VP baseline vs the 6-issue EOLE pipeline?
    /// First instrumented look at the ROADMAP's h264 anomaly (baseline
    /// IPC > EOLE IPC on h264 in quick runs).
    pub fn squash_cost(&self) -> Result<ExperimentReport, RunError> {
        let mut t = ExperimentReport::new(
            "squash_cost",
            "VP squash cost by stage depth (Baseline_VP_6_64 vs EOLE_6_64)",
        )
        .column("bench")
        .column_unit("squashes (VP)", "count")
        .column_unit("cost (VP)", "% cycles")
        .column_unit("squashes (EOLE)", "count")
        .column_unit("frontend (EOLE)", "cycles")
        .column_unit("LE/VT (EOLE)", "cycles")
        .column_unit("window (EOLE)", "cycles")
        .column_unit("cost (EOLE)", "% cycles");
        let rows =
            self.run_grid(vec![CoreConfig::baseline_vp_6_64(), CoreConfig::eole_6_64()])?;
        for (w, stats) in self.workloads.iter().zip(&rows) {
            let (vp, eole) = (&stats[0], &stats[1]);
            t.add_row(vec![
                w.name.into(),
                Cell::Int(vp.vp_squashes),
                Cell::Num(vp.vp_squash_cost_fraction() * 100.0),
                Cell::Int(eole.vp_squashes),
                Cell::Int(eole.vp_squash_cycles_frontend),
                Cell::Int(eole.vp_squash_cycles_levt),
                Cell::Int(eole.vp_squash_cycles_window),
                Cell::Num(eole.vp_squash_cost_fraction() * 100.0),
            ]);
        }
        Ok(t)
    }

    /// ROADMAP h264 ablation: is the constant +1-cycle LE/VT stage the
    /// reason `Baseline_6_64` beats the VP/EOLE pipelines on h264?
    ///
    /// The `squash_cost` probe (PR 2) showed h264 commits with *zero* VP
    /// squashes, so misprediction recovery cannot explain the gap; the
    /// remaining suspect is the extra pre-commit stage every commit pays.
    /// This experiment zeroes `levt_depth()` (`levt0` variants) and
    /// reports speedup over the no-VP baseline: if the `levt0` pipelines
    /// close the gap (speedup ≥ 1), the +1 LE/VT depth is confirmed as
    /// the cause; any residue points at a different tax.
    pub fn levt_depth_ablation(&self) -> Result<ExperimentReport, RunError> {
        let levt0 = |base: CoreConfig| -> CoreConfig {
            let name = format!("{}_levt0", base.name);
            base.to_builder()
                .name(name)
                .levt_depth_override(Some(0))
                .build()
                .expect("depth override keeps the preset valid") // lint:allow(error-typing) static preset authoring invariant, covered by preset tests
        };
        self.speedup_report(
            "levt_depth_ablation",
            "LE/VT depth ablation — +1-cycle validation stage zeroed (speedup over Baseline_6_64)",
            CoreConfig::baseline_6_64(),
            &[
                CoreConfig::baseline_vp_6_64(),
                levt0(CoreConfig::baseline_vp_6_64()),
                CoreConfig::eole_6_64(),
                levt0(CoreConfig::eole_6_64()),
            ],
        )
    }

    /// `dvtage_budget`: prediction quality per storage bit — D-VTAGE
    /// (BeBoP block organization, 16-bit deltas) sized to the *same
    /// storage budget* as the paper's VTAGE-2DStride hybrid, compared on
    /// offline coverage/accuracy over each workload's VP-eligible µ-op
    /// stream. The hybrid spends most of its 385 KB on full 64-bit
    /// values and full tags; at equal budget the differential layout
    /// affords several times the entries, so its usable coverage should
    /// dominate — the metric the old per-instruction interface could
    /// not even measure.
    pub fn dvtage_budget(&self) -> Result<ExperimentReport, RunError> {
        let seed = 0xe01e;
        let budget_bits = VtageTwoDeltaStride::paper(seed).storage_bits();
        let dv_cfg = DVtageConfig::with_budget_bits(budget_bits, 4, 4);
        let dv_kb = DVtage::new(dv_cfg.clone(), seed).storage_bits() as f64 / 8.0 / 1024.0;
        let hybrid_kb = budget_bits as f64 / 8.0 / 1024.0;
        let title = format!(
            "D-VTAGE vs VTAGE-2DStride at equal storage budget \
             (hybrid {hybrid_kb:.1} KB, D-VTAGE {dv_kb:.1} KB)"
        );
        let mut t = ExperimentReport::new("dvtage_budget", title)
        .column("bench")
        .column_unit("hybrid cov", "fraction")
        .column_unit("D-VTAGE cov", "fraction")
        .column_unit("hybrid acc", "fraction")
        .column_unit("D-VTAGE acc", "fraction");
        let mut cov = (Vec::new(), Vec::new());
        let mut acc = (Vec::new(), Vec::new());
        for w in &self.workloads {
            let trace = self.session.prepare(w)?;
            let stream = crate::vp_stream(&trace);
            let run = |p: &mut dyn ValuePredictor| -> EvalStats {
                evaluate_stream(p, trace.history(), stream.iter().copied())
            };
            let hybrid = run(&mut VtageTwoDeltaStride::paper(seed));
            let dvtage = run(&mut DVtage::new(dv_cfg.clone(), seed));
            cov.0.push(hybrid.coverage());
            cov.1.push(dvtage.coverage());
            acc.0.push(hybrid.accuracy());
            acc.1.push(dvtage.accuracy());
            t.add_row(vec![
                w.name.into(),
                Cell::Num(hybrid.coverage()),
                Cell::Num(dvtage.coverage()),
                Cell::Num(hybrid.accuracy()),
                Cell::Num(dvtage.accuracy()),
            ]);
        }
        t.add_row(vec![
            "gmean".into(),
            Cell::Num(geometric_mean(&cov.0).unwrap_or(0.0)),
            Cell::Num(geometric_mean(&cov.1).unwrap_or(0.0)),
            Cell::Num(geometric_mean(&acc.0).unwrap_or(0.0)),
            Cell::Num(geometric_mean(&acc.1).unwrap_or(0.0)),
        ]);
        Ok(t)
    }

    /// `bebop_block_size`: the BeBoP access-granularity sweep, run
    /// through the timing pipeline on the D-VTAGE front. Larger fetch
    /// blocks cut predictor reads per committed µ-op (toward 1/B) while
    /// block-shared tags cost some coverage; the per-confidence-level
    /// counters (saturated share, sub-saturated accuracy) show where the
    /// FPC gate — not the tables — bounds coverage.
    pub fn bebop_block_size(&self) -> Result<ExperimentReport, RunError> {
        const BLOCKS: [usize; 4] = [1, 2, 4, 8];
        let configs: Vec<CoreConfig> = BLOCKS
            .iter()
            .map(|b| {
                CoreConfig::baseline_dvtage_6_64()
                    .to_builder()
                    .name(format!("DVTAGE_6_64_b{b}"))
                    .vp_block(*b, 4)
                    .build()
                    .expect("block sweep keeps the preset valid") // lint:allow(error-typing) static preset authoring invariant, covered by preset tests
            })
            .collect();
        let mut t = ExperimentReport::new(
            "bebop_block_size",
            "BeBoP block-size sweep on Baseline_DVTAGE_6_64 (4 banks, 64-deep spec window)",
        )
        .column("bench")
        .column_unit("cov b=1", "fraction")
        .column_unit("cov b=2", "fraction")
        .column_unit("cov b=4", "fraction")
        .column_unit("cov b=8", "fraction")
        .column_unit("reads/µop b=1", "reads")
        .column_unit("reads/µop b=8", "reads")
        .column_unit("sat share b=4", "fraction")
        .column_unit("sub-sat acc b=4", "fraction");
        let rows = self.run_grid(configs)?;
        for (w, stats) in self.workloads.iter().zip(&rows) {
            let b4 = &stats[2];
            t.add_row(vec![
                w.name.into(),
                Cell::Num(stats[0].vp_coverage()),
                Cell::Num(stats[1].vp_coverage()),
                Cell::Num(stats[2].vp_coverage()),
                Cell::Num(stats[3].vp_coverage()),
                Cell::Num(stats[0].vp_reads_per_committed()),
                Cell::Num(stats[3].vp_reads_per_committed()),
                Cell::Num(b4.vp_saturated_share()),
                Cell::Num(b4.vp_subsaturated_accuracy()),
            ]);
        }
        Ok(t)
    }

    /// §6.2–6.3: register-file ports and relative area.
    pub fn complexity(&self) -> Result<ExperimentReport, RunError> {
        let base6 = PrfPortModel::new(6, 8, 8, false, false);
        let vp6 = PrfPortModel::new(6, 8, 8, true, false);
        let eole4 = PrfPortModel::new(4, 8, 8, true, true);
        let mut t = ExperimentReport::new(
            "complexity",
            "§6 — PRF ports and (R+W)(R+2W) area, relative to Baseline_6_64",
        )
        .column("organization")
        .column_unit("reads", "ports")
        .column_unit("writes", "ports")
        .column_unit("area", "ratio");
        let base_area = base6.monolithic().relative_area();
        for (label, pc) in [
            ("Baseline_6_64 (monolithic)", base6.monolithic()),
            ("Baseline_VP_6_64 (monolithic)", vp6.monolithic()),
            ("EOLE_4_64 (monolithic)", eole4.monolithic()),
            ("EOLE_4_64 per bank (4 banks, 4 LE/VT ports)", eole4.banked(4, 4)),
            ("EOLE_4_64 per bank (4 banks, 3 LE/VT ports)", eole4.banked(4, 3)),
        ] {
            t.add_row(vec![
                label.into(),
                Cell::Int(pc.reads as u64),
                Cell::Int(pc.writes as u64),
                Cell::Num(pc.relative_area() / base_area),
            ]);
        }
        Ok(t)
    }

    /// Everything, in paper order.
    ///
    /// # Errors
    ///
    /// The first [`RunError`] encountered, if any run fails.
    pub fn all(&self) -> Result<Vec<ExperimentReport>, RunError> {
        EXPERIMENT_NAMES.iter().map(|n| self.by_name(n)).collect()
    }

    /// Runs one experiment by name (see [`EXPERIMENT_NAMES`]).
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownExperiment`] for names outside the registry;
    /// otherwise any failure of the underlying runs.
    pub fn by_name(&self, name: &str) -> Result<ExperimentReport, RunError> {
        match name {
            "table1" => self.table1(),
            "table2" => self.table2(),
            "table3" => self.table3(),
            "fig2" => self.fig2(),
            "fig4" => self.fig4(),
            "offload" => self.offload(),
            "fig6" => self.fig6(),
            "fig7" => self.fig7(),
            "fig8" => self.fig8(),
            "fig10" => self.fig10(),
            "fig11" => self.fig11(),
            "fig12" => self.fig12(),
            "fig13" => self.fig13(),
            "vp_ablation" => self.vp_ablation(),
            "ee_writes" => self.ablation_ee_writes(),
            "squash_cost" => self.squash_cost(),
            "levt_depth_ablation" => self.levt_depth_ablation(),
            "dvtage_budget" => self.dvtage_budget(),
            "bebop_block_size" => self.bebop_block_size(),
            "complexity" => self.complexity(),
            other => Err(RunError::UnknownExperiment(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_set() -> ExperimentSet {
        ExperimentSet::with_workloads(Runner::quick(), &["gzip", "namd"])
    }

    #[test]
    fn static_tables_have_expected_shape() {
        let set = quick_set();
        assert!(set.table1().unwrap().num_rows() >= 10);
        assert_eq!(set.table2().unwrap().num_rows(), 3);
        assert_eq!(set.complexity().unwrap().num_rows(), 5);
    }

    #[test]
    fn fig7_produces_one_row_per_workload_plus_gmean() {
        let set = quick_set();
        let t = set.fig7().unwrap();
        assert_eq!(t.num_rows(), 3); // 2 workloads + gmean
        assert_eq!(t.columns().len(), 4);
        assert!(t.columns()[1..].iter().all(|c| c.unit.as_deref() == Some("×")));
        // Speedups are positive numbers.
        for row in 0..t.num_rows() {
            for col in 1..t.columns().len() {
                let v = t.value(row, col).expect("numeric cell");
                assert!(v > 0.0);
            }
        }
    }

    /// The PR's acceptance bar: at an equal (in fact smaller) storage
    /// budget, D-VTAGE's usable coverage over the quick suite is at
    /// least the VTAGE-2DStride hybrid's — prediction quality per
    /// storage bit, measured suite-wide (gmean row).
    #[test]
    fn dvtage_budget_meets_the_equal_storage_bar() {
        let set = ExperimentSet::new(Runner::quick());
        let t = set.dvtage_budget().unwrap();
        let gmean = t.num_rows() - 1;
        let hybrid_cov = t.value(gmean, 1).unwrap();
        let dvtage_cov = t.value(gmean, 2).unwrap();
        assert!(
            dvtage_cov >= hybrid_cov,
            "D-VTAGE gmean coverage {dvtage_cov:.3} below hybrid {hybrid_cov:.3} at equal budget"
        );
        // Usable predictions stay reliable on both sides (FPC holds the
        // ~1-per-mille misprediction line the paper leans on).
        for row in 0..gmean {
            assert!(t.value(row, 3).unwrap() > 0.99, "hybrid accuracy row {row}");
            assert!(t.value(row, 4).unwrap() > 0.99, "D-VTAGE accuracy row {row}");
        }
    }

    #[test]
    fn bebop_block_size_cuts_predictor_reads() {
        let set = quick_set();
        let t = set.bebop_block_size().unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.columns().len(), 9);
        for row in 0..t.num_rows() {
            let reads_b1 = t.value(row, 5).unwrap();
            let reads_b8 = t.value(row, 6).unwrap();
            assert!(
                reads_b8 < reads_b1,
                "row {row}: 8-µ-op blocks must need fewer reads ({reads_b8} vs {reads_b1})"
            );
        }
    }

    #[test]
    fn by_name_covers_every_experiment_and_rejects_unknowns() {
        let set = quick_set();
        for name in ["table1", "table2", "complexity", "squash_cost", "dvtage_budget"] {
            assert!(set.by_name(name).is_ok(), "{name}");
        }
        match set.by_name("fig99") {
            Err(RunError::UnknownExperiment(n)) => assert_eq!(n, "fig99"),
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }

    #[test]
    fn traces_are_shared_across_experiments_in_a_set() {
        let set = quick_set();
        set.fig4().unwrap();
        set.offload().unwrap();
        set.table3().unwrap();
        // Three experiments over 2 workloads: 2 trace generations total.
        assert_eq!(set.session().cache().generated(), 2);
        assert!(set.session().cache().hits() > 0);
    }

    #[test]
    fn hybrid_dominates_its_components_on_average() {
        // The hybrid should never be meaningfully worse than either of its
        // halves (it subsumes both).
        let set = ExperimentSet::with_workloads(Runner::quick(), &["wupwise", "bzip2"]);
        let t = set.vp_ablation().unwrap();
        let gmean = t.num_rows() - 1;
        let stride2d = t.value(gmean, 3).unwrap();
        let vtage = t.value(gmean, 5).unwrap();
        let hybrid = t.value(gmean, 6).unwrap();
        assert!(hybrid >= stride2d - 0.02, "hybrid {hybrid} vs 2D-stride {stride2d}");
        assert!(hybrid >= vtage - 0.02, "hybrid {hybrid} vs VTAGE {vtage}");
    }

    #[test]
    fn fig2_two_stage_never_below_one_stage() {
        let set = quick_set();
        let t = set.fig2().unwrap();
        for row in 0..t.num_rows() {
            let one = t.value(row, 1).unwrap();
            let two = t.value(row, 2).unwrap();
            assert!(two + 1e-9 >= one, "row {row}: {one} vs {two}");
        }
    }

    #[test]
    fn squash_cost_report_accounts_the_split() {
        let set = quick_set();
        let t = set.squash_cost().unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.columns().len(), 8);
        for row in 0..t.num_rows() {
            // The EOLE split columns sum to a total consistent with the
            // cost fraction being zero iff there were no squashes.
            let squashes = t.value(row, 3).unwrap();
            let split_sum: f64 = (4..7).map(|c| t.value(row, c).unwrap()).sum();
            if squashes == 0.0 {
                assert_eq!(split_sum, 0.0);
            } else {
                assert!(split_sum > 0.0);
            }
        }
    }

    #[test]
    fn reports_serialize_to_json() {
        let set = quick_set();
        let json = set.fig6().unwrap().to_json();
        assert!(json.contains("\"schema\":\"eole-report/v1\""));
        assert!(json.contains("\"id\":\"fig6\""));
        assert!(json.contains("\"gzip\""));
    }
}
