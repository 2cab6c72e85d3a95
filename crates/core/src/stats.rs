//! Simulation counters and derived metrics.
//!
//! `SimStats` is resettable mid-run so experiments can warm structures for
//! N instructions and then measure M (the paper warms 50M and measures
//! 100M; our synthetic slices scale both down).

use eole_mem::hierarchy::MemStats;

eole_mem::counters! {
    /// All counters collected by the pipeline.
    ///
    /// Plain `Copy` data: snapshotting stats never touches the heap (the
    /// throughput harness samples them from the hot loop). Every counter
    /// is a sum, cycles included, so [`SimStats::merge`] is the stitch of
    /// interval-parallel simulation: the stitched cycle count is the sum
    /// of the per-interval measurement windows, and derived metrics on
    /// the stitched struct are suite-level ratios exactly as for one long
    /// window.
    pub struct SimStats {
        /// Cycles simulated in the measurement window.
        pub cycles: u64,
        /// µ-ops committed.
        pub committed: u64,
        /// µ-ops fetched (includes refetches after squashes).
        pub fetched: u64,
        /// µ-ops discarded by squashes.
        pub squashed: u64,

        // ---- value prediction --------------------------------------------
        /// Committed VP-eligible µ-ops.
        pub vp_eligible: u64,
        /// Eligible µ-ops for which the predictor returned a prediction.
        pub vp_predicted: u64,
        /// Predictions actually used (saturated confidence).
        pub vp_used: u64,
        /// Used predictions that were correct.
        pub vp_used_correct: u64,
        /// Used predictions that were wrong (each costs a squash).
        pub vp_used_wrong: u64,
        /// Pipeline squashes caused by value mispredictions.
        pub vp_squashes: u64,
        /// Squash-cost cycles charged to the front end: each VP squash
        /// refetches through the full fetch-to-rename depth.
        pub vp_squash_cycles_frontend: u64,
        /// Squash-cost cycles charged to the pre-commit LE/VT stage depth
        /// (validation discovers the mispredict one stage before commit).
        pub vp_squash_cycles_levt: u64,
        /// Squash-cost cycles charged to the OoO window: age of the oldest
        /// discarded in-flight µ-op at squash time (work thrown away).
        pub vp_squash_cycles_window: u64,
        /// Committed predictions by FPC confidence level at fetch time
        /// (index = level 0–7; only level 7 — saturated — is *used*).
        pub vp_pred_by_level: [u64; 8],
        /// Of those, predictions whose value matched the architectural
        /// result (correctness is tracked for every level, so the
        /// quality-per-confidence-bit curve is observable, not just the
        /// saturated point).
        pub vp_correct_by_level: [u64; 8],
        /// Predictor reads at fetch: one per (cycle, fetch block) — the
        /// BeBoP access count (block size 1 degenerates to one read per
        /// queried µ-op).
        pub vp_block_reads: u64,
        /// Fetch-time queries refused because the speculative window was
        /// full (the µ-op traveled unpredicted).
        pub vp_window_rejects: u64,

        // ---- EOLE --------------------------------------------------------
        /// Committed µ-ops executed in the Early Execution block.
        pub early_executed: u64,
        /// Committed predicted single-cycle ALU µ-ops executed late (LE).
        pub late_executed_alu: u64,
        /// Committed very-high-confidence branches resolved late.
        pub late_executed_branches: u64,
        /// Commit-group cuts caused by the LE/VT read-port budget (Fig. 11).
        pub levt_port_stalls: u64,
        /// Dispatch-group cuts caused by the EE/prediction write budget (§6.3).
        pub ee_write_stalls: u64,

        // ---- branches ------------------------------------------------------
        /// Committed conditional branches.
        pub cond_branches: u64,
        /// Mispredicted conditional branches (resolved in the OoO engine).
        pub branch_mispredicts: u64,
        /// Conditional branches fetched with very-high confidence.
        pub hc_branches: u64,
        /// Very-high-confidence branches that were mispredicted (resolved in
        /// LE/VT when EOLE is on — the expensive-but-rare case).
        pub hc_branch_mispredicts: u64,
        /// Mispredicted indirect jumps / returns.
        pub indirect_mispredicts: u64,
        /// Taken control µ-ops that missed the BTB (decode-redirect bubble).
        pub btb_miss_bubbles: u64,

        // ---- memory --------------------------------------------------------
        /// Memory-order violations (store-set training events + squashes).
        pub memory_order_squashes: u64,
        /// Loads satisfied by store-to-load forwarding.
        pub sq_forwards: u64,

        // ---- stalls ----------------------------------------------------------
        /// Dispatch-group cuts: ROB full.
        pub stall_rob_full: u64,
        /// Dispatch-group cuts: IQ full.
        pub stall_iq_full: u64,
        /// Dispatch-group cuts: LQ/SQ full.
        pub stall_lsq_full: u64,
        /// Dispatch-group cuts: current PRF bank out of free registers.
        pub stall_prf: u64,

        /// Memory-hierarchy counters at snapshot time.
        pub mem: MemStats,
    }
}

/// `num / den`, or `empty` when nothing was counted (`den == 0`).
fn ratio(num: f64, den: u64, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num / den as f64
    }
}

impl SimStats {
    /// Instructions (µ-ops) per cycle over the measurement window.
    pub fn ipc(&self) -> f64 {
        ratio(self.committed as f64, self.cycles, 0.0)
    }

    /// Fraction of committed µ-ops that were early-executed (Fig. 2).
    pub fn early_exec_fraction(&self) -> f64 {
        ratio(self.early_executed as f64, self.committed, 0.0)
    }

    /// Fraction of committed µ-ops late-executed as predicted ALU µ-ops
    /// (Fig. 4, "Value-predicted" series; disjoint from early execution).
    pub fn late_alu_fraction(&self) -> f64 {
        ratio(self.late_executed_alu as f64, self.committed, 0.0)
    }

    /// Fraction of committed µ-ops that were high-confidence branches
    /// resolved late (Fig. 4, "High-Confidence Branches" series).
    pub fn late_branch_fraction(&self) -> f64 {
        ratio(self.late_executed_branches as f64, self.committed, 0.0)
    }

    /// Total fraction of committed µ-ops bypassing the OoO engine (§3.4's
    /// "10% to 60%").
    pub fn offload_fraction(&self) -> f64 {
        self.early_exec_fraction() + self.late_alu_fraction() + self.late_branch_fraction()
    }

    /// Total cycles attributed to value-misprediction squashes, summed
    /// over the per-stage-depth split (front end + LE/VT + window).
    pub fn vp_squash_cycles(&self) -> u64 {
        self.vp_squash_cycles_frontend + self.vp_squash_cycles_levt + self.vp_squash_cycles_window
    }

    /// Fraction of measured cycles lost to value-misprediction squashes
    /// (the probe for the h264 baseline-beats-EOLE anomaly).
    pub fn vp_squash_cost_fraction(&self) -> f64 {
        ratio(self.vp_squash_cycles() as f64, self.cycles, 0.0)
    }

    /// Fraction of committed predictions sitting at saturated (usable)
    /// confidence — how much of the predictor's work the FPC gate lets
    /// through.
    pub fn vp_saturated_share(&self) -> f64 {
        ratio(self.vp_pred_by_level[7] as f64, self.vp_predicted, 0.0)
    }

    /// Correctness of committed predictions *below* saturation — the
    /// accuracy the FPC gate is holding back (high values here mean the
    /// confidence ramp is the coverage bottleneck, not the tables).
    pub fn vp_subsaturated_accuracy(&self) -> f64 {
        let pred: u64 = self.vp_pred_by_level[..7].iter().sum();
        let correct: u64 = self.vp_correct_by_level[..7].iter().sum();
        ratio(correct as f64, pred, 1.0)
    }

    /// Predictor reads per committed µ-op (the BeBoP access-cost metric:
    /// block size B cuts this toward 1/B of the per-instruction rate).
    pub fn vp_reads_per_committed(&self) -> f64 {
        ratio(self.vp_block_reads as f64, self.committed, 0.0)
    }

    /// Coverage of value prediction: used predictions / eligible µ-ops.
    pub fn vp_coverage(&self) -> f64 {
        ratio(self.vp_used as f64, self.vp_eligible, 0.0)
    }

    /// Accuracy of used predictions.
    pub fn vp_accuracy(&self) -> f64 {
        ratio(self.vp_used_correct as f64, self.vp_used, 1.0)
    }

    /// Conditional-branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        let mispredicts = self.branch_mispredicts + self.hc_branch_mispredicts;
        ratio(mispredicts as f64 * 1000.0, self.committed, 0.0)
    }

    /// Misprediction rate of the very-high-confidence branch class (the
    /// paper relies on this being < 0.5%).
    pub fn hc_branch_misrate(&self) -> f64 {
        ratio(self.hc_branch_mispredicts as f64, self.hc_branches, 0.0)
    }

    /// Zeroes every counter (start of a measurement window).
    pub fn reset(&mut self) {
        *self = SimStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 1000,
            committed: 1500,
            vp_eligible: 1000,
            vp_used: 400,
            vp_used_correct: 399,
            early_executed: 150,
            late_executed_alu: 150,
            late_executed_branches: 75,
            cond_branches: 100,
            branch_mispredicts: 3,
            hc_branches: 60,
            hc_branch_mispredicts: 0,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert!((s.vp_coverage() - 0.4).abs() < 1e-12);
        assert!((s.vp_accuracy() - 0.9975).abs() < 1e-12);
        assert!((s.offload_fraction() - 0.25).abs() < 1e-12);
        assert!((s.branch_mpki() - 2.0).abs() < 1e-12);
        assert_eq!(s.hc_branch_misrate(), 0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.vp_accuracy(), 1.0);
        assert_eq!(s.offload_fraction(), 0.0);
    }

    #[test]
    fn squash_cost_splits_sum() {
        let s = SimStats {
            cycles: 1000,
            vp_squashes: 2,
            vp_squash_cycles_frontend: 30,
            vp_squash_cycles_levt: 2,
            vp_squash_cycles_window: 18,
            ..Default::default()
        };
        assert_eq!(s.vp_squash_cycles(), 50);
        assert!((s.vp_squash_cost_fraction() - 0.05).abs() < 1e-12);
        assert_eq!(SimStats::default().vp_squash_cost_fraction(), 0.0);
    }

    #[test]
    fn confidence_level_metrics() {
        let mut s = SimStats { committed: 1000, vp_predicted: 100, ..Default::default() };
        s.vp_pred_by_level[7] = 40;
        s.vp_pred_by_level[3] = 60;
        s.vp_correct_by_level[7] = 40;
        s.vp_correct_by_level[3] = 45;
        s.vp_block_reads = 250;
        assert!((s.vp_saturated_share() - 0.4).abs() < 1e-12);
        assert!((s.vp_subsaturated_accuracy() - 0.75).abs() < 1e-12);
        assert!((s.vp_reads_per_committed() - 0.25).abs() < 1e-12);
        assert_eq!(SimStats::default().vp_saturated_share(), 0.0);
        assert_eq!(SimStats::default().vp_subsaturated_accuracy(), 1.0);
        assert_eq!(SimStats::default().vp_reads_per_committed(), 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = SimStats { cycles: 5, committed: 7, ..Default::default() };
        s.reset();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.committed, 0);
    }
}
