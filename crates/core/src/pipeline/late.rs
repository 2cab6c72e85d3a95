//! Late Execution / Validation / Training (§3.2): the pre-commit stage
//! where predicted ALU µ-ops and very-high-confidence branches execute,
//! used predictions are validated against the architectural result, and
//! the value predictor is trained — all under the LE/VT read-port budget
//! of Fig. 11.

use eole_isa::InstClass;

use super::state::{pck, vp_keys_at, RobEntry, Simulator};

impl Simulator<'_> {
    /// Can the ROB head pre-commit this cycle? LE µ-ops execute in the
    /// LE/VT stage itself: operands must be readable now (DIVA-style:
    /// everything older has resolved) and the µ-op must have traversed the
    /// pipe to pre-commit. Everything else waits out its completion plus
    /// the LE/VT depth.
    pub(super) fn levt_complete(&self, e: &RobEntry, now: u64) -> bool {
        if e.le_alu || e.le_branch {
            if e.dispatch_cycle + self.config.levt_depth() > now {
                return false;
            }
            self.src_readiness(e).is_ok_and(|t| t <= now)
        } else {
            e.done_cycle != crate::prf::NOT_READY
                && e.done_cycle + self.config.levt_depth() <= now
        }
    }

    /// The `(bank, class-index)` PRF reads this µ-op charges against the
    /// LE/VT read-port budget (Fig. 11): validation/training reads the
    /// result of every VP-eligible µ-op; LE µ-ops read their operands.
    ///
    /// At most 3 reads per µ-op (one result + two LE operands), so the
    /// list fits a fixed array — this runs per commit attempt and must
    /// not allocate. Returns the array plus the live count.
    pub(super) fn levt_reads(&self, e: &RobEntry) -> ([(usize, usize); 3], usize) {
        let mut needed = [(0usize, 0usize); 3];
        let mut n = 0usize;
        if self.vp.is_some() && e.vp_eligible {
            if let Some(d) = e.dst {
                let ci = if d.class == eole_isa::RegClass::Int { 0 } else { 1 };
                needed[n] = (self.prf.bank_of(d.new), ci);
                n += 1;
            }
        }
        if e.le_alu || e.le_branch {
            for s in e.srcs.iter().flatten() {
                let ci = if s.class == eole_isa::RegClass::Int { 0 } else { 1 };
                needed[n] = (self.prf.bank_of(s.preg), ci);
                n += 1;
            }
        }
        (needed, n)
    }

    /// Late-execution accounting plus control resolution at pre-commit:
    /// LE-resolved branch redirects (the expensive-but-rare case of §3.3)
    /// and branch-predictor training.
    pub(super) fn levt_resolve_control(&mut self, e: &RobEntry, now: u64) {
        if e.ee {
            self.stats.early_executed += 1;
        }
        if e.le_alu {
            self.stats.late_executed_alu += 1;
        }
        if e.le_branch {
            self.stats.late_executed_branches += 1;
        }

        if e.class == InstClass::Branch {
            self.stats.cond_branches += 1;
            if e.hc {
                self.stats.hc_branches += 1;
            }
            if e.awaited {
                if e.hc {
                    self.stats.hc_branch_mispredicts += 1;
                } else {
                    self.stats.branch_mispredicts += 1;
                }
                if e.le_branch && self.pending_redirect == Some(e.seq) {
                    // Resolved only now, in the pre-commit stage.
                    self.pending_redirect = None;
                    self.fetch_stall_until = now + 1;
                    self.last_fetch_line = u64::MAX;
                }
            }
            let di = &self.trace.insts()[e.trace_idx];
            let keys = self.branch_keys(di);
            self.tage.update_keyed(pck(di.pc), keys, di.taken);
        } else if e.ind_mispredict {
            self.stats.indirect_mispredicts += 1;
        }
    }

    /// Value-predictor training (the "T" in LE/VT) for a retiring µ-op:
    /// retires the µ-op's in-flight speculative-window instance and
    /// trains the block predictor with the architectural result.
    pub(super) fn levt_train(&mut self, e: &RobEntry) {
        if !e.vp_eligible {
            return;
        }
        self.stats.vp_eligible += 1;
        if e.pred_some {
            self.stats.vp_predicted += 1;
            let lvl = (e.pred_level & 7) as usize;
            self.stats.vp_pred_by_level[lvl] += 1;
            if e.pred_value_correct {
                self.stats.vp_correct_by_level[lvl] += 1;
            }
        }
        if e.pred_used {
            self.stats.vp_used += 1;
            if e.pred_correct {
                self.stats.vp_used_correct += 1;
            }
        }
        if let Some(vp) = self.vp.as_mut() {
            if e.vp_queried {
                let di = &self.trace.insts()[e.trace_idx];
                let view = self.trace.history.view(di.bhist_pos as usize);
                let keys = vp_keys_at(self.vp_keys.as_deref(), vp, self.trace, e.trace_idx);
                vp.commit(e.seq, pck(di.pc), view, keys.as_ref(), di.result);
            }
        }
    }

    /// Validation (the "V" in LE/VT): returns true if a used prediction
    /// turned out wrong and everything younger must squash (§3.1: squash,
    /// not selective replay).
    pub(super) fn levt_validate(&mut self, e: &RobEntry) -> bool {
        if e.pred_used && !e.pred_correct {
            self.stats.vp_used_wrong += 1;
            self.stats.vp_squashes += 1;
            true
        } else {
            false
        }
    }
}
