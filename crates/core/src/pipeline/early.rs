//! Early Execution (§3.1): single-cycle ALU µ-ops whose operands are all
//! EE-available (immediates, the local rename-group bypass, or a used value
//! prediction — never the PRF) execute in-order beside Rename and never
//! enter the OoO engine.

use eole_isa::Inst;

use super::state::{Avail, Simulator};

impl Simulator<'_> {
    /// Is the value of `arch` available to the EE block (never via PRF)?
    /// Returns the chaining depth contribution: `Some(depth_of_consumer)`.
    fn ee_src_depth(&self, arch: u8, now: u64) -> Option<usize> {
        let w = self.writer_info[arch as usize]?;
        if w.renamed_cycle == now {
            // Same rename group.
            match w.avail {
                Avail::Pred => Some(1),
                Avail::Ee1 if self.config.eole.ee_stages >= 2 => Some(2),
                _ => None,
            }
        } else if w.renamed_cycle == self.prev_group_cycle {
            // Previous rename group: pipeline-register bypass.
            match w.avail {
                Avail::No => None,
                _ => Some(1),
            }
        } else {
            None
        }
    }

    /// EE decision for a single-cycle ALU µ-op `inst`: `Some(Ee1 | Ee2)`
    /// if every register source is EE-available.
    pub(super) fn decide_early(&self, inst: &Inst, now: u64) -> Option<Avail> {
        if !self.config.eole.early || !inst.is_single_cycle_alu() {
            return None;
        }
        let mut depth = 1usize;
        for src in inst.sources() {
            match self.ee_src_depth(src.flat(), now) {
                Some(d) => depth = depth.max(d),
                None => return None,
            }
        }
        if depth == 1 {
            Some(Avail::Ee1)
        } else {
            Some(Avail::Ee2)
        }
    }
}
