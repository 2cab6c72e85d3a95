//! Bimodal (2-bit counter) direction predictor — TAGE's base component and
//! a standalone baseline.

use crate::branch::{BranchConfidence, BranchPrediction, DirectionPredictor};
use crate::history::{hash_pc, HistoryView};

/// Direct-mapped table of 2-bit saturating counters (0–3; ≥2 = taken).
#[derive(Clone, Debug)]
pub struct Bimodal {
    counters: Vec<u8>,
}

impl Bimodal {
    /// Creates a bimodal table with `entries` counters (rounded to a power
    /// of two), initialized weakly taken.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(entries: usize) -> Self {
        Bimodal { counters: vec![2; entries.next_power_of_two().max(1)] }
    }

    fn index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0xb1b0) as usize) & (self.counters.len() - 1)
    }

    /// Raw counter value for `pc` (used by TAGE for provider confidence).
    pub fn counter(&self, pc: u64) -> u8 {
        self.counters[self.index(pc)]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if the table has no entries (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&mut self, pc: u64, _hist: HistoryView<'_>) -> BranchPrediction {
        let c = self.counter(pc);
        BranchPrediction {
            taken: c >= 2,
            confidence: if c == 0 || c == 3 {
                BranchConfidence::VeryHigh
            } else {
                BranchConfidence::Medium
            },
        }
    }

    fn update(&mut self, pc: u64, _hist: HistoryView<'_>, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn storage_bits(&self) -> u64 {
        self.counters.len() as u64 * 2
    }

    fn name(&self) -> &'static str {
        "Bimodal"
    }
}

impl crate::snapshot::Snapshot for Bimodal {
    fn snapshot(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.counters.len());
        for &c in &self.counters {
            w.put_u8(c);
        }
    }

    fn restore(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        use crate::snapshot::SnapError;
        if r.get_usize()? != self.counters.len() {
            return Err(SnapError::new("bimodal size mismatch"));
        }
        for c in &mut self.counters {
            let v = r.get_u8()?;
            if v > 3 {
                return Err(SnapError::new("bimodal counter out of range"));
            }
            *c = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;

    #[test]
    fn learns_a_biased_branch() {
        let h = BranchHistory::new();
        let mut p = Bimodal::new(256);
        for _ in 0..4 {
            p.update(0x10, h.view(0), false);
        }
        let pred = p.predict(0x10, h.view(0));
        assert!(!pred.taken);
        assert_eq!(pred.confidence, BranchConfidence::VeryHigh);
    }

    #[test]
    fn weak_states_are_medium_confidence() {
        let h = BranchHistory::new();
        let mut p = Bimodal::new(256);
        p.update(0x10, h.view(0), false); // 2 -> 1 (weak not-taken)
        assert_eq!(p.predict(0x10, h.view(0)).confidence, BranchConfidence::Medium);
    }

    #[test]
    fn counters_saturate() {
        let h = BranchHistory::new();
        let mut p = Bimodal::new(4);
        for _ in 0..10 {
            p.update(0x20, h.view(0), true);
        }
        assert_eq!(p.counter(0x20), 3);
        for _ in 0..10 {
            p.update(0x20, h.view(0), false);
        }
        assert_eq!(p.counter(0x20), 0);
    }
}
