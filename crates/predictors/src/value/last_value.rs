//! Last-Value Predictor (LVP) — Lipasti & Shen's original scheme.
//!
//! Predicts that an instruction produces the same value as its previous
//! dynamic instance. Included as the historical baseline of the taxonomy;
//! not used in the paper's main configuration.

use crate::fpc::{Fpc, FpcPolicy};
use crate::history::{hash_pc, HistoryView};
use crate::rng::SimRng;
use crate::value::{InFlight, ValuePrediction, ValuePredictor};

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    valid: bool,
    tag: u64,
    last: u64,
    conf: Fpc,
}

/// Direct-mapped last-value predictor with full tags and FPC confidence.
#[derive(Clone, Debug)]
pub struct LastValue {
    entries: Vec<Entry>,
    policy: FpcPolicy,
    rng: SimRng,
}

impl LastValue {
    /// Creates a predictor with `entries` slots (rounded up to a power of
    /// two) and an RNG `seed` for the probabilistic counters.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(entries: usize, seed: u64) -> Self {
        let n = entries.next_power_of_two().max(1);
        LastValue {
            entries: vec![Entry::default(); n],
            policy: FpcPolicy::eole(),
            rng: SimRng::new(seed),
        }
    }

    fn index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0x1a57) as usize) & (self.entries.len() - 1)
    }
}

impl ValuePredictor for LastValue {
    fn predict(
        &mut self,
        pc: u64,
        _hist: HistoryView<'_>,
        _inflight: InFlight,
    ) -> Option<ValuePrediction> {
        let e = &self.entries[self.index(pc)];
        if e.valid && e.tag == pc {
            Some(ValuePrediction::from_conf(e.last, e.conf))
        } else {
            None
        }
    }

    fn train(&mut self, pc: u64, _hist: HistoryView<'_>, actual: u64) {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == pc {
            if e.last == actual {
                e.conf.on_correct(&self.policy, &mut self.rng);
            } else {
                e.conf.on_incorrect();
                e.last = actual;
            }
        } else {
            *e = Entry { valid: true, tag: pc, last: actual, conf: Fpc::new() };
        }
    }

    fn storage_bits(&self) -> u64 {
        // tag (full 64) + value + confidence, per entry.
        self.entries.len() as u64 * (64 + 64 + Fpc::BITS)
    }

    fn name(&self) -> &'static str {
        "LVP"
    }
}

impl crate::snapshot::Snapshot for LastValue {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        s.shape(self.entries.len(), "lvp size mismatch")?;
        for e in &mut self.entries {
            s.field(&mut e.valid)?;
            s.field(&mut e.tag)?;
            s.field(&mut e.last)?;
            e.conf.snap(s)?;
        }
        self.rng.snap(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;

    fn view(h: &BranchHistory) -> HistoryView<'_> {
        h.view(0)
    }

    #[test]
    fn predicts_repeated_value_after_training() {
        let h = BranchHistory::new();
        let mut p = LastValue::new(64, 1);
        assert!(p.predict(0x100, view(&h), InFlight::default()).is_none());
        p.train(0x100, view(&h), 42);
        let pr = p.predict(0x100, view(&h), InFlight::default()).unwrap();
        assert_eq!(pr.value, 42);
        assert!(!pr.confident, "one training must not saturate FPC");
    }

    #[test]
    fn confidence_saturates_on_stable_value() {
        let h = BranchHistory::new();
        let mut p = LastValue::new(64, 1);
        for _ in 0..5_000 {
            p.train(0x100, view(&h), 42);
        }
        assert!(p.predict(0x100, view(&h), InFlight::default()).unwrap().confident);
    }

    #[test]
    fn misprediction_resets_confidence() {
        let h = BranchHistory::new();
        let mut p = LastValue::new(64, 1);
        for _ in 0..5_000 {
            p.train(0x100, view(&h), 42);
        }
        p.train(0x100, view(&h), 43);
        let pr = p.predict(0x100, view(&h), InFlight::default()).unwrap();
        assert_eq!(pr.value, 43);
        assert!(!pr.confident);
    }

    #[test]
    fn conflicting_pcs_evict() {
        let h = BranchHistory::new();
        let mut p = LastValue::new(1, 1); // force conflicts
        p.train(0x100, view(&h), 1);
        p.train(0x200, view(&h), 2);
        // 0x100 was evicted by 0x200 in the single slot.
        assert!(p.predict(0x100, view(&h), InFlight::default()).is_none());
        assert_eq!(p.predict(0x200, view(&h), InFlight::default()).unwrap().value, 2);
    }

    #[test]
    fn storage_accounting() {
        let p = LastValue::new(8192, 1);
        assert_eq!(p.storage_bits(), 8192 * (64 + 64 + 3));
    }
}
