//! Finite Context Method (FCM) predictor — Sazeides & Smith's classic
//! context-based scheme (the paper's [29]).
//!
//! Two-level structure: a per-pc *value history table* (VHT) records a hash
//! of the last `ORDER` committed results; a shared *value prediction table*
//! (VPT) maps that context hash to the next value. Included as the
//! context-based baseline against VTAGE (which replaces the value history
//! with global *branch* history and thereby avoids speculative-history
//! tracking).
//!
//! Simplification (documented): the context is updated at commit only, so
//! back-to-back in-flight instances of the same pc see a stale context.
//! This loses some coverage on tight loops — exactly the weakness of FCM
//! that the paper cites when motivating VTAGE.

use crate::fpc::{Fpc, FpcPolicy};
use crate::history::{hash_pc, HistoryView};
use crate::rng::SimRng;
use crate::value::{InFlight, ValuePrediction, ValuePredictor};

/// Context order: how many previous values form the context.
const ORDER_BITS_PER_VALUE: u32 = 16;

#[derive(Clone, Copy, Debug, Default)]
struct VhtEntry {
    valid: bool,
    tag: u64,
    /// Shift-register of 16-bit folds of the last 4 values.
    context: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct VptEntry {
    value: u64,
    conf: Fpc,
}

/// Order-4 FCM with FPC confidence.
#[derive(Clone, Debug)]
pub struct Fcm {
    vht: Vec<VhtEntry>,
    vpt: Vec<VptEntry>,
    policy: FpcPolicy,
    rng: SimRng,
}

impl Fcm {
    /// Creates an FCM with `vht_entries` first-level and `vpt_entries`
    /// second-level slots (each rounded to a power of two).
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(vht_entries: usize, vpt_entries: usize, seed: u64) -> Self {
        Fcm {
            vht: vec![VhtEntry::default(); vht_entries.next_power_of_two().max(1)],
            vpt: vec![VptEntry::default(); vpt_entries.next_power_of_two().max(1)],
            policy: FpcPolicy::eole(),
            rng: SimRng::new(seed),
        }
    }

    fn vht_index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0xfc11) as usize) & (self.vht.len() - 1)
    }

    fn vpt_index(&self, pc: u64, context: u64) -> usize {
        (hash_pc(pc ^ context.wrapping_mul(0x9e37_79b9_7f4a_7c15), 0xfc12) as usize)
            & (self.vpt.len() - 1)
    }

    fn fold_value(v: u64) -> u64 {
        let m = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
        (m ^ (m >> 29) ^ (m >> 47)) & ((1 << ORDER_BITS_PER_VALUE) - 1)
    }
}

impl ValuePredictor for Fcm {
    fn predict(
        &mut self,
        pc: u64,
        _hist: HistoryView<'_>,
        _inflight: InFlight,
    ) -> Option<ValuePrediction> {
        let e = &self.vht[self.vht_index(pc)];
        if e.valid && e.tag == pc {
            let v = &self.vpt[self.vpt_index(pc, e.context)];
            Some(ValuePrediction::from_conf(v.value, v.conf))
        } else {
            None
        }
    }

    fn train(&mut self, pc: u64, _hist: HistoryView<'_>, actual: u64) {
        let idx = self.vht_index(pc);
        let e = &mut self.vht[idx];
        if e.valid && e.tag == pc {
            let context = e.context;
            // Advance the context by one committed value (order-4 window).
            e.context = (context << ORDER_BITS_PER_VALUE) | Self::fold_value(actual);
            let vidx = self.vpt_index(pc, context);
            let v = &mut self.vpt[vidx];
            if v.value == actual {
                v.conf.on_correct(&self.policy, &mut self.rng);
            } else if v.conf.level() == 0 {
                v.value = actual;
            } else {
                v.conf.on_incorrect();
            }
        } else {
            *e = VhtEntry { valid: true, tag: pc, context: Self::fold_value(actual) };
        }
    }

    fn storage_bits(&self) -> u64 {
        let vht = self.vht.len() as u64 * (64 + 64);
        let vpt = self.vpt.len() as u64 * (64 + Fpc::BITS);
        vht + vpt
    }

    fn name(&self) -> &'static str {
        "FCM-4"
    }
}

impl crate::snapshot::Snapshot for Fcm {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        s.shape(self.vht.len(), "fcm vht size mismatch")?;
        for e in &mut self.vht {
            s.field(&mut e.valid)?;
            s.field(&mut e.tag)?;
            s.field(&mut e.context)?;
        }
        s.shape(self.vpt.len(), "fcm vpt size mismatch")?;
        for e in &mut self.vpt {
            s.field(&mut e.value)?;
            e.conf.snap(s)?;
        }
        self.rng.snap(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::evaluate_stream;

    #[test]
    fn learns_a_repeating_pattern_stride_cannot() {
        // Pattern 3, 1, 4, 1, 5 repeating: stride predictors fail, FCM keys
        // on the 4-value context and predicts the successor.
        let hist = BranchHistory::new();
        let mut p = Fcm::new(1024, 8192, 7);
        let pattern = [3u64, 1, 4, 1, 5];
        let stream = (0..20_000).map(|i| (0x30u64, 0u32, pattern[i % pattern.len()]));
        let s = evaluate_stream(&mut p, &hist, stream);
        assert!(
            s.correct as f64 / s.attempted as f64 > 0.9,
            "FCM should learn the period-5 pattern, correct = {}/{}",
            s.correct,
            s.attempted
        );
        assert!(s.confident_correct as f64 / s.confident.max(1) as f64 > 0.99);
    }

    #[test]
    fn no_prediction_before_context_exists() {
        let hist = BranchHistory::new();
        let mut p = Fcm::new(64, 64, 1);
        assert!(p.predict(0x99, hist.view(0), InFlight::default()).is_none());
    }

    #[test]
    fn replaces_value_only_at_zero_confidence() {
        let hist = BranchHistory::new();
        let mut p = Fcm::new(64, 64, 1);
        // Build one stable context→value association.
        for _ in 0..200 {
            p.train(0x10, hist.view(0), 5);
        }
        let before = p.predict(0x10, hist.view(0), InFlight::default()).unwrap();
        assert_eq!(before.value, 5);
    }

    #[test]
    fn storage_bits_counts_both_levels() {
        let p = Fcm::new(1024, 8192, 1);
        assert_eq!(p.storage_bits(), 1024 * 128 + 8192 * 67);
    }
}
