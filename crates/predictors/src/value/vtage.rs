//! VTAGE — the Value TAgged GEometric history length predictor
//! (Perais & Seznec, HPCA 2014; the paper's [25]).
//!
//! Like the ITTAGE indirect-branch predictor, VTAGE selects a prediction
//! with the *global branch history*: a tagless base table indexed by pc plus
//! `N` tagged components indexed by `hash(pc, history[0..L_i])` with
//! geometrically increasing `L_i`. The longest matching component provides
//! the prediction.
//!
//! Its key property (quoted in §2): *"it does not require the previous value
//! to predict the current one"* — so unlike stride/FCM predictors it needs
//! no in-flight tracking and nothing must be repaired on a squash.
//!
//! Configuration from Table 2: 8192-entry base, 6 × 1024-entry tagged
//! components, tags of `12 + rank` bits, FPC confidence.

use crate::fpc::{Fpc, FpcPolicy};
use crate::history::{hash_pc, FoldMemo, Folds, HistoryView};
use crate::rng::SimRng;
use crate::value::{ValuePrediction, ValuePredictor};

/// Geometry and sizing of a [`Vtage`] predictor.
#[derive(Clone, Debug)]
pub struct VtageConfig {
    /// Entries in the tagless base component.
    pub base_entries: usize,
    /// Entries in each tagged component.
    pub tagged_entries: usize,
    /// History length per tagged component (ascending).
    pub history_lengths: Vec<usize>,
    /// Tag width of the shortest-history component; component `i` uses
    /// `base_tag_bits + i` bits (the paper's "12 + rank").
    pub base_tag_bits: u32,
}

impl VtageConfig {
    /// The paper's Table 2 configuration.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn paper() -> Self {
        VtageConfig {
            base_entries: 8192,
            tagged_entries: 1024,
            history_lengths: vec![2, 4, 8, 16, 32, 64],
            base_tag_bits: 12,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BaseEntry {
    value: u64,
    conf: Fpc,
}

#[derive(Clone, Copy, Debug, Default)]
struct TaggedEntry {
    valid: bool,
    tag: u32,
    value: u64,
    conf: Fpc,
    useful: u8, // 2-bit usefulness for the allocation policy
}

/// The VTAGE value predictor.
#[derive(Clone, Debug)]
pub struct Vtage {
    config: VtageConfig,
    base: Vec<BaseEntry>,
    tagged: Vec<Vec<TaggedEntry>>,
    policy: FpcPolicy,
    rng: SimRng,
    updates: u64,
    /// History folds per position (derived state, never snapshotted).
    memo: FoldMemo,
}

/// How often the usefulness bits decay (graceful aging, as in TAGE).
const USEFUL_RESET_PERIOD: u64 = 1 << 18;

impl Vtage {
    /// Creates a VTAGE with the paper's geometry.
    pub fn paper(seed: u64) -> Self {
        Self::new(VtageConfig::paper(), seed)
    }

    /// Creates a VTAGE from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `history_lengths` is rejected by [`FoldMemo::new`]
    /// (empty, not strictly ascending, or too long).
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(config: VtageConfig, seed: u64) -> Self {
        let memo = FoldMemo::new(&config.history_lengths, 0x1d_0000, 0x7a_0000);
        let base_n = config.base_entries.next_power_of_two().max(1);
        let tagged_n = config.tagged_entries.next_power_of_two().max(1);
        let comps = config.history_lengths.len();
        Vtage {
            base: vec![BaseEntry::default(); base_n],
            tagged: vec![vec![TaggedEntry::default(); tagged_n]; comps],
            config,
            policy: FpcPolicy::eole(),
            rng: SimRng::new(seed),
            updates: 0,
            memo,
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0xb5e) as usize) & (self.base.len() - 1)
    }

    fn tagged_index(&self, comp: usize, pc: u64, folds: &Folds) -> usize {
        (hash_pc(pc ^ folds.index(comp), 0x7a6e) as usize) & (self.tagged[comp].len() - 1)
    }

    fn tag_for(&self, comp: usize, pc: u64, folds: &Folds) -> u32 {
        let bits = self.config.base_tag_bits + comp as u32;
        (hash_pc(pc ^ folds.tag(comp).rotate_left(17), 0x7a9) as u32) & ((1u32 << bits) - 1)
    }

    /// Longest matching tagged component and its entry index, if any.
    fn provider(&self, pc: u64, folds: &Folds) -> Option<(usize, usize)> {
        for comp in (0..self.tagged.len()).rev() {
            let idx = self.tagged_index(comp, pc, folds);
            let e = &self.tagged[comp][idx];
            if e.valid && e.tag == self.tag_for(comp, pc, folds) {
                return Some((comp, idx));
            }
        }
        None
    }

    fn allocate_above(
        &mut self,
        provider_comp: Option<usize>,
        pc: u64,
        folds: &Folds,
        actual: u64,
    ) {
        let start = provider_comp.map(|c| c + 1).unwrap_or(0);
        if start >= self.tagged.len() {
            return;
        }
        // Scan candidate slots with useful == 0. Only the two shortest
        // candidates and the total count matter below, so track them in
        // place — this runs on the commit path, allocation-free.
        let mut shortest: Option<(usize, usize)> = None;
        let mut second: Option<(usize, usize)> = None;
        let mut free_count = 0usize;
        for comp in start..self.tagged.len() {
            let idx = self.tagged_index(comp, pc, folds);
            if self.tagged[comp][idx].useful == 0 {
                free_count += 1;
                if shortest.is_none() {
                    shortest = Some((comp, idx));
                } else if second.is_none() {
                    second = Some((comp, idx));
                }
            }
        }
        let Some(shortest) = shortest else {
            // Aging: make room for the future instead of thrashing now.
            for comp in start..self.tagged.len() {
                let idx = self.tagged_index(comp, pc, folds);
                let e = &mut self.tagged[comp][idx];
                e.useful = e.useful.saturating_sub(1);
            }
            return;
        };
        // Prefer shorter-history slots (cheaper to hit again), with a random
        // tie-break among the two shortest so allocations spread out.
        let (comp, idx) = if free_count >= 2 && self.rng.one_in(3) {
            second.expect("free_count >= 2")
        } else {
            shortest
        };
        self.tagged[comp][idx] = TaggedEntry {
            valid: true,
            tag: self.tag_for(comp, pc, folds),
            value: actual,
            conf: Fpc::new(),
            useful: 0,
        };
    }

    /// The prediction, and whether a tagged component provided it — one
    /// provider scan for the hybrid's selection rule (a tagged hit beats
    /// the stride side).
    pub(crate) fn predict_and_hit(
        &mut self,
        pc: u64,
        hist: HistoryView<'_>,
    ) -> (ValuePrediction, bool) {
        let folds = self.memo.folds(hist);
        let provider = self.provider(pc, &folds);
        let (value, conf) = match provider {
            Some((comp, idx)) => {
                let e = &self.tagged[comp][idx];
                (e.value, e.conf)
            }
            None => {
                let e = &self.base[self.base_index(pc)];
                (e.value, e.conf)
            }
        };
        (ValuePrediction::from_conf(value, conf), provider.is_some())
    }

    fn maybe_age_useful(&mut self) {
        self.updates += 1;
        if self.updates.is_multiple_of(USEFUL_RESET_PERIOD) {
            for comp in &mut self.tagged {
                for e in comp.iter_mut() {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
    }
}

impl ValuePredictor for Vtage {
    fn predict(&mut self, pc: u64, hist: HistoryView<'_>) -> Option<ValuePrediction> {
        Some(self.predict_and_hit(pc, hist).0)
    }

    fn train(&mut self, pc: u64, hist: HistoryView<'_>, actual: u64) {
        self.maybe_age_useful();
        let folds = self.memo.folds(hist);
        match self.provider(pc, &folds) {
            Some((comp, idx)) => {
                let correct = self.tagged[comp][idx].value == actual;
                if correct {
                    let policy = self.policy;
                    let e = &mut self.tagged[comp][idx];
                    e.useful = (e.useful + 1).min(3);
                    e.conf.on_correct(&policy, &mut self.rng);
                } else {
                    let e = &mut self.tagged[comp][idx];
                    e.useful = e.useful.saturating_sub(1);
                    if e.conf.level() == 0 {
                        e.value = actual;
                    } else {
                        e.conf.on_incorrect();
                    }
                    self.allocate_above(Some(comp), pc, &folds, actual);
                }
            }
            None => {
                let bidx = self.base_index(pc);
                let correct = self.base[bidx].value == actual;
                if correct {
                    let policy = self.policy;
                    self.base[bidx].conf.on_correct(&policy, &mut self.rng);
                } else {
                    if self.base[bidx].conf.level() == 0 {
                        self.base[bidx].value = actual;
                    } else {
                        self.base[bidx].conf.on_incorrect();
                    }
                    self.allocate_above(None, pc, &folds, actual);
                }
            }
        }
    }

    fn squash(&mut self, _pc: u64) {
        // Context-based on global branch history: nothing speculative kept.
    }

    fn storage_bits(&self) -> u64 {
        let base = self.base.len() as u64 * (64 + Fpc::BITS);
        let mut tagged = 0u64;
        for (i, comp) in self.tagged.iter().enumerate() {
            let tag_bits = self.config.base_tag_bits as u64 + i as u64;
            tagged += comp.len() as u64 * (1 + tag_bits + 64 + Fpc::BITS + 2);
        }
        base + tagged
    }

    fn name(&self) -> &'static str {
        "VTAGE"
    }
}

impl crate::snapshot::Snapshot for Vtage {
    fn snapshot(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.base.len());
        for e in &self.base {
            w.put_u64(e.value);
            e.conf.snapshot(w);
        }
        w.put_usize(self.tagged.len());
        for comp in &self.tagged {
            w.put_usize(comp.len());
            for e in comp {
                w.put_bool(e.valid);
                w.put_u32(e.tag);
                w.put_u64(e.value);
                e.conf.snapshot(w);
                w.put_u8(e.useful);
            }
        }
        self.rng.snapshot(w);
        w.put_u64(self.updates);
    }

    fn restore(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        use crate::snapshot::SnapError;
        if r.get_usize()? != self.base.len() {
            return Err(SnapError::new("vtage base size mismatch"));
        }
        for e in &mut self.base {
            e.value = r.get_u64()?;
            e.conf.restore(r)?;
        }
        if r.get_usize()? != self.tagged.len() {
            return Err(SnapError::new("vtage component count mismatch"));
        }
        for comp in &mut self.tagged {
            if r.get_usize()? != comp.len() {
                return Err(SnapError::new("vtage component size mismatch"));
            }
            for e in comp.iter_mut() {
                e.valid = r.get_bool()?;
                e.tag = r.get_u32()?;
                e.value = r.get_u64()?;
                e.conf.restore(r)?;
                e.useful = r.get_u8()?;
            }
        }
        self.rng.restore(r)?;
        self.updates = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::evaluate_stream;

    #[test]
    fn base_component_learns_constants() {
        let hist = BranchHistory::new();
        let mut p = Vtage::paper(1);
        for _ in 0..3_000 {
            p.train(0x40, hist.view(0), 123);
        }
        let pr = p.predict(0x40, hist.view(0)).unwrap();
        assert_eq!(pr.value, 123);
        assert!(pr.confident);
    }

    #[test]
    fn history_correlated_values_use_tagged_components() {
        // The value produced at pc 0x50 alternates with the last branch
        // outcome: taken → 7, not-taken → 9. The base table alone cannot
        // capture this; the tagged components can.
        let mut hist = BranchHistory::new();
        let mut p = Vtage::paper(2);
        let mut correct_late = 0u64;
        let total = 30_000;
        for i in 0..total {
            let taken = (i / 3) % 2 == 0;
            hist.push(taken);
            let pos = hist.len();
            let actual = if taken { 7 } else { 9 };
            let pred = p.predict(0x50, hist.view(pos)).unwrap();
            if i > total / 2 && pred.value == actual {
                correct_late += 1;
            }
            p.train(0x50, hist.view(pos), actual);
        }
        let rate = correct_late as f64 / (total / 2 - 1) as f64;
        assert!(rate > 0.85, "history-correlated accuracy = {rate:.3}");
    }

    #[test]
    fn confident_predictions_are_reliable_on_patterned_stream() {
        let mut hist = BranchHistory::new();
        for i in 0..1000 {
            hist.push(i % 2 == 0);
        }
        let mut p = Vtage::paper(3);
        let stream = (0..20_000u64).map(|i| (0x60, (i % 1000) as u32, (i % 4) * 10));
        let s = evaluate_stream(&mut p, &hist, stream);
        if s.confident > 0 {
            assert!(
                s.confident_correct as f64 / s.confident as f64 > 0.95,
                "confident accuracy too low: {}/{}",
                s.confident_correct,
                s.confident
            );
        }
    }

    #[test]
    fn storage_is_in_the_papers_ballpark() {
        let p = Vtage::paper(1);
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        // Paper's Table 2 reports ~68.7 KB base + ~64.1 KB tagged ≈ 133 KB.
        assert!((100.0..170.0).contains(&kb), "VTAGE storage = {kb:.1} KB");
    }

    #[test]
    fn rejects_non_ascending_histories() {
        let cfg = VtageConfig {
            base_entries: 64,
            tagged_entries: 64,
            history_lengths: vec![8, 4],
            base_tag_bits: 8,
        };
        assert!(std::panic::catch_unwind(|| Vtage::new(cfg, 1)).is_err());
    }

    #[test]
    fn rejects_histories_beyond_max_bits_at_construction() {
        let cfg = VtageConfig {
            history_lengths: vec![2, 64, crate::history::MAX_HISTORY_BITS + 1],
            ..VtageConfig::paper()
        };
        assert!(std::panic::catch_unwind(|| Vtage::new(cfg, 1)).is_err());
    }

    #[test]
    fn squash_is_a_no_op() {
        let hist = BranchHistory::new();
        let mut p = Vtage::paper(1);
        p.train(0x40, hist.view(0), 5);
        let before = p.predict(0x40, hist.view(0));
        p.squash(0x40);
        assert_eq!(p.predict(0x40, hist.view(0)), before);
    }
}
