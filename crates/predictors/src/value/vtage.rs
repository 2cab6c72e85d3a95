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
//! to predict the current one"* — so unlike the stride family it ignores
//! the in-flight depth the speculative window passes to `predict`.
//!
//! Configuration from Table 2: 8192-entry base, 6 × 1024-entry tagged
//! components, tags of `12 + rank` bits, FPC confidence. The provider
//! scan, allocation and usefulness aging are the TAGE family's shared
//! policy (`tagged.rs`); this module holds the value payload and the base.
//!
//! Keys: a µ-op's 6 (entry, tag) pairs are a pure function of its pc, its
//! history position and the geometry ([`VpKeySchema`]). [`Vtage::keys`]
//! computes them as one [`VpKeys`], and the keyed
//! [`Vtage::predict_keyed`] / [`Vtage::train_keyed`] are the predictor.
//! The timing core builds every VP-eligible µ-op's keys once per trace
//! and calls the keyed pair; the [`ValuePredictor`] impl is a thin
//! adapter that builds the same keys per call from the fold memo and
//! calls the same pair. A key word packs a tag of up to 17 bits above a
//! 13-bit entry index at the paper geometry (`tagged.rs`).

use crate::fpc::{Fpc, FpcPolicy};
use crate::history::{hash_pc, HistoryView};
use crate::rng::SimRng;
use crate::tagged::TaggedTables;
use crate::value::{InFlight, ValuePrediction, ValuePredictor, VpKeySchema, VpKeys, VP_COMPONENTS};

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

/// A value and its confidence: a base entry, and the payload of a tagged
/// one.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    value: u64,
    conf: Fpc,
}

impl Slot {
    /// Trains toward `actual`; returns whether the slot was correct.
    fn train(&mut self, actual: u64, policy: &FpcPolicy, rng: &mut SimRng) -> bool {
        let correct = self.value == actual;
        if correct {
            self.conf.on_correct(policy, rng);
        } else if self.conf.level() == 0 {
            self.value = actual;
        } else {
            self.conf.on_incorrect();
        }
        correct
    }
}

/// The VTAGE value predictor.
#[derive(Clone, Debug)]
pub struct Vtage {
    config: VtageConfig,
    base: Vec<Slot>,
    tagged: TaggedTables<Slot>,
    policy: FpcPolicy,
    rng: SimRng,
}

impl Vtage {
    /// Creates a VTAGE with the paper's geometry.
    pub fn paper(seed: u64) -> Self {
        Self::new(VtageConfig::paper(), seed)
    }

    /// Creates a VTAGE from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `history_lengths` is rejected by
    /// [`FoldMemo::new`](crate::history::FoldMemo::new) (empty, not
    /// strictly ascending, or too long), holds more than
    /// [`VP_COMPONENTS`] lengths, or an entry index and the widest tag
    /// do not fit one 32-bit [`VpKeys`] word.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(config: VtageConfig, seed: u64) -> Self {
        let rows = config.tagged_entries.next_power_of_two().max(1);
        let tagged = TaggedTables::new(&config.history_lengths, (0x1d_0000, 0x7a_0000), rows);
        let widest_tag = config.base_tag_bits + tagged.comps() as u32 - 1;
        tagged.assert_packable::<VP_COMPONENTS>(widest_tag, "VTAGE");
        Vtage {
            base: vec![Slot::default(); config.base_entries.next_power_of_two().max(1)],
            tagged,
            config,
            policy: FpcPolicy::eole(),
            rng: SimRng::new(seed),
        }
    }

    fn base_index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0xb5e) as usize) & (self.base.len() - 1)
    }

    /// The tagged components' keys of the µ-op at `pc` under `hist`, with
    /// `12 + rank`-bit tags. A pure function of `pc`, `hist` and the
    /// [`key_schema`](Self::key_schema): keys computed by one instance
    /// serve every instance of the same schema. Takes `&mut self` only
    /// for the history-fold memo.
    pub fn keys(&mut self, pc: u64, hist: HistoryView<'_>) -> VpKeys {
        let base_tag_bits = self.config.base_tag_bits;
        let row = move |_, fold| hash_pc(pc ^ fold, 0x7a6e) as usize;
        let tag = move |comp, fold: u64| {
            let bits = base_tag_bits + comp as u32;
            (hash_pc(pc ^ fold.rotate_left(17), 0x7a9) as u32) & ((1u32 << bits) - 1)
        };
        self.tagged.keys(hist, row, tag)
    }

    /// What fixes this predictor's [`keys`](Self::keys).
    // lint:allow(hot-alloc) cold path: read once per simulator, at construction, to find its key table
    pub fn key_schema(&self) -> VpKeySchema {
        VpKeySchema {
            family: "VTAGE",
            history_lengths: self.config.history_lengths.clone(),
            rows: self.tagged.rows(),
            base_tag_bits: self.config.base_tag_bits,
            shape: (1, 1),
        }
    }

    /// The prediction, and whether a tagged component provided it — one
    /// provider scan for the hybrid's selection rule (a tagged hit beats
    /// the stride side).
    pub(crate) fn predict_and_hit(&self, pc: u64, keys: &VpKeys) -> (ValuePrediction, bool) {
        let provider = self.tagged.hit_below(keys, self.tagged.comps());
        let s = match provider {
            Some((_, i)) => self.tagged.data[i],
            None => self.base[self.base_index(pc)],
        };
        (ValuePrediction::from_conf(s.value, s.conf), provider.is_some())
    }

    /// Predicts the result of the µ-op at `pc` whose tagged-component keys
    /// are `keys` ([`Vtage::keys`]).
    pub fn predict_keyed(&self, pc: u64, keys: &VpKeys) -> ValuePrediction {
        self.predict_and_hit(pc, keys).0
    }

    /// Trains the µ-op at `pc` whose keys are `keys` with its
    /// architectural result (called in commit order).
    pub fn train_keyed(&mut self, pc: u64, keys: &VpKeys, actual: u64) {
        self.tagged.age(|u| u.saturating_sub(1));
        let provider = self.tagged.hit_below(keys, self.tagged.comps());
        let correct = match provider {
            Some((_, i)) => {
                let correct = self.tagged.data[i].train(actual, &self.policy, &mut self.rng);
                self.tagged.meta[i].reward(correct);
                correct
            }
            None => {
                let bidx = self.base_index(pc);
                self.base[bidx].train(actual, &self.policy, &mut self.rng)
            }
        };
        if !correct {
            // Allocate above the provider: prefer shorter-history slots
            // (cheaper to hit again), spread by the random tie-break.
            let start = provider.map_or(0, |(c, _)| c + 1);
            let fresh = Slot { value: actual, conf: Fpc::new() };
            self.tagged.allocate(keys, start, &mut self.rng, fresh);
        }
    }
}

/// Adapter over the keyed pair, deriving the keys per call.
impl ValuePredictor for Vtage {
    fn predict(
        &mut self,
        pc: u64,
        hist: HistoryView<'_>,
        _inflight: InFlight,
    ) -> Option<ValuePrediction> {
        let keys = self.keys(pc, hist);
        Some(self.predict_keyed(pc, &keys))
    }

    fn train(&mut self, pc: u64, hist: HistoryView<'_>, actual: u64) {
        let keys = self.keys(pc, hist);
        self.train_keyed(pc, &keys, actual);
    }

    fn storage_bits(&self) -> u64 {
        let base = self.base.len() as u64 * (64 + Fpc::BITS);
        let mut tagged = 0u64;
        for i in 0..self.tagged.comps() {
            let tag_bits = self.config.base_tag_bits as u64 + i as u64;
            tagged += self.tagged.rows() as u64 * (1 + tag_bits + 64 + Fpc::BITS + 2);
        }
        base + tagged
    }

    fn name(&self) -> &'static str {
        "VTAGE"
    }
}

impl crate::snapshot::Snapshot for Vtage {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        s.shape(self.base.len(), "vtage base size mismatch")?;
        for e in &mut self.base {
            s.field(&mut e.value)?;
            e.conf.snap(s)?;
        }
        s.shape(self.tagged.comps(), "vtage component count mismatch")?;
        for (metas, slots) in self.tagged.components_mut() {
            s.shape(metas.len(), "vtage component size mismatch")?;
            for (m, slot) in metas.iter_mut().zip(slots) {
                s.field(&mut m.valid)?;
                s.field(&mut m.tag)?;
                s.field(&mut slot.value)?;
                slot.conf.snap(s)?;
                s.bounded(&mut m.useful, ..=3, "vtage useful out of range")?;
            }
        }
        self.rng.snap(s)?;
        s.field(&mut self.tagged.updates)
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
        let pr = p.predict(0x40, hist.view(0), InFlight::default()).unwrap();
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
            let pred = p.predict(0x50, hist.view(pos), InFlight::default()).unwrap();
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
    fn rejects_geometry_its_packed_keys_cannot_address() {
        let seven = VtageConfig { history_lengths: (1..=7).collect(), ..VtageConfig::paper() };
        assert!(std::panic::catch_unwind(|| Vtage::new(seven, 1)).is_err());
        // 6 × 4096 entries need a 15-bit index; with 17-bit tags that is
        // 32 bits, and one more tag bit does not fit.
        let wide = VtageConfig { tagged_entries: 4096, ..VtageConfig::paper() };
        let _ = Vtage::new(wide.clone(), 1);
        let wider_tags = VtageConfig { base_tag_bits: 13, ..wide };
        assert!(std::panic::catch_unwind(|| Vtage::new(wider_tags, 1)).is_err());
        let wider_rows = VtageConfig { tagged_entries: 8192, ..VtageConfig::paper() };
        assert!(std::panic::catch_unwind(|| Vtage::new(wider_rows, 1)).is_err());
    }
}
