//! TAGE — TAgged GEometric history length branch predictor
//! (Seznec & Michaud, JILP 2006; the paper's [31]), with confidence
//! estimation in the spirit of Seznec, HPCA 2011 (the paper's [30]).
//!
//! Confidence: [30] classifies predictions by the provider counter, with
//! saturated counters empirically mispredicting <0.5% on SPEC. Our
//! synthetic suite contains *biased-but-noisy* branches (e.g. an 82%-taken
//! type check) whose 3-bit counters would park at saturation, poisoning
//! the very-high-confidence class that EOLE late-executes. We therefore
//! implement the class with an explicit 2-bit *probabilistic* confidence
//! counter per entry (incremented with probability 1/32 on a correct
//! prediction, reset on a misprediction) — the wide-counter emulation [30]
//! itself proposes. A branch only reaches very-high confidence after an
//! expected ~128 consecutive correct predictions, which noisy branches
//! essentially never achieve.
//!
//! The paper's front end uses "TAGE 1+12 components, 15K-entry total,
//! 20 cycles min. mis. penalty". We implement a 4K-entry bimodal base plus
//! 12 tagged components of 1K entries with geometric history lengths
//! 4…640. The provider and alternate scans, allocation and usefulness
//! aging are the TAGE family's shared policy (`tagged.rs`); this module
//! holds the counters, the bimodal base and the weak-new-entry fallback.
//!
//! Keys: a branch's 12 (entry, tag) pairs are a pure function of its pc,
//! its history position and the geometry — the seed drives only the
//! allocation RNG. [`Tage::keys`] computes them as one [`TageKeys`], in
//! the TAGE family's one word layout (at the paper geometry, a 14-bit
//! entry index beside a tag of at most 15 bits), and the keyed
//! [`Tage::predict_keyed`] / [`Tage::update_keyed`] are the predictor.
//! The timing core builds every conditional branch's keys once per trace
//! and calls the keyed pair directly; the [`DirectionPredictor`] impl is
//! a thin adapter that builds the same keys per call from the fold memo,
//! for callers that only hold a history view.

use crate::branch::{Bimodal, BranchConfidence, BranchPrediction, DirectionPredictor};
use crate::history::{hash_pc, HistoryView};
use crate::rng::SimRng;
use crate::tagged::TaggedTables;

/// Most tagged components a [`Tage`] holds (the paper's 12).
pub const TAGE_COMPONENTS: usize = 12;

/// One conditional branch's keys into TAGE's tagged components: per
/// component, its tag `<< index_bits |` its entry index into the
/// component-major tables, the TAGE family's one key layout (`tagged.rs`;
/// components past the configured count hold 0). 48 bytes.
pub type TageKeys = [u32; TAGE_COMPONENTS];

/// Geometry of a [`Tage`] predictor.
#[derive(Clone, Debug)]
pub struct TageConfig {
    /// Entries in the bimodal base.
    pub base_entries: usize,
    /// Entries per tagged component.
    pub tagged_entries: usize,
    /// Geometric history lengths (ascending), one per tagged component.
    pub history_lengths: Vec<usize>,
    /// Tag bits of the shortest component; grows by 1 every two ranks.
    pub base_tag_bits: u32,
}

impl TageConfig {
    /// The paper's configuration: 1 + 12 components.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn paper() -> Self {
        TageConfig {
            base_entries: 4096,
            tagged_entries: 1024,
            history_lengths: vec![4, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640],
            base_tag_bits: 9,
        }
    }
}

/// The payload of a tagged entry.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    /// 3-bit signed counter, −4..=3; ≥0 predicts taken.
    ctr: i8,
    /// 2-bit probabilistic confidence (3 = very high).
    conf: u8,
}

/// The TAGE direction predictor.
#[derive(Clone, Debug)]
pub struct Tage {
    config: TageConfig,
    base: Bimodal,
    base_conf: Vec<u8>,
    tagged: TaggedTables<Counters>,
    rng: SimRng,
}

impl Tage {
    /// Creates a TAGE with the paper's geometry.
    pub fn paper(seed: u64) -> Self {
        Self::new(TageConfig::paper(), seed)
    }

    /// Creates a TAGE from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `history_lengths` is rejected by
    /// [`FoldMemo::new`](crate::history::FoldMemo::new) (empty, not
    /// strictly ascending, or too long), holds more than
    /// [`TAGE_COMPONENTS`] lengths, or an entry index and a 15-bit tag
    /// (the widest a component has) do not fit one 32-bit [`TageKeys`]
    /// word.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(config: TageConfig, seed: u64) -> Self {
        let rows = config.tagged_entries.next_power_of_two().max(1);
        let tagged = TaggedTables::new(&config.history_lengths, (0x7163, 0x91b7), rows);
        tagged.assert_packable::<TAGE_COMPONENTS>(15, "TAGE");
        let base = Bimodal::new(config.base_entries);
        Tage {
            base_conf: vec![0u8; base.len()],
            base,
            tagged,
            config,
            rng: SimRng::new(seed),
        }
    }

    fn base_conf_index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0xbcf1) as usize) & (self.base_conf.len() - 1)
    }

    /// The tagged components' keys of the branch at `pc` under `hist`.
    /// A pure function of `pc`, `hist` and the geometry: the seed and the
    /// table contents play no part, so keys computed by one instance
    /// serve every instance of the same geometry. Takes `&mut self` only
    /// for the history-fold memo.
    pub fn keys(&mut self, pc: u64, hist: HistoryView<'_>) -> TageKeys {
        let base_tag_bits = self.config.base_tag_bits;
        let row = move |_, fold| hash_pc(pc ^ fold, 0x7a93) as usize;
        let tag = move |comp, fold: u64| {
            (hash_pc(pc ^ fold.rotate_left(21), 0x3d71) as u32)
                & ((1 << tag_bits(base_tag_bits, comp)) - 1)
        };
        self.tagged.keys(hist, row, tag)
    }

    /// The alternate prediction: the longest hit below `below`, else the
    /// base.
    fn alternate_taken(&self, pc: u64, keys: &TageKeys, below: usize) -> bool {
        match self.tagged.hit_below(keys, below) {
            Some((_, i)) => self.tagged.data[i].ctr >= 0,
            None => self.base.counter(pc) >= 2,
        }
    }

    /// The final prediction, given the keys and the provider they select.
    fn predict_with(
        &self,
        pc: u64,
        keys: &TageKeys,
        provider: Option<(usize, usize)>,
    ) -> BranchPrediction {
        match provider {
            Some((comp, i)) => {
                let c = self.tagged.data[i];
                // Newly allocated entries (weak counter, never useful) are
                // unreliable: fall back to the alternate prediction.
                let weak_new = (c.ctr == 0 || c.ctr == -1) && self.tagged.meta[i].useful == 0;
                let taken = if weak_new {
                    self.alternate_taken(pc, keys, comp)
                } else {
                    c.ctr >= 0
                };
                let confidence = if !weak_new && c.conf == 3 {
                    BranchConfidence::VeryHigh
                } else {
                    BranchConfidence::Medium
                };
                BranchPrediction { taken, confidence }
            }
            None => {
                let c = self.base.counter(pc);
                BranchPrediction {
                    taken: c >= 2,
                    confidence: if self.base_conf[self.base_conf_index(pc)] == 3 {
                        BranchConfidence::VeryHigh
                    } else {
                        BranchConfidence::Medium
                    },
                }
            }
        }
    }

    /// Predicts the direction of the conditional branch at `pc` whose
    /// tagged-component keys are `keys` ([`Tage::keys`]).
    pub fn predict_keyed(&self, pc: u64, keys: &TageKeys) -> BranchPrediction {
        let provider = self.tagged.hit_below(keys, self.tagged.comps());
        self.predict_with(pc, keys, provider)
    }

    /// Trains the branch at `pc` whose keys are `keys` with its resolved
    /// outcome (called in commit order).
    pub fn update_keyed(&mut self, pc: u64, keys: &TageKeys, taken: bool) {
        self.tagged.age(|u| u >> 1);
        // Reproduce the fetch-time final prediction for confidence upkeep.
        let provider = self.tagged.hit_below(keys, self.tagged.comps());
        let final_taken = self.predict_with(pc, keys, provider).taken;
        let conf_gate = self.rng.one_in(32);
        let mispredicted = match provider {
            Some((comp, i)) => {
                let alt = self.alternate_taken(pc, keys, comp);
                let provider_taken = self.tagged.data[i].ctr >= 0;
                // Usefulness tracks "provider beat the alternate".
                if provider_taken != alt {
                    self.tagged.meta[i].reward(provider_taken == taken);
                }
                // Probabilistic confidence: slow to earn, instant to lose.
                let c = &mut self.tagged.data[i];
                if final_taken != taken {
                    c.conf = 0;
                } else if conf_gate {
                    c.conf = (c.conf + 1).min(3);
                }
                c.ctr = if taken { (c.ctr + 1).min(3) } else { (c.ctr - 1).max(-4) };
                provider_taken != taken
            }
            None => {
                let base_taken = self.base.counter(pc) >= 2;
                let bidx = self.base_conf_index(pc);
                if final_taken == taken {
                    if conf_gate {
                        self.base_conf[bidx] = (self.base_conf[bidx] + 1).min(3);
                    }
                } else {
                    self.base_conf[bidx] = 0;
                }
                self.base.train(pc, taken);
                base_taken != taken
            }
        };
        if mispredicted {
            let start = provider.map_or(0, |(c, _)| c + 1);
            let fresh = Counters { ctr: if taken { 0 } else { -1 }, conf: 0 };
            self.tagged.allocate(keys, start, &mut self.rng, fresh);
        }
    }
}

/// Tag bits of component `comp`: one more every two ranks, at most 15.
fn tag_bits(base_tag_bits: u32, comp: usize) -> u32 {
    (base_tag_bits + comp as u32 / 2).min(15)
}

/// Adapter over the keyed pair, deriving the keys per call.
impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: u64, hist: HistoryView<'_>) -> BranchPrediction {
        let keys = self.keys(pc, hist);
        self.predict_keyed(pc, &keys)
    }

    fn update(&mut self, pc: u64, hist: HistoryView<'_>, taken: bool) {
        let keys = self.keys(pc, hist);
        self.update_keyed(pc, &keys, taken);
    }

    fn storage_bits(&self) -> u64 {
        let mut bits = self.base.storage_bits() + self.base_conf.len() as u64 * 2;
        for comp in 0..self.tagged.comps() {
            let tag = tag_bits(self.config.base_tag_bits, comp) as u64;
            bits += self.tagged.rows() as u64 * (1 + tag + 3 + 2 + 2);
        }
        bits
    }

    fn name(&self) -> &'static str {
        "TAGE"
    }
}

impl crate::snapshot::Snapshot for Tage {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        self.base.snap(s)?;
        s.shape(self.base_conf.len(), "tage base_conf size mismatch")?;
        for c in &mut self.base_conf {
            s.bounded(c, ..=3, "tage base_conf out of range")?;
        }
        s.shape(self.tagged.comps(), "tage component count mismatch")?;
        for (metas, counters) in self.tagged.components_mut() {
            s.shape(metas.len(), "tage component size mismatch")?;
            for (m, c) in metas.iter_mut().zip(counters) {
                s.field(&mut m.valid)?;
                s.field(&mut m.tag)?;
                s.bounded(&mut c.ctr, -4..=3, "tage ctr out of range")?;
                s.bounded(&mut m.useful, ..=3, "tage useful out of range")?;
                s.bounded(&mut c.conf, ..=3, "tage conf out of range")?;
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

    /// Runs a synthetic branch stream through TAGE, returning
    /// (mispredicts, very-high-confidence count, vh mispredicts).
    fn run_stream(outcomes: impl Iterator<Item = (u64, bool)>, seed: u64) -> (u64, u64, u64, u64) {
        let mut tage = Tage::paper(seed);
        let mut hist = BranchHistory::new();
        let (mut total, mut mis, mut vh, mut vh_mis) = (0u64, 0u64, 0u64, 0u64);
        for (pc, taken) in outcomes {
            let pos = hist.len();
            let pred = tage.predict(pc, hist.view(pos));
            total += 1;
            if pred.taken != taken {
                mis += 1;
            }
            if pred.confidence == BranchConfidence::VeryHigh {
                vh += 1;
                if pred.taken != taken {
                    vh_mis += 1;
                }
            }
            tage.update(pc, hist.view(pos), taken);
            hist.push(taken);
        }
        (total, mis, vh, vh_mis)
    }

    #[test]
    fn biased_branches_become_very_high_confidence() {
        let stream = (0..20_000u64).map(|_| (0x100, true));
        let (total, mis, vh, vh_mis) = run_stream(stream, 1);
        assert!(mis <= 2, "mispredicts on an always-taken branch: {mis}");
        assert!(vh as f64 / total as f64 > 0.9, "vh fraction = {}", vh as f64 / total as f64);
        assert_eq!(vh_mis, 0);
    }

    #[test]
    fn short_loop_exits_are_learned_through_history() {
        // Inner loop of 8 iterations: branch taken 7×, then not taken.
        // Bimodal alone mispredicts every exit (12.5%); TAGE should learn
        // the pattern via history and get close to zero.
        let stream = (0..80_000u64).map(|i| (0x200, i % 8 != 7));
        let (total, mis, _, _) = run_stream(stream, 2);
        let rate = mis as f64 / total as f64;
        assert!(rate < 0.02, "loop-exit misprediction rate = {rate:.4}");
    }

    #[test]
    fn very_high_confidence_class_is_reliable() {
        // Mix of biased and patterned branches; the VH class must stay
        // under ~1% mispredictions (the paper cites <0.5% for TAGE).
        let stream = (0..200_000u64).flat_map(|i| {
            [
                (0x300, true),             // always taken
                (0x308, i % 16 != 15),     // loop exit every 16
                (0x310, (i / 3) % 2 == 0), // period-6 pattern
            ]
        });
        let (_, _, vh, vh_mis) = run_stream(stream, 3);
        assert!(vh > 100_000, "vh = {vh}");
        let rate = vh_mis as f64 / vh as f64;
        assert!(rate < 0.01, "VH misprediction rate = {rate:.4}");
    }

    #[test]
    fn random_branches_are_not_very_high_confidence() {
        let mut rng = SimRng::new(9);
        let outcomes: Vec<(u64, bool)> =
            (0..50_000).map(|_| (0x400, rng.next_u64() & 1 == 1)).collect();
        let (total, _, vh, _) = run_stream(outcomes.into_iter(), 4);
        assert!(
            (vh as f64 / total as f64) < 0.2,
            "random branch should rarely be VH: {}",
            vh as f64 / total as f64
        );
    }

    #[test]
    fn storage_is_in_the_15k_entry_ballpark() {
        let t = Tage::paper(1);
        let kb = t.storage_bits() as f64 / 8.0 / 1024.0;
        // 4K bimodal + 12×1K tagged ≈ 16K entries, ~25 KB.
        assert!((15.0..40.0).contains(&kb), "TAGE storage = {kb:.1} KB");
    }

    #[test]
    fn rejects_bad_geometry() {
        let cfg = TageConfig {
            base_entries: 64,
            tagged_entries: 64,
            history_lengths: vec![],
            base_tag_bits: 8,
        };
        assert!(std::panic::catch_unwind(|| Tage::new(cfg, 1)).is_err());
    }

    #[test]
    fn rejects_geometry_its_packed_keys_cannot_address() {
        let thirteen = TageConfig { history_lengths: (1..=13).collect(), ..TageConfig::paper() };
        assert!(std::panic::catch_unwind(|| Tage::new(thirteen, 1)).is_err());
        // 12 × 8192 entries need a 17-bit index: with 15-bit tags, 32
        // bits. 12 × 16384 need 18 and do not fit.
        let _ = Tage::new(TageConfig { tagged_entries: 8192, ..TageConfig::paper() }, 1);
        let wide = TageConfig { tagged_entries: 16384, ..TageConfig::paper() };
        assert!(std::panic::catch_unwind(|| Tage::new(wide, 1)).is_err());
    }

    #[test]
    fn rejects_histories_beyond_max_bits_at_construction() {
        let cfg = TageConfig {
            history_lengths: vec![4, 640, crate::history::MAX_HISTORY_BITS + 1],
            ..TageConfig::paper()
        };
        assert!(std::panic::catch_unwind(|| Tage::new(cfg, 1)).is_err());
    }
}
