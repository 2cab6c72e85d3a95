//! D-VTAGE — the Differential Value TAGE predictor behind BeBoP
//! (Perais & Seznec, "BeBoP: Practical block-based value prediction",
//! HPCA 2015 — the follow-on to the EOLE paper's VTAGE-2DStride hybrid).
//!
//! Three ideas make it the *cost-aware* realization of the hybrid:
//!
//! 1. **Differential storage.** Tagged components store narrow *deltas*
//!    (`delta_bits` wide, 16 by default) against a Last Value Table (LVT)
//!    instead of full 64-bit values — most of the hybrid's 385 KB is
//!    64-bit values and full tags, so the same behavior fits in a
//!    fraction of the storage. The base delta table doubles as a stride
//!    predictor (delta learned per static µ-op, no history), so D-VTAGE
//!    subsumes both halves of the hybrid in one structure.
//! 2. **Block-based organization (BeBoP).** Every table is indexed and
//!    tagged by *fetch-block* address; an entry covers `block_size`
//!    µ-op slots and carries **one** tag and one usefulness counter for
//!    the whole block — amortizing tag storage and, at fetch, letting
//!    one read per block serve the whole fetch group (the access-count
//!    story the EOLE paper's §4.2 asks for).
//! 3. **Speculative last values.** Computing `last + delta` off the
//!    *committed* last value is wrong whenever several instances of the
//!    same µ-op are in flight. The [`BlockVp`](super::BlockVp) window
//!    feeds the youngest in-flight predicted value in as `spec_last`;
//!    [`DVtage::predict_spec`] itself never mutates predictor state
//!    (only the derived history-fold memo), so squash
//!    recovery is exactly "drop the window entries" — the tables only
//!    ever learn from committed state (the rollback property pinned by
//!    the compat-proptest in `value/block.rs`).
//!
//! Storage is banked: a block maps to bank `block_number % banks`, each
//! bank owning `entries / banks` rows — the layout knob Fig. 11-style
//! port sweeps care about.
//!
//! The provider scan, the allocation victim pick and usefulness aging are
//! the TAGE family's shared policy (`tagged.rs`); this module holds the
//! delta slots, copy-on-allocate, the LVT and base, and the banking.

use crate::fpc::{Fpc, FpcPolicy};
use crate::history::{hash_pc, HistoryView};
use crate::rng::SimRng;
use crate::tagged::{KeyHash, Keys, TaggedTables};
use crate::value::{ValuePrediction, ValuePredictor};

/// Bytes per µ-op in trace addresses (`Program::inst_addr` spacing).
const INST_BYTES: u64 = 4;

/// Geometry and sizing of a [`DVtage`] predictor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DVtageConfig {
    /// Blocks in the (tagless) Last Value Table.
    pub lvt_entries: usize,
    /// Blocks in the tagless base delta table.
    pub base_entries: usize,
    /// Blocks in each tagged delta component.
    pub tagged_entries: usize,
    /// History length per tagged component (ascending).
    pub history_lengths: Vec<usize>,
    /// Tag width of the shortest-history component; component `i` uses
    /// `base_tag_bits + i` bits.
    pub base_tag_bits: u32,
    /// Signed width of a stored delta; values whose stride does not fit
    /// simply never gain confidence.
    pub delta_bits: u32,
    /// µ-op slots per block entry (the BeBoP fetch-block size).
    pub block_size: usize,
    /// Storage banks; a block lives in bank `block_number % banks`.
    pub banks: usize,
}

impl DVtageConfig {
    /// The HPCA 2015-flavored default geometry for a given block shape:
    /// 2K-block LVT and base, 6 × 512-block tagged components, 16-bit
    /// deltas. At `block_size` 4 this is ≈ 140 KB — under half the
    /// EOLE hybrid's 385 KB (Table 2) for the `dvtage_budget`
    /// comparison to beat.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn paper(block_size: usize, banks: usize) -> Self {
        DVtageConfig {
            lvt_entries: 2048,
            base_entries: 2048,
            tagged_entries: 512,
            history_lengths: vec![2, 4, 8, 16, 32, 64],
            base_tag_bits: 11,
            delta_bits: 16,
            block_size,
            banks,
        }
    }

    /// Scales the paper geometry down by powers of two until the total
    /// storage fits `budget_bits` — the equal-storage-budget constructor
    /// the `dvtage_budget` experiment uses. The shape (component count,
    /// history lengths, delta width) is preserved; only capacities move.
    ///
    /// Best effort: capacities floor at `banks` rows (a bank cannot be
    /// empty), so a budget below that smallest geometry is *not*
    /// reachable and the returned configuration exceeds it. Callers
    /// that report equal-budget comparisons read the actual size back
    /// via `storage_bits()` (the experiment prints both sizes in its
    /// title and its test asserts the ≤ relation for the real budget).
    pub fn with_budget_bits(budget_bits: u64, block_size: usize, banks: usize) -> Self {
        let mut cfg = Self::paper(block_size, banks);
        // Grow first (the paper geometry may sit far below the budget),
        // then shrink until it fits.
        while DVtage::storage_bits_of(&cfg) * 2 <= budget_bits && cfg.lvt_entries < 1 << 20 {
            cfg.lvt_entries *= 2;
            cfg.base_entries *= 2;
            cfg.tagged_entries *= 2;
        }
        while DVtage::storage_bits_of(&cfg) > budget_bits && cfg.tagged_entries > banks {
            cfg.lvt_entries /= 2;
            cfg.base_entries /= 2;
            cfg.tagged_entries /= 2;
        }
        cfg
    }
}

/// One delta slot: the stored delta and its confidence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DeltaSlot {
    delta: i64,
    conf: Fpc,
}

impl DeltaSlot {
    /// Trains toward `true_delta` (storing `storable` on a replace);
    /// returns whether the slot was correct.
    fn train(
        &mut self,
        (true_delta, storable): (i64, i64),
        policy: &FpcPolicy,
        rng: &mut SimRng,
    ) -> bool {
        let correct = self.delta == true_delta;
        if correct {
            self.conf.on_correct(policy, rng);
        } else if self.conf.level() == 0 {
            self.delta = storable;
        } else {
            self.conf.on_incorrect();
        }
        correct
    }
}

/// The D-VTAGE block-based value predictor. Equality ignores the derived
/// history-fold memo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DVtage {
    config: DVtageConfig,
    /// Committed last values, `lvt_entries * block_size` flat.
    lvt: Vec<u64>,
    /// Base delta table, `base_entries * block_size` flat.
    base: Vec<DeltaSlot>,
    /// One tag and one usefulness counter per block entry cover all
    /// `block_size` slots (BeBoP's tag amortization).
    tagged: TaggedTables<()>,
    /// The tagged entries' delta slots, `block_size` per entry, indexed
    /// like `tagged`.
    slots: Vec<DeltaSlot>,
    policy: FpcPolicy,
    rng: SimRng,
}

impl DVtage {
    /// Creates a D-VTAGE from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `history_lengths` is rejected by
    /// [`FoldMemo::new`](crate::history::FoldMemo::new) (empty, not
    /// strictly ascending, or too long), or if
    /// `block_size`/`banks` are not powers of two (`CoreConfig`
    /// validation reports these as typed errors before any predictor is
    /// built; hitting one here is a harness authoring bug).
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(config: DVtageConfig, seed: u64) -> Self {
        assert!(config.block_size.is_power_of_two() && config.banks.is_power_of_two());
        let norm = |n: usize| n.next_power_of_two().max(config.banks);
        let config = DVtageConfig {
            lvt_entries: norm(config.lvt_entries),
            base_entries: norm(config.base_entries),
            tagged_entries: norm(config.tagged_entries),
            ..config
        };
        let b = config.block_size;
        let seeds = (0x2d_0000, 0x9d_0000);
        let tagged = TaggedTables::new(&config.history_lengths, seeds, config.tagged_entries);
        DVtage {
            lvt: vec![0; config.lvt_entries * b],
            base: vec![DeltaSlot::default(); config.base_entries * b],
            slots: vec![DeltaSlot::default(); tagged.comps() * tagged.rows() * b],
            tagged,
            config,
            policy: FpcPolicy::eole(),
            rng: SimRng::new(seed),
        }
    }

    /// The HPCA 2015-flavored default for a block shape.
    pub fn paper(block_size: usize, banks: usize, seed: u64) -> Self {
        Self::new(DVtageConfig::paper(block_size, banks), seed)
    }

    /// The active configuration.
    pub fn config(&self) -> &DVtageConfig {
        &self.config
    }

    /// `(block address, slot)` of a µ-op address.
    #[inline]
    fn block_of(&self, pc: u64) -> (u64, usize) {
        let span = self.config.block_size as u64 * INST_BYTES;
        let bpc = pc & !(span - 1);
        let slot = ((pc - bpc) / INST_BYTES) as usize;
        (bpc, slot)
    }

    #[inline]
    fn lvt_index(&self, bpc: u64) -> usize {
        let c = &self.config;
        banked_index((c.banks, c.block_size), bpc, c.lvt_entries, 0x1f7a)
    }

    #[inline]
    fn base_index(&self, bpc: u64) -> usize {
        let c = &self.config;
        banked_index((c.banks, c.block_size), bpc, c.base_entries, 0xd5e1)
    }

    /// The tagged components' banked rows and tags for the block at `bpc`.
    fn keys(&mut self, bpc: u64, hist: HistoryView<'_>) -> Keys<impl KeyHash> {
        let c = &self.config;
        let (shape, rows, tag_bits) = ((c.banks, c.block_size), c.tagged_entries, c.base_tag_bits);
        let row = move |comp, fold| banked_index(shape, bpc ^ fold, rows, 0x6d7a + comp as u64);
        let tag = move |comp, fold: u64| {
            let bits = tag_bits + comp as u32;
            (hash_pc(bpc ^ fold.rotate_left(13), 0xd7a9) as u32) & ((1u32 << bits) - 1)
        };
        self.tagged.keys(hist, (row, tag))
    }

    /// Signed range check against `delta_bits`.
    #[inline]
    fn representable(&self, delta: i64) -> bool {
        let bits = self.config.delta_bits;
        if bits >= 64 {
            return true;
        }
        let max = (1i64 << (bits - 1)) - 1;
        delta >= -max - 1 && delta <= max
    }

    /// The committed last value for `pc`.
    pub fn committed_last(&self, pc: u64) -> u64 {
        let (bpc, slot) = self.block_of(pc);
        self.lvt[self.lvt_index(bpc) * self.config.block_size + slot]
    }

    /// Predicts `last + delta` for the µ-op at `pc`. `spec_last`, when
    /// present, is the youngest in-flight predicted value of the same
    /// static µ-op (supplied by the [`BlockVp`](super::BlockVp)
    /// speculative window); otherwise the committed LVT value anchors the
    /// delta.
    ///
    /// Delta selection is per slot and **by confidence** (the hybrid's
    /// rule, not plain longest-match-wins): the longest matching tagged
    /// component competes with the base stride slot and the more
    /// confident one provides; a tie goes to the tagged side (context
    /// dominates). This is what keeps a perfectly-strided µ-op covered
    /// even while an erratic neighbor in the same fetch block churns
    /// low-confidence tagged entries over their shared tag.
    ///
    /// **Never mutates predictor state** (only the derived fold memo) —
    /// rolling back speculation is the caller's window drop, nothing here.
    pub fn predict_spec(
        &mut self,
        pc: u64,
        hist: HistoryView<'_>,
        spec_last: Option<u64>,
    ) -> Option<ValuePrediction> {
        let (bpc, slot) = self.block_of(pc);
        let last = spec_last.unwrap_or_else(|| {
            self.lvt[self.lvt_index(bpc) * self.config.block_size + slot]
        });
        let base = self.base[self.base_index(bpc) * self.config.block_size + slot];
        let keys = self.keys(bpc, hist);
        let ds = match self.tagged.hit_below(&keys, self.tagged.comps()) {
            Some((_, i)) => {
                let tagged = self.slots[i * self.config.block_size + slot];
                if tagged.conf.level() >= base.conf.level() {
                    tagged
                } else {
                    base
                }
            }
            None => base,
        };
        Some(ValuePrediction::from_conf(last.wrapping_add(ds.delta as u64), ds.conf))
    }

    /// Allocates a block entry in a component above the provider.
    /// **Copy-on-allocate** (the property that makes shared block tags
    /// viable, per BeBoP): sibling slots inherit the providing entry's
    /// delta *and* confidence, so one erratic µ-op allocating for its
    /// block never wipes what its neighbors learned; only the
    /// mispredicting slot resets to the observed delta at zero confidence.
    fn copy_on_allocate(
        &mut self,
        keys: &Keys<impl KeyHash>,
        provider: Option<(usize, usize)>,
        (bpc, slot): (u64, usize),
        delta: i64,
    ) {
        let start = provider.map_or(0, |(c, _)| c + 1);
        let Some((_, i)) = self.tagged.allocate(keys, start, &mut self.rng, ()) else {
            return;
        };
        let b = self.config.block_size;
        let at = i * b;
        match provider {
            Some((_, p)) => self.slots.copy_within(p * b..p * b + b, at),
            None => {
                let from = self.base_index(bpc) * b;
                self.slots[at..at + b].copy_from_slice(&self.base[from..from + b]);
            }
        }
        self.slots[at + slot] = DeltaSlot { delta, conf: Fpc::new() };
    }

    /// Trains with the architectural result at commit. The true delta is
    /// taken against the *committed* last value (commits arrive in
    /// program order, so that is the previous instance's actual result);
    /// the LVT then advances to `actual`.
    ///
    /// Like the hybrid it replaces, **both halves always train**: the
    /// base slot learns the stride unconditionally, and the tagged
    /// provider (when one matches) updates its own slot. A new tagged
    /// entry is allocated only when whatever provided was wrong — a
    /// strided µ-op served correctly by the base never spawns tagged
    /// entries for its block.
    pub fn train_commit(&mut self, pc: u64, hist: HistoryView<'_>, actual: u64) {
        self.tagged.age(|u| u.saturating_sub(1));
        let (bpc, slot) = self.block_of(pc);
        let b = self.config.block_size;
        let lvt_at = self.lvt_index(bpc) * b + slot;
        let committed_last = self.lvt[lvt_at];
        let true_delta = actual.wrapping_sub(committed_last) as i64;
        let storable = if self.representable(true_delta) { true_delta } else { 0 };
        // Base (stride) half: always trains.
        let base_at = self.base_index(bpc) * b + slot;
        let deltas = (true_delta, storable);
        let base_correct = self.base[base_at].train(deltas, &self.policy, &mut self.rng);
        // Tagged (context) half: the longest match trains its own slot.
        let keys = self.keys(bpc, hist);
        let provider = self.tagged.hit_below(&keys, self.tagged.comps());
        let correct = match provider {
            Some((_, at)) => {
                let correct = self.slots[at * b + slot].train(deltas, &self.policy, &mut self.rng);
                self.tagged.meta[at].reward(correct);
                correct
            }
            None => base_correct,
        };
        if !correct {
            self.copy_on_allocate(&keys, provider, (bpc, slot), storable);
        }
        self.lvt[lvt_at] = actual;
    }

    fn storage_bits_of(cfg: &DVtageConfig) -> u64 {
        let b = cfg.block_size as u64;
        let slot_bits = cfg.delta_bits as u64 + Fpc::BITS;
        // LVT: full last values per slot (the one full-width structure).
        let lvt = cfg.lvt_entries as u64 * b * 64;
        // Base: per-slot delta + confidence, no tags.
        let base = cfg.base_entries as u64 * b * slot_bits;
        // Tagged: one (valid + tag + useful) per block, slots of deltas.
        let mut tagged = 0u64;
        for i in 0..cfg.history_lengths.len() as u64 {
            let tag_bits = cfg.base_tag_bits as u64 + i;
            tagged += cfg.tagged_entries as u64 * (1 + tag_bits + 2 + b * slot_bits);
        }
        lvt + base + tagged
    }
}

/// Banked row index under `(banks, block_size)`: the block's bank is
/// `block_number % banks`, the row within the bank a hash over the
/// remaining block bits. Every size is a power of two, so the divisions
/// are shifts.
#[inline]
fn banked_index((banks, block_size): (usize, usize), bpc: u64, entries: usize, seed: u64) -> usize {
    let bank_bits = banks.trailing_zeros();
    let rows = entries >> bank_bits;
    let block_num = bpc >> (block_size as u64 * INST_BYTES).trailing_zeros();
    let bank = (block_num as usize) & (banks - 1);
    let row = (hash_pc(block_num >> bank_bits, seed) as usize) & (rows - 1);
    bank * rows + row
}

impl crate::snapshot::Snapshot for DVtage {
    fn snapshot(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.lvt.len());
        for &v in &self.lvt {
            w.put_u64(v);
        }
        w.put_usize(self.base.len());
        for s in &self.base {
            w.put_i64(s.delta);
            s.conf.snapshot(w);
        }
        w.put_usize(self.tagged.comps());
        let per_comp = self.tagged.rows() * self.config.block_size;
        for ((metas, _), slots) in self.tagged.components().zip(self.slots.chunks(per_comp)) {
            w.put_usize(metas.len());
            for m in metas {
                w.put_bool(m.valid);
                w.put_u32(m.tag);
                w.put_u8(m.useful);
            }
            w.put_usize(slots.len());
            for s in slots {
                w.put_i64(s.delta);
                s.conf.snapshot(w);
            }
        }
        self.rng.snapshot(w);
        w.put_u64(self.tagged.updates);
    }

    fn restore(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        use crate::snapshot::SnapError;
        if r.get_usize()? != self.lvt.len() {
            return Err(SnapError::new("dvtage lvt size mismatch"));
        }
        for v in &mut self.lvt {
            *v = r.get_u64()?;
        }
        if r.get_usize()? != self.base.len() {
            return Err(SnapError::new("dvtage base size mismatch"));
        }
        for s in &mut self.base {
            s.delta = r.get_i64()?;
            s.conf.restore(r)?;
        }
        if r.get_usize()? != self.tagged.comps() {
            return Err(SnapError::new("dvtage component count mismatch"));
        }
        let per_comp = self.tagged.rows() * self.config.block_size;
        let slots = self.slots.chunks_mut(per_comp);
        for ((metas, _), slots) in self.tagged.components_mut().zip(slots) {
            if r.get_usize()? != metas.len() {
                return Err(SnapError::new("dvtage meta size mismatch"));
            }
            for m in metas {
                m.valid = r.get_bool()?;
                m.tag = r.get_u32()?;
                m.useful = r.get_u8()?;
            }
            if r.get_usize()? != slots.len() {
                return Err(SnapError::new("dvtage slots size mismatch"));
            }
            for s in slots {
                s.delta = r.get_i64()?;
                s.conf.restore(r)?;
            }
        }
        self.rng.restore(r)?;
        self.tagged.updates = r.get_u64()?;
        Ok(())
    }
}

/// The per-instruction protocol, used by offline evaluation
/// ([`evaluate_stream`](super::evaluate_stream), the predictor
/// microbench) where fetch is immediately followed by commit: no
/// overlap, so the committed LVT value *is* the speculative last value
/// and nothing needs repairing on `squash`.
impl ValuePredictor for DVtage {
    fn predict(&mut self, pc: u64, hist: HistoryView<'_>) -> Option<ValuePrediction> {
        self.predict_spec(pc, hist, None)
    }

    fn train(&mut self, pc: u64, hist: HistoryView<'_>, actual: u64) {
        self.train_commit(pc, hist, actual);
    }

    fn squash(&mut self, _pc: u64) {
        // Tables only hold committed state; speculation lives in the
        // BlockVp window, which is not in play on this path.
    }

    fn storage_bits(&self) -> u64 {
        Self::storage_bits_of(&self.config)
    }

    fn name(&self) -> &'static str {
        "D-VTAGE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::evaluate_stream;

    #[test]
    fn base_delta_learns_strides_like_a_stride_predictor() {
        let hist = BranchHistory::new();
        let mut p = DVtage::paper(1, 1, 7);
        for i in 0..4_000u64 {
            let actual = 1000 + 24 * i;
            if i > 4 {
                let pred = p.predict_spec(0x40, hist.view(0), None).unwrap();
                assert_eq!(pred.value, actual, "iteration {i}");
            }
            p.train_commit(0x40, hist.view(0), actual);
        }
        assert!(p.predict_spec(0x40, hist.view(0), None).unwrap().confident);
    }

    #[test]
    fn speculative_last_chains_inflight_instances() {
        let hist = BranchHistory::new();
        let mut p = DVtage::paper(1, 1, 7);
        for i in 0..3_000u64 {
            p.train_commit(0x40, hist.view(0), 8 * i);
        }
        let committed = p.committed_last(0x40);
        // First in-flight instance extrapolates from the committed value,
        // the second from the first's prediction, and so on.
        let a = p.predict_spec(0x40, hist.view(0), None).unwrap();
        assert_eq!(a.value, committed.wrapping_add(8));
        let b = p.predict_spec(0x40, hist.view(0), Some(a.value)).unwrap();
        assert_eq!(b.value, committed.wrapping_add(16));
        let c = p.predict_spec(0x40, hist.view(0), Some(b.value)).unwrap();
        assert_eq!(c.value, committed.wrapping_add(24));
    }

    #[test]
    fn history_correlated_deltas_use_tagged_components() {
        // The value alternates +1/+3 with the last branch outcome: the
        // base delta table cannot settle, the tagged components can.
        let mut hist = BranchHistory::new();
        let mut p = DVtage::paper(1, 1, 2);
        let mut value = 0u64;
        let mut correct_late = 0u64;
        let total = 30_000;
        for i in 0..total {
            let taken = (i / 3) % 2 == 0;
            hist.push(taken);
            let pos = hist.len();
            value = value.wrapping_add(if taken { 1 } else { 3 });
            let pred = p.predict_spec(0x50, hist.view(pos), None).unwrap();
            if i > total / 2 && pred.value == value {
                correct_late += 1;
            }
            p.train_commit(0x50, hist.view(pos), value);
        }
        let rate = correct_late as f64 / (total / 2 - 1) as f64;
        assert!(rate > 0.8, "history-correlated delta accuracy = {rate:.3}");
    }

    #[test]
    fn block_slots_are_independent() {
        let hist = BranchHistory::new();
        let mut p = DVtage::paper(4, 1, 3);
        // Two µ-ops in the same 4-slot block, different strides.
        for i in 0..3_000u64 {
            p.train_commit(0x40, hist.view(0), 10 * i);
            p.train_commit(0x44, hist.view(0), 7 * i);
        }
        let a = p.predict_spec(0x40, hist.view(0), None).unwrap();
        let b = p.predict_spec(0x44, hist.view(0), None).unwrap();
        assert_eq!(a.value.wrapping_sub(p.committed_last(0x40)), 10);
        assert_eq!(b.value.wrapping_sub(p.committed_last(0x44)), 7);
        assert!(a.confident && b.confident);
    }

    #[test]
    fn unrepresentable_deltas_never_gain_confidence() {
        let hist = BranchHistory::new();
        let mut p = DVtage::paper(1, 1, 5);
        // Stride of 2^40 cannot fit in 16 bits.
        let stream = (0..4_000u64).map(|i| (0x60u64, 0u32, i << 40));
        let s = evaluate_stream(&mut p, &hist, stream);
        assert_eq!(s.confident, 0, "16-bit deltas cannot cover a 2^40 stride");
    }

    #[test]
    fn banked_layout_predicts_like_single_bank_on_constants() {
        let hist = BranchHistory::new();
        for banks in [1usize, 4] {
            let mut p = DVtage::paper(4, banks, 9);
            let stream = (0..4_000u64).map(|i| ((0x100 + 4 * (i % 8)), 0u32, 42));
            let s = evaluate_stream(&mut p, &hist, stream);
            assert!(s.confident > 2_000, "{banks} banks: confident = {}", s.confident);
            assert_eq!(s.confident, s.confident_correct);
        }
    }

    #[test]
    fn storage_is_well_under_the_hybrid() {
        let p = DVtage::paper(4, 4, 1);
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        // The hybrid (Table 2) is ≈ 385 KB; differential storage must
        // land far below it.
        assert!((80.0..240.0).contains(&kb), "D-VTAGE storage = {kb:.1} KB");
    }

    #[test]
    fn budget_constructor_respects_the_budget() {
        let hybrid_bits = crate::value::VtageTwoDeltaStride::paper(1).storage_bits();
        let cfg = DVtageConfig::with_budget_bits(hybrid_bits, 4, 4);
        let got = DVtage::storage_bits_of(&cfg);
        assert!(got <= hybrid_bits, "budgeted {got} > budget {hybrid_bits}");
        // And uses a decent fraction of it (not degenerate).
        assert!(got * 4 >= hybrid_bits, "budgeted size degenerately small");
    }

    #[test]
    fn rejects_non_ascending_histories() {
        let cfg = DVtageConfig {
            history_lengths: vec![8, 4],
            ..DVtageConfig::paper(1, 1)
        };
        assert!(std::panic::catch_unwind(|| DVtage::new(cfg, 1)).is_err());
    }

    #[test]
    fn rejects_histories_beyond_max_bits_at_construction() {
        let cfg = DVtageConfig {
            history_lengths: vec![2, 64, crate::history::MAX_HISTORY_BITS + 1],
            ..DVtageConfig::paper(1, 1)
        };
        assert!(std::panic::catch_unwind(|| DVtage::new(cfg, 1)).is_err());
    }
}
