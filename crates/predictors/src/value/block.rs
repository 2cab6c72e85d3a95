//! The block-based prediction front (BeBoP): fetch-block-granular
//! predictor access plus the speculative in-flight window.
//!
//! The EOLE paper argues value prediction only becomes implementable
//! once the predictor is *cheap to access*: one read per fetch block
//! instead of one per instruction, banked storage, and a bounded amount
//! of in-flight speculation the hardware can actually checkpoint. This
//! module is that subsystem, in two parts that fetch and the predictor
//! side own separately:
//!
//! * [`BlockGate`], at **fetch**: decides whether a µ-op may register an
//!   in-flight instance (a full window refuses it: `accepted == false`,
//!   and the µ-op travels unpredicted) and whether its query opens a new
//!   (cycle, fetch block), i.e. a real predictor read (`new_block`);
//!   later µ-ops of the same block in the same cycle ride the same read.
//!   It holds the window occupancy and the last block read, and nothing
//!   else holds them.
//! * [`BlockVp`], the predictor and its window, driven in program order:
//!   - [`BlockVp::predict`] for every admitted µ-op: reads the predictor
//!     and registers the in-flight instance;
//!   - [`BlockVp::commit`] at **retire**: pops the oldest in-flight
//!     instance and trains the predictor with the architectural result;
//!   - [`BlockVp::squash_from`] on a pipeline squash: drops every
//!     in-flight instance with sequence ≥ the cut, youngest first. That
//!     is the whole rollback, for every predictor kind: predictor tables
//!     only hold committed state.
//!
//! The gate's decisions depend on nothing the predictor computes, so the
//! timing core can keep the gate on its own thread and let another
//! thread apply the predictor calls, in the same order, a few cycles
//! behind (`eole-core`'s `pipeline` module docs).
//!
//! The kinds that hash the branch history are passed the µ-op's
//! precomputed keys ([`VpKeys`]): the timing core builds them once per
//! trace ([`BlockVp::keys`], one table per [`BlockVp::key_schema`]). The
//! other kinds read no history and take no keys.
//!
//! The window is the only owner of in-flight state — the paper's
//! "conventional value predictors need to track inflight predictions",
//! done once here instead of inside every predictor. Each query passes
//! the predictor an [`InFlight`]: how many earlier instances of the same
//! static µ-op are in flight (the stride family extrapolates that many
//! strides further) and the youngest one's predicted value (D-VTAGE
//! anchors its delta on it instead of the committed last value).

use std::collections::VecDeque;

use crate::history::HistoryView;
use crate::snapshot::{Snap, SnapError, Snapshot};
use crate::value::{
    AnyValuePredictor, InFlight, ValuePrediction, ValuePredictor, VpKeySchema, VpKeys,
};

/// Bytes per µ-op in trace addresses.
const INST_BYTES: u64 = 4;

/// The in-flight index slot of the µ-op at address `pc`.
#[inline]
fn slot(pc: u64) -> usize {
    (pc / INST_BYTES) as usize
}

/// Shape of the block-based front: fetch-block size, storage banks, and
/// the speculative-window bound (mirrors `VpConfig` in `eole-core`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockParams {
    /// µ-ops per fetch block (power of two; 1 = per-instruction access).
    pub block_size: usize,
    /// Predictor storage banks (power of two).
    pub banks: usize,
    /// Maximum in-flight (predicted, not yet retired) µ-ops; `None`
    /// models an unbounded window (the pre-BeBoP idealization).
    pub spec_window: Option<usize>,
}

impl Default for BlockParams {
    fn default() -> Self {
        BlockParams { block_size: 1, banks: 1, spec_window: None }
    }
}

/// One in-flight instance: registered at fetch, retired at commit or
/// dropped at squash.
#[derive(Clone, Copy, Debug)]
struct SpecEntry {
    seq: u64,
    pc: u64,
    /// The predicted value of the previous youngest instance of the same
    /// pc, which this one shadowed in the index at push time. Restored on
    /// a squash pop, so rollback keeps the O(1) index exact without a
    /// scan.
    prev: Option<u64>,
}

/// Outcome of one fetch-time [`BlockGate::admit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// False iff the speculative window was full: the µ-op was *not*
    /// registered and must not be predicted, committed or squashed
    /// against the predictor.
    pub accepted: bool,
    /// True iff this query opened a new (cycle, fetch block) — i.e. a
    /// real predictor read; `false` rides an already-charged read.
    pub new_block: bool,
}

/// The fetch side of the block front: the speculative window's occupancy
/// against its bound, and the last (cycle, block) the predictor was read
/// for.
#[derive(Clone, Copy, Debug)]
pub struct BlockGate {
    params: BlockParams,
    /// Registered instances not yet committed or squashed.
    inflight: usize,
    /// Last (cycle, block) the predictor was read for.
    last_access: Option<(u64, u64)>,
}

impl BlockGate {
    /// An empty window of shape `params`.
    pub fn new(params: BlockParams) -> Self {
        BlockGate { params, inflight: 0, last_access: None }
    }

    /// Registered instances not yet committed or squashed.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Fetch-time admission of the µ-op at `pc` fetched at `cycle`. An
    /// accepted µ-op counts as in flight until [`retire`](Self::retire)
    /// or [`drop_squashed`](Self::drop_squashed) releases it.
    #[inline]
    pub fn admit(&mut self, cycle: u64, pc: u64) -> Admission {
        // A refused query performs no predictor access: it must neither
        // charge a block read nor consume the (cycle, block) read credit
        // an accepted µ-op of the same block would otherwise ride.
        if self.params.spec_window.is_some_and(|cap| self.inflight >= cap) {
            return Admission { accepted: false, new_block: false };
        }
        let bpc = pc & !(self.params.block_size as u64 * INST_BYTES - 1);
        let new_block = self.last_access != Some((cycle, bpc));
        if new_block {
            self.last_access = Some((cycle, bpc));
        }
        self.inflight += 1;
        Admission { accepted: true, new_block }
    }

    /// Releases the oldest admitted µ-op, at its commit.
    #[inline]
    pub fn retire(&mut self) {
        self.inflight -= 1;
    }

    /// Releases `n` admitted µ-ops a squash discarded.
    #[inline]
    pub fn drop_squashed(&mut self, n: usize) {
        self.inflight -= n;
    }
}

/// The value predictor and its speculative window, driven in program
/// order by [`predict`](Self::predict), [`commit`](Self::commit) and
/// [`squash_from`](Self::squash_from) for the µ-ops a [`BlockGate`]
/// admitted.
#[derive(Clone, Debug)]
pub struct BlockVp {
    predictor: AnyValuePredictor,
    window: VecDeque<SpecEntry>,
    /// Dense per-static-µ-op index of the in-flight instances, by
    /// `pc / INST_BYTES`: their count and the youngest one's predicted
    /// value, exactly the [`InFlight`] the next query of that pc passes
    /// (the default while none is in flight). An O(1) array read instead
    /// of a backward window scan; sized at construction to the program's
    /// static µ-op count, so it never allocates.
    index: Vec<InFlight>,
}

impl BlockVp {
    /// Builds the subsystem. `window_hint` pre-sizes the in-flight
    /// window (front-end queue + ROB capacity) so steady-state pushes
    /// never reallocate (the zero-allocation contract of `PERF.md`).
    /// Every µ-op address passed later must lie below
    /// `static_uops * INST_BYTES`: `static_uops` is the length of the
    /// program text the addresses point into.
    // lint:allow(hot-alloc) cold construction path: the index is allocated once, before the measured loop
    pub fn new(
        predictor: AnyValuePredictor,
        params: BlockParams,
        window_hint: usize,
        static_uops: usize,
    ) -> Self {
        let cap = params.spec_window.unwrap_or(window_hint).max(1);
        BlockVp {
            predictor,
            window: VecDeque::with_capacity(cap + 1),
            index: vec![InFlight::default(); static_uops],
        }
    }

    /// In-flight instances currently registered.
    pub fn inflight(&self) -> usize {
        self.window.len()
    }

    /// The [`InFlight`] the next prediction of `pc` would be passed.
    #[cfg(test)]
    fn in_flight(&self, pc: u64) -> InFlight {
        self.index[slot(pc)]
    }

    /// Drops one in-flight instance of `pc` from the index; the entry
    /// resets with the last one. Returns the entry while others remain.
    fn unindex(&mut self, pc: u64) -> Option<&mut InFlight> {
        let e = &mut self.index[slot(pc)];
        e.depth -= 1;
        if e.depth == 0 {
            *e = InFlight::default();
            None
        } else {
            Some(e)
        }
    }

    /// The predictor's keys for the µ-op at `pc` under `hist`
    /// ([`AnyValuePredictor::keys`]); `None` for kinds without keys.
    pub fn keys(&mut self, pc: u64, hist: HistoryView<'_>) -> Option<VpKeys> {
        self.predictor.keys(pc, hist)
    }

    /// What fixes [`keys`](Self::keys) ([`AnyValuePredictor::key_schema`]).
    pub fn key_schema(&self) -> Option<VpKeySchema> {
        self.predictor.key_schema()
    }

    /// Predicts the admitted µ-op `(seq, pc)` with its
    /// [`keys`](Self::keys) (`None` for the kinds without) and registers
    /// its in-flight instance.
    #[inline]
    pub fn predict(&mut self, seq: u64, pc: u64, keys: Option<&VpKeys>) -> Option<ValuePrediction> {
        let entry = &mut self.index[slot(pc)];
        let inflight = *entry;
        let pred = self.predictor.predict_keyed(pc, keys, inflight);
        *entry = InFlight { depth: inflight.depth + 1, last: pred.map(|p| p.value) };
        self.window.push_back(SpecEntry { seq, pc, prev: inflight.last });
        pred
    }

    /// Retires the oldest in-flight instance (which must be `seq`; the
    /// pipeline commits registered µ-ops in program order) and trains the
    /// predictor with the architectural result, reading `keys` as
    /// [`predict`](Self::predict) does.
    #[inline]
    pub fn commit(&mut self, seq: u64, pc: u64, keys: Option<&VpKeys>, actual: u64) {
        let front = self.window.pop_front();
        debug_assert!(
            front.is_some_and(|e| e.seq == seq && e.pc == pc),
            "commit of seq {seq} does not match the window head {front:?}"
        );
        // The oldest instance is the youngest of its pc only when it is
        // the sole one, so the index keeps its youngest predicted value.
        self.unindex(pc);
        self.predictor.train_keyed(pc, keys, actual);
    }

    /// A functional-warmup pair for the µ-op at `pc`: the prediction a
    /// fetch would make now, then training with `actual`, leaving the
    /// window as it was. On a drained window this is exactly
    /// [`predict`](Self::predict) followed by [`commit`](Self::commit).
    #[inline]
    pub fn warm(&mut self, pc: u64, keys: Option<&VpKeys>, actual: u64) {
        let inflight = self.index[slot(pc)];
        self.predictor.predict_keyed(pc, keys, inflight);
        self.predictor.train_keyed(pc, keys, actual);
    }

    /// Drops every in-flight instance with sequence ≥ `first_bad`,
    /// youngest first — the complete speculation rollback. Returns how
    /// many it dropped.
    pub fn squash_from(&mut self, first_bad: u64) -> usize {
        let mut dropped = 0;
        while let Some(back) = self.window.back() {
            if back.seq < first_bad {
                break;
            }
            let e = self.window.pop_back().expect("non-empty");
            dropped += 1;
            // A popped instance is the youngest of its pc (anything
            // younger was popped before it). If older ones remain, the
            // instance it shadowed is still in flight — commits pop the
            // oldest first — and is their youngest again.
            if let Some(left) = self.unindex(e.pc) {
                left.last = e.prev;
            }
        }
        dropped
    }

    /// Total predictor storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.predictor.storage_bits()
    }

    /// Short display name of the predictor.
    pub fn name(&self) -> &'static str {
        self.predictor.name()
    }

    /// Writes (or reads) the warm state of this predictor and of `gate`,
    /// its fetch side: the window count, the predictor, the last block
    /// read.
    ///
    /// Warm-state capture happens at a drained boundary (functional
    /// warmup registers no instance), so the speculative window carries
    /// no state worth serializing. The count is written so a capture
    /// taken mid-flight is rejected on restore rather than silently
    /// losing the window.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the payload is truncated or shaped for another
    /// predictor, or was captured with instances in flight.
    pub fn snap(&mut self, gate: &mut BlockGate, s: &mut Snap<'_>) -> Result<(), SnapError> {
        if s.reading() {
            self.window.clear();
            self.index.fill(InFlight::default());
            gate.inflight = 0;
        }
        debug_assert!(self.window.is_empty(), "warm capture with in-flight instances");
        debug_assert_eq!(gate.inflight, self.window.len(), "the gate counts the window");
        s.shape(gate.inflight, "warm snapshot with in-flight window")?;
        self.predictor.snap(s)?;
        s.option(&mut gate.last_access, |s, (cycle, bpc)| {
            s.field(cycle)?;
            s.field(bpc)
        })
    }
}

/// Fetch through `gate`, then predict, as the timing core does per µ-op:
/// `None` if the gate refused it, else the prediction.
#[cfg(test)]
fn fetch(
    gate: &mut BlockGate,
    vp: &mut BlockVp,
    (cycle, seq, pc): (u64, u64, u64),
    hist: HistoryView<'_>,
) -> Option<Option<ValuePrediction>> {
    gate.admit(cycle, pc).accepted.then(|| {
        let keys = vp.keys(pc, hist);
        vp.predict(seq, pc, keys.as_ref())
    })
}

/// Commit through `gate`, as the timing core does per admitted µ-op.
#[cfg(test)]
fn retire(gate: &mut BlockGate, vp: &mut BlockVp, seq: u64, pc: u64, hist: HistoryView<'_>, actual: u64) {
    gate.retire();
    let keys = vp.keys(pc, hist);
    vp.commit(seq, pc, keys.as_ref(), actual);
}

/// Squash through `gate`.
#[cfg(test)]
fn squash(gate: &mut BlockGate, vp: &mut BlockVp, first_bad: u64) {
    gate.drop_squashed(vp.squash_from(first_bad));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::{DVtage, DVtageConfig, TwoDeltaStride};

    fn dvtage(params: BlockParams, seed: u64) -> (BlockGate, BlockVp) {
        let cfg = DVtageConfig::paper(params.block_size, params.banks);
        (BlockGate::new(params), BlockVp::new(DVtage::new(cfg, seed).into(), params, 256, 32))
    }

    /// 2D-Stride in-flight instances extrapolate one stride per earlier
    /// instance; squashing the youngest frees its depth.
    #[test]
    fn inflight_instances_extrapolate() {
        let mut vp = BlockVp::new(TwoDeltaStride::new(64, 1).into(), BlockParams::default(), 256, 8);
        for i in 0..5u64 {
            vp.predict(i, 0x10, None);
            vp.commit(i, 0x10, None, 8 * i); // last = 32, stride2 = 8
        }
        let a = vp.predict(5, 0x10, None).unwrap();
        let b = vp.predict(6, 0x10, None).unwrap();
        let c = vp.predict(7, 0x10, None).unwrap();
        assert_eq!(a.value, 40);
        assert_eq!(b.value, 48, "second in-flight instance sees one more stride");
        assert_eq!(c.value, 56);
        assert_eq!(vp.squash_from(7), 1);
        assert_eq!(vp.predict(7, 0x10, None).unwrap().value, 56);
    }

    /// D-VTAGE in-flight instances chain off speculative last values and
    /// a squash rolls the chain back to committed state.
    #[test]
    fn speculative_chain_rolls_back_on_squash() {
        let hist = BranchHistory::new();
        let (mut gate, mut vp) = dvtage(BlockParams::default(), 5);
        let v = hist.view(0);
        let vp = &mut vp;
        for i in 0..3_000u64 {
            assert!(fetch(&mut gate, vp, (i, i, 0x40), v).is_some());
            retire(&mut gate, vp, i, 0x40, v, 8 * i);
        }
        // Three overlapping instances: predictions chain +8 each.
        let a = fetch(&mut gate, vp, (3_000, 3_000, 0x40), v).flatten().unwrap();
        let b = fetch(&mut gate, vp, (3_000, 3_001, 0x40), v).flatten().unwrap();
        let c = fetch(&mut gate, vp, (3_001, 3_002, 0x40), v).flatten().unwrap();
        assert_eq!(b.value, a.value.wrapping_add(8));
        assert_eq!(c.value, b.value.wrapping_add(8));
        // Squash all three: the next prediction re-anchors on committed
        // state and equals the first one again.
        squash(&mut gate, vp, 3_000);
        assert_eq!((vp.inflight(), gate.inflight()), (0, 0));
        let again = fetch(&mut gate, vp, (3_002, 3_000, 0x40), v).flatten().unwrap();
        assert_eq!(again.value, a.value);
    }

    /// A bounded speculative window refuses queries once full; commits
    /// and squashes free slots.
    #[test]
    fn bounded_window_refuses_and_recovers() {
        let hist = BranchHistory::new();
        let (mut gate, mut vp) = dvtage(BlockParams { block_size: 1, banks: 1, spec_window: Some(2) }, 5);
        let (v, vp) = (hist.view(0), &mut vp);
        assert!(fetch(&mut gate, vp, (0, 0, 0x40), v).is_some());
        assert!(fetch(&mut gate, vp, (0, 1, 0x44), v).is_some());
        let refused = gate.admit(0, 0x48);
        assert_eq!(refused, Admission { accepted: false, new_block: false });
        assert_eq!((vp.inflight(), gate.inflight()), (2, 2));
        retire(&mut gate, vp, 0, 0x40, v, 1);
        assert!(fetch(&mut gate, vp, (1, 2, 0x48), v).is_some(), "commit freed a slot");
        squash(&mut gate, vp, 1);
        assert_eq!((vp.inflight(), gate.inflight()), (0, 0), "squash dropped seqs 1 and 2");
    }

    /// Block-read accounting: µ-ops of one fetch block in one cycle
    /// charge a single read; a new cycle or a new block charges again.
    #[test]
    fn block_reads_are_charged_per_cycle_per_block() {
        let mut gate = BlockGate::new(BlockParams { block_size: 4, banks: 1, spec_window: None });
        // Same 4-µ-op block (addresses 0x40..0x50), same cycle.
        assert!(gate.admit(7, 0x40).new_block);
        assert!(!gate.admit(7, 0x44).new_block);
        assert!(!gate.admit(7, 0x48).new_block);
        // Next block in the same cycle: a new read.
        assert!(gate.admit(7, 0x50).new_block);
        // Same block again but a later cycle: a new read.
        assert!(gate.admit(8, 0x40).new_block);
        assert_eq!(gate.inflight(), 5);
    }

    /// On a drained window a functional-warmup pair leaves the predictor
    /// and the window exactly as a predict/commit pair does.
    #[test]
    fn warm_equals_a_predict_commit_pair() {
        let hist = BranchHistory::from_outcomes(&[true, false, true]);
        for kind in 0..7 {
            let params = BlockParams::default();
            let mut pair = BlockVp::new(crate::value::test_predictor(kind, 3, 1), params, 16, 8);
            let mut warm = pair.clone();
            for i in 0..500u64 {
                let (pc, v) = (4 * (i % 8), hist.view((i % 4) as usize));
                let keys = pair.keys(pc, v);
                pair.predict(i, pc, keys.as_ref());
                pair.commit(i, pc, keys.as_ref(), i / 3);
                warm.warm(pc, keys.as_ref(), i / 3);
            }
            assert_eq!(warm.inflight(), 0);
            assert_eq!(pair.predictor.snapshot_bytes(), warm.predictor.snapshot_bytes(), "kind {kind}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::test_predictor;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For every predictor kind, replays only the *committed prefix*
        /// of a script through a fresh predictor and asserts snapshot-byte
        /// equality with the speculated-over instance — the rollback
        /// contract of the speculative window: predict never changes what
        /// a predictor has learned and squash never touches it, so after
        /// any interleaving the predictor state is exactly the
        /// from-scratch replay of its committed trains.
        #[test]
        fn rollback_equals_committed_prefix_replay(
            seed in 1u64..u64::MAX,
            block_size in prop::sample::select(vec![1usize, 2, 4]),
            script in proptest::collection::vec(
                (0u8..8, 0u64..24, any::<u64>()), 1..400),
            outcomes in proptest::collection::vec(any::<bool>(), 0..48),
        ) {
            let hist = BranchHistory::from_outcomes(&outcomes);
            let params = BlockParams { block_size, banks: 1, spec_window: Some(48) };
            for kind in 0..7 {
                let mut gate = BlockGate::new(params);
                let mut live = BlockVp::new(test_predictor(kind, seed, block_size), params, 64, 24);
                // The committed prefix: every (pc, actual) pair that reached
                // commit, in order.
                let mut committed: Vec<(u64, usize, u64)> = Vec::new();
                let mut inflight: Vec<(u64, u64, usize)> = Vec::new(); // (seq, pc, pos)
                let mut next_seq = 0u64;
                for (op, pcx, value) in &script {
                    let pc = pcx * 4;
                    let pos = outcomes.len().min(*value as usize % (outcomes.len() + 1));
                    let view = hist.view(pos);
                    match op {
                        // predict (5/8 of ops: keep the window busy)
                        0..=4 => {
                            if fetch(&mut gate, &mut live, (next_seq, next_seq, pc), view).is_some() {
                                inflight.push((next_seq, pc, pos));
                            }
                            next_seq += 1;
                        }
                        // commit the oldest in-flight instance
                        5..=6 => {
                            if !inflight.is_empty() {
                                let (seq, pc, pos) = inflight.remove(0);
                                retire(&mut gate, &mut live, seq, pc, hist.view(pos), *value);
                                committed.push((pc, pos, *value));
                            }
                        }
                        // squash the youngest half of the window
                        _ => {
                            if !inflight.is_empty() {
                                let cut = inflight[inflight.len() / 2].0;
                                squash(&mut gate, &mut live, cut);
                                inflight.retain(|(s, _, _)| *s < cut);
                            }
                        }
                    }
                    prop_assert_eq!(gate.inflight(), live.inflight());
                }
                // Drain: squash everything still in flight.
                squash(&mut gate, &mut live, 0);
                prop_assert!(live.index.iter().all(|e| *e == InFlight::default()));
                // Reference: a fresh predictor trained on the committed
                // prefix alone.
                let mut replay = test_predictor(kind, seed, block_size);
                for (pc, pos, value) in &committed {
                    replay.train(*pc, hist.view(*pos), *value);
                }
                // Full state equality (tables, confidence, usefulness, RNG).
                prop_assert_eq!(live.predictor.snapshot_bytes(), replay.snapshot_bytes());
            }
        }

        /// Before every prediction, for every predictor kind (their
        /// predicted values differ), the window passes exactly what a
        /// backward scan of the in-flight instances finds: how many share
        /// the pc, and the youngest one's predicted value.
        #[test]
        fn window_index_matches_a_backward_scan(
            seed in 1u64..u64::MAX,
            script in proptest::collection::vec(
                (0u8..8, 0u64..6, any::<u64>()), 1..400),
        ) {
            let hist = BranchHistory::new();
            let view = hist.view(0);
            let params = BlockParams { spec_window: Some(32), ..BlockParams::default() };
            for kind in 0..7 {
                let mut gate = BlockGate::new(params);
                let mut vp = BlockVp::new(test_predictor(kind, seed, 1), params, 32, 6);
                // The model: (seq, pc, predicted value), oldest first.
                let mut model: Vec<(u64, u64, Option<u64>)> = Vec::new();
                let mut next_seq = 0u64;
                for (op, pcx, value) in &script {
                    let pc = pcx * 4;
                    match op {
                        0..=3 => {
                            let same = || model.iter().rev().filter(|e| e.1 == pc);
                            let want = InFlight {
                                depth: same().count() as u32,
                                last: same().next().and_then(|e| e.2),
                            };
                            prop_assert_eq!(vp.in_flight(pc), want);
                            if let Some(pred) = fetch(&mut gate, &mut vp, (next_seq, next_seq, pc), view) {
                                model.push((next_seq, pc, pred.map(|p| p.value)));
                            }
                            next_seq += 1;
                        }
                        4..=5 => {
                            if !model.is_empty() {
                                let (seq, pc, _) = model.remove(0);
                                retire(&mut gate, &mut vp, seq, pc, view, *value);
                            }
                        }
                        _ => {
                            if !model.is_empty() {
                                let cut = model[*value as usize % model.len()].0;
                                squash(&mut gate, &mut vp, cut);
                                model.retain(|e| e.0 < cut);
                                next_seq = cut; // the pipeline reuses squashed seqs
                            }
                        }
                    }
                }
            }
        }
    }
}
