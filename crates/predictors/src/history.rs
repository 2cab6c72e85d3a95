//! Global conditional-branch history, shared by TAGE, VTAGE and D-VTAGE.
//!
//! The trace-driven simulator precomputes the (always correct-path) outcome
//! log once; predictors index it through a [`HistoryView`] anchored at the
//! µ-op's fetch position. Because the log never changes, squash recovery
//! needs no history repair — a refetched µ-op simply presents the same
//! position again.
//!
//! Indices and tags are derived by hashing the most recent `L` outcome bits
//! together with the pc and a per-component seed ([`HistoryView::fold`]).
//! A tagged predictor needs two such folds (index and tag) per component,
//! at fetch and again at commit, and every µ-op of a basic block presents
//! the same history position. A [`FoldMemo`] therefore keeps the folds of
//! the last [`FOLD_MEMO_SLOTS`] positions, direct-mapped by position and
//! keyed by the log's identity and the position. Because the log is
//! append-only, the bits visible at a position never change, so a memo hit
//! is bit-identical to hashing afresh; and because the memo is a pure
//! function of the log, it is derived state — predictors never snapshot or
//! compare it, and a restored predictor simply starts with an empty memo.
//!
//! The memo serves every key build (`Tage::keys`, `Vtage::keys`,
//! `DVtage::keys`). The timing core folds nothing per lookup: every
//! predictor's keys depend only on the µ-op, so `PreparedTrace`'s key
//! tables in `eole-core` build them once per trace. The per-call adapters
//! (TAGE's `DirectionPredictor`, and VTAGE's, the hybrid's and D-VTAGE's
//! `ValuePredictor`) build the same keys on every call. The memo pays
//! where µ-ops share a position: a value predictor sees 4–57 eligible
//! µ-ops per position on the `vp_steady` kernels, and its key builds run
//! up to 3.5× faster with the memo (PERF.md, "FoldMemo stays"). TAGE
//! sees one branch per position, so its builds never hit.

use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`BranchHistory`] identities. 0 is never handed out, so it marks
/// an empty [`FoldMemo`] slot.
static NEXT_HISTORY_ID: AtomicU64 = AtomicU64::new(1);

/// Append-only log of conditional-branch outcomes (bit-packed).
///
/// Every log (including every clone, which may grow differently from its
/// source) carries a process-unique identity, so a [`FoldMemo`] never
/// serves folds computed from another log.
#[derive(Debug)]
pub struct BranchHistory {
    words: Vec<u64>,
    len: usize,
    id: u64,
}

// lint:allow(hot-alloc) cold path: a log is built once per trace, before the measured loop
impl Default for BranchHistory {
    fn default() -> Self {
        BranchHistory {
            words: Vec::new(),
            len: 0,
            id: NEXT_HISTORY_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

// lint:allow(hot-alloc) cold path: a log is built once per trace, before the measured loop
impl Clone for BranchHistory {
    fn clone(&self) -> Self {
        BranchHistory { words: self.words.clone(), len: self.len, ..Self::default() }
    }
}

impl BranchHistory {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a log from a slice of outcomes (index 0 = oldest).
    pub fn from_outcomes(outcomes: &[bool]) -> Self {
        let mut h = Self::new();
        for &o in outcomes {
            h.push(o);
        }
        h
    }

    /// Appends one outcome.
    pub fn push(&mut self, taken: bool) {
        let word = self.len / 64;
        let bit = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if taken {
            self.words[word] |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Number of logged outcomes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Outcome at absolute position `i` (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn outcome(&self, i: usize) -> bool {
        assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// A view of the history as seen by a µ-op fetched after `pos` outcomes
    /// had been logged (i.e. outcomes `[0, pos)` are visible).
    ///
    /// # Panics
    ///
    /// Panics if `pos > len()`.
    pub fn view(&self, pos: usize) -> HistoryView<'_> {
        assert!(pos <= self.len, "history position {pos} beyond log length {}", self.len);
        HistoryView { hist: self, pos }
    }
}

/// Maximum history length supported by [`HistoryView::fold`], in bits.
pub const MAX_HISTORY_BITS: usize = 640;

/// A read-only window over the most recent outcomes at some fetch position.
#[derive(Clone, Copy, Debug)]
pub struct HistoryView<'a> {
    hist: &'a BranchHistory,
    pos: usize,
}

impl HistoryView<'_> {
    /// The number of outcomes visible to this view.
    pub fn visible(&self) -> usize {
        self.pos
    }

    /// Hashes the most recent `length` bits (zero-padded if fewer are
    /// visible) with `seed`. Used to build table indices and tags.
    ///
    /// # Panics
    ///
    /// Panics if `length > MAX_HISTORY_BITS`.
    pub fn fold(&self, length: usize, seed: u64) -> u64 {
        assert!(length <= MAX_HISTORY_BITS);
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        if length == 0 {
            return mix(h);
        }
        let take = length.min(self.pos);
        let start = self.pos - take; // absolute bit index of the oldest taken bit
        let mut remaining = take;
        let mut idx = start;
        while remaining > 0 {
            let word = idx / 64;
            let bit = idx % 64;
            let chunk = (64 - bit).min(remaining);
            let mut w = self.hist.words[word] >> bit;
            if chunk < 64 {
                w &= (1u64 << chunk) - 1;
            }
            h ^= w.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h = h.rotate_left(31).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            idx += chunk;
            remaining -= chunk;
        }
        // Make the amount of history that was actually visible part of the
        // hash so short prefixes don't alias full-length histories.
        h ^= take as u64;
        mix(h)
    }

    /// [`fold`](Self::fold) of the same `length` bits under two seeds at
    /// once: the two hash chains run side by side over one pass of word
    /// extraction. Bit-identical to `[fold(length, s0), fold(length, s1)]`.
    #[inline]
    fn fold_pair(&self, length: usize, seeds: [u64; 2]) -> [u64; 2] {
        let mut a = seeds[0] ^ 0x9e37_79b9_7f4a_7c15;
        let mut b = seeds[1] ^ 0x9e37_79b9_7f4a_7c15;
        let take = length.min(self.pos);
        let mut idx = self.pos - take;
        let mut remaining = take;
        while remaining > 0 {
            let bit = idx % 64;
            let chunk = (64 - bit).min(remaining);
            let mut w = self.hist.words[idx / 64] >> bit;
            if chunk < 64 {
                w &= (1u64 << chunk) - 1;
            }
            let m = w.wrapping_mul(0xff51_afd7_ed55_8ccd);
            a = (a ^ m).rotate_left(31).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            b = (b ^ m).rotate_left(31).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            idx += chunk;
            remaining -= chunk;
        }
        // `fold` skips the length term for a zero-length fold; xoring in
        // `take` (0 then) is the same thing.
        [mix(a ^ take as u64), mix(b ^ take as u64)]
    }
}

/// Most tagged components a [`FoldMemo`] serves.
pub const MAX_FOLD_COMPONENTS: usize = 16;

/// History positions a [`FoldMemo`] holds at once, direct-mapped by
/// `position % FOLD_MEMO_SLOTS`. 64 positions cover the conditional
/// branches between a µ-op's fetch and its commit.
pub const FOLD_MEMO_SLOTS: usize = 64;

/// The index fold and the tag fold of every tagged component at one
/// history position, as a [`FoldMemo`] returns them.
#[derive(Clone, Copy, Debug)]
pub struct Folds([[u64; 2]; MAX_FOLD_COMPONENTS]);

impl Folds {
    /// Component `comp`'s index fold: `fold(L_comp, index_seed + comp)`.
    #[inline]
    pub fn index(&self, comp: usize) -> u64 {
        self.0[comp][0]
    }

    /// Component `comp`'s tag fold: `fold(L_comp, tag_seed + comp)`.
    #[inline]
    pub fn tag(&self, comp: usize) -> u64 {
        self.0[comp][1]
    }
}

#[derive(Clone, Copy, Debug)]
struct MemoSlot {
    /// Identity of the log the folds were computed from (0 = empty).
    history: u64,
    pos: usize,
    folds: Folds,
}

/// Per-position memo of a tagged predictor's history folds (see the
/// module docs). Allocated once at construction; a lookup never
/// allocates.
#[derive(Clone, Debug)]
pub struct FoldMemo {
    lengths: [usize; MAX_FOLD_COMPONENTS],
    comps: usize,
    index_seed: u64,
    tag_seed: u64,
    slots: Box<[MemoSlot]>,
}

impl FoldMemo {
    /// A memo for components with history `lengths`, whose component `c`
    /// folds with seeds `index_seed + c` (index) and `tag_seed + c` (tag).
    /// This is the one place a tagged predictor's history geometry is
    /// validated.
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty, not strictly ascending, longer than
    /// [`MAX_FOLD_COMPONENTS`], or holds a length above
    /// [`MAX_HISTORY_BITS`].
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(lengths: &[usize], index_seed: u64, tag_seed: u64) -> Self {
        assert!(!lengths.is_empty(), "a tagged predictor needs at least one history length");
        assert!(
            lengths.len() <= MAX_FOLD_COMPONENTS,
            "{} tagged components exceed the fold memo's {MAX_FOLD_COMPONENTS}",
            lengths.len()
        );
        assert!(
            lengths.windows(2).all(|w| w[0] < w[1]),
            "history lengths must be strictly ascending"
        );
        if let Some(&l) = lengths.iter().find(|&&l| l > MAX_HISTORY_BITS) {
            panic!("history length {l} exceeds MAX_HISTORY_BITS ({MAX_HISTORY_BITS})");
        }
        let mut fixed = [0; MAX_FOLD_COMPONENTS];
        fixed[..lengths.len()].copy_from_slice(lengths);
        let empty = MemoSlot { history: 0, pos: 0, folds: Folds([[0; 2]; MAX_FOLD_COMPONENTS]) };
        FoldMemo {
            lengths: fixed,
            comps: lengths.len(),
            index_seed,
            tag_seed,
            slots: vec![empty; FOLD_MEMO_SLOTS].into_boxed_slice(),
        }
    }

    /// The folds of every component at `hist`'s position, computed on the
    /// first lookup of that (log, position) and served from the memo
    /// until another position mapping to the same slot evicts them.
    #[inline]
    pub fn folds(&mut self, hist: HistoryView<'_>) -> Folds {
        let slot = &mut self.slots[hist.pos % FOLD_MEMO_SLOTS];
        if slot.history != hist.hist.id || slot.pos != hist.pos {
            for c in 0..self.comps {
                slot.folds.0[c] = hist.fold_pair(
                    self.lengths[c],
                    [
                        self.index_seed.wrapping_add(c as u64),
                        self.tag_seed.wrapping_add(c as u64),
                    ],
                );
            }
            slot.history = hist.hist.id;
            slot.pos = hist.pos;
        }
        slot.folds
    }
}

/// Final avalanche mix (from MurmurHash3's fmix64).
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Hashes a pc with a seed (for tagless table indexing).
pub fn hash_pc(pc: u64, seed: u64) -> u64 {
    mix(pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_read_back() {
        let mut h = BranchHistory::new();
        let pattern = [true, false, true, true, false];
        for &p in &pattern {
            h.push(p);
        }
        for (i, &p) in pattern.iter().enumerate() {
            assert_eq!(h.outcome(i), p);
        }
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn fold_depends_only_on_visible_window() {
        // Two logs that agree on the last 8 outcomes but differ before.
        let mut a = BranchHistory::new();
        let mut b = BranchHistory::new();
        for i in 0..100 {
            a.push(i % 3 == 0);
            b.push(i % 7 == 0);
        }
        let tail = [true, true, false, true, false, false, true, false];
        for &t in &tail {
            a.push(t);
            b.push(t);
        }
        let va = a.view(a.len());
        let vb = b.view(b.len());
        assert_eq!(va.fold(8, 1), vb.fold(8, 1));
        assert_ne!(va.fold(64, 1), vb.fold(64, 1));
    }

    #[test]
    fn fold_changes_with_seed_and_length() {
        let h = BranchHistory::from_outcomes(&[true; 100]);
        let v = h.view(100);
        assert_ne!(v.fold(16, 1), v.fold(16, 2));
        assert_ne!(v.fold(16, 1), v.fold(32, 1));
    }

    #[test]
    fn view_at_old_position_is_stable_after_pushes() {
        let mut h = BranchHistory::from_outcomes(&[true, false, true]);
        let before = h.view(3).fold(64, 9);
        h.push(true);
        h.push(false);
        assert_eq!(h.view(3).fold(64, 9), before);
    }

    #[test]
    fn word_boundary_crossing() {
        let mut h = BranchHistory::new();
        for i in 0..130 {
            h.push(i % 2 == 0);
        }
        // Should not panic and should see 130 outcomes.
        let v = h.view(130);
        assert_eq!(v.visible(), 130);
        let _ = v.fold(128, 3);
        let _ = v.fold(640, 3);
    }

    /// Asserts that `memo` serves, for every component, exactly the folds
    /// `HistoryView::fold` computes afresh at `view`.
    fn assert_memo_matches(
        memo: &mut FoldMemo,
        view: HistoryView<'_>,
        lengths: &[usize],
        (index_seed, tag_seed): (u64, u64),
    ) {
        let folds = memo.folds(view);
        for (c, &l) in lengths.iter().enumerate() {
            let c64 = c as u64;
            assert_eq!(folds.index(c), view.fold(l, index_seed.wrapping_add(c64)), "index, {c}");
            assert_eq!(folds.tag(c), view.fold(l, tag_seed.wrapping_add(c64)), "tag, {c}");
        }
    }

    #[test]
    fn memo_rejects_bad_geometry() {
        let bad: [&[usize]; 4] = [&[], &[8, 4], &[4, 4], &[4, 641]];
        for lengths in bad {
            let built = std::panic::catch_unwind(|| FoldMemo::new(lengths, 1, 2));
            assert!(built.is_err(), "{lengths:?}");
        }
        let too_many: Vec<usize> = (1..=MAX_FOLD_COMPONENTS + 1).collect();
        assert!(std::panic::catch_unwind(|| FoldMemo::new(&too_many, 1, 2)).is_err());
        let full: Vec<usize> = (0..MAX_FOLD_COMPONENTS).map(|c| c * 40).collect();
        let _ = FoldMemo::new(&full, 1, 2);
        let _ = FoldMemo::new(&[MAX_HISTORY_BITS], 1, 2);
    }

    #[test]
    fn memo_slot_sharing_positions_never_alias() {
        let h = BranchHistory::from_outcomes(&(0..300).map(|i| i % 5 < 2).collect::<Vec<_>>());
        let lengths = [3, 17, 64, 200];
        let mut memo = FoldMemo::new(&lengths, 0x10, 0x20);
        for p in [5, 5 + FOLD_MEMO_SLOTS, 5, 5 + 2 * FOLD_MEMO_SLOTS, 5 + FOLD_MEMO_SLOTS] {
            assert_memo_matches(&mut memo, h.view(p), &lengths, (0x10, 0x20));
        }
    }

    #[test]
    fn memo_never_serves_another_log_or_a_clone() {
        // Identical lengths, identical positions, different bits: only the
        // log identity tells the entries apart.
        let a = BranchHistory::from_outcomes(&[true; 100]);
        let b = BranchHistory::from_outcomes(&[false; 100]);
        let mut c = a.clone();
        c.push(false);
        let mut d = a.clone();
        d.push(true);
        let lengths = [1, 8, 90];
        let mut memo = FoldMemo::new(&lengths, 3, 4);
        for _ in 0..2 {
            for h in [&a, &b, &c, &d] {
                assert_memo_matches(&mut memo, h.view(h.len()), &lengths, (3, 4));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn memo_equals_fresh_folds(
            a_bits in proptest::collection::vec(any::<bool>(), 0..2000),
            b_bits in proptest::collection::vec(any::<bool>(), 0..2000),
            raw_lengths in
                proptest::collection::vec(0usize..=MAX_HISTORY_BITS, 1..MAX_FOLD_COMPONENTS + 1),
            probes in proptest::collection::vec((any::<bool>(), any::<u64>(), 0usize..3), 1..200),
            seeds in (any::<u64>(), any::<u64>()),
        ) {
            let mut lengths = raw_lengths;
            lengths.sort_unstable();
            lengths.dedup();
            let a = BranchHistory::from_outcomes(&a_bits);
            let b = BranchHistory::from_outcomes(&b_bits);
            // A third log grows by `push` between lookups.
            let mut grown = BranchHistory::new();
            let mut memo = FoldMemo::new(&lengths, seeds.0, seeds.1);
            for (use_a, r, kind) in probes {
                let h = if use_a { &a } else { &b };
                let pos = (r as usize) % (h.len() + 1);
                match kind {
                    // A random position of one of two logs, alternately.
                    0 => assert_memo_matches(&mut memo, h.view(pos), &lengths, seeds),
                    // The same slot from a position 64 further on.
                    1 => {
                        let far = (pos + FOLD_MEMO_SLOTS).min(h.len());
                        assert_memo_matches(&mut memo, h.view(pos), &lengths, seeds);
                        assert_memo_matches(&mut memo, h.view(far), &lengths, seeds);
                        assert_memo_matches(&mut memo, h.view(pos), &lengths, seeds);
                    }
                    // Grow the third log, then look up an old and the new end.
                    _ => {
                        for i in 0..(r % 97) {
                            grown.push((r >> (i % 64)) & 1 == 1);
                        }
                        let old = (r as usize >> 7) % (grown.len() + 1);
                        assert_memo_matches(&mut memo, grown.view(old), &lengths, seeds);
                        assert_memo_matches(&mut memo, grown.view(grown.len()), &lengths, seeds);
                    }
                }
            }
        }

        #[test]
        fn fold_is_deterministic(outcomes in proptest::collection::vec(any::<bool>(), 0..300),
                                 len in 0usize..256, seed: u64) {
            let h = BranchHistory::from_outcomes(&outcomes);
            let v = h.view(outcomes.len());
            prop_assert_eq!(v.fold(len, seed), v.fold(len, seed));
        }

        #[test]
        fn last_bit_always_matters(outcomes in proptest::collection::vec(any::<bool>(), 1..200)) {
            let mut flipped = outcomes.clone();
            let last = flipped.len() - 1;
            flipped[last] = !flipped[last];
            let a = BranchHistory::from_outcomes(&outcomes);
            let b = BranchHistory::from_outcomes(&flipped);
            let va = a.view(outcomes.len());
            let vb = b.view(outcomes.len());
            prop_assert_ne!(va.fold(4, 0), vb.fold(4, 0));
        }
    }
}
