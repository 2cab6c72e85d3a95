//! The tagged half of every TAGE-family predictor ([`Tage`], [`Vtage`],
//! [`DVtage`]) and the table policy they share, defined once: the
//! per-lookup [`Keys`], the longest-match scan
//! ([`TaggedTables::hit_below`]: the provider, and TAGE's alternate), the
//! allocation victim pick ([`TaggedTables::victim`]) and the periodic
//! usefulness decay ([`TaggedTables::age`]). Each predictor keeps its
//! payload, base table, hash seeds and snapshot field order.
//!
//! [`Tage`]: crate::branch::Tage
//! [`Vtage`]: crate::value::Vtage
//! [`DVtage`]: crate::value::DVtage

use crate::history::{FoldMemo, Folds, HistoryView};
use crate::rng::SimRng;

/// How often (in updates) the usefulness counters decay.
const USEFUL_RESET_PERIOD: u64 = 1 << 18;

/// The tag-match and replacement state every tagged entry carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TagMeta {
    pub valid: bool,
    pub tag: u32,
    /// 2-bit usefulness, read by the allocation policy.
    pub useful: u8,
}

impl TagMeta {
    /// Moves the usefulness up after a correct prediction, down after a
    /// wrong one.
    #[inline]
    pub fn reward(&mut self, correct: bool) {
        let u = self.useful;
        self.useful = if correct { (u + 1).min(3) } else { u.saturating_sub(1) };
    }
}

/// A predictor's hash of one lookup's keys, from each component's
/// history folds: a pair of closures `(row, tag)`, taking the component
/// and its fold. [`Keys`] reduces the row hash modulo the rows.
pub(crate) trait KeyHash {
    fn row(&self, comp: usize, index_fold: u64) -> usize;
    fn tag(&self, comp: usize, tag_fold: u64) -> u32;
}

impl<R: Fn(usize, u64) -> usize, T: Fn(usize, u64) -> u32> KeyHash for (R, T) {
    #[inline]
    fn row(&self, comp: usize, index_fold: u64) -> usize {
        (self.0)(comp, index_fold)
    }

    #[inline]
    fn tag(&self, comp: usize, tag_fold: u64) -> u32 {
        (self.1)(comp, tag_fold)
    }
}

/// Every component's entry index (into [`TaggedTables`]) and tag for one
/// lookup: the history folds, read once per predictor call, bound to the
/// predictor's hash. A key is hashed where a scan reads it, so the
/// provider scan's early exit skips the components it never reaches, and
/// a tag is only hashed for a valid entry. Hashing all keys up front, or
/// caching each one, measured slower (PERF.md, "One tagged-table core").
pub(crate) struct Keys<H> {
    hash: H,
    folds: Folds,
    rows: usize,
}

impl<H: KeyHash> Keys<H> {
    /// Component `comp`'s entry index into the tables.
    #[inline]
    pub fn index(&self, comp: usize) -> usize {
        comp * self.rows + (self.hash.row(comp, self.folds.index(comp)) & (self.rows - 1))
    }

    /// Component `comp`'s tag.
    #[inline]
    pub fn tag(&self, comp: usize) -> u32 {
        self.hash.tag(comp, self.folds.tag(comp))
    }
}

/// The tagged components of a TAGE-family predictor: `comps` components
/// of `rows` entries each, stored component-major, plus the history-fold
/// memo and the update counter that drives aging.
///
/// Entry `i` (a [`Keys`] index) is `meta[i]` and the payload `data[i]`,
/// held in two parallel arrays: the scans read only the compact metadata,
/// so the payload (a 64-bit value in VTAGE) does not dilute the cache
/// lines they touch.
#[derive(Clone, Debug)]
pub(crate) struct TaggedTables<P> {
    pub meta: Vec<TagMeta>,
    pub data: Vec<P>,
    rows: usize,
    comps: usize,
    /// History folds per position (derived state: never snapshotted, not
    /// part of equality).
    memo: FoldMemo,
    /// Updates seen, for [`age`](Self::age); snapshotted by the owning
    /// predictor, in its own field order.
    pub updates: u64,
}

impl<P: PartialEq> PartialEq for TaggedTables<P> {
    fn eq(&self, other: &Self) -> bool {
        self.meta == other.meta && self.data == other.data && self.updates == other.updates
    }
}

impl<P: Eq> Eq for TaggedTables<P> {}

impl<P: Copy + Default> TaggedTables<P> {
    /// Components with history `lengths` (folded with `index_seed + c`
    /// and `tag_seed + c`, see [`FoldMemo::new`]), each of `rows` entries.
    ///
    /// # Panics
    ///
    /// Panics if [`FoldMemo::new`] rejects `lengths`, or if `rows` is not
    /// a power of two.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(lengths: &[usize], (index_seed, tag_seed): (u64, u64), rows: usize) -> Self {
        let memo = FoldMemo::new(lengths, index_seed, tag_seed);
        assert!(rows.is_power_of_two(), "tagged component rows must be a power of two");
        TaggedTables {
            meta: vec![TagMeta::default(); lengths.len() * rows],
            data: vec![P::default(); lengths.len() * rows],
            rows,
            comps: lengths.len(),
            memo,
            updates: 0,
        }
    }
}

impl<P> TaggedTables<P> {
    /// Number of tagged components.
    pub fn comps(&self) -> usize {
        self.comps
    }

    /// Entries per component.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The components in order, each as its `rows` metadata and payloads.
    pub fn components(&self) -> impl Iterator<Item = (&[TagMeta], &[P])> {
        self.meta.chunks(self.rows).zip(self.data.chunks(self.rows))
    }

    /// Mutable [`components`](Self::components).
    pub fn components_mut(&mut self) -> impl Iterator<Item = (&mut [TagMeta], &mut [P])> {
        self.meta.chunks_mut(self.rows).zip(self.data.chunks_mut(self.rows))
    }

    /// The [`Keys`] of one lookup at `hist` under the predictor's `hash`,
    /// whose row hash is reduced modulo `rows` here.
    #[inline]
    pub fn keys<H: KeyHash>(&mut self, hist: HistoryView<'_>, hash: H) -> Keys<H> {
        Keys { hash, folds: self.memo.folds(hist), rows: self.rows }
    }

    /// The longest component below `n` whose entry is valid and matches
    /// its tag, with that entry's index. `hit_below(keys, comps())` is the
    /// provider.
    #[inline]
    pub fn hit_below(&self, keys: &Keys<impl KeyHash>, n: usize) -> Option<(usize, usize)> {
        for c in (0..n).rev() {
            let i = keys.index(c);
            let m = &self.meta[i];
            if m.valid && m.tag == keys.tag(c) {
                return Some((c, i));
            }
        }
        None
    }

    /// The component to allocate in, among `start..comps()`, with its
    /// entry index: the shortest whose entry has `useful == 0`, or — with
    /// probability 1/3, drawn only when at least two are free — the
    /// second-shortest. With none free, every candidate's usefulness
    /// decays and nothing is chosen.
    pub fn victim(
        &mut self,
        keys: &Keys<impl KeyHash>,
        start: usize,
        rng: &mut SimRng,
    ) -> Option<(usize, usize)> {
        let mut free = (start..self.comps)
            .map(|c| (c, keys.index(c)))
            .filter(|&(_, i)| self.meta[i].useful == 0);
        let Some(shortest) = free.next() else {
            for c in start..self.comps {
                let m = &mut self.meta[keys.index(c)];
                m.useful = m.useful.saturating_sub(1);
            }
            return None;
        };
        match free.next() {
            Some(second) if rng.one_in(3) => Some(second),
            _ => Some(shortest),
        }
    }

    /// [`victim`](Self::victim), then a fresh valid entry holding `data`
    /// at the chosen slot, which is returned.
    pub fn allocate(
        &mut self,
        keys: &Keys<impl KeyHash>,
        start: usize,
        rng: &mut SimRng,
        data: P,
    ) -> Option<(usize, usize)> {
        let (comp, i) = self.victim(keys, start, rng)?;
        self.meta[i] = TagMeta { valid: true, tag: keys.tag(comp), useful: 0 };
        self.data[i] = data;
        Some((comp, i))
    }

    /// Counts one update and, every [`USEFUL_RESET_PERIOD`] updates,
    /// applies `decay` to every entry's usefulness.
    pub fn age(&mut self, decay: impl Fn(u8) -> u8) {
        self.updates += 1;
        if self.updates.is_multiple_of(USEFUL_RESET_PERIOD) {
            for m in &mut self.meta {
                m.useful = decay(m.useful);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;

    const COMPS: usize = 4;

    /// Component `c`'s row is `row + c` and its tag `tag + c`.
    fn fixed(row: usize, tag: u32) -> impl KeyHash {
        (move |c, _| row + c, move |c, _| tag + c as u32)
    }

    /// Four components of 8 rows; component `c`'s key is row `c`, tag
    /// `10 + c`.
    fn tables() -> (TaggedTables<()>, Keys<impl KeyHash>) {
        let mut t = TaggedTables::new(&[2, 4, 8, 16], (1, 2), 8);
        let hist = BranchHistory::new();
        let keys = t.keys(hist.view(0), fixed(0, 10));
        (t, keys)
    }

    /// Sets component `c`'s keyed entry's usefulness.
    fn set_useful(t: &mut TaggedTables<()>, keys: &Keys<impl KeyHash>, useful: [u8; COMPS]) {
        for (c, u) in useful.into_iter().enumerate() {
            t.meta[keys.index(c)].useful = u;
        }
    }

    fn usefuls(t: &TaggedTables<()>, keys: &Keys<impl KeyHash>) -> [u8; COMPS] {
        std::array::from_fn(|c| t.meta[keys.index(c)].useful)
    }

    #[test]
    fn keys_are_component_major_and_reduced_modulo_rows() {
        let mut t: TaggedTables<()> = TaggedTables::new(&[2, 4], (1, 2), 8);
        let hist = BranchHistory::new();
        let keys = t.keys(hist.view(0), fixed(13, 7));
        assert_eq!((keys.index(0), keys.index(1)), (5, 8 + 6));
        assert_eq!(keys.tag(1), 8);
    }

    #[test]
    fn shortest_free_slot_wins_without_a_second() {
        let (mut t, keys) = tables();
        set_useful(&mut t, &keys, [1, 0, 2, 3]);
        let mut rng = SimRng::new(5);
        assert_eq!(t.victim(&keys, 0, &mut rng).map(|(c, _)| c), Some(1));
        // One free slot: no draw, and nothing decayed.
        assert_eq!(rng, SimRng::new(5));
        assert_eq!(usefuls(&t, &keys), [1, 0, 2, 3]);
    }

    #[test]
    fn second_shortest_only_through_the_one_in_three_draw() {
        let (mut t, keys) = tables();
        set_useful(&mut t, &keys, [1, 0, 2, 0]);
        for seed in 1..200 {
            let mut rng = SimRng::new(seed);
            let mut draw = SimRng::new(seed);
            let want = if draw.one_in(3) { 3 } else { 1 };
            assert_eq!(t.victim(&keys, 0, &mut rng).map(|(c, _)| c), Some(want), "seed {seed}");
            // Exactly one draw.
            assert_eq!(rng, draw, "seed {seed}");
        }
        assert_eq!(usefuls(&t, &keys), [1, 0, 2, 0]);
    }

    #[test]
    fn start_excludes_shorter_components() {
        let (mut t, keys) = tables();
        let mut rng = SimRng::new(3);
        assert_eq!(t.victim(&keys, 3, &mut rng).map(|(c, _)| c), Some(3));
        assert_eq!(rng, SimRng::new(3));
    }

    #[test]
    fn no_free_slot_decays_every_candidate_and_allocates_nothing() {
        let (mut t, keys) = tables();
        set_useful(&mut t, &keys, [2, 1, 3, 1]);
        let mut rng = SimRng::new(9);
        assert_eq!(t.allocate(&keys, 1, &mut rng, ()), None);
        assert_eq!(rng, SimRng::new(9));
        assert_eq!(usefuls(&t, &keys), [2, 0, 2, 0]);
        assert!((0..COMPS).all(|c| !t.meta[keys.index(c)].valid));
    }

    #[test]
    fn start_at_comps_returns_none_without_a_draw() {
        let (mut t, keys) = tables();
        let mut rng = SimRng::new(4);
        assert_eq!(t.victim(&keys, COMPS, &mut rng).map(|(c, _)| c), None);
        assert_eq!(rng, SimRng::new(4));
        assert_eq!(usefuls(&t, &keys), [0; COMPS]);
    }

    #[test]
    fn allocate_installs_a_fresh_tagged_entry() {
        let (mut t, keys) = tables();
        set_useful(&mut t, &keys, [0, 1, 1, 1]);
        assert_eq!(t.allocate(&keys, 0, &mut SimRng::new(1), ()), Some((0, keys.index(0))));
        assert_eq!(t.meta[keys.index(0)], TagMeta { valid: true, tag: 10, useful: 0 });
    }

    #[test]
    fn hit_below_ignores_invalid_entries_and_tag_mismatches() {
        let (mut t, keys) = tables();
        assert_eq!(t.hit_below(&keys, COMPS).map(|(c, _)| c), None);
        // Component 3: right tag but invalid. Component 2: valid, wrong tag.
        t.meta[keys.index(3)] = TagMeta { valid: false, tag: 13, useful: 0 };
        t.meta[keys.index(2)] = TagMeta { valid: true, tag: 99, useful: 0 };
        t.meta[keys.index(1)] = TagMeta { valid: true, tag: 11, useful: 0 };
        t.meta[keys.index(0)] = TagMeta { valid: true, tag: 10, useful: 0 };
        assert_eq!(t.hit_below(&keys, COMPS).map(|(c, _)| c), Some(1));
        assert_eq!(t.hit_below(&keys, 1).map(|(c, _)| c), Some(0));
        assert_eq!(t.hit_below(&keys, 0).map(|(c, _)| c), None);
    }

    #[test]
    fn aging_applies_the_decay_once_per_period() {
        let (mut t, keys) = tables();
        set_useful(&mut t, &keys, [3, 2, 1, 0]);
        for _ in 0..USEFUL_RESET_PERIOD - 1 {
            t.age(|u| u >> 1);
        }
        assert_eq!(usefuls(&t, &keys), [3, 2, 1, 0]);
        t.age(|u| u >> 1);
        assert_eq!(usefuls(&t, &keys), [1, 1, 0, 0]);
        assert_eq!(t.updates, USEFUL_RESET_PERIOD);
    }
}
