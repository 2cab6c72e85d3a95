//! The tagged half of every TAGE-family predictor ([`Tage`], [`Vtage`],
//! [`DVtage`]) and the table policy they share, defined once: the
//! per-lookup keys ([`TaggedTables::keys`]), the longest-match scan
//! ([`TaggedTables::hit_below`]: the provider, and TAGE's alternate), the
//! allocation victim pick ([`TaggedTables::victim`]) and the periodic
//! usefulness decay ([`TaggedTables::age`]). Each predictor keeps its
//! payload, base table, hash seeds and snapshot field order.
//!
//! A lookup's keys have one form: one `u32` word per component, packed as
//! `tag << index_bits | entry index`, where `index_bits` is the fewest
//! bits that address every entry of the component-major tables. Only this
//! module packs or decodes a word. Every predictor's keys depend only on
//! the µ-op's pc, its history position and the geometry, so the timing
//! core builds them once per trace; the per-call adapters
//! ([`DirectionPredictor`], [`ValuePredictor`]) build them per call from
//! the history-fold memo, and both feed the same keyed scans.
//!
//! [`Tage`]: crate::branch::Tage
//! [`Vtage`]: crate::value::Vtage
//! [`DVtage`]: crate::value::DVtage
//! [`DirectionPredictor`]: crate::branch::DirectionPredictor
//! [`ValuePredictor`]: crate::value::ValuePredictor

use crate::history::{FoldMemo, HistoryView};
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

/// The tagged components of a TAGE-family predictor: `comps` components
/// of `rows` entries each, stored component-major, plus the history-fold
/// memo and the update counter that drives aging.
///
/// Entry `i` (a key word's entry index) is `meta[i]` and the payload
/// `data[i]`, held in two parallel arrays: the scans read only the compact
/// metadata, so the payload (a 64-bit value in VTAGE) does not dilute the
/// cache lines they touch.
#[derive(Clone, Debug)]
pub(crate) struct TaggedTables<P> {
    pub meta: Vec<TagMeta>,
    pub data: Vec<P>,
    rows: usize,
    comps: usize,
    /// Bits of a key word's entry index: enough for every entry.
    index_bits: u32,
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
            index_bits: (lengths.len() * rows).next_power_of_two().trailing_zeros(),
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
    pub fn components_mut(&mut self) -> impl Iterator<Item = (&mut [TagMeta], &mut [P])> {
        self.meta.chunks_mut(self.rows).zip(self.data.chunks_mut(self.rows))
    }

    /// One lookup's keys at `hist`, one word per component: the
    /// predictor's `row` hash of the component and its index fold, reduced
    /// modulo `rows` into that component's entries, and its `tag` hash of
    /// the component and its tag fold, packed as
    /// `tag << index_bits | entry index`. The words past
    /// [`comps`](Self::comps) are 0.
    #[inline]
    pub fn keys<const N: usize>(
        &mut self,
        hist: HistoryView<'_>,
        row: impl Fn(usize, u64) -> usize,
        tag: impl Fn(usize, u64) -> u32,
    ) -> [u32; N] {
        let folds = self.memo.folds(hist);
        std::array::from_fn(|c| {
            if c < self.comps {
                let index = c * self.rows + (row(c, folds.index(c)) & (self.rows - 1));
                let tag = tag(c, folds.tag(c));
                debug_assert!(u64::from(tag) < 1 << (32 - self.index_bits));
                tag << self.index_bits | index as u32
            } else {
                0
            }
        })
    }

    /// Panics unless key words of `N` components address these tables:
    /// at most `N` components, and every entry index beside the widest
    /// tag (`widest_tag` bits) in a 32-bit word.
    pub fn assert_packable<const N: usize>(&self, widest_tag: u32, name: &str) {
        assert!(self.comps <= N, "{} tagged components exceed {name}'s {N}", self.comps);
        assert!(
            self.index_bits + widest_tag <= 32,
            "{name}'s {}-bit entry index and {widest_tag}-bit tags exceed a 32-bit key",
            self.index_bits
        );
    }

    /// The entry index of key word `key`.
    #[inline]
    fn index(&self, key: u32) -> usize {
        (key & ((1 << self.index_bits) - 1)) as usize
    }

    /// The tag of key word `key`.
    #[inline]
    fn tag(&self, key: u32) -> u32 {
        key >> self.index_bits
    }

    /// The longest component below `n` whose entry is valid and matches
    /// its tag, with that entry's index. `hit_below(keys, comps())` is the
    /// provider.
    #[inline]
    pub fn hit_below(&self, keys: &[u32], n: usize) -> Option<(usize, usize)> {
        for c in (0..n).rev() {
            let i = self.index(keys[c]);
            let m = &self.meta[i];
            if m.valid && m.tag == self.tag(keys[c]) {
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
        keys: &[u32],
        start: usize,
        rng: &mut SimRng,
    ) -> Option<(usize, usize)> {
        let mut free = (start..self.comps)
            .map(|c| (c, self.index(keys[c])))
            .filter(|&(_, i)| self.meta[i].useful == 0);
        let Some(shortest) = free.next() else {
            for &key in &keys[start..self.comps] {
                let i = self.index(key);
                let m = &mut self.meta[i];
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
        keys: &[u32],
        start: usize,
        rng: &mut SimRng,
        data: P,
    ) -> Option<(usize, usize)> {
        let (comp, i) = self.victim(keys, start, rng)?;
        self.meta[i] = TagMeta { valid: true, tag: self.tag(keys[comp]), useful: 0 };
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

    /// The keys of one lookup in `t` where component `c`'s row is
    /// `row + c` and its tag `tag + c`.
    fn fixed<P, const N: usize>(t: &mut TaggedTables<P>, row: usize, tag: u32) -> [u32; N] {
        let hist = BranchHistory::new();
        t.keys(hist.view(0), move |c, _| row + c, move |c, _| tag + c as u32)
    }

    /// Four components of 8 rows; component `c`'s key is row `c`, tag
    /// `10 + c`.
    fn tables() -> (TaggedTables<()>, [u32; COMPS]) {
        let mut t = TaggedTables::new(&[2, 4, 8, 16], (1, 2), 8);
        let keys = fixed(&mut t, 0, 10);
        (t, keys)
    }

    /// Component `c`'s keyed entry.
    fn entry(t: &TaggedTables<()>, keys: &[u32; COMPS], c: usize) -> usize {
        t.index(keys[c])
    }

    /// Sets component `c`'s keyed entry's usefulness.
    fn set_useful(t: &mut TaggedTables<()>, keys: &[u32; COMPS], useful: [u8; COMPS]) {
        for (c, u) in useful.into_iter().enumerate() {
            let i = entry(t, keys, c);
            t.meta[i].useful = u;
        }
    }

    fn usefuls(t: &TaggedTables<()>, keys: &[u32; COMPS]) -> [u8; COMPS] {
        std::array::from_fn(|c| t.meta[entry(t, keys, c)].useful)
    }

    /// Checks every word of `words` (from [`fixed`] at `row`, `tag`) in
    /// `t`, whose key words hold `index_bits` index bits.
    fn assert_layout<const N: usize>(
        t: &TaggedTables<()>,
        words: [u32; N],
        (row, tag): (usize, u32),
        index_bits: u32,
    ) {
        assert_eq!(t.index_bits, index_bits);
        for (c, &w) in words.iter().enumerate().take(t.comps()) {
            let index = c * t.rows() + (row + c) % t.rows();
            let want = (tag + c as u32) << index_bits | index as u32;
            assert_eq!(w, want, "component {c}");
            assert_eq!((t.index(w), t.tag(w)), (index, tag + c as u32), "component {c}");
        }
        assert!(words[t.comps()..].iter().all(|&w| w == 0));
    }

    /// Pins the one key layout: each word is its component's tag above
    /// `index_bits` bits of entry index, component-major and reduced
    /// modulo rows.
    #[test]
    fn keys_are_component_major_and_reduced_modulo_rows() {
        // TAGE's geometry: 12 × 1024 entries take 14 index bits, beside
        // tags of up to 15 bits.
        let lengths: Vec<usize> = (1..=12).collect();
        let mut tage = TaggedTables::new(&lengths, (1, 2), 1024);
        let words: [u32; 12] = fixed(&mut tage, 3 * 1024 + 1020, 0x7ff0);
        assert_layout(&tage, words, (3 * 1024 + 1020, 0x7ff0), 14);
        // VTAGE's geometry: 6 × 1024 entries take 13 index bits, beside
        // tags of up to 17 bits; the words past the components are 0.
        let mut vtage = TaggedTables::new(&[2, 4, 8, 16, 32, 64], (1, 2), 1024);
        let words: [u32; 8] = fixed(&mut vtage, 1021, 0x1fff0);
        assert_layout(&vtage, words, (1021, 0x1fff0), 13);
        // Component 5's row 1021 + 5 wraps to row 2.
        assert_eq!(words[5], (0x1fff0 + 5) << 13 | (5 * 1024 + 2));
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
        assert!((0..COMPS).all(|c| !t.meta[entry(&t, &keys, c)].valid));
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
        let first = entry(&t, &keys, 0);
        assert_eq!(t.allocate(&keys, 0, &mut SimRng::new(1), ()), Some((0, first)));
        assert_eq!(t.meta[first], TagMeta { valid: true, tag: 10, useful: 0 });
    }

    #[test]
    fn hit_below_ignores_invalid_entries_and_tag_mismatches() {
        let (mut t, keys) = tables();
        assert_eq!(t.hit_below(&keys, COMPS).map(|(c, _)| c), None);
        // Component 3: right tag but invalid. Component 2: valid, wrong tag.
        let [e0, e1, e2, e3] = std::array::from_fn(|c| entry(&t, &keys, c));
        t.meta[e3] = TagMeta { valid: false, tag: 13, useful: 0 };
        t.meta[e2] = TagMeta { valid: true, tag: 99, useful: 0 };
        t.meta[e1] = TagMeta { valid: true, tag: 11, useful: 0 };
        t.meta[e0] = TagMeta { valid: true, tag: 10, useful: 0 };
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
