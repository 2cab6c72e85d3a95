//! Set-associative cache with LRU replacement and per-line fill timing.
//!
//! Timing model: a lookup either *hits* (data available after the cache's
//! access latency, or after the line's in-flight fill completes, whichever
//! is later) or *misses* (the caller fetches the line from the next level
//! and installs it with [`Cache::fill`], recording when the fill arrives).
//! Recording `ready_at` per line prevents a just-started fill from being
//! treated as an instant hit by a subsequent access.

/// Geometry and latency of one cache level.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency in cycles (hit latency).
    pub latency: u64,
}

impl CacheConfig {
    /// Table 1: L1D 4-way 32 KB, 2 cycles, 64 B lines.
    pub fn l1d_paper() -> Self {
        CacheConfig { sets: 128, ways: 4, line_bytes: 64, latency: 2 }
    }

    /// Table 1: L1I 4-way 32 KB, 64 B lines (hit latency folded into the
    /// front-end depth; misses add stall cycles).
    pub fn l1i_paper() -> Self {
        CacheConfig { sets: 128, ways: 4, line_bytes: 64, latency: 1 }
    }

    /// Table 1: unified L2 16-way 2 MB, 12 cycles, 64 B lines.
    pub fn l2_paper() -> Self {
        CacheConfig { sets: 2048, ways: 16, line_bytes: 64, latency: 12 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// Result of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Line present: data available at `available` (≥ lookup cycle +
    /// latency; later if the line's fill is still in flight).
    Hit {
        /// Cycle at which the data can be consumed.
        available: u64,
    },
    /// Line absent: fetch from the next level, then call [`Cache::fill`].
    Miss,
}

/// A line evicted by [`Cache::fill`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Base address of the evicted line.
    pub line_addr: u64,
    /// True if the line was dirty (needs a writeback).
    pub dirty: bool,
}

/// The tag of a line that holds nothing. No address has it: a tag is an
/// address divided by the line size.
const INVALID: u64 = u64::MAX;

crate::counters! {
    /// Running hit/miss counters.
    #[derive(PartialEq, Eq)]
    pub struct CacheStats {
        /// Total lookups.
        pub accesses: u64,
        /// Lookups that missed.
        pub misses: u64,
    }
}

impl CacheStats {
    /// Miss ratio (0 when there were no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One cache level. Its lines are parallel arrays, indexed by
/// `set * ways + way`: a set scan reads only the tags, 8 bytes a way.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Each line's tag, [`INVALID`] while it holds nothing.
    tags: Vec<u64>,
    /// Cycle at which each line's (possibly in-flight) fill completes.
    ready_at: Vec<u64>,
    /// Each line's last use; larger = more recently used.
    lru: Vec<u64>,
    dirty: Vec<bool>,
    lru_clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if sets/ways are zero or `line_bytes` is not a power of two.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets > 0 && config.ways > 0);
        assert!(config.line_bytes.is_power_of_two());
        let n = config.sets * config.ways;
        Cache {
            config,
            tags: vec![INVALID; n],
            ready_at: vec![0; n],
            lru: vec![0; n],
            dirty: vec![false; n],
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Base address of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes - 1)
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.config.line_bytes) as usize) % self.config.sets
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes / self.config.sets as u64
    }

    /// The first line index of `addr`'s set, and its tag.
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        (self.set_of(addr) * self.config.ways, self.tag_of(addr))
    }

    /// The line of `addr`'s set (starting at `base`) that holds `tag`.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        let ways = &self.tags[base..base + self.config.ways];
        ways.iter().position(|&t| t == tag).map(|w| base + w)
    }

    /// Looks up `addr` at `cycle`, updating LRU and counters.
    pub fn lookup(&mut self, addr: u64, cycle: u64) -> Lookup {
        self.stats.accesses += 1;
        let (base, tag) = self.set_and_tag(addr);
        match self.find(base, tag) {
            Some(idx) => {
                self.lru_clock += 1;
                self.lru[idx] = self.lru_clock;
                let available = cycle.max(self.ready_at[idx]) + self.config.latency;
                Lookup::Hit { available }
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Checks for presence without touching LRU or counters (used by
    /// prefetchers to avoid redundant fills).
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.set_and_tag(addr);
        self.find(base, tag).is_some()
    }

    /// Installs the line containing `addr`, whose fill completes at
    /// `ready_at`. Returns the evicted victim, if any.
    pub fn fill(&mut self, addr: u64, ready_at: u64) -> Option<Evicted> {
        let (base, tag) = self.set_and_tag(addr);
        // Refill of a line that is already present just updates timing.
        if let Some(idx) = self.find(base, tag) {
            self.ready_at[idx] = self.ready_at[idx].max(ready_at);
            return None;
        }
        // The first invalid way, else the least recently used one.
        let mut victim = base;
        let mut best = u64::MAX;
        for idx in base..base + self.config.ways {
            if self.tags[idx] == INVALID {
                victim = idx;
                break;
            }
            if self.lru[idx] < best {
                best = self.lru[idx];
                victim = idx;
            }
        }
        let (old_tag, old_dirty) = (self.tags[victim], self.dirty[victim]);
        self.lru_clock += 1;
        self.tags[victim] = tag;
        self.dirty[victim] = false;
        self.ready_at[victim] = ready_at;
        self.lru[victim] = self.lru_clock;
        (old_tag != INVALID).then(|| {
            let set = (base / self.config.ways) as u64;
            let line_addr = (old_tag * self.config.sets as u64 + set) * self.config.line_bytes;
            Evicted { line_addr, dirty: old_dirty }
        })
    }

    /// Marks the line containing `addr` dirty (store hit). Returns false if
    /// the line is absent.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (base, tag) = self.set_and_tag(addr);
        let found = self.find(base, tag);
        if let Some(idx) = found {
            self.dirty[idx] = true;
        }
        found.is_some()
    }
}

impl eole_predictors::snapshot::Snapshot for Cache {
    fn snap(
        &mut self,
        s: &mut eole_predictors::snapshot::Snap<'_>,
    ) -> Result<(), eole_predictors::snapshot::SnapError> {
        use eole_predictors::snapshot::SnapError;
        // Per line: valid, tag (0 while invalid), dirty, ready_at, lru.
        s.shape(self.tags.len(), "cache size mismatch")?;
        for i in 0..self.tags.len() {
            let mut valid = self.tags[i] != INVALID;
            let mut tag = if valid { self.tags[i] } else { 0 };
            s.field(&mut valid)?;
            s.field(&mut tag)?;
            if s.reading() {
                self.tags[i] = match (valid, tag) {
                    (true, INVALID) => return Err(SnapError::new("cache tag out of range")),
                    (true, tag) => tag,
                    (false, 0) => INVALID,
                    (false, _) => return Err(SnapError::new("invalid cache line with a tag")),
                };
            }
            s.field(&mut self.dirty[i])?;
            s.field(&mut self.ready_at[i])?;
            s.field(&mut self.lru[i])?;
        }
        s.field(&mut self.lru_clock)?;
        s.field(&mut self.stats.accesses)?;
        s.field(&mut self.stats.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eole_predictors::snapshot::Snapshot;

    fn small() -> Cache {
        Cache::new(CacheConfig { sets: 2, ways: 2, line_bytes: 64, latency: 2 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x100, 10), Lookup::Miss);
        c.fill(0x100, 50);
        match c.lookup(0x104, 60) {
            Lookup::Hit { available } => assert_eq!(available, 62),
            Lookup::Miss => panic!("same line must hit"),
        }
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn inflight_fill_delays_the_hit() {
        let mut c = small();
        c.fill(0x100, 100); // fill completes at cycle 100
        match c.lookup(0x100, 20) {
            Lookup::Hit { available } => assert_eq!(available, 102),
            Lookup::Miss => panic!("pending line must register as a hit"),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(); // 2 ways per set
        // Three lines mapping to the same set (set count = 2).
        let (a, b, d) = (0x000, 0x080, 0x100); // set 0 lines
        c.fill(a, 0);
        c.fill(b, 0);
        let _ = c.lookup(a, 1); // a is MRU
        let ev = c.fill(d, 2).expect("must evict");
        assert_eq!(ev.line_addr, b);
        assert!(c.probe(a));
        assert!(!c.probe(b));
    }

    #[test]
    fn dirty_eviction_is_reported() {
        let mut c = small();
        c.fill(0x000, 0);
        assert!(c.mark_dirty(0x000));
        c.fill(0x080, 0);
        let ev = c.fill(0x100, 0).unwrap();
        assert_eq!(ev.line_addr, 0x000);
        assert!(ev.dirty);
    }

    #[test]
    fn mark_dirty_on_absent_line_fails() {
        let mut c = small();
        assert!(!c.mark_dirty(0x40));
    }

    #[test]
    fn paper_configs_have_table1_capacities() {
        assert_eq!(CacheConfig::l1d_paper().capacity(), 32 * 1024);
        assert_eq!(CacheConfig::l1i_paper().capacity(), 32 * 1024);
        assert_eq!(CacheConfig::l2_paper().capacity(), 2 * 1024 * 1024);
    }

    /// Per line the snapshot holds valid, tag, dirty, ready_at and lru;
    /// a line that holds nothing reads as invalid with tag 0.
    #[test]
    fn snapshot_layout_and_round_trip() {
        let mut c = small();
        c.fill(0x080, 7);
        assert!(c.mark_dirty(0x080));
        let bytes = c.snapshot_bytes();
        assert_eq!(bytes.len(), 8 + 4 * 26 + 3 * 8);
        // Set 0, way 0: valid, tag 1, dirty, ready at 7, lru 1.
        let line0 = &bytes[8..8 + 26];
        assert_eq!(line0[0], 1);
        assert_eq!(line0[1..9], 1u64.to_le_bytes());
        assert_eq!(line0[9], 1);
        assert_eq!(line0[10..18], 7u64.to_le_bytes());
        assert_eq!(line0[18..26], 1u64.to_le_bytes());
        // Every other line is empty: all zero.
        assert!(bytes[8 + 26..8 + 4 * 26].iter().all(|&b| b == 0));
        let mut back = small();
        back.restore_bytes(&bytes).unwrap();
        assert_eq!(back.snapshot_bytes(), bytes);
        assert!(back.probe(0x080) && !back.probe(0x000));
    }

    /// A snapshot line that is invalid yet has a tag is not a state this
    /// cache produces: restore refuses it.
    #[test]
    fn restore_rejects_an_invalid_line_with_a_tag() {
        let mut bytes = small().snapshot_bytes();
        bytes[9] = 1; // line 0's tag, its valid byte left false
        let err = small().restore_bytes(&bytes);
        assert!(err.is_err());
    }

    #[test]
    fn refill_of_present_line_updates_timing_without_eviction() {
        let mut c = small();
        c.fill(0x100, 10);
        assert!(c.fill(0x100, 99).is_none());
        match c.lookup(0x100, 0) {
            Lookup::Hit { available } => assert_eq!(available, 101),
            Lookup::Miss => panic!(),
        }
    }
}
