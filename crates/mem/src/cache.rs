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

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    tag: u64,
    dirty: bool,
    /// Cycle at which the (possibly in-flight) fill completes.
    ready_at: u64,
    /// Larger = more recently used.
    lru: u64,
}

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

/// One cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
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
        Cache { config, lines: vec![Line::default(); n], lru_clock: 0, stats: CacheStats::default() }
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

    /// Looks up `addr` at `cycle`, updating LRU and counters.
    pub fn lookup(&mut self, addr: u64, cycle: u64) -> Lookup {
        self.stats.accesses += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.config.ways;
        for w in 0..self.config.ways {
            let idx = base + w;
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                self.lru_clock += 1;
                self.lines[idx].lru = self.lru_clock;
                let fill_done = self.lines[idx].ready_at;
                let available = cycle.max(fill_done) + self.config.latency;
                return Lookup::Hit { available };
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Checks for presence without touching LRU or counters (used by
    /// prefetchers to avoid redundant fills).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.config.ways;
        (0..self.config.ways).any(|w| {
            let l = &self.lines[base + w];
            l.valid && l.tag == tag
        })
    }

    /// Installs the line containing `addr`, whose fill completes at
    /// `ready_at`. Returns the evicted victim, if any.
    pub fn fill(&mut self, addr: u64, ready_at: u64) -> Option<Evicted> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.config.ways;
        // Refill of a line that is already present just updates timing.
        for w in 0..self.config.ways {
            let l = &mut self.lines[base + w];
            if l.valid && l.tag == tag {
                l.ready_at = l.ready_at.max(ready_at);
                return None;
            }
        }
        let mut victim = base;
        let mut best = u64::MAX;
        for w in 0..self.config.ways {
            let l = &self.lines[base + w];
            if !l.valid {
                victim = base + w;
                break;
            }
            if l.lru < best {
                best = l.lru;
                victim = base + w;
            }
        }
        let old = self.lines[victim];
        self.lru_clock += 1;
        self.lines[victim] =
            Line { valid: true, tag, dirty: false, ready_at, lru: self.lru_clock };
        if old.valid {
            let line_bytes = self.config.line_bytes;
            let old_addr = (old.tag * self.config.sets as u64 + set as u64) * line_bytes;
            Some(Evicted { line_addr: old_addr, dirty: old.dirty })
        } else {
            None
        }
    }

    /// Marks the line containing `addr` dirty (store hit). Returns false if
    /// the line is absent.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.config.ways;
        for w in 0..self.config.ways {
            let l = &mut self.lines[base + w];
            if l.valid && l.tag == tag {
                l.dirty = true;
                return true;
            }
        }
        false
    }
}

impl eole_predictors::snapshot::Snapshot for Cache {
    fn snapshot(&self, w: &mut eole_predictors::snapshot::SnapWriter) {
        w.put_usize(self.lines.len());
        for l in &self.lines {
            w.put_bool(l.valid);
            w.put_u64(l.tag);
            w.put_bool(l.dirty);
            w.put_u64(l.ready_at);
            w.put_u64(l.lru);
        }
        w.put_u64(self.lru_clock);
        w.put_u64(self.stats.accesses);
        w.put_u64(self.stats.misses);
    }

    fn restore(
        &mut self,
        r: &mut eole_predictors::snapshot::SnapReader<'_>,
    ) -> Result<(), eole_predictors::snapshot::SnapError> {
        if r.get_usize()? != self.lines.len() {
            return Err(eole_predictors::snapshot::SnapError::new("cache size mismatch"));
        }
        for l in &mut self.lines {
            l.valid = r.get_bool()?;
            l.tag = r.get_u64()?;
            l.dirty = r.get_bool()?;
            l.ready_at = r.get_u64()?;
            l.lru = r.get_u64()?;
        }
        self.lru_clock = r.get_u64()?;
        self.stats.accesses = r.get_u64()?;
        self.stats.misses = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
