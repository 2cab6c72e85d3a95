//! The full memory hierarchy of Table 1: split 32 KB L1I/L1D, unified 2 MB
//! L2 with a stride prefetcher, and a DDR3-like DRAM behind it.
//!
//! The pipeline calls [`MemoryHierarchy::load`] / [`MemoryHierarchy::fetch`]
//! with an issue cycle and receives the completion cycle; stores drain at
//! commit through [`MemoryHierarchy::store`] (write-allocate, write-back,
//! hidden behind an un-throttled write buffer — a documented
//! simplification).

use crate::cache::{Cache, CacheConfig, CacheStats, Lookup};
use crate::dram::{Dram, DramConfig, DramStats};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::{PrefetchConfig, PrefetchStats, StridePrefetcher};

/// Configuration of the whole hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// Instruction cache.
    pub l1i: CacheConfig,
    /// Data cache.
    pub l1d: CacheConfig,
    /// Unified second level.
    pub l2: CacheConfig,
    /// DRAM behind the L2.
    pub dram: DramConfig,
    /// L1D MSHRs (Table 1: 64).
    pub l1d_mshrs: usize,
    /// L1I MSHRs.
    pub l1i_mshrs: usize,
    /// L2 MSHRs (Table 1: 64).
    pub l2_mshrs: usize,
    /// L2 stride prefetcher; `None` disables prefetching.
    pub prefetch: Option<PrefetchConfig>,
}

impl HierarchyConfig {
    /// The paper's Table 1 memory system.
    pub fn paper() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1i_paper(),
            l1d: CacheConfig::l1d_paper(),
            l2: CacheConfig::l2_paper(),
            dram: DramConfig::paper(),
            l1d_mshrs: 64,
            l1i_mshrs: 16,
            l2_mshrs: 64,
            prefetch: Some(PrefetchConfig::paper()),
        }
    }
}

crate::counters! {
    /// Snapshot of all memory-system counters.
    pub struct MemStats {
        /// L1I hit/miss counters.
        pub l1i: CacheStats,
        /// L1D hit/miss counters.
        pub l1d: CacheStats,
        /// L2 hit/miss counters.
        pub l2: CacheStats,
        /// DRAM counters.
        pub dram: DramStats,
        /// Prefetch counters.
        pub prefetch: PrefetchStats,
        /// Dirty lines evicted from L1D/L2 (write-back traffic).
        pub writebacks: u64,
    }
}

/// The memory hierarchy.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram: Dram,
    l1i_mshrs: MshrFile,
    l1d_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    prefetcher: Option<StridePrefetcher>,
    /// Reused prefetch-target buffer (≤ degree entries; reaches its
    /// high-water mark on the first trigger and never reallocates after).
    pf_targets: Vec<u64>,
    writebacks: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a configuration.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(config: &HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(config.l1i.clone()),
            l1d: Cache::new(config.l1d.clone()),
            l2: Cache::new(config.l2.clone()),
            dram: Dram::new(config.dram.clone()),
            l1i_mshrs: MshrFile::new(config.l1i_mshrs),
            l1d_mshrs: MshrFile::new(config.l1d_mshrs),
            l2_mshrs: MshrFile::new(config.l2_mshrs),
            prefetcher: config.prefetch.clone().map(StridePrefetcher::new),
            pf_targets: Vec::with_capacity(
                config.prefetch.as_ref().map(|p| p.degree).unwrap_or(0),
            ),
            writebacks: 0,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            dram: self.dram.stats(),
            prefetch: self
                .prefetcher
                .as_ref()
                .map(|p| p.stats())
                .unwrap_or_default(),
            writebacks: self.writebacks,
        }
    }

    /// Fetches the line containing `addr` into L2 (or merges with an
    /// in-flight L2 miss) and returns the cycle its data is available.
    fn access_l2(&mut self, addr: u64, cycle: u64) -> u64 {
        let line = self.l2.line_addr(addr);
        match self.l2.lookup(line, cycle) {
            Lookup::Hit { available } => available,
            Lookup::Miss => match self.l2_mshrs.register(line, cycle) {
                MshrOutcome::Merged { ready } => ready.max(cycle),
                MshrOutcome::Allocated { start } => {
                    let done = self.dram.access(line, start + self.l2.config().latency);
                    if let Some(ev) = self.l2.fill(line, done) {
                        if ev.dirty {
                            self.writebacks += 1;
                        }
                    }
                    self.l2_mshrs.complete(line, done);
                    done
                }
            },
        }
    }

    /// Issues the prefetcher's suggestions for a demand load miss.
    fn maybe_prefetch(&mut self, pc: u64, addr: u64, cycle: u64) {
        let Some(pf) = self.prefetcher.as_mut() else { return };
        pf.train_into(pc, addr, &mut self.pf_targets);
        for i in 0..self.pf_targets.len() {
            let t = self.pf_targets[i];
            let line = self.l2.line_addr(t);
            if self.l2.probe(line) {
                continue;
            }
            let done = self.dram.access(line, cycle + self.l2.config().latency);
            if let Some(ev) = self.l2.fill(line, done) {
                if ev.dirty {
                    self.writebacks += 1;
                }
            }
        }
    }

    /// A demand load by the µ-op at `pc` to `addr`, issued at `cycle`;
    /// returns the completion cycle (data usable by dependents).
    pub fn load(&mut self, pc: u64, addr: u64, cycle: u64) -> u64 {
        let line = self.l1d.line_addr(addr);
        match self.l1d.lookup(line, cycle) {
            Lookup::Hit { available } => available,
            Lookup::Miss => {
                self.maybe_prefetch(pc, addr, cycle);
                match self.l1d_mshrs.register(line, cycle) {
                    MshrOutcome::Merged { ready } => ready.max(cycle),
                    MshrOutcome::Allocated { start } => {
                        let done = self.access_l2(line, start + self.l1d.config().latency);
                        if let Some(ev) = self.l1d.fill(line, done) {
                            if ev.dirty {
                                self.writebacks += 1;
                                // Dirty victim drains into L2.
                                self.l2.fill(ev.line_addr, done);
                                self.l2.mark_dirty(ev.line_addr);
                            }
                        }
                        self.l1d_mshrs.complete(line, done);
                        done
                    }
                }
            }
        }
    }

    /// A committed store to `addr` at `cycle` (write-allocate, write-back).
    /// The write buffer hides its latency from the pipeline.
    pub fn store(&mut self, pc: u64, addr: u64, cycle: u64) {
        let line = self.l1d.line_addr(addr);
        match self.l1d.lookup(line, cycle) {
            Lookup::Hit { .. } => {
                self.l1d.mark_dirty(line);
            }
            Lookup::Miss => {
                let _ = pc;
                match self.l1d_mshrs.register(line, cycle) {
                    MshrOutcome::Merged { .. } => {
                        // The in-flight fill will arrive; dirty it now.
                        self.l1d.fill(line, cycle);
                        self.l1d.mark_dirty(line);
                    }
                    MshrOutcome::Allocated { start } => {
                        let done = self.access_l2(line, start + self.l1d.config().latency);
                        if let Some(ev) = self.l1d.fill(line, done) {
                            if ev.dirty {
                                self.writebacks += 1;
                                self.l2.fill(ev.line_addr, done);
                                self.l2.mark_dirty(ev.line_addr);
                            }
                        }
                        self.l1d_mshrs.complete(line, done);
                        self.l1d.mark_dirty(line);
                    }
                }
            }
        }
    }

    /// An instruction fetch of the line containing byte address `addr`;
    /// returns the completion cycle (fetch stalls until then on a miss).
    pub fn fetch(&mut self, addr: u64, cycle: u64) -> u64 {
        let line = self.l1i.line_addr(addr);
        match self.l1i.lookup(line, cycle) {
            Lookup::Hit { available } => available,
            Lookup::Miss => match self.l1i_mshrs.register(line, cycle) {
                MshrOutcome::Merged { ready } => ready.max(cycle),
                MshrOutcome::Allocated { start } => {
                    let done = self.access_l2(line, start + self.l1i.config().latency);
                    self.l1i.fill(line, done);
                    self.l1i_mshrs.complete(line, done);
                    done
                }
            },
        }
    }
}

impl eole_predictors::snapshot::Snapshot for MemoryHierarchy {
    fn snap(
        &mut self,
        s: &mut eole_predictors::snapshot::Snap<'_>,
    ) -> Result<(), eole_predictors::snapshot::SnapError> {
        self.l1i.snap(s)?;
        self.l1d.snap(s)?;
        self.l2.snap(s)?;
        self.dram.snap(s)?;
        self.l1i_mshrs.snap(s)?;
        self.l1d_mshrs.snap(s)?;
        self.l2_mshrs.snap(s)?;
        s.shape(self.prefetcher.is_some(), "prefetcher presence mismatch")?;
        if let Some(pf) = &mut self.prefetcher {
            pf.snap(s)?;
        }
        // `pf_targets` is per-call scratch (always drained before the next
        // observable event) — not state.
        if s.reading() {
            self.pf_targets.clear();
        }
        s.field(&mut self.writebacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> MemoryHierarchy {
        MemoryHierarchy::new(&HierarchyConfig::paper())
    }

    #[test]
    fn l1_hit_costs_two_cycles() {
        let mut m = paper();
        let t1 = m.load(0x10, 0x1000, 0); // cold miss
        let t2 = m.load(0x10, 0x1008, t1); // same line: L1 hit
        assert_eq!(t2, t1 + 2);
    }

    #[test]
    fn cold_load_goes_to_dram() {
        let mut m = paper();
        let done = m.load(0x10, 0x1000, 0);
        // L1 (2) + L2 (12) + DRAM closed-row (130) ≈ 144.
        assert!(done >= 75 + 14, "done = {done}");
        assert_eq!(m.stats().dram.accesses, 1);
    }

    #[test]
    fn l2_hit_avoids_dram() {
        let mut m = paper();
        let t1 = m.load(0x10, 0x1000, 0);
        // A different L1 line, same L2 residency? Use an address beyond L1
        // but previously filled into L2 via eviction patterns — simplest:
        // re-load the same line after evicting it from L1.
        // Fill 5 lines mapping to the same L1 set (128 sets × 64 B = 8 KB stride).
        for i in 1..=4u64 {
            m.load(0x10, 0x1000 + i * 8192, t1 + i * 200);
        }
        let before = m.stats().dram.accesses;
        let t2 = m.load(0x10, 0x1000, t1 + 2000); // L1-evicted, L2 hit
        assert_eq!(m.stats().dram.accesses, before, "no new DRAM access");
        assert_eq!(t2, t1 + 2000 + 2 + 12);
    }

    #[test]
    fn inflight_fill_serves_secondary_access() {
        let mut m = paper();
        let t1 = m.load(0x10, 0x2000, 0);
        // Same line while the miss is in flight: the L1 line is installed
        // with `ready_at = t1`, so the second access waits for the fill and
        // pays only the L1 hit latency on top — no second DRAM trip.
        let t2 = m.load(0x11, 0x2010, 1);
        assert_eq!(t2, t1 + 2);
        assert_eq!(m.stats().dram.accesses, 1);
    }

    #[test]
    fn store_marks_line_dirty_and_writes_back() {
        let mut m = paper();
        m.store(0x20, 0x3000, 0);
        // Evict the dirty line by filling 4 more lines in its set.
        for i in 1..=4u64 {
            m.load(0x21, 0x3000 + i * 8192, 1000 * i);
        }
        assert!(m.stats().writebacks >= 1);
    }

    #[test]
    fn streaming_loads_trigger_prefetch() {
        let mut m = paper();
        let mut cycle = 0;
        // March through memory with a fixed stride from one pc.
        for i in 0..32u64 {
            cycle = m.load(0x40, 0x10_0000 + i * 64, cycle) + 1;
        }
        assert!(m.stats().prefetch.issued > 0, "prefetcher should fire");
        // Late loads should increasingly hit in L2 (prefetched):
        // total DRAM accesses must be well below 32 demand lines + prefetch.
        let s = m.stats();
        assert!(s.l2.misses < 32, "L2 demand misses = {}", s.l2.misses);
    }

    #[test]
    fn fetch_misses_then_hits() {
        let mut m = paper();
        let t1 = m.fetch(0x0, 0);
        assert!(t1 > 10, "cold fetch miss goes to L2/DRAM");
        let t2 = m.fetch(0x4, t1);
        assert_eq!(t2, t1 + 1, "same line fetch hits");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut m = paper();
            let mut cycle = 0;
            let mut acc = 0u64;
            for i in 0..200u64 {
                let addr = 0x8000 + (i * 7919) % 65536;
                cycle = m.load(0x50, addr, cycle) + 1;
                acc ^= cycle;
            }
            (cycle, acc, m.stats().dram.accesses)
        };
        assert_eq!(run(), run());
    }
}
