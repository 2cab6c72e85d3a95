//! Per-PC stride prefetcher (Table 1: L2 "Stride prefetcher, degree 8,
//! distance 1").
//!
//! Trained on demand accesses that reach L2; once a load pc exhibits a
//! stable non-zero stride, it emits `degree` prefetch addresses starting
//! `distance` strides ahead of the demand address. The hierarchy decides
//! which of those actually fill (skipping lines already present/pending).

use eole_predictors::history::hash_pc;

/// Prefetcher parameters.
#[derive(Clone, Debug)]
pub struct PrefetchConfig {
    /// Number of table entries.
    pub entries: usize,
    /// Prefetches issued per trigger.
    pub degree: usize,
    /// How many strides ahead the first prefetch lands.
    pub distance: u64,
}

impl PrefetchConfig {
    /// The paper's degree-8, distance-1 configuration.
    pub fn paper() -> Self {
        PrefetchConfig { entries: 256, degree: 8, distance: 1 }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    valid: bool,
    tag: u64,
    last_addr: u64,
    stride: i64,
    /// 2-bit stride-stability confidence.
    conf: u8,
}

crate::counters! {
    /// Prefetch counters.
    pub struct PrefetchStats {
        /// Training events observed.
        pub trains: u64,
        /// Prefetch addresses emitted.
        pub issued: u64,
    }
}

/// The stride prefetcher.
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    config: PrefetchConfig,
    table: Vec<Entry>,
    stats: PrefetchStats,
}

impl StridePrefetcher {
    /// Creates an empty prefetcher.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(config: PrefetchConfig) -> Self {
        let n = config.entries.next_power_of_two().max(1);
        StridePrefetcher { config, table: vec![Entry::default(); n], stats: PrefetchStats::default() }
    }

    /// Running counters.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    fn index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0x9f37) as usize) & (self.table.len() - 1)
    }

    /// Observes a demand access by the load at `pc` to `addr`; returns the
    /// prefetch addresses to issue (empty until the stride is stable).
    ///
    /// Convenience wrapper over [`StridePrefetcher::train_into`] for tests
    /// and offline tools; the hierarchy's hot path reuses a scratch buffer
    /// instead.
    // lint:allow(hot-alloc) offline/test convenience; the hierarchy's hot path uses `train_into`
    pub fn train(&mut self, pc: u64, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.train_into(pc, addr, &mut out);
        out
    }

    /// Allocation-free [`StridePrefetcher::train`]: clears `out` and fills
    /// it with the prefetch addresses to issue (left empty until the
    /// stride is stable). `out` never grows past `config.degree`, so a
    /// reused buffer reaches its high-water mark on the first trigger.
    pub fn train_into(&mut self, pc: u64, addr: u64, out: &mut Vec<u64>) {
        out.clear();
        self.stats.trains += 1;
        let idx = self.index(pc);
        let e = &mut self.table[idx];
        if !(e.valid && e.tag == pc) {
            *e = Entry { valid: true, tag: pc, last_addr: addr, stride: 0, conf: 0 };
            return;
        }
        let new_stride = addr.wrapping_sub(e.last_addr) as i64;
        if new_stride == e.stride && new_stride != 0 {
            e.conf = (e.conf + 1).min(3);
        } else {
            e.conf = e.conf.saturating_sub(1);
            if e.conf == 0 {
                e.stride = new_stride;
            }
        }
        e.last_addr = addr;
        if e.conf >= 2 && e.stride != 0 {
            let stride = e.stride;
            for i in 0..self.config.degree as u64 {
                out.push(
                    addr.wrapping_add((stride.wrapping_mul((self.config.distance + i) as i64)) as u64),
                );
            }
            self.stats.issued += out.len() as u64;
        }
    }
}

impl eole_predictors::snapshot::Snapshot for StridePrefetcher {
    fn snap(
        &mut self,
        s: &mut eole_predictors::snapshot::Snap<'_>,
    ) -> Result<(), eole_predictors::snapshot::SnapError> {
        s.shape(self.table.len(), "prefetch table size mismatch")?;
        for e in &mut self.table {
            s.field(&mut e.valid)?;
            s.field(&mut e.tag)?;
            s.field(&mut e.last_addr)?;
            s.field(&mut e.stride)?;
            s.bounded(&mut e.conf, ..=3, "prefetch conf out of range")?;
        }
        s.field(&mut self.stats.trains)?;
        s.field(&mut self.stats.issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetch_until_stride_is_stable() {
        let mut p = StridePrefetcher::new(PrefetchConfig::paper());
        assert!(p.train(0x10, 0x1000).is_empty()); // allocate
        assert!(p.train(0x10, 0x1040).is_empty()); // learn stride
        assert!(p.train(0x10, 0x1080).is_empty()); // conf 1
        let pf = p.train(0x10, 0x10c0); // conf 2 → fire
        assert_eq!(pf.len(), 8);
        assert_eq!(pf[0], 0x1100);
        assert_eq!(pf[7], 0x12c0);
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = StridePrefetcher::new(PrefetchConfig::paper());
        for _ in 0..10 {
            assert!(p.train(0x20, 0x2000).is_empty());
        }
    }

    #[test]
    fn stride_change_is_eventually_relearned() {
        let mut p = StridePrefetcher::new(PrefetchConfig::paper());
        for i in 0..6u64 {
            p.train(0x30, 0x3000 + i * 64);
        }
        // Break the pattern: confidence decays (2-bit hysteresis means the
        // first post-break train may still fire with the stale stride).
        let _ = p.train(0x30, 0x9000);
        assert!(p.train(0x30, 0x9008).is_empty(), "conf below threshold");
        assert!(p.train(0x30, 0x9010).is_empty(), "stride replaced at conf 0");
        // Re-earn confidence with the new +8 stride.
        let mut fired = Vec::new();
        for i in 3..8u64 {
            fired = p.train(0x30, 0x9000 + i * 8);
            if !fired.is_empty() {
                break;
            }
        }
        assert!(!fired.is_empty(), "new stride must be relearned");
        assert_eq!(fired[1].wrapping_sub(fired[0]), 8, "prefetches use the new stride");
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::new(PrefetchConfig::paper());
        for i in 0..5i64 {
            p.train(0x40, (0x8000 - i * 64) as u64);
        }
        let pf = p.train(0x40, (0x8000 - 5 * 64) as u64);
        assert!(!pf.is_empty());
        assert_eq!(pf[0], (0x8000 - 6 * 64) as u64);
    }
}
