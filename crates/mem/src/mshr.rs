//! Miss Status Holding Registers.
//!
//! Each cache level has a bounded number of outstanding misses (Table 1:
//! 64 MSHRs on L1D and L2). A second miss to an in-flight line *merges*
//! (returns the pending completion time); a miss with all MSHRs busy is
//! *delayed* until the earliest entry retires.

/// Outcome of registering a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new MSHR was allocated; the miss proceeds at the given cycle
    /// (possibly later than requested if the file was full).
    Allocated {
        /// Cycle at which the miss can start going down the hierarchy.
        start: u64,
    },
    /// The line already has an in-flight miss; ride along with it.
    Merged {
        /// Completion cycle of the existing miss.
        ready: u64,
    },
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    line_addr: u64,
    ready: u64,
}

/// A bounded file of outstanding misses for one cache level.
#[derive(Clone, Debug)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    /// Cumulative cycles lost waiting for a free MSHR.
    pub full_stall_cycles: u64,
    /// Number of merged (secondary) misses.
    pub merges: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries, allocated up front: the
    /// file never holds more, so registering misses never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        MshrFile { entries: Vec::with_capacity(capacity), capacity, full_stall_cycles: 0, merges: 0 }
    }

    fn prune(&mut self, cycle: u64) {
        self.entries.retain(|e| e.ready > cycle);
    }

    /// Registers a miss on `line_addr` at `cycle`.
    ///
    /// For `Allocated { start }`, the caller must later call
    /// [`MshrFile::complete`] with the miss's completion cycle.
    pub fn register(&mut self, line_addr: u64, cycle: u64) -> MshrOutcome {
        self.prune(cycle);
        if let Some(e) = self.entries.iter().find(|e| e.line_addr == line_addr) {
            self.merges += 1;
            return MshrOutcome::Merged { ready: e.ready };
        }
        if self.entries.len() < self.capacity {
            MshrOutcome::Allocated { start: cycle }
        } else {
            // Delayed until the earliest in-flight miss retires.
            let earliest = self.entries.iter().map(|e| e.ready).min().unwrap_or(cycle);
            self.full_stall_cycles += earliest.saturating_sub(cycle);
            MshrOutcome::Allocated { start: earliest }
        }
    }

    /// Records the completion time of a previously `Allocated` miss so later
    /// accesses to the same line can merge with it.
    pub fn complete(&mut self, line_addr: u64, ready: u64) {
        // A miss registered on a full file was delayed until the earliest
        // entry retires: that entry's slot is the one it reuses, so the
        // file never holds more than `capacity` entries.
        if self.entries.len() >= self.capacity {
            if let Some(pos) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.ready)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(pos);
            }
        }
        self.entries.push(Entry { line_addr, ready });
    }

    /// Current number of outstanding misses (after pruning at `cycle`).
    pub fn outstanding(&mut self, cycle: u64) -> usize {
        self.prune(cycle);
        self.entries.len()
    }
}

impl eole_predictors::snapshot::Snapshot for MshrFile {
    fn snap(
        &mut self,
        s: &mut eole_predictors::snapshot::Snap<'_>,
    ) -> Result<(), eole_predictors::snapshot::SnapError> {
        // Entry order is part of the state: `complete` pushes in call
        // order and `swap_remove`/`retain` are deterministic, so a replay
        // reproduces the same vector — serialize it verbatim. `complete`
        // never grows the file past capacity.
        let mut n = self.entries.len();
        s.bounded(&mut n, ..=self.capacity, "mshr count out of range")?;
        if s.reading() {
            self.entries.clear();
            self.entries.resize(n, Entry { line_addr: 0, ready: 0 });
        }
        for e in &mut self.entries {
            s.field(&mut e.line_addr)?;
            s.field(&mut e.ready)?;
        }
        s.field(&mut self.full_stall_cycles)?;
        s.field(&mut self.merges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_miss_allocates_immediately() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.register(0x100, 10), MshrOutcome::Allocated { start: 10 });
        m.complete(0x100, 90);
    }

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(4);
        let _ = m.register(0x100, 10);
        m.complete(0x100, 90);
        assert_eq!(m.register(0x100, 20), MshrOutcome::Merged { ready: 90 });
        assert_eq!(m.merges, 1);
    }

    #[test]
    fn full_file_delays_new_misses() {
        let mut m = MshrFile::new(2);
        let _ = m.register(0x100, 0);
        m.complete(0x100, 50);
        let _ = m.register(0x200, 0);
        m.complete(0x200, 80);
        match m.register(0x300, 0) {
            MshrOutcome::Allocated { start } => assert_eq!(start, 50),
            other => panic!("expected delayed allocation, got {other:?}"),
        }
        assert_eq!(m.full_stall_cycles, 50);
    }

    #[test]
    fn completed_misses_free_their_slots() {
        let mut m = MshrFile::new(1);
        let _ = m.register(0x100, 0);
        m.complete(0x100, 30);
        assert_eq!(m.outstanding(31), 0);
        assert_eq!(m.register(0x200, 31), MshrOutcome::Allocated { start: 31 });
    }

    /// A storm of misses, more than the file holds and all in flight at
    /// once, runs out of the storage allocated at construction.
    #[test]
    fn miss_storm_never_reallocates() {
        let mut m = MshrFile::new(64);
        let capacity = m.entries.capacity();
        for i in 0..1_000u64 {
            if let MshrOutcome::Allocated { start } = m.register(i * 64, i) {
                m.complete(i * 64, start + 300);
            }
            assert!(m.entries.len() <= 64, "miss {i}");
            assert_eq!(m.entries.capacity(), capacity, "miss {i}");
        }
        assert!(m.full_stall_cycles > 0, "the storm must fill the file");
    }

    /// A full file round-trips; one entry more is not a state the file
    /// produces, and restore refuses it.
    #[test]
    fn restore_takes_a_full_file_and_refuses_more() {
        use eole_predictors::snapshot::Snapshot;
        let mut full = MshrFile::new(2);
        full.complete(0x100, 50);
        full.complete(0x200, 60);
        let bytes = full.snapshot_bytes();
        let mut back = MshrFile::new(2);
        back.restore_bytes(&bytes).unwrap();
        assert_eq!(back.snapshot_bytes(), bytes);
        assert!(MshrFile::new(1).restore_bytes(&bytes).is_err());
    }

    #[test]
    fn merge_after_completion_time_is_a_fresh_miss() {
        let mut m = MshrFile::new(2);
        let _ = m.register(0x100, 0);
        m.complete(0x100, 30);
        // At cycle 40 the fill is done; the entry is pruned and a new miss
        // allocates (the line may have been evicted since).
        assert_eq!(m.register(0x100, 40), MshrOutcome::Allocated { start: 40 });
    }
}
