//! Branch Target Buffer: 2-way set-associative, LRU (Table 1: "2-way
//! 4K-entry BTB").
//!
//! Stores the target instruction index of taken control µ-ops. Indirect
//! jumps/calls use the stored target as their prediction; direct control
//! µ-ops use it to avoid a fetch-redirect bubble on taken branches.

use crate::history::hash_pc;

#[derive(Clone, Copy, Debug, Default)]
struct BtbEntry {
    valid: bool,
    tag: u32,
    target: u32,
    /// Higher = more recently used (within the set).
    lru: u8,
}

/// Set-associative branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    sets: usize,
    ways: usize,
    entries: Vec<BtbEntry>,
}

impl Btb {
    /// The paper's configuration: 4K entries, 2-way.
    pub fn paper() -> Self {
        Self::new(4096, 2)
    }

    /// Creates a BTB with `entries` total slots in `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or does not divide the (power-of-two rounded)
    /// entry count.
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0);
        let n = entries.next_power_of_two().max(ways);
        assert_eq!(n % ways, 0);
        Btb { sets: n / ways, ways, entries: vec![BtbEntry::default(); n] }
    }

    fn set_of(&self, pc: u64) -> usize {
        (hash_pc(pc, 0xb7b) as usize) % self.sets
    }

    fn pc_tag(&self, pc: u64) -> u32 {
        (hash_pc(pc, 0x7b7) >> 13) as u32
    }

    /// Looks up the stored target for `pc`, updating LRU on a hit.
    pub fn lookup(&mut self, pc: u64) -> Option<u32> {
        let set = self.set_of(pc);
        let tag = self.pc_tag(pc);
        let base = set * self.ways;
        for w in 0..self.ways {
            let e = self.entries[base + w];
            if e.valid && e.tag == tag {
                for v in 0..self.ways {
                    let x = &mut self.entries[base + v];
                    x.lru = x.lru.saturating_sub(1);
                }
                self.entries[base + w].lru = u8::MAX;
                return Some(e.target);
            }
        }
        None
    }

    /// Inserts or updates the target for `pc`.
    pub fn insert(&mut self, pc: u64, target: u32) {
        let set = self.set_of(pc);
        let tag = self.pc_tag(pc);
        let base = set * self.ways;
        // Update on hit.
        for w in 0..self.ways {
            let e = &mut self.entries[base + w];
            if e.valid && e.tag == tag {
                e.target = target;
                e.lru = u8::MAX;
                return;
            }
        }
        // Victim: invalid way, else lowest LRU.
        let mut victim = 0;
        let mut best = u8::MAX;
        for w in 0..self.ways {
            let e = &self.entries[base + w];
            if !e.valid {
                victim = w;
                break;
            }
            if e.lru <= best {
                best = e.lru;
                victim = w;
            }
        }
        for v in 0..self.ways {
            let x = &mut self.entries[base + v];
            x.lru = x.lru.saturating_sub(1);
        }
        self.entries[base + victim] = BtbEntry { valid: true, tag, target, lru: u8::MAX };
    }

    /// Total storage in bits (tag + target + valid + lru per entry).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * (19 + 32 + 1 + 1)
    }
}

impl crate::snapshot::Snapshot for Btb {
    fn snapshot(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.entries.len());
        for e in &self.entries {
            w.put_bool(e.valid);
            w.put_u32(e.tag);
            w.put_u32(e.target);
            w.put_u8(e.lru);
        }
    }

    fn restore(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        if r.get_usize()? != self.entries.len() {
            return Err(crate::snapshot::SnapError::new("btb size mismatch"));
        }
        for e in &mut self.entries {
            e.valid = r.get_bool()?;
            e.tag = r.get_u32()?;
            e.target = r.get_u32()?;
            e.lru = r.get_u8()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut btb = Btb::new(64, 2);
        assert_eq!(btb.lookup(0x40), None);
        btb.insert(0x40, 99);
        assert_eq!(btb.lookup(0x40), Some(99));
    }

    #[test]
    fn update_changes_target() {
        let mut btb = Btb::new(64, 2);
        btb.insert(0x40, 1);
        btb.insert(0x40, 2);
        assert_eq!(btb.lookup(0x40), Some(2));
    }

    #[test]
    fn lru_evicts_older_entry_in_full_set() {
        // 1 set × 2 ways: three distinct pcs must evict someone.
        let mut btb = Btb::new(2, 2);
        btb.insert(10, 1);
        btb.insert(20, 2);
        let _ = btb.lookup(10); // make 10 the MRU
        btb.insert(30, 3); // evicts 20
        assert_eq!(btb.lookup(10), Some(1));
        assert_eq!(btb.lookup(30), Some(3));
        assert_eq!(btb.lookup(20), None);
    }

    #[test]
    fn paper_size() {
        let btb = Btb::paper();
        assert_eq!(btb.sets * btb.ways, 4096);
    }
}
