//! Sparse 64-bit byte-addressable memory.
//!
//! Backed by 4 KiB pages allocated on demand; unwritten memory reads as
//! zero. Every access works a page at a time: an access is split into its
//! per-page pieces (one piece unless it straddles a boundary), and each
//! piece costs one page lookup plus a slice copy. Loading a data segment
//! therefore costs one lookup per page, not one per byte, and an 8-byte
//! load one lookup, not eight. Addresses wrap at 2^64, so an access that
//! starts near `u64::MAX` continues at page 0.
//!
//! Writes materialize the pages they touch, whatever the bytes written;
//! reads never materialize a page.

use std::collections::HashMap;
use std::ops::Range;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Sparse memory image used by the functional [`Machine`](crate::Machine).
#[derive(Clone, Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

/// Calls `f(page, offset in page, span of the access)` for each per-page
/// piece of the `len`-byte access at `addr`, in address order.
fn for_each_piece(addr: u64, len: usize, mut f: impl FnMut(u64, usize, Range<usize>)) {
    let mut done = 0;
    while done < len {
        let a = addr.wrapping_add(done as u64);
        let offset = (a & OFFSET_MASK) as usize;
        let n = (PAGE_SIZE - offset).min(len - done);
        f(a >> PAGE_SHIFT, offset, done..done + n);
        done += n;
    }
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4 KiB pages currently materialized.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Reads `size ≤ 8` bytes little-endian.
    pub fn read_le(&self, addr: u64, size: usize) -> u64 {
        debug_assert!(size <= 8);
        let mut bytes = [0u8; 8];
        for_each_piece(addr, size, |page, offset, span| {
            if let Some(p) = self.pages.get(&page) {
                bytes[span.clone()].copy_from_slice(&p[offset..offset + span.len()]);
            }
        });
        u64::from_le_bytes(bytes)
    }

    /// Writes the low `size ≤ 8` bytes of `value` little-endian.
    pub fn write_le(&mut self, addr: u64, size: usize, value: u64) {
        debug_assert!(size <= 8);
        self.load_bytes(addr, &value.to_le_bytes()[..size]);
    }

    /// Copies a byte slice into memory starting at `base`.
    pub fn load_bytes(&mut self, base: u64, bytes: &[u8]) {
        for_each_piece(base, bytes.len(), |page, offset, span| {
            let p = self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[offset..offset + span.len()].copy_from_slice(&bytes[span]);
        });
    }
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SparseMemory({} pages)", self.pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_le(0, 1), 0);
        assert_eq!(m.read_le(0xdead_beef, 8), 0);
        assert_eq!(m.read_le(u64::MAX - 3, 8), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn round_trip_u64() {
        let mut m = SparseMemory::new();
        m.write_le(64, 8, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_le(64, 8), 0x0123_4567_89ab_cdef);
        // Little-endian byte order.
        assert_eq!(m.read_le(64, 1), 0xef);
        assert_eq!(m.read_le(71, 1), 0x01);
    }

    #[test]
    fn page_straddling_access() {
        let mut m = SparseMemory::new();
        let addr = (1 << 12) - 4; // 4 bytes before a page boundary
        m.write_le(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_le(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read_le(1 << 12, 4), 0x1122_3344);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn partial_width_reads() {
        let mut m = SparseMemory::new();
        m.write_le(16, 4, 0xaabb_ccdd);
        assert_eq!(m.read_le(16, 4), 0xaabb_ccdd);
        assert_eq!(m.read_le(16, 2), 0xccdd);
        assert_eq!(m.read_le(16, 8), 0xaabb_ccdd); // upper bytes untouched = 0
    }

    #[test]
    fn load_bytes_places_slice() {
        let mut m = SparseMemory::new();
        m.load_bytes(100, &[1, 2, 3, 4]);
        assert_eq!(m.read_le(100, 4), 0x0403_0201);
    }

    /// Page boundaries the reference-model test clusters its addresses
    /// around; 0 doubles as the wrap point below `u64::MAX`.
    const BOUNDARIES: [u64; 4] = [0, 1 << 12, 2 << 12, 0x7_0000_0000];

    /// One drawn operation: `(kind, boundary, offset + 16, width index,
    /// value, (segment shape, segment length))`.
    type Op = (u8, usize, u64, usize, u64, (u8, usize));

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let boundary = 0usize..BOUNDARIES.len();
        let op = (0u8..3, boundary, 0u64..33, 0usize..4, any::<u64>(), (0u8..8, 0usize..40));
        prop::collection::vec(op, 1..64)
    }

    /// A segment of `len` bytes (one in eight spans more than a page, one
    /// in eight is all zeros) drawn from `seed`.
    fn segment(seed: u64, shape: u8, len: usize) -> Vec<u8> {
        let len = if shape == 0 { PAGE_SIZE + len } else { len };
        (0..len)
            .map(|i| if shape == 1 { 0 } else { seed.rotate_left(i as u32 * 8) as u8 ^ i as u8 })
            .collect()
    }

    fn model_read(model: &BTreeMap<u64, u8>, addr: u64, size: usize) -> u64 {
        (0..size).fold(0, |v, i| {
            let b = model.get(&addr.wrapping_add(i as u64)).copied().unwrap_or(0);
            v | (b as u64) << (8 * i)
        })
    }

    proptest! {
        #[test]
        fn write_then_read_any_width(addr in 0u64..1u64 << 40, size in 1usize..=8, value: u64) {
            let mut m = SparseMemory::new();
            m.write_le(addr, size, value);
            let mask = if size == 8 { u64::MAX } else { (1u64 << (8 * size)) - 1 };
            prop_assert_eq!(m.read_le(addr, size), value & mask);
        }

        #[test]
        fn disjoint_writes_do_not_interfere(a in 0u64..1u64 << 32, v1: u64, v2: u64) {
            let b = a.wrapping_add(8);
            let mut m = SparseMemory::new();
            m.write_le(a, 8, v1);
            m.write_le(b, 8, v2);
            prop_assert_eq!(m.read_le(a, 8), v1);
            prop_assert_eq!(m.read_le(b, 8), v2);
        }

        #[test]
        fn matches_a_byte_map_reference_model(ops in ops()) {
            let mut m = SparseMemory::new();
            let mut model = BTreeMap::new();
            for (kind, boundary, delta, width, value, (shape, len)) in ops {
                let addr = BOUNDARIES[boundary].wrapping_add(delta).wrapping_sub(16);
                let size = 1 << width;
                match kind {
                    0 => {
                        let bytes = segment(value, shape, len);
                        m.load_bytes(addr, &bytes);
                        for (i, &b) in bytes.iter().enumerate() {
                            model.insert(addr.wrapping_add(i as u64), b);
                        }
                    }
                    1 => {
                        m.write_le(addr, size, value);
                        for (i, b) in value.to_le_bytes()[..size].iter().enumerate() {
                            model.insert(addr.wrapping_add(i as u64), *b);
                        }
                    }
                    _ => prop_assert_eq!(m.read_le(addr, size), model_read(&model, addr, size)),
                }
                let pages: BTreeSet<u64> = model.keys().map(|a| a >> PAGE_SHIFT).collect();
                prop_assert_eq!(m.page_count(), pages.len());
            }
        }
    }
}
