//! Sparse 64-bit byte-addressable memory over a program's data segments.
//!
//! The memory borrows the program's [`DataSegment`]s and reads them where
//! the kernel wrote them: building a machine copies no data. On top sit
//! 4 KiB pages, allocated copy-on-write: the first store to a page copies
//! that page's backing bytes (zeros outside every segment) into a private
//! page and writes there. Only pages some store touched are ever copied;
//! a page no store touched is read straight from the segments, and memory
//! outside every segment reads as zero.
//!
//! Every access works a page at a time: an access is split into its
//! per-page pieces (one piece unless it straddles a boundary), and each
//! piece costs one page lookup plus a slice copy (from the private page,
//! or from the segments that overlap it). Addresses wrap at 2^64, so an
//! access that starts near `u64::MAX` continues at page 0.

use std::ops::Range;

use crate::hash::WordHashMap;
use crate::program::DataSegment;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Sparse memory image used by the functional [`Machine`](crate::Machine).
#[derive(Clone, Default)]
pub struct SparseMemory<'p> {
    /// Pages a store materialized; they shadow the backing.
    /// Keyed by page number, hashed with one multiply
    /// ([`WordHasher`](crate::WordHasher)).
    pages: WordHashMap<u64, Box<[u8; PAGE_SIZE]>>,
    /// Non-empty backing segments, sorted by base; they never overlap.
    backing: Vec<&'p DataSegment>,
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

/// Address of the last byte of a non-empty segment.
fn last_byte(seg: &DataSegment) -> u64 {
    seg.base + (seg.bytes.len() as u64 - 1)
}

/// Copies the bytes `backing` holds in `[addr, addr + dst.len())`, a
/// non-empty range within one page, into `dst`, which holds zeros on entry.
fn read_backing(backing: &[&DataSegment], addr: u64, dst: &mut [u8]) {
    let last = addr + (dst.len() as u64 - 1);
    let first = backing.partition_point(|s| last_byte(s) < addr);
    for s in backing[first..].iter().take_while(|s| s.base <= last) {
        let (lo, hi) = (addr.max(s.base), last.min(last_byte(s)));
        let src = &s.bytes[(lo - s.base) as usize..=(hi - s.base) as usize];
        dst[(lo - addr) as usize..=(hi - addr) as usize].copy_from_slice(src);
    }
}

impl SparseMemory<'static> {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'p> SparseMemory<'p> {
    /// Creates a memory whose initial contents are `segments`, read in
    /// place; every other byte reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if two segments overlap or one runs past `u64::MAX`
    /// ([`Program::new`](crate::Program::new) rejects both).
    pub fn backed(segments: &'p [DataSegment]) -> Self {
        let mut backing: Vec<&DataSegment> =
            segments.iter().filter(|s| !s.bytes.is_empty()).collect();
        backing.sort_unstable_by_key(|s| s.base);
        for s in &backing {
            let fits = s.base.checked_add(s.bytes.len() as u64 - 1).is_some();
            assert!(fits, "segment at {:#x} wraps", s.base);
        }
        for w in backing.windows(2) {
            assert!(last_byte(w[0]) < w[1].base, "segments overlap at {:#x}", w[1].base);
        }
        SparseMemory { pages: WordHashMap::default(), backing }
    }

    /// Number of 4 KiB pages currently materialized (touched by a store).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Reads `size ≤ 8` bytes little-endian.
    pub fn read_le(&self, addr: u64, size: usize) -> u64 {
        debug_assert!(size <= 8);
        let mut bytes = [0u8; 8];
        for_each_piece(addr, size, |page, offset, span| {
            let dst = &mut bytes[span];
            match self.pages.get(&page) {
                Some(p) => dst.copy_from_slice(&p[offset..offset + dst.len()]),
                None => read_backing(&self.backing, (page << PAGE_SHIFT) | offset as u64, dst),
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
            let p = self.pages.entry(page).or_insert_with(|| {
                let mut fresh = Box::new([0u8; PAGE_SIZE]);
                read_backing(&self.backing, page << PAGE_SHIFT, &mut fresh[..]);
                fresh
            });
            p[offset..offset + span.len()].copy_from_slice(&bytes[span]);
        });
    }
}

impl std::fmt::Debug for SparseMemory<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SparseMemory({} pages, {} segments)", self.pages.len(), self.backing.len())
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

    #[test]
    fn backed_memory_reads_segments_in_place() {
        let segs = [
            DataSegment { base: 0x1000, bytes: vec![1, 2, 3] },
            DataSegment { base: 0x1010, bytes: vec![4, 5] },
            DataSegment { base: 0x1ffe, bytes: vec![6, 7, 8, 9] },
        ];
        let mut m = SparseMemory::backed(&segs);
        assert_eq!(m.read_le(0x1000, 8), 0x03_0201);
        assert_eq!(m.read_le(0x100f, 4), 0x0005_0400);
        assert_eq!(m.read_le(0x1ffd, 8), 0x09_0807_0600);
        assert_eq!(m.page_count(), 0);
        m.write_le(0x1003, 1, 0xaa);
        assert_eq!(m.read_le(0x1000, 8), 0xaa03_0201);
        assert_eq!(m.read_le(0x1010, 2), 0x0504, "the copied page keeps its other segment");
        assert_eq!(m.page_count(), 1);
        assert_eq!(segs[0].bytes, [1, 2, 3], "the backing is never written");
    }

    #[test]
    #[should_panic(expected = "segments overlap")]
    fn overlapping_backing_is_rejected() {
        let segs = [
            DataSegment { base: 0x100, bytes: vec![0; 8] },
            DataSegment { base: 0x104, bytes: vec![0; 8] },
        ];
        SparseMemory::backed(&segs);
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

    /// The backing the reference-model test starts from, random in
    /// placement, length and contents: two segments that share page 1,
    /// one that straddles the page 1/2 boundary, and one (sometimes all
    /// zeros, empty or longer than a page) at most 16 bytes below
    /// `0x7_0000_0000`.
    fn backing() -> impl Strategy<Value = Vec<DataSegment>> {
        let shared = (0u64..8, 1usize..12, 0u64..8, 1usize..12);
        (any::<u64>(), shared, (1u64..17, 1usize..17), (0u64..17, 0u8..8, 0usize..40)).prop_map(
            |(seed, (at, len1, gap, len2), (below, above), (low, shape, len))| {
                let seg = |base, bytes| DataSegment { base, bytes };
                let base1 = (1 << 12) + at;
                let base2 = base1 + len1 as u64 + gap;
                vec![
                    seg(base1, segment(seed, 2, len1)),
                    seg(base2, segment(!seed, 2, len2)),
                    seg((2 << 12) - below, segment(seed >> 7, 2, below as usize + above)),
                    seg(0x7_0000_0000 - low, segment(seed << 5, shape, len)),
                ]
            },
        )
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

    /// Writes `bytes` at `addr` into the model and notes the pages touched.
    fn model_write(
        model: &mut BTreeMap<u64, u8>,
        written: &mut BTreeSet<u64>,
        addr: u64,
        bytes: &[u8],
    ) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            model.insert(a, b);
            written.insert(a >> PAGE_SHIFT);
        }
    }

    /// Every 8-byte read within 24 bytes of each boundary, against the model.
    fn sweep(m: &SparseMemory<'_>, model: &BTreeMap<u64, u8>) -> Result<(), String> {
        for b in BOUNDARIES {
            for d in 0..48u64 {
                let addr = b.wrapping_add(d).wrapping_sub(24);
                let (got, want) = (m.read_le(addr, 8), model_read(model, addr, 8));
                if got != want {
                    return Err(format!("read at {addr:#x}: {got:#x} != {want:#x}"));
                }
            }
        }
        Ok(())
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
        fn matches_a_byte_map_reference_model(segs in backing(), ops in ops()) {
            let mut m = SparseMemory::backed(&segs);
            let mut model = BTreeMap::new();
            for s in &segs {
                for (i, &b) in s.bytes.iter().enumerate() {
                    model.insert(s.base + i as u64, b);
                }
            }
            prop_assert_eq!(sweep(&m, &model), Ok(()));
            // Pages some write touched: the only ones `m` may copy.
            let mut written = BTreeSet::new();
            for (kind, boundary, delta, width, value, (shape, len)) in ops {
                let addr = BOUNDARIES[boundary].wrapping_add(delta).wrapping_sub(16);
                let size = 1 << width;
                match kind {
                    0 => {
                        let bytes = segment(value, shape, len);
                        m.load_bytes(addr, &bytes);
                        model_write(&mut model, &mut written, addr, &bytes);
                    }
                    1 => {
                        m.write_le(addr, size, value);
                        model_write(&mut model, &mut written, addr, &value.to_le_bytes()[..size]);
                    }
                    _ => prop_assert_eq!(m.read_le(addr, size), model_read(&model, addr, size)),
                }
                prop_assert_eq!(m.page_count(), written.len());
            }
            prop_assert_eq!(sweep(&m, &model), Ok(()));
        }
    }
}
