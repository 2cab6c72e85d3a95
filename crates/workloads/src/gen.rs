//! Deterministic data generation for workload kernels.
//!
//! All kernels build their input data from this seeded xorshift so traces
//! are bit-reproducible run to run.

/// Seeded xorshift64* generator for kernel input data.
#[derive(Clone, Debug)]
pub struct DataRng {
    state: u64,
}

impl DataRng {
    /// Creates a generator (zero maps to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        DataRng { state: if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed } }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` random u64 words.
pub fn random_u64(rng: &mut DataRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// `n` random bytes.
pub fn random_bytes(rng: &mut DataRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// `n` random f64 values in `[lo, hi)`, encoded as a data segment: the
/// little-endian bytes of each value's bit pattern.
pub fn random_f64_le(rng: &mut DataRng, n: usize, lo: f64, hi: f64) -> Vec<u8> {
    let mut out = vec![0u8; n * 8];
    for v in out.chunks_exact_mut(8) {
        v.copy_from_slice(&(lo + rng.next_f64() * (hi - lo)).to_bits().to_le_bytes());
    }
    out
}

/// A random cyclic order of `n` slots (a Fisher–Yates shuffle of `u32`
/// indices): `order[w]` links to `order[w + 1]`, and the last to the first,
/// forming one cycle that visits every slot — the canonical pointer-chase
/// working set (mcf/parser-style).
///
/// # Panics
///
/// Panics if `n` does not fit a `u32`.
pub fn pointer_cycle(rng: &mut DataRng, n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..u32::try_from(n).expect("fewer than 2^32 slots")).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// `n` 16-byte pointer-chase nodes `[next, payload]`, encoded as a data
/// segment (little-endian u64 words). The `next` indices link one
/// [`pointer_cycle`] through every node; `payload` then draws each node's
/// second word, in node order.
pub fn chase_nodes(
    rng: &mut DataRng,
    n: usize,
    mut payload: impl FnMut(&mut DataRng) -> u64,
) -> Vec<u8> {
    let mut nodes = vec![0u8; n * 16];
    link_nodes(&pointer_cycle(rng, n), &mut nodes);
    for node in nodes.chunks_exact_mut(16) {
        node[8..].copy_from_slice(&payload(rng).to_le_bytes());
    }
    nodes
}

/// Writes the first word of each 16-byte node: node `order[w]` links to
/// `order[w + 1]`, and the last to the first.
///
/// Scattered straight into a large arena, nearly every write would miss
/// the cache and the TLB. Instead each `(node, next)` pair (two u32s) is
/// first appended to the block of 2^13 consecutive nodes (128 KiB) that
/// holds its node, staged in that block's own first half: a block of `k`
/// nodes receives exactly `k` pairs of 8 bytes. Then each block copies its
/// pairs out and writes the links in place, within 128 KiB. The second
/// words are left for the caller to overwrite.
fn link_nodes(order: &[u32], nodes: &mut [u8]) {
    const BLOCK: usize = 1 << 13;
    debug_assert_eq!(nodes.len(), order.len() * 16);
    let mut fill: Vec<usize> = (0..order.len().div_ceil(BLOCK)).map(|b| b * BLOCK * 16).collect();
    for (&node, &next) in order.iter().zip(order.iter().cycle().skip(1)) {
        let at = &mut fill[node as usize / BLOCK];
        nodes[*at..*at + 4].copy_from_slice(&node.to_le_bytes());
        nodes[*at + 4..*at + 8].copy_from_slice(&next.to_le_bytes());
        *at += 8;
    }
    let u32_at = |b: &[u8]| u32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
    let mut staged = Vec::with_capacity(BLOCK * 8);
    for block in nodes.chunks_mut(BLOCK * 16) {
        staged.clear();
        staged.extend_from_slice(&block[..block.len() / 2]);
        for pair in staged.chunks_exact(8) {
            let at = (u32_at(pair) as usize % BLOCK) * 16;
            block[at..at + 8].copy_from_slice(&u64::from(u32_at(&pair[4..])).to_le_bytes());
        }
    }
}

/// Compressible pseudo-text: repeated small vocabulary with noise.
pub fn pseudo_text(rng: &mut DataRng, n: usize) -> Vec<u8> {
    let words: Vec<&[u8]> = vec![
        b"the ", b"of ", b"and ", b"value ", b"predict ", b"pipeline ", b"register ",
        b"cache ", b"issue ", b"commit ",
    ];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if rng.below(8) == 0 {
            out.push(rng.next_u64() as u8); // noise byte
        } else {
            out.extend_from_slice(words[rng.below(words.len() as u64) as usize]);
        }
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = DataRng::new(5);
        let mut b = DataRng::new(5);
        assert_eq!(random_u64(&mut a, 16), random_u64(&mut b, 16));
    }

    /// Word `i` of little-endian segment bytes.
    fn word(bytes: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap())
    }

    #[test]
    fn chase_nodes_form_one_cycle() {
        // One partial block, and two full blocks plus a partial one.
        for n in [64, 2 * 8192 + 100] {
            let nodes = chase_nodes(&mut DataRng::new(9), n, |r| r.below(100));
            let order = pointer_cycle(&mut DataRng::new(9), n);
            for (w, &node) in order.iter().enumerate() {
                let next = order[(w + 1) % n] as u64;
                assert_eq!(word(&nodes, 2 * node as usize), next, "link of node {node}");
            }
            let mut seen = vec![false; n];
            let mut p = 0;
            for _ in 0..n {
                assert!(!seen[p], "revisited {p} early");
                seen[p] = true;
                assert!(word(&nodes, 2 * p + 1) < 100, "payload of node {p}");
                p = word(&nodes, 2 * p) as usize;
            }
            assert_eq!(p, 0, "must return to start after n hops");
        }
    }

    #[test]
    fn pointer_cycle_visits_everything() {
        let mut order = pointer_cycle(&mut DataRng::new(3), 1000);
        order.sort_unstable();
        assert!(order.iter().copied().eq(0..1000));
    }

    #[test]
    fn pseudo_text_is_mostly_ascii() {
        let mut rng = DataRng::new(1);
        let text = pseudo_text(&mut rng, 1000);
        let ascii = text.iter().filter(|b| b.is_ascii_lowercase() || **b == b' ').count();
        assert!(ascii > 700, "ascii fraction too low: {ascii}");
    }

    #[test]
    fn random_f64_in_range() {
        let mut rng = DataRng::new(2);
        let bytes = random_f64_le(&mut rng, 100, 1.0, 2.0);
        assert_eq!(bytes.len(), 800);
        for i in 0..100 {
            assert!((1.0..2.0).contains(&f64::from_bits(word(&bytes, i))));
        }
    }
}
