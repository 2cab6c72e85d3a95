//! One-multiply hashing for maps keyed by the simulator's own words.
//!
//! Page numbers and value-predictor keys come from the program and the
//! trace, not from an adversary, and nothing iterates the maps that hold
//! them, so SipHash's keyed, order-scrambling hash buys nothing there.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 ÷ φ, the Fibonacci-hashing multiplier.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds each 64-bit word into the state with one multiply: the state
/// xor the word, times 2^64 ÷ φ, as a 128-bit product whose high half is
/// xored onto its low half. A product's low half depends only on the bits
/// below, its high half on all of them, so every input bit reaches the low
/// bits a table indexes by and the high bits it tags with.
#[derive(Clone, Copy, Default)]
pub struct WordHasher(u64);

/// The 128-bit product of `a` and `b`, high half xor low half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

impl Hasher for WordHasher {
    /// Little-endian 8-byte words, the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = folded_multiply(self.0 ^ word, K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub type WordHashMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(v: impl Hash) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(v)
    }

    #[test]
    fn a_word_is_one_folded_multiply() {
        let p = 3 * u128::from(K);
        assert_eq!(hash(3u64), (p as u64) ^ (p >> 64) as u64);
        assert_eq!(hash(3u32), hash(3u64));
    }

    #[test]
    fn bytes_fold_as_little_endian_words_with_a_zero_padded_tail() {
        let fold = |words: &[u64]| {
            let mut h = WordHasher::default();
            words.iter().for_each(|&w| h.write_u64(w));
            h.finish()
        };
        let mut h = WordHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 3]);
        assert_eq!(h.finish(), fold(&[1, 0x0302]));
    }

    #[test]
    fn every_bit_of_a_key_reaches_the_low_bits() {
        // Keys that differ in ten adjacent bits of one word, anywhere in
        // it, still spread over a 1024-bucket table: more than a quarter
        // of the buckets (a random hash fills about 63%). A plain multiply
        // moves bits only upwards and fills one bucket for the high bits.
        for word in 0..6 {
            for shift in 0..=22 {
                let buckets: std::collections::HashSet<u64> = (0..1024u32)
                    .map(|v| {
                        let mut key = [7u32; 6];
                        key[word] = v << shift;
                        hash(key) & 1023
                    })
                    .collect();
                assert!(buckets.len() > 256, "word {word} shift {shift}: {}", buckets.len());
            }
        }
    }
}
