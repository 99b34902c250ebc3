//! Bloom filter — the membership structure behind TransitTable (§4.3).
//!
//! On the ASIC this lives in *transactional memory* (register arrays):
//! read-check-modify-write completes in one clock cycle, so unlike the
//! cuckoo ConnTable it needs no CPU involvement and can absorb new
//! connections at line rate during a DIP-pool update. The price is false
//! positives, which the paper keeps negligible with just 256 bytes.

use crate::hasher::{key_pass, HashFn};

/// A plain bitset bloom filter with `k` hash functions.
///
/// ```
/// use sr_hash::BloomFilter;
/// let mut f = BloomFilter::new(256, 4, 42);
/// f.insert(b"pending-conn");
/// assert!(f.contains(b"pending-conn"));   // never a false negative
/// f.clear();                              // step 3 of the PCC update
/// assert!(!f.contains(b"pending-conn"));
/// ```
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: usize,
    hashes: Vec<HashFn>,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter of `bytes` size with `k` hash functions.
    ///
    /// `bytes` is clamped to at least 1 (the paper sweeps 8 B – 256 B).
    pub fn new(bytes: usize, k: usize, seed: u64) -> BloomFilter {
        let bytes = bytes.max(1);
        let nbits = bytes * 8;
        BloomFilter {
            bits: vec![0u64; bytes.div_ceil(8)],
            nbits,
            hashes: HashFn::family(seed ^ 0xb100_f11e, k.max(1)),
            inserted: 0,
        }
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.nbits / 8
    }

    /// Number of hash functions.
    pub fn k(&self) -> usize {
        self.hashes.len()
    }

    /// Number of `insert` calls since the last `clear`.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The k hash functions, in the order [`BloomFilter::insert_hashed`] and
    /// [`BloomFilter::contains_hashed`] expect their outputs.
    pub fn hash_fns(&self) -> &[HashFn] {
        &self.hashes
    }

    /// Map one 64-bit hash output to a bit index below `nbits`
    /// (multiply-shift scaling, same rationale as `ecmp_select`). The
    /// result is always `< nbits`, so the word accessors below never miss.
    fn bit_index(nbits: usize, h: u64) -> usize {
        ((h as u128 * nbits as u128) >> 64) as usize
    }

    /// Set bit `p` (hot path: `p` is in range by construction).
    fn set_bit(&mut self, p: usize) {
        if let Some(w) = self.bits.get_mut(p / 64) {
            *w |= 1u64 << (p % 64);
        }
    }

    /// Test bit `p`.
    fn test_bit(&self, p: usize) -> bool {
        self.bits
            .get(p / 64)
            .is_some_and(|w| w & (1u64 << (p % 64)) != 0)
    }

    /// Insert a key: one key pass, then the k finalizers.
    pub fn insert(&mut self, key: &[u8]) {
        let core = key_pass(key);
        for i in 0..self.hashes.len() {
            let Some(f) = self.hashes.get(i) else { break };
            let p = Self::bit_index(self.nbits, f.hash_u64(core));
            self.set_bit(p);
        }
        self.inserted += 1;
    }

    /// Query membership. May return true for keys never inserted (false
    /// positive); never returns false for an inserted key.
    pub fn contains(&self, key: &[u8]) -> bool {
        let core = key_pass(key);
        self.hashes
            .iter()
            .all(|h| self.test_bit(Self::bit_index(self.nbits, h.hash_u64(core))))
    }

    /// [`BloomFilter::insert`] from precomputed hashes: `hashes[i]` must be
    /// the output of `self.hash_fns()[i]` over the key.
    ///
    /// # Panics
    /// If `hashes.len() != self.k()`.
    pub fn insert_hashed(&mut self, hashes: &[u64]) {
        assert_eq!(hashes.len(), self.hashes.len(), "insert_hashed: wrong k");
        for &h in hashes {
            let p = Self::bit_index(self.nbits, h);
            self.set_bit(p);
        }
        self.inserted += 1;
    }

    /// [`BloomFilter::contains`] from precomputed hashes (same contract as
    /// [`BloomFilter::insert_hashed`]).
    pub fn contains_hashed(&self, hashes: &[u64]) -> bool {
        assert_eq!(hashes.len(), self.hashes.len(), "contains_hashed: wrong k");
        hashes
            .iter()
            .all(|&h| self.test_bit(Self::bit_index(self.nbits, h)))
    }

    /// Reset to empty (step 3 of the PCC update protocol).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }

    /// Fraction of bits currently set.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.nbits as f64
    }

    /// Analytic false-positive probability after `n` inserts:
    /// `(1 - e^{-kn/m})^k`.
    pub fn theoretical_fp_rate(&self, n: u64) -> f64 {
        let k = self.k() as f64;
        let m = self.nbits as f64;
        (1.0 - (-(k * n as f64) / m).exp()).powf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(256, 4, 1);
        for i in 0..100 {
            f.insert(&key(i));
        }
        for i in 0..100 {
            assert!(f.contains(&key(i)), "false negative for {i}");
        }
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(64, 4, 1);
        f.insert(&key(1));
        assert!(f.contains(&key(1)));
        assert_eq!(f.inserted(), 1);
        f.clear();
        assert!(!f.contains(&key(1)));
        assert_eq!(f.inserted(), 0);
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn fp_rate_close_to_theory() {
        // 256-byte filter (2048 bits), k=4, 100 inserted: theory ~2.6e-4.
        let mut f = BloomFilter::new(256, 4, 7);
        for i in 0..100 {
            f.insert(&key(i));
        }
        let probes = 100_000u32;
        let fps = (1000..1000 + probes)
            .filter(|i| f.contains(&key(*i)))
            .count();
        let measured = fps as f64 / probes as f64;
        let theory = f.theoretical_fp_rate(100);
        assert!(
            measured < theory * 5.0 + 1e-3,
            "measured {measured} vs theory {theory}"
        );
    }

    #[test]
    fn tiny_filter_saturates() {
        // 8-byte filter with many inserts becomes mostly-true — this is the
        // regime Fig 18 probes.
        let mut f = BloomFilter::new(8, 2, 3);
        for i in 0..500 {
            f.insert(&key(i));
        }
        assert!(f.fill_ratio() > 0.9);
        let fps = (10_000..11_000).filter(|i| f.contains(&key(*i))).count();
        assert!(fps > 500, "expected heavy false positives, got {fps}/1000");
    }

    #[test]
    fn size_clamped_and_reported() {
        let f = BloomFilter::new(0, 0, 0);
        assert_eq!(f.size_bytes(), 1);
        assert_eq!(f.k(), 1);
        assert_eq!(BloomFilter::new(256, 4, 0).size_bytes(), 256);
    }

    #[test]
    fn hashed_variants_match_byte_variants() {
        let mut a = BloomFilter::new(256, 4, 9);
        let mut b = BloomFilter::new(256, 4, 9);
        let mut hashes = vec![0u64; a.k()];
        for i in 0..200u32 {
            let k = key(i);
            a.insert(&k);
            crate::hasher::hash_all(b.hash_fns(), &k, &mut hashes);
            b.insert_hashed(&hashes);
        }
        for i in 0..1000u32 {
            let k = key(i);
            crate::hasher::hash_all(a.hash_fns(), &k, &mut hashes);
            assert_eq!(a.contains(&k), b.contains(&k), "filters diverged at {i}");
            assert_eq!(a.contains(&k), a.contains_hashed(&hashes));
        }
        assert_eq!(a.inserted(), b.inserted());
        assert_eq!(a.fill_ratio(), b.fill_ratio());
    }

    #[test]
    fn theoretical_fp_monotone_in_n() {
        let f = BloomFilter::new(256, 4, 0);
        assert!(f.theoretical_fp_rate(10) < f.theoretical_fp_rate(100));
        assert!(f.theoretical_fp_rate(100) < f.theoretical_fp_rate(10_000));
    }
}
