//! A seeded 64-bit hash family over byte strings, evaluated in two parts.
//!
//! Every member hashes a key as `hash_u64(key_pass(bytes))`:
//!
//! * [`key_pass`] reads the key once, as little-endian 64-bit words, and
//!   folds it into a seed-free 64-bit *core*. Keys of up to 16 bytes take
//!   two (overlapping) reads; longer keys absorb 16-byte blocks with a
//!   64×64→128 multiply folded to 64 bits, then read their last 16 bytes
//!   the same way. The length is folded in, so keys that differ only in
//!   trailing zero bytes differ.
//! * [`HashFn::hash_u64`] is the member's finalizer: splitmix64 over the
//!   core XOR the member's seed, a full-avalanche, non-linear mixer.
//!
//! So N members over one key cost one key pass plus N finalizers
//! ([`hash_all`]), and `hash_all`'s outputs equal each member's
//! [`HashFn::hash`] by construction. That is the software stand-in for an
//! ASIC's hash units, which read the whole PHV at once and charge nothing
//! per key byte (§4.1–4.2).
//!
//! Implemented from scratch, in safe Rust, with explicit little-endian
//! reads, so every host produces identical experiment outputs. Quality
//! matters here: the paper's false-positive numbers (§6.1) assume
//! well-distributed digests, and cuckoo packing ratios assume independent
//! per-stage bucket hashes. `tests/properties.rs` checks both and pins the
//! family's output with fixed vectors.

/// Key-pass multipliers: odd 64-bit constants with balanced bits.
const K0: u64 = 0x2d35_8dcc_aa6c_78a5;
const K1: u64 = 0x8bb8_4b93_962e_acc9;

/// One member of a seeded hash family.
///
/// Two `HashFn`s with different seeds behave as independent hash functions —
/// this is how per-stage cuckoo hashes and the k bloom-filter hashes are
/// derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashFn {
    seed: u64,
}

impl HashFn {
    /// Create the family member with the given seed.
    pub fn new(seed: u64) -> HashFn {
        HashFn {
            // Pre-mix the seed so that consecutive small seeds (0, 1, 2...)
            // still yield unrelated functions.
            seed: splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Derive a family of `n` independent functions from a base seed.
    pub fn family(base_seed: u64, n: usize) -> Vec<HashFn> {
        (1u64..)
            .take(n)
            .map(|i| HashFn::new(base_seed.wrapping_add(0xa076_1d64_78bd_642f_u64.wrapping_mul(i))))
            .collect()
    }

    /// Hash a byte string to 64 bits: the seed-free [`key_pass`], then this
    /// member's finalizer.
    #[inline]
    pub fn hash(&self, bytes: &[u8]) -> u64 {
        self.hash_u64(key_pass(bytes))
    }

    /// Hash a `u64` to 64 bits. This is the member's finalizer: applied to
    /// a [`key_pass`] core it yields [`HashFn::hash`] of that key.
    #[inline]
    pub fn hash_u64(&self, x: u64) -> u64 {
        splitmix64(x ^ self.seed)
    }
}

/// 64×64→128 multiply, folded to 64 bits by XOR of the two halves.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let (lo, hi) = a.carrying_mul(b, 0);
    lo ^ hi
}

/// Little-endian 64-bit word.
#[inline]
fn word(bytes: &[u8; 8]) -> u64 {
    u64::from_le_bytes(*bytes)
}

/// Little-endian 32-bit half-word, widened.
#[inline]
fn half(bytes: &[u8; 4]) -> u64 {
    u64::from(u32::from_le_bytes(*bytes))
}

/// The two words a key of at most 16 bytes reduces to. Each length class
/// reads every byte at least once: 8–16 bytes as the first and the last
/// 8 (overlapping below 16), 4–7 bytes as the first and last 4, 1–3 bytes
/// as the first, middle and last byte.
#[inline]
fn short_words(bytes: &[u8]) -> (u64, u64) {
    if let (Some(head), Some(tail)) = (bytes.first_chunk::<8>(), bytes.last_chunk::<8>()) {
        (word(head), word(tail))
    } else if let (Some(head), Some(tail)) = (bytes.first_chunk::<4>(), bytes.last_chunk::<4>()) {
        ((half(head) << 32) | half(tail), 0)
    } else if let (Some(&first), Some(&last)) = (bytes.first(), bytes.last()) {
        let mid = bytes.get(bytes.len() / 2).copied().unwrap_or(first);
        let a = (u64::from(first) << 16) | (u64::from(mid) << 8) | u64::from(last);
        (a, 0)
    } else {
        (0, 0)
    }
}

/// The seed-free key pass: fold `bytes` into the 64-bit core every
/// [`HashFn`] finishes from. Reads little-endian words, so the core is the
/// same on every host.
#[inline]
pub fn key_pass(bytes: &[u8]) -> u64 {
    let len = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
    let mut acc = K0;
    let (a, b) = match bytes.last_chunk::<16>() {
        Some(last) if bytes.len() > 16 => {
            // Absorb every 16-byte block that ends before the last byte;
            // the last 16 bytes (overlapping the final block unless the
            // length is a multiple of 16) are the tail words.
            let body = bytes.get(..(bytes.len() - 1) / 16 * 16).unwrap_or(&[]);
            for block in body.chunks_exact(16) {
                if let (Some(w0), Some(w1)) = (block.first_chunk::<8>(), block.last_chunk::<8>()) {
                    acc = fold_mul(word(w0) ^ K1, word(w1) ^ acc);
                }
            }
            match (last.first_chunk::<8>(), last.last_chunk::<8>()) {
                (Some(w0), Some(w1)) => (word(w0), word(w1)),
                _ => (0, 0),
            }
        }
        _ => short_words(bytes),
    };
    let (lo, hi) = (a ^ K1).carrying_mul(b ^ acc, 0);
    fold_mul(lo ^ K0 ^ len, hi ^ K1)
}

/// Evaluate many hash functions over the same key: one [`key_pass`], then
/// each member's finalizer over the shared core. `out[i]` equals
/// `fns[i].hash(bytes)` by construction.
///
/// # Panics
/// If `out.len() != fns.len()`.
#[inline]
pub fn hash_all(fns: &[HashFn], bytes: &[u8], out: &mut [u64]) {
    assert_eq!(fns.len(), out.len(), "hash_all: out length mismatch");
    let core = key_pass(bytes);
    for (o, f) in out.iter_mut().zip(fns) {
        *o = f.hash_u64(core);
    }
}

/// splitmix64 finalizer: full-avalanche 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let f = HashFn::new(7);
        assert_eq!(f.hash(b"hello"), f.hash(b"hello"));
        assert_eq!(HashFn::new(7).hash(b"hello"), f.hash(b"hello"));
    }

    #[test]
    fn seed_changes_function() {
        let a = HashFn::new(1);
        let b = HashFn::new(2);
        assert_ne!(a.hash(b"hello"), b.hash(b"hello"));
    }

    #[test]
    fn family_members_differ() {
        let fam = HashFn::family(99, 4);
        assert_eq!(fam.len(), 4);
        let hs: Vec<u64> = fam.iter().map(|f| f.hash(b"x")).collect();
        for i in 0..hs.len() {
            for j in i + 1..hs.len() {
                assert_ne!(hs[i], hs[j]);
            }
        }
    }

    #[test]
    fn single_bit_avalanche() {
        // Flipping one input bit should flip roughly half the output bits.
        let f = HashFn::new(0);
        let mut total = 0u32;
        let trials = 64;
        for bit in 0..trials {
            let a = f.hash(&1234u64.to_be_bytes());
            let flipped = 1234u64 ^ (1 << (bit % 64));
            let b = f.hash(&flipped.to_be_bytes());
            total += (a ^ b).count_ones();
        }
        let mean = total as f64 / trials as f64;
        assert!((24.0..40.0).contains(&mean), "poor avalanche: {mean}");
    }

    #[test]
    fn low_bits_usable() {
        // Short keys must spread over the low bits too (maglev and the
        // resilient table reduce modulo small sizes). Check bucket
        // distribution over low 10 bits.
        let f = HashFn::new(3);
        let buckets = 1024;
        let mut counts = vec![0u32; buckets];
        for i in 0u32..buckets as u32 * 16 {
            let h = f.hash(&i.to_be_bytes());
            counts[(h & (buckets as u64 - 1)) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max < 48, "low-bit clustering: max bucket {max}");
    }

    #[test]
    fn hash_u64_matches_quality() {
        let f = HashFn::new(11);
        assert_ne!(f.hash_u64(1), f.hash_u64(2));
        assert_eq!(f.hash_u64(5), f.hash_u64(5));
    }

    #[test]
    fn empty_input_is_fine() {
        let f = HashFn::new(0);
        let _ = f.hash(b"");
    }

    #[test]
    fn hash_all_matches_individual_hashes() {
        let fns = HashFn::family(0x51_1c, 9);
        let keys: [&[u8]; 4] = [
            b"",
            b"x",
            b"13-byte-key!!",
            b"a-37-byte-key-like-an-ipv6-five-tuple",
        ];
        for key in keys {
            let mut out = vec![0u64; fns.len()];
            hash_all(&fns, key, &mut out);
            for (i, f) in fns.iter().enumerate() {
                assert_eq!(out[i], f.hash(key), "fn {i} diverged on {key:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out length mismatch")]
    fn hash_all_length_checked() {
        let fns = HashFn::family(1, 2);
        let mut out = [0u64; 3];
        hash_all(&fns, b"k", &mut out);
    }
}
