//! Hashing substrate for the SilkRoad reproduction.
//!
//! Switching ASICs expose *generic hash units* (§2.3) that feed ECMP, link
//! aggregation, exact-match table addressing, and bloom filters. This crate
//! provides the software equivalents, all fully deterministic and seedable so
//! every experiment is reproducible:
//!
//! * [`HashFn`] — a seeded 64-bit hash family over byte strings: one
//!   seed-free [`key_pass`] plus a per-member finalizer;
//! * [`digest`] — compact n-bit connection digests (§4.2);
//! * [`cuckoo`] — the multi-stage cuckoo exact-match table used for
//!   ConnTable, with the BFS move-search the switch CPU runs (§4.1);
//! * [`bloom`] — the TransitTable membership structure (§4.3);
//! * [`maglev`] — Maglev consistent hashing for the SLB baseline;
//! * [`resilient`] — resilient ECMP hashing (§7, "Handle DIP failures").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod cuckoo;
pub mod digest;
pub mod fx;
pub mod hasher;
pub mod maglev;
pub mod resilient;

pub use bloom::BloomFilter;
pub use cuckoo::{CuckooConfig, CuckooTable, InsertOutcome, LookupHit, MatchMode};
pub use digest::DigestFn;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hasher::{hash_all, key_pass, splitmix64, HashFn};

/// Stateless ECMP member selection: map a flow hash onto one of `n` members.
///
/// This is the hash-scaled selection fixed-function switches use; any change
/// in `n` reshuffles ~all flows, which is exactly the PCC hazard the paper
/// describes for VIPTable-only designs.
pub fn ecmp_select(flow_hash: u64, n: usize) -> Option<usize> {
    if n == 0 {
        None
    } else {
        // Multiply-shift instead of modulo: avoids bias when n is not a
        // power of two and matches how ASIC hash units scale a hash into a
        // member index.
        Some(((flow_hash as u128 * n as u128) >> 64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecmp_select_empty_pool() {
        assert_eq!(ecmp_select(123, 0), None);
    }

    #[test]
    fn ecmp_select_in_range() {
        for h in [0u64, 1, u64::MAX, 0xdead_beef] {
            for n in [1usize, 2, 3, 7, 100] {
                let i = ecmp_select(h, n).unwrap();
                assert!(i < n, "h={h} n={n} i={i}");
            }
        }
    }

    #[test]
    fn ecmp_select_is_roughly_uniform() {
        let n = 8;
        let mut counts = vec![0u32; n];
        let f = HashFn::new(42);
        for i in 0u32..8000 {
            let h = f.hash(&i.to_be_bytes());
            counts[ecmp_select(h, n).unwrap()] += 1;
        }
        for &c in &counts {
            // Expect ~1000 per bucket; allow generous slack.
            assert!((700..1300).contains(&c), "counts={counts:?}");
        }
    }
}
