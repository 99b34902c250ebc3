//! Property-based tests for the hashing substrate.

use proptest::prelude::*;
use sr_hash::cuckoo::{CuckooConfig, CuckooTable, MatchMode};
use sr_hash::maglev::MaglevTable;
use sr_hash::resilient::ResilientTable;
use sr_hash::{ecmp_select, hash_all, key_pass, splitmix64, BloomFilter, DigestFn, HashFn};
use sr_types::{Addr, FiveTuple};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hash_deterministic_any_input(bytes in proptest::collection::vec(any::<u8>(), 0..256), seed: u64) {
        let f = HashFn::new(seed);
        prop_assert_eq!(f.hash(&bytes), f.hash(&bytes));
    }

    #[test]
    fn hash_all_equals_each_member(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        seed: u64,
        n in 0usize..10,
    ) {
        let fns = HashFn::family(seed, n);
        let mut out = vec![0u64; n];
        hash_all(&fns, &bytes, &mut out);
        for (o, f) in out.iter().zip(&fns) {
            prop_assert_eq!(*o, f.hash(&bytes));
        }
    }

    #[test]
    fn ecmp_select_always_in_range(h: u64, n in 1usize..10_000) {
        let i = ecmp_select(h, n).unwrap();
        prop_assert!(i < n);
    }

    #[test]
    fn digest_fits_declared_width(key: u64, seed: u64, bits in 8u8..=32) {
        let d = DigestFn::new(seed, bits);
        let v = d.digest(&key.to_be_bytes()) as u64;
        prop_assert!(v < d.space());
    }

    #[test]
    fn bloom_inserted_keys_always_found(
        keys in proptest::collection::hash_set(any::<u32>(), 1..100),
        bytes in 8usize..512,
        k in 1usize..8,
        seed: u64,
    ) {
        let mut f = BloomFilter::new(bytes, k, seed);
        for key in &keys {
            f.insert(&key.to_be_bytes());
        }
        for key in &keys {
            prop_assert!(f.contains(&key.to_be_bytes()));
        }
    }

    #[test]
    fn cuckoo_relocate_preserves_contents(
        keys in proptest::collection::hash_set(any::<u32>(), 2..60),
        pick in any::<prop::sample::Index>(),
    ) {
        let mut t: CuckooTable<u32> = CuckooTable::new(CuckooConfig {
            stages: 4,
            words_per_stage: 32,
            entries_per_word: 4,
            match_mode: MatchMode::FullKey,
            seed: 7,
        });
        let keys: Vec<u32> = keys.into_iter().collect();
        for k in &keys {
            t.insert(&k.to_be_bytes(), *k).unwrap();
        }
        let victim = keys[pick.index(keys.len())];
        t.relocate(&victim.to_be_bytes()).unwrap();
        for k in &keys {
            let hit = t.lookup(&k.to_be_bytes()).expect("key lost after relocate");
            prop_assert_eq!(*hit.value, *k);
            prop_assert!(hit.exact);
        }
        prop_assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn maglev_stable_under_irrelevant_order(
        n in 2usize..12,
        flows in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        // Same backend set, same seed => identical assignments, regardless
        // of how many times we build.
        let keys: Vec<Vec<u8>> = (0..n).map(|i| format!("b{i}").into_bytes()).collect();
        let a = MaglevTable::build(&keys, 4099, 3);
        let b = MaglevTable::build(&keys, 4099, 3);
        for f in &flows {
            prop_assert_eq!(a.select(&f.to_be_bytes()), b.select(&f.to_be_bytes()));
        }
    }

    #[test]
    fn resilient_failure_never_routes_to_failed(
        members in 2usize..16,
        fail in any::<prop::sample::Index>(),
        flows in proptest::collection::vec(any::<u64>(), 1..80),
    ) {
        let mut t = ResilientTable::new(members, 1024, 5);
        let failed = fail.index(members);
        t.fail_member(failed);
        for f in &flows {
            let m = t.select(&f.to_be_bytes()).unwrap();
            prop_assert_ne!(m, failed);
        }
    }

    #[test]
    fn resilient_unrelated_flows_pinned(
        members in 3usize..12,
        fail in any::<prop::sample::Index>(),
        flows in proptest::collection::vec(any::<u64>(), 1..80),
    ) {
        let mut t = ResilientTable::new(members, 2048, 9);
        let before: Vec<usize> = flows
            .iter()
            .map(|f| t.select(&f.to_be_bytes()).unwrap())
            .collect();
        let failed = fail.index(members);
        t.fail_member(failed);
        for (f, b) in flows.iter().zip(before) {
            if b != failed {
                prop_assert_eq!(t.select(&f.to_be_bytes()), Some(b));
            }
        }
    }
}

/// The paper geometry's eager lanes: four ConnTable stages, the digest
/// and the select hash.
fn paper_lanes() -> Vec<HashFn> {
    HashFn::family(0x5eed, 6)
}

const STAGES: usize = 4;
const DIGEST: usize = 4;

/// The encoded key of client `i` to one VIP over IPv4 (13 bytes): the
/// structured population the switch hashes, sequential addresses and a
/// few source ports.
fn v4_key(i: u32) -> Vec<u8> {
    let client = Addr::v4_indexed(100, i, 1024 + (i % 5) as u16);
    let t = FiveTuple::tcp(client, Addr::v4(20, 0, 0, 1, 80));
    t.tuple_key().as_slice().to_vec()
}

/// The IPv6 counterpart of [`v4_key`] (37 bytes).
fn v6_key(i: u32) -> Vec<u8> {
    let client = Addr::v6_indexed(0x0a0a, i, 1024 + (i % 5) as u16);
    let t = FiveTuple::tcp(client, Addr::v6_indexed(0x0b0b, 1, 443));
    t.tuple_key().as_slice().to_vec()
}

fn lanes_of(lanes: &[HashFn], key: &[u8]) -> Vec<u64> {
    let mut out = vec![0u64; lanes.len()];
    hash_all(lanes, key, &mut out);
    out
}

/// Flip every bit of `samples` keys and count, per lane, input bit and
/// output bit, how often the output bit flipped.
fn flip_counts(lanes: &[HashFn], key_of: fn(u32) -> Vec<u8>, samples: u32) -> Vec<[u32; 64]> {
    let bits = key_of(0).len() * 8;
    let mut flips = vec![[0u32; 64]; lanes.len() * bits];
    for s in 0..samples {
        let key = key_of(s.wrapping_mul(7919));
        let base = lanes_of(lanes, &key);
        for bit in 0..bits {
            let mut k = key.clone();
            k[bit / 8] ^= 1 << (bit % 8);
            for (l, (a, b)) in base.iter().zip(lanes_of(lanes, &k)).enumerate() {
                let d = a ^ b;
                for (o, c) in flips[l * bits + bit].iter_mut().enumerate() {
                    *c += ((d >> o) & 1) as u32;
                }
            }
        }
    }
    flips
}

/// Every lane avalanches: flipping any one bit of a v4 or v6 flow key
/// flips every output bit of every lane with probability ≈ 1/2. With 256
/// keys a cell's rate has σ ≈ 0.031; ±0.2 is 6σ.
#[test]
fn every_lane_avalanches_on_every_key_bit() {
    let lanes = paper_lanes();
    for key_of in [v4_key as fn(u32) -> Vec<u8>, v6_key] {
        let samples = 256;
        for (cell, row) in flip_counts(&lanes, key_of, samples).iter().enumerate() {
            for (o, &c) in row.iter().enumerate() {
                let p = f64::from(c) / f64::from(samples);
                assert!(
                    (0.3..=0.7).contains(&p),
                    "lane/input bit {cell}, output bit {o}: flip rate {p:.3}"
                );
            }
        }
    }
}

/// The per-lane finalizer alone is a full-avalanche mixer: flipping any
/// bit of the key-pass core flips every output bit with probability
/// ≈ 1/2 (4096 cores: σ ≈ 0.008; ±0.05 is 6σ).
#[test]
fn every_finalizer_avalanches_on_every_core_bit() {
    let samples = 4096u32;
    for f in paper_lanes() {
        let mut flips = [[0u32; 64]; 64];
        for s in 0..samples {
            let core = splitmix64(u64::from(s));
            let base = f.hash_u64(core);
            for (bit, row) in flips.iter_mut().enumerate() {
                let d = base ^ f.hash_u64(core ^ (1 << bit));
                for (o, c) in row.iter_mut().enumerate() {
                    *c += ((d >> o) & 1) as u32;
                }
            }
        }
        for (bit, row) in flips.iter().enumerate() {
            for (o, &c) in row.iter().enumerate() {
                let p = f64::from(c) / f64::from(samples);
                assert!(
                    (0.45..=0.55).contains(&p),
                    "core bit {bit} -> output bit {o}: {p:.3}"
                );
            }
        }
    }
}

/// `word_from` and `digest_of` consume the *high* bits: over 65 536
/// sequential flows, every lane's top 12 bits fill 4 096 bins uniformly
/// (chi-square with 4 095 degrees of freedom under mean + 6σ).
#[test]
fn top_bits_are_uniform_on_every_lane() {
    let lanes = paper_lanes();
    let (n, bins) = (1u32 << 16, 1usize << 12);
    let expected = f64::from(n) / bins as f64;
    let bound = (bins - 1) as f64 + 6.0 * (2.0 * (bins - 1) as f64).sqrt();
    for key_of in [v4_key as fn(u32) -> Vec<u8>, v6_key] {
        let mut counts = vec![vec![0u32; bins]; lanes.len()];
        for i in 0..n {
            for (c, h) in counts.iter_mut().zip(lanes_of(&lanes, &key_of(i))) {
                c[(h >> 52) as usize] += 1;
            }
        }
        for (l, c) in counts.iter().enumerate() {
            let chi2: f64 = c
                .iter()
                .map(|&x| (f64::from(x) - expected).powi(2) / expected)
                .sum();
            assert!(
                chi2 < bound,
                "lane {l}: top-bit chi-square {chi2:.0} (bound {bound:.0})"
            );
        }
    }
}

/// For `pairs` random pairs of flow keys, how many agree in the top
/// `bits[i]` bits of lane `i` and the top `bits[j]` of lane `j`, for
/// every lane pair (the diagonal counts one lane alone).
fn joint_agreement(lanes: &[HashFn], bits: &[u32], pairs: u32) -> Vec<Vec<u64>> {
    let mut both = vec![vec![0u64; lanes.len()]; lanes.len()];
    for p in 0..pairs {
        let key_of = if p % 2 == 0 { v4_key } else { v6_key };
        let r = splitmix64(u64::from(p));
        let (a, b) = (r as u32 >> 4, (r >> 32) as u32 >> 4);
        if a == b {
            continue;
        }
        let (ha, hb) = (lanes_of(lanes, &key_of(a)), lanes_of(lanes, &key_of(b)));
        let same: Vec<bool> = (0..lanes.len())
            .map(|l| (ha[l] ^ hb[l]) >> (64 - bits[l]) == 0)
            .collect();
        for i in 0..lanes.len() {
            for j in 0..lanes.len() {
                both[i][j] += u64::from(same[i] && same[j]);
            }
        }
    }
    both
}

/// `count` is a binomial draw with mean `mean`: within 6σ of it.
fn assert_binomial(count: u64, mean: f64, what: &str) {
    let sigma = mean.sqrt();
    assert!(
        (count as f64 - mean).abs() <= 6.0 * sigma,
        "{what}: {count} against an expected {mean:.0} (σ {sigma:.1})"
    );
}

/// Stage lanes are pairwise independent: with 16 words per stage, a
/// random key pair shares a word in one stage at rate 1/16 and in two
/// given stages at rate 1/16² — not more, which is what cuckoo placement
/// across stages relies on.
#[test]
fn stage_lanes_are_pairwise_independent() {
    let lanes = paper_lanes();
    let pairs = 1u32 << 18;
    let both = joint_agreement(&lanes, &[4; 6], pairs);
    for (i, row) in both.iter().enumerate().take(STAGES) {
        assert_binomial(row[i], f64::from(pairs) / 16.0, &format!("stage {i} alone"));
        for (j, &n) in row.iter().enumerate().take(STAGES).skip(i + 1) {
            assert_binomial(n, f64::from(pairs) / 256.0, &format!("stages {i} and {j}"));
        }
    }
}

/// The digest lane is not correlated with the bucket lanes: a key pair
/// sharing a stage word shares the 8-bit digest at the unconditional rate
/// 1/256 — the §4.2 false-hit condition is the product of the two.
#[test]
fn digest_lane_is_independent_of_bucket_lanes() {
    let lanes = paper_lanes();
    let pairs = 1u32 << 18;
    let both = joint_agreement(&lanes, &[4, 4, 4, 4, 8, 4], pairs);
    assert_binomial(
        both[DIGEST][DIGEST],
        f64::from(pairs) / 256.0,
        "digest alone",
    );
    for (s, row) in both.iter().enumerate().take(STAGES) {
        let what = format!("digest and stage {s}");
        assert_binomial(row[DIGEST], f64::from(pairs) / 4096.0, &what);
    }
}

/// The bloom filter's one-pass insert and check agree with its k
/// functions run one by one (`hash_all` over `hash_fns()`, which the
/// switch's miss path finishes from the packet's key-pass core).
#[test]
fn bloom_one_pass_matches_each_hash_fn() {
    let mut by_key = BloomFilter::new(64, 4, 9);
    let mut by_fn = BloomFilter::new(64, 4, 9);
    for i in 0..40 {
        let key = v6_key(i);
        by_key.insert(&key);
        let hashes: Vec<u64> = by_fn.hash_fns().iter().map(|f| f.hash(&key)).collect();
        by_fn.insert_hashed(&hashes);
    }
    for i in 0..4096 {
        let key = v4_key(i);
        let hashes: Vec<u64> = by_fn.hash_fns().iter().map(|f| f.hash(&key)).collect();
        assert_eq!(
            by_key.contains(&key),
            by_fn.contains_hashed(&hashes),
            "probe {i}"
        );
        assert_eq!(
            by_key.contains_hashed(&hashes),
            by_fn.contains(&key),
            "probe {i}"
        );
    }
}

/// Fixed vectors pin the family's output: the key pass reads
/// little-endian words and nothing else depends on the host, so these
/// hold everywhere. One key per length class of the key pass, the two
/// 5-tuple encodings among them.
#[test]
fn family_output_is_pinned() {
    let bytes: Vec<u8> = (0u8..64)
        .map(|b| b.wrapping_mul(37).wrapping_add(11))
        .collect();
    let lengths = [0usize, 1, 3, 4, 7, 8, 13, 16, 17, 32, 37, 64];
    let pinned: [u64; 12] = [
        0xfa30_3abc_2b1d_7630,
        0x7399_cd02_44a4_c039,
        0xe88e_d73c_b82d_c75b,
        0x2757_9708_e0b4_4f1c,
        0x8cb2_d0b3_f53d_2d72,
        0xd59a_359a_7f3f_55d3,
        0x2cc8_3882_b8bb_6025,
        0x50dd_54fb_208a_2ab4,
        0x1a17_b364_8e62_f165,
        0x5a3f_9f9a_4445_861d,
        0x7259_8ff7_7201_92fc,
        0x5a9f_09a9_7125_d274,
    ];
    for (&n, &core) in lengths.iter().zip(&pinned) {
        assert_eq!(key_pass(&bytes[..n]), core, "key pass over {n} bytes");
    }
    let f = HashFn::new(42);
    assert_eq!(f.hash(&v4_key(7)), 0x1c6d_a318_f5ea_9caa);
    assert_eq!(f.hash(&v6_key(7)), 0xace9_6356_1588_7d89);
    // A member is its finalizer over the seed-free core.
    assert_eq!(f.hash(&v4_key(7)), f.hash_u64(key_pass(&v4_key(7))));
}
