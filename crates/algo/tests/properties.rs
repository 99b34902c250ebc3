//! Property-based tests for the algorithm zoo.
//!
//! The acceptance-critical property: CuCoTrack's fingerprint false
//! positives are **always audited, never silent**. A cuckoo-filter lookup
//! can alias two distinct 5-tuples onto one (bucket, fingerprint) pair;
//! when that happens the probe flow is honestly mis-steered — and the
//! audit oracle must count exactly those events.

use proptest::prelude::*;
use sr_algo::{ConnRecord, ConnState, CuckooFilterState, CucotrackLb, MAX_PACKET_HASHES};
use sr_hash::HashFn;
use sr_types::{Addr, AddrFamily, Dip, Duration, FiveTuple, Nanos, PacketMeta, PoolVersion, Vip};
use std::collections::BTreeSet;

fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

fn flow(g: u32, port: u16) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(100, g, port), vip().0)
}

/// Hash a key the way `AlgoEngine` does for a 2-stage ConnState.
fn hash_for(fns: &[HashFn], key: &sr_types::TupleKey) -> (sr_algo::ConnHashes, u64) {
    let mut vals = [0u64; MAX_PACKET_HASHES];
    sr_hash::hash_all(fns, key.as_slice(), &mut vals[..fns.len()]);
    let mut stage_hashes = [0u64; MAX_PACKET_HASHES];
    stage_hashes[..2].copy_from_slice(&vals[..2]);
    (
        sr_algo::ConnHashes::from_parts(stage_hashes, 2, vals[2]),
        vals[3],
    )
}

/// One filter's record per flow group: the group rides in the arrival
/// time, so a read-back names the entry that answered it.
fn record_of(g: u32) -> ConnRecord {
    ConnRecord {
        vip: vip(),
        version: PoolVersion(3),
        dip: Dip(Addr::v4(10, 0, 0, 2, 20)),
        arrived: Nanos(u64::from(g)),
    }
}

/// Insert `flow(g, 443)` for every group into a 256-entry filter with
/// 8-bit fingerprints, read every resident back, then remove them all.
/// Returns how many read-backs were inexact.
///
/// Two flows sharing a bucket and a fingerprint alias by design (see
/// `cucotrack.rs`). A read-back its own entry answers must be exact. One
/// another entry answers must come from a *fingerprint twin* (a resident
/// that, alone in a filter, answers the first's lookup), be inexact and be
/// counted in `fp_collisions`: an alias is never silent, and a resident
/// with no twin always reads back exactly.
fn read_back(seed: u64, groups: &BTreeSet<u32>) -> Result<u64, TestCaseError> {
    let new_filter = || CuckooFilterState::new(256, 8, 6, AddrFamily::V4, Duration::from_secs(60));
    let fns = HashFn::family(seed, 4);
    let mut filter = new_filter();
    let mut stored = Vec::new();
    for &g in groups {
        let key = flow(g, 443).tuple_key();
        let (hashes, _) = hash_for(&fns, &key);
        if filter.insert(&key, &hashes, record_of(g)).is_ok() {
            stored.push((g, key, hashes));
        }
    }
    let twins = |a: usize, b: usize| {
        let ((_, key, hashes), (h, other, other_hashes)) = (&stored[a], &stored[b]);
        let mut only = new_filter();
        only.insert(other, other_hashes, record_of(*h)).is_ok()
            && only.lookup(key, hashes).is_some()
    };
    let before = filter.fp_collisions();
    let mut inexact = 0u64;
    for (a, (g, key, hashes)) in stored.iter().enumerate() {
        let hit = filter.lookup(key, hashes);
        prop_assert!(hit.is_some(), "resident key must hit");
        let hit = hit.unwrap();
        if hit.record == record_of(*g) {
            prop_assert!(hit.exact);
            continue;
        }
        prop_assert!(!hit.exact, "another entry's answer is inexact");
        inexact += 1;
        let by = stored
            .iter()
            .position(|(h, _, _)| Nanos(u64::from(*h)) == hit.record.arrived);
        prop_assert!(
            by.is_some_and(|b| b != a && twins(a, b)),
            "only a twin answers"
        );
    }
    prop_assert_eq!(
        filter.fp_collisions() - before,
        inexact,
        "every alias is counted"
    );
    for (_, key, hashes) in &stored {
        prop_assert!(filter.remove(key, hashes).is_some());
    }
    prop_assert_eq!(filter.entries(), 0);
    Ok(inexact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every inexact cuckoo-filter hit increments the collision audit:
    /// probing a dense filter with keys that were never inserted, the
    /// number of lookups that *return a record* equals the number of
    /// audited fingerprint collisions — no alias is ever served silently.
    #[test]
    fn cucotrack_fp_hits_are_always_audited(
        seed in any::<u64>(),
        resident in 24usize..64,
        probes in 256usize..1024,
    ) {
        let mut filter = CuckooFilterState::new(64, 8, 6, AddrFamily::V4, Duration::from_secs(60));
        let fns = HashFn::family(seed, 4);
        let record = ConnRecord {
            vip: vip(),
            version: PoolVersion(0),
            dip: Dip(Addr::v4(10, 0, 0, 1, 20)),
            arrived: Nanos(0),
        };
        for g in 0..resident {
            let key = flow(g as u32, 1024).tuple_key();
            let (hashes, _) = hash_for(&fns, &key);
            // Dense filters may refuse inserts; only resident keys matter.
            let _ = filter.insert(&key, &hashes, record);
        }
        let before = filter.fp_collisions();
        let mut aliased = 0u64;
        for g in 0..probes {
            // Disjoint flow-group range: none of these were inserted.
            let key = flow(1_000_000 + g as u32, 2048).tuple_key();
            let (hashes, _) = hash_for(&fns, &key);
            if let Some(hit) = filter.lookup(&key, &hashes) {
                prop_assert!(!hit.exact, "never-inserted key cannot match exactly");
                aliased += 1;
            }
        }
        prop_assert_eq!(
            filter.fp_collisions() - before,
            aliased,
            "every aliased hit must be audited"
        );
    }

    /// Inserted keys always hit while resident (no false negatives), and
    /// removal restores a clean miss. Reads back exactly unless a
    /// fingerprint twin answers first (see `read_back`).
    #[test]
    fn cucotrack_resident_keys_read_back_exactly(
        seed in any::<u64>(),
        groups_raw in prop::collection::vec(0u32..10_000, 1..24),
    ) {
        read_back(seed, &groups_raw.into_iter().collect())?;
    }

    /// End-to-end through the engine: the `false_hits` stat equals the
    /// filter's audited collision count — the engine surfaces every
    /// mis-steer the filter detects.
    #[test]
    fn engine_false_hit_stat_matches_filter_audit(
        seed in any::<u64>(),
        probes in 128usize..512,
    ) {
        let mut e: CucotrackLb =
            sr_algo::cucotrack_lb(seed, AddrFamily::V4, 64, Duration::from_secs(60));
        prop_assert!(e.add_vip(vip(), &[Dip(Addr::v4(10, 0, 0, 1, 20))]));
        // Fill the tiny filter with long-lived flows.
        for g in 0..48u32 {
            e.process(&PacketMeta::syn(flow(g, 1024)), None, Nanos(0));
        }
        // Probe with data packets of never-seen flows: any conn-state hit
        // is a fingerprint alias.
        for g in 0..probes {
            e.process(
                &PacketMeta::data(flow(500_000 + g as u32, 2048), 100),
                None,
                Nanos(10),
            );
        }
        prop_assert_eq!(e.stats().false_hits, e.conn_state().fp_collisions());
    }
}

/// A fingerprint alias pinned under the current hash family, found by
/// searching seeds for flow groups 0..23: two residents are twins and one
/// reads back through the other's entry. A change of hash family moves
/// the alias, and this case is searched again.
#[test]
fn cucotrack_fingerprint_twin_reads_back_inexact_and_counted() {
    let inexact = read_back(31, &(0..23).collect()).unwrap();
    assert!(inexact > 0, "seed 31 no longer aliases: search a new case");
}
