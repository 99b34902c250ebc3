//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;
use silkroad::pool::{DipPool, PoolUpdate};
use silkroad::version::VersionManager;
use silkroad::{SilkRoadConfig, SilkRoadSwitch};
use sr_hash::cuckoo::{CuckooConfig, CuckooTable, MatchMode};
use sr_hash::BloomFilter;
use sr_types::{Addr, Dip, Duration, FiveTuple, Nanos, PacketMeta, Vip};
use std::collections::HashMap;

fn dip(i: u8) -> Dip {
    Dip(Addr::v4(10, 0, 0, i, 20))
}

fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

fn conn(i: u32) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(1, i, 30_000), Addr::v4(20, 0, 0, 1, 80))
}

// ----------------------------------------------------------------- cuckoo

/// Operations for the cuckoo model test.
#[derive(Clone, Debug)]
enum CuckooOp {
    Insert(u16, u32),
    Remove(u16),
    Lookup(u16),
}

fn cuckoo_op() -> impl Strategy<Value = CuckooOp> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| CuckooOp::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| CuckooOp::Remove(k % 512)),
        any::<u16>().prop_map(|k| CuckooOp::Lookup(k % 512)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A full-key cuckoo table behaves exactly like a HashMap (as long as
    /// it does not overflow, which the key universe prevents here).
    #[test]
    fn cuckoo_matches_model(ops in proptest::collection::vec(cuckoo_op(), 1..300)) {
        let mut table: CuckooTable<u32> = CuckooTable::new(CuckooConfig {
            stages: 4,
            words_per_stage: 64,
            entries_per_word: 4,
            match_mode: MatchMode::FullKey,
            seed: 99,
        });
        let mut model: HashMap<u16, u32> = HashMap::new();
        for op in ops {
            match op {
                CuckooOp::Insert(k, v) => {
                    let t = table.insert(&k.to_be_bytes(), v);
                    let m = model.contains_key(&k);
                    prop_assert_eq!(t.is_err(), m, "insert divergence on {}", k);
                    if t.is_ok() {
                        model.insert(k, v);
                    }
                }
                CuckooOp::Remove(k) => {
                    let t = table.remove(&k.to_be_bytes());
                    let m = model.remove(&k);
                    prop_assert_eq!(t.ok(), m);
                }
                CuckooOp::Lookup(k) => {
                    let t = table.lookup(&k.to_be_bytes()).map(|h| *h.value);
                    prop_assert_eq!(t, model.get(&k).copied());
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
    }

    /// Bloom filters never produce false negatives, under any interleaving
    /// of inserts and clears.
    #[test]
    fn bloom_no_false_negatives(
        keys in proptest::collection::vec(any::<u64>(), 1..200),
        size in 8usize..512,
        k in 1usize..6,
    ) {
        let mut f = BloomFilter::new(size, k, 42);
        for key in &keys {
            f.insert(&key.to_be_bytes());
        }
        for key in &keys {
            prop_assert!(f.contains(&key.to_be_bytes()));
        }
        f.clear();
        prop_assert_eq!(f.fill_ratio(), 0.0);
    }

    /// The version manager conserves its ring: live versions plus free
    /// numbers never exceed the ring size, the current version always has a
    /// pool, and reuse never changes the member set a new version exposes.
    #[test]
    fn version_manager_conserves_ring(
        ops in proptest::collection::vec((any::<bool>(), 0u8..6), 1..120)
    ) {
        let pool = DipPool::new((1..=6).map(dip).collect());
        let mut m = VersionManager::new(vip(), pool, 4, true);
        let mut live_dips: Vec<Dip> = (1..=6).map(dip).collect();
        for (is_add, d) in ops {
            let d = dip(d + 1);
            let op = if is_add { PoolUpdate::Add(d) } else { PoolUpdate::Remove(d) };
            match m.prepare(op) {
                Ok(Some(p)) => {
                    m.commit(p.new_version);
                    if is_add {
                        if !live_dips.contains(&d) { live_dips.push(d); }
                    } else {
                        live_dips.retain(|x| *x != d);
                    }
                }
                Ok(None) => {}
                Err(_) => {} // exhausted: acceptable, state must stay sane
            }
            // Invariants.
            prop_assert!(m.live_versions() as u32 <= m.ring_size());
            let cur = m.current_pool();
            let mut a: Vec<Dip> = cur.members().to_vec();
            let mut b = live_dips.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "current pool diverged from expected membership");
        }
    }
}

// --------------------------------------------------- switch-level PCC

/// Random interleavings of traffic and updates never break an installed
/// connection to a surviving DIP.
#[derive(Clone, Debug)]
enum SwitchOp {
    Packet(u32),
    AdvanceMs(u8),
    Update(bool, u8),
    Close(u32),
}

fn switch_op() -> impl Strategy<Value = SwitchOp> {
    prop_oneof![
        4 => (0u32..64).prop_map(SwitchOp::Packet),
        2 => any::<u8>().prop_map(|ms| SwitchOp::AdvanceMs(ms % 20 + 1)),
        1 => (any::<bool>(), 0u8..6).prop_map(|(a, d)| SwitchOp::Update(a, d)),
        1 => (0u32..64).prop_map(SwitchOp::Close),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn switch_pcc_under_random_interleavings(
        ops in proptest::collection::vec(switch_op(), 1..200)
    ) {
        let mut sw = SilkRoadSwitch::new(SilkRoadConfig::small_test());
        sw.add_vip(vip(), (1..=6).map(dip).collect()).unwrap();
        let mut t = Nanos::ZERO;
        // conn id -> (first dip, dead because its dip was removed)
        let mut seen: HashMap<u32, (Dip, bool)> = HashMap::new();
        let mut closed: std::collections::HashSet<u32> = Default::default();
        // DIPs with a requested (possibly still queued) removal: a
        // connection assigned to one of these is administratively dead.
        let mut removed: std::collections::HashSet<Dip> = Default::default();
        for op in ops {
            match op {
                SwitchOp::Packet(i) => {
                    if closed.contains(&i) {
                        continue;
                    }
                    let first = !seen.contains_key(&i);
                    let pkt = if first {
                        PacketMeta::syn(conn(i))
                    } else {
                        PacketMeta::data(conn(i), 800)
                    };
                    let d = sw.process_packet(&pkt, t);
                    let Some(got) = d.dip else { continue };
                    match seen.get(&i) {
                        None => {
                            seen.insert(i, (got, removed.contains(&got)));
                        }
                        Some((assigned, dead)) => {
                            if !dead && !d.false_hit {
                                prop_assert_eq!(
                                    got, *assigned,
                                    "PCC violated for conn {} at {}", i, t
                                );
                            }
                        }
                    }
                }
                SwitchOp::AdvanceMs(ms) => {
                    t += Duration::from_millis(ms as u64);
                    sw.advance(t);
                }
                SwitchOp::Update(is_add, d) => {
                    let d = dip(d + 1);
                    let pool_len = sw.current_dips(vip()).unwrap().len();
                    // Keep the pool non-empty, as operators do.
                    if !is_add && pool_len <= 1 {
                        continue;
                    }
                    let op = if is_add { PoolUpdate::Add(d) } else { PoolUpdate::Remove(d) };
                    sw.request_update(vip(), op, t).unwrap();
                    if is_add {
                        removed.remove(&d);
                    } else {
                        removed.insert(d);
                        for (_, (assigned, dead)) in seen.iter_mut() {
                            if *assigned == d {
                                *dead = true;
                            }
                        }
                    }
                }
                SwitchOp::Close(i) => {
                    if seen.contains_key(&i) && closed.insert(i) {
                        sw.close_connection(&conn(i), t);
                    }
                }
            }
        }
    }
}

/// Deterministic replay of the counterexample proptest once shrank to
/// (see `proptests.proptest-regressions`): two updates land back-to-back
/// while a connection is still pending, then its data packets must keep
/// resolving to the first DIP it was given. Kept as a plain test so the
/// regression is exercised on every run, not only when proptest replays
/// its seed file.
#[test]
fn pinned_counterexample_update_update_while_pending() {
    // ops = [Update(false, 5), Packet(0), Update(true, 5),
    //        Update(false, 1), Packet(11), AdvanceMs(2), Packet(11)]
    let mut sw = SilkRoadSwitch::new(SilkRoadConfig::small_test());
    sw.add_vip(vip(), (1..=6).map(dip).collect()).unwrap();
    let t0 = Nanos::ZERO;

    sw.request_update(vip(), PoolUpdate::Remove(dip(6)), t0)
        .unwrap();
    let _ = sw.process_packet(&PacketMeta::syn(conn(0)), t0);
    sw.request_update(vip(), PoolUpdate::Add(dip(6)), t0)
        .unwrap();
    sw.request_update(vip(), PoolUpdate::Remove(dip(2)), t0)
        .unwrap();

    let first = sw.process_packet(&PacketMeta::syn(conn(11)), t0);
    let assigned = first.dip.expect("SYN must be assigned a DIP");

    let t1 = t0 + Duration::from_millis(2);
    sw.advance(t1);
    let again = sw.process_packet(&PacketMeta::data(conn(11), 800), t1);
    // dip(2)'s removal was requested before conn 11 arrived; if the switch
    // assigned it anyway the connection is administratively dead and the
    // PCC claim does not apply.
    if assigned != dip(2) && !again.false_hit {
        assert_eq!(
            again.dip,
            Some(assigned),
            "PCC violated replaying the pinned counterexample"
        );
    }
}

// ------------------------------------------------- hot-path key equivalence

/// Expand two 64-bit halves into eight IPv6 segments.
fn v6_segs(hi: u64, lo: u64) -> [u16; 8] {
    let mut s = [0u16; 8];
    for i in 0..4 {
        s[i] = (hi >> (48 - 16 * i)) as u16;
        s[4 + i] = (lo >> (48 - 16 * i)) as u16;
    }
    s
}

fn proto_of(udp: bool) -> sr_types::Protocol {
    if udp {
        sr_types::Protocol::Udp
    } else {
        sr_types::Protocol::Tcp
    }
}

/// Any v4 or v6 5-tuple, arbitrary addresses/ports/protocol.
fn any_tuple() -> impl Strategy<Value = FiveTuple> {
    let v4 = (
        (any::<u32>(), any::<u16>()),
        (any::<u32>(), any::<u16>()),
        any::<bool>(),
    )
        .prop_map(|((s, sp), (d, dp), udp)| {
            let s = s.to_be_bytes();
            let d = d.to_be_bytes();
            FiveTuple {
                src: Addr::v4(s[0], s[1], s[2], s[3], sp),
                dst: Addr::v4(d[0], d[1], d[2], d[3], dp),
                proto: proto_of(udp),
            }
        });
    let v6 = (
        (any::<u64>(), any::<u64>(), any::<u16>()),
        (any::<u64>(), any::<u64>(), any::<u16>()),
        any::<bool>(),
    )
        .prop_map(|((sh, sl, sp), (dh, dl, dp), udp)| FiveTuple {
            src: Addr::v6(v6_segs(sh, sl), sp),
            dst: Addr::v6(v6_segs(dh, dl), dp),
            proto: proto_of(udp),
        });
    prop_oneof![v4, v6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The inline stack key encodes exactly the same bytes as the heap
    /// `key_bytes()` encoding, for both families and both protocols.
    #[test]
    fn tuple_key_matches_key_bytes(t in any_tuple()) {
        let key = t.tuple_key();
        prop_assert_eq!(key.as_slice(), &t.key_bytes()[..]);
        prop_assert_eq!(key.len(), t.key_len());
    }

    /// Every hash the packet path derives from one `KeyHasher` pass is
    /// bit-identical to running the corresponding standalone `HashFn` over
    /// the key bytes — the invariant that keeps all experiment outputs
    /// byte-for-byte stable across the hash-once refactor.
    #[test]
    fn hashed_key_matches_standalone_hashes(t in any_tuple(), seed in any::<u64>()) {
        use silkroad::conn_table::ConnTable;
        use silkroad::transit::TransitTable;
        use silkroad::KeyHasher;
        use sr_hash::HashFn;

        let cfg = SilkRoadConfig { seed, ..SilkRoadConfig::small_test() };
        let conn_table = ConnTable::new(&cfg);
        let transit = TransitTable::new(
            cfg.transit_bytes,
            cfg.transit_hashes,
            cfg.seed,
            cfg.transit_enabled,
        );
        let select = HashFn::new(cfg.seed ^ 0x5e1ec7);
        let hasher = KeyHasher::new(
            conn_table.stage_fns(),
            conn_table.match_fn(),
            select,
            transit.hash_fns(),
        );

        let hashed = hasher.hash_tuple(&t);
        let key = t.key_bytes();
        prop_assert_eq!(hashed.key().as_slice(), &key[..]);
        for (i, f) in conn_table.stage_fns().iter().enumerate() {
            prop_assert_eq!(hashed.conn_stage_hashes()[i], f.hash(&key));
        }
        prop_assert_eq!(hashed.conn_match_hash(), conn_table.match_fn().hash(&key));
        prop_assert_eq!(hashed.select_hash(), select.hash(&key));
        let bloom = hasher.bloom_hashes(hashed.key());
        for (i, f) in transit.hash_fns().iter().enumerate() {
            prop_assert_eq!(bloom.as_slice()[i], f.hash(&key));
        }
    }
}
