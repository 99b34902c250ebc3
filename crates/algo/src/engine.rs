//! The generic packet engine composing a [`ConnState`] with a [`Steering`].
//!
//! `AlgoEngine` is the trait-level counterpart of `silkroad::SilkRoadSwitch`'s
//! packet loop: hash once, try the tag fast path (version-in-packet
//! designs), then the connection state, then the miss path — installing an
//! entry only when the steering says the decision needs one. It is the
//! shared chassis of the Concury / CuCoTrack / hybrid zoo members; SilkRoad
//! itself keeps its production chassis (learning filter, 3-step updates)
//! and meets the zoo at the trait boundary instead.

use crate::hashes::{ConnHashes, MAX_PACKET_HASHES};
use crate::state::{ConnRecord, ConnState};
use crate::steer::Steering;
use sr_hash::{hash_all, HashFn};
use sr_types::{Dip, Nanos, PacketMeta, PoolVersion, TupleKey, Vip};

/// The engine's hash-once pass: per-stage bucket hashes + match hash +
/// select hash over the encoded 5-tuple, mirroring `sr-core`'s `KeyHasher`
/// discipline (every table value derives from one pass).
pub struct AlgoHasher {
    fns: Vec<HashFn>,
    stages: u8,
}

impl AlgoHasher {
    /// Build a layout with `stages` bucket lanes plus match and select
    /// lanes, seeded deterministically from `seed`.
    pub fn new(seed: u64, stages: usize) -> AlgoHasher {
        assert!(
            stages + 2 <= MAX_PACKET_HASHES,
            "hash layout needs {} lanes; MAX_PACKET_HASHES is {}",
            stages + 2,
            MAX_PACKET_HASHES
        );
        AlgoHasher {
            fns: HashFn::family(seed, stages + 2),
            stages: stages as u8,
        }
    }

    /// Hash a packet's key once; returns the encoded key, the
    /// [`ConnHashes`] bundle, and the DIP-select hash.
    // srlint: hot-path begin
    pub fn hash(&self, key: &TupleKey) -> (ConnHashes, u64) {
        let mut vals = [0u64; MAX_PACKET_HASHES];
        hash_all(&self.fns, key.as_slice(), &mut vals[..self.fns.len()]);
        let stages = usize::from(self.stages);
        let match_hash = vals[stages];
        let select_hash = vals[stages + 1];
        let mut stage_hashes = [0u64; MAX_PACKET_HASHES];
        stage_hashes[..stages].copy_from_slice(&vals[..stages]);
        (
            ConnHashes::from_parts(stage_hashes, self.stages, match_hash),
            select_hash,
        )
    }
    // srlint: hot-path end
}

/// Counters an engine accumulates while processing a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Packets processed.
    pub packets: u64,
    /// Decisions served by the stamped-tag stateless fast path.
    pub tagged: u64,
    /// Decisions served by a [`ConnState`] hit.
    pub conn_hits: u64,
    /// [`ConnState`] hits whose match was a digest/fingerprint collision
    /// (honestly mis-steered, always counted).
    pub false_hits: u64,
    /// Miss-path decisions served statelessly (no entry installed).
    pub stateless: u64,
    /// Entries installed.
    pub inserts: u64,
    /// Installs refused by a full [`ConnState`].
    pub insert_failures: u64,
    /// Packets dropped (unknown/empty pool).
    pub drops: u64,
    /// Packets not addressed to a registered VIP.
    pub not_vip: u64,
}

/// One packet's outcome at the trait boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlgoDecision {
    /// The chosen backend (`None` for drops and non-VIP traffic).
    pub dip: Option<Dip>,
    /// The pool version the decision rode on.
    pub version: Option<PoolVersion>,
    /// Whether the decision came from connection state.
    pub from_conn_state: bool,
    /// Whether the connection-state match was a false positive.
    pub false_hit: bool,
    /// What the edge should stamp into the flow's future packets.
    pub stamp: Option<u8>,
}

impl AlgoDecision {
    fn not_vip() -> AlgoDecision {
        AlgoDecision {
            dip: None,
            version: None,
            from_conn_state: false,
            false_hit: false,
            stamp: None,
        }
    }

    fn dropped() -> AlgoDecision {
        AlgoDecision::not_vip()
    }
}

/// A complete algorithm: connection state + steering + hash-once pass.
pub struct AlgoEngine<C: ConnState, S: Steering> {
    hasher: AlgoHasher,
    conn: C,
    steer: S,
    stats: EngineStats,
}

impl<C: ConnState, S: Steering> AlgoEngine<C, S> {
    /// Compose an engine. `stages` sizes the bucket-hash lanes the
    /// [`ConnState`] consumes (SilkRoad uses 4, the cuckoo filter 2).
    pub fn new(conn: C, steer: S, seed: u64, stages: usize) -> AlgoEngine<C, S> {
        AlgoEngine {
            hasher: AlgoHasher::new(seed, stages),
            conn,
            steer,
            stats: EngineStats::default(),
        }
    }

    /// The steering half, read-only (accounting).
    pub fn steering(&self) -> &S {
        &self.steer
    }

    /// The connection-state half (accounting).
    pub fn conn_state(&self) -> &C {
        &self.conn
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Register a VIP with its initial pool.
    pub fn add_vip(&mut self, vip: Vip, dips: &[Dip]) -> bool {
        self.steer.add_vip(vip, dips)
    }

    /// Replace a VIP's pool membership.
    pub fn update_pool(&mut self, vip: Vip, dips: &[Dip], now: Nanos) -> Option<PoolVersion> {
        self.steer.update_pool(vip, dips, now)
    }

    /// Advance time: settle update windows, expire idle entries.
    pub fn advance(&mut self, now: Nanos) {
        self.steer.advance(now);
        self.conn.expire_idle(now);
    }

    /// Process one packet. `tag` is the stamp the edge recovered from the
    /// packet (see `sr_wire::stamp`), if any.
    // srlint: hot-path begin
    pub fn process(&mut self, pkt: &PacketMeta, tag: Option<u8>, now: Nanos) -> AlgoDecision {
        self.stats.packets += 1;
        let vip = Vip(pkt.tuple.dst);
        if !self.steer.is_vip(vip) {
            self.stats.not_vip += 1;
            return AlgoDecision::not_vip();
        }
        let key = pkt.tuple.tuple_key();
        let (hashes, select_hash) = self.hasher.hash(&key);
        let closing = pkt.flags.is_fin() || pkt.flags.is_rst();

        // Version-in-packet fast path: a stamped packet steers without
        // touching connection state at all.
        if let Some(t) = tag {
            if let Some(s) = self.steer.steer_tagged(vip, select_hash, t) {
                self.stats.tagged += 1;
                return AlgoDecision {
                    dip: Some(s.dip),
                    version: Some(s.version),
                    from_conn_state: false,
                    false_hit: false,
                    stamp: s.stamp,
                };
            }
        }

        if let Some(hit) = self.conn.lookup(&key, &hashes) {
            self.stats.conn_hits += 1;
            if !hit.exact {
                self.stats.false_hits += 1;
            }
            if closing {
                self.conn.remove(&key, &hashes);
            } else {
                self.conn.touch(&key, &hashes, now);
            }
            return AlgoDecision {
                dip: Some(hit.record.dip),
                version: Some(hit.record.version),
                from_conn_state: true,
                false_hit: !hit.exact,
                stamp: None,
            };
        }

        let Some(s) = self.steer.steer_miss(vip, select_hash, now) else {
            self.stats.drops += 1;
            return AlgoDecision::dropped();
        };
        if s.needs_entry && !closing {
            let record = ConnRecord {
                vip,
                version: s.version,
                dip: s.dip,
                arrived: now,
            };
            if self.conn.insert(&key, &hashes, record).is_ok() {
                self.stats.inserts += 1;
            } else {
                self.stats.insert_failures += 1;
            }
        } else {
            self.stats.stateless += 1;
        }
        AlgoDecision {
            dip: Some(s.dip),
            version: Some(s.version),
            from_conn_state: false,
            false_hit: false,
            stamp: s.stamp,
        }
    }
    // srlint: hot-path end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ConnStateDesign;
    use crate::state::MapConnState;
    use crate::steer::StatefulSteering;
    use sr_types::{Addr, AddrFamily, Duration, FiveTuple};

    fn vip() -> Vip {
        Vip(Addr::v4(20, 0, 0, 1, 80))
    }

    fn dips(n: u8) -> Vec<Dip> {
        (1..=n).map(|i| Dip(Addr::v4(10, 0, 0, i, 20))).collect()
    }

    fn flow(g: u32) -> FiveTuple {
        FiveTuple::tcp(Addr::v4_indexed(100, g, 1024), vip().0)
    }

    fn engine() -> AlgoEngine<MapConnState, StatefulSteering> {
        let conn = MapConnState::new(
            ConnStateDesign::DigestVersion {
                digest_bits: 16,
                version_bits: 6,
            },
            AddrFamily::V4,
            Duration::from_secs(30),
        );
        let mut e = AlgoEngine::new(conn, StatefulSteering::new(6), 7, 4);
        assert!(e.add_vip(vip(), &dips(4)));
        e
    }

    #[test]
    fn stateful_flow_is_pinned_across_updates() {
        let mut e = engine();
        let d0 = e.process(&PacketMeta::syn(flow(1)), None, Nanos(0));
        assert!(!d0.from_conn_state);
        assert_eq!(e.stats().inserts, 1);
        e.update_pool(vip(), &dips(5), Nanos(10)).unwrap();
        let d1 = e.process(&PacketMeta::data(flow(1), 100), None, Nanos(20));
        assert!(d1.from_conn_state);
        assert_eq!(d1.dip, d0.dip);
    }

    #[test]
    fn close_removes_the_entry() {
        let mut e = engine();
        e.process(&PacketMeta::syn(flow(1)), None, Nanos(0));
        assert_eq!(e.conn_state().entries(), 1);
        e.process(&PacketMeta::fin(flow(1)), None, Nanos(10));
        assert_eq!(e.conn_state().entries(), 0);
        assert_eq!(e.stats().conn_hits, 1);
    }

    #[test]
    fn non_vip_passes_through() {
        let mut e = engine();
        let other = FiveTuple::tcp(Addr::v4(1, 1, 1, 1, 9), Addr::v4(9, 9, 9, 9, 80));
        let d = e.process(&PacketMeta::syn(other), None, Nanos(0));
        assert!(d.dip.is_none());
        assert_eq!(e.stats().not_vip, 1);
        assert_eq!(e.conn_state().entries(), 0);
    }

    #[test]
    fn hasher_matches_standalone_fns() {
        let h = AlgoHasher::new(7, 4);
        let key = flow(3).tuple_key();
        let (bundle, select) = h.hash(&key);
        let fns = HashFn::family(7, 6);
        for (i, f) in fns.iter().take(4).enumerate() {
            assert_eq!(bundle.stage_hashes()[i], f.hash(key.as_slice()));
        }
        assert_eq!(bundle.match_hash(), fns[4].hash(key.as_slice()));
        assert_eq!(select, fns[5].hash(key.as_slice()));
    }
}
