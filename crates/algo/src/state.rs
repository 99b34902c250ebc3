//! The [`ConnState`] trait — per-connection lookup state — plus the
//! shared record type and a map-backed reference implementation.

use crate::cost::{conn_entry_bits, ConnStateDesign};
use crate::hashes::ConnHashes;
use sr_asic::sram::SramSpec;
use sr_hash::FxHashMap;
use sr_types::{AddrFamily, Dip, Duration, Nanos, PoolVersion, TupleKey, Vip};

/// Value tracked per connection — shared by every [`ConnState`]
/// implementation (SilkRoad's ConnTable stores exactly this; `sr-core`
/// aliases its `ConnValue` to it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnRecord {
    /// The VIP the connection targets.
    pub vip: Vip,
    /// The DIP-pool version the connection is pinned to.
    pub version: PoolVersion,
    /// The DIP resolved at learn time. [`crate::AlgoEngine`] forwards a hit
    /// to it; SilkRoad re-derives the DIP from the pinned version's pool
    /// and falls back to this one only when that pool selects nothing.
    pub dip: Dip,
    /// First-packet arrival time (drives the 3-step update bookkeeping).
    pub arrived: Nanos,
}

/// Result of a [`ConnState::lookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnHit {
    /// The stored record the match resolved to.
    pub record: ConnRecord,
    /// Whether the match is known to belong to the probed key. `false`
    /// means the structure matched on compressed identity (digest /
    /// fingerprint) for a *different* flow — a false positive the caller
    /// must count (and may honestly mis-steer on, as the real ASIC would).
    pub exact: bool,
}

/// Insertion failed: the structure is full (cuckoo kicks exhausted,
/// capacity reached). Mirrors the ASIC reality that inserts are the
/// fallible, software-assisted path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateFull;

/// The per-connection state seam. Implementations range from SilkRoad's
/// digest ConnTable through CuCoTrack's cuckoo filter to a plain exact
/// map; all consume the same packet-time [`ConnHashes`] so the hash-once
/// discipline survives the abstraction.
pub trait ConnState {
    /// Look `key` up, marking the entry as hit where the implementation
    /// tracks liveness. Implementations that can alias (digest /
    /// fingerprint keys) return `exact: false` on a collision and are
    /// required to count it — never to absorb it silently.
    fn lookup(&mut self, key: &TupleKey, hashes: &ConnHashes) -> Option<ConnHit>;

    /// Install a record for `key`, reusing the packet-time hashes where the
    /// layout allows.
    fn insert(
        &mut self,
        key: &TupleKey,
        hashes: &ConnHashes,
        record: ConnRecord,
    ) -> Result<(), StateFull>;

    /// Note activity on `key` at `now` for idle accounting. Implementations
    /// whose liveness tracking is already folded into [`ConnState::lookup`]
    /// (hit bits, as in SilkRoad's ConnTable) keep the default no-op.
    /// `hashes` are the key's packet-time hashes, so a hashed structure
    /// reads only the key's own buckets.
    fn touch(&mut self, key: &TupleKey, hashes: &ConnHashes, now: Nanos) {
        let _ = (key, hashes, now);
    }

    /// Remove `key`'s entry (connection close), returning the record if one
    /// was held. `hashes` as for [`ConnState::touch`].
    fn remove(&mut self, key: &TupleKey, hashes: &ConnHashes) -> Option<ConnRecord>;

    /// Expire idle entries as of `now`; returns how many were evicted.
    fn expire_idle(&mut self, now: Nanos) -> usize;

    /// Live entries held.
    fn entries(&self) -> usize;

    /// SRAM bytes the live entries occupy under this design's entry
    /// layout (word-packed, as the ASIC stores them). Audit-only shadow
    /// structures (full-key oracles) are excluded — they model switch-CPU
    /// memory, not SRAM.
    fn state_bytes(&self) -> u64;

    /// The entry layout, for the shared cost model.
    fn design(&self) -> ConnStateDesign;
}

/// A plain exact-match map with declared-layout SRAM accounting.
///
/// Models the "small side table" several designs carry: Concury's
/// transition-window entries, the hybrid's update-crossing entries. The
/// in-memory map stores full keys (it *is* exact — no false positives);
/// the SRAM figure is computed from the declared [`ConnStateDesign`], which
/// is what the corresponding ASIC table would store.
pub struct MapConnState {
    map: FxHashMap<TupleKey, (ConnRecord, Nanos)>,
    design: ConnStateDesign,
    family: AddrFamily,
    idle_timeout: Duration,
}

impl MapConnState {
    /// Build with the given SRAM entry layout and idle timeout.
    pub fn new(
        design: ConnStateDesign,
        family: AddrFamily,
        idle_timeout: Duration,
    ) -> MapConnState {
        MapConnState {
            map: FxHashMap::default(),
            design,
            family,
            idle_timeout,
        }
    }
}

impl ConnState for MapConnState {
    fn lookup(&mut self, key: &TupleKey, _hashes: &ConnHashes) -> Option<ConnHit> {
        let (record, _) = self.map.get(key)?;
        Some(ConnHit {
            record: *record,
            exact: true,
        })
    }

    fn touch(&mut self, key: &TupleKey, _hashes: &ConnHashes, now: Nanos) {
        if let Some((_, touched)) = self.map.get_mut(key) {
            *touched = now;
        }
    }

    fn insert(
        &mut self,
        key: &TupleKey,
        _hashes: &ConnHashes,
        record: ConnRecord,
    ) -> Result<(), StateFull> {
        self.map.insert(*key, (record, record.arrived));
        Ok(())
    }

    fn remove(&mut self, key: &TupleKey, _hashes: &ConnHashes) -> Option<ConnRecord> {
        self.map.remove(key).map(|(r, _)| r)
    }

    fn expire_idle(&mut self, now: Nanos) -> usize {
        let timeout = self.idle_timeout;
        let before = self.map.len();
        self.map
            .retain(|_, (_, touched)| now.since(*touched) < timeout);
        before - self.map.len()
    }

    fn entries(&self) -> usize {
        self.map.len()
    }

    fn state_bytes(&self) -> u64 {
        SramSpec {
            entry_bits: conn_entry_bits(self.design, self.family),
        }
        .bytes_for(self.map.len() as u64)
    }

    fn design(&self) -> ConnStateDesign {
        self.design
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_types::{Addr, FiveTuple};

    fn rec(i: u8) -> ConnRecord {
        ConnRecord {
            vip: Vip(Addr::v4(20, 0, 0, 1, 80)),
            version: PoolVersion(1),
            dip: Dip(Addr::v4(10, 0, 0, i, 20)),
            arrived: Nanos(100),
        }
    }

    fn key(i: u32) -> TupleKey {
        FiveTuple::tcp(Addr::v4_indexed(100, i, 1024), Addr::v4(20, 0, 0, 1, 80)).tuple_key()
    }

    fn map_state() -> MapConnState {
        MapConnState::new(
            ConnStateDesign::DigestVersion {
                digest_bits: 16,
                version_bits: 6,
            },
            AddrFamily::V4,
            Duration::from_secs(1),
        )
    }

    #[test]
    fn map_state_round_trips() {
        let mut s = map_state();
        let h = ConnHashes::empty();
        assert!(s.lookup(&key(1), &h).is_none());
        s.insert(&key(1), &h, rec(1)).unwrap();
        let hit = s.lookup(&key(1), &h).unwrap();
        assert!(hit.exact);
        assert_eq!(hit.record.dip, rec(1).dip);
        assert_eq!(s.entries(), 1);
        assert_eq!(s.remove(&key(1), &h).unwrap().dip, rec(1).dip);
        assert_eq!(s.entries(), 0);
    }

    #[test]
    fn map_state_expires_idle() {
        let mut s = map_state();
        let h = ConnHashes::empty();
        s.insert(&key(1), &h, rec(1)).unwrap();
        assert_eq!(s.expire_idle(Nanos(100)), 0);
        assert_eq!(s.expire_idle(Nanos(100 + 2_000_000_000)), 1);
        assert_eq!(s.entries(), 0);
    }

    #[test]
    fn map_state_accounts_declared_layout() {
        let mut s = map_state();
        let h = ConnHashes::empty();
        for i in 0..8 {
            s.insert(&key(i), &h, rec(1)).unwrap();
        }
        // 28-bit entries pack 4/word: 8 entries = 2 words = 28 bytes.
        assert_eq!(s.state_bytes(), 28);
    }
}
