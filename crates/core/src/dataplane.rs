//! Data-plane result types and the hash-once key pipeline.
//!
//! The per-packet pipeline itself lives in [`crate::switch`] (it needs
//! mutable access to every table); this module defines what it returns,
//! plus the [`KeyHasher`]/[`HashedKey`] pair that lets the switch walk a
//! packet's 5-tuple key exactly once and finish every table's hash values
//! from that single pass.

use sr_hash::{key_pass, HashFn};
use sr_types::{Dip, FiveTuple, PoolVersion, RewriteMode, RewriteOp, TupleKey};

// The packet-time hash bundle and its lane bound are defined at the
// algorithm boundary (`sr-algo`), shared by every zoo member; SilkRoad's
// learn→install pipeline carries the same type.
pub use sr_algo::{ConnHashes, MAX_PACKET_HASHES};

/// Upper bound on the TransitTable bloom ways hashed lazily on the miss
/// path (the paper uses 4).
pub const MAX_BLOOM_HASHES: usize = 8;

/// The switch's per-packet hash-function list, split by when each value is
/// needed. The eager list — ConnTable stage bucket hashes, the ConnTable
/// match-field (digest) hash, the ECMP select hash — is everything a
/// steady-state ConnTable hit consumes; [`KeyHasher::hash_tuple`] walks the
/// key once ([`sr_hash::key_pass`]) and finishes every eager lane from the
/// core. The TransitTable bloom hashes are only read on the VIPTable miss
/// path, so [`KeyHasher::bloom_hashes`] finishes them on demand there from
/// the same core, and hit packets never pay for them.
///
/// Every lane equals calling its `HashFn` on the key bytes, by
/// construction of the family.
pub struct KeyHasher {
    fns: Vec<HashFn>,
    bloom_fns: Vec<HashFn>,
    conn_stages: usize,
}

impl KeyHasher {
    /// Assemble the layout. Panics if either function count exceeds its
    /// bound ([`MAX_PACKET_HASHES`] / [`MAX_BLOOM_HASHES`] — far beyond any
    /// paper configuration).
    pub fn new(
        conn_stage_fns: &[HashFn],
        conn_match_fn: HashFn,
        select_fn: HashFn,
        bloom_fns: &[HashFn],
    ) -> KeyHasher {
        let mut fns = Vec::with_capacity(conn_stage_fns.len() + 2);
        fns.extend_from_slice(conn_stage_fns);
        fns.push(conn_match_fn);
        fns.push(select_fn);
        assert!(
            fns.len() <= MAX_PACKET_HASHES,
            "packet path needs {} eager hash functions; MAX_PACKET_HASHES is {}",
            fns.len(),
            MAX_PACKET_HASHES
        );
        assert!(
            bloom_fns.len() <= MAX_BLOOM_HASHES,
            "miss path needs {} bloom hash functions; MAX_BLOOM_HASHES is {}",
            bloom_fns.len(),
            MAX_BLOOM_HASHES
        );
        KeyHasher {
            fns,
            bloom_fns: bloom_fns.to_vec(),
            conn_stages: conn_stage_fns.len(),
        }
    }

    /// Encode the tuple's inline key, walk it once, and finish every eager
    /// lane from the core. No heap allocation.
    pub fn hash_tuple(&self, tuple: &FiveTuple) -> HashedKey {
        let key = tuple.tuple_key();
        let core = key_pass(key.as_slice());
        let mut vals = [0u64; MAX_PACKET_HASHES];
        for (v, f) in vals.iter_mut().zip(&self.fns) {
            *v = f.hash_u64(core);
        }
        HashedKey {
            key: PacketKey { key, core },
            vals,
            conn_stages: self.conn_stages as u8,
        }
    }

    /// Finish the TransitTable bloom lanes from the key's core — the miss
    /// path's lazy lanes, with no second walk over the key bytes. Equal to
    /// running each bloom `HashFn` on the key; no heap allocation.
    pub fn bloom_hashes(&self, key: &PacketKey) -> BloomHashes {
        let mut vals = [0u64; MAX_BLOOM_HASHES];
        for (v, f) in vals.iter_mut().zip(&self.bloom_fns) {
            *v = f.hash_u64(key.core);
        }
        BloomHashes {
            vals,
            n: self.bloom_fns.len() as u8,
        }
    }
}

/// A packet's encoded key together with its seed-free key-pass core, from
/// which [`KeyHasher`] finishes every lane, eager or lazy.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PacketKey {
    key: TupleKey,
    core: u64,
}

impl PacketKey {
    /// The encoded key bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.key.as_slice()
    }
}

/// One packet key plus the precomputed outputs of the eager
/// [`KeyHasher`] layout over it.
#[derive(Clone, Copy)]
pub struct HashedKey {
    key: PacketKey,
    vals: [u64; MAX_PACKET_HASHES],
    conn_stages: u8,
}

impl HashedKey {
    /// The key and its core.
    pub fn key(&self) -> &PacketKey {
        &self.key
    }

    /// Per-stage ConnTable bucket hashes.
    pub fn conn_stage_hashes(&self) -> &[u64] {
        &self.vals[..usize::from(self.conn_stages)]
    }

    /// The ConnTable match-field (digest) hash.
    pub fn conn_match_hash(&self) -> u64 {
        self.vals[usize::from(self.conn_stages)]
    }

    /// The ECMP/DIP-select hash.
    pub fn select_hash(&self) -> u64 {
        self.vals[usize::from(self.conn_stages) + 1]
    }

    /// Snapshot the ConnTable-relevant hashes (stage buckets + match/digest
    /// hash) for the learn→install pipeline: the learn event carries this
    /// so the eventual cuckoo insert reuses the packet-time hash pass
    /// instead of re-hashing the key on the switch CPU.
    pub fn conn_hashes(&self) -> ConnHashes {
        let mut stage_hashes = [0u64; MAX_PACKET_HASHES];
        let stages = usize::from(self.conn_stages);
        stage_hashes[..stages].copy_from_slice(&self.vals[..stages]);
        ConnHashes::from_parts(stage_hashes, self.conn_stages, self.conn_match_hash())
    }
}

/// The miss path's lazily computed TransitTable bloom hashes
/// ([`KeyHasher::bloom_hashes`]).
#[derive(Clone, Copy)]
pub struct BloomHashes {
    vals: [u64; MAX_BLOOM_HASHES],
    n: u8,
}

impl BloomHashes {
    /// One output per configured bloom way.
    pub fn as_slice(&self) -> &[u64] {
        &self.vals[..usize::from(self.n)]
    }
}

/// Which path a packet took through the switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataPath {
    /// Forwarded entirely in the ASIC via a ConnTable hit.
    AsicConnTable,
    /// Forwarded entirely in the ASIC via the VIPTable miss path (first
    /// packets and pending connections).
    AsicVipTable,
    /// Redirected through switch software: a SYN that falsely hit an
    /// existing ConnTable entry (digest collision, §4.2) or falsely hit
    /// TransitTable in step 2 (§4.3). Repaired, then forwarded; costs the
    /// configured extra delay.
    SoftwareRedirect,
    /// Dropped: destination is a VIP with an empty pool.
    Dropped,
    /// Not VIP traffic: passed through to regular forwarding.
    NotVip,
}

/// Outcome of processing one packet. `Eq` so equivalence tests can compare
/// whole decision streams (e.g. multi-pipe vs single-pipe switches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardDecision {
    /// The chosen backend, if any.
    pub dip: Option<Dip>,
    /// Path taken.
    pub path: DataPath,
    /// The pool version used to resolve the DIP (None for `NotVip`/drops
    /// and for hits in the software fallback table).
    pub version: Option<PoolVersion>,
    /// Whether the decision came from a ConnTable hit.
    pub conn_table_hit: bool,
    /// Whether the ConnTable hit was a digest false positive (simulator
    /// visibility only — the ASIC cannot know).
    pub false_hit: bool,
}

impl ForwardDecision {
    /// A non-VIP passthrough decision.
    pub fn not_vip() -> ForwardDecision {
        ForwardDecision {
            dip: None,
            path: DataPath::NotVip,
            version: None,
            conn_table_hit: false,
            false_hit: false,
        }
    }

    /// A drop decision (empty pool).
    pub fn dropped() -> ForwardDecision {
        ForwardDecision {
            dip: None,
            path: DataPath::Dropped,
            version: None,
            conn_table_hit: false,
            false_hit: false,
        }
    }

    /// The wire-layer operation this decision asks of the rewrite engine:
    /// decisions that forward to a resolved DIP become a [`RewriteOp`]
    /// carried in `mode`; drops and non-VIP passthroughs touch nothing.
    #[inline]
    pub fn rewrite_op(&self, mode: RewriteMode) -> Option<RewriteOp> {
        match self.path {
            DataPath::AsicConnTable | DataPath::AsicVipTable | DataPath::SoftwareRedirect => {
                self.dip.map(|dip| RewriteOp { dip, mode })
            }
            DataPath::Dropped | DataPath::NotVip => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let n = ForwardDecision::not_vip();
        assert_eq!(n.path, DataPath::NotVip);
        assert!(n.dip.is_none());
        let d = ForwardDecision::dropped();
        assert_eq!(d.path, DataPath::Dropped);
        assert!(!d.conn_table_hit);
    }

    #[test]
    fn rewrite_op_mapping() {
        use sr_types::Addr;
        let dip = Dip(Addr::v4(10, 0, 0, 1, 20));
        let fwd = ForwardDecision {
            dip: Some(dip),
            path: DataPath::AsicConnTable,
            version: None,
            conn_table_hit: true,
            false_hit: false,
        };
        for mode in [RewriteMode::Nat, RewriteMode::Encap] {
            assert_eq!(fwd.rewrite_op(mode), Some(RewriteOp { dip, mode }));
        }
        let redirected = ForwardDecision {
            path: DataPath::SoftwareRedirect,
            ..fwd
        };
        assert!(redirected.rewrite_op(RewriteMode::Nat).is_some());
        assert!(ForwardDecision::dropped()
            .rewrite_op(RewriteMode::Nat)
            .is_none());
        assert!(ForwardDecision::not_vip()
            .rewrite_op(RewriteMode::Nat)
            .is_none());
    }
}
