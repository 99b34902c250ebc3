//! ConnTable — the per-connection state table (§4.2).
//!
//! The ASIC-resident exact-match table keyed by a 16-bit digest of the
//! 5-tuple. Action data is the DIP-pool version (6 bits) in the paper's
//! design, or the DIP itself in the §4.2 fallback mode. The software shadow
//! (full keys, arrival times) rides along in the entry value — the real
//! switch keeps the same information in CPU memory. Here it is one cache
//! line per slot: callers see [`ConnValue`]s, a slot stores one packed to
//! 18 bytes beside its key (see [`ConnTable::host_bytes`]).

use crate::config::{ConnMapping, SilkRoadConfig};
use sr_asic::table::{MatchMode, TableSpec};
use sr_hash::cuckoo::{CuckooError, CuckooTable, InsertOutcome, LookupHit};
use sr_hash::FxHashMap;
use sr_types::{Dip, Nanos, PoolVersion, TupleKey, Vip};
use std::hash::Hash;

/// Value stored per connection — field-for-field the algorithm boundary's
/// [`sr_algo::ConnRecord`] (vip, pinned version, learn-time DIP, arrival
/// time), so SilkRoad's table plugs into the zoo without translation.
/// This is what callers hand in and get back; a slot stores it packed.
pub type ConnValue = sr_algo::ConnRecord;

/// What every lookup returns: `(value, exact, resident)` (see
/// [`ConnTable::lookup`]).
type ConnLookup = (ConnValue, bool, Option<TupleKey>);

/// A [`ConnValue`] as its slot stores it: the two endpoints as ids into the
/// table's [`Endpoints`], 18 bytes of fields at 4-byte alignment instead of
/// 56 bytes at 8, so key, hit bit and value share one 64-byte slot record.
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(4))]
struct PackedConn {
    arrived: u64,
    vip: u32,
    dip: u32,
    version: u16,
}

// What `sr_hash::cuckoo` needs of a value to keep a slot at one cache line
// (it asserts the record size for the widest such value beside its type).
const _: () =
    assert!(std::mem::size_of::<PackedConn>() <= 20 && std::mem::align_of::<PackedConn>() <= 4);

/// Every distinct `T` a table has seen, numbered in order of first sight.
/// Ids are never reused or dropped — a table sees a few VIPs and their
/// DIPs, each a few dozen bytes — so an id stays valid for as long as any
/// record holds it, across removes and re-installs.
struct Interner<T> {
    ids: FxHashMap<T, u32>,
    items: Vec<T>,
}

impl<T> Default for Interner<T> {
    fn default() -> Interner<T> {
        Interner {
            ids: FxHashMap::default(),
            items: Vec::new(),
        }
    }
}

impl<T: Copy + Eq + Hash> Interner<T> {
    /// The id of `item`, numbering it on first sight (the only time this
    /// touches the allocator).
    fn intern(&mut self, item: T) -> u32 {
        *self.ids.entry(item).or_insert_with(|| {
            let id = u32::try_from(self.items.len()).expect("fewer than 2^32 distinct endpoints");
            self.items.push(item);
            id
        })
    }

    fn id(&self, item: &T) -> Option<u32> {
        self.ids.get(item).copied()
    }

    fn host_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
            + self.ids.capacity() * (std::mem::size_of::<(T, u32)>() + 1)
    }

    // srlint: hot-path begin
    /// The item behind an id this interner handed out.
    fn get(&self, id: u32) -> T {
        self.items[id as usize]
    }
    // srlint: hot-path end
}

/// The VIPs and DIPs a table's records refer to by id.
#[derive(Default)]
struct Endpoints {
    vips: Interner<Vip>,
    dips: Interner<Dip>,
}

impl Endpoints {
    fn pack(&mut self, v: ConnValue) -> PackedConn {
        PackedConn {
            arrived: v.arrived.0,
            vip: self.vips.intern(v.vip),
            dip: self.dips.intern(v.dip),
            version: v.version.0,
        }
    }

    // srlint: hot-path begin
    fn unpack(&self, p: PackedConn) -> ConnValue {
        ConnValue {
            vip: self.vips.get(p.vip),
            version: PoolVersion(p.version),
            dip: self.dips.get(p.dip),
            arrived: Nanos(p.arrived),
        }
    }

    /// A table hit as its owned, unpacked result.
    fn unpack_hit(&self, hit: LookupHit<'_, PackedConn>) -> ConnLookup {
        let resident = (!hit.exact).then(|| TupleKey::from_bytes(hit.resident_key));
        (self.unpack(*hit.value), hit.exact, resident)
    }
    // srlint: hot-path end

    fn unpack_all(&self, removed: Vec<(TupleKey, PackedConn)>) -> Vec<(TupleKey, ConnValue)> {
        removed
            .into_iter()
            .map(|(key, p)| (key, self.unpack(p)))
            .collect()
    }
}

/// The ConnTable.
pub struct ConnTable {
    /// The multi-stage cuckoo store (behaviour).
    table: CuckooTable<PackedConn>,
    /// The endpoints the packed records name by id.
    ends: Endpoints,
    /// The on-chip entry layout (SRAM cost).
    spec: TableSpec,
    mapping: ConnMapping,
    /// When the last aging scan ran.
    last_scan: Nanos,
}

impl ConnTable {
    /// Build from the switch configuration.
    pub fn new(cfg: &SilkRoadConfig) -> ConnTable {
        let spec = cfg.conn_table_spec();
        let match_mode = match &cfg.digest_bits_per_stage {
            Some(bits) => MatchMode::DigestPerStage { bits: bits.clone() },
            None => MatchMode::Digest {
                bits: cfg.digest_bits,
            },
        };
        ConnTable {
            table: CuckooTable::new(spec.cuckoo_config(
                cfg.conn_capacity,
                cfg.conn_stages,
                match_mode,
                cfg.seed ^ 0xc0_44,
            )),
            ends: Endpoints::default(),
            spec,
            mapping: cfg.mapping,
            last_scan: Nanos::ZERO,
        }
    }

    /// The configured mapping mode.
    pub fn mapping(&self) -> ConnMapping {
        self.mapping
    }

    /// The per-entry SRAM spec (digest / action / overhead widths).
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// ASIC lookup, for software inspection: no hit bit is set (the data
    /// plane probes with [`ConnTable::locate`] +
    /// [`ConnTable::lookup_marking_at`], which marks exact hits).
    ///
    /// Returns `(value, exact, resident)` where `resident` carries the
    /// resident entry's key *only on a false hit* (the repair path needs it
    /// to relocate the resident); exact hits copy no key.
    pub fn lookup(&self, key: &[u8]) -> Option<ConnLookup> {
        self.table.lookup(key).map(|hit| self.ends.unpack_hit(hit))
    }

    /// [`ConnTable::lookup`] from precomputed hashes (the install path's
    /// collision pre-check): `stage_hashes[i]` is `stage_fns()[i]` over the
    /// key, `match_hash` is `match_fn()` over the key.
    pub fn lookup_pre(
        &self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
    ) -> Option<ConnLookup> {
        self.table
            .lookup_pre(key, stage_hashes, match_hash)
            .map(|hit| self.ends.unpack_hit(hit))
    }

    /// Warm the cache lines a prehashed lookup will touch: the per-stage
    /// match-field words, then (optionally) the candidate entry itself.
    /// Plain reads with no side effects — the batch path issues these a few
    /// packets ahead so the probes' random-access misses overlap.
    pub fn prefetch_words(&self, stage_hashes: &[u64]) {
        self.table.prefetch_words_pre(stage_hashes);
    }

    /// Warm the entry a prehashed lookup would dereference (run after
    /// [`ConnTable::prefetch_words`] has had time to land).
    pub fn prefetch_entry(&self, stage_hashes: &[u64], match_hash: u64) {
        self.table.prefetch_entry_pre(stage_hashes, match_hash);
    }

    // srlint: hot-path begin
    /// First half of the data plane's marking lookup: the `(stage, slot)` a
    /// prehashed probe would hit (hashes as for [`ConnTable::lookup_pre`]),
    /// with the entry's cache line already warming. No side effects;
    /// resolve with [`ConnTable::lookup_marking_at`] before the next table
    /// mutation (install, remove, relocate, aging).
    pub fn locate(&self, key: &[u8], stage_hashes: &[u64], match_hash: u64) -> Option<(u32, u32)> {
        self.table.locate_pre(key, stage_hashes, match_hash)
    }

    /// Second half of the marking lookup — the result
    /// [`ConnTable::lookup`] gives at the located coordinates, plus the hit
    /// bit set on an exact match (the bit that drives idle aging): one
    /// record line, then two reads of the cache-resident endpoint lists.
    // Inlined into the chunk loop: out of line, the 96-byte owned result is
    // built in memory and re-read by the caller in other widths, and the
    // store-forwarding stalls cost the cache-resident hit path ~15 %.
    #[inline]
    pub fn lookup_marking_at(&mut self, stage: u32, slot: u32, key: &[u8]) -> ConnLookup {
        self.ends
            .unpack_hit(self.table.lookup_marking_at(stage, slot, key))
    }
    // srlint: hot-path end

    /// Per-stage bucket-hash functions (for assembling a hash-once list).
    pub fn stage_fns(&self) -> &[sr_hash::HashFn] {
        self.table.stage_fns()
    }

    /// The match-field hash function (shared digest hash or fingerprint).
    pub fn match_fn(&self) -> sr_hash::HashFn {
        self.table.match_fn()
    }

    /// Idle aging (clock algorithm): expire every entry that was installed
    /// before the previous scan and has not been exact-hit since. Returns
    /// the expired entries; resets the hit bits.
    pub fn aging_scan(&mut self, now: Nanos) -> Vec<(TupleKey, ConnValue)> {
        let cutoff = self.last_scan.0;
        let expired = self
            .table
            .retain_hits(|_, v, hit| v.arrived >= cutoff || hit);
        self.last_scan = now;
        self.ends.unpack_all(expired)
    }

    /// Time of the last aging scan.
    pub fn last_scan(&self) -> Nanos {
        self.last_scan
    }

    /// Install an entry (software path; timing is modelled by the CPU).
    pub fn install(&mut self, key: &[u8], value: ConnValue) -> Result<InsertOutcome, CuckooError> {
        let packed = self.ends.pack(value);
        self.table.insert(key, packed)
    }

    /// [`ConnTable::install`] from precomputed hashes — the batched setup
    /// path replays the packet-time hash pass carried in the learn event,
    /// so the install itself never re-hashes the key. Placement is
    /// bit-identical to [`ConnTable::install`].
    pub fn install_pre(
        &mut self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
        value: ConnValue,
    ) -> Result<InsertOutcome, CuckooError> {
        let packed = self.ends.pack(value);
        self.table.insert_pre(key, stage_hashes, match_hash, packed)
    }

    /// [`ConnTable::install_pre`] when the install drain's own collision
    /// pre-check just probed these hashes and missed: the duplicate scan
    /// and (for vacant, alias-free landings) the shadowing re-probe are
    /// provably no-ops and skipped. Placement stays bit-identical.
    pub fn install_vacant_pre(
        &mut self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
        value: ConnValue,
    ) -> Result<InsertOutcome, CuckooError> {
        let packed = self.ends.pack(value);
        self.table
            .insert_vacant_pre(key, stage_hashes, match_hash, packed)
    }

    /// Remove an entry on connection close/expiry.
    pub fn remove(&mut self, key: &[u8]) -> Result<ConnValue, CuckooError> {
        self.table.remove(key).map(|p| self.ends.unpack(p))
    }

    /// Relocate a resident entry to another stage (digest-collision repair).
    pub fn relocate(&mut self, key: &[u8]) -> Result<usize, CuckooError> {
        self.table.relocate(key)
    }

    /// Stored connection count.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Provisioned capacity in entries.
    pub fn capacity(&self) -> usize {
        self.table.config().total_slots()
    }

    /// SRAM bytes provisioned (whole geometry, not just occupied entries)
    /// — what Fig 12 reports.
    pub fn provisioned_bytes(&self) -> u64 {
        self.spec.bytes_for(self.capacity() as u64)
    }

    /// SRAM bytes for the *occupied* entries only.
    pub fn occupied_bytes(&self) -> u64 {
        self.spec.bytes_for(self.len() as u64)
    }

    /// Host bytes the software shadow owns (see
    /// [`CuckooTable::host_bytes`]), endpoint lists included: what the
    /// model spends to stand in for [`ConnTable::provisioned_bytes`] of
    /// SRAM.
    pub fn host_bytes(&self) -> usize {
        self.table.host_bytes() + self.ends.vips.host_bytes() + self.ends.dips.host_bytes()
    }

    /// Remove all entries of `vip` — only those pinned to `version` when
    /// one is given — returning them (VIP removal; version-exhaustion
    /// migration to the fallback table). A VIP no record has ever named has
    /// nothing to evict and costs no scan.
    pub fn evict(&mut self, vip: Vip, version: Option<PoolVersion>) -> Vec<(TupleKey, ConnValue)> {
        let Some(vip) = self.ends.vips.id(&vip) else {
            return Vec::new();
        };
        let evicted = self
            .table
            .retain(|_, v| !(v.vip == vip && version.is_none_or(|ver| v.version == ver.0)));
        self.ends.unpack_all(evicted)
    }

    /// Cumulative cuckoo moves (CPU cost diagnostic).
    pub fn total_moves(&self) -> u64 {
        self.table.total_moves()
    }

    /// Digest-shadowing repairs the table could not complete (see
    /// [`CuckooTable::shadow_repair_failed`]): each may leave a resident
    /// connection whose packets false-hit another entry.
    pub fn shadow_repair_failed(&self) -> u64 {
        self.table.shadow_repair_failed()
    }

    /// Full lookups spent keeping residents unshadowed (see
    /// [`CuckooTable::repair_probes`]) — the exact, host-independent cost
    /// of the write path's §4.2 check.
    pub fn repair_probes(&self) -> u64 {
        self.table.repair_probes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sr_types::Addr;

    fn value(ver: u16) -> ConnValue {
        ConnValue {
            vip: Vip(Addr::v4(20, 0, 0, 1, 80)),
            version: PoolVersion(ver),
            dip: Dip(Addr::v4(10, 0, 0, 1, 20)),
            arrived: Nanos::ZERO,
        }
    }

    fn table() -> ConnTable {
        ConnTable::new(&SilkRoadConfig::small_test())
    }

    #[test]
    fn install_lookup_remove() {
        let mut t = table();
        t.install(b"conn-1", value(3)).unwrap();
        let (hit, exact, _) = t.lookup(b"conn-1").unwrap();
        assert!(exact);
        assert_eq!(hit.version, PoolVersion(3));
        assert_eq!(t.len(), 1);
        let removed = t.remove(b"conn-1").unwrap();
        assert_eq!(removed.version, PoolVersion(3));
        assert!(t.is_empty());
    }

    #[test]
    fn roundtrip_with_sram_accounting() {
        let mut t = table();
        assert!(t.capacity() >= 4_096);
        assert!(t.provisioned_bytes() > 0);
        assert_eq!(t.occupied_bytes(), 0);
        t.install(b"key-a", value(1)).unwrap();
        t.install(b"key-b", value(2)).unwrap();
        assert_eq!(t.len(), 2);
        // Two 28-bit entries pack into one 112-bit (14-byte) SRAM word.
        assert_eq!(t.spec().entry_bits(), 28);
        assert_eq!(t.occupied_bytes(), 14);
        assert_eq!(t.lookup(b"key-a").unwrap().0.version, PoolVersion(1));
        assert_eq!(t.remove(b"key-b").unwrap().version, PoolVersion(2));
        assert!(!t.lookup(b"key-b").is_some_and(|(_, exact, _)| exact));
    }

    #[test]
    fn evict_version_filters_precisely() {
        let mut t = table();
        let other_vip = Vip(Addr::v4(20, 0, 0, 2, 80));
        t.install(b"a", value(1)).unwrap();
        t.install(b"b", value(2)).unwrap();
        t.install(
            b"c",
            ConnValue {
                vip: other_vip,
                ..value(1)
            },
        )
        .unwrap();
        let evicted = t.evict(value(1).vip, Some(PoolVersion(1)));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0.as_slice(), b"a");
        assert_eq!(t.len(), 2);
        // A VIP no record ever named: nothing to evict, nothing scanned.
        let stranger = Vip(Addr::v4(20, 0, 0, 3, 80));
        assert!(t.evict(stranger, Some(PoolVersion(1))).is_empty());
        assert!(t.evict(stranger, None).is_empty());
        assert_eq!(t.len(), 2);
        // Without a version, every entry of the VIP goes and no other.
        let evicted = t.evict(value(1).vip, None);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0.as_slice(), b"b");
        assert_eq!(t.len(), 1);
        assert!(t.lookup(b"c").is_some_and(|(_, exact, _)| exact));
    }

    /// The data plane's marking probe: `locate` + `lookup_marking_at`.
    fn lookup_marking(t: &mut ConnTable, key: &[u8]) -> Option<ConnLookup> {
        let stage_hashes: Vec<u64> = t.stage_fns().iter().map(|f| f.hash(key)).collect();
        let (stage, slot) = t.locate(key, &stage_hashes, t.match_fn().hash(key))?;
        Some(t.lookup_marking_at(stage, slot, key))
    }

    #[test]
    fn aging_expires_only_idle_entries() {
        let mut t = table();
        t.install(b"old-idle", value(1)).unwrap();
        t.install(b"old-busy", value(2)).unwrap();
        // First scan at t=1s arms the clock (nothing old enough yet).
        assert!(t.aging_scan(Nanos::from_secs(1)).is_empty());
        // Traffic touches only old-busy.
        assert!(lookup_marking(&mut t, b"old-busy").is_some());
        // A young entry installed after the scan must survive too.
        let mut young = value(3);
        young.arrived = Nanos::from_secs(2);
        t.install(b"young", young).unwrap();
        let expired = t.aging_scan(Nanos::from_secs(120));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0.as_slice(), b"old-idle");
        assert!(t.lookup(b"old-busy").is_some());
        assert!(t.lookup(b"young").is_some());
        // Hit bits reset: old-busy expires next time if untouched.
        let expired = t.aging_scan(Nanos::from_secs(240));
        let keys: Vec<&[u8]> = expired.iter().map(|(k, _)| k.as_slice()).collect();
        assert!(keys.contains(&b"old-busy".as_ref()));
    }

    #[test]
    fn per_stage_digest_mode_roundtrips() {
        let mut cfg = SilkRoadConfig::small_test();
        cfg.digest_bits_per_stage = Some(vec![24, 20, 16, 12]);
        let mut t = ConnTable::new(&cfg);
        for i in 0..500u32 {
            t.install(&i.to_be_bytes(), value(1)).unwrap();
        }
        for i in 0..500u32 {
            assert!(t.lookup(&i.to_be_bytes()).unwrap().1);
        }
    }

    #[test]
    fn memory_accounting_matches_mode() {
        let version_mode = ConnTable::new(&SilkRoadConfig::small_test());
        let mut cfg = SilkRoadConfig::small_test();
        cfg.mapping = ConnMapping::DirectDip;
        let dip_mode = ConnTable::new(&cfg);
        // Direct-DIP entries are far wider: more SRAM for same capacity.
        assert!(dip_mode.provisioned_bytes() > 3 * version_mode.provisioned_bytes());
    }

    fn endpoint(v6: bool, idx: u32, port: u16) -> Addr {
        if v6 {
            Addr::v6_indexed(0x0a0a, idx, port)
        } else {
            Addr::v4_indexed(10, idx, port)
        }
    }

    fn edge_or_any<T: Copy + std::fmt::Debug + 'static>(
        edges: [T; 2],
        any: impl Strategy<Value = T> + 'static,
    ) -> impl Strategy<Value = T> {
        prop_oneof![Just(edges[0]), Just(edges[1]), any]
    }

    fn conn_value() -> impl Strategy<Value = ConnValue> {
        let addr =
            || (any::<bool>(), 0u32..8, any::<u16>()).prop_map(|(v6, i, p)| endpoint(v6, i, p));
        (
            addr(),
            addr(),
            edge_or_any([0, u16::MAX], any::<u16>()),
            edge_or_any([0, u64::MAX], any::<u64>()),
        )
            .prop_map(|(vip, dip, version, arrived)| ConnValue {
                vip: Vip(vip),
                version: PoolVersion(version),
                dip: Dip(dip),
                arrived: Nanos(arrived),
            })
    }

    proptest! {
        /// Whatever mix of v4/v6 endpoints, versions and arrival times a
        /// table has packed, every record unpacks to the value it was
        /// given — including after later values have grown the interners.
        #[test]
        fn pack_unpack_round_trips(vals in proptest::collection::vec(conn_value(), 1..64)) {
            let mut ends = Endpoints::default();
            let packed: Vec<PackedConn> = vals.iter().map(|v| ends.pack(*v)).collect();
            for (v, p) in vals.iter().zip(packed) {
                prop_assert_eq!(ends.unpack(p), *v);
            }
        }
    }

    #[test]
    fn edge_values_and_wide_ids_round_trip_through_the_table() {
        let mut t = table();
        // Both families on both sides, at both ends of version and time.
        for (i, v6) in [(0u32, false), (1, true)] {
            for version in [0, u16::MAX] {
                for arrived in [0, u64::MAX] {
                    let v = ConnValue {
                        vip: Vip(endpoint(v6, i, 80)),
                        version: PoolVersion(version),
                        dip: Dip(endpoint(!v6, i, 20)),
                        arrived: Nanos(arrived),
                    };
                    t.install(b"edge", v).unwrap();
                    assert_eq!(t.lookup(b"edge").unwrap().0, v);
                    assert_eq!(t.remove(b"edge").unwrap(), v);
                }
            }
        }
        // 70 000 distinct DIPs: ids run past what a u16 could name.
        let dip = |i: u32| Dip(endpoint(i % 2 == 1, i, 20));
        let seen = t.ends.dips.items.len() as u32;
        for i in 0..70_000 {
            let v = ConnValue {
                dip: dip(i),
                ..value(1)
            };
            t.install(b"wide", v).unwrap();
            assert_eq!(t.remove(b"wide").unwrap(), v);
        }
        assert_eq!(t.ends.dips.id(&dip(69_999)), Some(seen + 69_999));
        // Ids are stable: removing every record of a DIP and installing it
        // again names it by the id it always had, and grows nothing.
        let (early, bytes) = (t.ends.dips.id(&dip(7)), t.host_bytes());
        t.install(
            b"again",
            ConnValue {
                dip: dip(7),
                ..value(2)
            },
        )
        .unwrap();
        assert_eq!(t.ends.dips.id(&dip(7)), early);
        assert_eq!(t.lookup(b"again").unwrap().0.dip, dip(7));
        assert_eq!(t.host_bytes(), bytes);
    }

    #[test]
    fn host_bytes_per_slot_stay_under_the_budget() {
        // ~62 K slots under a 12-bit digest, filled to load 0.8 with
        // 13-byte v4 keys: the collision classes are as deep as a 16-bit
        // digest's at a million flows (see the same test in
        // `sr_hash::cuckoo`), here with the real packed value in the record.
        let mut cfg = SilkRoadConfig::small_test();
        cfg.conn_capacity = 59_000;
        cfg.digest_bits = 12;
        let mut t = ConnTable::new(&cfg);
        let vip = value(1).vip.0;
        for i in 0..(t.capacity() as u32 * 8 / 10) {
            let tuple = sr_types::FiveTuple::tcp(Addr::v4_indexed(100, i, 1024), vip);
            t.install(TupleKey::new(&tuple).as_slice(), value(1))
                .unwrap();
        }
        let per_slot = t.host_bytes() as f64 / t.capacity() as f64;
        assert!(per_slot <= 100.0, "{per_slot} host bytes per slot");
    }
}
