//! ConnTable — the per-connection state table (§4.2).
//!
//! The ASIC-resident exact-match table keyed by a 16-bit digest of the
//! 5-tuple. Action data is the DIP-pool version (6 bits) in the paper's
//! design, or the DIP itself in the §4.2 fallback mode. The software shadow
//! (full keys, arrival times) rides along in the entry value — the real
//! switch keeps the same information in CPU memory.

use crate::config::{ConnMapping, SilkRoadConfig};
use sr_asic::table::{MatchMode, TableSpec};
use sr_hash::cuckoo::{CuckooError, CuckooTable, InsertOutcome, LookupHit};
use sr_types::{Nanos, PoolVersion, TupleKey, Vip};

/// Value stored per connection — field-for-field the algorithm boundary's
/// [`sr_algo::ConnRecord`] (vip, pinned version, learn-time DIP, arrival
/// time), so SilkRoad's table plugs into the zoo without translation.
pub type ConnValue = sr_algo::ConnRecord;

/// The ConnTable.
pub struct ConnTable {
    /// The multi-stage cuckoo store (behaviour).
    table: CuckooTable<ConnValue>,
    /// The on-chip entry layout (SRAM cost).
    spec: TableSpec,
    mapping: ConnMapping,
    /// When the last aging scan ran.
    last_scan: Nanos,
}

/// A marking lookup's owned result (see [`ConnTable::lookup_marking`]).
fn marked(hit: LookupHit<'_, ConnValue>) -> (ConnValue, bool, Option<TupleKey>) {
    let resident = (!hit.exact).then(|| TupleKey::from_bytes(hit.resident_key));
    (*hit.value, hit.exact, resident)
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

    /// ASIC lookup.
    pub fn lookup(&self, key: &[u8]) -> Option<LookupHit<'_, ConnValue>> {
        self.table.lookup(key)
    }

    /// [`ConnTable::lookup`] from precomputed hashes (the batched install
    /// path's collision pre-check).
    pub fn lookup_pre(
        &self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
    ) -> Option<LookupHit<'_, ConnValue>> {
        self.table.lookup_pre(key, stage_hashes, match_hash)
    }

    /// ASIC lookup that also sets the entry's hit bit on an exact match
    /// (the data-plane path; plain `lookup` is for software inspection).
    ///
    /// Returns `(value, exact, resident)` where `resident` carries the
    /// resident entry's key *only on a false hit* (the repair path needs it
    /// to relocate the resident); exact hits copy no key.
    pub fn lookup_marking(&mut self, key: &[u8]) -> Option<(ConnValue, bool, Option<TupleKey>)> {
        self.table.lookup_marking(key).map(marked)
    }

    /// [`ConnTable::lookup_marking`] from precomputed hashes (the hash-once
    /// packet path): `stage_hashes[i]` is `stage_fns()[i]` over the key,
    /// `match_hash` is `match_fn()` over the key.
    pub fn lookup_marking_pre(
        &mut self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
    ) -> Option<(ConnValue, bool, Option<TupleKey>)> {
        self.table
            .lookup_marking_pre(key, stage_hashes, match_hash)
            .map(marked)
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

    /// First half of a split marking lookup: the `(stage, slot)` a prehashed
    /// probe would hit, with the entry's cache line already warming. No side
    /// effects; resolve with [`ConnTable::lookup_marking_at`] before the
    /// next table mutation (install, remove, relocate, aging).
    pub fn locate(&self, key: &[u8], stage_hashes: &[u64], match_hash: u64) -> Option<(u32, u32)> {
        self.table.locate_pre(key, stage_hashes, match_hash)
    }

    /// Second half of a split marking lookup — same result and side effects
    /// (hit bit on exact match) as [`ConnTable::lookup_marking_pre`] at the
    /// located coordinates.
    pub fn lookup_marking_at(
        &mut self,
        stage: u32,
        slot: u32,
        key: &[u8],
    ) -> (ConnValue, bool, Option<TupleKey>) {
        marked(self.table.lookup_marking_at(stage, slot, key))
    }

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
    pub fn aging_scan(&mut self, now: Nanos) -> Vec<(Box<[u8]>, ConnValue)> {
        let cutoff = self.last_scan;
        let expired = self
            .table
            .retain_hits(|_, v, hit| v.arrived >= cutoff || hit);
        self.last_scan = now;
        expired
    }

    /// Time of the last aging scan.
    pub fn last_scan(&self) -> Nanos {
        self.last_scan
    }

    /// Install an entry (software path; timing is modelled by the CPU).
    pub fn install(&mut self, key: &[u8], value: ConnValue) -> Result<InsertOutcome, CuckooError> {
        self.table.insert(key, value)
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
        self.table.insert_pre(key, stage_hashes, match_hash, value)
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
        self.table
            .insert_vacant_pre(key, stage_hashes, match_hash, value)
    }

    /// Remove an entry on connection close/expiry.
    pub fn remove(&mut self, key: &[u8]) -> Result<ConnValue, CuckooError> {
        self.table.remove(key)
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

    /// Remove all entries pinned to `version` of `vip`, returning them
    /// (version-exhaustion migration to the fallback table).
    pub fn evict_version(&mut self, vip: Vip, version: PoolVersion) -> Vec<(Box<[u8]>, ConnValue)> {
        self.table
            .retain(|_, v| !(v.vip == vip && v.version == version))
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
    use sr_types::{Addr, Dip};

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
        let hit = t.lookup(b"conn-1").unwrap();
        assert!(hit.exact);
        assert_eq!(hit.value.version, PoolVersion(3));
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
        assert_eq!(t.lookup(b"key-a").unwrap().value.version, PoolVersion(1));
        assert_eq!(t.remove(b"key-b").unwrap().version, PoolVersion(2));
        assert!(!t.lookup(b"key-b").is_some_and(|hit| hit.exact));
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
        let evicted = t.evict_version(value(1).vip, PoolVersion(1));
        assert_eq!(evicted.len(), 1);
        assert_eq!(&*evicted[0].0, b"a");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn aging_expires_only_idle_entries() {
        let mut t = table();
        t.install(b"old-idle", value(1)).unwrap();
        t.install(b"old-busy", value(2)).unwrap();
        // First scan at t=1s arms the clock (nothing old enough yet).
        assert!(t.aging_scan(Nanos::from_secs(1)).is_empty());
        // Traffic touches only old-busy.
        assert!(t.lookup_marking(b"old-busy").is_some());
        // A young entry installed after the scan must survive too.
        let mut young = value(3);
        young.arrived = Nanos::from_secs(2);
        t.install(b"young", young).unwrap();
        let expired = t.aging_scan(Nanos::from_secs(120));
        assert_eq!(expired.len(), 1);
        assert_eq!(&*expired[0].0, b"old-idle");
        assert!(t.lookup(b"old-busy").is_some());
        assert!(t.lookup(b"young").is_some());
        // Hit bits reset: old-busy expires next time if untouched.
        let expired = t.aging_scan(Nanos::from_secs(240));
        let keys: Vec<&[u8]> = expired.iter().map(|(k, _)| k.as_ref()).collect();
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
            assert!(t.lookup(&i.to_be_bytes()).unwrap().exact);
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
}
