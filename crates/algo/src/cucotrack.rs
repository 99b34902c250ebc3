//! CuCoTrack-style cuckoo-filter connection tracking.
//!
//! Instead of SilkRoad's 16-bit digest + 6-bit version entries, CuCoTrack
//! stores an 8-bit *fingerprint* + version in a 2-way, 4-slot-per-bucket
//! cuckoo filter — 20 bits/entry to SilkRoad's 28. The price is a much
//! higher aliasing probability: two flows hashing to the same bucket with
//! the same fingerprint are indistinguishable to the ASIC, and the second
//! flow is steered by the first flow's entry.
//!
//! This implementation refuses to launder that: every slot carries the full
//! key as an **audit oracle** (modeling the switch-CPU shadow the real
//! design keeps — it is *not* counted in [`ConnState::state_bytes`]), and
//! every fingerprint match is audited against it. A mismatch is counted in
//! [`CuckooFilterState::fp_collisions`] and surfaced as `exact: false` —
//! the packet is still steered by the aliased entry (as the hardware
//! would), so the PCC damage shows up honestly in the comparison matrix.

use crate::cost::{conn_entry_bits, ConnStateDesign};
use crate::engine::AlgoEngine;
use crate::hashes::ConnHashes;
use crate::state::{ConnHit, ConnRecord, ConnState, StateFull};
use crate::steer::StatefulSteering;
use sr_asic::sram::SramSpec;
use sr_types::{AddrFamily, Duration, Nanos, TupleKey};

/// Slots per bucket (the classic (2,4) cuckoo-filter geometry).
const SLOTS_PER_BUCKET: usize = 4;

/// Bounded kick chain before an insert is declared failed.
const MAX_KICKS: usize = 32;

#[derive(Clone, Copy)]
struct Slot {
    fp: u16,
    /// Audit oracle: the flow the entry was installed for. Switch-CPU
    /// memory in the real design; never counted as SRAM.
    key: TupleKey,
    record: ConnRecord,
    touched: Nanos,
    /// The slot's two candidate buckets (for kick relocation).
    buckets: [u32; 2],
}

/// A 2-way cuckoo-filter [`ConnState`] with fingerprint false-positive
/// accounting.
pub struct CuckooFilterState {
    buckets: Vec<[Option<Slot>; SLOTS_PER_BUCKET]>,
    bucket_mask: u64,
    fp_bits: u8,
    version_bits: u8,
    family: AddrFamily,
    idle_timeout: Duration,
    live: usize,
    fp_collisions: u64,
    kick_seed: u64,
}

impl CuckooFilterState {
    /// Build with capacity for roughly `capacity` entries at the given
    /// fingerprint width. Capacity is rounded up to a power-of-two bucket
    /// count.
    pub fn new(
        capacity: usize,
        fp_bits: u8,
        version_bits: u8,
        family: AddrFamily,
        idle_timeout: Duration,
    ) -> CuckooFilterState {
        assert!(
            (1..=16).contains(&fp_bits),
            "fingerprint width {fp_bits} out of 1..=16"
        );
        let want = capacity.div_ceil(SLOTS_PER_BUCKET).max(2);
        let buckets = want.next_power_of_two();
        CuckooFilterState {
            buckets: vec![[None; SLOTS_PER_BUCKET]; buckets],
            bucket_mask: buckets as u64 - 1,
            fp_bits,
            version_bits,
            family,
            idle_timeout,
            live: 0,
            fp_collisions: 0,
            kick_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Audited fingerprint collisions: lookups that matched a fingerprint
    /// installed for a *different* flow.
    pub fn fp_collisions(&self) -> u64 {
        self.fp_collisions
    }

    /// Fingerprint width in bits.
    pub fn fp_bits(&self) -> u8 {
        self.fp_bits
    }

    fn fingerprint(&self, hashes: &ConnHashes) -> u16 {
        let mask = (1u32 << self.fp_bits) - 1;
        // Fingerprint 0 is reserved as "no clue either way"; remap to keep
        // every stored fingerprint nonzero without biasing the range much.
        let fp = (hashes.match_hash() as u32) & mask;
        if fp == 0 {
            1
        } else {
            fp as u16
        }
    }

    fn bucket_pair(&self, hashes: &ConnHashes, fp: u16) -> [u32; 2] {
        let lanes = hashes.stage_hashes();
        let b0 = lanes.first().copied().unwrap_or(hashes.match_hash()) & self.bucket_mask;
        // Partial-key displacement: the alternate bucket is derived from
        // the first and the fingerprint, so relocation needs only the slot.
        let b1 = (b0 ^ sr_hash::splitmix64(u64::from(fp))) & self.bucket_mask;
        [b0 as u32, b1 as u32]
    }

    /// The first slot of `buckets` holding fingerprint `fp`: the entry the
    /// ASIC matches, whoever it was installed for.
    fn matching_slot(&self, buckets: [u32; 2], fp: u16) -> Option<(usize, usize)> {
        buckets.iter().find_map(|&b| {
            let b = b as usize;
            let i = self
                .buckets
                .get(b)?
                .iter()
                .position(|s| s.as_ref().is_some_and(|s| s.fp == fp))?;
            Some((b, i))
        })
    }

    /// [`CuckooFilterState::matching_slot`], counting the match as a
    /// collision when it was installed for another key.
    fn slot_scan(&mut self, buckets: [u32; 2], fp: u16, key: &TupleKey) -> Option<(usize, usize)> {
        let (b, i) = self.matching_slot(buckets, fp)?;
        if self.slot(b, i).is_some_and(|s| &s.key != key) {
            self.fp_collisions += 1;
        }
        Some((b, i))
    }

    fn slot(&self, b: usize, i: usize) -> Option<&Slot> {
        self.buckets.get(b)?.get(i)?.as_ref()
    }
}

impl ConnState for CuckooFilterState {
    fn lookup(&mut self, key: &TupleKey, hashes: &ConnHashes) -> Option<ConnHit> {
        let fp = self.fingerprint(hashes);
        let buckets = self.bucket_pair(hashes, fp);
        let (b, i) = self.slot_scan(buckets, fp, key)?;
        let slot = self.slot(b, i)?;
        Some(ConnHit {
            record: slot.record,
            exact: &slot.key == key,
        })
    }

    fn insert(
        &mut self,
        key: &TupleKey,
        hashes: &ConnHashes,
        record: ConnRecord,
    ) -> Result<(), StateFull> {
        let fp = self.fingerprint(hashes);
        let buckets = self.bucket_pair(hashes, fp);
        let mut incoming = Slot {
            fp,
            key: *key,
            record,
            touched: record.arrived,
            buckets,
        };
        // Try both candidate buckets, then kick.
        for &b in &buckets {
            if let Some(bucket) = self.buckets.get_mut(b as usize) {
                if let Some(empty) = bucket.iter_mut().find(|s| s.is_none()) {
                    *empty = Some(incoming);
                    self.live += 1;
                    return Ok(());
                }
            }
        }
        let mut at = buckets[1] as usize;
        for _ in 0..MAX_KICKS {
            self.kick_seed = sr_hash::splitmix64(self.kick_seed);
            let victim_idx = (self.kick_seed as usize) % SLOTS_PER_BUCKET;
            let Some(bucket) = self.buckets.get_mut(at) else {
                return Err(StateFull);
            };
            let Some(victim_slot) = bucket.get_mut(victim_idx) else {
                return Err(StateFull);
            };
            let Some(victim) = victim_slot.replace(incoming) else {
                // Raced onto an empty slot: done.
                self.live += 1;
                return Ok(());
            };
            // Send the victim to its other candidate bucket.
            let other = if victim.buckets[0] as usize == at {
                victim.buckets[1] as usize
            } else {
                victim.buckets[0] as usize
            };
            if let Some(dest) = self.buckets.get_mut(other) {
                if let Some(empty) = dest.iter_mut().find(|s| s.is_none()) {
                    *empty = Some(victim);
                    self.live += 1;
                    return Ok(());
                }
            }
            incoming = victim;
            at = other;
        }
        // Kick budget exhausted: the entry in hand is evicted (one flow
        // lost its state for the one that displaced it — net occupancy is
        // unchanged) and the caller learns the structure is at pressure.
        Err(StateFull)
    }

    /// Refresh the entry a lookup of `key` matches — on an aliased hit,
    /// the twin that answered. Only the key's two buckets are read.
    fn touch(&mut self, _key: &TupleKey, hashes: &ConnHashes, now: Nanos) {
        let fp = self.fingerprint(hashes);
        let buckets = self.bucket_pair(hashes, fp);
        let matched = self.matching_slot(buckets, fp);
        if let Some(Some(s)) = matched.and_then(|(b, i)| self.buckets.get_mut(b)?.get_mut(i)) {
            s.touched = now;
        }
    }

    /// Remove `key`'s own entry, looking only in its two buckets.
    fn remove(&mut self, key: &TupleKey, hashes: &ConnHashes) -> Option<ConnRecord> {
        let fp = self.fingerprint(hashes);
        let buckets = self.bucket_pair(hashes, fp);
        for b in buckets {
            let Some(bucket) = self.buckets.get_mut(b as usize) else {
                continue;
            };
            if let Some(slot) = bucket
                .iter_mut()
                .find(|s| s.as_ref().is_some_and(|s| &s.key == key))
            {
                let record = slot.take()?.record;
                self.live -= 1;
                return Some(record);
            }
        }
        None
    }

    fn expire_idle(&mut self, now: Nanos) -> usize {
        let timeout = self.idle_timeout;
        let mut evicted = 0;
        for bucket in self.buckets.iter_mut() {
            for slot in bucket.iter_mut() {
                if let Some(s) = slot {
                    if now.since(s.touched) >= timeout {
                        *slot = None;
                        evicted += 1;
                    }
                }
            }
        }
        self.live -= evicted;
        evicted
    }

    fn entries(&self) -> usize {
        self.live
    }

    fn state_bytes(&self) -> u64 {
        SramSpec {
            entry_bits: conn_entry_bits(self.design(), self.family),
        }
        .bytes_for(self.live as u64)
    }

    fn design(&self) -> ConnStateDesign {
        ConnStateDesign::Fingerprint {
            fp_bits: self.fp_bits,
            version_bits: self.version_bits,
        }
    }
}

/// The assembled CuCoTrack engine: cuckoo-filter state + fully stateful
/// versioned-pool steering (every flow pinned, like SilkRoad).
pub type CucotrackLb = AlgoEngine<CuckooFilterState, StatefulSteering>;

/// Build a [`CucotrackLb`] with SilkRoad-comparable parameters. The
/// engine's two bucket-hash lanes feed the filter's 2-way geometry.
pub fn cucotrack_lb(
    seed: u64,
    family: AddrFamily,
    capacity: usize,
    idle_timeout: Duration,
) -> CucotrackLb {
    let conn = CuckooFilterState::new(capacity, 8, 6, family, idle_timeout);
    AlgoEngine::new(conn, StatefulSteering::new(6), seed, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AlgoHasher;
    use sr_types::{Addr, Dip, FiveTuple, PoolVersion, Vip};

    fn rec(i: u8) -> ConnRecord {
        ConnRecord {
            vip: Vip(Addr::v4(20, 0, 0, 1, 80)),
            version: PoolVersion(0),
            dip: Dip(Addr::v4(10, 0, 0, i, 20)),
            arrived: Nanos(0),
        }
    }

    fn key(g: u32) -> TupleKey {
        FiveTuple::tcp(Addr::v4_indexed(100, g, 1024), Addr::v4(20, 0, 0, 1, 80)).tuple_key()
    }

    fn filter(cap: usize) -> (CuckooFilterState, AlgoHasher) {
        (
            CuckooFilterState::new(cap, 8, 6, AddrFamily::V4, Duration::from_secs(30)),
            AlgoHasher::new(7, 2),
        )
    }

    #[test]
    fn round_trip_and_density() {
        let (mut f, h) = filter(1024);
        for g in 0..100 {
            let k = key(g);
            let (hashes, _) = h.hash(&k);
            f.insert(&k, &hashes, rec((g % 250) as u8)).unwrap();
        }
        assert_eq!(f.entries(), 100);
        let k = key(5);
        let (hashes, _) = h.hash(&k);
        let hit = f.lookup(&k, &hashes).unwrap();
        assert!(hit.exact);
        assert_eq!(hit.record.dip, rec(5).dip);
        // 20-bit entries: 5 per 112-bit word => 100 entries = 20 words.
        assert_eq!(f.state_bytes(), 20 * 14);
    }

    #[test]
    fn collisions_are_counted_never_silent() {
        // Tiny filter + 8-bit fingerprints: aliases are guaranteed across
        // a few thousand distinct probe keys.
        let (mut f, h) = filter(64);
        for g in 0..60 {
            let k = key(g);
            let (hashes, _) = h.hash(&k);
            let _ = f.insert(&k, &hashes, rec(1));
        }
        let mut aliased = 0u64;
        for g in 1000..6000 {
            let k = key(g);
            let (hashes, _) = h.hash(&k);
            if let Some(hit) = f.lookup(&k, &hashes) {
                assert!(!hit.exact, "probe keys were never inserted");
                aliased += 1;
            }
        }
        assert!(aliased > 0, "expected aliases in a dense 8-bit filter");
        assert_eq!(f.fp_collisions(), aliased, "every alias must be counted");
    }

    #[test]
    fn touch_on_an_aliased_hit_refreshes_the_entry_that_answered() {
        // One resident; a never-inserted probe that aliases onto it.
        let (mut f, h) = filter(64);
        let k = key(1);
        let (hashes, _) = h.hash(&k);
        f.insert(&k, &hashes, rec(1)).unwrap();
        let (probe, probe_hashes) = (1000..100_000)
            .map(|g| (key(g), h.hash(&key(g)).0))
            .find(|(p, ph)| f.lookup(p, ph).is_some())
            .expect("a probe aliases onto the lone resident");
        // The probe's hit keeps the answering entry alive past the idle
        // timeout (30 s) it would otherwise reach.
        f.touch(&probe, &probe_hashes, Nanos::from_secs(20));
        assert_eq!(f.expire_idle(Nanos::from_secs(40)), 0);
        assert!(f.lookup(&k, &hashes).is_some_and(|hit| hit.exact));
        // Closing the probe's flow removes nothing: it holds no entry.
        assert!(f.remove(&probe, &probe_hashes).is_none());
        assert_eq!(f.entries(), 1);
        assert_eq!(f.expire_idle(Nanos::from_secs(60)), 1);
    }

    #[test]
    fn remove_frees_the_slot() {
        let (mut f, h) = filter(64);
        let k = key(1);
        let (hashes, _) = h.hash(&k);
        f.insert(&k, &hashes, rec(1)).unwrap();
        assert_eq!(f.remove(&k, &hashes).unwrap().dip, rec(1).dip);
        assert_eq!(f.entries(), 0);
        assert!(f.lookup(&k, &hashes).is_none());
    }

    #[test]
    fn fills_beyond_two_choices_via_kicks() {
        let (mut f, h) = filter(32);
        let mut inserted = 0;
        for g in 0..32 {
            let k = key(g);
            let (hashes, _) = h.hash(&k);
            if f.insert(&k, &hashes, rec(1)).is_ok() {
                inserted += 1;
            }
        }
        assert!(inserted >= 24, "kicks should pack well: {inserted}/32");
        assert_eq!(f.entries(), inserted);
    }

    #[test]
    fn idle_entries_expire() {
        let (mut f, h) = filter(64);
        let k = key(1);
        let (hashes, _) = h.hash(&k);
        f.insert(&k, &hashes, rec(1)).unwrap();
        assert_eq!(f.expire_idle(Nanos::from_secs(31)), 1);
        assert_eq!(f.entries(), 0);
    }
}
