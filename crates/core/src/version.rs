//! DIP-pool version lifecycle (§4.2).
//!
//! Each VIP owns a small ring of version numbers (2^6 = 64 in the paper).
//! Applying a DIP-pool update creates a *new immutable pool* under a fresh
//! version; connections reference their pool by version, so old connections
//! keep hashing over the pool that existed when they arrived. A version is
//! destroyed — and its number returned to the ring — when its connection
//! refcount drops to zero.
//!
//! **Version reuse**: in a rolling reboot, `Remove(d)` is followed by an
//! `Add(d')` that substitutes for the removed DIP. Instead of burning a new
//! version, the manager reuses a live version whose member set equals the
//! *target* set up to replacing members that are no longer live — those
//! members are substituted in place. Substituting a dead DIP cannot move
//! any live connection (positional hashing; connections pinned to a dead
//! DIP are gone regardless), which is why this is the one sanctioned
//! mutation of an existing pool. Fig 15 quantifies the saving (330 updates
//! → ≤ 51 versions in a 10-min window).
//!
//! **Pools by version number**: the manager keeps one row per ring slot,
//! indexed by the version number — the VIP's share of the ASIC's
//! DIPPoolTable, which a ConnTable hit reads the way an ECMP group table is
//! read, by index. A hit's `version → pool` step is one bounds-checked
//! read, no hash probe. The row table costs `2^version_bits` slots per VIP
//! (1.5 KB at the paper's 6 bits).

use crate::pool::{DipPool, PoolUpdate};
use sr_hash::FxHashMap;
use sr_types::{Dip, PoolVersion, TypeError, Vip};
use std::collections::VecDeque;

/// Outcome of preparing an update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreparedUpdate {
    /// The version that becomes current at commit time.
    pub new_version: PoolVersion,
    /// Whether an existing version was reused instead of allocating.
    pub reused: bool,
}

/// Per-VIP version/pool lifecycle manager.
#[derive(Debug)]
pub struct VersionManager {
    vip: Vip,
    ring_bits: u8,
    reuse_enabled: bool,
    free: VecDeque<PoolVersion>,
    /// Refcount per live version: installed connections + explicit pins.
    refs: FxHashMap<PoolVersion, u64>,
    /// The pool of each live version, at its version number's row; `None`
    /// for free numbers.
    pools: Vec<Option<DipPool>>,
    current: PoolVersion,
    /// Versions newly allocated (Fig 15 "after reuse" ≈ allocations + 1).
    pub allocations: u64,
    /// Updates satisfied by redeeming a removal record.
    pub reuses: u64,
    /// Pool-changing updates applied (Fig 15 "before reuse" baseline).
    pub pool_changes: u64,
    /// Times the ring was empty at allocation (fallback trigger).
    pub exhaustions: u64,
}

impl VersionManager {
    /// Create a manager whose initial pool is `initial` under version 0.
    pub fn new(vip: Vip, initial: DipPool, ring_bits: u8, reuse_enabled: bool) -> VersionManager {
        let ring = 1u32 << ring_bits.min(16);
        let mut free: VecDeque<PoolVersion> = (1..ring).map(|v| PoolVersion(v as u16)).collect();
        free.make_contiguous();
        let mut pools = vec![None; ring as usize];
        pools[0] = Some(initial);
        VersionManager {
            vip,
            ring_bits,
            reuse_enabled,
            free,
            refs: FxHashMap::from_iter([(PoolVersion(0), 0)]),
            pools,
            current: PoolVersion(0),
            allocations: 1, // version 0
            reuses: 0,
            pool_changes: 0,
            exhaustions: 0,
        }
    }

    /// The VIP this manager serves.
    pub fn vip(&self) -> Vip {
        self.vip
    }

    /// The current (newest) version.
    pub fn current_version(&self) -> PoolVersion {
        self.current
    }

    // srlint: hot-path begin
    /// Pool of a live version: the row at its version number.
    #[inline]
    pub fn pool(&self, v: PoolVersion) -> Option<&DipPool> {
        self.pools.get(usize::from(v.0))?.as_ref()
    }
    // srlint: hot-path end

    /// Pool of the current version.
    pub fn current_pool(&self) -> &DipPool {
        self.pool(self.current)
            .expect("current version always has a pool")
    }

    /// Live version count (DIPPoolTable rows for this VIP).
    pub fn live_versions(&self) -> usize {
        self.refs.len()
    }

    /// Total members across live pools (memory accounting).
    pub fn total_pool_members(&self) -> usize {
        self.pools.iter().flatten().map(DipPool::len).sum()
    }

    /// Ring size.
    pub fn ring_size(&self) -> u32 {
        1u32 << self.ring_bits.min(16)
    }

    fn allocate(&mut self) -> Result<PoolVersion, TypeError> {
        // Opportunistic GC: versions can only be destroyed lazily (a
        // refcount that hits zero while the version is current stays live),
        // so sweep before declaring exhaustion.
        if self.free.is_empty() {
            self.sweep();
        }
        match self.free.pop_front() {
            Some(v) => {
                self.allocations += 1;
                self.refs.insert(v, 0);
                Ok(v)
            }
            None => {
                self.exhaustions += 1;
                Err(TypeError::CapacityExceeded {
                    what: "DIP pool version ring",
                })
            }
        }
    }

    /// Find a live non-current version reusable for the `target` member
    /// set: its pool must equal `target` as a multiset after replacing
    /// members that are *dead* (not in `target`) — the substitutions to
    /// perform are returned. Replacing only dead members guarantees no live
    /// connection's mapping moves. Candidates are tried in ascending version
    /// order, so the lowest reusable number is redeemed.
    fn find_reusable(&self, target: &[Dip]) -> Option<(PoolVersion, Vec<(Dip, Dip)>)> {
        let mut target_sorted: Vec<Dip> = target.to_vec();
        target_sorted.sort_unstable();
        let live = self
            .pools
            .iter()
            .enumerate()
            .filter_map(|(v, p)| Some((PoolVersion(u16::try_from(v).ok()?), p.as_ref()?)));
        'candidates: for (v, p) in live {
            if v == self.current || p.len() != target.len() {
                continue;
            }
            // Multiset difference both ways.
            let mut have: Vec<Dip> = p.members().to_vec();
            have.sort_unstable();
            let mut extra_in_v = Vec::new(); // members of v not needed
            let mut missing = Vec::new(); // target members v lacks
            let (mut i, mut j) = (0usize, 0usize);
            while i < have.len() || j < target_sorted.len() {
                match (have.get(i), target_sorted.get(j)) {
                    (Some(a), Some(b)) if a == b => {
                        i += 1;
                        j += 1;
                    }
                    (Some(a), Some(b)) if a < b => {
                        extra_in_v.push(*a);
                        i += 1;
                    }
                    (Some(_), Some(b)) => {
                        missing.push(*b);
                        j += 1;
                    }
                    (Some(a), None) => {
                        extra_in_v.push(*a);
                        i += 1;
                    }
                    (None, Some(b)) => {
                        missing.push(*b);
                        j += 1;
                    }
                    (None, None) => break,
                }
            }
            debug_assert_eq!(extra_in_v.len(), missing.len());
            // Every member we would replace must be dead (absent from the
            // target live set).
            for e in &extra_in_v {
                if target_sorted.binary_search(e).is_ok() {
                    continue 'candidates;
                }
            }
            let subs: Vec<(Dip, Dip)> = extra_in_v.into_iter().zip(missing).collect();
            return Some((v, subs));
        }
        None
    }

    /// Destroy zero-ref non-current versions, returning their numbers to
    /// the ring.
    fn sweep(&mut self) {
        let dead: Vec<PoolVersion> = self
            .refs
            .iter()
            .filter(|(v, c)| **c == 0 && **v != self.current)
            .map(|(v, _)| *v)
            .collect();
        for v in dead {
            self.destroy(v);
        }
    }

    fn destroy(&mut self, v: PoolVersion) {
        self.refs.remove(&v);
        self.pools[usize::from(v.0)] = None;
        self.free.push_back(v);
    }

    /// Prepare an update: create (or reuse) the version that will become
    /// current at commit time. The current version does **not** change yet —
    /// that is the VIPTable flip at `t_exec` of the 3-step protocol.
    ///
    /// Returns `Ok(None)` for no-op updates (removing an absent DIP, adding
    /// a present one).
    pub fn prepare(&mut self, update: PoolUpdate) -> Result<Option<PreparedUpdate>, TypeError> {
        // Derive the target member list.
        let target = match update {
            PoolUpdate::Remove(d) => {
                let (new_pool, slot) = self.current_pool().with_removed(d);
                if slot.is_none() {
                    return Ok(None);
                }
                new_pool
            }
            PoolUpdate::Add(d) => {
                if self.current_pool().contains(&d) {
                    return Ok(None);
                }
                self.current_pool().with_added(d)
            }
        };
        self.pool_changes += 1;
        if self.reuse_enabled {
            if let Some((v, subs)) = self.find_reusable(target.members()) {
                if let Some(Some(pool)) = self.pools.get_mut(usize::from(v.0)) {
                    for (old, new) in subs {
                        pool.substitute(old, new);
                    }
                    self.reuses += 1;
                    return Ok(Some(PreparedUpdate {
                        new_version: v,
                        reused: true,
                    }));
                }
            }
        }
        let v = self.allocate()?;
        self.pools[usize::from(v.0)] = Some(target);
        Ok(Some(PreparedUpdate {
            new_version: v,
            reused: false,
        }))
    }

    /// Commit a prepared update: the VIPTable flip (`t_exec`). The old
    /// current version stays alive while referenced.
    pub fn commit(&mut self, new_version: PoolVersion) {
        debug_assert!(self.refs.contains_key(&new_version));
        self.current = new_version;
        self.sweep_if_cheap();
    }

    fn sweep_if_cheap(&mut self) {
        // Keep the ring topped up without scanning on every refcount change.
        if self.free.len() < 2 {
            self.sweep();
        }
    }

    /// A connection was installed referencing `v`.
    pub fn conn_installed(&mut self, v: PoolVersion) {
        if let Some(c) = self.refs.get_mut(&v) {
            *c += 1;
        }
    }

    /// A connection referencing `v` was removed/expired.
    pub fn conn_removed(&mut self, v: PoolVersion) {
        let destroy = match self.refs.get_mut(&v) {
            Some(c) => {
                *c = c.saturating_sub(1);
                *c == 0 && v != self.current
            }
            None => false,
        };
        if destroy {
            self.destroy(v);
        }
    }

    /// The non-current live version with the fewest references — the
    /// candidate for fallback migration on ring exhaustion.
    pub fn victim_version(&self) -> Option<PoolVersion> {
        self.refs
            .iter()
            .filter(|(v, _)| **v != self.current)
            .min_by_key(|(v, c)| (**c, v.0))
            .map(|(v, _)| *v)
    }

    /// Live versions with their reference counts (diagnostics).
    pub fn versions(&self) -> Vec<(PoolVersion, u64)> {
        let mut v: Vec<(PoolVersion, u64)> = self.refs.iter().map(|(v, c)| (*v, *c)).collect();
        v.sort_unstable_by_key(|(v, _)| v.0);
        v
    }

    /// Pin a version (e.g. the old version during a 3-step update) so it
    /// cannot be destroyed.
    pub fn retain(&mut self, v: PoolVersion) {
        self.conn_installed(v);
    }

    /// Release a pin.
    pub fn release(&mut self, v: PoolVersion) {
        self.conn_removed(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_types::Addr;

    fn dip(i: u8) -> Dip {
        Dip(Addr::v4(10, 0, 0, i, 20))
    }

    fn vip() -> Vip {
        Vip(Addr::v4(20, 0, 0, 1, 80))
    }

    fn mgr(reuse: bool) -> VersionManager {
        VersionManager::new(vip(), DipPool::new(vec![dip(1), dip(2), dip(3)]), 6, reuse)
    }

    #[test]
    fn initial_state() {
        let m = mgr(true);
        assert_eq!(m.current_version(), PoolVersion(0));
        assert_eq!(m.current_pool().len(), 3);
        assert_eq!(m.live_versions(), 1);
        assert_eq!(m.ring_size(), 64);
    }

    #[test]
    fn remove_then_commit_changes_current() {
        let mut m = mgr(true);
        let p = m.prepare(PoolUpdate::Remove(dip(2))).unwrap().unwrap();
        assert!(!p.reused);
        // Not yet committed: current still V0.
        assert_eq!(m.current_version(), PoolVersion(0));
        assert_eq!(m.pool(p.new_version).unwrap().len(), 2);
        m.commit(p.new_version);
        assert_eq!(m.current_version(), p.new_version);
        assert!(!m.current_pool().contains(&dip(2)));
    }

    #[test]
    fn noop_updates_return_none() {
        let mut m = mgr(true);
        assert_eq!(m.prepare(PoolUpdate::Remove(dip(9))).unwrap(), None);
        assert_eq!(m.prepare(PoolUpdate::Add(dip(1))).unwrap(), None);
    }

    #[test]
    fn rolling_reboot_reuses_versions() {
        // Remove(d) then Add(d') must redeem the pre-removal version.
        let mut m = mgr(true);
        let rm = m.prepare(PoolUpdate::Remove(dip(2))).unwrap().unwrap();
        m.commit(rm.new_version);
        let add = m.prepare(PoolUpdate::Add(dip(9))).unwrap().unwrap();
        assert!(add.reused);
        assert_eq!(
            add.new_version,
            PoolVersion(0),
            "redeems the pre-removal version"
        );
        m.commit(add.new_version);
        let pool = m.current_pool();
        assert_eq!(pool.len(), 3);
        assert!(pool.contains(&dip(9)));
        assert!(!pool.contains(&dip(2)));
        assert_eq!(m.reuses, 1);
        // Only 2 allocations ever (V0 + the removal version).
        assert_eq!(m.allocations, 2);
    }

    #[test]
    fn long_rolling_reboot_bounded_versions() {
        // 100 remove/add cycles with reuse: version usage stays tiny.
        let mut m = mgr(true);
        for i in 0..100u8 {
            let rm = m
                .prepare(PoolUpdate::Remove(dip(1 + (i % 3))))
                .unwrap()
                .unwrap();
            m.commit(rm.new_version);
            let add = m
                .prepare(PoolUpdate::Add(dip(1 + (i % 3))))
                .unwrap()
                .unwrap();
            assert!(add.reused, "cycle {i} failed to reuse");
            m.commit(add.new_version);
        }
        assert_eq!(m.pool_changes, 200);
        assert!(m.allocations <= 5, "allocations {}", m.allocations);
    }

    #[test]
    fn without_reuse_every_update_allocates() {
        let mut m = mgr(false);
        for _ in 0..5 {
            let rm = m.prepare(PoolUpdate::Remove(dip(1))).unwrap().unwrap();
            m.commit(rm.new_version);
            let add = m.prepare(PoolUpdate::Add(dip(1))).unwrap().unwrap();
            assert!(!add.reused);
            m.commit(add.new_version);
        }
        assert_eq!(m.allocations, 11); // V0 + 10 updates
    }

    #[test]
    fn interleaved_rolling_batch() {
        // Remove d1, remove d2, add x, add y: both adds reuse, and the
        // final live set is {d3, x, y}.
        let mut m = mgr(true);
        let r1 = m.prepare(PoolUpdate::Remove(dip(1))).unwrap().unwrap();
        m.commit(r1.new_version);
        let r2 = m.prepare(PoolUpdate::Remove(dip(2))).unwrap().unwrap();
        m.commit(r2.new_version);
        let a1 = m.prepare(PoolUpdate::Add(dip(7))).unwrap().unwrap();
        assert!(a1.reused);
        m.commit(a1.new_version);
        let a2 = m.prepare(PoolUpdate::Add(dip(8))).unwrap().unwrap();
        assert!(a2.reused);
        m.commit(a2.new_version);
        let members: Vec<Dip> = m.current_pool().members().to_vec();
        assert_eq!(members.len(), 3);
        assert!(members.contains(&dip(3)));
        assert!(members.contains(&dip(7)));
        assert!(members.contains(&dip(8)));
        assert!(!members.contains(&dip(1)) && !members.contains(&dip(2)));
    }

    #[test]
    fn reuse_redeems_the_lowest_reusable_version() {
        // Build, with reuse off, two pinned non-current versions that are
        // both reusable for one target: V0 = [d1, d2, d3] and
        // V2 = [d1, d2, d5], current V3 = [d1, d2].
        let mut m = mgr(false);
        let v0 = m.current_version();
        m.retain(v0);
        let r = m.prepare(PoolUpdate::Remove(dip(3))).unwrap().unwrap();
        m.commit(r.new_version);
        let a = m.prepare(PoolUpdate::Add(dip(5))).unwrap().unwrap();
        m.retain(a.new_version);
        m.commit(a.new_version);
        let r = m.prepare(PoolUpdate::Remove(dip(5))).unwrap().unwrap();
        m.commit(r.new_version);
        assert_eq!(a.new_version, PoolVersion(2));
        // Add(d7) targets [d1, d2, d7]: redeeming V0 substitutes its dead
        // d3, redeeming V2 its dead d5. DESIGN §8's safety rule holds for
        // either choice (only dead members are replaced); the walk in
        // ascending version order picks V0, which pins the choice so runs
        // reproduce.
        m.reuse_enabled = true;
        let p = m.prepare(PoolUpdate::Add(dip(7))).unwrap().unwrap();
        assert!(p.reused);
        assert_eq!(p.new_version, v0);
        assert_eq!(m.pool(v0).unwrap().members(), &[dip(1), dip(2), dip(7)]);
        assert_eq!(
            m.pool(a.new_version).unwrap().members(),
            &[dip(1), dip(2), dip(5)],
            "the other candidate is untouched"
        );
    }

    #[test]
    fn plain_add_invalidates_records() {
        let mut m = mgr(true);
        let r = m.prepare(PoolUpdate::Remove(dip(1))).unwrap().unwrap();
        m.commit(r.new_version);
        // A capacity-expansion add (not substituting anything) must not be
        // treated as a reboot return... it *will* redeem (the manager can't
        // tell intent apart) — that is the paper's semantics too: any added
        // DIP substitutes the most recent removal. But a SECOND plain add
        // with no outstanding removal allocates and clears stale records.
        let a1 = m.prepare(PoolUpdate::Add(dip(7))).unwrap().unwrap();
        assert!(a1.reused);
        m.commit(a1.new_version);
        let a2 = m.prepare(PoolUpdate::Add(dip(8))).unwrap().unwrap();
        assert!(!a2.reused);
        m.commit(a2.new_version);
        assert_eq!(m.current_pool().len(), 4);
    }

    #[test]
    fn refcount_lifecycle_returns_versions() {
        let mut m = mgr(true);
        let v0 = m.current_version();
        let r = m.prepare(PoolUpdate::Remove(dip(1))).unwrap().unwrap();
        m.commit(r.new_version);
        // One connection still references V0.
        m.conn_installed(v0);
        assert_eq!(m.live_versions(), 2);
        // Connection leaves: V0 is non-current with zero refs -> destroyed.
        m.conn_removed(v0);
        assert_eq!(m.live_versions(), 1);
        assert!(m.pool(v0).is_none());
    }

    #[test]
    fn current_version_survives_zero_refs() {
        let mut m = mgr(true);
        let v0 = m.current_version();
        m.conn_installed(v0);
        m.conn_removed(v0);
        assert!(
            m.pool(v0).is_some(),
            "current version must never be destroyed"
        );
    }

    #[test]
    fn pin_prevents_destruction() {
        let mut m = mgr(true);
        let v0 = m.current_version();
        let r = m.prepare(PoolUpdate::Remove(dip(1))).unwrap().unwrap();
        m.retain(v0); // pinned by the in-flight update
        m.commit(r.new_version);
        m.conn_installed(v0);
        m.conn_removed(v0);
        assert!(m.pool(v0).is_some());
        m.release(v0);
        assert!(m.pool(v0).is_none());
    }

    #[test]
    fn ring_exhaustion_reported() {
        // Ring of 2 (1-bit versions), reuse disabled, every version pinned.
        let mut m = VersionManager::new(vip(), DipPool::new(vec![dip(1), dip(2)]), 1, false);
        let p1 = m.prepare(PoolUpdate::Remove(dip(1))).unwrap().unwrap();
        m.retain(p1.new_version);
        m.commit(p1.new_version);
        // V0 is unpinned and non-current: the sweep recycles it here.
        let p2 = m.prepare(PoolUpdate::Add(dip(1))).unwrap().unwrap();
        m.retain(p2.new_version);
        m.commit(p2.new_version);
        // Both versions pinned: the ring is exhausted.
        assert!(m.prepare(PoolUpdate::Remove(dip(1))).is_err());
        assert_eq!(m.exhaustions, 1);
    }

    #[test]
    fn exhaustion_recovers_after_release() {
        let mut m = VersionManager::new(vip(), DipPool::new(vec![dip(1), dip(2)]), 1, false);
        let p1 = m.prepare(PoolUpdate::Remove(dip(1))).unwrap().unwrap();
        m.retain(p1.new_version);
        m.commit(p1.new_version);
        let p2 = m.prepare(PoolUpdate::Add(dip(1))).unwrap().unwrap();
        m.retain(p2.new_version);
        m.commit(p2.new_version);
        assert!(m.prepare(PoolUpdate::Remove(dip(1))).is_err());
        // Release the non-current pinned version; allocation works again.
        m.release(p1.new_version);
        assert!(m.prepare(PoolUpdate::Remove(dip(1))).unwrap().is_some());
    }
}
