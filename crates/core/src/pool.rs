//! DIP pools (§4.2).
//!
//! A [`DipPool`] is the member list behind one `(VIP, version)` pair. Pools
//! use **positional hashing**: a connection's DIP is
//! `members[scale(hash(5-tuple), len)]`, so a pool's mapping is a pure
//! function of its member vector. Once a version has live connections its
//! pool never changes — with the single documented exception of *version
//! reuse*, which substitutes a dead (removed) DIP in place, leaving every
//! live connection's slot untouched.

use sr_hash::FxHashMap;
use sr_hash::{ecmp_select, HashFn};
use sr_types::{Dip, FiveTuple, PoolVersion, Vip};

/// One operator-requested DIP-pool change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolUpdate {
    /// Add a DIP (provisioning, or a rebooted DIP returning).
    Add(Dip),
    /// Remove a DIP (failure, upgrade reboot, preemption, removal).
    Remove(Dip),
}

/// An immutable-membership DIP pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DipPool {
    members: Vec<Dip>,
}

impl DipPool {
    /// Build a pool from a member list.
    pub fn new(members: Vec<Dip>) -> DipPool {
        DipPool { members }
    }

    /// The member list.
    pub fn members(&self) -> &[Dip] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `dip` is a member.
    pub fn contains(&self, dip: &Dip) -> bool {
        self.members.contains(dip)
    }

    /// Select the DIP for a connection by positional hashing.
    pub fn select(&self, tuple: &FiveTuple, hasher: &HashFn) -> Option<Dip> {
        self.select_hashed(hasher.hash(tuple.tuple_key().as_slice()))
    }

    // srlint: hot-path begin
    /// [`DipPool::select`] from an already-computed select hash (the
    /// hash-once packet path).
    #[inline]
    pub fn select_hashed(&self, hash: u64) -> Option<Dip> {
        let idx = ecmp_select(hash, self.members.len())?;
        self.members.get(idx).copied()
    }
    // srlint: hot-path end

    /// Pool with `dip` appended (the `Add` derivation).
    pub fn with_added(&self, dip: Dip) -> DipPool {
        let mut members = self.members.clone();
        members.push(dip);
        DipPool { members }
    }

    /// Pool with `dip` removed, order of the rest preserved (the `Remove`
    /// derivation). Returns the removed slot index if present.
    pub fn with_removed(&self, dip: Dip) -> (DipPool, Option<usize>) {
        match self.members.iter().position(|d| *d == dip) {
            Some(i) => {
                let mut members = self.members.clone();
                members.remove(i);
                (DipPool { members }, Some(i))
            }
            None => (self.clone(), None),
        }
    }

    /// In-place substitution `old -> new` (version reuse; see module docs).
    /// Returns whether a substitution happened.
    pub fn substitute(&mut self, old: Dip, new: Dip) -> bool {
        let mut hit = false;
        for m in &mut self.members {
            if *m == old {
                *m = new;
                hit = true;
            }
        }
        hit
    }
}

/// `(VIP, version) -> DipPool`, hash-mapped: the replay structure the
/// benchmark's `pool.select` layer times. The switch no longer uses it —
/// each VIP's [`crate::version::VersionManager`] holds its pools in a row
/// per version number, read by index like the ASIC's DIPPoolTable.
#[derive(Default, Debug)]
pub struct DipPoolTable {
    pools: FxHashMap<(Vip, PoolVersion), DipPool>,
}

impl DipPoolTable {
    /// Empty table.
    pub fn new() -> DipPoolTable {
        DipPoolTable::default()
    }

    /// Install a pool for `(vip, version)`.
    pub fn insert(&mut self, vip: Vip, version: PoolVersion, pool: DipPool) {
        self.pools.insert((vip, version), pool);
    }

    /// Fetch a pool.
    pub fn get(&self, vip: Vip, version: PoolVersion) -> Option<&DipPool> {
        self.pools.get(&(vip, version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_types::Addr;

    fn dip(i: u8) -> Dip {
        Dip(Addr::v4(10, 0, 0, i, 20))
    }

    fn conn(p: u16) -> FiveTuple {
        FiveTuple::tcp(Addr::v4(1, 2, 3, 4, p), Addr::v4(20, 0, 0, 1, 80))
    }

    #[test]
    fn select_is_deterministic_and_in_pool() {
        let pool = DipPool::new(vec![dip(1), dip(2), dip(3)]);
        let h = HashFn::new(1);
        for p in 0..100 {
            let d = pool.select(&conn(p), &h).unwrap();
            assert!(pool.contains(&d));
            assert_eq!(pool.select(&conn(p), &h), Some(d));
        }
    }

    #[test]
    fn empty_pool_selects_none() {
        let pool = DipPool::new(vec![]);
        assert_eq!(pool.select(&conn(1), &HashFn::new(0)), None);
        assert!(pool.is_empty());
    }

    #[test]
    fn derivations() {
        let pool = DipPool::new(vec![dip(1), dip(2)]);
        let added = pool.with_added(dip(3));
        assert_eq!(added.len(), 3);
        let (removed, slot) = added.with_removed(dip(2));
        assert_eq!(slot, Some(1));
        assert_eq!(removed.members(), &[dip(1), dip(3)]);
        let (same, slot) = pool.with_removed(dip(9));
        assert_eq!(slot, None);
        assert_eq!(same, pool);
    }

    #[test]
    fn substitution_preserves_other_slots() {
        // The version-reuse invariant: substituting a dead member must not
        // move any connection that hashes to a surviving member.
        let mut pool = DipPool::new(vec![dip(1), dip(2), dip(3)]);
        let h = HashFn::new(7);
        let before: Vec<(u16, Dip)> = (0..500)
            .map(|p| (p, pool.select(&conn(p), &h).unwrap()))
            .collect();
        assert!(pool.substitute(dip(2), dip(9)));
        for (p, d) in before {
            let after = pool.select(&conn(p), &h).unwrap();
            if d == dip(2) {
                assert_eq!(after, dip(9));
            } else {
                assert_eq!(after, d, "live connection moved by substitution");
            }
        }
    }
}
