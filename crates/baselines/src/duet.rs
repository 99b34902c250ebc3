//! Duet (§2.3, §3.2): VIPTable in the switch, ConnTable in SLBs.
//!
//! Steady state: the switch maps a VIP's packets to DIPs with stateless
//! ECMP hashing — fast, but memoryless. When a VIP's DIP pool changes, all
//! of its traffic is *redirected* to SLBs, which build a ConnTable and apply
//! the update PCC-safely. The open question Duet never answers cleanly is
//! **when to migrate the VIP back to the switch**:
//!
//! * migrate early (periodic timer) → remaining old connections re-hash
//!   over the new pool at the switch and break (Fig 5b, 16, 17);
//! * migrate late / wait for old connections to die → SLBs keep carrying
//!   the traffic (Fig 5a: up to 93.8 % of volume at 50 updates/min).
//!
//! Model notes: the redirect-in direction is made lossless, reflecting the
//! paper's footnote that the SLB warms its ConnTable before the update
//! applies — an *old* connection missing the SLB table (first packet seen
//! mid-redirect, non-SYN) is assigned by the *pre-update* switch pool, a
//! *new* connection (SYN) by the current pool.

use sr_hash::{ecmp_select, HashFn};
use sr_types::{Addr, Dip, Duration, Nanos, PacketMeta, TypeError, Vip};
use std::collections::{HashMap, HashSet};

/// How a redirected VIP returns to the switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Migrate every redirected VIP back on a fixed period (the Duet paper
    /// uses 10 minutes; Fig 5 also evaluates 1 minute).
    Periodic(Duration),
    /// Migrate a VIP back only once every connection alive at any of its
    /// updates has terminated — the paper's "we wait until all the old
    /// connections have terminated": zero PCC violations, maximal SLB load
    /// ("Migrate-PCC" in Fig 5).
    WaitPcc,
}

/// Duet configuration.
#[derive(Clone, Copy, Debug)]
pub struct DuetConfig {
    /// Migrate-back policy.
    pub policy: MigrationPolicy,
    /// Hash seed (shared by switch ECMP and SLB).
    pub seed: u64,
}

impl Default for DuetConfig {
    fn default() -> Self {
        DuetConfig {
            policy: MigrationPolicy::Periodic(Duration::from_mins(10)),
            seed: 0xd0e7,
        }
    }
}

/// Counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DuetStats {
    /// Packets handled at the switch.
    pub switch_packets: u64,
    /// Bytes handled at the switch.
    pub switch_bytes: u64,
    /// Packets handled at SLBs (redirected VIPs).
    pub slb_packets: u64,
    /// Bytes handled at SLBs.
    pub slb_bytes: u64,
    /// VIP redirects started.
    pub redirects: u64,
    /// VIP migrations back to the switch.
    pub migrations: u64,
    /// Pool updates applied.
    pub updates: u64,
}

struct DuetVip {
    /// The authoritative (latest) pool — what SLBs serve.
    pool: Vec<Dip>,
    /// The pool programmed into the switch ECMP table (stale while
    /// redirected).
    switch_pool: Vec<Dip>,
    redirected: bool,
    /// SLB ConnTable for this VIP (only meaningful while redirected).
    conns: HashMap<Box<[u8]>, Dip>,
    /// Live connections (SYN seen, not yet closed); tracked under
    /// [`MigrationPolicy::WaitPcc`] only.
    live: HashSet<Box<[u8]>>,
    /// Connections alive at some update of this VIP and not yet closed;
    /// WaitPcc migrates the VIP back once this is empty.
    old: HashSet<Box<[u8]>>,
    /// Redirect intervals; the open one ends at `Nanos::MAX`.
    redirects: Vec<(Nanos, Nanos)>,
}

/// The Duet load balancer (one switch + its SLB tier).
///
/// Under [`MigrationPolicy::WaitPcc`] it applies the paper's Migrate-PCC
/// criterion at flow level: a connection is recorded as live on its SYN,
/// every update snapshots the VIP's live set as *old*, and the VIP returns
/// to the switch only once all of its old connections have terminated.
/// Connections opened after the latest update never block a migration.
pub struct DuetLb {
    cfg: DuetConfig,
    hash: HashFn,
    vips: HashMap<Addr, DuetVip>,
    /// Next periodic migration boundary.
    next_migration: Nanos,
    stats: DuetStats,
}

impl DuetLb {
    /// Build a Duet instance.
    pub fn new(cfg: DuetConfig) -> DuetLb {
        DuetLb {
            hash: HashFn::new(cfg.seed),
            next_migration: match cfg.policy {
                MigrationPolicy::Periodic(p) => Nanos::ZERO + p,
                MigrationPolicy::WaitPcc => Nanos::MAX,
            },
            cfg,
            vips: HashMap::new(),
            stats: DuetStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &DuetStats {
        &self.stats
    }

    /// Register a VIP.
    pub fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        if self.vips.contains_key(&vip.0) {
            return Err(TypeError::InvalidState {
                what: "VIP already registered",
            });
        }
        self.vips.insert(
            vip.0,
            DuetVip {
                switch_pool: dips.clone(),
                pool: dips,
                redirected: false,
                conns: HashMap::new(),
                live: HashSet::new(),
                old: HashSet::new(),
                redirects: Vec::new(),
            },
        );
        Ok(())
    }

    /// Whether a VIP is currently served by SLBs.
    pub fn is_redirected(&self, vip: Vip) -> bool {
        self.vips.get(&vip.0).map(|v| v.redirected).unwrap_or(false)
    }

    /// The latest pool of a VIP.
    pub fn dips(&self, vip: Vip) -> Option<&[Dip]> {
        self.vips.get(&vip.0).map(|v| v.pool.as_slice())
    }

    fn select(hash: &HashFn, key: &[u8], pool: &[Dip]) -> Option<Dip> {
        ecmp_select(hash.hash(key), pool.len()).map(|i| pool[i])
    }

    /// Apply a pool change: updates the authoritative pool and redirects the
    /// VIP to SLBs if it is not already there. Every connection alive now
    /// predates the new pool, so WaitPcc must see it end first.
    pub fn update_pool(&mut self, vip: Vip, dips: Vec<Dip>, now: Nanos) -> Result<(), TypeError> {
        let v = self
            .vips
            .get_mut(&vip.0)
            .ok_or(TypeError::NotFound { what: "VIP" })?;
        v.pool = dips;
        self.stats.updates += 1;
        if !v.redirected {
            v.redirected = true;
            self.stats.redirects += 1;
            v.redirects.push((now, Nanos::MAX));
        }
        v.old.extend(v.live.iter().cloned());
        Ok(())
    }

    /// Process one packet.
    pub fn process_packet(&mut self, pkt: &PacketMeta, _now: Nanos) -> Option<Dip> {
        let key = pkt.tuple.tuple_key();
        let v = self.vips.get_mut(&pkt.tuple.dst)?;
        if pkt.flags.is_syn() && self.cfg.policy == MigrationPolicy::WaitPcc {
            v.live.insert(key.as_slice().into());
        }
        if !v.redirected {
            self.stats.switch_packets += 1;
            self.stats.switch_bytes += pkt.len as u64;
            return Self::select(&self.hash, key.as_slice(), &v.switch_pool);
        }
        // SLB path.
        self.stats.slb_packets += 1;
        self.stats.slb_bytes += pkt.len as u64;
        if let Some(d) = v.conns.get(key.as_slice()) {
            return Some(*d);
        }
        // Miss: SYN ⇒ genuinely new (current pool); otherwise an old
        // connection the warm-up would have captured (pre-update pool).
        let pool = if pkt.flags.is_syn() {
            &v.pool
        } else {
            &v.switch_pool
        };
        let dip = Self::select(&self.hash, key.as_slice(), pool)?;
        v.conns.insert(key.as_slice().into(), dip);
        Some(dip)
    }

    /// Drop a connection's state (flow ended).
    pub fn close_connection(&mut self, vip: Vip, key: &[u8]) {
        if let Some(v) = self.vips.get_mut(&vip.0) {
            v.conns.remove(key);
            v.live.remove(key);
            v.old.remove(key);
        }
    }

    fn migrate(v: &mut DuetVip, now: Nanos) {
        v.switch_pool = v.pool.clone();
        v.redirected = false;
        v.conns.clear();
        // Only a redirected VIP migrates, so its last interval is open.
        if let Some(last) = v.redirects.last_mut() {
            last.1 = now;
        }
    }

    /// Run the migrate-back policy. Call at (or after) every
    /// [`DuetLb::next_wakeup`] and whenever connections close (WaitPcc).
    /// Returns the VIPs that migrated back to the switch during this tick
    /// (their connections may now map differently).
    pub fn tick(&mut self, now: Nanos) -> Vec<Vip> {
        if let MigrationPolicy::Periodic(p) = self.cfg.policy {
            if self.next_migration > now {
                return Vec::new();
            }
            // Fast-forward to the first boundary after `now` (a
            // per-boundary loop would crawl across idle gaps).
            let periods = now.since(self.next_migration).div_duration(p) + 1;
            self.next_migration += Duration(p.0 * periods);
        }
        // A due Periodic boundary takes every redirected VIP back: its
        // `old` set stays empty, since only WaitPcc tracks live sets.
        let mut migrated = Vec::new();
        for (addr, v) in self.vips.iter_mut() {
            if v.redirected && v.old.is_empty() {
                Self::migrate(v, now);
                self.stats.migrations += 1;
                migrated.push(Vip(*addr));
            }
        }
        migrated
    }

    /// The next instant `tick` has scheduled work (periodic policy only).
    pub fn next_wakeup(&self) -> Option<Nanos> {
        match self.cfg.policy {
            MigrationPolicy::Periodic(_) => Some(self.next_migration),
            MigrationPolicy::WaitPcc => None,
        }
    }

    /// Fraction of `[from, to]` during which `vip` was redirected to SLBs
    /// — the Fig 5a SLB-load accounting.
    pub fn software_share(&self, vip: Vip, from: Nanos, to: Nanos) -> f64 {
        let Some(v) = self.vips.get(&vip.0) else {
            return 0.0;
        };
        let span = to.since(from).0 as f64;
        if span <= 0.0 {
            return if v.redirected { 1.0 } else { 0.0 };
        }
        let mut overlap = 0u128;
        for (s, e) in &v.redirects {
            let s = (*s).max(from);
            let e = (*e).min(to);
            if e > s {
                overlap += (e.0 - s.0) as u128;
            }
        }
        (overlap as f64 / span).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_types::FiveTuple;

    fn vip() -> Vip {
        Vip(Addr::v4(20, 0, 0, 1, 80))
    }

    fn dip(i: u8) -> Dip {
        Dip(Addr::v4(10, 0, 0, i, 20))
    }

    fn conn(p: u16) -> FiveTuple {
        FiveTuple::tcp(Addr::v4(1, 2, 3, 4, p), Addr::v4(20, 0, 0, 1, 80))
    }

    fn duet(policy: MigrationPolicy) -> DuetLb {
        let mut d = DuetLb::new(DuetConfig {
            policy,
            seed: 0xd0e7,
        });
        d.add_vip(vip(), vec![dip(1), dip(2), dip(3), dip(4)])
            .unwrap();
        d
    }

    #[test]
    fn steady_state_runs_at_switch() {
        let mut d = duet(MigrationPolicy::Periodic(Duration::from_mins(10)));
        let a = d.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        assert!(a.is_some());
        assert_eq!(d.stats().switch_packets, 1);
        assert_eq!(d.stats().slb_packets, 0);
        // Stateless but deterministic.
        let b = d.process_packet(&PacketMeta::data(conn(1), 100), Nanos::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn update_redirects_to_slb() {
        let mut d = duet(MigrationPolicy::Periodic(Duration::from_mins(10)));
        d.update_pool(vip(), vec![dip(1), dip(2), dip(3)], Nanos::ZERO)
            .unwrap();
        assert!(d.is_redirected(vip()));
        d.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        assert_eq!(d.stats().slb_packets, 1);
        assert_eq!(d.stats().redirects, 1);
    }

    #[test]
    fn old_connections_keep_old_mapping_while_redirected() {
        let mut d = duet(MigrationPolicy::Periodic(Duration::from_mins(10)));
        // Old connection established at the switch.
        let before = d
            .process_packet(&PacketMeta::syn(conn(5)), Nanos::ZERO)
            .unwrap();
        // Update removes a DIP; VIP redirects.
        d.update_pool(vip(), vec![dip(2), dip(3), dip(4)], Nanos::from_secs(1))
            .unwrap();
        // Old connection's next (non-SYN) packet at the SLB: must keep its
        // pre-update DIP (warm-up semantics).
        let after = d
            .process_packet(&PacketMeta::data(conn(5), 100), Nanos::from_secs(1))
            .unwrap();
        assert_eq!(after, before);
    }

    #[test]
    fn periodic_migration_breaks_stale_connections() {
        let mut d = duet(MigrationPolicy::Periodic(Duration::from_mins(1)));
        // Many old connections at the switch.
        let assigned: Vec<(u16, Dip)> = (0..2000)
            .map(|p| {
                (
                    p,
                    d.process_packet(&PacketMeta::syn(conn(p)), Nanos::ZERO)
                        .unwrap(),
                )
            })
            .collect();
        // Remove a DIP; redirect; old conns keep mapping at SLB.
        d.update_pool(vip(), vec![dip(2), dip(3), dip(4)], Nanos::from_secs(5))
            .unwrap();
        for (p, dd) in &assigned {
            let at_slb = d
                .process_packet(&PacketMeta::data(conn(*p), 100), Nanos::from_secs(6))
                .unwrap();
            assert_eq!(at_slb, *dd);
        }
        // Timer fires: migrate back.
        d.tick(Nanos::from_mins(1));
        assert!(!d.is_redirected(vip()));
        assert_eq!(d.stats().migrations, 1);
        // Old connections re-hash over the new pool at the switch: many
        // must now map differently (the PCC violation Duet suffers).
        let broken = assigned
            .iter()
            .filter(|(p, dd)| {
                d.process_packet(&PacketMeta::data(conn(*p), 100), Nanos::from_mins(2))
                    .unwrap()
                    != *dd
            })
            .count();
        assert!(broken > 0, "expected some broken connections");
        // With 1 of 4 DIPs removed and hash-scaled ECMP, roughly 1/4 of
        // connections plus reshuffle noise move; definitely not all.
        assert!(broken < assigned.len());
    }

    #[test]
    fn wait_pcc_blocks_on_connections_alive_at_the_update() {
        let mut d = duet(MigrationPolicy::WaitPcc);
        d.process_packet(&PacketMeta::syn(conn(5)), Nanos::ZERO);
        d.update_pool(vip(), vec![dip(2), dip(3), dip(4)], Nanos::from_secs(1))
            .unwrap();
        assert!(d.tick(Nanos::from_mins(30)).is_empty());
        assert!(d.is_redirected(vip()), "migrated while an old conn lives");
        d.close_connection(vip(), conn(5).tuple_key().as_slice());
        assert_eq!(d.tick(Nanos::from_mins(31)), vec![vip()]);
        assert!(!d.is_redirected(vip()));
        assert_eq!(d.stats().migrations, 1);
    }

    #[test]
    fn wait_pcc_ignores_connections_opened_after_the_update() {
        let mut d = duet(MigrationPolicy::WaitPcc);
        d.update_pool(vip(), vec![dip(2), dip(3), dip(4)], Nanos::from_secs(1))
            .unwrap();
        d.process_packet(&PacketMeta::syn(conn(9)), Nanos::from_secs(2));
        assert_eq!(d.tick(Nanos::from_secs(3)), vec![vip()]);
        assert!(!d.is_redirected(vip()));
    }

    #[test]
    fn wait_pcc_second_update_adds_the_then_live_connections() {
        let mut d = duet(MigrationPolicy::WaitPcc);
        d.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        d.update_pool(vip(), vec![dip(2), dip(3), dip(4)], Nanos::from_secs(1))
            .unwrap();
        // Opened mid-redirect, then caught by the second update.
        d.process_packet(&PacketMeta::syn(conn(2)), Nanos::from_secs(2));
        d.update_pool(vip(), vec![dip(3), dip(4)], Nanos::from_secs(3))
            .unwrap();
        d.close_connection(vip(), conn(1).tuple_key().as_slice());
        assert!(d.tick(Nanos::from_secs(4)).is_empty(), "conn 2 is old now");
        d.close_connection(vip(), conn(2).tuple_key().as_slice());
        assert_eq!(d.tick(Nanos::from_secs(5)), vec![vip()]);
        assert_eq!(d.stats().redirects, 1);
    }

    #[test]
    fn duet_redirect_intervals_feed_share() {
        let mut d = DuetLb::new(DuetConfig {
            policy: MigrationPolicy::Periodic(Duration::from_secs(10)),
            seed: 1,
        });
        d.add_vip(vip(), vec![dip(1), dip(2)]).unwrap();
        assert_eq!(
            d.software_share(vip(), Nanos::ZERO, Nanos::from_secs(20)),
            0.0
        );
        // Redirect from t=2s until the 10s boundary.
        d.update_pool(vip(), vec![dip(1)], Nanos::from_secs(2))
            .unwrap();
        assert_eq!(d.tick(Nanos::from_secs(10)), vec![vip()]);
        let share = d.software_share(vip(), Nanos::ZERO, Nanos::from_secs(20));
        assert!((share - 0.4).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn periodic_wakeup_advances() {
        let mut d = duet(MigrationPolicy::Periodic(Duration::from_mins(1)));
        assert_eq!(d.next_wakeup(), Some(Nanos::from_mins(1)));
        d.tick(Nanos::from_mins(3));
        assert_eq!(d.next_wakeup(), Some(Nanos::from_mins(4)));
        assert_eq!(duet(MigrationPolicy::WaitPcc).next_wakeup(), None);
    }

    #[test]
    fn unknown_vip_rejected() {
        let mut d = duet(MigrationPolicy::WaitPcc);
        let unknown = Vip(Addr::v4(9, 9, 9, 9, 80));
        assert!(d.update_pool(unknown, vec![dip(1)], Nanos::ZERO).is_err());
        assert!(d.add_vip(vip(), vec![dip(1)]).is_err());
    }
}
