//! Switch-level statistics counters.

use sr_hash::FxHashMap;
use sr_types::Vip;
use std::fmt;

/// Counters exported by a [`crate::SilkRoadSwitch`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets processed.
    pub packets: u64,
    /// Packets resolved by a ConnTable hit.
    pub conn_table_hits: u64,
    /// Packets resolved through the VIPTable miss path.
    pub vip_table_misses: u64,
    /// ConnTable hits that were digest false positives (any packet type).
    pub digest_false_hits: u64,
    /// SYNs redirected to software for digest-collision repair.
    pub syn_repairs: u64,
    /// Resident entries relocated to another stage during repair.
    pub relocations: u64,
    /// ConnTable digest-shadowing repairs left incomplete (relocation
    /// budget spent, or no stage left for the shadowing entry): a resident
    /// connection may be false-hitting another's entry. A counted PCC
    /// degradation, 0 in every healthy run.
    pub shadow_repair_failed: u64,
    /// SYNs redirected because they falsely matched TransitTable in step 2.
    pub transit_syn_redirects: u64,
    /// Learn events accepted into the pipeline.
    pub learns: u64,
    /// ConnTable entries successfully installed.
    pub installs: u64,
    /// Installs skipped because the connection closed first.
    pub installs_skipped_closed: u64,
    /// Installs that failed because ConnTable was full (connection served
    /// via the software/fallback path instead).
    pub conn_table_overflows: u64,
    /// Connections currently in the fallback (direct-DIP) software table.
    pub fallback_entries: u64,
    /// DIP-pool updates requested.
    pub updates_requested: u64,
    /// Updates that were no-ops (removing an absent DIP etc.).
    pub updates_noop: u64,
    /// Updates fully completed (t_finish reached).
    pub updates_completed: u64,
    /// Updates queued behind an in-flight update at request time.
    pub updates_queued: u64,
    /// Version-ring exhaustion events (fallback migrations).
    pub version_exhaustions: u64,
    /// Connections migrated to the fallback table on exhaustion.
    pub exhaustion_migrations: u64,
    /// Connections closed/expired.
    pub closes: u64,
    /// Connections expired by idle-aging scans.
    pub idle_expired: u64,
    /// Packets dropped by per-VIP meters (DDoS/flash-crowd policing).
    pub metered_drops: u64,
    /// Live fallback-pinned connections per VIP (which VIPs are paying the
    /// software-path cost; entries are removed when their count hits 0).
    pub fallback_pins_by_vip: FxHashMap<Vip, u64>,
}

impl SwitchStats {
    /// Live fallback-pinned connections for one VIP.
    pub fn fallback_pins(&self, vip: Vip) -> u64 {
        self.fallback_pins_by_vip.get(&vip).copied().unwrap_or(0)
    }

    /// Fold another switch's counters into this one — the lossless
    /// aggregation the multi-pipe engine uses to present per-pipe stats as
    /// one chip-level view. Every scalar adds; per-VIP pin counts add
    /// keywise (a VIP's flows can pin fallback entries in several pipes).
    pub fn merge(&mut self, other: &SwitchStats) {
        self.packets += other.packets;
        self.conn_table_hits += other.conn_table_hits;
        self.vip_table_misses += other.vip_table_misses;
        self.digest_false_hits += other.digest_false_hits;
        self.syn_repairs += other.syn_repairs;
        self.relocations += other.relocations;
        self.shadow_repair_failed += other.shadow_repair_failed;
        self.transit_syn_redirects += other.transit_syn_redirects;
        self.learns += other.learns;
        self.installs += other.installs;
        self.installs_skipped_closed += other.installs_skipped_closed;
        self.conn_table_overflows += other.conn_table_overflows;
        self.fallback_entries += other.fallback_entries;
        self.updates_requested += other.updates_requested;
        self.updates_noop += other.updates_noop;
        self.updates_completed += other.updates_completed;
        self.updates_queued += other.updates_queued;
        self.version_exhaustions += other.version_exhaustions;
        self.exhaustion_migrations += other.exhaustion_migrations;
        self.closes += other.closes;
        self.idle_expired += other.idle_expired;
        self.metered_drops += other.metered_drops;
        for (vip, pins) in &other.fallback_pins_by_vip {
            *self.fallback_pins_by_vip.entry(*vip).or_insert(0) += pins;
        }
    }
}

impl fmt::Display for SwitchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "packets:            {}", self.packets)?;
        writeln!(
            f,
            "  conn-table hits:  {} ({} false, {} SYN repairs, {} relocations, {} repairs failed)",
            self.conn_table_hits,
            self.digest_false_hits,
            self.syn_repairs,
            self.relocations,
            self.shadow_repair_failed
        )?;
        writeln!(
            f,
            "  vip-table misses: {} ({} transit SYN redirects)",
            self.vip_table_misses, self.transit_syn_redirects
        )?;
        writeln!(
            f,
            "learns/installs:    {}/{} ({} skipped-closed, {} overflows)",
            self.learns, self.installs, self.installs_skipped_closed, self.conn_table_overflows
        )?;
        writeln!(
            f,
            "updates:            {} requested, {} completed, {} queued, {} noop",
            self.updates_requested, self.updates_completed, self.updates_queued, self.updates_noop
        )?;
        write!(
            f,
            "versions:           {} exhaustions ({} migrated); closes: {} (+{} idle-aged)",
            self.version_exhaustions, self.exhaustion_migrations, self.closes, self.idle_expired
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero_and_displays() {
        let s = SwitchStats::default();
        assert_eq!(s.packets, 0);
        let text = s.to_string();
        assert!(text.contains("packets:"));
        assert!(text.contains("updates:"));
    }

    #[test]
    fn merge_adds_scalars_and_per_vip_maps() {
        let vip = Vip(sr_types::Addr::v4(10, 0, 0, 1, 80));
        let mut a = SwitchStats {
            packets: 3,
            closes: 1,
            shadow_repair_failed: 1,
            ..Default::default()
        };
        a.fallback_pins_by_vip.insert(vip, 2);
        let mut b = SwitchStats {
            packets: 4,
            installs: 5,
            shadow_repair_failed: 2,
            ..Default::default()
        };
        b.fallback_pins_by_vip.insert(vip, 1);
        a.merge(&b);
        assert_eq!(a.packets, 7);
        assert_eq!(a.closes, 1);
        assert_eq!(a.installs, 5);
        assert_eq!(a.shadow_repair_failed, 3);
        assert!(a.to_string().contains("3 repairs failed"));
        assert_eq!(a.fallback_pins(vip), 3);
    }
}
