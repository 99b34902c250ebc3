//! Software load balancer (Ananta / Maglev style, §2.2).
//!
//! Both tables live in server software: ConnTable is a hash map, VIPTable
//! uses Maglev consistent hashing. Updates are trivially PCC-safe — the
//! software locks VIPTable, buffers new connections, swaps the pool, and
//! releases (§2.1) — which the model reflects by performing the swap
//! synchronously. What the SLB pays instead is throughput (12 Mpps per
//! 8-core server) and latency (50 µs – 1 ms), which the load accounting
//! here feeds into Fig 5a and Fig 13.

use sr_hash::maglev::MaglevTable;
use sr_types::{Addr, Dip, Nanos, PacketMeta, TypeError, Vip};
use std::collections::HashMap;

/// Maglev lookup-table size per VIP (a prime).
const MAGLEV_TABLE_SIZE: usize = 4099;

/// Maglev hash seed.
const MAGLEV_SEED: u64 = 0x51b;

struct VipPool {
    dips: Vec<Dip>,
    maglev: MaglevTable,
}

/// Per-instance counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlbStats {
    /// Packets processed.
    pub packets: u64,
    /// Bytes processed.
    pub bytes: u64,
    /// Live connection entries.
    pub connections: u64,
    /// Pool updates applied.
    pub updates: u64,
}

/// The software load balancer.
#[derive(Default)]
pub struct SoftwareLb {
    vips: HashMap<Addr, VipPool>,
    conn_table: HashMap<Box<[u8]>, Dip>,
    stats: SlbStats,
}

impl SoftwareLb {
    /// Build an SLB.
    pub fn new() -> SoftwareLb {
        SoftwareLb::default()
    }

    /// Counters.
    pub fn stats(&self) -> &SlbStats {
        &self.stats
    }

    fn rebuild(&mut self, vip: Vip, dips: Vec<Dip>) {
        let keys: Vec<Vec<u8>> = dips
            .iter()
            .map(|d| {
                let mut k = Vec::new();
                d.0.encode_into(&mut k);
                k
            })
            .collect();
        let maglev = MaglevTable::build(&keys, MAGLEV_TABLE_SIZE, MAGLEV_SEED);
        self.vips.insert(vip.0, VipPool { dips, maglev });
    }

    /// Register a VIP.
    pub fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        if self.vips.contains_key(&vip.0) {
            return Err(TypeError::InvalidState {
                what: "VIP already registered",
            });
        }
        self.rebuild(vip, dips);
        Ok(())
    }

    /// Current DIPs of a VIP.
    pub fn dips(&self, vip: Vip) -> Option<&[Dip]> {
        self.vips.get(&vip.0).map(|p| p.dips.as_slice())
    }

    /// Apply a pool change. Synchronous and PCC-safe: established
    /// connections keep their ConnTable entries, only new connections see
    /// the new Maglev table.
    pub fn update_pool(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        if !self.vips.contains_key(&vip.0) {
            return Err(TypeError::NotFound { what: "VIP" });
        }
        self.rebuild(vip, dips);
        self.stats.updates += 1;
        Ok(())
    }

    /// Process one packet; `_now` kept for interface symmetry (the SLB has
    /// no asynchronous control plane).
    pub fn process_packet(&mut self, pkt: &PacketMeta, _now: Nanos) -> Option<Dip> {
        self.stats.packets += 1;
        self.stats.bytes += pkt.len as u64;
        let key = pkt.tuple.tuple_key();
        if let Some(d) = self.conn_table.get(key.as_slice()) {
            return Some(*d);
        }
        let pool = self.vips.get(&pkt.tuple.dst)?;
        let idx = pool.maglev.select(key.as_slice())?;
        let dip = pool.dips[idx];
        self.conn_table.insert(key.as_slice().into(), dip);
        self.stats.connections += 1;
        Some(dip)
    }

    /// Drop a connection's state.
    pub fn close_connection(&mut self, key: &[u8]) {
        if self.conn_table.remove(key).is_some() {
            self.stats.connections = self.stats.connections.saturating_sub(1);
        }
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

    fn slb() -> SoftwareLb {
        let mut s = SoftwareLb::new();
        s.add_vip(vip(), vec![dip(1), dip(2), dip(3)]).unwrap();
        s
    }

    #[test]
    fn connection_stickiness() {
        let mut s = slb();
        let d1 = s
            .process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO)
            .unwrap();
        for _ in 0..10 {
            let d = s
                .process_packet(&PacketMeta::data(conn(1), 100), Nanos::ZERO)
                .unwrap();
            assert_eq!(d, d1);
        }
        assert_eq!(s.stats().connections, 1);
        assert_eq!(s.stats().packets, 11);
    }

    #[test]
    fn pcc_across_updates() {
        let mut s = slb();
        let assigned: Vec<(u16, Dip)> = (0..200)
            .map(|p| {
                (
                    p,
                    s.process_packet(&PacketMeta::syn(conn(p)), Nanos::ZERO)
                        .unwrap(),
                )
            })
            .collect();
        s.update_pool(vip(), vec![dip(1), dip(3)]).unwrap();
        for (p, d) in assigned {
            let after = s
                .process_packet(&PacketMeta::data(conn(p), 100), Nanos::ZERO)
                .unwrap();
            assert_eq!(after, d, "SLB broke PCC for port {p}");
        }
    }

    #[test]
    fn new_connections_avoid_removed_dip() {
        let mut s = slb();
        s.update_pool(vip(), vec![dip(1), dip(3)]).unwrap();
        for p in 1000..1200 {
            let d = s
                .process_packet(&PacketMeta::syn(conn(p)), Nanos::ZERO)
                .unwrap();
            assert_ne!(d, dip(2));
        }
    }

    #[test]
    fn close_frees_state() {
        let mut s = slb();
        s.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        assert_eq!(s.stats().connections, 1);
        s.close_connection(&conn(1).key_bytes());
        assert_eq!(s.stats().connections, 0);
    }

    #[test]
    fn unknown_vip_unhandled() {
        let mut s = SoftwareLb::new();
        assert_eq!(
            s.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO),
            None
        );
    }

    #[test]
    fn update_unknown_vip_rejected() {
        let mut s = slb();
        assert!(s
            .update_pool(Vip(Addr::v4(9, 9, 9, 9, 80)), vec![dip(1)])
            .is_err());
        assert!(s.add_vip(vip(), vec![dip(1)]).is_err());
    }
}
