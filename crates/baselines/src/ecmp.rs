//! Stateless ECMP load balancing — the strawman.
//!
//! No connection state anywhere: every packet hashes over the current pool.
//! Perfectly fast, but *every* pool change re-shuffles a fraction of live
//! connections. This is the lower bound the paper's §2.3 argument starts
//! from.

use sr_hash::{ecmp_select, HashFn};
use sr_types::{Addr, Dip, PacketMeta, TypeError, Vip};
use std::collections::HashMap;

/// The stateless ECMP balancer.
pub struct EcmpLb {
    hash: HashFn,
    vips: HashMap<Addr, Vec<Dip>>,
}

impl EcmpLb {
    /// Build with a hash seed.
    pub fn new(seed: u64) -> EcmpLb {
        EcmpLb {
            hash: HashFn::new(seed),
            vips: HashMap::new(),
        }
    }

    /// Register a VIP.
    pub fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        if self.vips.contains_key(&vip.0) {
            return Err(TypeError::InvalidState {
                what: "VIP already registered",
            });
        }
        self.vips.insert(vip.0, dips);
        Ok(())
    }

    /// Current DIPs of a VIP.
    pub fn dips(&self, vip: Vip) -> Option<&[Dip]> {
        self.vips.get(&vip.0).map(Vec::as_slice)
    }

    /// Replace a VIP's pool (instantaneous — that is the problem).
    pub fn update_pool(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        match self.vips.get_mut(&vip.0) {
            Some(p) => {
                *p = dips;
                Ok(())
            }
            None => Err(TypeError::NotFound { what: "VIP" }),
        }
    }

    /// Process one packet.
    pub fn process_packet(&self, pkt: &PacketMeta) -> Option<Dip> {
        let pool = self.vips.get(&pkt.tuple.dst)?;
        ecmp_select(self.hash.hash(pkt.tuple.tuple_key().as_slice()), pool.len()).map(|i| pool[i])
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

    #[test]
    fn deterministic_mapping() {
        let mut e = EcmpLb::new(1);
        e.add_vip(vip(), vec![dip(1), dip(2), dip(3)]).unwrap();
        let a = e.process_packet(&PacketMeta::syn(conn(1)));
        assert!(a.is_some());
        assert_eq!(e.process_packet(&PacketMeta::data(conn(1), 99)), a);
    }

    #[test]
    fn pool_change_moves_connections() {
        let mut e = EcmpLb::new(1);
        e.add_vip(vip(), vec![dip(1), dip(2), dip(3), dip(4)])
            .unwrap();
        let before: Vec<Dip> = (0..1000)
            .map(|p| e.process_packet(&PacketMeta::syn(conn(p))).unwrap())
            .collect();
        e.update_pool(vip(), vec![dip(1), dip(2), dip(3)]).unwrap();
        let moved = (0..1000)
            .filter(|p| {
                e.process_packet(&PacketMeta::data(conn(*p), 1)).unwrap() != before[*p as usize]
            })
            .count();
        // Far more than the 1/4 a consistent scheme would move.
        assert!(moved > 250, "moved {moved}");
    }

    #[test]
    fn unknown_vip_none() {
        let mut e = EcmpLb::new(1);
        assert!(e.process_packet(&PacketMeta::syn(conn(1))).is_none());
        assert!(e.update_pool(vip(), vec![]).is_err());
    }
}
