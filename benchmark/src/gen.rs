//! Seeded input generation shared by the workloads: the RNG, the VIP/DIP
//! address plan, the paper-default switch geometry, and the order-blind
//! decision digest.
//!
//! The program under test receives only what this module generates; the
//! same seed always yields the same inputs.

use silkroad::{DataPath, FlowSteering, ForwardDecision, SilkRoadConfig};
use sr_types::{Addr, AddrFamily, Dip, FiveTuple, PacketMeta, Vip};

/// VIPs registered by every workload.
pub const VIPS: u32 = 16;
/// DIPs in each VIP's initial pool.
pub const DIPS_PER_VIP: u32 = 16;
/// Packets per call into the switch.
pub const BATCH: usize = 256;

/// splitmix64 sequence generator: tiny, seedable, and good enough for
/// permutations and port draws (nothing here is adversarial).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        // `sr_hash::splitmix64` adds the sequence's increment before it
        // mixes, so stepping the state by the same constant gives the
        // standard generator.
        let out = sr_hash::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The `v`-th VIP. With `family == V6` the plan mirrors into `fd00::/16`.
pub fn vip(v: u32, family: AddrFamily) -> Vip {
    Vip(match family {
        AddrFamily::V4 => Addr::v4(20, 0, 0, v as u8 + 1, 80),
        AddrFamily::V6 => Addr::v6_indexed(0x20, v + 1, 80),
    })
}

/// The `d`-th DIP of the `v`-th VIP (same family as the VIP: NAT keeps it).
pub fn dip(v: u32, d: u32, family: AddrFamily) -> Dip {
    Dip(match family {
        AddrFamily::V4 => Addr::v4(10, 0, v as u8 + 1, d as u8 + 1, 20),
        AddrFamily::V6 => Addr::v6_indexed(0x10, ((v + 1) << 8) | (d + 1), 20),
    })
}

/// The initial pool of the `v`-th VIP.
pub fn pool(v: u32, family: AddrFamily) -> Vec<Dip> {
    (0..DIPS_PER_VIP).map(|d| dip(v, d, family)).collect()
}

/// The client 5-tuple of flow `g`: a unique source address per `g`, a
/// seed-drawn source port, VIP `g % VIPS` in the family `v6` selects.
pub fn flow(seed: u64, g: u64, v6: bool) -> FiveTuple {
    let v = (g % u64::from(VIPS)) as u32;
    let port = 1_024 + (sr_hash::splitmix64(seed ^ g.wrapping_mul(0x9e37_79b9)) % 60_000) as u16;
    let idx = (g & 0x00ff_ffff) as u32;
    let hi = (g >> 24) as u32;
    if v6 {
        FiveTuple::tcp(
            Addr::v6_indexed(0x100 + hi as u16, idx, port),
            vip(v, AddrFamily::V6).0,
        )
    } else {
        FiveTuple::tcp(
            Addr::v4_indexed(100 + (hi % 100) as u8, idx, port),
            vip(v, AddrFamily::V4).0,
        )
    }
}

/// Paper-default geometry (`SilkRoadConfig::default()`: 16-bit digest,
/// 6-bit version, 4 stages, 256 B TransitTable) with only the ConnTable
/// sized for `flows` live connections at load factor 0.8.
pub fn paper_cfg(flows: usize) -> SilkRoadConfig {
    SilkRoadConfig {
        conn_capacity: flows + flows / 4,
        ..SilkRoadConfig::default()
    }
}

/// The per-flow half of the digest. `FlowSteering`'s flow hash does not
/// depend on the pipe count, so one instance serves every workload and
/// matches what the threaded engine folds internally.
pub fn flow_hasher(cfg: &SilkRoadConfig) -> FlowSteering {
    FlowSteering::new(cfg.seed, 1)
}

/// A stable 64-bit encoding of a decision's externally visible fields
/// (path, DIP, version, hit flag) — the same encoding the engine's
/// streaming digest uses, so `stream-64k` can be checked against it.
pub fn decision_word(d: &ForwardDecision) -> u64 {
    let path = match d.path {
        DataPath::AsicConnTable => 1u64,
        DataPath::AsicVipTable => 2,
        DataPath::SoftwareRedirect => 3,
        DataPath::Dropped => 4,
        DataPath::NotVip => 5,
    };
    let mut w = sr_hash::splitmix64(path | (u64::from(d.conn_table_hit) << 3));
    if let Some(v) = d.version {
        w ^= sr_hash::splitmix64(0x7665_7273 ^ u64::from(v.0));
    }
    if let Some(dip) = d.dip {
        let mut bytes = [0u8; 18];
        let n = dip.0.encode_to(&mut bytes, 0);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes[..n] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        w ^= h;
    }
    w
}

/// One packet's contribution to the order-blind decision digest;
/// contributions combine by wrapping addition.
#[inline]
pub fn packet_digest(flow_hash: u64, d: &ForwardDecision) -> u64 {
    sr_hash::splitmix64(flow_hash ^ decision_word(d))
}

/// Order-sensitive hash of a generated packet sequence (the "trace hash"
/// recorded with every result, so two runs can show they saw one input).
pub fn trace_hash(pkts: &[PacketMeta]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut key = [0u8; 40];
    for p in pkts {
        let mut n = p.tuple.src.encode_to(&mut key, 0);
        n += p.tuple.dst.encode_to(&mut key, n);
        key[n] = p.flags.0;
        for &b in &key[..=n] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        let mut v: Vec<u32> = (0..1_000).collect();
        Rng::new(1).shuffle(&mut v);
        assert_ne!(v, (0..1_000).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..1_000).collect::<Vec<_>>());
        let mut r = Rng::new(3);
        assert!((0..10_000).all(|_| r.below(17) < 17));
    }

    #[test]
    fn flows_are_unique_and_seed_dependent() {
        let mut seen = std::collections::HashSet::new();
        for g in 0..50_000u64 {
            assert!(seen.insert(flow(1, g, g % 2 == 1)), "flow {g} repeats");
        }
        assert_ne!(flow(1, 5, false), flow(2, 5, false));
        assert_eq!(flow(1, 5, false).dst, vip(5, AddrFamily::V4).0);
        assert_eq!(flow(1, 5, true).dst, vip(5, AddrFamily::V6).0);
        // Flow ids beyond 24 bits stay distinct (churn runs that far).
        assert_ne!(flow(1, 7, false).src, flow(1, 7 + (1 << 24), false).src);
    }

    #[test]
    fn capacity_is_flows_at_load_factor_0_8() {
        let cfg = paper_cfg(65_536);
        assert_eq!(cfg.conn_capacity, 81_920);
        assert_eq!(
            (cfg.digest_bits, cfg.version_bits, cfg.conn_stages),
            (16, 6, 4)
        );
        assert_eq!(cfg.transit_bytes, 256);
    }
}
