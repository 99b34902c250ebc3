//! The load-balancer interface the harness drives, implemented directly
//! by every system under test: SilkRoad, Duet, the SLB tier and ECMP.

use silkroad::{DataPath, PoolUpdate, SilkRoadSwitch, SYN_REDIRECT_DELAY};
use sr_baselines::{DuetLb, EcmpLb, SoftwareLb};
use sr_hash::HashFn;
use sr_types::{Dip, Duration, FiveTuple, Nanos, PacketMeta, Vip};

/// ASIC pipeline latency (§5.2: "sub-microsecond processing latency").
pub const ASIC_LATENCY: Duration = Duration::from_nanos(600);

/// Result of presenting one packet to a balancer.
#[derive(Clone, Copy, Debug)]
pub struct PacketVerdict {
    /// The backend chosen (None = dropped / unknown VIP).
    pub dip: Option<Dip>,
    /// Whether the packet was handled by software (an SLB server or the
    /// switch CPU) rather than ASIC hardware.
    pub in_software: bool,
    /// Load-balancer processing latency this packet experienced.
    pub latency: Duration,
}

/// A load balancer under test.
pub trait LoadBalancer {
    /// Short system name for reports.
    fn name(&self) -> &'static str;

    /// Register a VIP with its initial pool.
    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>);

    /// Apply one DIP-pool change.
    fn apply_update(&mut self, vip: Vip, op: PoolUpdate, now: Nanos);

    /// Process one packet.
    fn packet(&mut self, pkt: &PacketMeta, now: Nanos) -> PacketVerdict;

    /// A connection finished (the FIN was already presented via `packet`).
    fn conn_closed(&mut self, vip: Vip, tuple: &FiveTuple, now: Nanos);

    /// Run deferred control-plane work up to `now`. Returns the VIPs whose
    /// live connections may now map differently (e.g. Duet migrate-back) —
    /// the harness re-probes their connections.
    fn tick(&mut self, now: Nanos) -> Vec<Vip>;

    /// Next instant `tick` should run, if the balancer schedules work.
    fn next_wakeup(&self) -> Option<Nanos>;

    /// Fraction of `vip`'s traffic handled in software during
    /// `[from, to]` — drives the Fig 5a SLB-load accounting. Defaults to
    /// zero (pure-hardware systems).
    fn software_share(&self, _vip: Vip, _from: Nanos, _to: Nanos) -> f64 {
        0.0
    }
}

// The parallel experiment driver (`sr_exec::Exec`) fans scenarios across
// worker threads, so every system under test must stay `Send`. Assert it
// at compile time so a stray `Rc`/`RefCell` in a balancer is caught here,
// not in a cryptic spawn error two crates away.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SilkRoadSwitch>();
    assert_send::<DuetLb>();
    assert_send::<SoftwareLb>();
    assert_send::<EcmpLb>();
};

/// Per-packet software (SLB server) processing latency: the paper's
/// 50 µs – 1 ms batching range, drawn deterministically per packet.
fn slb_latency(pkt: &PacketMeta, now: Nanos) -> Duration {
    let key = pkt.tuple.tuple_key();
    let h = HashFn::new(0x1a7e).hash_u64(HashFn::new(now.0).hash(key.as_slice()));
    Duration::from_micros(50 + h % 950)
}

/// The membership after `op`, derived from the balancer's own pool, for
/// balancers whose `update_pool` takes whole member lists. An added DIP
/// goes last, so hash-based picks see the same member order as the
/// sequence of updates. `None` for an unknown VIP.
fn next_pool(current: Option<&[Dip]>, op: PoolUpdate) -> Option<Vec<Dip>> {
    let mut pool = current?.to_vec();
    match op {
        PoolUpdate::Add(d) => {
            if !pool.contains(&d) {
                pool.push(d);
            }
        }
        PoolUpdate::Remove(d) => pool.retain(|x| *x != d),
    }
    Some(pool)
}

impl LoadBalancer for SilkRoadSwitch {
    fn name(&self) -> &'static str {
        if self.config().transit_enabled {
            "silkroad"
        } else {
            "silkroad-no-transit"
        }
    }

    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) {
        SilkRoadSwitch::add_vip(self, vip, dips).expect("fresh VIP");
    }

    fn apply_update(&mut self, vip: Vip, op: PoolUpdate, now: Nanos) {
        let _ = self.request_update(vip, op, now);
    }

    fn packet(&mut self, pkt: &PacketMeta, now: Nanos) -> PacketVerdict {
        let d = self.process_packet(pkt, now);
        let in_software = d.path == DataPath::SoftwareRedirect;
        PacketVerdict {
            dip: d.dip,
            in_software,
            latency: if in_software {
                SYN_REDIRECT_DELAY
            } else {
                ASIC_LATENCY
            },
        }
    }

    fn conn_closed(&mut self, _vip: Vip, tuple: &FiveTuple, now: Nanos) {
        self.close_connection(tuple, now);
    }

    fn tick(&mut self, now: Nanos) -> Vec<Vip> {
        self.advance(now);
        Vec::new()
    }

    fn next_wakeup(&self) -> Option<Nanos> {
        SilkRoadSwitch::next_wakeup(self)
    }
}

impl LoadBalancer for DuetLb {
    fn name(&self) -> &'static str {
        "duet"
    }

    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) {
        DuetLb::add_vip(self, vip, dips).expect("fresh VIP");
    }

    fn apply_update(&mut self, vip: Vip, op: PoolUpdate, now: Nanos) {
        if let Some(pool) = next_pool(self.dips(vip), op) {
            let _ = self.update_pool(vip, pool, now);
        }
    }

    fn packet(&mut self, pkt: &PacketMeta, now: Nanos) -> PacketVerdict {
        let in_software = self.is_redirected(Vip(pkt.tuple.dst));
        PacketVerdict {
            dip: self.process_packet(pkt, now),
            in_software,
            latency: if in_software {
                slb_latency(pkt, now)
            } else {
                ASIC_LATENCY
            },
        }
    }

    fn conn_closed(&mut self, vip: Vip, tuple: &FiveTuple, _now: Nanos) {
        self.close_connection(vip, tuple.tuple_key().as_slice());
    }

    fn tick(&mut self, now: Nanos) -> Vec<Vip> {
        DuetLb::tick(self, now)
    }

    fn next_wakeup(&self) -> Option<Nanos> {
        DuetLb::next_wakeup(self)
    }

    fn software_share(&self, vip: Vip, from: Nanos, to: Nanos) -> f64 {
        DuetLb::software_share(self, vip, from, to)
    }
}

impl LoadBalancer for SoftwareLb {
    fn name(&self) -> &'static str {
        "slb"
    }

    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) {
        SoftwareLb::add_vip(self, vip, dips).expect("fresh VIP");
    }

    fn apply_update(&mut self, vip: Vip, op: PoolUpdate, _now: Nanos) {
        if let Some(pool) = next_pool(self.dips(vip), op) {
            let _ = self.update_pool(vip, pool);
        }
    }

    fn packet(&mut self, pkt: &PacketMeta, now: Nanos) -> PacketVerdict {
        PacketVerdict {
            dip: self.process_packet(pkt, now),
            in_software: true,
            latency: slb_latency(pkt, now),
        }
    }

    fn conn_closed(&mut self, _vip: Vip, tuple: &FiveTuple, _now: Nanos) {
        self.close_connection(tuple.tuple_key().as_slice());
    }

    fn tick(&mut self, _now: Nanos) -> Vec<Vip> {
        Vec::new()
    }

    fn next_wakeup(&self) -> Option<Nanos> {
        None
    }

    fn software_share(&self, _vip: Vip, _from: Nanos, _to: Nanos) -> f64 {
        1.0
    }
}

impl LoadBalancer for EcmpLb {
    fn name(&self) -> &'static str {
        "ecmp"
    }

    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) {
        EcmpLb::add_vip(self, vip, dips).expect("fresh VIP");
    }

    fn apply_update(&mut self, vip: Vip, op: PoolUpdate, _now: Nanos) {
        if let Some(pool) = next_pool(self.dips(vip), op) {
            let _ = self.update_pool(vip, pool);
        }
    }

    fn packet(&mut self, pkt: &PacketMeta, _now: Nanos) -> PacketVerdict {
        PacketVerdict {
            dip: self.process_packet(pkt),
            in_software: false,
            latency: ASIC_LATENCY,
        }
    }

    fn conn_closed(&mut self, _vip: Vip, _tuple: &FiveTuple, _now: Nanos) {}

    fn tick(&mut self, _now: Nanos) -> Vec<Vip> {
        Vec::new()
    }

    fn next_wakeup(&self) -> Option<Nanos> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkroad::SilkRoadConfig;
    use sr_baselines::DuetConfig;
    use sr_types::Addr;

    fn vip() -> Vip {
        Vip(Addr::v4(20, 0, 0, 1, 80))
    }

    fn dip(i: u8) -> Dip {
        Dip(Addr::v4(10, 0, 0, i, 20))
    }

    fn conn(p: u16) -> FiveTuple {
        FiveTuple::tcp(Addr::v4(1, 2, 3, 4, p), Addr::v4(20, 0, 0, 1, 80))
    }

    fn exercise(lb: &mut dyn LoadBalancer) {
        lb.add_vip(vip(), vec![dip(1), dip(2), dip(3)]);
        let v = lb.packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        assert!(v.dip.is_some(), "{}", lb.name());
        lb.apply_update(vip(), PoolUpdate::Remove(dip(3)), Nanos::from_millis(1));
        lb.tick(Nanos::from_millis(20));
        let v2 = lb.packet(&PacketMeta::data(conn(1), 100), Nanos::from_millis(20));
        assert!(v2.dip.is_some());
        lb.packet(&PacketMeta::fin(conn(1)), Nanos::from_millis(30));
        lb.conn_closed(vip(), &conn(1), Nanos::from_millis(30));
    }

    #[test]
    fn every_system_drives_through_the_trait() {
        exercise(&mut SilkRoadSwitch::new(SilkRoadConfig::small_test()));
        exercise(&mut DuetLb::new(DuetConfig::default()));
        exercise(&mut SoftwareLb::new());
        exercise(&mut EcmpLb::new(7));
    }

    #[test]
    fn slb_is_always_software() {
        let lb: &mut dyn LoadBalancer = &mut SoftwareLb::new();
        lb.add_vip(vip(), vec![dip(1)]);
        assert!(
            lb.packet(&PacketMeta::syn(conn(1)), Nanos::ZERO)
                .in_software
        );
        assert_eq!(
            lb.software_share(vip(), Nanos::ZERO, Nanos::from_secs(1)),
            1.0
        );
    }

    #[test]
    fn silkroad_reports_software_redirects_only() {
        let lb: &mut dyn LoadBalancer = &mut SilkRoadSwitch::new(SilkRoadConfig::small_test());
        lb.add_vip(vip(), vec![dip(1), dip(2)]);
        let v = lb.packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        assert!(!v.in_software);
        assert_eq!(
            lb.software_share(vip(), Nanos::ZERO, Nanos::from_secs(1)),
            0.0
        );
    }

    #[test]
    fn silkroad_syn_false_hit_is_a_software_redirect() {
        // 8-bit digests over one word per stage: a SYN that false-hits the
        // resident's digest turns up within a few thousand clients.
        let mut sw = SilkRoadSwitch::new(SilkRoadConfig {
            conn_capacity: 15,
            digest_bits: 8,
            ..SilkRoadConfig::small_test()
        });
        let lb: &mut dyn LoadBalancer = &mut sw;
        lb.add_vip(vip(), vec![dip(1), dip(2)]);
        lb.packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        let now = Nanos::from_millis(10);
        lb.tick(now);
        let redirect = (2..u16::MAX)
            .find_map(|p| {
                let v = lb.packet(&PacketMeta::syn(conn(p)), now);
                if v.in_software || v.latency != ASIC_LATENCY {
                    return Some(v);
                }
                // Drop the learn so only the resident is ever installed.
                lb.conn_closed(vip(), &conn(p), now);
                None
            })
            .expect("no SYN digest false hit");
        assert!(redirect.in_software);
        assert_eq!(redirect.latency, SYN_REDIRECT_DELAY);
        assert!(redirect.dip.is_some());
        assert_eq!(sw.stats().syn_repairs, 1);
    }

    #[test]
    fn updates_edit_the_balancers_own_membership_in_order() {
        let mut lb = EcmpLb::new(7);
        LoadBalancer::add_vip(&mut lb, vip(), vec![dip(1), dip(2), dip(3)]);
        lb.apply_update(vip(), PoolUpdate::Remove(dip(2)), Nanos::ZERO);
        lb.apply_update(vip(), PoolUpdate::Add(dip(4)), Nanos::ZERO);
        lb.apply_update(vip(), PoolUpdate::Add(dip(1)), Nanos::ZERO);
        assert_eq!(lb.dips(vip()), Some(&[dip(1), dip(3), dip(4)][..]));
        let unknown = Vip(Addr::v4(9, 9, 9, 9, 80));
        lb.apply_update(unknown, PoolUpdate::Add(dip(5)), Nanos::ZERO);
        assert_eq!(lb.dips(unknown), None);
    }
}
