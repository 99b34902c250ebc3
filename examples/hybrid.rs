//! Hybrid deployment (§7 "Combine with SLB solutions"): SilkRoad carries
//! the volume-heavy VIPs, an SLB tier the connection-heavy ones — with no
//! VIP migration during updates, both sides keep PCC.
//!
//! ```text
//! cargo run --release --example hybrid
//! ```

use silkroad::{PoolUpdate, SilkRoadConfig, SilkRoadSwitch};
use sr_baselines::SoftwareLb;
use sr_sim::{Harness, LoadBalancer, PacketVerdict};
use sr_types::{Addr, AddrFamily, Dip, Duration, FiveTuple, Nanos, PacketMeta, Vip};
use sr_workload::trace::vip_addr;
use sr_workload::TraceConfig;
use std::collections::HashSet;

/// §7 "Combine with SLB solutions": operators split VIPs between SilkRoad
/// (high traffic volume) and an SLB tier (huge connection counts). Unlike
/// Duet, assignments are static — no VIP ever migrates during an update, so
/// PCC is preserved on both sides.
struct StaticSplit {
    switch: SilkRoadSwitch,
    slb: SoftwareLb,
    /// VIPs served by the SLB tier.
    slb_vips: HashSet<Vip>,
}

impl StaticSplit {
    fn new(silk_cfg: SilkRoadConfig, slb_vips: HashSet<Vip>) -> StaticSplit {
        StaticSplit {
            switch: SilkRoadSwitch::new(silk_cfg),
            slb: SoftwareLb::new(),
            slb_vips,
        }
    }

    /// The side serving `vip`.
    fn side(&mut self, vip: Vip) -> &mut dyn LoadBalancer {
        if self.slb_vips.contains(&vip) {
            &mut self.slb
        } else {
            &mut self.switch
        }
    }
}

impl LoadBalancer for StaticSplit {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) {
        self.side(vip).add_vip(vip, dips);
    }

    fn apply_update(&mut self, vip: Vip, op: PoolUpdate, now: Nanos) {
        self.side(vip).apply_update(vip, op, now);
    }

    fn packet(&mut self, pkt: &PacketMeta, now: Nanos) -> PacketVerdict {
        self.side(Vip(pkt.tuple.dst)).packet(pkt, now)
    }

    fn conn_closed(&mut self, vip: Vip, tuple: &FiveTuple, now: Nanos) {
        self.side(vip).conn_closed(vip, tuple, now);
    }

    fn tick(&mut self, now: Nanos) -> Vec<Vip> {
        LoadBalancer::tick(&mut self.switch, now)
    }

    fn next_wakeup(&self) -> Option<Nanos> {
        self.switch.next_wakeup()
    }

    fn software_share(&self, vip: Vip, from: Nanos, to: Nanos) -> f64 {
        if self.slb_vips.contains(&vip) {
            1.0
        } else {
            self.switch.software_share(vip, from, to)
        }
    }
}

/// Each VIP's packets, updates and traffic accounting go to its own side.
fn check_routing() {
    let dip = |i| Dip(Addr::v4(10, 0, 0, i, 20));
    let (switch_vip, slb_vip) = (
        Vip(Addr::v4(20, 0, 0, 1, 80)),
        Vip(Addr::v4(20, 0, 0, 2, 80)),
    );
    let mut h = StaticSplit::new(SilkRoadConfig::small_test(), HashSet::from([slb_vip]));
    h.add_vip(switch_vip, vec![dip(1), dip(2)]);
    h.add_vip(slb_vip, vec![dip(3), dip(4)]);
    // Switch-side VIP: hardware path.
    let v = h.packet(
        &PacketMeta::syn(FiveTuple::tcp(Addr::v4(1, 2, 3, 4, 1), switch_vip.0)),
        Nanos::ZERO,
    );
    assert!(v.dip.is_some() && !v.in_software);
    // SLB-side VIP: software path, and traffic accounting agrees.
    let slb_conn = FiveTuple::tcp(Addr::v4(1, 2, 3, 4, 99), slb_vip.0);
    let v2 = h.packet(&PacketMeta::syn(slb_conn), Nanos::ZERO);
    assert!(v2.dip.is_some() && v2.in_software);
    let second = Nanos::from_secs(1);
    assert_eq!(h.software_share(slb_vip, Nanos::ZERO, second), 1.0);
    assert_eq!(h.software_share(switch_vip, Nanos::ZERO, second), 0.0);
    // Updates route too; both sides keep PCC.
    h.apply_update(slb_vip, PoolUpdate::Remove(dip(4)), Nanos::from_millis(1));
    let v3 = h.packet(&PacketMeta::data(slb_conn, 100), Nanos::from_millis(2));
    assert_eq!(v3.dip, v2.dip);
}

fn main() {
    check_routing();

    let trace = TraceConfig {
        vips: 10,
        dips_per_vip: 10,
        new_conns_per_min: 9_000.0,
        median_flow_secs: 20.0,
        flow_sigma: 1.0,
        median_rate_bps: 150_000.0,
        rate_sigma: 0.5,
        median_pkt_bytes: 800.0,
        pkt_sigma: 0.35,
        updates_per_min: 20.0,
        shared_dip_upgrades: false,
        duration: Duration::from_mins(6),
        family: AddrFamily::V4,
        seed: 0x4b1d,
    };

    // Operator policy: VIPs 7..9 are connection-count monsters that would
    // blow the ConnTable budget — serve them from SLBs.
    let slb_vips: HashSet<Vip> = (7..10).map(|i| vip_addr(trace.family, i)).collect();
    println!(
        "hybrid: {} VIPs on the switch, {} on the SLB tier, {} upd/min\n",
        trace.vips - slb_vips.len() as u32,
        slb_vips.len(),
        trace.updates_per_min
    );

    let cfg = SilkRoadConfig {
        conn_capacity: 50_000,
        ..Default::default()
    };
    let mut lb = StaticSplit::new(cfg, slb_vips.clone());
    let m = Harness::new(trace).run(&mut lb);

    println!("run:  {m}");
    println!(
        "software traffic share: {:.1}% (≈ the SLB-side VIPs' share of volume)",
        100.0 * m.software_traffic_fraction()
    );
    let sw = &lb.switch;
    println!(
        "switch handled {} connections in ConnTable ({} installs), {} updates",
        sw.conn_count(),
        sw.stats().installs,
        sw.stats().updates_completed
    );
    assert_eq!(m.pcc_violations, 0, "hybrid must keep PCC on both sides");
    // Roughly 3/10 of volume should have gone through software.
    assert!(
        (0.1..0.6).contains(&m.software_traffic_fraction()),
        "unexpected split: {m}"
    );
    println!("\nPCC intact on both sides ({} adapter)", lb.name());
}
