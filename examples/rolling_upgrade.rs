//! A rolling service upgrade — the paper's dominant update source (82.7 %
//! of DIP changes) — comparing SilkRoad against Duet.
//!
//! The service upgrades its 8 DIPs two at a time; each batch is down for a
//! while and comes back. SilkRoad's version reuse means the whole upgrade
//! consumes a couple of pool versions, and no established connection to a
//! surviving DIP ever moves. Duet-1min redirects the VIP to SLBs and breaks
//! connections at every migrate-back.
//!
//! ```text
//! cargo run --release --example rolling_upgrade
//! ```

use silkroad::{SilkRoadConfig, SilkRoadSwitch};
use sr_baselines::{DuetConfig, DuetLb, MigrationPolicy};
use sr_sim::{Harness, LoadBalancer};
use sr_types::{AddrFamily, Duration};
use sr_workload::TraceConfig;

fn trace() -> TraceConfig {
    TraceConfig {
        vips: 4,
        dips_per_vip: 8,
        new_conns_per_min: 12_000.0,
        median_flow_secs: 30.0,
        flow_sigma: 1.0,
        median_rate_bps: 100_000.0,
        rate_sigma: 0.5,
        median_pkt_bytes: 800.0,
        pkt_sigma: 0.35,
        // A rolling reboot generates a steady stream of remove/add pairs.
        updates_per_min: 12.0,
        shared_dip_upgrades: false,
        duration: Duration::from_mins(5),
        family: AddrFamily::V4,
        seed: 0x011ed,
    }
}

fn main() {
    println!("rolling upgrade: 4 VIPs x 8 DIPs, 12 updates/min, 5 minutes\n");

    let mut silkroad = SilkRoadSwitch::new(SilkRoadConfig {
        conn_capacity: 100_000,
        ..SilkRoadConfig::default()
    });
    let m = Harness::new(trace()).run(&mut silkroad);
    println!("SilkRoad:   {m}");
    let (allocs, reuses, changes, live) = silkroad
        .version_counters(sr_workload::trace::vip_addr(AddrFamily::V4, 0))
        .unwrap();
    println!(
        "  vip0 versions: {changes} pool changes -> {allocs} allocated, {reuses} reused, {live} live"
    );

    let mut duet = DuetLb::new(DuetConfig {
        policy: MigrationPolicy::Periodic(Duration::from_mins(1)),
        seed: 7,
    });
    let md = Harness::new(trace()).run(&mut duet);
    println!("Duet-1min:  {md}");

    let mut duet10 = DuetLb::new(DuetConfig {
        policy: MigrationPolicy::Periodic(Duration::from_mins(10)),
        seed: 7,
    });
    let md10 = Harness::new(trace()).run(&mut duet10);
    println!("Duet-10min: {md10}");

    println!(
        "\nbroken connections: SilkRoad {} vs Duet-1min {} vs Duet-10min {}",
        m.pcc_violations, md.pcc_violations, md10.pcc_violations
    );
    println!(
        "SLB traffic:        SilkRoad {:.1}% vs Duet-1min {:.1}% vs Duet-10min {:.1}%",
        100.0 * m.software_traffic_fraction(),
        100.0 * md.software_traffic_fraction(),
        100.0 * md10.software_traffic_fraction()
    );
    assert_eq!(m.pcc_violations, 0, "SilkRoad must keep PCC");

    // Use the trait to show both systems behind the common interface.
    let names = [silkroad.name(), duet.name()];
    println!("\nsystems compared: {names:?}");
}
