//! Cross-crate end-to-end PCC behaviour: every system, one trace family.
//!
//! These are the repository's headline invariants:
//! * SilkRoad and SLB never break a connection;
//! * Duet's violations depend on its migrate-back policy;
//! * stateless ECMP is strictly worst;
//! * removing the TransitTable re-introduces (few) violations.

use silkroad::{SilkRoadConfig, SilkRoadSwitch};
use sr_baselines::{DuetConfig, DuetLb, EcmpLb, MigrationPolicy, SoftwareLb};
use sr_sim::{Harness, RunMetrics};
use sr_types::{AddrFamily, Duration};
use sr_workload::TraceConfig;

fn trace(updates_per_min: f64, median_flow_secs: f64, seed: u64) -> TraceConfig {
    TraceConfig {
        vips: 12,
        dips_per_vip: 8,
        new_conns_per_min: 4_000.0,
        median_flow_secs,
        flow_sigma: 1.0,
        median_rate_bps: 200_000.0,
        rate_sigma: 0.5,
        median_pkt_bytes: 800.0,
        pkt_sigma: 0.35,
        updates_per_min,
        shared_dip_upgrades: false,
        duration: Duration::from_mins(12),
        family: AddrFamily::V4,
        seed,
    }
}

fn run_silkroad(t: TraceConfig) -> RunMetrics {
    let cfg = SilkRoadConfig {
        conn_capacity: 100_000,
        ..Default::default()
    };
    let mut lb = SilkRoadSwitch::new(cfg);
    Harness::new(t).run(&mut lb)
}

/// SilkRoad's only residual breakage mechanism is a digest false positive
/// on a data packet (a later-installed connection shadowing an existing
/// digest in an earlier pipeline stage). The paper measures the digest
/// false-positive rate at 0.01% of connections; hold SilkRoad to well
/// under that.
const DIGEST_FP_BUDGET: f64 = 1e-4;

#[test]
fn silkroad_pcc_holds_for_short_flows() {
    let m = run_silkroad(trace(30.0, 10.0, 1));
    assert!(m.conns_total > 10_000, "{m}");
    assert!(m.violation_fraction() <= DIGEST_FP_BUDGET, "{m}");
}

#[test]
fn silkroad_pcc_holds_for_cache_flows() {
    // §3.2: longer flows mean more old connections at any instant — the
    // regime where Duet collapses but SilkRoad must still be exact.
    let m = run_silkroad(trace(30.0, 270.0, 2));
    assert!(m.violation_fraction() <= DIGEST_FP_BUDGET, "{m}");
}

#[test]
fn duet_long_flows_violate_more_than_short() {
    let run = |median_flow| {
        let mut lb = DuetLb::new(DuetConfig {
            policy: MigrationPolicy::Periodic(Duration::from_mins(1)),
            seed: 5,
        });
        Harness::new(trace(30.0, median_flow, 3)).run(&mut lb)
    };
    let short = run(10.0);
    let long = run(270.0);
    assert!(short.pcc_violations > 0, "{short}");
    assert!(
        long.violation_fraction() > short.violation_fraction(),
        "long {long} vs short {short}"
    );
}

#[test]
fn system_ordering_on_violations() {
    let t = trace(30.0, 30.0, 7);
    let silkroad = run_silkroad(t);
    let slb = {
        let mut lb = SoftwareLb::new();
        Harness::new(t).run(&mut lb)
    };
    let duet = {
        let mut lb = DuetLb::new(DuetConfig {
            policy: MigrationPolicy::Periodic(Duration::from_mins(1)),
            seed: 5,
        });
        Harness::new(t).run(&mut lb)
    };
    let ecmp = {
        let mut lb = EcmpLb::new(5);
        Harness::new(t).run(&mut lb)
    };
    assert!(
        silkroad.violation_fraction() <= DIGEST_FP_BUDGET,
        "{silkroad}"
    );
    assert_eq!(slb.pcc_violations, 0, "{slb}");
    assert!(
        duet.pcc_violations > silkroad.pcc_violations.max(1) * 10,
        "duet {duet} vs silkroad {silkroad}"
    );
    assert!(
        ecmp.violation_fraction() > duet.violation_fraction(),
        "ecmp {ecmp} vs duet {duet}"
    );
}

#[test]
fn software_load_ordering() {
    let t = trace(20.0, 30.0, 9);
    let silkroad = run_silkroad(t);
    let slb = {
        let mut lb = SoftwareLb::new();
        Harness::new(t).run(&mut lb)
    };
    let duet = {
        let mut lb = DuetLb::new(DuetConfig {
            policy: MigrationPolicy::Periodic(Duration::from_mins(10)),
            seed: 5,
        });
        Harness::new(t).run(&mut lb)
    };
    // SilkRoad keeps (essentially) everything in hardware; Duet is in
    // between; a pure SLB tier handles 100%.
    assert!(silkroad.software_traffic_fraction() < 0.01, "{silkroad}");
    assert!(
        duet.software_traffic_fraction() > silkroad.software_traffic_fraction(),
        "{duet}"
    );
    assert!(slb.software_traffic_fraction() > 0.99, "{slb}");
}

#[test]
fn no_transit_table_reintroduces_violations_under_stress() {
    // Slow the CPU so pending windows stretch; without the TransitTable the
    // update flips immediately and pending connections re-hash.
    let mut cfg = SilkRoadConfig {
        conn_capacity: 100_000,
        transit_enabled: false,
        ..Default::default()
    };
    cfg.cpu.insertions_per_sec = 2_000;
    cfg.learning.timeout = Duration::from_millis(5);
    let mut no_tt = SilkRoadSwitch::new(cfg.clone());
    let mut t = trace(50.0, 30.0, 11);
    t.median_rate_bps = 2_000_000.0; // chatty flows: packets in the window
    let m_no_tt = Harness::new(t).run(&mut no_tt);

    let mut cfg_tt = cfg;
    cfg_tt.transit_enabled = true;
    let mut with_tt = SilkRoadSwitch::new(cfg_tt);
    let m_tt = Harness::new(t).run(&mut with_tt);

    assert!(
        m_tt.violation_fraction() <= DIGEST_FP_BUDGET,
        "with TT: {m_tt}"
    );
    assert!(
        m_no_tt.pcc_violations > 0,
        "expected the ablation to break some connections: {m_no_tt}"
    );
}
