//! Simulate one ToR switch of the paper's reference PoP cluster (§3.2):
//! 149 VIPs, Hadoop-style flows, frequent DIP-pool updates — then report
//! what the operator cares about: broken connections, SRAM, and how many
//! SLB servers the switch replaced.
//!
//! ```text
//! cargo run --release --example cluster_sim [rate-factor] [minutes]
//! ```

use silkroad::{SilkRoadConfig, SilkRoadSwitch};
use sr_baselines::CostModel;
use sr_sim::Harness;
use sr_workload::TraceConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rate_factor: f64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(0.02);
    let minutes: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(2);

    let mut trace = TraceConfig::pop_scaled(rate_factor, minutes);
    trace.updates_per_min = 20.0;
    println!(
        "PoP reference cluster, one ToR: {:.0}K new conns/min, {} VIPs, {} upd/min, {} min",
        trace.new_conns_per_min / 1e3,
        trace.vips,
        trace.updates_per_min,
        minutes
    );

    let cfg = SilkRoadConfig {
        conn_capacity: ((trace.expected_conns() * 0.2) as usize).max(50_000),
        ..Default::default()
    };
    let mut sw = SilkRoadSwitch::new(cfg);
    let metrics = Harness::new(trace).run(&mut sw);

    println!("\nrun:        {metrics}");
    println!("\nswitch:\n{}", sw.stats());

    let mem = sw.memory();
    println!(
        "\nSRAM at end of run: conn-table {:.2} MB + pools {:.2} MB + transit {} B ({} resident)",
        mem.conn_table as f64 / 1e6,
        mem.dip_pool_table as f64 / 1e6,
        mem.transit,
        sw.conn_count()
    );
    // Steady-state residency is rate x flow duration; project the SRAM a
    // paper-scale ToR would hold (the Fig 12 model).
    use silkroad::memory::{cost, MemoryDesign, MemoryInputs};
    let live = (2_770_000.0 / 60.0 * 10.0) as u64; // full rate x 10 s flows
    let projected = cost(
        MemoryDesign::DigestVersion {
            digest_bits: 16,
            version_bits: 6,
        },
        &MemoryInputs {
            connections: live * 20, // p99 minute is far above the mean
            vips: trace.vips as u64,
            total_pool_members: (trace.vips * trace.dips_per_vip * 4) as u64,
            pool_rows: (trace.vips * 4) as u64,
            family: trace.family,
        },
    );
    println!(
        "projected paper-scale ToR SRAM (p99 minute): {:.1} MB",
        projected.total_mb()
    );

    // What did this one switch replace? Project to the reference PoP ToR:
    // ~27 Gbit/s of small-packet user traffic and ~9 M p99 connections
    // (the Fig 12/13 calibration).
    let gbps = 27.0;
    let pps = gbps * 1e9 / 8.0 / 420.0;
    let d = CostModel::default().size(pps, gbps * 1e9, 9_000_000.0);
    println!(
        "\nat paper-scale load this switch replaces ~{} SLB servers ({:.1}x)",
        d.slbs,
        d.replacement_ratio()
    );
    assert!(d.replacement_ratio() >= 2.0);
    // Residual violations can only come from digest false positives (the
    // paper's own 0.01% budget); anything above that is a real bug.
    assert!(
        metrics.violation_fraction() <= 1e-4,
        "SilkRoad broke PCC beyond the digest-FP budget: {metrics}"
    );
}
