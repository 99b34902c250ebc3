//! Canned experiment scenarios for the evaluation figures.
//!
//! Each figure's bench target builds [`Scenario`]s and calls
//! [`run_scenario`]; the row structures returned carry everything the
//! `repro` binary prints.

use crate::harness::Harness;
use crate::lb::LoadBalancer;
use crate::metrics::RunMetrics;
use silkroad::{SilkRoadConfig, SilkRoadSwitch};
use sr_asic::{LearningFilterConfig, SwitchCpuConfig};
use sr_baselines::{DuetConfig, DuetLb, MigrationPolicy, SoftwareLb};
use sr_types::Duration;
use sr_workload::TraceConfig;

/// Which system to instantiate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SystemKind {
    /// SilkRoad with full TransitTable machinery.
    SilkRoad {
        /// TransitTable size in bytes.
        transit_bytes: usize,
        /// Learning-filter timeout.
        learning_timeout: Duration,
        /// CPU insertion rate, entries/s.
        insertions_per_sec: u64,
    },
    /// SilkRoad with the TransitTable disabled (Fig 16/17 ablation).
    SilkRoadNoTransit {
        /// Learning-filter timeout.
        learning_timeout: Duration,
        /// CPU insertion rate, entries/s.
        insertions_per_sec: u64,
    },
    /// Duet with a migrate-back policy.
    Duet(MigrationPolicy),
    /// Pure software LB.
    Slb,
}

impl SystemKind {
    /// The paper-default SilkRoad: 256 B TransitTable, 1 ms learning
    /// timeout, 200 K insertions/s.
    pub fn silkroad_default() -> SystemKind {
        SystemKind::SilkRoad {
            transit_bytes: 256,
            learning_timeout: Duration::from_millis(1),
            insertions_per_sec: 200_000,
        }
    }

    /// Short label for report rows.
    pub fn label(&self) -> String {
        match self {
            SystemKind::SilkRoad { transit_bytes, .. } => format!("SilkRoad({transit_bytes}B)"),
            SystemKind::SilkRoadNoTransit { .. } => "SilkRoad-noTT".to_string(),
            SystemKind::Duet(MigrationPolicy::Periodic(p)) => {
                format!("Duet-{:.0}min", p.as_secs_f64() / 60.0)
            }
            SystemKind::Duet(MigrationPolicy::WaitPcc) => "Duet-PCC".to_string(),
            SystemKind::Slb => "SLB".to_string(),
        }
    }
}

/// One experiment point.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Traffic + update trace.
    pub trace: TraceConfig,
    /// System under test.
    pub system: SystemKind,
}

impl Scenario {
    /// One experiment point: `system` under `trace`.
    pub fn new(trace: TraceConfig, system: SystemKind) -> Scenario {
        Scenario { trace, system }
    }
}

fn silkroad_cfg(
    transit_bytes: usize,
    transit_enabled: bool,
    learning_timeout: Duration,
    insertions_per_sec: u64,
    expected_conns: f64,
) -> SilkRoadConfig {
    SilkRoadConfig {
        transit_bytes,
        transit_enabled,
        learning: LearningFilterConfig {
            capacity: 2048,
            timeout: learning_timeout,
        },
        cpu: SwitchCpuConfig { insertions_per_sec },
        // Provision ConnTable for the live-connection population with headroom.
        conn_capacity: ((expected_conns * 0.2).max(20_000.0) as usize).min(12_000_000),
        ..Default::default()
    }
}

/// Run one scenario to completion.
pub fn run_scenario(s: Scenario) -> RunMetrics {
    let expected_conns = s.trace.expected_conns();
    let mut lb: Box<dyn LoadBalancer> = match s.system {
        SystemKind::SilkRoad {
            transit_bytes,
            learning_timeout,
            insertions_per_sec,
        } => Box::new(SilkRoadSwitch::new(silkroad_cfg(
            transit_bytes,
            true,
            learning_timeout,
            insertions_per_sec,
            expected_conns,
        ))),
        SystemKind::SilkRoadNoTransit {
            learning_timeout,
            insertions_per_sec,
        } => Box::new(SilkRoadSwitch::new(silkroad_cfg(
            256,
            false,
            learning_timeout,
            insertions_per_sec,
            expected_conns,
        ))),
        SystemKind::Duet(policy) => Box::new(DuetLb::new(DuetConfig {
            policy,
            seed: s.trace.seed ^ 0xd0e7,
        })),
        SystemKind::Slb => Box::new(SoftwareLb::new()),
    };
    Harness::new(s.trace).run(lb.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace(upm: f64) -> TraceConfig {
        let mut t = TraceConfig::pop_scaled(0.002, 2); // ~5.5K conns/min
        t.vips = 10;
        t.dips_per_vip = 8;
        t.updates_per_min = upm;
        t
    }

    #[test]
    fn labels() {
        assert_eq!(SystemKind::silkroad_default().label(), "SilkRoad(256B)");
        assert_eq!(
            SystemKind::Duet(MigrationPolicy::Periodic(Duration::from_mins(10))).label(),
            "Duet-10min"
        );
        assert_eq!(
            SystemKind::Duet(MigrationPolicy::WaitPcc).label(),
            "Duet-PCC"
        );
        assert_eq!(SystemKind::Slb.label(), "SLB");
    }

    #[test]
    fn fig16_shape_holds_at_small_scale() {
        // The paper's ordering at 10+ updates/min:
        //   SilkRoad (0) < SilkRoad-noTT (tiny) < Duet-10min.
        let upm = 20.0;
        let silkroad = run_scenario(Scenario::new(
            small_trace(upm),
            SystemKind::silkroad_default(),
        ));
        let no_tt = run_scenario(Scenario::new(
            small_trace(upm),
            SystemKind::SilkRoadNoTransit {
                learning_timeout: Duration::from_millis(5),
                insertions_per_sec: 10_000, // slow CPU widens the window
            },
        ));
        let duet = run_scenario(Scenario::new(
            small_trace(upm),
            SystemKind::Duet(MigrationPolicy::Periodic(Duration::from_mins(1))),
        ));
        assert_eq!(silkroad.pcc_violations, 0, "silkroad: {silkroad}");
        assert!(
            duet.pcc_violations > no_tt.pcc_violations,
            "duet {duet} vs noTT {no_tt}"
        );
        assert!(duet.pcc_violations > 0, "{duet}");
    }

    #[test]
    fn conn_capacity_scales_with_trace() {
        let cfg = silkroad_cfg(256, true, Duration::from_millis(1), 200_000, 1_000_000.0);
        assert!(cfg.conn_capacity >= 200_000);
        let small = silkroad_cfg(256, true, Duration::from_millis(1), 200_000, 100.0);
        assert_eq!(small.conn_capacity, 20_000);
    }
}
