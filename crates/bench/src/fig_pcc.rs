//! Figures 5, 16, 17 and 18 — the simulation-backed PCC figures.
//!
//! Each figure builds a flat list of independent (data point, system)
//! jobs and fans them across [`Exec`]; results come back in job order, so
//! the rendered tables do not depend on the worker count.

use crate::scale::Scale;
use sr_baselines::MigrationPolicy;
use sr_exec::Exec;
use sr_sim::{run_scenario, RunMetrics, Scenario, SystemKind};
use sr_types::Duration;
use sr_workload::TraceConfig;

fn base_trace(scale: Scale, updates_per_min: f64) -> TraceConfig {
    let mut t = TraceConfig::pop_scaled(scale.rate_factor, scale.minutes);
    t.updates_per_min = updates_per_min;
    t.seed = scale.seed;
    t
}

/// One measured point: a system at an update frequency.
#[derive(Clone, Debug)]
pub struct PccPoint {
    /// System label.
    pub system: String,
    /// Updates per minute.
    pub updates_per_min: f64,
    /// Run results.
    pub metrics: RunMetrics,
}

/// Fig 5: the Duet dilemma. For each update frequency, runs Migrate-10min,
/// Migrate-1min and Migrate-PCC and reports SLB load (5a) and broken
/// connections (5b).
pub fn fig5(exec: &Exec, scale: Scale, freqs: &[f64]) -> Vec<PccPoint> {
    let systems = [
        SystemKind::Duet(MigrationPolicy::Periodic(Duration::from_mins(10))),
        SystemKind::Duet(MigrationPolicy::Periodic(Duration::from_mins(1))),
        SystemKind::Duet(MigrationPolicy::WaitPcc),
    ];
    sweep(exec, scale, freqs, &systems)
}

/// Fig 16: PCC violations vs update frequency for Duet-10min,
/// SilkRoad-without-TransitTable, and SilkRoad.
pub fn fig16(exec: &Exec, scale: Scale, freqs: &[f64]) -> Vec<PccPoint> {
    let systems = [
        SystemKind::Duet(MigrationPolicy::Periodic(Duration::from_mins(10))),
        SystemKind::SilkRoadNoTransit {
            learning_timeout: Duration::from_millis(1),
            insertions_per_sec: 200_000,
        },
        SystemKind::silkroad_default(),
    ];
    sweep(exec, scale, freqs, &systems)
}

fn sweep(exec: &Exec, scale: Scale, freqs: &[f64], systems: &[SystemKind]) -> Vec<PccPoint> {
    let mut jobs = Vec::new();
    for &f in freqs {
        for &sys in systems {
            jobs.push((f, sys));
        }
    }
    exec.run(jobs, |(f, sys)| PccPoint {
        system: sys.label(),
        updates_per_min: f,
        metrics: run_scenario(Scenario::new(base_trace(scale, f), sys)),
    })
}

/// Fig 17 point: a system at an arrival-rate factor.
#[derive(Clone, Debug)]
pub struct Fig17Point {
    /// System label.
    pub system: String,
    /// Arrival-rate multiplier on the reference 2.77 M conns/min.
    pub rate_factor: f64,
    /// Run results.
    pub metrics: RunMetrics,
}

/// Fig 17: PCC violations vs new-connection arrival rate at 10 updates/min.
pub fn fig17(exec: &Exec, scale: Scale, factors: &[f64]) -> Vec<Fig17Point> {
    let systems = [
        SystemKind::Duet(MigrationPolicy::Periodic(Duration::from_mins(10))),
        SystemKind::SilkRoadNoTransit {
            learning_timeout: Duration::from_millis(1),
            insertions_per_sec: 200_000,
        },
        SystemKind::silkroad_default(),
    ];
    let mut jobs = Vec::new();
    for &f in factors {
        for &sys in &systems {
            jobs.push((f, sys));
        }
    }
    exec.run(jobs, |(f, sys)| {
        let mut s = scale;
        s.rate_factor *= f;
        Fig17Point {
            system: sys.label(),
            rate_factor: f,
            metrics: run_scenario(Scenario::new(base_trace(s, 10.0), sys)),
        }
    })
}

/// Fig 18 point: TransitTable size × learning-filter timeout.
#[derive(Clone, Debug)]
pub struct Fig18Point {
    /// TransitTable bytes.
    pub transit_bytes: usize,
    /// Learning-filter timeout.
    pub timeout: Duration,
    /// Run results.
    pub metrics: RunMetrics,
}

/// Fig 18: violations vs TransitTable size for several learning timeouts,
/// at 10 updates/min.
pub fn fig18(exec: &Exec, scale: Scale, sizes: &[usize], timeouts: &[Duration]) -> Vec<Fig18Point> {
    let mut jobs = Vec::new();
    for &timeout in timeouts {
        for &bytes in sizes {
            jobs.push((timeout, bytes));
        }
    }
    exec.run(jobs, |(timeout, bytes)| {
        let sys = SystemKind::SilkRoad {
            transit_bytes: bytes,
            learning_timeout: timeout,
            insertions_per_sec: 200_000,
        };
        Fig18Point {
            transit_bytes: bytes,
            timeout,
            metrics: run_scenario(Scenario::new(base_trace(scale, 10.0), sys)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;

    #[test]
    fn fig16_ordering_holds() {
        let points = fig16(&Exec::available(), Scale::test(), &[30.0]);
        let get = |label: &str| {
            points
                .iter()
                .find(|p| p.system.contains(label))
                .unwrap()
                .metrics
                .clone()
        };
        let duet = get("Duet");
        let silkroad = get("SilkRoad(");
        assert_eq!(silkroad.pcc_violations, 0, "SilkRoad: {silkroad}");
        assert!(duet.pcc_violations > 0, "Duet should violate: {duet}");
    }

    #[test]
    fn fig5_dilemma_holds() {
        let points = fig5(&Exec::available(), Scale::test(), &[30.0]);
        let get = |label: &str| {
            points
                .iter()
                .find(|p| p.system == label)
                .unwrap()
                .metrics
                .clone()
        };
        let m10 = get("Duet-10min");
        let m1 = get("Duet-1min");
        let pcc = get("Duet-PCC");
        // Migrate-PCC never breaks a connection...
        assert_eq!(pcc.pcc_violations, 0, "{pcc}");
        // ...but keeps the most traffic in SLBs.
        assert!(
            pcc.software_traffic_fraction() >= m1.software_traffic_fraction(),
            "pcc {pcc} vs 1min {m1}"
        );
        // Faster migration moves less traffic through SLBs than 10-min.
        assert!(
            m1.software_traffic_fraction() <= m10.software_traffic_fraction() + 0.05,
            "1min {m1} vs 10min {m10}"
        );
    }

    #[test]
    fn fig18_bigger_filter_never_worse() {
        let points = fig18(
            &Exec::available(),
            Scale::test(),
            &[8, 256],
            &[Duration::from_millis(5)],
        );
        let small = points.iter().find(|p| p.transit_bytes == 8).unwrap();
        let big = points.iter().find(|p| p.transit_bytes == 256).unwrap();
        assert!(
            big.metrics.pcc_violations <= small.metrics.pcc_violations,
            "256B {} vs 8B {}",
            big.metrics,
            small.metrics
        );
        assert_eq!(big.metrics.pcc_violations, 0, "{}", big.metrics);
    }

    /// The acceptance property behind `--jobs`: a quick figure rendered
    /// from a 4-worker run is byte-identical to the sequential run.
    #[test]
    fn figure_output_is_worker_count_invariant() {
        let render = |exec: &Exec| {
            let sizes = [8usize, 256];
            let timeouts = [Duration::from_millis(5)];
            let points = fig18(exec, Scale::test(), &sizes, &timeouts);
            let mut t = Table::new(
                "determinism probe",
                &["TransitTable", "violations", "metrics"],
            );
            for p in &points {
                t.row(vec![
                    format!("{} B", p.transit_bytes),
                    p.metrics.pcc_violations.to_string(),
                    format!("{}", p.metrics),
                ]);
            }
            t.render()
        };
        let seq = render(&Exec::sequential());
        let par = render(&Exec::new(4));
        assert_eq!(seq, par, "parallel run diverged from sequential");
    }
}
