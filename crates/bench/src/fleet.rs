//! `repro fleet` — fleet-scale steady-state bench (`BENCH_fleet.json`).
//!
//! Drives `sr-sim`'s fleet engine over the paper's ~100-cluster fleet:
//! prewarm a live population to the target occupancy, stream arrivals and
//! DIP-pool churn (with a mid-run update storm) for the simulated
//! duration, and verify per-connection consistency on every close. The
//! committed full profile holds 2.6 M live connections across 100
//! clusters; the smoke profile is the same machinery CI-sized.
//!
//! The report folds in the measured-occupancy SRAM fit
//! ([`sr_netwide::sram_fit`]): the engine's per-cluster peak occupancy is
//! scaled back to paper load and pushed through the `silkroad::memory`
//! model against the 100 MB per-switch budget — the deployment claim of
//! Fig 12, re-derived from held state instead of the synthesis formula.
//!
//! Gate logic lives in the `repro` binary; this module only measures.

use crate::report::{json_doc, json_hex, json_object, json_str};
use sr_netwide::{sram_fit, SramFitReport};
use sr_sim::{run_fleet, FleetParams, FleetReport};
use sr_workload::{synthesize_fleet, FleetConfig};

/// Per-switch SRAM budget the fit check uses (Fig 12's "modern ASIC").
pub const SRAM_BUDGET_MB: f64 = 100.0;

/// The fleet the bench simulates: 100 clusters (the default synthesis
/// mix is 96; the acceptance gate wants a round "about a hundred").
fn bench_fleet() -> FleetConfig {
    FleetConfig {
        pops: 30,
        frontends: 24,
        backends: 46,
        seed: 0xf1ee7,
    }
}

/// Engine parameters for the full or smoke profile.
pub fn fleet_params(smoke: bool) -> FleetParams {
    if smoke {
        FleetParams {
            fleet: bench_fleet(),
            seed: 0x0051_1c0a,
            target_conns: 150_000,
            sim_secs: 10,
            epoch_ms: 250,
            storm_factor: 10.0,
            workers: sr_exec::available_cores(),
        }
    } else {
        FleetParams {
            fleet: bench_fleet(),
            seed: 0x0051_1c0a,
            target_conns: 2_600_000,
            sim_secs: 60,
            epoch_ms: 100,
            storm_factor: 10.0,
            workers: sr_exec::available_cores(),
        }
    }
}

/// One fleet-bench run: the engine report plus the measured-occupancy
/// SRAM fit. Nothing here is timed, and the engine is sharding-invariant,
/// so the document is the same bytes on every host and at every worker
/// count.
#[derive(Clone, Debug)]
pub struct FleetBench {
    /// Whether this was the CI-sized smoke profile.
    pub smoke: bool,
    /// Parameters the engine ran with.
    pub params: FleetParams,
    /// What the engine measured.
    pub report: FleetReport,
    /// Measured-occupancy SRAM fit at [`SRAM_BUDGET_MB`].
    pub fit: SramFitReport,
}

/// Run the bench with explicit parameters (tests use tiny fleets).
pub fn run_with(params: FleetParams, smoke: bool) -> FleetBench {
    let report = run_fleet(&params);
    let specs = synthesize_fleet(params.fleet);
    let fit = sram_fit(&specs, &report.per_cluster_peak, SRAM_BUDGET_MB);
    FleetBench {
        smoke,
        params,
        report,
        fit,
    }
}

/// Run the committed full or smoke profile.
pub fn run(smoke: bool) -> FleetBench {
    run_with(fleet_params(smoke), smoke)
}

impl FleetBench {
    /// Render as the committed `BENCH_fleet.json` document.
    pub fn to_json(&self) -> String {
        let r = &self.report;
        let fit = &self.fit;
        json_doc(&[
            ("bench", json_str("fleet")),
            ("smoke", self.smoke.to_string()),
            ("target_conns", self.params.target_conns.to_string()),
            ("sim_secs", self.params.sim_secs.to_string()),
            ("epoch_ms", self.params.epoch_ms.to_string()),
            ("storm_factor", self.params.storm_factor.to_string()),
            ("clusters", r.clusters.to_string()),
            ("epochs", r.epochs.to_string()),
            ("held_median", r.held_median.to_string()),
            ("held_peak", r.held_peak.to_string()),
            ("held_final", r.held_final.to_string()),
            ("opens", r.opens.to_string()),
            ("closes", r.closes.to_string()),
            ("opens_per_sec", format!("{:.0}", r.opens_per_sec)),
            ("pcc_violations", r.pcc_violations.to_string()),
            ("updates_applied", r.updates_applied.to_string()),
            ("updates_skipped", r.updates_skipped.to_string()),
            ("state_bytes", r.state_bytes.to_string()),
            ("bytes_per_conn", format!("{:.2}", r.bytes_per_conn)),
            ("control_bytes", r.control_bytes.to_string()),
            ("digest", json_hex(r.digest)),
            (
                "note",
                json_str(
                    "bytes_per_conn = (flow stores + timer wheels) / held_peak; \
                     sram_fit scales measured per-cluster peaks to paper occupancy",
                ),
            ),
            (
                "sram_fit",
                json_object(&[
                    ("budget_mb", format!("{:.0}", fit.budget_mb)),
                    ("clusters", fit.clusters.to_string()),
                    ("fitting", fit.fitting.to_string()),
                    ("median_mb", format!("{:.1}", fit.median_mb)),
                    ("max_mb", format!("{:.1}", fit.max_mb)),
                    ("scale", format!("{:.1}", fit.scale)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fleet_bench_reports_sane_json() {
        let mut params = FleetParams {
            fleet: FleetConfig {
                pops: 2,
                frontends: 1,
                backends: 2,
                seed: 0xf1ee7,
            },
            seed: 42,
            target_conns: 10_000,
            sim_secs: 4,
            epoch_ms: 250,
            storm_factor: 10.0,
            workers: 1,
        };
        let b = run_with(params, true);
        assert_eq!(b.report.pcc_violations, 0);
        assert_eq!(b.fit.clusters, 5);
        assert!(b.report.bytes_per_conn <= 64.0);
        let json = b.to_json();
        for key in [
            "\"bench\": \"fleet\"",
            "\"smoke\": true",
            "\"pcc_violations\": 0",
            "\"sram_fit\"",
            "\"digest\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No host stamp, peak-RSS sample, clock reading or worker count.
        for key in ["host_", "peak_rss", "elapsed_ns", "pps", "workers"] {
            assert!(!json.contains(key), "host-dependent {key} in {json}");
        }
        // The document is a pure function of the workload: sharding the
        // clusters across more workers changes no byte of it.
        params.workers = 3;
        assert_eq!(run_with(params, true).to_json(), json);
    }

    #[test]
    fn committed_profiles_are_paper_shaped() {
        // The full profile must satisfy the acceptance gate's shape
        // (without running it here): 100 clusters, >= 2 M target.
        let full = fleet_params(false);
        let specs = synthesize_fleet(full.fleet);
        assert_eq!(specs.len(), 100);
        assert!(full.target_conns >= 2_000_000);
        let smoke = fleet_params(true);
        assert_eq!(synthesize_fleet(smoke.fleet).len(), 100);
        assert!(smoke.target_conns < full.target_conns);
        assert!(smoke.sim_secs < full.sim_secs);
    }
}
