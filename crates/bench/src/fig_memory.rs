//! Figures 12, 13 and 14 — memory and deployment-size figures.
//!
//! All three are analytic over the synthetic fleet: per-cluster connection
//! counts feed the `silkroad::memory` model (Fig 12, 14) and the
//! `sr_baselines::cost` model (Fig 13).

use silkroad::memory::{cost, saving_vs_naive, MemoryDesign, MemoryInputs};
use sr_baselines::CostModel;
use sr_exec::Exec;
use sr_workload::dists::percentile;
use sr_workload::{ClusterKind, ClusterSpec};

/// Per-kind summary of a per-cluster metric.
#[derive(Clone, Copy, Debug)]
pub struct KindSummary {
    /// Cluster kind.
    pub kind: ClusterKind,
    /// Median across clusters of this kind.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum ("peak cluster").
    pub max: f64,
}

fn summarize(
    exec: &Exec,
    fleet: &[ClusterSpec],
    f: impl Fn(&ClusterSpec) -> f64 + Sync,
) -> Vec<KindSummary> {
    [
        ClusterKind::PoP,
        ClusterKind::Frontend,
        ClusterKind::Backend,
    ]
    .iter()
    .map(|&kind| {
        let clusters: Vec<&ClusterSpec> = fleet.iter().filter(|c| c.kind == kind).collect();
        let mut xs: Vec<f64> = exec.run(clusters, &f);
        xs.sort_by(f64::total_cmp);
        KindSummary {
            kind,
            p50: percentile(&xs, 50.0),
            p90: percentile(&xs, 90.0),
            max: *xs.last().unwrap_or(&0.0),
        }
    })
    .collect()
}

/// The memory-model inputs for one cluster's worst-loaded ToR.
pub fn cluster_memory_inputs(c: &ClusterSpec) -> MemoryInputs {
    MemoryInputs {
        connections: c.conns_per_tor_p99,
        vips: c.vips as u64,
        // Every live version re-lists the pool members it holds.
        total_pool_members: c.total_dips() * c.live_versions_per_vip as u64,
        pool_rows: c.vips as u64 * c.live_versions_per_vip as u64,
        family: c.family,
    }
}

/// Fig 12: SilkRoad SRAM usage per ToR switch (MB) across clusters.
pub fn fig12(exec: &Exec, fleet: &[ClusterSpec]) -> Vec<KindSummary> {
    summarize(exec, fleet, |c| {
        cost(
            MemoryDesign::DigestVersion {
                digest_bits: 16,
                version_bits: 6,
            },
            &cluster_memory_inputs(c),
        )
        .total_mb()
    })
}

/// Fig 13: SLBs replaced by one SilkRoad. Sized per ToR switch — the
/// deployment unit on both sides is "the load one switch position sees".
pub fn fig13(exec: &Exec, fleet: &[ClusterSpec]) -> Vec<KindSummary> {
    let model = CostModel::default();
    summarize(exec, fleet, |c| {
        model
            .size(c.peak_pps, c.peak_gbps * 1e9, c.conns_per_tor_p99 as f64)
            .replacement_ratio()
    })
}

/// Fig 14 designs compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig14Design {
    /// 16-bit digest, full DIP action.
    DigestOnly,
    /// 16-bit digest + 6-bit version.
    DigestVersion,
}

/// Fig 14: memory saving vs the naive layout, per cluster kind.
pub fn fig14(exec: &Exec, fleet: &[ClusterSpec], design: Fig14Design) -> Vec<KindSummary> {
    let d = match design {
        Fig14Design::DigestOnly => MemoryDesign::DigestOnly { digest_bits: 16 },
        Fig14Design::DigestVersion => MemoryDesign::DigestVersion {
            digest_bits: 16,
            version_bits: 6,
        },
    };
    summarize(exec, fleet, |c| {
        saving_vs_naive(d, &cluster_memory_inputs(c))
    })
}

/// How many clusters fit within a given per-switch SRAM budget (Fig 12's
/// "can fit into switch SRAM for all the clusters we studied").
pub fn clusters_fitting(fleet: &[ClusterSpec], budget_mb: f64) -> usize {
    fleet
        .iter()
        .filter(|c| {
            cost(
                MemoryDesign::DigestVersion {
                    digest_bits: 16,
                    version_bits: 6,
                },
                &cluster_memory_inputs(c),
            )
            .total_mb()
                <= budget_mb
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig_meta::default_fleet;

    #[test]
    fn fig12_matches_paper_anchors() {
        let fleet = default_fleet();
        let rows = fig12(&Exec::available(), &fleet);
        let get = |k| *rows.iter().find(|r| r.kind == k).unwrap();
        // Paper: PoPs 14 MB median / 32 MB peak; Backends 15 MB / 58 MB;
        // Frontends < 2 MB.
        let pop = get(ClusterKind::PoP);
        assert!((5.0..25.0).contains(&pop.p50), "pop p50 {}", pop.p50);
        assert!((20.0..45.0).contains(&pop.max), "pop max {}", pop.max);
        let be = get(ClusterKind::Backend);
        assert!((5.0..30.0).contains(&be.p50), "backend p50 {}", be.p50);
        assert!((40.0..70.0).contains(&be.max), "backend max {}", be.max);
        let fe = get(ClusterKind::Frontend);
        assert!(fe.max < 4.0, "frontend max {}", fe.max);
    }

    #[test]
    fn fig12_all_clusters_fit_modern_sram() {
        // "SilkRoad can fit into ASIC SRAM with 50-100 MB".
        let fleet = default_fleet();
        assert_eq!(clusters_fitting(&fleet, 100.0), fleet.len());
        // But NOT into the 2012-generation 10-20 MB.
        assert!(clusters_fitting(&fleet, 15.0) < fleet.len());
    }

    #[test]
    fn fig13_matches_paper_anchors() {
        let rows = fig13(&Exec::available(), &default_fleet());
        let get = |k| *rows.iter().find(|r| r.kind == k).unwrap();
        // PoPs: one SilkRoad replaces 2-3 SLBs; Frontends ~11 median;
        // Backends 3 median, up to 277 peak.
        let pop = get(ClusterKind::PoP);
        assert!((1.0..8.0).contains(&pop.p50), "pop {}", pop.p50);
        let fe = get(ClusterKind::Frontend);
        assert!((5.0..30.0).contains(&fe.p50), "frontend {}", fe.p50);
        let be = get(ClusterKind::Backend);
        assert!((1.0..15.0).contains(&be.p50), "backend p50 {}", be.p50);
        assert!((100.0..600.0).contains(&be.max), "backend max {}", be.max);
    }

    #[test]
    fn fig14_matches_paper_anchors() {
        let fleet = default_fleet();
        let digest = fig14(&Exec::available(), &fleet, Fig14Design::DigestOnly);
        let version = fig14(&Exec::available(), &fleet, Fig14Design::DigestVersion);
        for (d, v) in digest.iter().zip(&version) {
            // Version design always saves at least as much as digest-only.
            assert!(v.p50 >= d.p50, "{:?}", d.kind);
        }
        // "All the clusters have more than 40% of memory reduction" with
        // the full design; Backends reach 95%.
        let be = version
            .iter()
            .find(|r| r.kind == ClusterKind::Backend)
            .unwrap();
        assert!(be.max > 0.9, "backend max saving {}", be.max);
        for v in &version {
            assert!(v.p50 > 0.4, "{:?} saves only {}", v.kind, v.p50);
        }
    }
}
