//! Ablations of SilkRoad's design choices beyond the paper's own sweeps.
//!
//! * **Cuckoo geometry** — achievable load factor vs stage count, the
//!   hidden assumption behind "10 M connections fit";
//! * **Insertion-rate sweep** — how fast a switch CPU must be before the
//!   no-TransitTable design's violations fade (they never reach zero,
//!   which is the paper's argument for TransitTable);
//! * **Per-stage digest widths** (§7) — false-positive reduction from
//!   spending more digest bits in the stages that fill first.

use crate::scale::Scale;
use sr_exec::Exec;
use sr_hash::cuckoo::{CuckooConfig, CuckooTable, MatchMode};
use sr_sim::{run_scenario, RunMetrics, Scenario, SystemKind};
use sr_types::Duration;
use sr_workload::TraceConfig;

/// One cuckoo-geometry measurement.
#[derive(Clone, Copy, Debug)]
pub struct CuckooPoint {
    /// Pipeline stages.
    pub stages: usize,
    /// Entries per word.
    pub ways: usize,
    /// Achieved load factor at first insertion failure.
    pub load_factor: f64,
    /// Average BFS moves per insertion over the run.
    pub avg_moves: f64,
}

/// Fill tables of several geometries to failure.
pub fn cuckoo_geometry(exec: &Exec, seed: u64) -> Vec<CuckooPoint> {
    let geometries = vec![(2usize, 1usize), (2, 4), (4, 1), (4, 4), (8, 4)];
    exec.run(geometries, |(stages, ways)| {
        let slots = 32_768;
        let cfg = CuckooConfig {
            stages,
            words_per_stage: slots / stages / ways,
            entries_per_word: ways,
            match_mode: MatchMode::FullKey,
            seed,
        };
        let total = cfg.total_slots();
        let mut t: CuckooTable<u32> = CuckooTable::new(cfg);
        let mut inserted = 0u32;
        for i in 0..total as u32 {
            if t.insert(&i.to_be_bytes(), i).is_err() {
                break;
            }
            inserted += 1;
        }
        CuckooPoint {
            stages,
            ways,
            load_factor: inserted as f64 / total as f64,
            avg_moves: t.total_moves() as f64 / inserted.max(1) as f64,
        }
    })
}

/// One insertion-rate measurement.
#[derive(Clone, Debug)]
pub struct InsertRatePoint {
    /// CPU insertions per second.
    pub insertions_per_sec: u64,
    /// SilkRoad-without-TransitTable result.
    pub no_tt: RunMetrics,
    /// Full SilkRoad result.
    pub with_tt: RunMetrics,
}

/// Sweep the switch-CPU insertion rate at 50 updates/min over a
/// concentrated 12-VIP workload (updates must actually overlap pending
/// connections of *their* VIP; spreading the same arrivals over 149 VIPs
/// dilutes the overlap to nothing).
pub fn insertion_rate_sweep(exec: &Exec, scale: Scale, rates: &[u64]) -> Vec<InsertRatePoint> {
    let mut t = TraceConfig::pop_scaled(scale.rate_factor, scale.minutes);
    t.vips = 12;
    t.dips_per_vip = 8;
    t.updates_per_min = 50.0;
    t.seed = scale.seed;
    // Chatty flows so pending windows contain packets.
    t.median_rate_bps = 2_000_000.0;
    // One job per (rate, design): both designs of a rate run concurrently.
    let mut jobs = Vec::new();
    for &r in rates {
        jobs.push((r, false));
        jobs.push((r, true));
    }
    let runs = exec.run(jobs, |(r, with_tt)| {
        let sys = if with_tt {
            SystemKind::SilkRoad {
                transit_bytes: 256,
                learning_timeout: Duration::from_millis(1),
                insertions_per_sec: r,
            }
        } else {
            SystemKind::SilkRoadNoTransit {
                learning_timeout: Duration::from_millis(1),
                insertions_per_sec: r,
            }
        };
        run_scenario(Scenario::new(t, sys))
    });
    rates
        .iter()
        .zip(runs.chunks_exact(2))
        .map(|(&r, pair)| InsertRatePoint {
            insertions_per_sec: r,
            no_tt: pair[0].clone(),
            with_tt: pair[1].clone(),
        })
        .collect()
}

/// One digest-layout measurement.
#[derive(Clone, Copy, Debug)]
pub struct DigestLayoutPoint {
    /// Human label.
    pub label: &'static str,
    /// Table fill fraction at measurement time.
    pub fill: f64,
    /// False hits observed over 400 K probe lookups.
    pub false_hits: u64,
}

/// Compare uniform digests against the §7 wider-early-stages layout at
/// equal *average* width, across fill levels. The §7 claim is about the
/// lightly-loaded regime: while connections fit in the wide-digest stages,
/// false positives are far below the uniform layout; as the narrow stages
/// fill, the advantage fades (and eventually inverts) — exactly the
/// scale-up trade the paper describes.
pub fn digest_layouts(exec: &Exec, seed: u64) -> Vec<DigestLayoutPoint> {
    let layouts: Vec<(&'static str, MatchMode)> = vec![
        ("uniform 16b", MatchMode::Digest { bits: 16 }),
        (
            "mixed 22/18/14/10",
            MatchMode::DigestPerStage {
                bits: vec![22, 18, 14, 10],
            },
        ),
    ];
    let per_layout = exec.run(layouts, |(label, mode)| {
        let mut t: CuckooTable<u32> = CuckooTable::new(CuckooConfig {
            stages: 4,
            words_per_stage: 2048,
            entries_per_word: 4,
            match_mode: mode,
            seed,
        });
        let total = t.config().total_slots();
        let mut inserted = 0u32;
        let mut points = Vec::new();
        for &fill in &[0.2f64, 0.5, 0.9] {
            let target = (total as f64 * fill) as u32;
            while inserted < target {
                let _ = t.insert(&inserted.to_be_bytes(), inserted);
                inserted += 1;
            }
            let mut false_hits = 0u64;
            for probe in 10_000_000..10_400_000u32 {
                if let Some(h) = t.lookup(&probe.to_be_bytes()) {
                    if !h.exact {
                        false_hits += 1;
                    }
                }
            }
            points.push(DigestLayoutPoint {
                label,
                fill,
                false_hits,
            });
        }
        points
    });
    per_layout.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_ways_pack_tighter() {
        let points = cuckoo_geometry(&Exec::available(), 1);
        let get = |s, w| {
            points
                .iter()
                .find(|p| p.stages == s && p.ways == w)
                .unwrap()
                .load_factor
        };
        // 4-way words beat single-entry words; more stages help too.
        assert!(get(4, 4) > get(4, 1), "{points:?}");
        assert!(get(4, 4) > get(2, 4), "{points:?}");
        assert!(get(4, 4) > 0.9, "{points:?}");
        assert!(get(2, 1) < 0.95, "{points:?}");
    }

    #[test]
    fn slower_cpu_hurts_no_tt_only() {
        // 200 inserts/s stretches each connection's pending window to
        // several ms (vs the 1 ms learning-timeout floor at 200 K/s), so
        // updates overlap far more pending connections. (Dropping *below*
        // the arrival rate instead grows the backlog without bound and
        // saturates the 256-B bloom across back-to-back updates — Fig 18's
        // failure regime, where both designs break.)
        let points = insertion_rate_sweep(&Exec::available(), Scale::test(), &[200, 200_000]);
        let slow = &points[0];
        let fast = &points[1];
        assert!(
            slow.no_tt.pcc_violations >= fast.no_tt.pcc_violations,
            "slow {} vs fast {}",
            slow.no_tt,
            fast.no_tt
        );
        assert!(slow.no_tt.pcc_violations > 0, "{}", slow.no_tt);
        assert_eq!(slow.with_tt.pcc_violations, 0, "{}", slow.with_tt);
        assert_eq!(fast.with_tt.pcc_violations, 0, "{}", fast.with_tt);
    }

    #[test]
    fn wider_early_digests_win_when_lightly_loaded() {
        let points = digest_layouts(&Exec::available(), 7);
        let get = |label: &str, fill: f64| {
            points
                .iter()
                .find(|p| p.label.starts_with(label) && p.fill == fill)
                .unwrap()
                .false_hits
        };
        // §7's regime: at 20% fill everything sits in the wide stages.
        assert!(
            get("mixed", 0.2) < get("uniform", 0.2),
            "mixed {} vs uniform {} at 0.2",
            get("mixed", 0.2),
            get("uniform", 0.2)
        );
        // The advantage shrinks as the narrow stages fill.
        let adv_low = get("uniform", 0.2) as f64 / get("mixed", 0.2).max(1) as f64;
        let adv_high = get("uniform", 0.9) as f64 / get("mixed", 0.9).max(1) as f64;
        assert!(adv_low > adv_high, "low {adv_low} vs high {adv_high}");
    }
}
