//! Property-based tests for the ASIC substrate.

use proptest::prelude::*;
use sr_asic::{
    LearningFilter, LearningFilterConfig, Meter, MeterColor, MeterConfig, SwitchCpu,
    SwitchCpuConfig,
};
use sr_types::{Duration, Nanos};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The meter never marks more green bytes than CIR×time + CBS, nor
    /// more green+yellow than (CIR+EIR)×time + CBS + EBS — the token
    /// conservation law of RFC 4115.
    #[test]
    fn meter_token_conservation(
        cir_mbps in 1u64..5_000,
        eir_mbps in 0u64..5_000,
        offered_mbps in 1u64..20_000,
        pkt in 64u32..9000,
        ms in 1u64..200,
    ) {
        let cfg = MeterConfig {
            cir_bps: cir_mbps * 125_000, // Mbit/s -> bytes/s
            cbs: 64_000,
            eir_bps: eir_mbps * 125_000,
            ebs: 64_000,
        };
        let mut m = Meter::new(cfg);
        let (g, y, _r) = m.measure_cbr(
            Nanos::ZERO,
            offered_mbps * 125_000,
            pkt,
            Duration::from_millis(ms),
        );
        let secs = ms as f64 / 1e3;
        let g_cap = cfg.cir_bps as f64 * secs + cfg.cbs as f64 + pkt as f64;
        prop_assert!(g as f64 <= g_cap, "green {g} over cap {g_cap}");
        let gy_cap = g_cap + cfg.eir_bps as f64 * secs + cfg.ebs as f64 + pkt as f64;
        prop_assert!((g + y) as f64 <= gy_cap, "g+y {} over cap {gy_cap}", g + y);
    }

    /// Offered load below CIR is never marked red.
    #[test]
    fn meter_under_cir_never_red(
        cir_mbps in 10u64..5_000,
        pkt in 64u32..1500,
        ms in 1u64..100,
    ) {
        let cfg = MeterConfig {
            cir_bps: cir_mbps * 125_000,
            cbs: 9_000,
            eir_bps: 0,
            ebs: 0,
        };
        let mut m = Meter::new(cfg);
        // Offer exactly half the committed rate.
        let (_, _, r) = m.measure_cbr(
            Nanos::ZERO,
            cir_mbps * 125_000 / 2,
            pkt,
            Duration::from_millis(ms),
        );
        prop_assert_eq!(r, 0);
    }

    /// A single packet against a full bucket is green iff it fits.
    #[test]
    fn meter_first_packet(cbs in 0u64..4000, len in 1u32..4000) {
        let mut m = Meter::new(MeterConfig {
            cir_bps: 1,
            cbs,
            eir_bps: 0,
            ebs: 0,
        });
        let color = m.mark(Nanos::ZERO, len);
        if (len as u64) <= cbs {
            prop_assert_eq!(color, MeterColor::Green);
        } else {
            prop_assert_eq!(color, MeterColor::Red);
        }
    }

    /// The learning filter never buffers duplicates and never exceeds its
    /// capacity, for any key sequence.
    #[test]
    fn learning_filter_bounded_and_deduped(
        keys in proptest::collection::vec(any::<u16>(), 1..300),
        capacity in 1usize..64,
    ) {
        let mut f: LearningFilter<()> = LearningFilter::new(LearningFilterConfig {
            capacity,
            timeout: Duration::from_millis(1),
        });
        for (i, k) in keys.iter().enumerate() {
            f.learn(&k.to_be_bytes(), (), Nanos(i as u64));
            prop_assert!(f.len() <= capacity);
        }
        let batch = f.drain_now();
        let mut seen = std::collections::HashSet::new();
        for ev in &batch {
            prop_assert!(seen.insert(ev.key), "duplicate in batch");
        }
    }

    /// CPU completions are FIFO and spaced at least one job-cost apart.
    #[test]
    fn cpu_completions_fifo(
        submits in proptest::collection::vec(0u64..1_000_000, 1..100),
        rate in 1_000u64..1_000_000,
    ) {
        let mut cpu: SwitchCpu<usize> = SwitchCpu::new(SwitchCpuConfig {
            insertions_per_sec: rate,
        });
        let mut ts = submits.clone();
        ts.sort_unstable();
        for (i, t) in ts.iter().enumerate() {
            cpu.submit(i, Nanos(*t));
        }
        let done = cpu.pop_completed(Nanos::MAX);
        prop_assert_eq!(done.len(), ts.len());
        let cost = 1_000_000_000 / rate;
        for w in done.windows(2) {
            prop_assert!(w[0].payload < w[1].payload, "out of order");
            prop_assert!(
                w[1].completes_at.0 >= w[0].completes_at.0 + cost,
                "closer than one job cost"
            );
        }
    }
}
