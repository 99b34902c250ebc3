//! The wave workload `churn` and `compare` share: one VIP over a
//! 16-DIP pool, and waves of brand-new connections. Wave `w` brings its
//! own cohort's SYNs, data for that cohort and the two before it (the
//! witnesses that stretch connections across mid-run pool updates), and
//! closes the wave `w-2` cohort once its last data packet is served.
//! Each harness adds its own update schedule on top.

use sr_types::{Addr, Dip, Duration, FiveTuple, PacketMeta, Vip};

/// The one VIP every wave targets.
pub(crate) fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

/// The `i`-th DIP of the pool.
pub(crate) fn dip(i: u8) -> Dip {
    Dip(Addr::v4(10, 0, 0, i, 20))
}

/// The VIP's initial pool: DIPs 1..=16.
pub(crate) fn base_pool() -> Vec<Dip> {
    (1..=16).map(dip).collect()
}

/// The `g`-th brand-new flow of a run (globally unique tuples; the port
/// spread keeps source endpoints from colliding on one address).
pub(crate) fn flow_tuple(g: u32) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(100, g, 1024 + (g % 251) as u16), vip().0)
}

/// Per-wave drain budget for a cohort of `flows`: the learning filter's
/// 1 ms notification, the switch CPU's 5 µs per install, plus slack.
pub(crate) fn drain(flows: u32) -> Duration {
    Duration::from_millis(1)
        + Duration::from_micros(5 * u64::from(flows))
        + Duration::from_millis(1)
}

/// One wave of the prebuilt workload.
pub(crate) struct Wave {
    /// SYN burst: `storm` copies of each new flow, round-major so one
    /// flow's duplicates are spread across the burst (retransmissions
    /// interleave with other handshakes, they don't arrive back to
    /// back).
    pub syns: Vec<PacketMeta>,
    /// Data for this wave's flows plus the two previous cohorts still
    /// open.
    pub data: Vec<PacketMeta>,
    /// The wave w-2 cohort, closed once its last data packet is served.
    pub closes: Vec<FiveTuple>,
}

/// Prebuild `waves` waves of `flows` new connections each, every SYN
/// sent `storm` times; every run replays the identical packets.
pub(crate) fn build_waves(waves: u32, flows: u32, storm: u32) -> Vec<Wave> {
    (0..waves)
        .map(|w| {
            let base = w * flows;
            let cohort: Vec<FiveTuple> = (0..flows).map(|f| flow_tuple(base + f)).collect();
            let mut syns = Vec::with_capacity((flows * storm) as usize);
            for _ in 0..storm {
                syns.extend(cohort.iter().map(|t| PacketMeta::syn(*t)));
            }
            let mut data = Vec::with_capacity((flows * 3) as usize);
            for back in (0..=2u32).rev() {
                if back > w {
                    continue;
                }
                let b = (w - back) * flows;
                data.extend((0..flows).map(|f| PacketMeta::data(flow_tuple(b + f), 800)));
            }
            let closes: Vec<FiveTuple> = if w >= 2 {
                (0..flows)
                    .map(|f| flow_tuple((w - 2) * flows + f))
                    .collect()
            } else {
                Vec::new()
            };
            Wave { syns, data, closes }
        })
        .collect()
}
