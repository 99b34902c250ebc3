//! Flow-steering properties: stability, symmetry, and balance.
//!
//! The multi-pipe engine is only correct if every packet of a flow —
//! both directions, for the flow's whole lifetime — lands on the same
//! pipe (stability/symmetry), and only *fast* if a uniform trace spreads
//! evenly across pipes (balance). Stability and symmetry are checked over
//! arbitrary proptest-generated endpoints; balance over large synthetic
//! traces at 2, 4 and 8 pipes.

use proptest::prelude::*;
use silkroad::FlowSteering;
use sr_types::{Addr, FiveTuple, Protocol};

const SEED: u64 = 0x51_1c_0a_d0;

fn v4_tuple(a: u32, ap: u16, b: u32, bp: u16, tcp: bool) -> FiveTuple {
    FiveTuple {
        src: Addr::v4_indexed(1, a, ap),
        dst: Addr::v4_indexed(20, b, bp),
        proto: if tcp { Protocol::Tcp } else { Protocol::Udp },
    }
}

fn v6_tuple(a: u32, ap: u16, b: u32, bp: u16, tcp: bool) -> FiveTuple {
    FiveTuple {
        src: Addr::v6_indexed(1, a, ap),
        dst: Addr::v6_indexed(20, b, bp),
        proto: if tcp { Protocol::Tcp } else { Protocol::Udp },
    }
}

proptest! {
    /// Same 5-tuple → same pipe, and the reverse direction steers with
    /// it, for every pipe count and both address families.
    #[test]
    fn steering_is_stable_and_symmetric(
        a in any::<u32>(),
        ap in 1u16..u16::MAX,
        b in any::<u32>(),
        bp in 1u16..u16::MAX,
        tcp in any::<bool>(),
        pipes in 1usize..=8,
    ) {
        for t in [v4_tuple(a, ap, b, bp, tcp), v6_tuple(a, ap, b, bp, tcp)] {
            let s = FlowSteering::new(SEED, pipes);
            let p = s.pipe_for(&t);
            prop_assert!(p < pipes);
            // Stable: a fresh steering instance with the same seed agrees,
            // and repeated calls agree.
            prop_assert_eq!(FlowSteering::new(SEED, pipes).pipe_for(&t), p);
            prop_assert_eq!(s.pipe_for(&t), p);
            // Symmetric: the reverse direction of the flow steers with it.
            let rev = FiveTuple { src: t.dst, dst: t.src, proto: t.proto };
            prop_assert_eq!(s.pipe_for(&rev), p);
        }
    }
}

/// A uniform trace spreads within ±10% of the even share across 2, 4,
/// and 8 pipes, for both IPv4 and IPv6 client populations.
#[test]
fn steering_balances_uniform_traces() {
    const FLOWS: u32 = 20_000;
    for pipes in [2usize, 4, 8] {
        let s = FlowSteering::new(SEED, pipes);
        for family in ["v4", "v6"] {
            let mut counts = vec![0u32; pipes];
            for i in 0..FLOWS {
                let t = match family {
                    "v4" => v4_tuple(i, 1024 + (i % 100) as u16, 0, 80, true),
                    _ => v6_tuple(i, 1024 + (i % 100) as u16, 0, 80, true),
                };
                counts[s.pipe_for(&t)] += 1;
            }
            let share = FLOWS as f64 / pipes as f64;
            for (p, &c) in counts.iter().enumerate() {
                let dev = (c as f64 - share).abs() / share;
                assert!(
                    dev <= 0.10,
                    "{family} pipe {p}/{pipes}: {c} flows, {:.1}% off even share {share}",
                    100.0 * dev
                );
            }
        }
    }
}

/// Balance also holds when the trace mixes both directions of each flow —
/// the symmetric hash must not fold the population onto fewer pipes.
#[test]
fn steering_balances_bidirectional_traffic() {
    const FLOWS: u32 = 10_000;
    let pipes = 4usize;
    let s = FlowSteering::new(SEED, pipes);
    let mut counts = vec![0u32; pipes];
    for i in 0..FLOWS {
        let t = v4_tuple(i, 1024 + (i % 100) as u16, 0, 80, true);
        let rev = FiveTuple {
            src: t.dst,
            dst: t.src,
            proto: t.proto,
        };
        let p = s.pipe_for(&t);
        assert_eq!(s.pipe_for(&rev), p);
        counts[p] += 1;
    }
    let share = FLOWS as f64 / pipes as f64;
    for &c in &counts {
        assert!(
            (c as f64 - share).abs() / share <= 0.10,
            "counts={counts:?}"
        );
    }
}
