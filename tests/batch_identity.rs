//! Property tests: the chunked batch path (`process_batch_into`) is
//! observationally identical to one `process_packet` call per packet.
//!
//! The sequential path is the reference the fused setup stage is checked
//! against; both arms share the single learn → install pipeline. These
//! properties drive randomized workloads — SYN storms with duplicated
//! handshakes, interleaved data and early closes, and pool updates
//! landing mid-burst while setups are in flight — through both arms and
//! require:
//!
//! 1. **Decision identity**: every packet's [`ForwardDecision`] (DIP,
//!    path, version, hit provenance) matches exactly, in order.
//! 2. **State identity**: after the pipelines drain, both switches hold
//!    the same connection count and resolve every flow — including flows
//!    that never completed setup — to the same decision.
//!
//! Both address families and 1/2-pipe steering are covered; chunk-size
//! effects (the fused `SETUP_CHUNK` fast path, in-chunk dedup) are
//! exercised by varying the batch length across cases.

use proptest::prelude::*;
use silkroad::{ForwardDecision, MultiPipeSwitch, PoolUpdate, SilkRoadConfig};
use sr_types::{Addr, Dip, Duration, FiveTuple, Nanos, PacketMeta, Vip};

fn dip(i: u8, v6: bool) -> Dip {
    if v6 {
        Dip(Addr::v6_indexed(0x0d1b, u32::from(i), 20))
    } else {
        Dip(Addr::v4(10, 0, 0, i, 20))
    }
}

fn vip_addr(v6: bool) -> Addr {
    if v6 {
        Addr::v6_indexed(0x0a0a, 1, 443)
    } else {
        Addr::v4(20, 0, 0, 1, 80)
    }
}

fn flow(i: u32, v6: bool) -> FiveTuple {
    let client = if v6 {
        Addr::v6_indexed(0xc11e, i, 1024)
    } else {
        Addr::v4_indexed(100, i, 1024)
    };
    FiveTuple::tcp(client, vip_addr(v6))
}

/// One wave of the randomized workload.
#[derive(Clone, Debug)]
struct WaveSpec {
    /// Brand-new flows opened this wave.
    new_flows: u32,
    /// SYN retransmissions: every new flow's handshake is replayed this
    /// many times within the burst (the churn storm knob).
    storm: u32,
    /// Data packets for flows from earlier waves (witness traffic).
    data_prev: u32,
    /// Early FINs for flows from earlier waves (exercises the
    /// closed-early path racing the install pipeline).
    fins_prev: u32,
    /// Pool update requested mid-burst: `Some(true)` adds the spare DIP,
    /// `Some(false)` removes it (only honoured when it is present).
    update: Option<bool>,
}

#[derive(Clone, Debug)]
struct Scenario {
    v6: bool,
    pipes: usize,
    /// Data-plane batch length for the batched arm (spans chunk-boundary
    /// and partial-chunk shapes around `SETUP_CHUNK`).
    batch: usize,
    waves: Vec<WaveSpec>,
}

fn wave_spec() -> impl Strategy<Value = WaveSpec> {
    (
        1u32..48,
        1u32..5,
        0u32..24,
        0u32..6,
        prop_oneof![
            3 => Just(None),
            1 => Just(Some(true)),
            1 => Just(Some(false)),
        ],
    )
        .prop_map(
            |(new_flows, storm, data_prev, fins_prev, update)| WaveSpec {
                new_flows,
                storm,
                data_prev,
                fins_prev,
                update,
            },
        )
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<bool>(),
        prop_oneof![Just(1usize), Just(2usize)],
        7usize..80,
        proptest::collection::vec(wave_spec(), 2..5),
    )
        .prop_map(|(v6, pipes, batch, waves)| Scenario {
            v6,
            pipes,
            batch,
            waves,
        })
}

/// Drive one arm over the scenario and return (decisions, final per-flow
/// decisions, conn_count).
fn run_arm(s: &Scenario, per_packet: bool) -> (Vec<ForwardDecision>, Vec<ForwardDecision>, usize) {
    let total: u32 = s.waves.iter().map(|w| w.new_flows).sum();
    let cfg = SilkRoadConfig {
        conn_capacity: (total as usize).max(64) * 4,
        digest_bits: 24,
        ..Default::default()
    };
    let mut sw = MultiPipeSwitch::inline(cfg, s.pipes);
    sw.add_vip(Vip(vip_addr(s.v6)), (1..=8).map(|i| dip(i, s.v6)).collect())
        .unwrap();

    let mut decisions = Vec::new();
    let mut out: Vec<ForwardDecision> = Vec::new();
    let mut process = |sw: &mut MultiPipeSwitch, pkts: &[PacketMeta], now: Nanos| {
        if per_packet {
            for p in pkts {
                decisions.push(sw.process_packet(p, now));
            }
        } else {
            for chunk in pkts.chunks(s.batch) {
                out.clear();
                sw.process_batch_into(chunk, now, &mut out);
                decisions.extend_from_slice(&out);
            }
        }
    };

    let mut opened = 0u32;
    let mut spare_in_pool = false;
    let mut now = Nanos::ZERO;
    // Generous per-wave drain: filter notification + CPU time for the
    // whole cohort.
    let drain = Duration::from_millis(2) + Duration::from_micros(5 * u64::from(total));
    for w in &s.waves {
        let prev = opened;
        // Burst layout (identical for both arms): storm-replicated SYNs
        // round-major (retransmits land in later chunks), then witness
        // data, then early FINs.
        let mut burst: Vec<PacketMeta> = Vec::new();
        for _round in 0..w.storm {
            for i in 0..w.new_flows {
                burst.push(PacketMeta::syn(flow(prev + i, s.v6)));
            }
        }
        for i in 0..w.data_prev.min(prev) {
            burst.push(PacketMeta::data(flow(i % prev.max(1), s.v6), 400));
        }
        for i in 0..w.fins_prev.min(prev) {
            burst.push(PacketMeta::fin(flow(i % prev.max(1), s.v6)));
        }
        opened += w.new_flows;

        // The update lands after one batch of the burst, so part of the
        // cohort is pending when the 3-step protocol opens its window —
        // both arms see the identical packet/update interleaving because
        // the split sits on a batch boundary.
        let update = match w.update {
            Some(true) if !spare_in_pool => {
                spare_in_pool = true;
                Some(PoolUpdate::Add(dip(9, s.v6)))
            }
            Some(false) if spare_in_pool => {
                spare_in_pool = false;
                Some(PoolUpdate::Remove(dip(9, s.v6)))
            }
            _ => None,
        };
        let split = if update.is_some() {
            s.batch.min(burst.len())
        } else {
            0
        };
        process(&mut sw, &burst[..split], now);
        if let Some(op) = update {
            let _ = sw.request_update(Vip(vip_addr(s.v6)), op, now);
        }
        process(&mut sw, &burst[split..], now);
        now += drain;
        sw.advance(now);
        now += Duration::from_millis(1);
    }

    // Final state probe: every flow ever opened resolves through the
    // drained switch.
    let probe: Vec<PacketMeta> = (0..opened)
        .map(|i| PacketMeta::data(flow(i, s.v6), 800))
        .collect();
    out.clear();
    let mut finals = Vec::with_capacity(probe.len());
    for p in &probe {
        finals.push(sw.process_packet(p, now));
    }
    (decisions, finals, sw.conn_count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched and per-packet arms produce identical decision streams and
    /// identical post-drain state over randomized churn workloads.
    #[test]
    fn batched_setup_matches_per_packet(s in scenario()) {
        let (bat_dec, bat_fin, bat_conns) = run_arm(&s, false);
        let (pp_dec, pp_fin, pp_conns) = run_arm(&s, true);
        prop_assert_eq!(bat_dec.len(), pp_dec.len());
        for (i, (b, l)) in bat_dec.iter().zip(&pp_dec).enumerate() {
            prop_assert_eq!(b, l, "decision {} diverged (batch {})", i, s.batch);
        }
        prop_assert_eq!(bat_conns, pp_conns, "connection counts diverged");
        for (i, (b, l)) in bat_fin.iter().zip(&pp_fin).enumerate() {
            prop_assert_eq!(b, l, "post-drain resolution diverged for flow {}", i);
        }
    }
}
