//! Property tests: a batch's decisions do not depend on how it is cut.
//!
//! Every packet crosses the switch through one chunk pipeline — hash,
//! locate, resolve, with ConnTable misses deferred into one setup stage
//! that dedups repeated keys within the chunk — and batch length only
//! decides how many packets share a chunk. The reference arm sends one
//! packet per batch (`process_packet`), where deferral and dedup have
//! nothing to reorder; the batched arm cuts the same stream into batches of
//! 1 to 79 packets, so full chunks, partial final chunks and single-packet
//! batches all occur. These properties drive randomized workloads — SYN
//! storms with duplicated handshakes, interleaved data and early closes,
//! and pool updates landing mid-burst while setups are in flight — through
//! both arms and require:
//!
//! 1. **Decision identity**: every packet's [`ForwardDecision`] (DIP,
//!    path, version, hit provenance) matches exactly, in order.
//! 2. **State identity**: after the pipelines drain, both switches hold
//!    the same connection count and resolve every flow — including flows
//!    that never completed setup — to the same decision.
//!
//! Both address families, 1/2-pipe steering and two digest widths are
//! covered: 24 bits, where digest false hits are rare, and 8 bits (the
//! narrowest `SilkRoadConfig::validate` accepts), where SYNs falsely hit
//! residents often enough that §4.2 repairs land mid-chunk and the rest of
//! the chunk re-enters the pipeline. A pinned case guarantees that path
//! runs on every test invocation.

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
    /// ConnTable digest width.
    digest_bits: u8,
    /// Data-plane batch length for the batched arm (single packets,
    /// partial chunks and multi-chunk batches around `SETUP_CHUNK`).
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
        prop_oneof![Just(24u8), Just(8u8)],
        prop_oneof![1 => Just(1usize), 4 => 2usize..80],
        proptest::collection::vec(wave_spec(), 2..5),
    )
        .prop_map(|(v6, pipes, digest_bits, batch, waves)| Scenario {
            v6,
            pipes,
            digest_bits,
            batch,
            waves,
        })
}

/// What one arm observed.
struct Run {
    /// Every packet's decision, in order.
    decisions: Vec<ForwardDecision>,
    /// Every flow's decision after the last drain.
    finals: Vec<ForwardDecision>,
    conns: usize,
    syn_repairs: u64,
}

/// Drive one arm over the scenario: `batch` packets per
/// `process_batch_into` call, or one `process_packet` call per packet
/// when `None` (the reference).
fn run_arm(s: &Scenario, batch: Option<usize>) -> Run {
    let total: u32 = s.waves.iter().map(|w| w.new_flows).sum();
    let cfg = SilkRoadConfig {
        conn_capacity: (total as usize).max(64) * 4,
        digest_bits: s.digest_bits,
        ..Default::default()
    };
    let mut sw = MultiPipeSwitch::inline(cfg, s.pipes);
    sw.add_vip(Vip(vip_addr(s.v6)), (1..=8).map(|i| dip(i, s.v6)).collect())
        .unwrap();

    let mut decisions = Vec::new();
    let mut out: Vec<ForwardDecision> = Vec::new();
    let mut process = |sw: &mut MultiPipeSwitch, pkts: &[PacketMeta], now: Nanos| match batch {
        None => {
            for p in pkts {
                decisions.push(sw.process_packet(p, now));
            }
        }
        Some(n) => {
            for chunk in pkts.chunks(n) {
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
        // round-major (retransmits land in later chunks), each of the
        // first ones followed by a witness data packet for an earlier
        // flow — so chunks mix misses with hits, also after a mid-chunk
        // repair — then the remaining witness data, then early FINs.
        let mut data =
            (0..w.data_prev.min(prev)).map(|i| PacketMeta::data(flow(i % prev.max(1), s.v6), 400));
        let mut burst: Vec<PacketMeta> = Vec::new();
        for _round in 0..w.storm {
            for i in 0..w.new_flows {
                burst.push(PacketMeta::syn(flow(prev + i, s.v6)));
                burst.extend(data.next());
            }
        }
        burst.extend(data);
        for i in 0..w.fins_prev.min(prev) {
            burst.push(PacketMeta::fin(flow(i % prev.max(1), s.v6)));
        }
        opened += w.new_flows;

        // The update lands after the first `s.batch` packets of the burst,
        // so part of the cohort is pending when the 3-step protocol opens
        // its window — every arm sees the identical packet/update
        // interleaving because the split sits on a batch boundary of each.
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
    let finals = (0..opened)
        .map(|i| sw.process_packet(&PacketMeta::data(flow(i, s.v6), 800), now))
        .collect();
    Run {
        decisions,
        finals,
        conns: sw.conn_count(),
        syn_repairs: sw.stats().syn_repairs,
    }
}

/// Whether the batched arm matches the one-packet reference on `s`.
fn check_against_reference(
    s: &Scenario,
    batched: &Run,
    reference: &Run,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(batched.decisions.len(), reference.decisions.len());
    for (i, (b, r)) in batched
        .decisions
        .iter()
        .zip(&reference.decisions)
        .enumerate()
    {
        prop_assert_eq!(b, r, "decision {} diverged (batch {})", i, s.batch);
    }
    prop_assert_eq!(batched.conns, reference.conns, "connection counts diverged");
    for (i, (b, r)) in batched.finals.iter().zip(&reference.finals).enumerate() {
        prop_assert_eq!(b, r, "post-drain resolution diverged for flow {}", i);
    }
    prop_assert_eq!(
        batched.syn_repairs,
        reference.syn_repairs,
        "repair counts diverged"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched and one-packet arms produce identical decision streams and
    /// identical post-drain state over randomized churn workloads.
    #[test]
    fn batched_setup_matches_per_packet(s in scenario()) {
        let reference = run_arm(&s, None);
        check_against_reference(&s, &run_arm(&s, Some(s.batch)), &reference)?;
    }
}

/// A pinned 8-bit-digest churn whose SYNs falsely hit residents: every
/// batch length — single packets, partial chunks, exactly one chunk, one
/// chunk plus one, several chunks — repairs mid-chunk and must still
/// decide exactly like the reference.
#[test]
fn syn_repairs_decide_identically_at_every_batch_length() {
    let wave = |update| WaveSpec {
        new_flows: 60,
        storm: 2,
        data_prev: 120,
        fins_prev: 4,
        update,
    };
    let mut s = Scenario {
        v6: false,
        pipes: 1,
        digest_bits: 8,
        batch: 1,
        waves: vec![
            wave(None),
            wave(None),
            wave(Some(true)),
            wave(None),
            wave(Some(false)),
        ],
    };
    for batch in [1, 7, 16, 17, 80] {
        // The update split sits at `batch`, so each length has its own
        // reference run.
        s.batch = batch;
        let reference = run_arm(&s, None);
        assert!(reference.syn_repairs > 0, "batch {batch}: no repair ran");
        let batched = run_arm(&s, Some(batch));
        if let Err(e) = check_against_reference(&s, &batched, &reference) {
            panic!("batch {batch}: {e:?}");
        }
    }
}
