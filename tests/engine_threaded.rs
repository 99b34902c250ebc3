//! Stress tests for the run-to-completion engine (threaded backend):
//! control-plane churn concurrent with streamed traffic must not perturb
//! decisions, and shutdown must be clean no matter how many batches are
//! still in flight.
//!
//! The decision-identity tests rely on the engine's determinism argument:
//! the SPSC job rings are FIFO and the facade publishes control ops and
//! dispatches batches in program order, so every worker observes the same
//! op/batch interleaving regardless of pipe count or backend. The
//! commutative stream digest then has to be bit-identical everywhere —
//! one 64-bit value summarizing every DIP, path, and version choice.

use silkroad::{
    EngineOptions, HealthEvent, MultiPipeSwitch, PoolUpdate, SilkRoadConfig, StreamStats,
};
use sr_types::{Addr, Dip, Duration, FiveTuple, Nanos, PacketMeta, Vip};

const FLOWS: u32 = 2_048;
const BATCH: usize = 192; // deliberately not a divisor of FLOWS

fn cfg() -> SilkRoadConfig {
    SilkRoadConfig {
        conn_capacity: 8_192,
        digest_bits: 24,
        transit_bytes: 4_096,
        ..Default::default()
    }
}

fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

fn dips() -> Vec<Dip> {
    (1..=8).map(|i| Dip(Addr::v4(10, 0, 0, i, 20))).collect()
}

fn conn(i: u32) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(100, i, 1024 + (i % 13) as u16), vip().0)
}

/// The shutdown test counts this *process's* `sr-pipe-*` threads, and the
/// harness runs tests on parallel threads — so every test that spawns
/// workers holds this lock for its duration. (The guarded value is `()`:
/// a poisoned lock, left by another test's failure, is still valid.)
fn worker_census_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn build(pipes: usize, threaded: bool) -> MultiPipeSwitch {
    let mut sw = MultiPipeSwitch::with_options(
        cfg(),
        pipes,
        EngineOptions {
            threaded,
            ..EngineOptions::default()
        },
    );
    sw.add_vip(vip(), dips()).unwrap();
    sw
}

/// One fixed script: streamed steady-state traffic with VIP flips, a
/// 3-step PCC pool update, health events, and idle expiry landing
/// *between* streamed batches (the only place control ops can land — the
/// facade pumps in-flight completions while each op propagates).
fn churn_script(sw: &mut MultiPipeSwitch) -> StreamStats {
    let aux_vip = Vip(Addr::v4(20, 0, 0, 2, 443));
    let aux_dips: Vec<Dip> = (1..=4).map(|i| Dip(Addr::v4(10, 0, 1, i, 20))).collect();

    // Establish all flows synchronously so the streamed window below is
    // pure steady state.
    let syns: Vec<PacketMeta> = (0..FLOWS).map(|i| PacketMeta::syn(conn(i))).collect();
    let mut now = Nanos::ZERO;
    for wave in syns.chunks(512) {
        sw.process_batch(wave, now);
        now = now.saturating_add(Duration::from_millis(10));
        sw.advance(now);
    }
    let data: Vec<PacketMeta> = syns
        .iter()
        .map(|p| PacketMeta::data(p.tuple, 800))
        .collect();

    // Streamed pass 1 with control churn landing mid-stream.
    let t = Nanos::from_secs(5);
    let chunks: Vec<&[PacketMeta]> = data.chunks(BATCH).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        sw.stream_batch(chunk, t);
        match i {
            1 => sw.add_vip(aux_vip, aux_dips.clone()).unwrap(),
            2 => sw
                .request_update(vip(), PoolUpdate::Remove(Dip(Addr::v4(10, 0, 0, 8, 20))), t)
                .unwrap(),
            3 => sw
                .apply_health_events(
                    &[
                        HealthEvent::Down(vip(), Dip(Addr::v4(10, 0, 0, 7, 20))),
                        HealthEvent::Up(aux_vip, Dip(Addr::v4(10, 0, 1, 9, 20))),
                    ],
                    t,
                )
                .unwrap(),
            5 => sw.advance(t.saturating_add(Duration::from_secs(5))),
            7 => {
                // Expiry mid-stream: nothing is idle long enough, so this
                // must be a deterministic no-op on every pipe count.
                assert_eq!(sw.expire_idle(t), 0);
            }
            8 => sw.remove_vip(aux_vip).unwrap(),
            _ => {}
        }
    }

    // Streamed pass 2 after the churn: flows must still resolve (PCC kept
    // them pinned through the pool update and health flips).
    let t2 = Nanos::from_secs(30);
    sw.advance(t2);
    for chunk in &chunks {
        sw.stream_batch(chunk, t2);
    }
    sw.stream_drain()
}

#[test]
fn control_churn_concurrent_with_streaming_keeps_decisions_identical() {
    let _census = worker_census_lock();
    let runs = [(1, false), (4, false), (1, true), (2, true), (4, true)];
    let mut stats: Vec<(usize, bool, StreamStats)> = Vec::new();
    for (pipes, threaded) in runs {
        let mut sw = build(pipes, threaded);
        stats.push((pipes, threaded, churn_script(&mut sw)));
    }
    let (p0, t0, base) = stats[0];
    assert_eq!(base.packets, 2 * FLOWS as u64);
    for (pipes, threaded, s) in &stats[1..] {
        assert_eq!(
            *s, base,
            "{pipes} pipes (threaded={threaded}) diverged from {p0} pipes (threaded={t0})"
        );
    }
}

#[test]
fn streamed_and_sync_traffic_interleave_identically_across_backends() {
    let _census = worker_census_lock();
    // process_packet/process_batch quiesce the target worker, so mixing
    // them with streaming is an ordering torture test: every sync call is
    // a barrier on one pipe while others may still hold staged batches.
    let mut digests = Vec::new();
    for (pipes, threaded) in [(1, false), (2, true), (4, true)] {
        let mut sw = build(pipes, threaded);
        let syns: Vec<PacketMeta> = (0..512).map(|i| PacketMeta::syn(conn(i))).collect();
        sw.process_batch(&syns, Nanos::ZERO);
        sw.advance(Nanos::from_secs(1));
        let data: Vec<PacketMeta> = syns
            .iter()
            .map(|p| PacketMeta::data(p.tuple, 800))
            .collect();
        let t = Nanos::from_secs(2);
        let mut sync_word = 0u64;
        for (i, chunk) in data.chunks(64).enumerate() {
            sw.stream_batch(chunk, t);
            if i % 3 == 0 {
                // A sync probe mid-stream: its decision feeds a separate
                // fold so backends must agree on it too.
                let d = sw.process_packet(&PacketMeta::data(conn(i as u32), 800), t);
                sync_word = sync_word
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(d.dip.map_or(0, |dip| u64::from(dip.0.port)));
            }
        }
        let streamed = sw.stream_drain();
        digests.push((pipes, threaded, streamed, sync_word));
    }
    let (_, _, base_stream, base_sync) = digests[0];
    for (pipes, threaded, s, sync) in &digests[1..] {
        assert_eq!(
            *s, base_stream,
            "{pipes} pipes (threaded={threaded}) stream fold diverged"
        );
        assert_eq!(
            *sync, base_sync,
            "{pipes} pipes (threaded={threaded}) sync probes diverged"
        );
    }
}

#[test]
fn shutdown_with_in_flight_batches_never_hangs_or_leaks_workers() {
    let _census = worker_census_lock();
    // Threads named sr-pipe-* must all be gone after each drop; /proc is
    // the ground truth on Linux (skip the count elsewhere).
    fn worker_threads() -> Option<usize> {
        let dir = std::fs::read_dir("/proc/self/task").ok()?;
        let mut n = 0;
        for t in dir.flatten() {
            let comm = std::fs::read_to_string(t.path().join("comm")).unwrap_or_default();
            if comm.starts_with("sr-pipe-") {
                n += 1;
            }
        }
        Some(n)
    }

    let syns: Vec<PacketMeta> = (0..512).map(|i| PacketMeta::syn(conn(i))).collect();
    let data: Vec<PacketMeta> = syns
        .iter()
        .map(|p| PacketMeta::data(p.tuple, 800))
        .collect();
    for round in 0..24 {
        let pipes = [1, 2, 4][round % 3];
        let mut sw = build(pipes, true);
        sw.process_batch(&syns, Nanos::ZERO);
        let t = Nanos::from_secs(1);
        // Leave up to ring_depth batches in flight per pipe, plus staged
        // partial batches — then drop without draining.
        for chunk in data.chunks(96) {
            sw.stream_batch(chunk, t);
        }
        if round % 2 == 0 {
            // Half the rounds also leave a control op as the *last* job.
            sw.advance(Nanos::from_secs(2));
        }
        drop(sw);
        if let Some(n) = worker_threads() {
            assert_eq!(n, 0, "round {round}: {n} sr-pipe workers leaked");
        }
    }

    // Degenerate lifecycles: drop immediately after spawn, and drop with
    // zero traffic but queued control ops.
    for pipes in [1, 2, 4] {
        drop(build(pipes, true));
        let mut sw = build(pipes, true);
        sw.advance(Nanos::from_secs(1));
        drop(sw);
    }
    if let Some(n) = worker_threads() {
        assert_eq!(n, 0, "degenerate lifecycles leaked {n} workers");
    }
}

#[test]
fn queries_are_consistent_while_streams_are_in_flight() {
    let _census = worker_census_lock();
    let mut sw = build(4, true);
    let syns: Vec<PacketMeta> = (0..FLOWS).map(|i| PacketMeta::syn(conn(i))).collect();
    sw.process_batch(&syns, Nanos::ZERO);
    sw.advance(Nanos::from_secs(1));
    let data: Vec<PacketMeta> = syns
        .iter()
        .map(|p| PacketMeta::data(p.tuple, 800))
        .collect();
    let t = Nanos::from_secs(2);
    for chunk in data.chunks(BATCH) {
        sw.stream_batch(chunk, t);
    }
    // Queries land after all published jobs (FIFO rings), so they see
    // every streamed packet dispatched so far once the workers catch up.
    assert_eq!(sw.conn_count(), FLOWS as usize);
    let stats = sw.stats();
    assert_eq!(stats.packets, 2 * u64::from(FLOWS));
    let drained = sw.stream_drain();
    assert_eq!(drained.packets, FLOWS as u64);
}
