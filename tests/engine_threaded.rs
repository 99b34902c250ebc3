//! Stress tests for the run-to-completion engine (threaded backend):
//! control-plane churn concurrent with streamed traffic must not perturb
//! decisions, and shutdown must be clean no matter how many batches are
//! still in flight.
//!
//! The decision-identity tests rely on the engine's determinism argument:
//! control ops travel in the same FIFO job rings as the batches and the
//! facade waits for every pipe's reply to each op, so every pipe observes
//! the caller's op/batch order regardless of pipe count or backend. The
//! commutative stream digest then has to be bit-identical everywhere —
//! one 64-bit value summarizing every DIP, path, and version choice — and
//! equal to a plain `SilkRoadSwitch` fed the same script.

use silkroad::engine::{packet_digest, running_workers};
use silkroad::{
    EngineOptions, FlowSteering, ForwardDecision, MultiPipeSwitch, PoolUpdate, SilkRoadConfig,
    SilkRoadSwitch, StreamStats,
};
use sr_types::{Addr, Dip, Duration, FiveTuple, Nanos, PacketMeta, TypeError, Vip};

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

/// The shutdown test reads the process-wide count of running pipe workers,
/// and the harness runs tests on parallel threads — so every test that
/// spawns workers holds this lock for its duration. (The guarded value is
/// `()`: a poisoned lock, left by another test's failure, is still valid.)
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

/// The calls the churn script makes: the engine's own methods, or — for
/// the reference arm — a plain `SilkRoadSwitch`'s.
trait Target {
    fn sync_batch(&mut self, pkts: &[PacketMeta], now: Nanos);
    fn stream_batch(&mut self, pkts: &[PacketMeta], now: Nanos);
    fn stream_drain(&mut self) -> StreamStats;
    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError>;
    fn remove_vip(&mut self, vip: Vip) -> Result<(), TypeError>;
    fn request_update(&mut self, vip: Vip, op: PoolUpdate, now: Nanos) -> Result<(), TypeError>;
    fn advance(&mut self, now: Nanos);
    fn expire_idle(&mut self, now: Nanos) -> usize;
}

impl Target for MultiPipeSwitch {
    fn sync_batch(&mut self, pkts: &[PacketMeta], now: Nanos) {
        self.process_batch(pkts, now);
    }
    fn stream_batch(&mut self, pkts: &[PacketMeta], now: Nanos) {
        MultiPipeSwitch::stream_batch(self, pkts, now)
    }
    fn stream_drain(&mut self) -> StreamStats {
        MultiPipeSwitch::stream_drain(self)
    }
    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        MultiPipeSwitch::add_vip(self, vip, dips)
    }
    fn remove_vip(&mut self, vip: Vip) -> Result<(), TypeError> {
        MultiPipeSwitch::remove_vip(self, vip)
    }
    fn request_update(&mut self, vip: Vip, op: PoolUpdate, now: Nanos) -> Result<(), TypeError> {
        MultiPipeSwitch::request_update(self, vip, op, now)
    }
    fn advance(&mut self, now: Nanos) {
        MultiPipeSwitch::advance(self, now)
    }
    fn expire_idle(&mut self, now: Nanos) -> usize {
        MultiPipeSwitch::expire_idle(self, now)
    }
}

/// The reference arm: a plain switch that runs no engine code. "Streamed"
/// batches go through `process_batch_into` and fold with `packet_digest`.
struct Reference {
    sw: SilkRoadSwitch,
    steering: FlowSteering,
    out: Vec<ForwardDecision>,
    acc: StreamStats,
}

impl Reference {
    fn new() -> Reference {
        let mut sw = SilkRoadSwitch::new(cfg());
        sw.add_vip(vip(), dips()).unwrap();
        Reference {
            sw,
            // The flow hash the digest folds is independent of pipe count.
            steering: FlowSteering::new(cfg().seed, 1),
            out: Vec::new(),
            acc: StreamStats::default(),
        }
    }
}

impl Target for Reference {
    fn sync_batch(&mut self, pkts: &[PacketMeta], now: Nanos) {
        self.out.clear();
        self.sw.process_batch_into(pkts, now, &mut self.out);
    }
    fn stream_batch(&mut self, pkts: &[PacketMeta], now: Nanos) {
        self.sync_batch(pkts, now);
        for (pkt, d) in pkts.iter().zip(&self.out) {
            let h = packet_digest(&self.steering, pkt, d);
            self.acc.digest = self.acc.digest.wrapping_add(h);
        }
        self.acc.packets += pkts.len() as u64;
    }
    fn stream_drain(&mut self) -> StreamStats {
        std::mem::take(&mut self.acc)
    }
    fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        self.sw.add_vip(vip, dips)
    }
    fn remove_vip(&mut self, vip: Vip) -> Result<(), TypeError> {
        self.sw.remove_vip(vip)
    }
    fn request_update(&mut self, vip: Vip, op: PoolUpdate, now: Nanos) -> Result<(), TypeError> {
        self.sw.request_update(vip, op, now)
    }
    fn advance(&mut self, now: Nanos) {
        self.sw.advance(now)
    }
    fn expire_idle(&mut self, now: Nanos) -> usize {
        self.sw.expire_idle(now)
    }
}

/// One fixed script: streamed steady-state traffic with VIP flips, a
/// 3-step PCC pool update, health events, and idle expiry landing
/// *between* streamed batches (the only place control ops can land — the
/// facade pumps in-flight completions while each op propagates).
fn churn_script(sw: &mut impl Target) -> StreamStats {
    let aux_vip = Vip(Addr::v4(20, 0, 0, 2, 443));
    let aux_dips: Vec<Dip> = (1..=4).map(|i| Dip(Addr::v4(10, 0, 1, i, 20))).collect();

    // Establish all flows synchronously so the streamed window below is
    // pure steady state.
    let syns: Vec<PacketMeta> = (0..FLOWS).map(|i| PacketMeta::syn(conn(i))).collect();
    let mut now = Nanos::ZERO;
    for wave in syns.chunks(512) {
        sw.sync_batch(wave, now);
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
            3 => {
                // Two health verdicts: one DIP down, one back up.
                sw.request_update(vip(), PoolUpdate::Remove(Dip(Addr::v4(10, 0, 0, 7, 20))), t)
                    .unwrap();
                sw.request_update(aux_vip, PoolUpdate::Add(Dip(Addr::v4(10, 0, 1, 9, 20))), t)
                    .unwrap();
            }
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
    // The plain switch is the oracle: the only arm that runs no engine
    // code, so every backend and pipe count must reproduce it exactly.
    let expect = churn_script(&mut Reference::new());
    assert_eq!(expect.packets, 2 * FLOWS as u64);
    for (pipes, threaded) in [(1, false), (4, false), (1, true), (2, true), (4, true)] {
        let got = churn_script(&mut build(pipes, threaded));
        assert_eq!(
            got, expect,
            "{pipes} pipes (threaded={threaded}) diverged from the plain switch"
        );
    }
}

#[test]
fn streamed_and_sync_traffic_interleave_identically_across_backends() {
    let _census = worker_census_lock();
    // process_packet waits on one pipe's reply behind its streamed
    // batches, so mixing it with streaming is an ordering torture test:
    // every sync call is a barrier on one pipe while others may still
    // hold batches in flight.
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
    // Every sr-pipe worker counts itself out as the last act of its
    // thread, and drop joins them all: the count is exact — and must be
    // 0 — the moment drop returns.
    assert_eq!(running_workers(), 0, "workers left over before the test");
    let syns: Vec<PacketMeta> = (0..512).map(|i| PacketMeta::syn(conn(i))).collect();
    let data: Vec<PacketMeta> = syns
        .iter()
        .map(|p| PacketMeta::data(p.tuple, 800))
        .collect();
    for round in 0..24 {
        let pipes = [1, 2, 4][round % 3];
        let mut sw = build(pipes, true);
        sw.process_batch(&syns, Nanos::ZERO);
        // Every worker has answered a job, so each has counted itself in.
        assert_eq!(running_workers(), pipes, "round {round}");
        let t = Nanos::from_secs(1);
        // Leave up to `RING_DEPTH` batches in flight per pipe, plus staged
        // partial batches — then drop without draining.
        for chunk in data.chunks(96) {
            sw.stream_batch(chunk, t);
        }
        if round % 2 == 0 {
            // Half the rounds also leave a control op as the *last* job.
            sw.advance(Nanos::from_secs(2));
        }
        drop(sw);
        let n = running_workers();
        assert_eq!(n, 0, "round {round}: {n} sr-pipe workers leaked");
    }

    // Degenerate lifecycles: drop immediately after spawn, and drop with
    // zero traffic but queued control ops.
    for pipes in [1, 2, 4] {
        drop(build(pipes, true));
        let mut sw = build(pipes, true);
        sw.advance(Nanos::from_secs(1));
        drop(sw);
    }
    let n = running_workers();
    assert_eq!(n, 0, "degenerate lifecycles leaked {n} workers");
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
