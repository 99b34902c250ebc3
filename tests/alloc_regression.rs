//! Allocation-regression harness for the packet hot path.
//!
//! The steady-state data plane — established connections resolving through
//! ConnTable hits — must never touch the heap: the 5-tuple key lives inline
//! on the stack ([`sr_types::TupleKey`]) and every table hash is derived
//! from one pass over it ([`silkroad::KeyHasher`]). This test installs a
//! counting global allocator and asserts **zero** allocations per packet,
//! so the property cannot silently regress.
//!
//! The counter is thread-local: the cargo test harness and any sibling
//! tests run on other threads and must not pollute the measurement.

use silkroad::{DataPath, ForwardDecision, MultiPipeSwitch, SilkRoadConfig, SilkRoadSwitch};
use sr_types::{Addr, Dip, FiveTuple, Nanos, PacketMeta, Vip};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Passes everything through to the system allocator, counting the calls
/// made by the current thread.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_so_far() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Build a switch with `n` established connections resolving through
/// ConnTable, using `client(i)` for the client side of each tuple.
fn established(
    vip_addr: Addr,
    dips: Vec<Dip>,
    n: u32,
    client: impl Fn(u32) -> Addr,
) -> (SilkRoadSwitch, Vec<FiveTuple>) {
    let cfg = SilkRoadConfig {
        conn_capacity: (n as usize) * 2,
        ..Default::default()
    };
    let mut sw = SilkRoadSwitch::new(cfg);
    sw.add_vip(Vip(vip_addr), dips).unwrap();
    let tuples: Vec<FiveTuple> = (0..n)
        .map(|i| FiveTuple::tcp(client(i), vip_addr))
        .collect();
    for t in &tuples {
        sw.process_packet(&PacketMeta::syn(*t), Nanos::ZERO);
    }
    // Let the learning filter drain and the CPU install every entry.
    sw.advance(Nanos::from_secs(10));
    (sw, tuples)
}

/// Run one data packet per tuple through the switch — `batch` packets per
/// `process_batch_into` call into a pre-sized buffer, or one
/// `process_packet` call each when `None` — and return (ConnTable hits,
/// allocations).
fn measure(
    sw: &mut SilkRoadSwitch,
    tuples: &[FiveTuple],
    now: Nanos,
    batch: Option<usize>,
) -> (u64, u64) {
    let pkts: Vec<PacketMeta> = tuples.iter().map(|t| PacketMeta::data(*t, 800)).collect();
    let mut out: Vec<ForwardDecision> = Vec::with_capacity(pkts.len());
    let before = allocs_so_far();
    match batch {
        None => out.extend(pkts.iter().map(|p| sw.process_packet(p, now))),
        Some(n) => {
            for chunk in pkts.chunks(n) {
                sw.process_batch_into(chunk, now, &mut out);
            }
        }
    }
    let allocs = allocs_so_far() - before;
    let hits = out
        .iter()
        .filter(|d| d.path == DataPath::AsicConnTable)
        .count();
    (hits as u64, allocs)
}

fn v4_dips() -> Vec<Dip> {
    (1..=16).map(|i| Dip(Addr::v4(10, 0, 0, i, 20))).collect()
}

fn v6_dips() -> Vec<Dip> {
    (1..=16u32)
        .map(|i| Dip(Addr::v6_indexed(0x0d1b, i, 20)))
        .collect()
}

#[test]
fn conn_table_hit_path_is_allocation_free() {
    const N: u32 = 4096;
    let vip_addr = Addr::v4(20, 0, 0, 1, 80);
    let (mut sw, tuples) = established(vip_addr, v4_dips(), N, |i| Addr::v4_indexed(100, i, 1024));
    assert_eq!(sw.conn_count(), N as usize, "warm-up did not install");

    // Warm one pass (hit bits flip, any one-time laziness settles).
    measure(&mut sw, &tuples, Nanos::from_secs(20), None);

    // The per-packet entry point (a batch of one), then batches of one,
    // of a partial chunk, of a chunk plus one, and the whole set at once:
    // zero heap allocations per packet every time.
    for (pass, batch) in [None, Some(1), Some(15), Some(17), Some(N as usize)]
        .into_iter()
        .enumerate()
    {
        let now = Nanos::from_secs(21 + pass as u64);
        let (hits, allocs) = measure(&mut sw, &tuples, now, batch);
        assert_eq!(
            hits, N as u64,
            "batch {batch:?}: steady state lost ConnTable hits"
        );
        assert_eq!(
            allocs, 0,
            "batch {batch:?}: allocated {allocs} times over {N} steady-state packets"
        );
    }
}

#[test]
fn multi_pipe_steady_state_is_allocation_free() {
    // The sharded path adds steering plus per-pipe scatter/gather on top
    // of each pipe's batch pipeline; all of it must stay off the heap in
    // steady state. The inline backend runs everything on this thread,
    // which is what the thread-local counter can observe. Every facade
    // method is one body over per-pipe lanes, and an inline lane runs
    // each job through the same `run_job` the worker threads loop on —
    // so this measures the code the workers run, minus the ring hop.
    const N: u32 = 4096;
    const PIPES: usize = 4;
    let vip_addr = Addr::v4(20, 0, 0, 1, 80);
    let cfg = SilkRoadConfig {
        conn_capacity: (N as usize) * 2,
        ..Default::default()
    };
    let mut sw = MultiPipeSwitch::inline(cfg, PIPES);
    sw.add_vip(Vip(vip_addr), v4_dips()).unwrap();
    let tuples: Vec<FiveTuple> = (0..N)
        .map(|i| FiveTuple::tcp(Addr::v4_indexed(100, i, 1024), vip_addr))
        .collect();
    let pkts: Vec<PacketMeta> = tuples.iter().map(|t| PacketMeta::syn(*t)).collect();
    sw.process_batch(&pkts, Nanos::ZERO);
    sw.advance(Nanos::from_secs(10));
    assert_eq!(sw.conn_count(), N as usize, "warm-up did not install");

    let data: Vec<PacketMeta> = tuples.iter().map(|t| PacketMeta::data(*t, 800)).collect();
    let mut out: Vec<ForwardDecision> = Vec::with_capacity(data.len());
    // Warm one pass: lane buffers grow to their steady-state capacity.
    sw.process_batch_into(&data, Nanos::from_secs(20), &mut out);

    out.clear();
    let before = allocs_so_far();
    sw.process_batch_into(&data, Nanos::from_secs(21), &mut out);
    let allocs = allocs_so_far() - before;
    let hits = out
        .iter()
        .filter(|d| d.path == DataPath::AsicConnTable)
        .count() as u64;
    assert_eq!(hits, N as u64, "steady state lost ConnTable hits");
    assert_eq!(
        allocs, 0,
        "multi-pipe batch path allocated {allocs} times over {N} packets"
    );

    // The steered per-packet entry point is also allocation-free.
    let before = allocs_so_far();
    for t in &tuples {
        sw.process_packet(&PacketMeta::data(*t, 800), Nanos::from_secs(22));
    }
    let allocs = allocs_so_far() - before;
    assert_eq!(
        allocs, 0,
        "multi-pipe process_packet allocated {allocs} times over {N} packets"
    );

    // Streaming, and control ops riding the same lanes: warm passes grow
    // every recycled buffer, then the measured pass must not allocate.
    let pass = |sw: &mut MultiPipeSwitch, now: Nanos, closing: &[FiveTuple]| {
        let before = allocs_so_far();
        for chunk in data.chunks(512) {
            sw.stream_batch(chunk, now);
        }
        let streamed = sw.stream_drain();
        let stream_allocs = allocs_so_far() - before;
        let before = allocs_so_far();
        for t in closing {
            sw.close_connection(t, now);
        }
        sw.advance(now);
        (streamed.packets, stream_allocs, allocs_so_far() - before)
    };
    // Two warm passes: a lane's buffers take the chunks in an order that
    // alternates from pass to pass, and each must meet its largest batch.
    // Each pass closes its own quarter of the flows.
    let q = tuples.len() / 4;
    pass(&mut sw, Nanos::from_secs(23), &tuples[..q]);
    pass(&mut sw, Nanos::from_secs(24), &tuples[q..2 * q]);
    let (streamed, stream_allocs, control_allocs) =
        pass(&mut sw, Nanos::from_secs(25), &tuples[2 * q..3 * q]);
    assert_eq!(streamed, N as u64);
    assert_eq!(
        stream_allocs, 0,
        "multi-pipe stream_batch + stream_drain allocated {stream_allocs} times over {N} packets"
    );
    assert_eq!(
        control_allocs, 0,
        "multi-pipe close_connection + advance allocated {control_allocs} times over {q} closes"
    );
    // Each close ran on its flow's pipe alone.
    assert_eq!(sw.stats().closes, 3 * q as u64);
}

/// Full wire-path steady state: parse raw frames, steer + resolve through
/// the multi-pipe switch, and rewrite each decision back onto the frame —
/// all with zero heap allocations per packet. Exercised for both address
/// families, both rewrite modes, and 1 and 4 pipes.
fn wire_steady_state(vip_addr: Addr, dips: Vec<Dip>, pipes: usize, mode: sr_types::RewriteMode) {
    use sr_types::FrameView;
    use sr_wire::{build_frame, parse_frame, rewrite_frame, FrameSpec};
    const N: u32 = 2048;
    let cfg = SilkRoadConfig {
        conn_capacity: (N as usize) * 2,
        ..Default::default()
    };
    let mut sw = MultiPipeSwitch::inline(cfg, pipes);
    sw.add_vip(Vip(vip_addr), dips).unwrap();
    let client = |i: u32| match vip_addr.ip {
        std::net::IpAddr::V4(_) => Addr::v4_indexed(100, i, 1024),
        std::net::IpAddr::V6(_) => Addr::v6_indexed(0xc11e, i, 1024),
    };
    let tuples: Vec<FiveTuple> = (0..N)
        .map(|i| FiveTuple::tcp(client(i), vip_addr))
        .collect();
    let syns: Vec<PacketMeta> = tuples.iter().map(|t| PacketMeta::syn(*t)).collect();
    sw.process_batch(&syns, Nanos::ZERO);
    sw.advance(Nanos::from_secs(10));
    assert_eq!(sw.conn_count(), N as usize, "warm-up did not install");

    // Pre-built mid-stream data frames: the steady state re-parses these
    // bytes every pass, exactly like a NIC ring would present them.
    let frames: Vec<Vec<u8>> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut buf = vec![0u8; 2048];
            let n = build_frame(
                &FrameSpec {
                    tuple: *t,
                    flags: sr_types::TcpFlags::ACK,
                    wire_len: 400,
                    seq: i as u64,
                },
                &mut buf,
            )
            .unwrap();
            buf.truncate(n);
            buf
        })
        .collect();

    let mut metas: Vec<PacketMeta> = Vec::with_capacity(frames.len());
    let mut views: Vec<FrameView> = Vec::with_capacity(frames.len());
    let mut out: Vec<ForwardDecision> = Vec::with_capacity(frames.len());
    let mut rewritten = [0u8; 2048];

    let mut pass = |now: Nanos| -> (u64, u64) {
        let before = allocs_so_far();
        metas.clear();
        views.clear();
        out.clear();
        for f in &frames {
            let p = parse_frame(f).unwrap();
            metas.push(p.meta);
            views.push(p.view);
        }
        sw.process_batch_into(&metas, now, &mut out);
        let mut ok = 0u64;
        for ((f, v), d) in frames.iter().zip(&views).zip(&out) {
            if let Some(op) = d.rewrite_op(mode) {
                let n = rewrite_frame(f, v, &op, &mut rewritten).unwrap();
                ok += u64::from(n >= f.len());
            }
        }
        (ok, allocs_so_far() - before)
    };

    // Warm one pass (lane buffers settle), then measure.
    pass(Nanos::from_secs(20));
    let (ok, allocs) = pass(Nanos::from_secs(21));
    assert_eq!(ok, N as u64, "steady state lost rewrites");
    assert_eq!(
        allocs,
        0,
        "wire path ({pipes} pipe(s), {} mode) allocated {allocs} times over {N} packets",
        mode.label()
    );
}

#[test]
fn wire_parse_steer_resolve_rewrite_is_allocation_free_v4() {
    let vip = Addr::v4(20, 0, 0, 1, 80);
    for pipes in [1usize, 4] {
        wire_steady_state(vip, v4_dips(), pipes, sr_types::RewriteMode::Nat);
        wire_steady_state(vip, v4_dips(), pipes, sr_types::RewriteMode::Encap);
    }
}

#[test]
fn wire_parse_steer_resolve_rewrite_is_allocation_free_v6() {
    let vip = Addr::v6_indexed(0x0a0a, 1, 443);
    for pipes in [1usize, 4] {
        wire_steady_state(vip, v6_dips(), pipes, sr_types::RewriteMode::Nat);
        wire_steady_state(vip, v6_dips(), pipes, sr_types::RewriteMode::Encap);
    }
}

/// Connection **setup** path: a warmed switch must establish a fresh
/// cohort of connections — SYN burst through the learning filter, CPU
/// install queue, cuckoo insert, and terminal promotion — without heap
/// allocations. Warmup runs a same-sized cohort first so every reusable
/// buffer (learn queue, in-flight set, CPU ring, install scratch, chunk
/// staging) reaches its high-water capacity; the alias-class map is
/// pre-sized at construction. Measured over both the SYN batch and the
/// drain `advance`, i.e. the exact window the churn benchmark times.
///
/// Digest width is 24 bits — the churn benchmark's configuration (§6.1's
/// wider point). Digest-collision classes keep a v4 pair or one v6 key
/// inline, so only a *three-way* v4 digest collision (a two-way v6 one)
/// ever reaches the allocator; at 24 bits that is birthday rare (and
/// absent for these deterministic keys), while 16-bit tables at high
/// occupancy can legitimately hit a handful per cohort.
fn setup_cohort(
    vip_addr: Addr,
    dips: Vec<Dip>,
    n: u32,
    client: impl Fn(u32) -> Addr,
) -> (u64, usize) {
    let cfg = SilkRoadConfig {
        conn_capacity: (n as usize) * 4,
        digest_bits: 24,
        ..Default::default()
    };
    let mut sw = SilkRoadSwitch::new(cfg);
    sw.add_vip(Vip(vip_addr), dips).unwrap();
    let mut out: Vec<ForwardDecision> = Vec::with_capacity(n as usize);

    // Warmup cohort: grows every buffer the setup pipeline reuses.
    let warm: Vec<PacketMeta> = (0..n)
        .map(|i| PacketMeta::syn(FiveTuple::tcp(client(i), vip_addr)))
        .collect();
    sw.process_batch_into(&warm, Nanos::ZERO, &mut out);
    sw.advance(Nanos::from_secs(10));
    assert_eq!(sw.conn_count(), n as usize, "warm-up did not install");

    // Measured cohort: n brand-new flows through the same pipeline.
    let fresh: Vec<PacketMeta> = (0..n)
        .map(|i| PacketMeta::syn(FiveTuple::tcp(client(n + i), vip_addr)))
        .collect();
    out.clear();
    let before = allocs_so_far();
    sw.process_batch_into(&fresh, Nanos::from_secs(20), &mut out);
    sw.advance(Nanos::from_secs(30));
    let allocs = allocs_so_far() - before;
    (allocs, sw.conn_count())
}

#[test]
fn connection_setup_path_is_allocation_free() {
    const N: u32 = 2048;
    let vip_addr = Addr::v4(20, 0, 0, 1, 80);
    let (allocs, conns) = setup_cohort(vip_addr, v4_dips(), N, |i| Addr::v4_indexed(100, i, 1024));
    assert_eq!(conns, 2 * N as usize, "measured cohort did not install");
    assert_eq!(
        allocs, 0,
        "setup path allocated {allocs} times establishing {N} connections"
    );
}

#[test]
fn connection_setup_path_is_allocation_free_v6() {
    const N: u32 = 1024;
    let vip_addr = Addr::v6_indexed(0x0a0a, 1, 443);
    let (allocs, conns) = setup_cohort(vip_addr, v6_dips(), N, |i| {
        Addr::v6_indexed(0xc11e, i, 1024)
    });
    assert_eq!(conns, 2 * N as usize, "measured cohort did not install");
    assert_eq!(
        allocs, 0,
        "v6 setup path allocated {allocs} times establishing {N} connections"
    );
}

#[test]
fn conn_table_hit_path_is_allocation_free_v6() {
    const N: u32 = 2048;
    let vip_addr = Addr::v6_indexed(0x0a0a, 1, 443);
    let (mut sw, tuples) = established(vip_addr, v6_dips(), N, |i| {
        Addr::v6_indexed(0xc11e, i, 1024)
    });
    assert_eq!(sw.conn_count(), N as usize, "warm-up did not install");

    measure(&mut sw, &tuples, Nanos::from_secs(20), None);
    let (hits, allocs) = measure(&mut sw, &tuples, Nanos::from_secs(21), None);
    assert_eq!(hits, N as u64, "steady state lost ConnTable hits");
    assert_eq!(
        allocs, 0,
        "v6 hit path allocated {allocs} times over {N} packets"
    );
}
