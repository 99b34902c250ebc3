//! Multi-pipe run-to-completion dataplane: RSS-style flow steering over
//! N pipes, each drained by a long-lived worker that owns its shard.
//!
//! A real switching ASIC carries several independent match-action
//! *pipes*, each with its own stages, SRAM, and stateful memory; the
//! chip's aggregate packet rate is the sum of what each pipe drains.
//! Engine v1 modeled the sharding but not the parallelism: it spawned
//! scoped threads per batch and broadcast every control-plane call
//! inline under the caller, so wall-clock throughput barely moved with
//! pipe count. Engine v2 is the real thing:
//!
//! * **Workers** — one long-lived thread per [`Pipe`] (core-pinned where
//!   the OS allows), owning the shard exclusively. The steer thread
//!   never touches pipe state; batches travel through bounded SPSC
//!   rings ([`sr_exec::spsc`]) and buffers are recycled, so the steady
//!   state neither spawns, joins, nor allocates.
//! * **Control plane** — each call travels as a control op in the same
//!   FIFO job ring as the batches, one copy per pipe it concerns, and the
//!   facade waits for every such pipe's reply before returning. Op/batch
//!   interleaving is therefore the caller's program order — identical in
//!   every pipe and for every pipe count — preserving bit-identical
//!   decisions and PCC under concurrent updates.
//! * **Streaming** — [`MultiPipeSwitch::stream_batch`] keeps all pipes
//!   busy without waiting per batch; decisions fold into a commutative
//!   digest so sustained streaming (the benchmark's `stream-64k`
//!   workload, `tests/engine_threaded.rs`) can prove decision identity
//!   across pipe counts at full speed.
//!
//! Each pipe sits behind one *lane* with two operations, send a job and
//! receive a completion. A threaded lane pushes to and pops from its
//! worker's rings; the [`MultiPipeSwitch::inline`] backend's lanes own
//! their pipes and run each job at once through the worker's own loop
//! body (`worker::run_job`), queueing the completion. Every facade
//! method is written once on top of the lanes, so the inline backend —
//! deterministic, threadless, observable via [`MultiPipeSwitch::pipe`] —
//! runs exactly the code the workers run, minus the ring hop.
//!
//! Invariants the steering upholds (unchanged from v1):
//!
//! * **Stability** — the same 5-tuple always lands on the same pipe, so
//!   each connection's ConnTable entry, TransitTable bits, and learning
//!   state live in exactly one shard.
//! * **Symmetry** — the hash combines src and dst with XOR before
//!   finalization, so both directions of a VIP flow steer identically
//!   (v4 and v6).
//! * **Balance** — the finalized hash is mapped to a pipe by
//!   multiply-shift, the same unbiased scaling [`sr_hash::ecmp_select`]
//!   uses, so a uniform trace spreads evenly across any pipe count.

mod worker;

use crate::config::SilkRoadConfig;
use crate::dataplane::ForwardDecision;
use crate::memory::MemoryBreakdown;
use crate::pool::PoolUpdate;
use crate::stats::SwitchStats;
use crate::switch::SilkRoadSwitch;
use crate::update::UpdatePhase;
use sr_asic::MeterConfig;
use sr_exec::{spsc, Consumer, Producer};
use sr_hash::{splitmix64, HashFn};
use sr_types::{Dip, FiveTuple, Nanos, PacketMeta, PoolVersion, TypeError, Vip};
use std::collections::VecDeque;
pub(crate) use worker::ControlOp;
pub use worker::{packet_digest, running_workers};
use worker::{run_job, worker_loop, BatchBuf, Done, Job, Query, QueryReply};

/// Longest inline address encoding ([`sr_types::Addr::encode_to`]):
/// 16 bytes of IPv6 plus the 2-byte port.
const MAX_ADDR_BYTES: usize = 18;

/// RSS-style flow steering: a stable, symmetric, balanced map from a
/// 5-tuple to a pipe index.
#[derive(Clone, Debug)]
pub struct FlowSteering {
    f: HashFn,
    pipes: usize,
}

impl FlowSteering {
    /// Steering over `pipes` pipes, seeded deterministically. Panics if
    /// `pipes` is zero (a switch with no pipes forwards nothing).
    pub fn new(seed: u64, pipes: usize) -> FlowSteering {
        assert!(pipes > 0, "FlowSteering needs at least one pipe");
        FlowSteering {
            // A distinct stream from the switch's table hashes: steering
            // must not correlate with ConnTable bucket placement.
            f: HashFn::new(splitmix64(seed ^ 0x5152_5353_7465_6572)),
            pipes,
        }
    }

    /// Number of pipes this steering maps onto.
    pub fn pipes(&self) -> usize {
        self.pipes
    }

    // srlint: hot-path begin
    /// The symmetric per-flow hash: src and dst are hashed separately and
    /// combined with XOR, so swapping them (the reverse direction of a
    /// VIP flow) yields the same value. Heap-free and panic-free.
    pub fn flow_hash(&self, tuple: &FiveTuple) -> u64 {
        let mut src = [0u8; MAX_ADDR_BYTES];
        let mut dst = [0u8; MAX_ADDR_BYTES];
        let ns = tuple.src.encode_to(&mut src, 0);
        let nd = tuple.dst.encode_to(&mut dst, 0);
        let hs = self.f.hash(src.get(..ns).unwrap_or(&[]));
        let hd = self.f.hash(dst.get(..nd).unwrap_or(&[]));
        splitmix64(hs ^ hd ^ u64::from(tuple.proto.number()))
    }

    /// The pipe a flow steers to. Multiply-shift scaling keeps the spread
    /// unbiased for any pipe count, not just powers of two.
    pub fn pipe_for(&self, tuple: &FiveTuple) -> usize {
        self.pipe_of(self.flow_hash(tuple))
    }

    /// The pipe for a [`FlowSteering::flow_hash`] already in hand.
    fn pipe_of(&self, flow_hash: u64) -> usize {
        ((flow_hash as u128 * self.pipes as u128) >> 64) as usize
    }
    // srlint: hot-path end
}

/// One hardware pipe: a full SilkRoad switch shard with its own slice of
/// ConnTable capacity, its own TransitTable bloom, and its own counters.
pub struct Pipe {
    id: usize,
    switch: SilkRoadSwitch,
}

impl Pipe {
    /// The pipe's index on the chip.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's switch, for per-pipe inspection.
    pub fn switch(&self) -> &SilkRoadSwitch {
        &self.switch
    }
}

/// Construction knobs for [`MultiPipeSwitch::with_options`].
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Spawn per-pipe worker threads (the run-to-completion engine).
    /// `false` keeps everything on the caller's thread (the v1 shape).
    pub threaded: bool,
    /// Ask the OS to pin worker `i` to core `i % cores`. Best-effort:
    /// hosts that refuse (and single-core hosts) run unpinned.
    pub pin_cores: bool,
}

/// Slots per worker job ring; also the number of batches a stream can keep
/// in flight per pipe before backpressure.
pub const RING_DEPTH: usize = 4;

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            threaded: true,
            pin_cores: false,
        }
    }
}

/// What a stream processed since the previous drain: a packet count and
/// the commutative decision digest (see `worker::fold_batch`), which is
/// bit-identical across pipe counts and backends for the same traffic
/// and control sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Packets processed through the streaming path.
    pub packets: u64,
    /// Order-independent digest of every (flow, decision) pair.
    pub digest: u64,
}

/// Where a lane's jobs run: the one place the two backends differ.
/// (The inline variant holds a whole shard; lanes are built once and
/// never moved afterwards, so the size gap costs nothing.)
#[allow(clippy::large_enum_variant)]
enum Link {
    /// On the caller's thread, at once; completions wait in a queue
    /// pre-sized like a worker's completion ring, so it never grows.
    Inline { pipe: Pipe, done: VecDeque<Done> },
    /// On the pipe's resident worker thread.
    Worker {
        jobs: Producer<Job>,
        done: Consumer<Done>,
        join: Option<std::thread::JoinHandle<()>>,
    },
}

/// One pipe's lane: where its jobs go, plus the batch buffers it recycles.
struct Lane {
    id: usize,
    link: Link,
    /// Buffers at home (not staged, not in flight). Boxed because the
    /// same allocation shuttles through `Job::Batch`/`Done::Batch` — the
    /// ring moves one pointer, never the buffer's inline storage.
    #[allow(clippy::vec_box)]
    free: Vec<Box<BatchBuf>>,
    /// Buffer being filled by the current steer pass.
    staged: Option<Box<BatchBuf>>,
    /// Batches sent and not yet received back.
    in_flight: usize,
}

// srlint: hot-path begin
impl Lane {
    /// Send a job: an inline lane runs it now. Panics if the lane's worker
    /// died (its ring closed) — a dead worker is a bug, not a recoverable
    /// condition: its shard state is gone.
    fn send(&mut self, job: Job) {
        if let Job::Batch(_) = job {
            self.in_flight += 1;
        }
        let sent = match &mut self.link {
            Link::Inline { pipe, done } => {
                done.push_back(run_job(pipe, job));
                true
            }
            Link::Worker { jobs, .. } => jobs.push(job).is_ok(),
        };
        if !sent {
            panic!("pipe worker {} terminated unexpectedly", self.id);
        }
    }

    /// Receive the oldest completion; panics if the lane's worker died.
    fn recv(&mut self) -> Done {
        let done = match &mut self.link {
            Link::Inline { done, .. } => done.pop_front(),
            Link::Worker { done, .. } => done.pop(),
        };
        let Some(done) = done else {
            panic!("pipe worker {} terminated unexpectedly", self.id);
        };
        done
    }

    /// Complete a received batch: fold a streamed one into `acc` (a
    /// synchronous one, whose decisions the caller has read, adds
    /// nothing) and put the buffer back, emptied.
    fn recycle(&mut self, mut buf: Box<BatchBuf>, acc: &mut StreamStats) {
        self.in_flight -= 1;
        acc.packets += buf.folded_packets;
        acc.digest = acc.digest.wrapping_add(buf.folded_digest);
        buf.reset();
        self.free.push(buf);
    }

    /// Receive the reply to a synchronous job, recycling the streamed
    /// batches ahead of it in the ring.
    fn reply(&mut self, acc: &mut StreamStats) -> Done {
        loop {
            match self.recv() {
                Done::Batch(buf) if buf.fold => self.recycle(buf, acc),
                done => return done,
            }
        }
    }

    /// Send a synchronous job and wait for its reply.
    fn call(&mut self, job: Job, acc: &mut StreamStats) -> Done {
        self.send(job);
        self.reply(acc)
    }

    /// A free buffer, waiting for a streamed batch to complete when every
    /// buffer is in flight (stream backpressure).
    fn take_buf(&mut self, acc: &mut StreamStats) -> Box<BatchBuf> {
        loop {
            if let Some(buf) = self.free.pop() {
                return buf;
            }
            if let Done::Batch(buf) = self.recv() {
                self.recycle(buf, acc);
            }
        }
    }

    /// Wait for every batch in flight.
    fn drain(&mut self, acc: &mut StreamStats) {
        while self.in_flight > 0 {
            if let Done::Batch(buf) = self.recv() {
                self.recycle(buf, acc);
            }
        }
    }
}
// srlint: hot-path end

/// A sharded SilkRoad switch: N [`Pipe`]s behind [`FlowSteering`], with
/// one lane per pipe carrying batches and control ops in program order,
/// and aggregated counters.
///
/// Per-flow behaviour is identical to a single [`SilkRoadSwitch`] built
/// from the same configuration: every pipe uses the same hash seed, and
/// each flow's entire packet stream lands in exactly one pipe.
pub struct MultiPipeSwitch {
    cfg: SilkRoadConfig,
    steering: FlowSteering,
    lanes: Vec<Lane>,
    /// Streamed batches folded since the last drain.
    acc: StreamStats,
}

impl MultiPipeSwitch {
    /// Build the run-to-completion engine with `pipes` worker threads
    /// (default [`EngineOptions`]). The total ConnTable capacity in `cfg`
    /// is sharded evenly across pipes. Panics on an invalid configuration
    /// or an unplaceable layout (the replicated program must verify on
    /// the Tofino-class chip, including the SRC016 pipe-count rule).
    pub fn new(cfg: SilkRoadConfig, pipes: usize) -> MultiPipeSwitch {
        MultiPipeSwitch::with_options(cfg, pipes, EngineOptions::default())
    }

    /// Build the single-threaded backend: same sharding, same decision
    /// stream, no worker threads. For deterministic harnesses, per-pipe
    /// inspection ([`MultiPipeSwitch::pipe`]), and allocation gates that
    /// must observe the hot loop from the calling thread.
    pub fn inline(cfg: SilkRoadConfig, pipes: usize) -> MultiPipeSwitch {
        MultiPipeSwitch::with_options(
            cfg,
            pipes,
            EngineOptions {
                threaded: false,
                ..EngineOptions::default()
            },
        )
    }

    /// Build with explicit [`EngineOptions`].
    pub fn with_options(cfg: SilkRoadConfig, pipes: usize, opts: EngineOptions) -> MultiPipeSwitch {
        assert!(pipes > 0, "MultiPipeSwitch needs at least one pipe");
        let per_pipe = SilkRoadConfig {
            conn_capacity: cfg.conn_capacity.div_ceil(pipes),
            ..cfg.clone()
        };
        // The per-pipe program must place in one pipe's budgets *and*
        // replicate within the chip's pipe count. Checked before any
        // worker thread exists, so an unplaceable layout panics cleanly.
        let report = per_pipe
            .pipeline_program()
            .with_pipes(pipes as u32)
            .check(&sr_asic::ChipSpec::tofino_class());
        assert!(
            report.is_placeable(),
            "multi-pipe layout rejected:\n{}",
            report.render()
        );
        let steering = FlowSteering::new(cfg.seed, pipes);
        let cores = sr_exec::available_cores();
        let lanes = (0..pipes)
            .map(|id| {
                let pipe = Pipe {
                    id,
                    // Same seed in every pipe: hash families (digest,
                    // bucket, select, bloom) are identical chip-wide, so
                    // a flow's decision does not depend on which pipe it
                    // steers to.
                    switch: SilkRoadSwitch::new(per_pipe.clone()),
                };
                // Completions: up to `RING_DEPTH` batches plus a control or
                // query reply can be outstanding; a worker must be able
                // to push its final completions during shutdown without
                // blocking forever.
                let completions = RING_DEPTH + 2;
                let link = if opts.threaded {
                    let (jobs, jobs_rx) = spsc::<Job>(RING_DEPTH);
                    let (done_tx, done) = spsc::<Done>(completions);
                    let pin_core = (opts.pin_cores && cores >= 2).then_some(id % cores);
                    let join = std::thread::Builder::new()
                        .name(format!("sr-pipe-{id}"))
                        .spawn(move || worker_loop(pipe, jobs_rx, done_tx, pin_core))
                        .expect("spawn pipe worker");
                    Link::Worker {
                        jobs,
                        done,
                        join: Some(join),
                    }
                } else {
                    Link::Inline {
                        pipe,
                        done: VecDeque::with_capacity(completions),
                    }
                };
                Lane {
                    id,
                    link,
                    free: (0..RING_DEPTH).map(|_| BatchBuf::boxed()).collect(),
                    staged: None,
                    in_flight: 0,
                }
            })
            .collect();
        MultiPipeSwitch {
            cfg,
            steering,
            lanes,
            acc: StreamStats::default(),
        }
    }

    /// The aggregate configuration (total capacity, before sharding).
    pub fn config(&self) -> &SilkRoadConfig {
        &self.cfg
    }

    /// Number of pipes.
    pub fn pipe_count(&self) -> usize {
        self.lanes.len()
    }

    /// Whether per-pipe worker threads are running.
    pub fn is_threaded(&self) -> bool {
        self.lanes
            .iter()
            .any(|lane| matches!(lane.link, Link::Worker { .. }))
    }

    /// One pipe, for per-pipe (lossless) counter inspection. `None` on
    /// the threaded backend, where workers own the pipes exclusively.
    pub fn pipe(&self, id: usize) -> Option<&Pipe> {
        match &self.lanes.get(id)?.link {
            Link::Inline { pipe, .. } => Some(pipe),
            Link::Worker { .. } => None,
        }
    }

    /// The steering map.
    pub fn steering(&self) -> &FlowSteering {
        &self.steering
    }

    // ---- data plane ----------------------------------------------------

    // srlint: hot-path begin
    /// Process one packet: a one-packet batch on the lane it steers to.
    pub fn process_packet(&mut self, pkt: &PacketMeta, now: Nanos) -> ForwardDecision {
        let p = self.steering.pipe_for(&pkt.tuple);
        let acc = &mut self.acc;
        let Some(lane) = self.lanes.get_mut(p) else {
            // Unreachable: pipe_for maps into 0..pipes. Fail closed.
            return ForwardDecision::dropped();
        };
        let mut buf = lane.take_buf(acc);
        buf.now = now;
        buf.fold = false;
        buf.pkts.push(*pkt);
        let mut decision = ForwardDecision::dropped();
        if let Done::Batch(buf) = lane.call(Job::Batch(buf), acc) {
            decision = buf.out.first().copied().unwrap_or(decision);
            lane.recycle(buf, acc);
        }
        decision
    }

    /// Process a batch, returning decisions in input order.
    pub fn process_batch(&mut self, pkts: &[PacketMeta], now: Nanos) -> Vec<ForwardDecision> {
        let mut out = Vec::with_capacity(pkts.len());
        self.process_batch_into(pkts, now, &mut out);
        out
    }

    /// [`MultiPipeSwitch::process_batch`] appending into a caller-owned
    /// buffer. Steer every packet to its lane's staging buffer, send every
    /// lane its batch, then scatter each pipe's decisions back to input
    /// order. Buffers are recycled, so the steady state allocates nothing.
    pub fn process_batch_into(
        &mut self,
        pkts: &[PacketMeta],
        now: Nanos,
        out: &mut Vec<ForwardDecision>,
    ) {
        let base = out.len();
        out.resize(base + pkts.len(), ForwardDecision::dropped());
        self.dispatch(pkts, now, false);
        for lane in &mut self.lanes {
            if let Done::Batch(buf) = lane.reply(&mut self.acc) {
                scatter(&buf, out, base);
                lane.recycle(buf, &mut self.acc);
            }
        }
    }

    /// Feed a batch to the pipes **without waiting for completion**: the
    /// sustained-throughput path. Decisions are not returned; they fold
    /// into the [`StreamStats`] digest collected by
    /// [`MultiPipeSwitch::stream_drain`]. Applies backpressure per pipe
    /// once [`RING_DEPTH`] batches are in flight.
    pub fn stream_batch(&mut self, pkts: &[PacketMeta], now: Nanos) {
        self.dispatch(pkts, now, true);
    }

    /// Steer `pkts` into one staged buffer per lane and send each lane its
    /// batch — an empty one too, so every pipe's control plane advances to
    /// `now` on every batch, as a single switch's would.
    fn dispatch(&mut self, pkts: &[PacketMeta], now: Nanos, fold: bool) {
        for lane in &mut self.lanes {
            let mut buf = lane.take_buf(&mut self.acc);
            buf.now = now;
            buf.fold = fold;
            lane.staged = Some(buf);
        }
        for (i, pkt) in pkts.iter().enumerate() {
            let h = self.steering.flow_hash(&pkt.tuple);
            let p = self.steering.pipe_of(h);
            if let Some(buf) = self.lanes.get_mut(p).and_then(|l| l.staged.as_mut()) {
                buf.idx.push(i as u32);
                buf.pkts.push(*pkt);
                if fold {
                    buf.hashes.push(h);
                }
            }
        }
        for lane in &mut self.lanes {
            if let Some(buf) = lane.staged.take() {
                lane.send(Job::Batch(buf));
            }
        }
    }
    // srlint: hot-path end

    /// Wait for every in-flight streamed batch, then return and reset
    /// the fold accumulators.
    pub fn stream_drain(&mut self) -> StreamStats {
        for lane in &mut self.lanes {
            lane.drain(&mut self.acc);
        }
        std::mem::take(&mut self.acc)
    }

    /// Close a connection on the pipe its flow steers to, the only pipe
    /// that can hold its entry.
    pub fn close_connection(&mut self, tuple: &FiveTuple, now: Nanos) {
        let p = self.steering.pipe_for(tuple);
        if let Some(lane) = self.lanes.get_mut(p) {
            let close = ControlOp::CloseConn { tuple: *tuple, now };
            lane.call(Job::Control(close), &mut self.acc);
        }
    }

    // ---- control plane -------------------------------------------------

    /// Send `job()` to every lane, then hand `take` each one's reply, in
    /// pipe order.
    fn round_trip(&mut self, job: impl Fn() -> Job, mut take: impl FnMut(Done)) {
        for lane in &mut self.lanes {
            lane.send(job());
        }
        for lane in &mut self.lanes {
            take(lane.reply(&mut self.acc));
        }
    }

    /// Apply one op on every pipe and wait for each. Returns the summed
    /// expiry count; the first error wins (pipes hold identical control
    /// state, so they fail identically).
    fn control(&mut self, op: ControlOp) -> Result<usize, TypeError> {
        let mut expired = 0;
        let mut first = None;
        self.round_trip(
            || Job::Control(op.clone()),
            |done| match done {
                Done::Control(Ok(n)) => expired += n,
                Done::Control(Err(e)) => {
                    first.get_or_insert(e);
                }
                _ => {}
            },
        );
        first.map_or(Ok(expired), Err)
    }

    /// Register a VIP on every pipe.
    pub fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        self.control(ControlOp::AddVip { vip, dips }).map(|_| ())
    }

    /// Remove a VIP from every pipe.
    pub fn remove_vip(&mut self, vip: Vip) -> Result<(), TypeError> {
        self.control(ControlOp::RemoveVip { vip }).map(|_| ())
    }

    /// Request a DIP-pool update on every pipe; each pipe runs the 3-step
    /// PCC protocol over its own shard of connections.
    pub fn request_update(
        &mut self,
        vip: Vip,
        op: PoolUpdate,
        now: Nanos,
    ) -> Result<(), TypeError> {
        self.control(ControlOp::RequestUpdate { vip, op, now })
            .map(|_| ())
    }

    /// Attach a VIP meter on every pipe. Each pipe polices its own share
    /// of the VIP's flows, so a chip-level rate `r` is configured as `r`
    /// per pipe only if the caller wants per-pipe ceilings; pass the
    /// already-divided rate for an aggregate bound.
    pub fn attach_meter(&mut self, vip: Vip, cfg: MeterConfig) {
        let _ = self.control(ControlOp::AttachMeter { vip, cfg });
    }

    /// Detach a VIP's meter on every pipe.
    pub fn detach_meter(&mut self, vip: Vip) {
        let _ = self.control(ControlOp::DetachMeter { vip });
    }

    /// Run every pipe's control plane up to `now`.
    pub fn advance(&mut self, now: Nanos) {
        let _ = self.control(ControlOp::Advance { now });
    }

    /// Expire idle connections on every pipe; returns the total expired.
    pub fn expire_idle(&mut self, now: Nanos) -> usize {
        self.control(ControlOp::ExpireIdle { now }).unwrap_or(0)
    }

    // ---- aggregated observability --------------------------------------

    /// Ask every pipe `query`; replies arrive in pipe order. Replies stay
    /// boxed because that is how `Done::Query` carries them off the ring.
    #[allow(clippy::vec_box)]
    fn query_all(&mut self, query: Query) -> Vec<Box<QueryReply>> {
        let mut replies = Vec::with_capacity(self.lanes.len());
        self.round_trip(
            || Job::Query(query),
            |done| {
                if let Done::Query(reply) = done {
                    replies.push(reply);
                }
            },
        );
        replies
    }

    /// Ask pipe 0 only (authoritative for broadcast control state).
    fn query_first(&mut self, query: Query) -> Option<Box<QueryReply>> {
        match self
            .lanes
            .first_mut()?
            .call(Job::Query(query), &mut self.acc)
        {
            Done::Query(reply) => Some(reply),
            _ => None,
        }
    }

    /// Chip-level statistics: every pipe's counters merged losslessly
    /// (scalar sums; per-VIP maps merged keywise).
    pub fn stats(&mut self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for reply in self.query_all(Query::Stats) {
            if let QueryReply::Stats(s) = &*reply {
                total.merge(s);
            }
        }
        total
    }

    /// Total installed connections across pipes.
    pub fn conn_count(&mut self) -> usize {
        self.query_all(Query::ConnCount)
            .iter()
            .map(|r| match &**r {
                QueryReply::ConnCount(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// A VIP's update phase. The control plane applies to every pipe in
    /// the same order, so all pipes agree; pipe 0 is authoritative.
    pub fn update_phase(&mut self, vip: Vip) -> Option<UpdatePhase> {
        match self.query_first(Query::UpdatePhase(vip)).as_deref() {
            Some(QueryReply::UpdatePhase(p)) => *p,
            _ => None,
        }
    }

    /// A VIP's current pool version (pipe 0; see [`Self::update_phase`]).
    pub fn current_version(&mut self, vip: Vip) -> Option<PoolVersion> {
        match self.query_first(Query::CurrentVersion(vip)).as_deref() {
            Some(QueryReply::CurrentVersion(v)) => *v,
            _ => None,
        }
    }

    /// The live DIPs of a VIP's newest pool (identical on every pipe;
    /// answered by pipe 0). Owned: on the threaded backend the data
    /// crosses from the worker's shard.
    pub fn current_dips(&mut self, vip: Vip) -> Option<Vec<Dip>> {
        match self.query_first(Query::CurrentDips(vip)) {
            Some(reply) => match *reply {
                QueryReply::CurrentDips(d) => d,
                _ => None,
            },
            None => None,
        }
    }

    /// Version-manager counters summed across pipes: (allocations, reuses,
    /// pool_changes, live_versions). Each pipe allocates versions for its
    /// own DIPPoolTable, so the sums count chip-wide events and the
    /// summed `live_versions` is the chip-wide pool-row count. Per-pipe
    /// values stay reachable through [`Self::pipe`] on the inline
    /// backend.
    pub fn version_counters(&mut self, vip: Vip) -> Option<(u64, u64, u64, usize)> {
        let mut any = false;
        let mut total = (0u64, 0u64, 0u64, 0usize);
        for reply in self.query_all(Query::VersionCounters(vip)) {
            if let QueryReply::VersionCounters(Some((a, r, c, l))) = &*reply {
                any = true;
                total.0 += a;
                total.1 += r;
                total.2 += c;
                total.3 += l;
            }
        }
        any.then_some(total)
    }

    /// TransitTable counters summed across pipes: (recorded, checks, hits,
    /// total_size_bytes).
    pub fn transit_counters(&mut self) -> (u64, u64, u64, usize) {
        let mut total = (0u64, 0u64, 0u64, 0usize);
        for reply in self.query_all(Query::TransitCounters) {
            if let QueryReply::TransitCounters((r, c, h, s)) = &*reply {
                total.0 += r;
                total.1 += c;
                total.2 += h;
                total.3 += s;
            }
        }
        total
    }

    /// Chip-wide SRAM footprint: the sum of every pipe's breakdown.
    pub fn memory(&mut self) -> MemoryBreakdown {
        let mut total = MemoryBreakdown::default();
        for reply in self.query_all(Query::Memory) {
            if let QueryReply::Memory(m) = &*reply {
                total.conn_table += m.conn_table;
                total.vip_table += m.vip_table;
                total.dip_pool_table += m.dip_pool_table;
                total.transit += m.transit;
            }
        }
        total
    }

    /// Earliest pending control-plane wakeup across all pipes.
    pub fn next_wakeup(&mut self) -> Option<Nanos> {
        self.query_all(Query::NextWakeup)
            .iter()
            .filter_map(|r| match &**r {
                QueryReply::NextWakeup(w) => *w,
                _ => None,
            })
            .min()
    }
}

impl Drop for MultiPipeSwitch {
    fn drop(&mut self) {
        // Close every job ring first: each worker drains its queued
        // jobs, then exits its loop and drops its done producer.
        for lane in &mut self.lanes {
            if let Link::Worker { jobs, .. } = &mut lane.link {
                jobs.close();
            }
        }
        for lane in &mut self.lanes {
            if let Link::Worker { done, join, .. } = &mut lane.link {
                // Drain completions until the worker's producer drops;
                // this also unblocks a worker pushing into a full ring.
                while done.pop().is_some() {}
                if let Some(join) = join.take() {
                    // A worker that panicked already reported on stderr;
                    // nothing useful to do with the payload in drop.
                    let _ = join.join();
                }
            }
        }
    }
}

// srlint: hot-path begin
/// Scatter one buffer's decisions back to input order.
fn scatter(buf: &BatchBuf, out: &mut [ForwardDecision], base: usize) {
    for (d, &i) in buf.out.iter().zip(buf.idx.iter()) {
        if let Some(slot) = out.get_mut(base + i as usize) {
            *slot = *d;
        }
    }
}
// srlint: hot-path end

#[cfg(test)]
mod tests {
    use super::*;
    use sr_types::Addr;

    fn vip() -> Vip {
        Vip(Addr::v4(20, 0, 0, 1, 80))
    }

    fn dip(i: u8) -> Dip {
        Dip(Addr::v4(10, 0, 0, i, 20))
    }

    fn conn(i: u32) -> FiveTuple {
        FiveTuple::tcp(Addr::v4_indexed(1, i, 1000), vip().0)
    }

    fn engine(pipes: usize) -> MultiPipeSwitch {
        let mut e = MultiPipeSwitch::inline(SilkRoadConfig::small_test(), pipes);
        e.add_vip(vip(), vec![dip(1), dip(2), dip(3)]).unwrap();
        e
    }

    fn threaded(pipes: usize) -> MultiPipeSwitch {
        let mut e = MultiPipeSwitch::new(SilkRoadConfig::small_test(), pipes);
        e.add_vip(vip(), vec![dip(1), dip(2), dip(3)]).unwrap();
        e
    }

    #[test]
    fn steering_is_symmetric_per_direction() {
        let s = FlowSteering::new(7, 4);
        let fwd = FiveTuple::tcp(Addr::v4(1, 2, 3, 4, 1234), Addr::v4(20, 0, 0, 1, 80));
        let rev = FiveTuple::tcp(Addr::v4(20, 0, 0, 1, 80), Addr::v4(1, 2, 3, 4, 1234));
        assert_eq!(s.flow_hash(&fwd), s.flow_hash(&rev));
        assert_eq!(s.pipe_for(&fwd), s.pipe_for(&rev));
    }

    #[test]
    #[should_panic(expected = "at least one pipe")]
    fn zero_pipes_rejected() {
        let _ = FlowSteering::new(1, 0);
    }

    #[test]
    fn batch_decisions_match_per_packet_path() {
        let mut a = engine(4);
        let mut b = engine(4);
        let pkts: Vec<PacketMeta> = (0..64).map(|i| PacketMeta::syn(conn(i))).collect();
        let batch = a.process_batch(&pkts, Nanos::ZERO);
        let single: Vec<ForwardDecision> = pkts
            .iter()
            .map(|p| b.process_packet(p, Nanos::ZERO))
            .collect();
        assert_eq!(batch, single);
        assert_eq!(a.stats().packets, 64);
    }

    #[test]
    fn broadcast_update_runs_on_every_pipe() {
        let mut e = engine(4);
        let pkts: Vec<PacketMeta> = (0..64).map(|i| PacketMeta::syn(conn(i))).collect();
        e.process_batch(&pkts, Nanos::ZERO);
        e.advance(Nanos::from_secs(1));
        e.request_update(vip(), PoolUpdate::Add(dip(9)), Nanos::from_secs(1))
            .unwrap();
        e.advance(Nanos::from_secs(2));
        assert_eq!(e.update_phase(vip()), Some(UpdatePhase::Idle));
        for p in 0..e.pipe_count() {
            let sw = e.pipe(p).unwrap().switch();
            assert!(
                sw.current_dips(vip()).unwrap().contains(&dip(9)),
                "pipe {p}"
            );
            assert_eq!(sw.stats().updates_requested, 1, "pipe {p}");
        }
        // The aggregate view sums the broadcast events.
        assert_eq!(e.stats().updates_requested, 4);
    }

    #[test]
    fn counters_aggregate_losslessly() {
        let mut e = engine(4);
        let pkts: Vec<PacketMeta> = (0..256).map(|i| PacketMeta::syn(conn(i))).collect();
        e.process_batch(&pkts, Nanos::ZERO);
        e.advance(Nanos::from_secs(1));
        let per_pipe: u64 = (0..e.pipe_count())
            .map(|p| e.pipe(p).unwrap().switch().stats().installs)
            .sum();
        assert_eq!(e.stats().installs, per_pipe);
        assert!(per_pipe > 0);
        let conn_sum: usize = (0..e.pipe_count())
            .map(|p| e.pipe(p).unwrap().switch().conn_count())
            .sum();
        assert_eq!(e.conn_count(), conn_sum);
        let mem = e.memory();
        assert!(mem.transit > 0 && mem.conn_table > 0);
    }

    #[test]
    fn layout_check_covers_the_pipes_dimension() {
        // 4 pipes fit the Tofino-class chip; more than the chip has must
        // be rejected by SRC016 at construction — before any worker
        // thread spawns, on both backends.
        let chip_pipes = sr_asic::ChipSpec::tofino_class().pipes as usize;
        let ok = std::panic::catch_unwind(|| {
            MultiPipeSwitch::inline(SilkRoadConfig::small_test(), chip_pipes)
        });
        assert!(ok.is_ok());
        let too_many = std::panic::catch_unwind(|| {
            MultiPipeSwitch::new(SilkRoadConfig::small_test(), chip_pipes + 1)
        });
        assert!(too_many.is_err());
    }

    #[test]
    fn threaded_engine_matches_inline() {
        let mut seq = engine(4);
        let mut thr = threaded(4);
        let pkts: Vec<PacketMeta> = (0..512).map(|i| PacketMeta::syn(conn(i))).collect();
        assert_eq!(
            seq.process_batch(&pkts, Nanos::ZERO),
            thr.process_batch(&pkts, Nanos::ZERO)
        );
        let t1 = Nanos::from_secs(1);
        seq.advance(t1);
        thr.advance(t1);
        let data: Vec<PacketMeta> = (0..512).map(|i| PacketMeta::data(conn(i), 800)).collect();
        assert_eq!(seq.process_batch(&data, t1), thr.process_batch(&data, t1));
        assert_eq!(seq.stats(), thr.stats());
        assert_eq!(seq.conn_count(), thr.conn_count());
        assert_eq!(seq.memory(), thr.memory());
        assert_eq!(seq.transit_counters(), thr.transit_counters());
    }

    #[test]
    fn threaded_control_plane_matches_inline() {
        let mut seq = engine(4);
        let mut thr = threaded(4);
        let pkts: Vec<PacketMeta> = (0..256).map(|i| PacketMeta::syn(conn(i))).collect();
        seq.process_batch(&pkts, Nanos::ZERO);
        thr.process_batch(&pkts, Nanos::ZERO);
        let t1 = Nanos::from_secs(1);
        seq.advance(t1);
        thr.advance(t1);
        seq.request_update(vip(), PoolUpdate::Add(dip(9)), t1)
            .unwrap();
        thr.request_update(vip(), PoolUpdate::Add(dip(9)), t1)
            .unwrap();
        // Duplicate VIP registration errors identically on both backends.
        assert_eq!(
            seq.add_vip(vip(), vec![dip(1)]).unwrap_err(),
            thr.add_vip(vip(), vec![dip(1)]).unwrap_err()
        );
        let t2 = Nanos::from_secs(3);
        seq.advance(t2);
        thr.advance(t2);
        assert_eq!(seq.update_phase(vip()), thr.update_phase(vip()));
        assert_eq!(seq.current_version(vip()), thr.current_version(vip()));
        assert_eq!(seq.current_dips(vip()), thr.current_dips(vip()));
        assert_eq!(seq.version_counters(vip()), thr.version_counters(vip()));
        assert_eq!(seq.next_wakeup(), thr.next_wakeup());
        // Expiry counts agree too (two-pass aging scan).
        assert_eq!(
            seq.expire_idle(Nanos::from_secs(300)),
            thr.expire_idle(Nanos::from_secs(300))
        );
        assert_eq!(
            seq.expire_idle(Nanos::from_secs(600)),
            thr.expire_idle(Nanos::from_secs(600))
        );
        assert_eq!(seq.conn_count(), thr.conn_count());
    }

    #[test]
    fn stream_digest_matches_across_backends_and_pipe_counts() {
        let mut digests = Vec::new();
        for (pipes, use_threads) in [(1, false), (4, false), (1, true), (2, true), (4, true)] {
            let mut e = MultiPipeSwitch::with_options(
                SilkRoadConfig::small_test(),
                pipes,
                EngineOptions {
                    threaded: use_threads,
                    ..EngineOptions::default()
                },
            );
            e.add_vip(vip(), vec![dip(1), dip(2), dip(3)]).unwrap();
            let syns: Vec<PacketMeta> = (0..256).map(|i| PacketMeta::syn(conn(i))).collect();
            e.process_batch(&syns, Nanos::ZERO);
            e.advance(Nanos::from_secs(1));
            let data: Vec<PacketMeta> = (0..256).map(|i| PacketMeta::data(conn(i), 800)).collect();
            // Stream in uneven chunks: the digest must not depend on
            // batch boundaries.
            let chunk = if pipes == 2 { 96 } else { 128 };
            for c in data.chunks(chunk) {
                e.stream_batch(c, Nanos::from_secs(1));
            }
            let s = e.stream_drain();
            assert_eq!(s.packets, 256, "pipes={pipes} threaded={use_threads}");
            digests.push(s.digest);
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "stream digests diverged: {digests:x?}"
        );
    }

    #[test]
    fn streaming_interleaved_with_sync_calls_is_consistent() {
        let mut e = threaded(2);
        let syns: Vec<PacketMeta> = (0..128).map(|i| PacketMeta::syn(conn(i))).collect();
        e.process_batch(&syns, Nanos::ZERO);
        e.advance(Nanos::from_secs(1));
        let data: Vec<PacketMeta> = (0..128).map(|i| PacketMeta::data(conn(i), 800)).collect();
        // Stream, then issue sync control + queries with batches possibly
        // still in flight, then stream more.
        e.stream_batch(&data, Nanos::from_secs(1));
        e.request_update(vip(), PoolUpdate::Add(dip(7)), Nanos::from_secs(1))
            .unwrap();
        assert!(e.conn_count() > 0);
        e.stream_batch(&data, Nanos::from_secs(1));
        let s = e.stream_drain();
        assert_eq!(s.packets, 256);
        assert_eq!(e.stats().packets, 128 + 256);
    }

    #[test]
    fn drop_with_in_flight_batches_shuts_down_cleanly() {
        let mut e = threaded(2);
        let syns: Vec<PacketMeta> = (0..256).map(|i| PacketMeta::syn(conn(i))).collect();
        e.process_batch(&syns, Nanos::ZERO);
        e.advance(Nanos::from_secs(1));
        let data: Vec<PacketMeta> = (0..256).map(|i| PacketMeta::data(conn(i), 800)).collect();
        for _ in 0..8 {
            e.stream_batch(&data, Nanos::from_secs(1));
        }
        // Drop without draining: workers must finish the queued batches
        // and join without hanging.
        drop(e);
    }

    #[test]
    fn pipe_access_is_inline_only() {
        let inline = engine(2);
        assert!(inline.pipe(0).is_some());
        assert!(inline.pipe(1).is_some());
        assert!(!inline.is_threaded());
        let thr = threaded(2);
        assert!(thr.is_threaded());
        assert!(thr.pipe(0).is_none());
    }
}
