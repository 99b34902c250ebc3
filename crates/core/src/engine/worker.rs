//! The per-pipe run-to-completion worker and the messages it exchanges.
//!
//! One long-lived OS thread per pipe, owning its [`Pipe`] shard
//! exclusively for the engine's whole lifetime: the steer thread never
//! touches pipe state, so there is no per-batch spawn/join and no
//! cross-pipe sharing to serialize on. The worker is fed [`Job`]s
//! through a bounded SPSC ring and returns [`Done`]s through a second
//! ring; batch buffers circulate steer → worker → steer and are reused,
//! so the steady-state hot loop allocates nothing.
//!
//! Control-plane changes travel in the same FIFO ring as the batches, as
//! [`Job::Control`] ops, so every pipe applies ops and batches in the
//! order the facade issued them. [`run_job`] is the whole loop body; the
//! inline backend calls it directly on the caller's thread.

use super::{FlowSteering, Pipe, MAX_ADDR_BYTES};
use crate::dataplane::{DataPath, ForwardDecision};
use crate::memory::MemoryBreakdown;
use crate::pool::PoolUpdate;
use crate::stats::SwitchStats;
use crate::update::UpdatePhase;
use sr_asic::MeterConfig;
use sr_exec::{Consumer, Producer};
use sr_hash::splitmix64;
use sr_types::{Dip, FiveTuple, Nanos, PacketMeta, PoolVersion, TypeError, Vip};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// One control-plane operation, applied by
/// [`crate::SilkRoadSwitch::apply`] on each pipe it is sent to.
#[derive(Clone, Debug)]
pub(crate) enum ControlOp {
    /// Register a VIP with its initial DIP pool (every pipe).
    AddVip {
        /// The VIP.
        vip: Vip,
        /// Initial pool members.
        dips: Vec<Dip>,
    },
    /// Remove a VIP (every pipe).
    RemoveVip {
        /// The VIP.
        vip: Vip,
    },
    /// Start a 3-step PCC pool update (every pipe).
    RequestUpdate {
        /// The VIP.
        vip: Vip,
        /// The pool change.
        op: PoolUpdate,
        /// Request time.
        now: Nanos,
    },
    /// Attach a VIP meter (every pipe).
    AttachMeter {
        /// The VIP.
        vip: Vip,
        /// Meter parameters.
        cfg: MeterConfig,
    },
    /// Detach a VIP meter (every pipe).
    DetachMeter {
        /// The VIP.
        vip: Vip,
    },
    /// Run the control plane forward to `now` (every pipe).
    Advance {
        /// Target time.
        now: Nanos,
    },
    /// Run an idle-expiry scan (every pipe; counts are summed).
    ExpireIdle {
        /// Scan time.
        now: Nanos,
    },
    /// Close one connection. Sent only to the pipe the flow steers to:
    /// flow-to-pipe affinity means no other pipe can hold its entry.
    CloseConn {
        /// The connection.
        tuple: FiveTuple,
        /// Close time.
        now: Nanos,
    },
}

/// A reusable steered batch travelling steer → worker → steer.
pub(crate) struct BatchBuf {
    /// Batch timestamp.
    pub now: Nanos,
    /// Streaming mode: fold decisions into (`folded_packets`,
    /// `folded_digest`) instead of scattering `out` back by `idx`.
    pub fold: bool,
    /// Original input positions of the steered packets.
    pub idx: Vec<u32>,
    /// The steered packets.
    pub pkts: Vec<PacketMeta>,
    /// Streaming mode: each packet's flow hash, parallel to `pkts`, as the
    /// steer pass computed it (the fold reuses it instead of rehashing).
    pub hashes: Vec<u64>,
    /// The pipe's decisions, parallel to `pkts`.
    pub out: Vec<ForwardDecision>,
    /// Fold result: packets processed.
    pub folded_packets: u64,
    /// Fold result: commutative decision digest (see [`fold_batch`]).
    pub folded_digest: u64,
}

impl BatchBuf {
    /// A fresh, empty buffer.
    pub(crate) fn boxed() -> Box<BatchBuf> {
        Box::new(BatchBuf {
            now: Nanos::ZERO,
            fold: false,
            idx: Vec::new(),
            pkts: Vec::new(),
            hashes: Vec::new(),
            out: Vec::new(),
            folded_packets: 0,
            folded_digest: 0,
        })
    }

    /// Clear contents, retaining capacity (the zero-alloc recycle path).
    pub(crate) fn reset(&mut self) {
        self.idx.clear();
        self.pkts.clear();
        self.hashes.clear();
        self.out.clear();
        self.folded_packets = 0;
        self.folded_digest = 0;
    }
}

/// Work sent to a pipe. Shutdown is the ring closing, not a variant, so
/// queued jobs still drain during teardown.
pub(crate) enum Job {
    /// Process a steered batch.
    Batch(Box<BatchBuf>),
    /// Apply a control op and reply with its outcome.
    Control(ControlOp),
    /// Answer a read-only query.
    Query(Query),
}

/// Completion sent back to the steer thread.
pub(crate) enum Done {
    /// A processed batch (buffer returns to the caller for reuse).
    Batch(Box<BatchBuf>),
    /// Outcome of a [`Job::Control`]: connections expired, or the op's
    /// error. Control state is identical in every pipe, so all pipes fail
    /// (or succeed) identically.
    Control(Result<usize, TypeError>),
    /// Reply to [`Job::Query`].
    Query(Box<QueryReply>),
}

/// Read-only questions answered from a pipe's state.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Query {
    /// Merged switch counters.
    Stats,
    /// Installed connections.
    ConnCount,
    /// A VIP's update phase.
    UpdatePhase(Vip),
    /// A VIP's newest pool version.
    CurrentVersion(Vip),
    /// A VIP's newest pool members.
    CurrentDips(Vip),
    /// Version-manager counters for a VIP.
    VersionCounters(Vip),
    /// TransitTable counters.
    TransitCounters,
    /// SRAM footprint.
    Memory,
    /// Earliest pending control-plane wakeup.
    NextWakeup,
}

/// One pipe's answer to a [`Query`].
pub(crate) enum QueryReply {
    /// Counters (cloned; maps and all).
    Stats(SwitchStats),
    /// Installed connections.
    ConnCount(usize),
    /// Update phase, if the VIP exists.
    UpdatePhase(Option<UpdatePhase>),
    /// Newest pool version, if the VIP exists.
    CurrentVersion(Option<PoolVersion>),
    /// Newest pool members, if the VIP exists (owned: the data crosses
    /// a thread boundary, so borrowing from the pipe is impossible).
    CurrentDips(Option<Vec<Dip>>),
    /// (allocations, reuses, pool_changes, live_versions).
    VersionCounters(Option<(u64, u64, u64, usize)>),
    /// (recorded, checks, hits, size_bytes).
    TransitCounters((u64, u64, u64, usize)),
    /// SRAM footprint.
    Memory(MemoryBreakdown),
    /// Earliest wakeup.
    NextWakeup(Option<Nanos>),
}

/// Answer a query from the pipe (allocates freely: this is the control
/// plane).
fn answer_query(pipe: &Pipe, query: Query) -> Box<QueryReply> {
    let sw = pipe.switch();
    Box::new(match query {
        Query::Stats => QueryReply::Stats(sw.stats().clone()),
        Query::ConnCount => QueryReply::ConnCount(sw.conn_count()),
        Query::UpdatePhase(vip) => QueryReply::UpdatePhase(sw.update_phase(vip)),
        Query::CurrentVersion(vip) => QueryReply::CurrentVersion(sw.current_version(vip)),
        Query::CurrentDips(vip) => {
            QueryReply::CurrentDips(sw.current_dips(vip).map(|d| d.to_vec()))
        }
        Query::VersionCounters(vip) => QueryReply::VersionCounters(sw.version_counters(vip)),
        Query::TransitCounters => QueryReply::TransitCounters(sw.transit_counters()),
        Query::Memory => QueryReply::Memory(sw.memory()),
        Query::NextWakeup => QueryReply::NextWakeup(sw.next_wakeup()),
    })
}

/// Fold a processed batch's decisions into a **commutative** digest:
/// each packet contributes `splitmix64(flow_hash(tuple) ^ word(decision))`
/// and contributions combine by wrapping addition, so the total is
/// independent of batch boundaries, pipe count, and completion order —
/// only the per-flow decisions matter. Streaming drivers compare these
/// digests across pipe counts to prove decision identity at full speed.
/// The flow hashes come from the steer pass (`BatchBuf::hashes`).
fn fold_batch(buf: &mut BatchBuf) {
    let mut digest = 0u64;
    for (&h, d) in buf.hashes.iter().zip(buf.out.iter()) {
        digest = digest.wrapping_add(splitmix64(h ^ decision_word(d)));
    }
    buf.folded_packets = buf.pkts.len() as u64;
    buf.folded_digest = digest;
}

/// One packet's contribution to the commutative decision digest that
/// [`crate::StreamStats`] reports: harnesses driving the synchronous
/// entry points fold with this so their digests are comparable with the
/// streaming path's (combine contributions by wrapping addition).
pub fn packet_digest(steering: &FlowSteering, pkt: &PacketMeta, d: &ForwardDecision) -> u64 {
    splitmix64(steering.flow_hash(&pkt.tuple) ^ decision_word(d))
}

/// A stable 64-bit encoding of a decision's externally visible fields
/// (path, DIP, version, hit flag) — the same fields the replay driver's
/// decision digest covers.
fn decision_word(d: &ForwardDecision) -> u64 {
    let path = match d.path {
        DataPath::AsicConnTable => 1u64,
        DataPath::AsicVipTable => 2,
        DataPath::SoftwareRedirect => 3,
        DataPath::Dropped => 4,
        DataPath::NotVip => 5,
    };
    let mut w = splitmix64(path | (u64::from(d.conn_table_hit) << 3));
    if let Some(v) = d.version {
        w ^= splitmix64(0x7665_7273 ^ u64::from(v.0));
    }
    if let Some(dip) = d.dip {
        let mut bytes = [0u8; MAX_ADDR_BYTES];
        let n = dip.0.encode_to(&mut bytes, 0);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes.get(..n).unwrap_or(&[]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        w ^= h;
    }
    w
}

// srlint: hot-path begin
/// Run one job to completion on `pipe`: the worker thread's whole loop
/// body, and what an inline lane runs on the caller's thread. Batch
/// buffers are recycled, so a steady-state batch allocates nothing.
pub(crate) fn run_job(pipe: &mut Pipe, job: Job) -> Done {
    match job {
        Job::Batch(mut buf) => {
            buf.out.clear();
            pipe.switch
                .process_batch_into(&buf.pkts, buf.now, &mut buf.out);
            if buf.fold {
                fold_batch(&mut buf);
            }
            Done::Batch(buf)
        }
        Job::Control(op) => Done::Control(pipe.switch.apply(&op)),
        Job::Query(query) => Done::Query(answer_query(pipe, query)),
    }
}
// srlint: hot-path end

/// Pipe worker threads started and not yet finished, process-wide.
static RUNNING: AtomicUsize = AtomicUsize::new(0);

/// How many pipe worker threads are running in this process, across all
/// engines. A worker counts itself out as the last thing its thread does
/// (unwinding included), so once every engine that spawned workers has
/// been dropped — `Drop` joins them — this reads 0.
pub fn running_workers() -> usize {
    RUNNING.load(SeqCst)
}

/// The worker thread body: run jobs until the job ring closes. The loop
/// itself is panic-free (a dead completion ring means the facade is
/// gone — exit, don't unwind).
pub(crate) fn worker_loop(
    mut pipe: Pipe,
    mut jobs: Consumer<Job>,
    mut done: Producer<Done>,
    pin_core: Option<usize>,
) {
    /// Holds this thread's place in [`RUNNING`] (unwinding included).
    struct Running;
    impl Drop for Running {
        fn drop(&mut self) {
            RUNNING.fetch_sub(1, SeqCst);
        }
    }
    RUNNING.fetch_add(1, SeqCst);
    let running = Running;
    if let Some(core) = pin_core {
        // Best-effort: an unpinnable host just runs unpinned.
        let _ = sr_exec::pin_current_thread(core);
    }
    while let Some(job) = jobs.pop() {
        if done.push(run_job(&mut pipe, job)).is_err() {
            break;
        }
    }
    // Rings first (the facade stops waiting), then the shard, and counting
    // out last: only a join, not the rings closing, guarantees a 0 count.
    drop((jobs, done));
    drop(pipe);
    drop(running);
}
