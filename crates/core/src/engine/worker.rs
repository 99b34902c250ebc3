//! The per-pipe run-to-completion worker.
//!
//! One long-lived OS thread per pipe, owning its [`Pipe`] shard
//! exclusively for the engine's whole lifetime: the steer thread never
//! touches pipe state, so there is no per-batch spawn/join and no
//! cross-pipe sharing to serialize on. The worker is fed [`Job`]s
//! through a bounded SPSC ring and returns [`Done`]s through a second
//! ring; batch buffers circulate steer → worker → steer and are reused,
//! so the steady-state hot loop allocates nothing.
//!
//! Control-plane changes reach the worker as epoch stamps: every job
//! carries the [`ControlLog`] epoch observed when it was created, and
//! the worker adopts all ops up to exactly that stamp before acting on
//! the job (see `engine::control`). Expiry counts and the first error
//! produced by adopted ops accumulate in the worker and are reported on
//! the next [`Job::Control`] reply.

use super::control::{apply_op, ControlLog, ControlOp};
use super::{FlowSteering, Pipe, MAX_ADDR_BYTES};
use crate::dataplane::{DataPath, ForwardDecision};
use crate::memory::MemoryBreakdown;
use crate::stats::SwitchStats;
use crate::update::UpdatePhase;
use sr_exec::{Consumer, Producer};
use sr_hash::splitmix64;
use sr_types::{Dip, Nanos, PacketMeta, PoolVersion, TypeError, Vip};
use std::sync::Arc;

/// A reusable steered batch travelling steer → worker → steer.
pub(crate) struct BatchBuf {
    /// Adopt ops up to this epoch before processing.
    pub epoch: u64,
    /// Batch timestamp.
    pub now: Nanos,
    /// Streaming mode: fold decisions into (`folded_packets`,
    /// `folded_digest`) instead of scattering `out` back by `idx`.
    pub fold: bool,
    /// Original input positions of the steered packets.
    pub idx: Vec<u32>,
    /// The steered packets.
    pub pkts: Vec<PacketMeta>,
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
            epoch: 0,
            now: Nanos::ZERO,
            fold: false,
            idx: Vec::new(),
            pkts: Vec::new(),
            out: Vec::new(),
            folded_packets: 0,
            folded_digest: 0,
        })
    }

    /// Clear contents, retaining capacity (the zero-alloc recycle path).
    pub(crate) fn reset(&mut self) {
        self.idx.clear();
        self.pkts.clear();
        self.out.clear();
        self.folded_packets = 0;
        self.folded_digest = 0;
    }
}

/// Work sent to a pipe worker. Shutdown is the ring closing, not a
/// variant, so queued jobs still drain during teardown.
pub(crate) enum Job {
    /// Process a steered batch (after adopting up to its epoch).
    Batch(Box<BatchBuf>),
    /// Adopt up to `epoch` and reply with accumulated op outcomes.
    Control {
        /// Adoption target.
        epoch: u64,
    },
    /// Adopt up to `epoch`, then answer a read-only query.
    Query {
        /// Adoption target.
        epoch: u64,
        /// What to read.
        query: Query,
    },
}

/// Completion sent back to the steer thread.
pub(crate) enum Done {
    /// A processed batch (buffer returns to the caller for reuse).
    Batch(Box<BatchBuf>),
    /// Reply to [`Job::Control`].
    Control(ControlReply),
    /// Reply to [`Job::Query`].
    Query(Box<QueryReply>),
}

/// Outcomes of every op adopted since the previous control reply.
pub(crate) struct ControlReply {
    /// Connections expired by adopted `ExpireIdle` ops.
    pub expired: usize,
    /// First error any adopted op produced. Control state is identical
    /// in every pipe, so all pipes fail (or succeed) identically.
    pub error: Option<TypeError>,
}

/// Read-only questions answered from a worker's pipe state.
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

/// Adoption cursor plus the outcome accumulators carried between
/// control replies.
pub(crate) struct Adopter {
    cursor: u64,
    expired: usize,
    error: Option<TypeError>,
    /// Reused scratch for `Arc` refs copied out of the log.
    ops: Vec<Arc<ControlOp>>,
}

impl Adopter {
    pub(crate) fn new() -> Adopter {
        Adopter {
            cursor: 0,
            expired: 0,
            error: None,
            ops: Vec::new(),
        }
    }

    /// Apply every op in `(cursor, target]` to the pipe, in publication
    /// order. Holds the log lock only while copying refs.
    pub(crate) fn adopt_to(&mut self, pipe: &mut Pipe, log: &ControlLog, target: u64) {
        if self.cursor >= target {
            return;
        }
        self.ops.clear();
        log.copy_range(self.cursor, target, &mut self.ops);
        let id = pipe.id();
        for op in &self.ops {
            let (expired, result) = apply_op(id, pipe.switch_mut(), op);
            self.expired += expired;
            if self.error.is_none() {
                self.error = result.err();
            }
        }
        self.cursor = target;
        // Drop the Arc refs now: retaining them would keep truncated ops
        // alive until the next adoption.
        self.ops.clear();
    }

    /// Take the accumulated outcomes for a control reply.
    pub(crate) fn take_outcomes(&mut self) -> ControlReply {
        ControlReply {
            expired: std::mem::take(&mut self.expired),
            error: self.error.take(),
        }
    }
}

/// Answer a query from the worker's pipe (allocates freely: this is the
/// control plane).
pub(crate) fn answer_query(pipe: &Pipe, query: Query) -> Done {
    let sw = pipe.switch();
    let reply = match query {
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
    };
    Done::Query(Box::new(reply))
}

/// Fold a processed batch's decisions into a **commutative** digest:
/// each packet contributes `splitmix64(flow_hash(tuple) ^ word(decision))`
/// and contributions combine by wrapping addition, so the total is
/// independent of batch boundaries, pipe count, and completion order —
/// only the per-flow decisions matter. Streaming drivers compare these
/// digests across pipe counts to prove decision identity at full speed.
pub(crate) fn fold_batch(steering: &FlowSteering, buf: &mut BatchBuf) {
    let mut digest = 0u64;
    for (pkt, d) in buf.pkts.iter().zip(buf.out.iter()) {
        digest = digest.wrapping_add(packet_digest(steering, pkt, d));
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

/// The worker thread body: adopt → process → complete, run to
/// completion until the job ring closes. Buffer recycling keeps the
/// steady state allocation-free; the loop itself is panic-free (a dead
/// completion ring means the facade is gone — exit, don't unwind).
pub(crate) fn worker_loop(
    mut pipe: Pipe,
    steering: FlowSteering,
    log: Arc<ControlLog>,
    mut jobs: Consumer<Job>,
    mut done: Producer<Done>,
    pin_core: Option<usize>,
) {
    if let Some(core) = pin_core {
        // Best-effort: an unpinnable host just runs unpinned.
        let _ = sr_exec::pin_current_thread(core);
    }
    let mut adopter = Adopter::new();
    // srlint: hot-path begin
    while let Some(job) = jobs.pop() {
        match job {
            Job::Batch(mut buf) => {
                adopter.adopt_to(&mut pipe, &log, buf.epoch);
                buf.out.clear();
                pipe.switch_mut()
                    .process_batch_into(&buf.pkts, buf.now, &mut buf.out);
                if buf.fold {
                    fold_batch(&steering, &mut buf);
                }
                if done.push(Done::Batch(buf)).is_err() {
                    break;
                }
            }
            Job::Control { epoch } => {
                adopter.adopt_to(&mut pipe, &log, epoch);
                let reply = adopter.take_outcomes();
                if done.push(Done::Control(reply)).is_err() {
                    break;
                }
            }
            Job::Query { epoch, query } => {
                adopter.adopt_to(&mut pipe, &log, epoch);
                if done.push(answer_query(&pipe, query)).is_err() {
                    break;
                }
            }
        }
    }
    // srlint: hot-path end
}
