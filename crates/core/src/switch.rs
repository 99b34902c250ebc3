//! The SilkRoad switch: data plane + control plane glued together.
//!
//! [`SilkRoadSwitch`] is the crate's main entry point. It is driven by two
//! kinds of calls:
//!
//! * **data plane** — [`SilkRoadSwitch::process_batch_into`] runs the full
//!   pipeline (ConnTable → VIPTable/TransitTable → DIPPoolTable) over a
//!   batch and returns each packet's forwarding decision;
//!   [`SilkRoadSwitch::process_packet`] is a batch of one;
//! * **control plane** — [`SilkRoadSwitch::request_update`] applies DIP-pool
//!   changes through the 3-step PCC protocol, and
//!   [`SilkRoadSwitch::advance`] runs the software side (learning-filter
//!   drains, CPU insertions, update-phase transitions) up to a point in
//!   simulated time.
//!
//! Every public method takes `now`; the switch never consults a real clock.
//!
//! A ConnTable hit resolves the way the ASIC reads its DIPPoolTable, by
//! index: the hit record's VIP id selects the VIP's slot in the switch's
//! per-VIP slab, and the record's version selects that VIP's pool row.
//! Two indexed reads, no hash probe, and nothing cached across
//! control-plane events, so a pool edit is visible to the next packet.

use crate::config::SilkRoadConfig;
use crate::conn_table::{ConnTable, ConnValue};
use crate::control::{CompletedInstall, ControlPlane, LearnMeta, LearnOutcome};
use crate::dataplane::{DataPath, ForwardDecision, HashedKey, KeyHasher};
use crate::engine::ControlOp;
use crate::memory::MemoryBreakdown;
use crate::pool::{DipPool, PoolUpdate};
use crate::stats::SwitchStats;
use crate::transit::TransitTable;
use crate::update::{ActiveUpdate, Transition, UpdatePhase, UpdateState};
use crate::version::VersionManager;
use crate::vip_table::{VersionView, VipTable};
use sr_asic::{Meter, MeterColor, MeterConfig};
use sr_hash::cuckoo::CuckooError;
use sr_hash::{FxHashMap, HashFn};
use sr_types::{Dip, FiveTuple, Nanos, PacketMeta, PoolVersion, TupleKey, TypeError, Vip};

/// Per-VIP control-plane state.
struct VipState {
    manager: VersionManager,
    update: UpdateState,
}

/// A fallback-table connection: pinned directly to a DIP, with the same
/// hit-bit bookkeeping the ConnTable keeps so idle aging covers it too.
struct FallbackConn {
    /// Which VIP the pin belongs to (per-VIP pin accounting).
    vip: Vip,
    dip: Dip,
    /// When the connection entered the fallback table.
    arrived: Nanos,
    /// Hit since the last aging scan.
    hit: bool,
}

/// Batch chunk length: how many record reads the record pass keeps in
/// flight, without spilling the chunk's [`HashedKey`]s out of L1. A
/// batch chunk's scratch arrays, the setup stage's included, are sized by
/// the same constant. Chunk length never changes decisions, only how much
/// work overlaps. Median `pps` (M pkt/s) of 4 rotated runs per size,
/// `sr-benchmark --workload W --seed 301..304 --seconds 3 --trace 0` on a
/// 2-vCPU shared x86 host:
///
/// | chunk | hit-64k | hit-1m | churn |
/// |-------|---------|--------|-------|
/// | 8     | 4.47    | 3.19   | 2.03  |
/// | 16    | 4.50    | 3.35   | 2.13  |
/// | 32    | 4.36    | 3.50   | 2.20  |
///
/// No size wins all three: 32 gains ≈ 4 % on `hit-1m` and ≈ 3 % on
/// `churn` and loses ≈ 3 % on `hit-64k`, each within the runs' spread,
/// so sixteen stays.
const SETUP_CHUNK: usize = 16;

// srlint: hot-path begin
/// The state in slab slot `id` (see [`SilkRoadSwitch`]'s `vips`).
#[inline]
fn slot(vips: &[Option<VipState>], id: u32) -> Option<&VipState> {
    vips.get(usize::try_from(id).ok()?)?.as_ref()
}
// srlint: hot-path end

/// A SilkRoad switch instance.
pub struct SilkRoadSwitch {
    cfg: SilkRoadConfig,
    /// Every hash function the packet path consumes, evaluated in one pass
    /// per packet (bucket hashes, digest, ECMP select, bloom indexes).
    hasher: KeyHasher,
    vip_table: VipTable,
    /// Per-VIP state, slotted by the VIP id the ConnTable's records carry
    /// ([`ConnTable::intern_vip`]), so a hit reaches its VIP's pools by
    /// index. Ids are never dropped: a removed VIP leaves an empty slot,
    /// which a re-add of the same address fills again.
    vips: Vec<Option<VipState>>,
    conn_table: ConnTable,
    transit: TransitTable,
    control: ControlPlane,
    /// Software fallback table: connections that could not live in
    /// ConnTable (overflow, version exhaustion) pinned directly to a DIP.
    /// Keyed by the inline tuple key so steady-state probes allocate
    /// nothing.
    fallback: FxHashMap<TupleKey, FallbackConn>,
    /// Per-VIP rate limiters (§5.2 performance isolation): red-marked
    /// packets are dropped before any table lookup.
    meters: FxHashMap<Vip, Meter>,
    /// Recycled buffer for the batched install drain in
    /// [`SilkRoadSwitch::advance`] — completions pop into this instead of
    /// a fresh `Vec` per control-plane wakeup.
    install_scratch: Vec<CompletedInstall>,
    stats: SwitchStats,
}

impl SilkRoadSwitch {
    /// Build a switch. Panics on invalid configuration or on a pipeline
    /// layout the srcheck verifier rejects (validate/check first for
    /// graceful handling).
    pub fn new(cfg: SilkRoadConfig) -> SilkRoadSwitch {
        cfg.validate().expect("invalid SilkRoadConfig");
        let layout = cfg.check_layout();
        if !layout.is_placeable() {
            panic!(
                "SilkRoadConfig is not placeable on the target pipeline:\n{}",
                layout.render()
            );
        }
        // The DIP-select hash: one generic hash unit, shared by every VIP.
        let select_hash = HashFn::new(cfg.seed ^ 0x5e1ec7);
        let conn_table = ConnTable::new(&cfg);
        let transit = TransitTable::new(
            cfg.transit_bytes,
            cfg.transit_hashes,
            cfg.seed,
            cfg.transit_enabled,
        );
        let hasher = KeyHasher::new(
            conn_table.stage_fns(),
            conn_table.match_fn(),
            select_hash,
            transit.hash_fns(),
        );
        SilkRoadSwitch {
            hasher,
            vip_table: VipTable::new(),
            vips: Vec::new(),
            conn_table,
            transit,
            control: ControlPlane::new(cfg.learning, cfg.cpu),
            fallback: FxHashMap::default(),
            meters: FxHashMap::default(),
            install_scratch: Vec::new(),
            stats: SwitchStats::default(),
            cfg,
        }
    }

    /// The state of a registered VIP, found by name through the
    /// ConnTable's VIP interner.
    fn state(&self, vip: Vip) -> Option<&VipState> {
        slot(&self.vips, self.conn_table.vip_id(&vip)?)
    }

    /// [`SilkRoadSwitch::state`], mutably.
    fn state_mut(&mut self, vip: Vip) -> Option<&mut VipState> {
        self.slot_mut(vip)?.as_mut()
    }

    /// The slab slot of a VIP the ConnTable has numbered.
    fn slot_mut(&mut self, vip: Vip) -> Option<&mut Option<VipState>> {
        let id = usize::try_from(self.conn_table.vip_id(&vip)?).ok()?;
        self.vips.get_mut(id)
    }

    /// Record a new fallback pin in the stats (global + per-VIP).
    fn note_fallback_insert(stats: &mut SwitchStats, vip: Vip) {
        stats.fallback_entries += 1;
        *stats.fallback_pins_by_vip.entry(vip).or_insert(0) += 1;
    }

    /// Record a fallback pin going away (close or idle expiry).
    fn note_fallback_remove(stats: &mut SwitchStats, vip: Vip) {
        stats.fallback_entries = stats.fallback_entries.saturating_sub(1);
        if let Some(n) = stats.fallback_pins_by_vip.get_mut(&vip) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                stats.fallback_pins_by_vip.remove(&vip);
            }
        }
    }

    /// Attach a rate-limiting meter to a VIP (§5.2: "SilkRoad associates a
    /// meter (rate-limiter) to a VIP to detect and drop excessive traffic").
    /// Red-marked packets are dropped before any table processing.
    pub fn attach_meter(&mut self, vip: Vip, cfg: MeterConfig) {
        self.meters.insert(vip, Meter::new(cfg));
    }

    /// Detach a VIP's meter.
    pub fn detach_meter(&mut self, vip: Vip) {
        self.meters.remove(&vip);
    }

    /// The configuration.
    pub fn config(&self) -> &SilkRoadConfig {
        &self.cfg
    }

    /// Statistics counters.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// Installed connection count (ConnTable only).
    pub fn conn_count(&self) -> usize {
        self.conn_table.len()
    }

    /// The current update phase of a VIP.
    pub fn update_phase(&self, vip: Vip) -> Option<UpdatePhase> {
        self.state(vip).map(|s| s.update.phase)
    }

    /// The current pool version of a VIP.
    pub fn current_version(&self, vip: Vip) -> Option<PoolVersion> {
        self.state(vip).map(|s| s.manager.current_version())
    }

    /// The live DIPs of a VIP's newest pool. Borrows from the pool table —
    /// no per-call clone, so callers may invoke this per packet.
    pub fn current_dips(&self, vip: Vip) -> Option<&[Dip]> {
        self.state(vip).map(|s| s.manager.current_pool().members())
    }

    /// Version-manager counters of a VIP: (allocations, reuses,
    /// pool_changes, live_versions).
    pub fn version_counters(&self, vip: Vip) -> Option<(u64, u64, u64, usize)> {
        self.state(vip).map(|s| {
            (
                s.manager.allocations,
                s.manager.reuses,
                s.manager.pool_changes,
                s.manager.live_versions(),
            )
        })
    }

    /// Learning-filter queue depth right now (churn-bench telemetry).
    pub fn learn_queue_depth(&self) -> usize {
        self.control.learn_queue_depth()
    }

    /// Learn events lost to learning-filter overflow so far (bounded-state
    /// evidence for the SYN-flood scenario).
    pub fn learn_overflow_drops(&self) -> u64 {
        self.control.learning.overflow_drops()
    }

    /// TransitTable bloom fill ratio (churn-bench telemetry).
    pub fn transit_fill_ratio(&self) -> f64 {
        self.transit.fill_ratio()
    }

    /// TransitTable diagnostics: (recorded, checks, hits, size_bytes).
    pub fn transit_counters(&self) -> (u64, u64, u64, usize) {
        (
            self.transit.recorded,
            self.transit.checks,
            self.transit.hits,
            self.transit.size_bytes(),
        )
    }

    /// Actual SRAM footprint right now. Word layouts come from the same
    /// `crate::memory` specs as the analytic Fig 12/14 model; entry widths
    /// that depend on address size use each VIP's own family, so v4 and v6
    /// VIPs are costed separately.
    pub fn memory(&self) -> MemoryBreakdown {
        use sr_types::AddrFamily;
        let families = [AddrFamily::V4, AddrFamily::V6];
        let mut vips = [0u64; 2];
        let mut members = [0u64; 2];
        let mut rows = 0u64;
        for s in self.vips.iter().flatten() {
            let f = (s.manager.vip().family() == AddrFamily::V6) as usize;
            vips[f] += 1;
            members[f] += s.manager.total_pool_members() as u64;
            rows += s.manager.live_versions() as u64;
        }
        let mut vip_table = 0u64;
        let mut dip_pool_table =
            crate::memory::pool_row_spec(self.cfg.version_bits).bytes_for(rows);
        for (i, family) in families.into_iter().enumerate() {
            vip_table += crate::memory::vip_row_spec(family).bytes_for(vips[i]);
            dip_pool_table += crate::memory::pool_member_spec(family).bytes_for(members[i]);
        }
        MemoryBreakdown {
            conn_table: self.conn_table.occupied_bytes(),
            vip_table,
            dip_pool_table,
            transit: self.transit.size_bytes() as u64,
        }
    }

    /// Register a VIP with its initial DIP pool.
    pub fn add_vip(&mut self, vip: Vip, dips: Vec<Dip>) -> Result<(), TypeError> {
        if self.state(vip).is_some() {
            return Err(TypeError::InvalidState {
                what: "VIP already registered",
            });
        }
        let manager = VersionManager::new(
            vip,
            crate::pool::DipPool::new(dips),
            self.cfg.version_bits,
            true, // the switch always reuses versions (§4.2)
        );
        self.vip_table.insert(vip, manager.current_version());
        // Interned here, so the slab and the records share one id space: a
        // new VIP's id is the next slot, a re-added one gets its old slot.
        let id = usize::try_from(self.conn_table.intern_vip(vip)).expect("VIP id fits usize");
        if self.vips.len() <= id {
            self.vips.resize_with(id + 1, || None);
        }
        self.vips[id] = Some(VipState {
            manager,
            update: UpdateState::new(),
        });
        Ok(())
    }

    /// Deregister a VIP, dropping all its installed state: its VIPTable
    /// row and versions, its ConnTable entries, its fallback pins and its
    /// meter. Connections to it become non-VIP traffic, and a later
    /// [`SilkRoadSwitch::add_vip`] starts from scratch — no stale entry can
    /// release a reference on the new incarnation's versions. Out of scope:
    /// learns still in flight at removal are not cancelled, so one the CPU
    /// completes after the VIP is registered again installs against the
    /// new incarnation.
    pub fn remove_vip(&mut self, vip: Vip) -> Result<(), TypeError> {
        self.slot_mut(vip)
            .and_then(Option::take)
            .ok_or(TypeError::NotFound { what: "VIP" })?;
        self.vip_table.remove(vip);
        self.meters.remove(&vip);
        self.conn_table.evict(vip, None);
        let stats = &mut self.stats;
        self.fallback.retain(|_, e| {
            let keep = e.vip != vip;
            if !keep {
                Self::note_fallback_remove(stats, vip);
            }
            keep
        });
        Ok(())
    }

    /// Earliest instant at which [`SilkRoadSwitch::advance`] has work to do.
    pub fn next_wakeup(&self) -> Option<Nanos> {
        self.control.next_wakeup()
    }

    /// Run the control plane up to `now` (inclusive), in event order.
    /// Learn batches and CPU completions drain through recycled buffers —
    /// at steady state a wakeup allocates nothing.
    ///
    /// Each wakeup pops every CPU completion due before the next
    /// learning-filter notification in one pass and prefetches the next
    /// install's ConnTable buckets while the current one runs. Batching the
    /// pops observes the same state as waking per event: a filter drain
    /// only moves events into the CPU queue (completion times are fixed at
    /// submit), and an install touches neither the filter nor its deadline.
    pub fn advance(&mut self, now: Nanos) {
        let mut jobs = std::mem::take(&mut self.install_scratch);
        while let Some(t) = self.control.next_wakeup() {
            if t > now {
                break;
            }
            self.control.drain_learning(t);
            let bound = match self.control.learning_deadline() {
                Some(d) if d <= now => d,
                _ => now,
            };
            jobs.clear();
            self.control.pop_installs_into(bound, &mut jobs);
            // When this batch drained the pipeline dry (the common wave
            // shape: every learned connection's install is due), the
            // popped jobs are exactly the in-flight membership — settle
            // the set with one bulk clear after the loop instead of a
            // hashed removal per job. The per-VIP outstanding counters
            // still step per install: an update transition firing
            // mid-batch snapshots them.
            let bulk = !jobs.is_empty() && self.control.drained_pipeline_empty();
            for i in 0..jobs.len() {
                if let Some(next) = jobs.get(i + 1) {
                    let h = &next.job.meta.hashes;
                    self.conn_table
                        .prefetch_entry(h.stage_hashes(), h.match_hash());
                }
                self.handle_install(jobs[i], bulk);
            }
            if bulk {
                self.control.clear_in_flight();
            }
        }
        jobs.clear();
        self.install_scratch = jobs;
    }

    // srlint: hot-path begin
    /// Process one packet at `now`: a batch of one through the same chunk
    /// pipeline as [`SilkRoadSwitch::process_batch_into`].
    pub fn process_packet(&mut self, pkt: &PacketMeta, now: Nanos) -> ForwardDecision {
        self.advance(now);
        let [d] = self.process_chunk::<1>(std::slice::from_ref(pkt), now);
        d
    }

    /// Process a batch of packets sharing one timestamp. The control plane
    /// advances once for the whole batch instead of per packet — the
    /// line-rate entry point for the simulator and benchmarks.
    pub fn process_batch(&mut self, pkts: &[PacketMeta], now: Nanos) -> Vec<ForwardDecision> {
        let mut out = Vec::with_capacity(pkts.len());
        self.process_batch_into(pkts, now, &mut out);
        out
    }

    /// [`SilkRoadSwitch::process_batch`] appending into a caller-owned
    /// buffer, so a driver can recycle one allocation across batches.
    ///
    /// Packets run in chunks of up to `SETUP_CHUNK` (the last one may be
    /// partial), each in four passes: hash every key, warming its
    /// match-field plane lines; the lane pass, which finds every packet's
    /// first plane-lane hit from those planes alone; the record pass, a
    /// short loop that reads each candidate's record and confirms its
    /// stored field, so the chunk's record misses are in flight together;
    /// then the real pipeline, resolving the located slots. The first
    /// three passes have no side effects; the fourth resolves hits in
    /// place and sends the chunk's ConnTable misses through the one setup
    /// stage (`setup_deferred`).
    /// This is the only way a packet crosses the switch —
    /// [`SilkRoadSwitch::process_packet`] is a chunk of one — and chunk
    /// length never changes a decision, only how much work overlaps.
    pub fn process_batch_into(
        &mut self,
        pkts: &[PacketMeta],
        now: Nanos,
        out: &mut Vec<ForwardDecision>,
    ) {
        self.advance(now);
        out.reserve(pkts.len());
        for chunk in pkts.chunks(SETUP_CHUNK) {
            let decisions = self.process_chunk::<SETUP_CHUNK>(chunk, now);
            out.extend(decisions.into_iter().take(chunk.len()));
        }
    }

    /// One chunk of 1..=`N` packets; decision `i` is packet `i`'s, and
    /// slots past the chunk are never hashed, probed or set. Every scratch
    /// array is sized by `N` — `SETUP_CHUNK` for batches, 1 for
    /// [`SilkRoadSwitch::process_packet`] — so a batch of one sets up one
    /// slot, not sixteen.
    ///
    /// The lane and record passes locate each packet's ConnTable slot: a
    /// lane hit whose record holds a different field (a lane alias) falls
    /// back to the full scan, so every located slot is the one
    /// [`ConnTable::lookup`] finds. Admission, the located ConnTable probe
    /// and the fallback probe then run in packet order with hits resolved
    /// immediately; VIPTable misses are deferred into
    /// [`SilkRoadSwitch::setup_deferred`]. Deferral is order-safe because
    /// hits touch none of the state the miss path writes (transit bloom,
    /// learning filter, pending set) and misses touch no ConnTable state.
    /// The one packet that mutates the table mid-chunk — a SYN falsely
    /// hitting a resident, whose §4.2 repair relocates it — is deferred as
    /// a software-redirected miss, and the rest of the chunk re-enters the
    /// lane pass with its hashes kept: the relocation may have moved a
    /// slot located before it.
    fn process_chunk<const N: usize>(
        &mut self,
        chunk: &[PacketMeta],
        now: Nanos,
    ) -> [ForwardDecision; N] {
        let mut out = [ForwardDecision::not_vip(); N];
        // Pass 1: hash every key in the chunk, warming each key's
        // match-field words as its hashes land so the lane pass probes
        // already-inbound cache lines.
        let mut hashed: [Option<HashedKey>; N] = [None; N];
        for (slot, pkt) in hashed.iter_mut().zip(chunk) {
            let h = self.hasher.hash_tuple(&pkt.tuple);
            self.conn_table.prefetch_words(h.conn_stage_hashes());
            *slot = Some(h);
        }
        // Misses awaiting the setup stage: packet index, admitted view,
        // and whether a §4.2 repair redirected the packet to software.
        let mut deferred = [(0usize, VersionView::Stable(PoolVersion(0)), false); N];
        let mut n_def = 0usize;
        let mut resume = Some(0usize);
        while let Some(from) = resume.take() {
            // Pass 2, the lane pass: every remaining packet's first
            // match-field lane hit, from the planes pass 1 warmed.
            let mut located: [Option<(u32, u32)>; N] = [None; N];
            for (loc, h) in located.iter_mut().zip(hashed.iter().flatten()).skip(from) {
                *loc = self
                    .conn_table
                    .locate_lane(h.conn_stage_hashes(), h.conn_match_hash());
            }
            // Pass 3, the record pass: confirm each candidate on its
            // record's stored digest. The reads are independent and the
            // loop is short, so the chunk's record misses are in flight
            // together; a lane alias finishes with the full scan.
            for (loc, h) in located.iter_mut().zip(hashed.iter().flatten()).skip(from) {
                if let Some(lane) = *loc {
                    *loc = self.conn_table.locate_record(
                        lane,
                        h.key().as_slice(),
                        h.conn_stage_hashes(),
                        h.conn_match_hash(),
                    );
                }
            }
            // Pass 4: hits resolve in place, misses defer into the setup
            // stage.
            let rest = chunk.iter().zip(hashed.iter().flatten()).zip(located);
            for (i, (((pkt, h), loc), d)) in rest.zip(out.iter_mut()).enumerate().skip(from) {
                let view = match self.admit(pkt, now) {
                    Ok(view) => view,
                    Err(early) => {
                        *d = early;
                        continue;
                    }
                };
                let repaired = if let Some((stage, slot)) = loc {
                    let (value, vip_id, exact, resident) =
                        self.conn_table
                            .lookup_marking_at(stage, slot, h.key().as_slice());
                    self.stats.conn_table_hits += 1;
                    if !exact {
                        self.stats.digest_false_hits += 1;
                    }
                    if exact || !pkt.flags.is_syn() {
                        let dip = self.resolve_value(h.select_hash(), vip_id, &value);
                        *d = ForwardDecision {
                            dip: Some(dip),
                            path: DataPath::AsicConnTable,
                            version: Some(value.version),
                            conn_table_hit: true,
                            false_hit: !exact,
                        };
                        continue;
                    }
                    // A SYN falsely hitting a resident entry: software
                    // repair (§4.2) moves the resident, and the SYN sets
                    // up like any miss.
                    self.stats.syn_repairs += 1;
                    if let Some(resident) = resident {
                        self.relocate_resident(&resident);
                    }
                    true
                } else if let Some(hit) = self.fallback_hit(h) {
                    *d = hit;
                    continue;
                } else {
                    false
                };
                // A VIPTable miss: the setup stage decides it.
                if let Some(slot) = deferred.get_mut(n_def) {
                    *slot = (i, view, repaired);
                    n_def += 1;
                }
                if repaired {
                    resume = Some(i + 1);
                    break;
                }
            }
        }
        let deferred = deferred.get(..n_def).unwrap_or_default();
        self.setup_deferred::<N>(chunk, &hashed, deferred, now, &mut out);
        out
    }

    /// The pre-hash front of the pipeline: VIP-table admission and per-VIP
    /// policing. `Err` carries the early decision for non-VIP or red-marked
    /// packets.
    #[inline]
    fn admit(&mut self, pkt: &PacketMeta, now: Nanos) -> Result<VersionView, ForwardDecision> {
        self.stats.packets += 1;
        let dst = pkt.tuple.dst;
        let Some(view) = self.vip_table.lookup(&dst) else {
            return Err(ForwardDecision::not_vip());
        };
        // Per-VIP policing happens at the front of the pipeline. The
        // emptiness check keeps unpoliced deployments from paying a map
        // probe per packet.
        if self.meters.is_empty() {
            return Ok(view);
        }
        if let Some(meter) = self.meters.get_mut(&Vip(dst)) {
            if meter.mark(now, pkt.len) == MeterColor::Red {
                self.stats.metered_drops += 1;
                return Err(ForwardDecision::dropped());
            }
        }
        Ok(view)
    }

    /// §4.2 software repair: move a resident entry that a new connection
    /// false-hits to another stage. The relocation runs the table's own
    /// shadowing repair, so its failure count is re-read here.
    fn relocate_resident(&mut self, resident: &TupleKey) {
        if self.conn_table.relocate(resident.as_slice()).is_ok() {
            self.stats.relocations += 1;
        }
        self.stats.shadow_repair_failed = self.conn_table.shadow_repair_failed();
    }

    /// Step 2 of the pipeline: the fallback-table probe (overflow /
    /// version-exhaustion connections). Hits set the entry's hit bit, same
    /// as ConnTable: fallback pins age out through `expire_idle` when
    /// their connection goes quiet.
    #[inline]
    fn fallback_hit(&mut self, hashed: &HashedKey) -> Option<ForwardDecision> {
        let entry = self.fallback.get_mut(hashed.key().as_slice())?;
        entry.hit = true;
        self.stats.conn_table_hits += 1;
        Some(ForwardDecision {
            dip: Some(entry.dip),
            path: DataPath::AsicConnTable,
            version: None,
            conn_table_hit: true,
            false_hit: false,
        })
    }

    /// Resolve a ConnTable hit to a DIP. `select_hash` is the precomputed
    /// DIP-select hash of the packet's key, `vip_id` the hit record's VIP
    /// id. This is the ASIC's two indexed reads: the VIP's slab slot, then
    /// its pool row at the version number — no hash probe, no copy.
    #[inline]
    fn resolve_value(&self, select_hash: u64, vip_id: u32, value: &ConnValue) -> Dip {
        slot(&self.vips, vip_id)
            .and_then(|s| s.manager.pool(value.version))
            .and_then(|p| p.select_hashed(select_hash))
            // The pool should outlive its connections (refcounts), and an
            // empty pool selects nothing: either way the learn-time DIP is
            // the defensive fallback.
            .unwrap_or(value.dip)
    }

    /// The connection-setup stage: a chunk's deferred VIPTable misses, in
    /// packet order. Each miss runs its step-1 record or step-2 check (the
    /// only consumers of the TransitTable bloom hashes, so only they pay
    /// for them), DIP selection and the learn gate, in that order. A run of
    /// misses sharing one `(vip, version)` —
    /// every miss of a steady-state wave — resolves the VIP state and pool
    /// once, and the learn gate dedups repeated keys within the chunk
    /// before probing the control plane. Each decision lands in the slot
    /// pass 3 reserved for its packet.
    fn setup_deferred<const N: usize>(
        &mut self,
        chunk: &[PacketMeta],
        hashed: &[Option<HashedKey>],
        deferred: &[(usize, VersionView, bool)],
        now: Nanos,
        out: &mut [ForwardDecision],
    ) {
        // Packet indices of this chunk's misses whose key is now pending in
        // the setup pipeline: later duplicates skip the control-plane gate
        // (the key cannot leave the pipeline mid-chunk; installs only
        // happen in `advance`). Each slot carries the key's select hash so
        // the dedup scan compares one word per candidate and touches full
        // keys only on a hash match — a chunk of distinct keys (the common
        // case) pays a few integer compares instead of byte-wise key
        // comparisons.
        let mut pending = [(0usize, 0u64); N];
        let mut n_pending = 0usize;
        // The `(vip, version)` the previous miss resolved, with its VIP
        // state and pool.
        let mut shared: Option<(Vip, PoolVersion, Option<&VipState>, Option<&DipPool>)> = None;
        for &(i, view, repaired) in deferred {
            let (Some(pkt), Some(Some(h)), Some(d)) = (chunk.get(i), hashed.get(i), out.get_mut(i))
            else {
                continue;
            };
            self.stats.vip_table_misses += 1;
            let vip = Vip(pkt.tuple.dst);
            let key = h.key();
            let dup_pending = pending.iter().take(n_pending).any(|&(j, ph)| {
                ph == h.select_hash() && matches!(hashed.get(j), Some(Some(p)) if p.key() == key)
            });
            let mut software = false;
            let version = match view {
                VersionView::Stable(v) => v,
                VersionView::Updating { old, new } => {
                    let bloom = self.hasher.bloom_hashes(key);
                    if !self.transit.check_hashed(bloom.as_slice()) {
                        new
                    } else if pkt.flags.is_syn() {
                        // A SYN matching TransitTable in step 2 is
                        // redirected to software (§4.3): software
                        // distinguishes a real pending connection (old
                        // version) from a bloom false positive (new).
                        self.stats.transit_syn_redirects += 1;
                        software = true;
                        if dup_pending || self.control.is_pending(key.as_slice()) {
                            old
                        } else {
                            new
                        }
                    } else {
                        old
                    }
                }
            };
            let (state, pool) = match shared {
                Some((v, ver, state, pool)) if v == vip && ver == version => (state, pool),
                _ => {
                    let state = self
                        .conn_table
                        .vip_id(&vip)
                        .and_then(|id| slot(&self.vips, id));
                    let pool = state.and_then(|s| s.manager.pool(version));
                    shared = Some((vip, version, state, pool));
                    (state, pool)
                }
            };
            // Step 1 of an in-flight update: remember this connection.
            let recording = state.is_some_and(|s| s.update.phase == UpdatePhase::Recording);
            if recording && matches!(view, VersionView::Stable(_)) {
                let bloom = self.hasher.bloom_hashes(key);
                self.transit.record_hashed(bloom.as_slice());
            }
            *d = match pool.and_then(|p| p.select_hashed(h.select_hash())) {
                None => ForwardDecision::dropped(),
                Some(dip) => {
                    // Learn the connection. The learn event carries the
                    // packet-time ConnTable hashes so the eventual install
                    // replays them instead of re-hashing.
                    let pending_after = dup_pending
                        || match self.control.learn_gate(
                            key.as_slice(),
                            LearnMeta {
                                vip,
                                version,
                                dip,
                                hashes: h.conn_hashes(),
                            },
                            now,
                        ) {
                            LearnOutcome::Entered => {
                                self.stats.learns += 1;
                                true
                            }
                            LearnOutcome::AlreadyPending => true,
                            LearnOutcome::Overflow => false,
                        };
                    if pending_after {
                        if let Some(slot) = pending.get_mut(n_pending) {
                            *slot = (i, h.select_hash());
                            n_pending += 1;
                        }
                    }
                    ForwardDecision {
                        dip: Some(dip),
                        path: if software {
                            DataPath::SoftwareRedirect
                        } else {
                            DataPath::AsicVipTable
                        },
                        version: Some(version),
                        conn_table_hit: false,
                        false_hit: false,
                    }
                }
            };
            if repaired {
                d.path = DataPath::SoftwareRedirect;
            }
        }
    }
    // srlint: hot-path end

    /// The connection identified by `tuple` closed (FIN/RST observed or the
    /// flow ended). Frees its ConnTable entry and version reference.
    pub fn close_connection(&mut self, tuple: &FiveTuple, now: Nanos) {
        self.advance(now);
        self.stats.closes += 1;
        let key = tuple.tuple_key();
        match self.conn_table.remove(key.as_slice()) {
            Ok(value) => {
                if let Some(state) = self.state_mut(value.vip) {
                    state.manager.conn_removed(value.version);
                }
            }
            Err(_) => {
                if let Some(fb) = self.fallback.remove(key.as_slice()) {
                    Self::note_fallback_remove(&mut self.stats, fb.vip);
                } else {
                    // Still pending: skip its install when it completes.
                    self.control.note_close(key.as_slice());
                }
            }
        }
    }

    /// Request a DIP-pool update. Queued behind any in-flight update for the
    /// same VIP.
    pub fn request_update(
        &mut self,
        vip: Vip,
        op: PoolUpdate,
        now: Nanos,
    ) -> Result<(), TypeError> {
        self.advance(now);
        self.stats.updates_requested += 1;
        let state = self
            .state_mut(vip)
            .ok_or(TypeError::NotFound { what: "VIP" })?;
        if !state.update.is_idle() {
            state.update.queue.push_back(op);
            self.stats.updates_queued += 1;
            return Ok(());
        }
        self.start_update(vip, op, now);
        Ok(())
    }

    fn start_update(&mut self, vip: Vip, op: PoolUpdate, now: Nanos) {
        let prepared = {
            let state = self.state_mut(vip).expect("caller checked");
            match state.manager.prepare(op) {
                Ok(Some(p)) => Some(p),
                Ok(None) => None,
                Err(_) => {
                    // Version-ring exhaustion: migrate the least-referenced
                    // version's connections to the fallback table and retry.
                    self.handle_exhaustion(vip);
                    let state = self.state_mut(vip).expect("still there");
                    match state.manager.prepare(op) {
                        Ok(p) => p,
                        Err(_) => {
                            // Still exhausted (everything pinned): drop the
                            // update. Counted; the operator would retry.
                            return;
                        }
                    }
                }
            }
        };
        let Some(prepared) = prepared else {
            self.stats.updates_noop += 1;
            return;
        };

        let pending = self.control.outstanding(vip);
        let state = self.state_mut(vip).expect("caller checked");
        let old = state.manager.current_version();
        state.manager.retain(old);
        state.manager.retain(prepared.new_version);
        state.update.begin(ActiveUpdate {
            op,
            requested_at: now,
            executed_at: None,
            old_version: old,
            new_version: prepared.new_version,
            reused: prepared.reused,
            pending_before_req: pending,
            pending_recorded: 0,
        });
        if self.transit.enabled() {
            self.transit.acquire();
            if pending == 0 {
                // Step 1 is empty: flip immediately.
                self.execute_update(vip, now);
            }
        } else {
            // Ablation (`SilkRoad without TransitTable`): no step 1 — the
            // update executes at request time, pending connections be
            // damned. This is Fig 16/17's middle line.
            self.execute_update(vip, now);
        }
    }

    fn execute_update(&mut self, vip: Vip, t_exec: Nanos) {
        let outstanding = self.control.outstanding(vip);
        let (old, new, done) = {
            let state = self.state_mut(vip).expect("active update");
            let active = *state.update.active.as_ref().expect("active update");
            let done = state.update.execute(t_exec, outstanding);
            state.manager.commit(active.new_version);
            (active.old_version, active.new_version, done)
        };
        self.vip_table.begin_transition(vip, old, new);
        if done {
            self.finish_update(vip, t_exec);
        }
    }

    fn finish_update(&mut self, vip: Vip, t_finish: Nanos) {
        let next = {
            let state = self.state_mut(vip).expect("active update");
            let (done, next) = state.update.finish();
            state.manager.release(done.old_version);
            state.manager.release(done.new_version);
            next
        };
        self.vip_table.finish_transition(vip);
        if self.transit.enabled() {
            self.transit.release();
        }
        self.stats.updates_completed += 1;
        if let Some(op) = next {
            self.start_update(vip, op, t_finish);
        }
    }

    /// Run an idle-aging scan (clock algorithm over per-entry hit bits):
    /// every entry installed before the previous scan and not hit since is
    /// expired, releasing its version reference. Operators schedule this on
    /// the order of `config.idle_timeout`; the simulator closes connections
    /// explicitly instead (it only materialises a sample of each flow's
    /// packets, so hit bits would be incomplete).
    pub fn expire_idle(&mut self, now: Nanos) -> usize {
        let cutoff = self.conn_table.last_scan();
        let expired = self.conn_table.aging_scan(now);
        let mut n = expired.len();
        for (_, value) in expired {
            if let Some(state) = self.state_mut(value.vip) {
                state.manager.conn_removed(value.version);
            }
        }
        // Fallback pins age on the same clock: entries that arrived before
        // the previous scan and were not hit since are expired.
        let fallback = &mut self.fallback;
        let stats = &mut self.stats;
        let before = fallback.len();
        fallback.retain(|_, e| {
            let keep = e.arrived >= cutoff || e.hit;
            e.hit = false;
            if !keep {
                Self::note_fallback_remove(stats, e.vip);
            }
            keep
        });
        n += before - fallback.len();
        self.stats.idle_expired += n as u64;
        n
    }

    /// Apply one multi-pipe engine control op. Returns the connections an
    /// idle-expiry op expired (0 for every other op).
    pub(crate) fn apply(&mut self, op: &ControlOp) -> Result<usize, TypeError> {
        match op {
            ControlOp::AddVip { vip, dips } => self.add_vip(*vip, dips.clone()).map(|()| 0),
            ControlOp::RemoveVip { vip } => self.remove_vip(*vip).map(|()| 0),
            ControlOp::RequestUpdate { vip, op, now } => {
                self.request_update(*vip, *op, *now).map(|()| 0)
            }
            ControlOp::AttachMeter { vip, cfg } => {
                self.attach_meter(*vip, *cfg);
                Ok(0)
            }
            ControlOp::DetachMeter { vip } => {
                self.detach_meter(*vip);
                Ok(0)
            }
            ControlOp::Advance { now } => {
                self.advance(*now);
                Ok(0)
            }
            ControlOp::ExpireIdle { now } => Ok(self.expire_idle(*now)),
            ControlOp::CloseConn { tuple, now } => {
                self.close_connection(tuple, *now);
                Ok(0)
            }
        }
    }

    /// Version-ring exhaustion (§4.2 footnote): move the connections of the
    /// least-referenced non-current version into the fallback table so the
    /// version can be destroyed and its number recycled.
    fn handle_exhaustion(&mut self, vip: Vip) {
        self.stats.version_exhaustions += 1;
        let victim = {
            let state = self.state(vip).expect("caller checked");
            state.manager.victim_version()
        };
        let Some(victim) = victim else { return };
        let evicted = self.conn_table.evict(vip, Some(victim));
        let state = self.state_mut(vip).expect("caller checked");
        for _ in &evicted {
            state.manager.conn_removed(victim);
        }
        for (key, value) in evicted {
            self.fallback.insert(
                key,
                FallbackConn {
                    vip,
                    dip: value.dip,
                    arrived: value.arrived,
                    hit: false,
                },
            );
            Self::note_fallback_insert(&mut self.stats, vip);
            self.stats.exhaustion_migrations += 1;
        }
    }

    /// Apply one completed install. `bulk` means the caller is draining a
    /// batch that emptied the pipeline and will settle the in-flight set
    /// with one bulk clear afterwards, so only the per-VIP outstanding
    /// counter is stepped here.
    fn handle_install(&mut self, inst: CompletedInstall, bulk: bool) {
        let CompletedInstall { job, completed_at } = inst;
        let vip = job.meta.vip;
        let key = job.key;
        if bulk {
            self.control.mark_terminal_popped(vip);
        } else {
            self.control.mark_terminal(key.as_slice(), vip);
        }

        if self.control.has_closed_early() && self.control.take_closed_early(key.as_slice()) {
            self.stats.installs_skipped_closed += 1;
        } else if self.state(vip).is_some() {
            // Every learn event raised inside a switch carries the
            // packet-time hash pass (`HashedKey::conn_hashes`), so the
            // CPU never re-hashes the key.
            let hashes = job.meta.hashes;
            debug_assert_eq!(hashes.stages(), self.cfg.conn_stages);
            let (stage_hashes, match_hash) = (hashes.stage_hashes(), hashes.match_hash());
            // Install-time collision pre-check: if another resident already
            // aliases this digest+bucket, relocate it first so the new
            // entry's packets do not shadow-match (§4.2).
            let probe = self
                .conn_table
                .lookup_pre(key.as_slice(), stage_hashes, match_hash);
            let vacant = probe.is_none();
            let resident = probe.and_then(|(_, _, resident)| resident);
            if let Some(resident) = resident {
                self.relocate_resident(&resident);
            }
            let value = ConnValue {
                vip,
                version: job.meta.version,
                dip: job.meta.dip,
                arrived: job.arrived,
            };
            let installed = if vacant {
                // The pre-check above just probed these hashes and missed,
                // and nothing has touched the table since: the insert can
                // skip its duplicate scan and, for alias-free free-slot
                // landings, the shadowing re-probe.
                self.conn_table
                    .install_vacant_pre(key.as_slice(), stage_hashes, match_hash, value)
            } else {
                self.conn_table
                    .install_pre(key.as_slice(), stage_hashes, match_hash, value)
            };
            self.stats.shadow_repair_failed = self.conn_table.shadow_repair_failed();
            match installed {
                Ok(_) => {
                    self.stats.installs += 1;
                    if let Some(state) = self.state_mut(vip) {
                        state.manager.conn_installed(job.meta.version);
                    }
                }
                Err(CuckooError::Full) => {
                    self.fallback.insert(
                        key,
                        FallbackConn {
                            vip,
                            dip: job.meta.dip,
                            arrived: job.arrived,
                            hit: false,
                        },
                    );
                    self.stats.conn_table_overflows += 1;
                    Self::note_fallback_insert(&mut self.stats, vip);
                }
                Err(_) => {}
            }
        }

        // Drive the 3-step update machine.
        let transition = self
            .state_mut(vip)
            .map(|s| s.update.on_install())
            .unwrap_or(Transition::None);
        match transition {
            Transition::Execute => self.execute_update(vip, completed_at),
            Transition::Finish => self.finish_update(vip, completed_at),
            Transition::None => {}
        }
    }
}

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

    fn conn(p: u16) -> FiveTuple {
        FiveTuple::tcp(Addr::v4(1, 2, 3, 4, p), Addr::v4(20, 0, 0, 1, 80))
    }

    fn switch() -> SilkRoadSwitch {
        let mut sw = SilkRoadSwitch::new(SilkRoadConfig::small_test());
        sw.add_vip(vip(), vec![dip(1), dip(2), dip(3), dip(4)])
            .unwrap();
        sw
    }

    /// Drive the control plane until quiescent.
    fn settle(sw: &mut SilkRoadSwitch, upto_ms: u64) -> Nanos {
        let t = Nanos::from_millis(upto_ms);
        sw.advance(t);
        t
    }

    #[test]
    fn non_vip_traffic_passes_through() {
        let mut sw = switch();
        let other = FiveTuple::tcp(Addr::v4(1, 1, 1, 1, 1), Addr::v4(9, 9, 9, 9, 443));
        let d = sw.process_packet(&PacketMeta::syn(other), Nanos::ZERO);
        assert_eq!(d.path, DataPath::NotVip);
    }

    #[test]
    fn first_packet_selects_and_learns() {
        let mut sw = switch();
        let d = sw.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        assert_eq!(d.path, DataPath::AsicVipTable);
        assert!(d.dip.is_some());
        assert!(!d.conn_table_hit);
        assert_eq!(sw.stats().learns, 1);
        // After the learning timeout + CPU time the entry is installed.
        settle(&mut sw, 10);
        assert_eq!(sw.conn_count(), 1);
        let d2 = sw.process_packet(&PacketMeta::data(conn(1), 1460), Nanos::from_millis(10));
        assert!(d2.conn_table_hit);
        assert_eq!(d2.dip, d.dip);
    }

    #[test]
    fn duplicate_vip_rejected() {
        let mut sw = switch();
        assert!(sw.add_vip(vip(), vec![dip(1)]).is_err());
        assert!(sw.remove_vip(vip()).is_ok());
        assert!(sw.remove_vip(vip()).is_err());
    }

    #[test]
    fn remove_vip_drops_fallback_pins_and_meter() {
        let mut sw = switch();
        let other = Vip(Addr::v4(20, 0, 0, 2, 80));
        sw.add_vip(other, vec![dip(9)]).unwrap();
        for (p, owner) in [(1u16, vip()), (2, other)] {
            sw.fallback.insert(
                conn(p).tuple_key(),
                FallbackConn {
                    vip: owner,
                    dip: dip(3),
                    arrived: Nanos::ZERO,
                    hit: false,
                },
            );
            SilkRoadSwitch::note_fallback_insert(&mut sw.stats, owner);
        }
        sw.attach_meter(
            vip(),
            MeterConfig {
                cir_bps: 125_000,
                cbs: 3_000,
                eir_bps: 0,
                ebs: 0,
            },
        );
        sw.remove_vip(vip()).unwrap();
        assert!(!sw.meters.contains_key(&vip()));
        assert_eq!(sw.fallback.len(), 1, "the other VIP's pin must stay");
        assert_eq!(sw.stats().fallback_entries, 1);
        assert_eq!(sw.stats().fallback_pins(vip()), 0);
        assert_eq!(sw.stats().fallback_pins(other), 1);
    }

    #[test]
    fn update_unknown_vip_rejected() {
        let mut sw = switch();
        let unknown = Vip(Addr::v4(99, 0, 0, 1, 80));
        assert!(sw
            .request_update(unknown, PoolUpdate::Add(dip(9)), Nanos::ZERO)
            .is_err());
    }

    #[test]
    fn installed_connection_survives_update() {
        let mut sw = switch();
        let d1 = sw.process_packet(&PacketMeta::syn(conn(7)), Nanos::ZERO);
        settle(&mut sw, 10);
        // Update: remove a different DIP (forces a new pool).
        let victim = sw
            .current_dips(vip())
            .unwrap()
            .iter()
            .copied()
            .find(|d| Some(*d) != d1.dip)
            .unwrap();
        sw.request_update(vip(), PoolUpdate::Remove(victim), Nanos::from_millis(10))
            .unwrap();
        settle(&mut sw, 30);
        assert_eq!(sw.update_phase(vip()), Some(UpdatePhase::Idle));
        let d2 = sw.process_packet(&PacketMeta::data(conn(7), 100), Nanos::from_millis(30));
        assert_eq!(d2.dip, d1.dip, "installed connection remapped by update");
    }

    #[test]
    fn pending_connection_protected_by_transit_table() {
        let mut sw = switch();
        // Packet at t=0; entry not installed before ~1ms (filter timeout).
        let d1 = sw.process_packet(&PacketMeta::syn(conn(42)), Nanos::ZERO);
        // Update requested immediately after: the connection is pending.
        sw.request_update(vip(), PoolUpdate::Remove(dip(1)), Nanos::from_micros(10))
            .unwrap();
        // While pending and mid-update, a data packet must still go to d1.
        let d2 = sw.process_packet(&PacketMeta::data(conn(42), 100), Nanos::from_micros(20));
        assert_eq!(d2.dip, d1.dip, "pending connection broke PCC");
        // After everything settles, still d1.
        settle(&mut sw, 50);
        let d3 = sw.process_packet(&PacketMeta::data(conn(42), 100), Nanos::from_millis(50));
        assert_eq!(d3.dip, d1.dip);
        assert_eq!(sw.update_phase(vip()), Some(UpdatePhase::Idle));
    }

    #[test]
    fn without_transit_table_update_is_immediate() {
        let mut cfg = SilkRoadConfig::small_test();
        cfg.transit_enabled = false;
        let mut sw = SilkRoadSwitch::new(cfg);
        sw.add_vip(vip(), vec![dip(1), dip(2)]).unwrap();
        sw.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        sw.request_update(vip(), PoolUpdate::Remove(dip(1)), Nanos::from_micros(5))
            .unwrap();
        // The flip happened at request time even though a connection is
        // pending: the VIP is already Draining (or Idle if drained).
        assert_ne!(sw.update_phase(vip()), Some(UpdatePhase::Recording));
    }

    #[test]
    fn new_connections_use_new_pool_after_update() {
        let mut sw = switch();
        sw.request_update(vip(), PoolUpdate::Remove(dip(2)), Nanos::ZERO)
            .unwrap();
        settle(&mut sw, 10);
        for p in 0..200 {
            let d = sw.process_packet(&PacketMeta::syn(conn(p)), Nanos::from_millis(10));
            assert_ne!(d.dip, Some(dip(2)), "new connection sent to removed DIP");
        }
    }

    #[test]
    fn updates_queue_behind_active_one() {
        let mut sw = switch();
        // Make a connection pending so the first update sits in step 1.
        sw.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        sw.request_update(vip(), PoolUpdate::Remove(dip(1)), Nanos::from_micros(1))
            .unwrap();
        sw.request_update(vip(), PoolUpdate::Remove(dip(2)), Nanos::from_micros(2))
            .unwrap();
        assert_eq!(sw.stats().updates_queued, 1);
        settle(&mut sw, 50);
        assert_eq!(sw.stats().updates_completed, 2);
        let dips = sw.current_dips(vip()).unwrap();
        assert!(!dips.contains(&dip(1)) && !dips.contains(&dip(2)));
    }

    #[test]
    fn close_frees_entry_and_version() {
        let mut sw = switch();
        sw.process_packet(&PacketMeta::syn(conn(5)), Nanos::ZERO);
        settle(&mut sw, 10);
        assert_eq!(sw.conn_count(), 1);
        sw.close_connection(&conn(5), Nanos::from_millis(10));
        assert_eq!(sw.conn_count(), 0);
        assert_eq!(sw.stats().closes, 1);
    }

    #[test]
    fn close_while_pending_skips_install() {
        let mut sw = switch();
        sw.process_packet(&PacketMeta::syn(conn(5)), Nanos::ZERO);
        sw.close_connection(&conn(5), Nanos::from_micros(10));
        settle(&mut sw, 10);
        assert_eq!(sw.conn_count(), 0);
        assert_eq!(sw.stats().installs_skipped_closed, 1);
    }

    #[test]
    fn noop_update_counted() {
        let mut sw = switch();
        sw.request_update(vip(), PoolUpdate::Remove(dip(99)), Nanos::ZERO)
            .unwrap();
        assert_eq!(sw.stats().updates_noop, 1);
        assert_eq!(sw.update_phase(vip()), Some(UpdatePhase::Idle));
    }

    #[test]
    fn memory_reflects_connections() {
        let mut sw = switch();
        let m0 = sw.memory();
        for p in 0..100 {
            sw.process_packet(&PacketMeta::syn(conn(p)), Nanos::ZERO);
        }
        settle(&mut sw, 20);
        let m1 = sw.memory();
        assert!(m1.conn_table > m0.conn_table);
        assert_eq!(m1.transit, 256);
    }

    #[test]
    fn fallback_entries_age_on_clock_scan() {
        let mut sw = switch();
        // Pin two connections directly into the fallback table (the paths
        // that populate it — ConnTable overflow and version exhaustion —
        // are exercised by their own tests).
        for p in [1u16, 2] {
            sw.fallback.insert(
                conn(p).tuple_key(),
                FallbackConn {
                    vip: vip(),
                    dip: dip(3),
                    arrived: Nanos::ZERO,
                    hit: false,
                },
            );
            SilkRoadSwitch::note_fallback_insert(&mut sw.stats, vip());
        }
        // First scan only starts the clock: both entries arrived in the
        // current epoch and are kept.
        assert_eq!(sw.expire_idle(Nanos::from_millis(100)), 0);
        assert_eq!(sw.stats().fallback_entries, 2);
        assert_eq!(sw.stats().fallback_pins(vip()), 2);
        // Traffic on conn(1) resolves through the fallback pin and marks it.
        let d = sw.process_packet(&PacketMeta::data(conn(1), 100), Nanos::from_millis(150));
        assert_eq!(d.dip, Some(dip(3)));
        assert!(d.conn_table_hit);
        // Second scan: the quiet pin expires, the busy one survives.
        assert_eq!(sw.expire_idle(Nanos::from_millis(200)), 1);
        assert_eq!(sw.stats().fallback_entries, 1);
        assert_eq!(sw.stats().fallback_pins(vip()), 1);
        assert!(sw.fallback.contains_key(conn(1).key_bytes().as_slice()));
        // Third scan with no traffic in between: the survivor goes too.
        assert_eq!(sw.expire_idle(Nanos::from_millis(300)), 1);
        assert_eq!(sw.stats().fallback_entries, 0);
        assert_eq!(sw.stats().fallback_pins(vip()), 0);
        assert!(
            sw.stats().fallback_pins_by_vip.is_empty(),
            "zeroed VIPs must leave the pin map"
        );
        assert!(sw.fallback.is_empty());
    }

    #[test]
    fn conn_table_overflow_counts_every_fallback_pin() {
        // 600 SYNs into a 64-entry ConnTable: the installs that find no
        // room pin their connections in the fallback table, and the
        // counter must follow that table's real size, through a close too.
        let mut sw = SilkRoadSwitch::new(SilkRoadConfig {
            conn_capacity: 64,
            ..SilkRoadConfig::small_test()
        });
        sw.add_vip(vip(), vec![dip(1), dip(2), dip(3), dip(4)])
            .unwrap();
        for p in 0..600u16 {
            sw.process_packet(
                &PacketMeta::syn(conn(p)),
                Nanos::from_micros(100 * u64::from(p)),
            );
        }
        let t = settle(&mut sw, 1_060);
        let pinned = sw.fallback.len();
        assert!(pinned > 0, "{}", sw.stats());
        assert_eq!(sw.stats().fallback_entries as usize, pinned);
        let overflowed = (0..600u16)
            .find(|&p| sw.fallback.contains_key(conn(p).key_bytes().as_slice()))
            .expect("a pinned connection");
        sw.close_connection(&conn(overflowed), t);
        assert_eq!(sw.fallback.len(), pinned - 1);
        assert_eq!(sw.stats().fallback_entries as usize, pinned - 1);
    }

    #[test]
    fn rolling_reboot_reuses_versions_end_to_end() {
        let mut sw = switch();
        // Live connections keep the original version referenced, which is
        // what makes reuse matter (and possible).
        for p in 0..50 {
            sw.process_packet(&PacketMeta::syn(conn(p)), Nanos::ZERO);
        }
        let mut t = Nanos::from_millis(10);
        sw.advance(t);
        let mut port = 1000u16;
        for _ in 0..20 {
            sw.request_update(vip(), PoolUpdate::Remove(dip(1)), t)
                .unwrap();
            t += sr_types::Duration::from_millis(20);
            // Connections arriving while the DIP is down pin the
            // removal-shaped version, as production traffic would.
            for _ in 0..3 {
                sw.process_packet(&PacketMeta::syn(conn(port)), t);
                port += 1;
            }
            t += sr_types::Duration::from_millis(20);
            sw.advance(t);
            sw.request_update(vip(), PoolUpdate::Add(dip(1)), t)
                .unwrap();
            t += sr_types::Duration::from_millis(20);
            sw.advance(t);
        }
        let (allocs, reuses, changes, live) = sw.version_counters(vip()).unwrap();
        assert_eq!(changes, 40);
        assert!(reuses >= 19, "reuses {reuses}");
        assert!(allocs <= 5, "allocations {allocs}");
        assert!(live <= 4, "live versions {live}");

        // A reboot that returns as a *different* DIP redeems by in-place
        // substitution. An established connection pinned to the redeemed
        // version whose DIP was the dead one must reach the substitute on
        // the very next batch: a hit reads the live pool row, with no cache
        // in between that would need invalidating.
        let pinned = (0..50)
            .map(|p| {
                let d = sw.process_packet(&PacketMeta::data(conn(p), 100), t);
                (conn(p), d)
            })
            .find(|(_, d)| d.conn_table_hit && d.dip == Some(dip(3)))
            .expect("a version-0 connection on dip(3)");
        let (pinned, before) = pinned;
        sw.request_update(vip(), PoolUpdate::Remove(dip(3)), t)
            .unwrap();
        t += sr_types::Duration::from_millis(20);
        let d = sw.process_batch(&[PacketMeta::data(pinned, 100)], t);
        assert_eq!(d[0], before, "a removal moves no established connection");
        let reuses_before = sw.version_counters(vip()).unwrap().1;
        sw.request_update(vip(), PoolUpdate::Add(dip(9)), t)
            .unwrap();
        assert_eq!(sw.version_counters(vip()).unwrap().1, reuses_before + 1);
        assert_eq!(sw.current_version(vip()), before.version, "redeemed");
        let d = sw.process_batch(&[PacketMeta::data(pinned, 100)], t);
        assert!(d[0].conn_table_hit);
        assert_eq!(d[0].version, before.version);
        assert_eq!(d[0].dip, Some(dip(9)), "substituted member");
    }

    #[test]
    fn resolve_by_id_survives_the_vip_lifecycle() {
        // Each VIP's pool is disjoint from the others', so a hit resolved
        // through the wrong slab slot would name a foreign DIP.
        let a = vip();
        let b = Vip(Addr::v4(20, 0, 0, 2, 80));
        let c = Vip(Addr::v4(20, 0, 0, 3, 80));
        let to = |v: Vip, p: u16| FiveTuple::tcp(Addr::v4(1, 2, 3, 4, p), v.0);
        let mut sw = switch();
        sw.add_vip(b, vec![dip(5), dip(6), dip(7)]).unwrap();
        let mut t = Nanos::ZERO;
        let open = |sw: &mut SilkRoadSwitch, tuple: FiveTuple, t: &mut Nanos| {
            let d = sw.process_packet(&PacketMeta::syn(tuple), *t);
            *t += sr_types::Duration::from_millis(10);
            sw.advance(*t);
            (tuple, d)
        };
        let a1 = open(&mut sw, to(a, 1), &mut t);
        let b1 = open(&mut sw, to(b, 1), &mut t);
        assert_eq!(sw.conn_count(), 2);

        sw.remove_vip(a).unwrap();
        sw.add_vip(c, vec![dip(8), dip(9)]).unwrap();
        sw.add_vip(a, vec![dip(10), dip(11), dip(12)]).unwrap();
        assert_eq!(sw.vips.len(), 3, "the re-added VIP reuses its slot");
        let a2 = open(&mut sw, to(a, 2), &mut t);
        let c1 = open(&mut sw, to(c, 1), &mut t);
        assert_eq!(sw.conn_count(), 3, "A's first connection left with it");

        for (vip, (tuple, setup)) in [(b, b1), (a, a2), (c, c1)] {
            let d = sw.process_packet(&PacketMeta::data(tuple, 100), t);
            assert!(d.conn_table_hit, "{tuple:?} {d:?}");
            assert_eq!(d.dip, setup.dip, "{tuple:?}");
            assert_eq!(d.version, sw.current_version(vip));
            let own = sw.current_dips(vip).unwrap();
            assert!(own.contains(&d.dip.unwrap()), "{tuple:?} left its pool");
        }
        // A's old connection is a stranger to the new incarnation: it sets
        // up afresh against the new pool instead of hitting.
        let d = sw.process_packet(&PacketMeta::data(a1.0, 100), t);
        assert!(!d.conn_table_hit);
        assert!(sw.current_dips(a).unwrap().contains(&d.dip.unwrap()));
    }

    #[test]
    fn meter_polices_a_hot_vip_without_touching_others() {
        use sr_asic::MeterConfig;
        let mut sw = switch();
        let quiet_vip = Vip(Addr::v4(20, 0, 0, 2, 80));
        sw.add_vip(quiet_vip, vec![dip(9)]).unwrap();
        // 1 Mbit/s committed on the hot VIP, nothing on the quiet one.
        sw.attach_meter(
            vip(),
            MeterConfig {
                cir_bps: 125_000,
                cbs: 3_000,
                eir_bps: 0,
                ebs: 0,
            },
        );
        // Flood the hot VIP at ~10x its committed rate.
        let mut t = Nanos::ZERO;
        let mut dropped = 0;
        for i in 0..200u16 {
            let d = sw.process_packet(&PacketMeta::data(conn(i), 1500), t);
            if d.path == DataPath::Dropped {
                dropped += 1;
            }
            t += sr_types::Duration::from_millis(1);
        }
        assert!(dropped > 100, "meter barely dropped: {dropped}");
        assert_eq!(sw.stats().metered_drops, dropped);
        // The quiet VIP is untouched — hardware isolation.
        let q = FiveTuple::tcp(Addr::v4(1, 2, 3, 4, 7), quiet_vip.0);
        let d = sw.process_packet(&PacketMeta::syn(q), t);
        assert!(d.dip.is_some());
        sw.detach_meter(vip());
        let d = sw.process_packet(&PacketMeta::data(conn(9), 1500), t);
        assert_ne!(d.path, DataPath::Dropped);
    }

    #[test]
    fn health_events_drive_updates() {
        use crate::health::{HealthChecker, HealthConfig};
        let mut sw = switch();
        let mut hc = HealthChecker::new(HealthConfig {
            interval: sr_types::Duration::from_secs(1),
            probe_bytes: 100,
            fail_threshold: 2,
            rise_threshold: 1,
        });
        for &d in sw.current_dips(vip()).unwrap() {
            hc.watch(vip(), d, Nanos::ZERO);
        }
        // Live connections pin the pre-failure version so the recovery can
        // reuse it.
        for p in 0..30 {
            sw.process_packet(&PacketMeta::syn(conn(p)), Nanos::ZERO);
        }
        sw.advance(Nanos::from_millis(100));
        // dip(2) stops answering; after two probe rounds it is removed.
        let mut t = Nanos::ZERO;
        for s in 1..=4u64 {
            t = Nanos::from_secs(s);
            for (v, op) in hc.poll(t, |_, d| d != dip(2)) {
                sw.request_update(v, op, t).unwrap();
            }
        }
        sw.advance(t + sr_types::Duration::from_millis(50));
        assert!(!sw.current_dips(vip()).unwrap().contains(&dip(2)));
        // It recovers; one healthy round re-adds it.
        for s in 5..=7u64 {
            t = Nanos::from_secs(s);
            for (v, op) in hc.poll(t, |_, _| true) {
                sw.request_update(v, op, t).unwrap();
            }
        }
        sw.advance(t + sr_types::Duration::from_millis(50));
        assert!(sw.current_dips(vip()).unwrap().contains(&dip(2)));
        // The flap reused a version instead of burning two.
        let (_, reuses, _, _) = sw.version_counters(vip()).unwrap();
        assert!(reuses >= 1);
    }

    #[test]
    fn syn_digest_collision_repaired_in_software() {
        // Install one connection, then search the client space for a SYN
        // that falsely hits its digest — the §4.2 repair must kick in:
        // redirect to software, relocate the resident, and leave both
        // connections resolving consistently ever after. An 8-bit digest
        // makes the collision findable in a bounded search.
        let mut cfg = SilkRoadConfig::small_test();
        cfg.digest_bits = 8;
        let mut sw = SilkRoadSwitch::new(cfg);
        sw.add_vip(vip(), vec![dip(1), dip(2), dip(3), dip(4)])
            .unwrap();
        let resident = conn(1);
        let d_res = sw
            .process_packet(&PacketMeta::syn(resident), Nanos::ZERO)
            .dip;
        sw.advance(Nanos::from_millis(10));
        assert_eq!(sw.conn_count(), 1);

        let mut collider = None;
        for i in 0..400_000u32 {
            let probe = FiveTuple::tcp(
                Addr::v4_indexed(7, i / 60_000, 1024 + (i % 60_000) as u16),
                Addr::v4(20, 0, 0, 1, 80),
            );
            let d = sw.process_packet(&PacketMeta::syn(probe), Nanos::from_millis(10));
            if d.path == DataPath::SoftwareRedirect {
                collider = Some(probe);
                break;
            }
            // Keep the table small: drop the learn before it installs.
            sw.close_connection(&probe, Nanos::from_millis(10));
        }
        let collider = collider.expect("no digest collision in 400K probes");
        assert_eq!(sw.stats().syn_repairs, 1);
        assert_eq!(sw.stats().relocations, 1);

        // After the repair both connections are stable and exact.
        sw.advance(Nanos::from_millis(30));
        let r1 = sw.process_packet(&PacketMeta::data(resident, 100), Nanos::from_millis(30));
        assert!(r1.conn_table_hit && !r1.false_hit, "{r1:?}");
        assert_eq!(r1.dip, d_res);
        let r2 = sw.process_packet(&PacketMeta::data(collider, 100), Nanos::from_millis(30));
        assert!(!r2.false_hit, "collider still false-hitting: {r2:?}");
        let r2b = sw.process_packet(&PacketMeta::data(collider, 100), Nanos::from_millis(31));
        assert_eq!(r2.dip, r2b.dip);
    }

    #[test]
    fn step_two_chunk_mixing_old_and_new_versions_decides_like_single_packets() {
        // In step 2, a pending connection's packets transit-hit (old
        // version) while new SYNs miss (new version): one chunk's setup
        // stage sees runs of misses alternating between two `(vip,
        // version)`s, and must resolve each against its own pool.
        let mut cfg = SilkRoadConfig::small_test();
        cfg.cpu.insertions_per_sec = 1_000; // slow: step 2 lasts visibly long
        let mut batched = SilkRoadSwitch::new(cfg.clone());
        let mut single = SilkRoadSwitch::new(cfg);
        let mut t = Nanos::ZERO;
        for sw in [&mut batched, &mut single] {
            sw.add_vip(vip(), vec![dip(1), dip(2), dip(3), dip(4)])
                .unwrap();
            for p in 0..20 {
                sw.process_packet(&PacketMeta::syn(conn(p)), t);
            }
            sw.request_update(vip(), PoolUpdate::Remove(dip(1)), t)
                .unwrap();
            // Recorded in step 1, installed only after the first cohort.
            for p in 100..140 {
                sw.process_packet(&PacketMeta::syn(conn(p)), t);
            }
        }
        while batched.update_phase(vip()) != Some(UpdatePhase::Draining) {
            t += sr_types::Duration::from_millis(1);
            batched.advance(t);
            single.advance(t);
        }
        let mixed: Vec<PacketMeta> = (0..32u16)
            .map(|i| match i % 2 {
                0 => PacketMeta::data(conn(120 + i / 2), 100),
                _ => PacketMeta::syn(conn(1000 + i)),
            })
            .collect();
        let want: Vec<ForwardDecision> =
            mixed.iter().map(|p| single.process_packet(p, t)).collect();
        assert_eq!(batched.process_batch(&mixed, t), want);
        let versions: Vec<_> = want.iter().filter_map(|d| d.version).collect();
        assert!(versions.windows(2).any(|w| w[0] != w[1]), "{want:?}");
    }

    #[test]
    fn empty_pool_drops() {
        let mut sw = SilkRoadSwitch::new(SilkRoadConfig::small_test());
        sw.add_vip(vip(), vec![]).unwrap();
        let d = sw.process_packet(&PacketMeta::syn(conn(1)), Nanos::ZERO);
        assert_eq!(d.path, DataPath::Dropped);
        assert!(d.dip.is_none());
    }

    #[test]
    fn lane_alias_cannot_fool_the_record_pass() {
        // A resident whose stage-0 plane lane equals a flow's while its
        // stored digest differs sits in front of the flow's own entry.
        // Two shapes: 24-bit digests sharing their low 16 bits, and a
        // 16-bit table's 0xFFFF/0xFFFE pair, which the plane clamps to one
        // lane.
        for bits in [24u32, 16] {
            let mut sw = SilkRoadSwitch::new(SilkRoadConfig {
                // One word per stage at both widths (four 28-bit or three
                // 36-bit entries a word): every flow probes the same words.
                conn_capacity: 11,
                digest_bits: bits as u8,
                ..SilkRoadConfig::small_test()
            });
            sw.add_vip(vip(), vec![dip(1), dip(2), dip(3), dip(4)])
                .unwrap();
            let flow = |i: u32| {
                let [_, a, b, c] = i.to_be_bytes();
                FiveTuple::tcp(Addr::v4(1, a, b, c, 4242), Addr::v4(20, 0, 0, 1, 80))
            };
            // A `bits`-wide digest is the top `bits` bits of the match
            // hash (`DigestFn::digest_of`); its plane lane is the low 16,
            // with 0xFFFF clamped to 0xFFFE.
            let match_fn = sw.conn_table.match_fn();
            let field = |t: &FiveTuple| match_fn.hash(t.tuple_key().as_slice()) >> (64 - bits);
            let mut seen = FxHashMap::default();
            let (alias, own) = (0u32..)
                .find_map(|i| {
                    let f = field(&flow(i));
                    match seen.insert((f as u16).min(0xFFFE), (i, f)) {
                        Some((j, g)) if g != f => Some((flow(j), flow(i))),
                        _ => None,
                    }
                })
                .unwrap();
            // The alias sets up and installs first, then the flow.
            let mut dips = Vec::new();
            for (t, ms) in [(alias, 0), (own, 10)] {
                dips.push(
                    sw.process_packet(&PacketMeta::syn(t), Nanos::from_millis(ms))
                        .dip,
                );
                settle(&mut sw, ms + 10);
            }
            assert_eq!(sw.conn_count(), 2);
            let probe = |sw: &SilkRoadSwitch, t: &FiveTuple| {
                let h = sw.hasher.hash_tuple(t);
                let (sh, mh) = (h.conn_stage_hashes(), h.conn_match_hash());
                let lane = sw.conn_table.locate_lane(sh, mh);
                (lane, sw.conn_table.locate(h.key().as_slice(), sh, mh))
            };
            let (_, front) = probe(&sw, &alias);
            let (lane, located) = probe(&sw, &own);
            assert!(front.is_some() && lane == front, "{bits}: alias in front");
            assert!(located.is_some() && located != front, "{bits}");
            // Batches ending in the flow, alternating with the alias: the
            // chunk path must locate the slot `lookup` finds.
            let now = Nanos::from_millis(30);
            for len in [1usize, 16, 17] {
                let batch: Vec<(PacketMeta, Option<Dip>)> = (0..len)
                    .map(|i| {
                        let which = (len - 1 - i) % 2;
                        let t = [own, alias][which];
                        (PacketMeta::data(t, 100), dips[1 - which])
                    })
                    .collect();
                let pkts: Vec<PacketMeta> = batch.iter().map(|(p, _)| *p).collect();
                let ds = sw.process_batch(&pkts, now);
                for ((p, want), d) in batch.iter().zip(&ds) {
                    let key = p.tuple.tuple_key();
                    let (_, exact, _) = sw.conn_table.lookup(key.as_slice()).unwrap();
                    assert!(exact, "{bits}");
                    assert!(d.conn_table_hit && !d.false_hit, "{bits}, batch of {len}");
                    assert_eq!(d.dip, *want, "{bits}, batch of {len}");
                }
            }
            assert_eq!(sw.stats().digest_false_hits, 0, "{bits}");
        }
    }
}
