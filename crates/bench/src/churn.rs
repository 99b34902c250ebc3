//! `repro churn` — the connection-setup correctness gate
//! (`BENCH_churn.json`).
//!
//! SilkRoad's headline claim is surviving Fig 8 churn rates — up to tens
//! of millions of *new* connections per VIP-minute — while the switch
//! CPU inserts ConnTable entries at only ~200 K/s. This harness drives
//! exactly that path: waves of brand-new flows (each SYN optionally
//! replicated by a `storm` factor, modelling retransmitted handshakes)
//! go through miss → learning filter → CPU queue → cuckoo install →
//! TransitTable promote, with data packets and closes riding along and
//! two DIP-pool updates landing mid-run so the PCC machinery is live.
//!
//! Every run folds each decision into the engine's commutative digest
//! and checks per-connection consistency (first DIP never changes). The
//! identical workload goes through one `process_packet` call per packet
//! (a batch of one) and through 256-packet `process_batch_into` batches at
//! 1/2/4 pipes; all digests must be bit-identical — the proof that how a
//! stream is cut into batches and chunks changes *nothing* observable.
//! Nothing here reads a clock: every reported
//! number (learn-queue depth, TransitTable fill, digests) is
//! deterministic, and setup *rates* are the `churn` workload of
//! `benchmark/` (`setups_per_s`, `conn_table.install_ns_per_entry`).
//! Gate logic lives in the `repro` binary; this module only measures.
//!
//! `flood` is the adversarial variant: a deterministic storm of
//! never-completing SYNs (each 5-tuple seen exactly once, far beyond
//! the learning filter's capacity) hammers the setup path while a small
//! established background population keeps serving traffic. The filter
//! must shed the excess (`overflow_drops > 0`), idle expiry must bound
//! installed state, and the background flows must see zero PCC
//! violations.

use crate::report::{json_array, json_doc, json_hex, json_object, json_rows, json_str};
use silkroad::engine::packet_digest;
use silkroad::{FlowSteering, ForwardDecision, MultiPipeSwitch, PoolUpdate, SilkRoadConfig};
use sr_hash::FxHashMap;
use sr_types::{Addr, Dip, Duration, FiveTuple, Nanos, PacketMeta, Vip};

/// Workload shape for one churn sweep.
#[derive(Clone, Debug)]
pub struct ChurnParams {
    /// Lead-in waves before the counted window: the table is populated
    /// and cohorts are closing by the time updates and samples land.
    pub warmup_waves: u32,
    /// Counted waves of new connections (setups, depth/fill samples and
    /// the two pool updates all fall inside this window).
    pub waves: u32,
    /// Brand-new flows per wave (kept under the learning filter's 2K
    /// capacity so no setup is shed in the non-flood sweep).
    pub flows_per_wave: u32,
    /// Batch size fed to `process_batch_into` in the batched runs.
    pub batch: usize,
    /// SYN replication factors to sweep (1 = clean handshakes, 10 =
    /// retransmission storm).
    pub storms: Vec<u32>,
    /// Pipe counts the digest-identity check runs across.
    pub pipe_counts: Vec<usize>,
}

/// The committed full or CI-sized smoke profile.
pub fn churn_params(smoke: bool) -> ChurnParams {
    if smoke {
        ChurnParams {
            warmup_waves: 1,
            waves: 6,
            flows_per_wave: 512,
            batch: 256,
            storms: vec![1, 10],
            pipe_counts: vec![1, 2, 4],
        }
    } else {
        ChurnParams {
            warmup_waves: 2,
            waves: 24,
            flows_per_wave: 1_024,
            batch: 256,
            storms: vec![1, 10],
            pipe_counts: vec![1, 2, 4],
        }
    }
}

/// One storm factor's result.
#[derive(Clone, Debug)]
pub struct ChurnPoint {
    /// SYN replication factor.
    pub storm: u32,
    /// New connections set up during the counted window.
    pub setups: u64,
    /// Packets processed per run (every wave, lead-in included).
    pub packets: u64,
    /// Learn-queue depth percentiles, sampled after each wave's burst.
    pub learn_depth_p50: usize,
    /// 90th percentile of the same samples.
    pub learn_depth_p90: usize,
    /// Maximum sampled learn-queue depth.
    pub learn_depth_max: usize,
    /// Peak TransitTable fill ratio observed at wave boundaries.
    pub transit_fill_peak: f64,
    /// Per-connection consistency violations across every verification
    /// run (must be 0).
    pub pcc_violations: u64,
    /// Learning-filter overflow drops (must be 0 in the non-flood
    /// sweep — every setup completes).
    pub overflow_drops: u64,
    /// Commutative decision digest of the whole workload (batched,
    /// 1 pipe).
    pub digest: u64,
    /// Whether the per-packet run produced the identical digest.
    pub digests_match_arms: bool,
    /// Whether every swept pipe count produced the identical digest.
    pub digests_match_pipes: bool,
}

/// A full churn sweep.
#[derive(Clone, Debug)]
pub struct ChurnBench {
    /// Whether this was the CI-sized smoke profile.
    pub smoke: bool,
    /// Parameters the sweep ran with.
    pub params: ChurnParams,
    /// One point per storm factor.
    pub points: Vec<ChurnPoint>,
}

impl ChurnBench {
    /// Whether every point's digests agree batched-vs-per-packet and
    /// across pipe counts.
    pub fn digests_ok(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.digests_match_arms && p.digests_match_pipes)
    }

    /// Total PCC violations across points (must be 0).
    pub fn pcc_violations(&self) -> u64 {
        self.points.iter().map(|p| p.pcc_violations).sum()
    }

    /// Render as the committed `BENCH_churn.json` document.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                json_object(&[
                    ("storm", p.storm.to_string()),
                    ("setups", p.setups.to_string()),
                    ("packets", p.packets.to_string()),
                    ("learn_depth_p50", p.learn_depth_p50.to_string()),
                    ("learn_depth_p90", p.learn_depth_p90.to_string()),
                    ("learn_depth_max", p.learn_depth_max.to_string()),
                    ("transit_fill_peak", format!("{:.4}", p.transit_fill_peak)),
                    ("pcc_violations", p.pcc_violations.to_string()),
                    ("overflow_drops", p.overflow_drops.to_string()),
                    ("digest", json_hex(p.digest)),
                    ("digests_match_arms", p.digests_match_arms.to_string()),
                    ("digests_match_pipes", p.digests_match_pipes.to_string()),
                ])
            })
            .collect();
        json_doc(&[
            ("bench", json_str("churn")),
            ("smoke", self.smoke.to_string()),
            ("warmup_waves", self.params.warmup_waves.to_string()),
            ("waves", self.params.waves.to_string()),
            ("flows_per_wave", self.params.flows_per_wave.to_string()),
            ("batch", self.params.batch.to_string()),
            ("pipe_counts", json_array(&self.params.pipe_counts)),
            (
                "note",
                json_str(
                    "correctness gate, no wall-clock fields: one workload through \
                     per-packet process_packet and chunked process_batch_into at every pipe \
                     count; digests are the engine's commutative decision fold and must match \
                     across arms and pipe counts; every value is deterministic; setup rates \
                     live in benchmark/ (churn workload: setups_per_s, \
                     conn_table.install_ns_per_entry)",
                ),
            ),
            ("points", json_rows(&points)),
        ])
    }
}

fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

fn dip(i: u8) -> Dip {
    Dip(Addr::v4(10, 0, 0, i, 20))
}

/// The `g`-th brand-new flow of the sweep (globally unique tuples; the
/// port spread keeps source endpoints from colliding on one address).
fn flow_tuple(g: u32) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(100, g, 1024 + (g % 251) as u16), vip().0)
}

fn churn_cfg(total_flows: u32) -> SilkRoadConfig {
    SilkRoadConfig {
        conn_capacity: (total_flows as usize) * 2,
        // Wide digests and a big transit bloom keep collision noise out
        // of the digest-identity gate.
        digest_bits: 24,
        transit_bytes: 4_096,
        ..Default::default()
    }
}

/// One wave of the prebuilt workload.
struct Wave {
    /// SYN burst: `storm` copies of each new flow, round-major so one
    /// flow's duplicates are spread across the burst (retransmissions
    /// interleave with other handshakes, they don't arrive back to
    /// back).
    syns: Vec<PacketMeta>,
    /// Data for this wave's flows plus the two previous cohorts still
    /// open — the witnesses that stretch connections across the mid-run
    /// pool updates and make the PCC check bite.
    data: Vec<PacketMeta>,
    /// The wave w-2 cohort, closed once its last data packet is served.
    closes: Vec<FiveTuple>,
}

/// Prebuild the whole workload once per storm factor; every run replays
/// the identical packets.
fn build_waves(p: &ChurnParams, storm: u32) -> Vec<Wave> {
    let flows = p.flows_per_wave;
    (0..p.warmup_waves + p.waves)
        .map(|w| {
            let base = w * flows;
            let cohort: Vec<FiveTuple> = (0..flows).map(|f| flow_tuple(base + f)).collect();
            let mut syns = Vec::with_capacity((flows * storm) as usize);
            for _ in 0..storm {
                syns.extend(cohort.iter().map(|t| PacketMeta::syn(*t)));
            }
            let mut data = Vec::with_capacity((flows * 3) as usize);
            for back in (0..=2u32).rev() {
                if back > w {
                    continue;
                }
                let b = (w - back) * flows;
                data.extend((0..flows).map(|f| PacketMeta::data(flow_tuple(b + f), 800)));
            }
            let closes: Vec<FiveTuple> = if w >= 2 {
                (0..flows)
                    .map(|f| flow_tuple((w - 2) * flows + f))
                    .collect()
            } else {
                Vec::new()
            };
            Wave { syns, data, closes }
        })
        .collect()
}

/// Per-connection consistency witness: a flow's first DIP is its DIP
/// forever — across retransmissions, data, and pool updates.
#[derive(Default)]
struct PccWitness {
    first_dip: FxHashMap<FiveTuple, Dip>,
    violations: u64,
}

impl PccWitness {
    fn note(&mut self, pkt: &PacketMeta, d: &ForwardDecision) {
        if let Some(chosen) = d.dip {
            if *self.first_dip.entry(pkt.tuple).or_insert(chosen) != chosen {
                self.violations += 1;
            }
        }
    }
}

/// Decision folder: the engine's commutative digest plus the PCC witness.
struct Folder {
    steer: FlowSteering,
    pcc: PccWitness,
    digest: u64,
}

impl Folder {
    fn new(seed: u64) -> Folder {
        Folder {
            steer: FlowSteering::new(seed, 1),
            pcc: PccWitness::default(),
            digest: 0,
        }
    }

    fn note(&mut self, pkt: &PacketMeta, d: &ForwardDecision) {
        self.digest = self.digest.wrapping_add(packet_digest(&self.steer, pkt, d));
        self.pcc.note(pkt, d);
    }
}

/// Push one span of packets through the engine on the selected arm
/// (chunked `process_batch_into`, or one `process_packet` per packet),
/// folding every decision.
fn process_span(
    sw: &mut MultiPipeSwitch,
    span: &[PacketMeta],
    now: Nanos,
    batch: usize,
    batched: bool,
    out: &mut Vec<ForwardDecision>,
    folder: &mut Folder,
) {
    if batched {
        for chunk in span.chunks(batch) {
            out.clear();
            sw.process_batch_into(chunk, now, out);
            for (pkt, d) in chunk.iter().zip(out.iter()) {
                folder.note(pkt, d);
            }
        }
    } else {
        for pkt in span {
            let d = sw.process_packet(pkt, now);
            folder.note(pkt, &d);
        }
    }
}

/// What one run over the workload produced.
struct RunOut {
    packets: u64,
    digest: u64,
    pcc_violations: u64,
    depth_samples: Vec<usize>,
    transit_peak: f64,
    overflow_drops: u64,
}

/// Drive the prebuilt workload through one engine configuration.
/// `batched` selects the arm; the install pipeline is the same either way.
fn run_workload(p: &ChurnParams, waves: &[Wave], pipes: usize, batched: bool) -> RunOut {
    let total_flows = (p.warmup_waves + p.waves) * p.flows_per_wave;
    let cfg = churn_cfg(total_flows);
    let mut folder = Folder::new(cfg.seed);
    let mut sw = MultiPipeSwitch::inline(cfg, pipes);
    sw.add_vip(vip(), (1..=16).map(dip).collect())
        .expect("churn VIP registers");
    let mut out: Vec<ForwardDecision> = Vec::with_capacity(p.batch);
    let mut depth_samples = Vec::with_capacity(p.waves as usize);
    let mut transit_peak = 0f64;
    let mut packets = 0u64;
    let mut now = Nanos::ZERO;
    // Per-wave drain budget: the learning filter's 1 ms notification,
    // the CPU's 5 µs per install for a full cohort, plus slack.
    let drain = Duration::from_millis(1)
        + Duration::from_micros(5 * u64::from(p.flows_per_wave))
        + Duration::from_millis(1);
    for (w, wave) in (0u32..).zip(waves) {
        // Position inside the counted window (`None` during lead-in).
        let counted = w.checked_sub(p.warmup_waves);
        let mut update: Option<PoolUpdate> = None;
        if let Some(i) = counted {
            // Two pool updates land mid-run so the transit/PCC
            // machinery is exercised while connections are in flight.
            // Add-then-Remove of the *same* DIP: a Remove followed by an
            // Add of a different DIP would trigger §4.2 version reuse,
            // which substitutes the new DIP into the redeemed version and
            // legitimately remaps live connections — not what a PCC
            // witness should count as a violation.
            if i == p.waves / 3 {
                update = Some(PoolUpdate::Add(dip(17)));
            }
            if i == 2 * p.waves / 3 {
                update = Some(PoolUpdate::Remove(dip(17)));
            }
        }
        // Updates are requested *mid-burst*: at a wave boundary nothing is
        // outstanding and the 3-step protocol collapses to an immediate
        // flip (empty step 1). With part of the cohort pending, step 1
        // opens a real window and the TransitTable records the rest of
        // the burst. The split point is deterministic, so both arms and
        // every pipe count see the identical packet/update interleaving.
        let split = if update.is_some() {
            p.batch.min(wave.syns.len())
        } else {
            0
        };
        let (head, tail) = wave.syns.split_at(split);
        process_span(&mut sw, head, now, p.batch, batched, &mut out, &mut folder);
        if let Some(op) = update {
            let _ = sw.request_update(vip(), op, now);
        }
        process_span(&mut sw, tail, now, p.batch, batched, &mut out, &mut folder);
        packets += wave.syns.len() as u64;
        // Sample the learn queue and transit bloom at their wave peak
        // (after the burst, before the drain), then run the pipeline so
        // every setup is installed before data arrives.
        if counted.is_some() {
            depth_samples.push(
                (0..pipes)
                    .filter_map(|i| sw.pipe(i))
                    .map(|pi| pi.switch().learn_queue_depth())
                    .sum(),
            );
            let fill = (0..pipes)
                .filter_map(|i| sw.pipe(i))
                .map(|pi| pi.switch().transit_fill_ratio())
                .fold(0f64, f64::max);
            transit_peak = transit_peak.max(fill);
        }
        now = now.saturating_add(drain);
        sw.advance(now);
        process_span(
            &mut sw,
            &wave.data,
            now,
            p.batch,
            batched,
            &mut out,
            &mut folder,
        );
        packets += wave.data.len() as u64;
        for t in &wave.closes {
            sw.close_connection(t, now);
        }
        now = now.saturating_add(Duration::from_millis(1));
    }
    let overflow_drops = (0..pipes)
        .filter_map(|i| sw.pipe(i))
        .map(|pi| pi.switch().learn_overflow_drops())
        .sum();
    RunOut {
        packets,
        digest: folder.digest,
        pcc_violations: folder.pcc.violations,
        depth_samples,
        transit_peak,
        overflow_drops,
    }
}

fn percentile(sorted: &[usize], q: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted.get(idx).copied().unwrap_or(0)
}

/// Measure one storm factor: the per-packet run, then the batched path
/// at every swept pipe count. All digests must agree bit-for-bit; depth
/// and fill samples are reported from the 1-pipe runs.
fn measure_storm(p: &ChurnParams, storm: u32) -> ChurnPoint {
    let waves = build_waves(p, storm);
    let per_packet = run_workload(p, &waves, 1, false);
    let batched: Vec<RunOut> = p
        .pipe_counts
        .iter()
        .map(|&pipes| run_workload(p, &waves, pipes, true))
        .collect();
    let first = batched.first().unwrap_or(&per_packet);
    let digest = first.digest;
    let mut depths = first.depth_samples.clone();
    depths.sort_unstable();
    ChurnPoint {
        storm,
        setups: u64::from(p.waves) * u64::from(p.flows_per_wave),
        packets: first.packets,
        learn_depth_p50: percentile(&depths, 0.50),
        learn_depth_p90: percentile(&depths, 0.90),
        learn_depth_max: depths.last().copied().unwrap_or(0),
        transit_fill_peak: first.transit_peak.max(per_packet.transit_peak),
        pcc_violations: per_packet.pcc_violations
            + batched.iter().map(|r| r.pcc_violations).sum::<u64>(),
        overflow_drops: batched
            .iter()
            .map(|r| r.overflow_drops)
            .fold(per_packet.overflow_drops, u64::max),
        digest,
        digests_match_arms: per_packet.digest == digest,
        digests_match_pipes: batched.iter().all(|r| r.digest == digest),
    }
}

/// Run a sweep with explicit parameters (tests use tiny workloads).
pub fn run_with(params: ChurnParams, smoke: bool) -> ChurnBench {
    let points = params
        .storms
        .iter()
        .map(|&s| measure_storm(&params, s))
        .collect();
    ChurnBench {
        smoke,
        params,
        points,
    }
}

/// Run the committed full or smoke profile.
pub fn run(smoke: bool) -> ChurnBench {
    run_with(churn_params(smoke), smoke)
}

// ---- SYN flood ---------------------------------------------------------

/// What the SYN-flood scenario observed.
#[derive(Clone, Debug)]
pub struct FloodReport {
    /// Flood waves replayed.
    pub waves: u32,
    /// Unique never-completing SYNs per wave (deliberately beyond the
    /// learning filter's capacity).
    pub syns_per_wave: u32,
    /// Established background connections serving traffic throughout.
    pub background_flows: u32,
    /// Total flood SYNs replayed.
    pub flood_syns: u64,
    /// SYNs the learning filter shed (must be > 0 — the filter is the
    /// bound on learn-path state).
    pub overflow_drops: u64,
    /// Peak installed connections observed at wave boundaries.
    pub installed_peak: usize,
    /// Installed connections after the final expiry pass.
    pub installed_final: usize,
    /// Connections reclaimed by idle expiry during the flood.
    pub expired: usize,
    /// The model-derived ceiling `installed_peak` must stay under:
    /// background + filter capacity x (waves per idle timeout + 2).
    pub live_bound: usize,
    /// PCC violations on the background flows (must be 0).
    pub pcc_violations: u64,
}

impl FloodReport {
    /// Whether installed state stayed within the model-derived bound.
    pub fn bounded(&self) -> bool {
        self.installed_peak <= self.live_bound
    }
}

/// Replay a deterministic SYN flood with explicit shape (tests shrink
/// it). Each flood tuple is seen exactly once — no retransmissions, no
/// data, no close — so nothing but the learning filter and idle expiry
/// stands between the flood and ConnTable exhaustion.
pub fn flood_with(waves: u32, syns_per_wave: u32, background: u32) -> FloodReport {
    let idle = Duration::from_millis(200);
    let wave_period = Duration::from_millis(50);
    let cfg = SilkRoadConfig {
        conn_capacity: 32_768,
        digest_bits: 24,
        transit_bytes: 4_096,
        idle_timeout: idle,
        ..Default::default()
    };
    let filter_capacity = cfg.learning.capacity;
    let mut sw = MultiPipeSwitch::inline(cfg, 1);
    sw.add_vip(vip(), (1..=16).map(dip).collect())
        .expect("flood VIP registers");

    // Establish the background population (flow ids far above the flood
    // range) and record each flow's DIP.
    let bg: Vec<FiveTuple> = (0..background)
        .map(|i| FiveTuple::tcp(Addr::v4_indexed(200, i, 1024 + (i % 251) as u16), vip().0))
        .collect();
    let mut now = Nanos::ZERO;
    for chunk in bg.chunks(1_024) {
        let syns: Vec<PacketMeta> = chunk.iter().map(|t| PacketMeta::syn(*t)).collect();
        sw.process_batch(&syns, now);
        now = now.saturating_add(Duration::from_millis(10));
        sw.advance(now);
    }
    let bg_data: Vec<PacketMeta> = bg.iter().map(|t| PacketMeta::data(*t, 800)).collect();
    let mut pcc = PccWitness::default();
    let check_bg = |sw: &mut MultiPipeSwitch, pcc: &mut PccWitness, now: Nanos| {
        for chunk in bg_data.chunks(1_024) {
            for (pkt, d) in chunk.iter().zip(sw.process_batch(chunk, now)) {
                pcc.note(pkt, &d);
            }
        }
    };
    check_bg(&mut sw, &mut pcc, now);

    // The flood: every wave is a fresh block of unique SYNs, replayed
    // in one burst at the wave timestamp.
    let mut installed_peak = 0usize;
    let mut expired = 0usize;
    for w in 0..waves {
        let base = w * syns_per_wave;
        let syns: Vec<PacketMeta> = (0..syns_per_wave)
            .map(|i| {
                PacketMeta::syn(FiveTuple::tcp(
                    Addr::v4_indexed(60, base + i, 1024 + ((base + i) % 251) as u16),
                    vip().0,
                ))
            })
            .collect();
        // One burst per wave: `process_batch` advances the learning
        // filter at batch boundaries, so chunking the flood would drain
        // the at-capacity filter between chunks and never overflow it.
        sw.process_batch(&syns, now);
        now = now.saturating_add(wave_period);
        sw.advance(now);
        expired += sw.expire_idle(now);
        // Background keeps serving (and refreshing its idle timers)
        // through the flood.
        check_bg(&mut sw, &mut pcc, now);
        installed_peak = installed_peak.max(sw.conn_count());
    }
    // Let everything the flood installed go idle and reclaim it.
    now = now.saturating_add(idle).saturating_add(wave_period);
    sw.advance(now);
    expired += sw.expire_idle(now);
    check_bg(&mut sw, &mut pcc, now);

    let waves_per_idle = idle.div_duration(wave_period) as usize;
    FloodReport {
        waves,
        syns_per_wave,
        background_flows: background,
        flood_syns: u64::from(waves) * u64::from(syns_per_wave),
        overflow_drops: sw
            .pipe(0)
            .map(|p| p.switch().learn_overflow_drops())
            .unwrap_or(0),
        installed_peak,
        installed_final: sw.conn_count(),
        expired,
        live_bound: background as usize + filter_capacity * (waves_per_idle + 2),
        pcc_violations: pcc.violations,
    }
}

/// Run the committed flood profile.
pub fn flood(smoke: bool) -> FloodReport {
    let waves = if smoke { 6 } else { 16 };
    flood_with(waves, 4_096, 512)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_consistent_and_json_shaped() {
        let params = ChurnParams {
            warmup_waves: 1,
            waves: 3,
            flows_per_wave: 128,
            batch: 64,
            storms: vec![1, 4],
            pipe_counts: vec![1, 2],
        };
        let b = run_with(params, true);
        assert_eq!(b.points.len(), 2);
        assert!(b.digests_ok(), "digest identity broke: {:#?}", b.points);
        assert_eq!(b.pcc_violations(), 0);
        for p in &b.points {
            assert_eq!(p.setups, 3 * 128);
            assert_eq!(p.overflow_drops, 0, "non-flood sweep shed setups");
            assert!(p.learn_depth_max >= p.learn_depth_p50);
            // Every wave buffers its full cohort before the drain.
            assert_eq!(p.learn_depth_max, 128);
            // The mid-run updates put the transit bloom to work.
            assert!(p.transit_fill_peak > 0.0, "transit never recorded");
        }
        let json = b.to_json();
        for key in [
            "\"bench\": \"churn\"",
            "\"smoke\": true",
            "\"learn_depth_p90\"",
            "\"transit_fill_peak\"",
            "\"pcc_violations\": 0",
            "\"digests_match_arms\": true",
            "\"digests_match_pipes\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn storm_replication_multiplies_packets_not_setups() {
        let params = ChurnParams {
            warmup_waves: 0,
            waves: 2,
            flows_per_wave: 64,
            batch: 32,
            storms: vec![1, 3],
            pipe_counts: vec![1],
        };
        let b = run_with(params, true);
        let (p1, p3) = (&b.points[0], &b.points[1]);
        assert_eq!(p1.setups, p3.setups);
        // Extra packets are exactly the duplicated SYNs.
        assert_eq!(p3.packets - p1.packets, 2 * 2 * 64);
    }

    #[test]
    fn flood_is_bounded_sheds_load_and_preserves_background() {
        let r = flood_with(3, 4_096, 128);
        assert!(r.overflow_drops > 0, "filter never shed: {r:?}");
        assert_eq!(r.pcc_violations, 0, "background flows broke: {r:?}");
        assert!(r.bounded(), "installed state escaped the bound: {r:?}");
        assert!(r.expired > 0, "idle expiry never reclaimed: {r:?}");
        assert!(r.installed_final < r.installed_peak);
    }
}
