//! `repro compare [--smoke] [--algo <name>]` — the cross-algorithm
//! comparison matrix (`BENCH_compare.json`).
//!
//! Every member of the `sr-algo` zoo — SilkRoad (the paper's design, run
//! on its production `silkroad::SilkRoadSwitch` chassis), Concury
//! (version-in-packet), CuCoTrack (cuckoo-filter fingerprints), and the
//! Cohen-style hybrid (stateless ECMP + update-window pinning) — is
//! driven through the *identical* deterministic workload: waves of new
//! connections with data and closes riding along, plus two mid-run
//! DIP-pool updates that put each design's consistency story to the
//! test. The output is the paper-style matrix the zoo exists for:
//!
//! * **SRAM bytes per connection** — measured per-connection state at its
//!   peak, divided by the live connections it covered, next to the
//!   analytic bits/entry from [`sr_algo::cost`] (one cost model, three
//!   consumers: the figures, the baselines, this matrix).
//! * **PCC violations** — unique connections whose DIP changed mid-life.
//!   SilkRoad must record zero; the hybrid's idle-through-window
//!   remappings and CuCoTrack's fingerprint aliases show up honestly.
//! * **Audited false hits** — CuCoTrack's fingerprint collisions, every
//!   one audited against the oracle (never silently mis-steered).
//! * **Insert fraction** — how much of the churn each design pushes
//!   through its install path (SilkRoad ~1.0, Concury only
//!   transition-window newborns, the hybrid only update-crossing flows).
//! * **srcheck placement** — each algorithm's [`AlgoName::layout`] must
//!   place on the Tofino-class chip model.
//!
//! The Concury arm also closes the loop with `sr_wire::stamp`: a sample
//! of every arm's stamped tags is round-tripped through a real frame
//! (stamp → parse, checksums verified) and any loss is reported as
//! `stamp_failures` — gated to zero.
//!
//! Gate logic lives in the `repro` binary; this module only measures.

use crate::report::{json_doc, json_object, json_rows, json_str};
use silkroad::{PoolUpdate, SilkRoadConfig, SilkRoadSwitch};
use sr_algo::{
    concury_lb, conn_entry_bits, cucotrack_lb, hybrid_lb, AlgoEngine, AlgoName, ConnState,
    ConnStateDesign, Steering,
};
use sr_asic::ChipSpec;
use sr_hash::FxHashMap;
use sr_types::{Addr, AddrFamily, Dip, Duration, FiveTuple, Nanos, PacketMeta, TcpFlags, Vip};

/// How many freshly recorded stamps are round-tripped through a real
/// frame per arm (`sr_wire::stamp` spot checks).
const STAMP_SPOT_CHECKS: u64 = 64;

/// Workload shape for one comparison run.
#[derive(Clone, Debug)]
pub struct CompareParams {
    /// Waves of new connections.
    pub waves: u32,
    /// Brand-new flows per wave.
    pub flows_per_wave: u32,
    /// Extra passes over the settled population: a design that remaps
    /// settled flows must show it in the PCC column.
    pub steady_passes: u32,
}

/// The committed full or CI-sized smoke profile.
pub fn compare_params(smoke: bool) -> CompareParams {
    if smoke {
        CompareParams {
            waves: 6,
            flows_per_wave: 256,
            steady_passes: 4,
        }
    } else {
        CompareParams {
            waves: 18,
            flows_per_wave: 1_024,
            steady_passes: 8,
        }
    }
}

/// One algorithm's row of the matrix.
#[derive(Clone, Debug)]
pub struct AlgoPoint {
    /// Which algorithm.
    pub algo: AlgoName,
    /// Packets processed (waves + steady passes; closes excluded).
    pub packets: u64,
    /// New connections set up.
    pub setups: u64,
    /// Connection entries the design installed.
    pub inserts: u64,
    /// `inserts / setups` — how much churn hits the install path.
    pub insert_fraction: f64,
    /// Peak installed entries observed at wave boundaries.
    pub entries_peak: usize,
    /// Peak live connections at the same sample points.
    pub live_peak: u64,
    /// Peak per-connection state bytes (SRAM-packed).
    pub state_bytes_peak: u64,
    /// Live connections at the state peak (the ratio's denominator).
    pub live_at_state_peak: u64,
    /// `state_bytes_peak / live_at_state_peak`.
    pub sram_bytes_per_conn: f64,
    /// Analytic bits per installed entry ([`sr_algo::cost`], IPv4).
    pub model_bits_per_entry: u32,
    /// Steering-table bytes (VIP rows + pool rows) at run end.
    pub table_bytes: u64,
    /// Unique connections whose DIP changed mid-life.
    pub pcc_violations: u64,
    /// Audited false-positive hits (fingerprint/digest aliases).
    pub false_hits: u64,
    /// Stamped tags round-tripped through `sr_wire::stamp`.
    pub stamp_checks: u64,
    /// Round trips that lost the tag or broke the frame (must be 0).
    pub stamp_failures: u64,
    /// Whether [`AlgoName::layout`] places on the Tofino-class chip.
    pub placeable: bool,
    /// The layout's total SRAM bytes (srcheck resource model).
    pub layout_sram_bytes: u64,
}

/// A full comparison run.
#[derive(Clone, Debug)]
pub struct CompareBench {
    /// Whether this was the CI-sized smoke profile.
    pub smoke: bool,
    /// Parameters the run used.
    pub params: CompareParams,
    /// One row per algorithm (matrix order, or a single `--algo` row).
    pub points: Vec<AlgoPoint>,
}

impl CompareBench {
    /// The row for one algorithm, if it ran.
    pub fn point(&self, algo: AlgoName) -> Option<&AlgoPoint> {
        self.points.iter().find(|p| p.algo == algo)
    }

    /// Whether all four zoo members ran (cross-algorithm gates apply).
    pub fn has_all(&self) -> bool {
        AlgoName::all().iter().all(|&a| self.point(a).is_some())
    }

    /// Total stamp round-trip failures (must be 0).
    pub fn stamp_failures(&self) -> u64 {
        self.points.iter().map(|p| p.stamp_failures).sum()
    }

    /// Render as the committed `BENCH_compare.json` document.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                json_object(&[
                    ("algo", json_str(p.algo.label())),
                    ("packets", p.packets.to_string()),
                    ("setups", p.setups.to_string()),
                    ("inserts", p.inserts.to_string()),
                    ("insert_fraction", format!("{:.4}", p.insert_fraction)),
                    ("entries_peak", p.entries_peak.to_string()),
                    ("live_peak", p.live_peak.to_string()),
                    ("state_bytes_peak", p.state_bytes_peak.to_string()),
                    ("live_at_state_peak", p.live_at_state_peak.to_string()),
                    (
                        "sram_bytes_per_conn",
                        format!("{:.3}", p.sram_bytes_per_conn),
                    ),
                    ("model_bits_per_entry", p.model_bits_per_entry.to_string()),
                    ("table_bytes", p.table_bytes.to_string()),
                    ("pcc_violations", p.pcc_violations.to_string()),
                    ("false_hits", p.false_hits.to_string()),
                    ("stamp_checks", p.stamp_checks.to_string()),
                    ("stamp_failures", p.stamp_failures.to_string()),
                    ("placeable", p.placeable.to_string()),
                    ("layout_sram_bytes", p.layout_sram_bytes.to_string()),
                ])
            })
            .collect();
        json_doc(&[
            ("bench", json_str("compare")),
            ("smoke", self.smoke.to_string()),
            ("waves", self.params.waves.to_string()),
            ("flows_per_wave", self.params.flows_per_wave.to_string()),
            ("steady_passes", self.params.steady_passes.to_string()),
            (
                "note",
                json_str(
                    "identical deterministic workload (waves of new flows + data + closes, \
                     two mid-run DIP-pool updates) through every sr-algo zoo member; \
                     sram_bytes_per_conn is measured peak state over the live connections \
                     it covered; model_bits_per_entry is the shared sr_algo::cost formula; \
                     pcc_violations counts unique remapped connections; every value is \
                     deterministic",
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

/// The `g`-th brand-new flow of the run (globally unique tuples).
fn flow_tuple(g: u32) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(100, g, 1024 + (g % 251) as u16), vip().0)
}

/// One wave of the prebuilt workload.
struct Wave {
    /// Full target membership to install at this wave's boundary, if any
    /// (the two mid-run updates).
    update: Option<Vec<Dip>>,
    /// This wave's brand-new cohort.
    syns: Vec<PacketMeta>,
    /// Data for this wave's flows plus the two previous cohorts still
    /// open — the witnesses that stretch connections across the updates.
    data: Vec<PacketMeta>,
    /// The wave w-2 cohort, closed once its last data packet is served.
    closes: Vec<FiveTuple>,
}

/// Prebuild the whole workload so every arm sees identical packets.
fn build_waves(p: &CompareParams) -> Vec<Wave> {
    let flows = p.flows_per_wave;
    let base: Vec<Dip> = (1..=16).map(dip).collect();
    let grown: Vec<Dip> = (1..=17).map(dip).collect();
    (0..p.waves)
        .map(|w| {
            // Two full-membership updates land mid-run: grow by one DIP
            // at a third of the way, shrink back at two thirds.
            let update = if w == p.waves / 3 {
                Some(grown.clone())
            } else if w == 2 * p.waves / 3 {
                Some(base.clone())
            } else {
                None
            };
            let cohort_base = w * flows;
            let syns = (0..flows)
                .map(|f| PacketMeta::syn(flow_tuple(cohort_base + f)))
                .collect();
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
            Wave {
                update,
                syns,
                data,
                closes,
            }
        })
        .collect()
}

/// The settled population the steady passes replay: data for the two
/// cohorts still open after the final wave.
fn build_steady(p: &CompareParams) -> Vec<PacketMeta> {
    let flows = p.flows_per_wave;
    let mut steady = Vec::with_capacity((flows * 2) as usize);
    for w in [p.waves.saturating_sub(2), p.waves.saturating_sub(1)] {
        steady.extend((0..flows).map(|f| PacketMeta::data(flow_tuple(w * flows + f), 800)));
    }
    steady
}

/// One packet's outcome at the arm boundary.
struct StepOut {
    dip: Option<Dip>,
    stamp: Option<u8>,
}

/// The uniform arm interface the driver speaks — the harness-side mirror
/// of `sr_algo`'s `ConnState` + `Steering` split, object-safe so all
/// four arms share one drive loop.
trait CompareArm {
    /// Install a full target membership (the arms translate to their own
    /// update machinery — SilkRoad diffs into `PoolUpdate` deltas).
    fn update_pool(&mut self, dips: &[Dip], now: Nanos);
    /// Advance time: settle update windows, drain install pipelines,
    /// expire idle entries.
    fn advance(&mut self, now: Nanos);
    /// Process one packet. `tag` is the stamp the edge recovered from
    /// the flow's previous packets, if the design stamps at all.
    fn process(&mut self, pkt: &PacketMeta, tag: Option<u8>, now: Nanos) -> StepOut;
    /// Close a connection (FIN/RST semantics, outside the PCC count).
    fn close(&mut self, t: &FiveTuple, now: Nanos);
    /// Installed entries right now.
    fn entries(&self) -> usize;
    /// Per-connection state bytes right now (SRAM-packed).
    fn state_bytes(&self) -> u64;
    /// Steering-table bytes right now.
    fn table_bytes(&self) -> u64;
    /// Entries installed so far.
    fn inserts(&self) -> u64;
    /// Audited false-positive hits so far.
    fn false_hits(&self) -> u64;
    /// Analytic bits per installed entry (IPv4).
    fn model_bits(&self) -> u32;
}

/// The paper's design on its production chassis: learning filter, 3-step
/// updates, TransitTable — the same code path every other bench drives.
struct SilkroadArm {
    sw: SilkRoadSwitch,
}

impl SilkroadArm {
    fn new(p: &CompareParams) -> SilkroadArm {
        let cfg = SilkRoadConfig {
            conn_capacity: (p.flows_per_wave as usize) * 8,
            transit_bytes: 4_096,
            ..Default::default()
        };
        let mut sw = SilkRoadSwitch::new(cfg);
        sw.add_vip(vip(), (1..=16).map(dip).collect())
            .expect("compare VIP registers");
        SilkroadArm { sw }
    }
}

impl CompareArm for SilkroadArm {
    fn update_pool(&mut self, dips: &[Dip], now: Nanos) {
        // Full membership → delta ops: removals, then additions, each fed
        // to the 3-step machine (extra ops queue behind the active update).
        let current: Vec<Dip> = self
            .sw
            .current_dips(vip())
            .map(<[Dip]>::to_vec)
            .unwrap_or_default();
        for d in current.iter().filter(|d| !dips.contains(d)) {
            let _ = self.sw.request_update(vip(), PoolUpdate::Remove(*d), now);
        }
        for d in dips.iter().filter(|d| !current.contains(d)) {
            let _ = self.sw.request_update(vip(), PoolUpdate::Add(*d), now);
        }
    }

    fn advance(&mut self, now: Nanos) {
        self.sw.advance(now);
        self.sw.expire_idle(now);
    }

    fn process(&mut self, pkt: &PacketMeta, _tag: Option<u8>, now: Nanos) -> StepOut {
        let d = self.sw.process_packet(pkt, now);
        StepOut {
            dip: d.dip,
            stamp: None,
        }
    }

    fn close(&mut self, t: &FiveTuple, now: Nanos) {
        self.sw.close_connection(t, now);
    }

    fn entries(&self) -> usize {
        self.sw.conn_count()
    }

    fn state_bytes(&self) -> u64 {
        self.sw.memory().conn_table
    }

    fn table_bytes(&self) -> u64 {
        let m = self.sw.memory();
        m.vip_table + m.dip_pool_table
    }

    fn inserts(&self) -> u64 {
        self.sw.stats().installs
    }

    fn false_hits(&self) -> u64 {
        self.sw.stats().digest_false_hits
    }

    fn model_bits(&self) -> u32 {
        let cfg = self.sw.config();
        conn_entry_bits(
            ConnStateDesign::DigestVersion {
                digest_bits: cfg.digest_bits,
                version_bits: cfg.version_bits,
            },
            AddrFamily::V4,
        )
    }
}

/// Any trait-composed zoo member (`AlgoEngine` over its `ConnState` and
/// `Steering` halves).
struct EngineArm<C: ConnState, S: Steering> {
    e: AlgoEngine<C, S>,
}

impl<C: ConnState, S: Steering> EngineArm<C, S> {
    fn new(mut e: AlgoEngine<C, S>) -> EngineArm<C, S> {
        assert!(
            e.add_vip(vip(), &(1..=16).map(dip).collect::<Vec<_>>()),
            "compare VIP registers"
        );
        EngineArm { e }
    }
}

impl<C: ConnState, S: Steering> CompareArm for EngineArm<C, S> {
    fn update_pool(&mut self, dips: &[Dip], now: Nanos) {
        self.e.update_pool(vip(), dips, now);
    }

    fn advance(&mut self, now: Nanos) {
        self.e.advance(now);
    }

    fn process(&mut self, pkt: &PacketMeta, tag: Option<u8>, now: Nanos) -> StepOut {
        let d = self.e.process(pkt, tag, now);
        StepOut {
            dip: d.dip,
            stamp: d.stamp,
        }
    }

    fn close(&mut self, t: &FiveTuple, now: Nanos) {
        // Engine arms express closes on the packet path (FIN); the tag is
        // withheld so version-in-packet designs hit their state and free
        // any pinned entry instead of riding the tagged fast path.
        self.e.process(&PacketMeta::fin(*t), None, now);
    }

    fn entries(&self) -> usize {
        self.e.conn_state().entries()
    }

    fn state_bytes(&self) -> u64 {
        self.e.conn_state().state_bytes()
    }

    fn table_bytes(&self) -> u64 {
        self.e.steering().table_bytes()
    }

    fn inserts(&self) -> u64 {
        self.e.stats().inserts
    }

    fn false_hits(&self) -> u64 {
        self.e.stats().false_hits
    }

    fn model_bits(&self) -> u32 {
        conn_entry_bits(self.e.conn_state().design(), AddrFamily::V4)
    }
}

/// Round-trip one stamped tag through a real frame: build, stamp, parse
/// back, verify checksums, confirm the steering tuple is untouched.
fn stamp_round_trips(tuple: &FiveTuple, version: u8) -> bool {
    let spec = sr_wire::FrameSpec {
        tuple: *tuple,
        flags: TcpFlags::NONE,
        wire_len: 0,
        seq: 0,
    };
    let mut buf = [0u8; 256];
    let Ok(n) = sr_wire::build_frame(&spec, &mut buf) else {
        return false;
    };
    let Some(frame) = buf.get_mut(..n) else {
        return false;
    };
    if sr_wire::stamp_version(frame, version).is_err() {
        return false;
    }
    sr_wire::parse_version(frame) == Ok(version)
        && sr_wire::verify_checksums(frame).is_ok()
        && sr_wire::parse_frame(frame).is_ok_and(|p| p.meta.tuple == *tuple)
}

/// Mutable driver state shared by every packet step.
struct DriveCtx {
    /// Edge stamp memory: the tag each flow's packets would carry.
    stamps: FxHashMap<FiveTuple, u8>,
    /// First DIP per connection + whether it ever changed.
    first: FxHashMap<FiveTuple, (Dip, bool)>,
    packets: u64,
    stamp_checks: u64,
    stamp_failures: u64,
}

impl DriveCtx {
    fn step(&mut self, arm: &mut dyn CompareArm, pkt: &PacketMeta, now: Nanos) {
        let tag = self.stamps.get(&pkt.tuple).copied();
        let out = arm.process(pkt, tag, now);
        self.packets += 1;
        if let Some(s) = out.stamp {
            let fresh = self.stamps.insert(pkt.tuple, s) != Some(s);
            if fresh && self.stamp_checks < STAMP_SPOT_CHECKS {
                self.stamp_checks += 1;
                if !stamp_round_trips(&pkt.tuple, s) {
                    self.stamp_failures += 1;
                }
            }
        }
        if let Some(d) = out.dip {
            match self.first.entry(pkt.tuple) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let v = e.get_mut();
                    if v.0 != d {
                        v.1 = true;
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((d, false));
                }
            }
        }
    }
}

/// What one arm's drive produced (measured halves of an [`AlgoPoint`]).
struct DriveOut {
    packets: u64,
    pcc_violations: u64,
    stamp_checks: u64,
    stamp_failures: u64,
    entries_peak: usize,
    live_peak: u64,
    state_bytes_peak: u64,
    live_at_state_peak: u64,
}

/// Drive the prebuilt workload plus steady passes through one arm.
fn drive(
    arm: &mut dyn CompareArm,
    p: &CompareParams,
    waves: &[Wave],
    steady: &[PacketMeta],
) -> DriveOut {
    let mut ctx = DriveCtx {
        stamps: FxHashMap::default(),
        first: FxHashMap::default(),
        packets: 0,
        stamp_checks: 0,
        stamp_failures: 0,
    };
    let mut live = 0u64;
    let mut entries_peak = 0usize;
    let mut live_peak = 0u64;
    let mut state_bytes_peak = 0u64;
    let mut live_at_state_peak = 0u64;
    // Per-wave drain budget mirroring the churn bench: the learning
    // filter's notification latency plus the switch CPU's install time
    // for a full cohort, with slack. Doubles as the update-window /
    // settle horizon for the window-pinning designs.
    let drain = Duration::from_millis(1)
        + Duration::from_micros(5 * u64::from(p.flows_per_wave))
        + Duration::from_millis(1);
    let mut now = Nanos::ZERO;
    for wave in waves {
        if let Some(m) = &wave.update {
            arm.update_pool(m, now);
        }
        for pkt in &wave.syns {
            ctx.step(arm, pkt, now);
        }
        live += wave.syns.len() as u64;
        now = now.saturating_add(drain);
        arm.advance(now);
        for pkt in &wave.data {
            ctx.step(arm, pkt, now);
        }
        // Sample at the wave's population peak: every cohort installed,
        // nothing closed yet.
        entries_peak = entries_peak.max(arm.entries());
        live_peak = live_peak.max(live);
        let state = arm.state_bytes();
        if state > state_bytes_peak {
            state_bytes_peak = state;
            live_at_state_peak = live;
        }
        for t in &wave.closes {
            arm.close(t, now);
            ctx.stamps.remove(t);
        }
        live -= wave.closes.len() as u64;
        now = now.saturating_add(Duration::from_millis(1));
    }
    // Steady state: passes over the settled population. Decisions still
    // feed the PCC check (a design that remaps settled flows must show
    // it), but each connection counts at most once.
    for _ in 0..p.steady_passes {
        for pkt in steady {
            ctx.step(arm, pkt, now);
        }
    }
    DriveOut {
        packets: ctx.packets,
        pcc_violations: ctx.first.values().filter(|v| v.1).count() as u64,
        stamp_checks: ctx.stamp_checks,
        stamp_failures: ctx.stamp_failures,
        entries_peak,
        live_peak,
        state_bytes_peak,
        live_at_state_peak,
    }
}

/// Build one algorithm's arm at SilkRoad-comparable parameters.
fn build_arm(algo: AlgoName, p: &CompareParams) -> Box<dyn CompareArm> {
    let seed = 7;
    let settle = Duration::from_millis(1)
        + Duration::from_micros(5 * u64::from(p.flows_per_wave))
        + Duration::from_millis(1);
    match algo {
        AlgoName::Silkroad => Box::new(SilkroadArm::new(p)),
        AlgoName::Concury => Box::new(EngineArm::new(concury_lb(seed, AddrFamily::V4, settle))),
        AlgoName::Cucotrack => Box::new(EngineArm::new(cucotrack_lb(
            seed,
            AddrFamily::V4,
            (p.flows_per_wave as usize) * 8,
            Duration::from_secs(30),
        ))),
        AlgoName::Hybrid => Box::new(EngineArm::new(hybrid_lb(seed, AddrFamily::V4, settle))),
    }
}

/// Measure one algorithm's full row.
fn measure(algo: AlgoName, p: &CompareParams, waves: &[Wave], steady: &[PacketMeta]) -> AlgoPoint {
    let mut arm = build_arm(algo, p);
    let d = drive(arm.as_mut(), p, waves, steady);
    let layout = algo.layout();
    let report = layout.check(&ChipSpec::tofino_class());
    let setups = u64::from(p.waves) * u64::from(p.flows_per_wave);
    AlgoPoint {
        algo,
        packets: d.packets,
        setups,
        inserts: arm.inserts(),
        insert_fraction: arm.inserts() as f64 / setups.max(1) as f64,
        entries_peak: d.entries_peak,
        live_peak: d.live_peak,
        state_bytes_peak: d.state_bytes_peak,
        live_at_state_peak: d.live_at_state_peak,
        sram_bytes_per_conn: d.state_bytes_peak as f64 / d.live_at_state_peak.max(1) as f64,
        model_bits_per_entry: arm.model_bits(),
        table_bytes: arm.table_bytes(),
        pcc_violations: d.pcc_violations,
        false_hits: arm.false_hits(),
        stamp_checks: d.stamp_checks,
        stamp_failures: d.stamp_failures,
        placeable: report.is_placeable(),
        layout_sram_bytes: layout.resource_usage().sram_bytes as u64,
    }
}

/// Run a comparison with explicit parameters (tests use tiny workloads).
/// `only` restricts the matrix to a single algorithm (`--algo`).
pub fn run_with(params: CompareParams, smoke: bool, only: Option<AlgoName>) -> CompareBench {
    let waves = build_waves(&params);
    let steady = build_steady(&params);
    let algos: Vec<AlgoName> = match only {
        Some(a) => vec![a],
        None => AlgoName::all().to_vec(),
    };
    let points = algos
        .into_iter()
        .map(|a| measure(a, &params, &waves, &steady))
        .collect();
    CompareBench {
        smoke,
        params,
        points,
    }
}

/// Run the committed full or smoke profile.
pub fn run(smoke: bool, only: Option<AlgoName>) -> CompareBench {
    run_with(compare_params(smoke), smoke, only)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CompareParams {
        // 5 waves puts the two updates at waves 1 and 3, so the
        // window-pinning designs see a minority of cohorts born inside a
        // transition window (2/5) — the same shape as the real profiles.
        CompareParams {
            waves: 5,
            flows_per_wave: 128,
            steady_passes: 2,
        }
    }

    /// A full-membership update lands the same current pool and version
    /// as the equivalent explicit deltas.
    #[test]
    fn full_membership_update_matches_explicit_deltas() {
        let mut a = SilkroadArm::new(&tiny());
        let mut b = SilkroadArm::new(&tiny());
        let before = a.sw.current_version(vip()).unwrap();
        a.update_pool(&(2..=18).map(dip).collect::<Vec<_>>(), Nanos(10));
        for op in [
            PoolUpdate::Remove(dip(1)),
            PoolUpdate::Add(dip(17)),
            PoolUpdate::Add(dip(18)),
        ] {
            b.sw.request_update(vip(), op, Nanos(10)).unwrap();
        }
        assert_eq!(a.sw.current_dips(vip()), b.sw.current_dips(vip()));
        assert_eq!(a.sw.current_version(vip()), b.sw.current_version(vip()));
        assert_ne!(a.sw.current_version(vip()), Some(before));
    }

    #[test]
    fn tiny_matrix_has_the_acceptance_shape() {
        let b = run_with(tiny(), true, None);
        assert_eq!(b.points.len(), 4);
        assert!(b.has_all());
        let silk = b.point(AlgoName::Silkroad).unwrap();
        let conc = b.point(AlgoName::Concury).unwrap();
        let cuco = b.point(AlgoName::Cucotrack).unwrap();
        let hyb = b.point(AlgoName::Hybrid).unwrap();
        // SilkRoad: every flow pinned, zero PCC violations — the paper's
        // claim, now measured against three competitors.
        assert_eq!(silk.pcc_violations, 0, "SilkRoad broke PCC: {silk:#?}");
        assert!(silk.insert_fraction > 0.9, "SilkRoad pins everything");
        assert!(silk.sram_bytes_per_conn > 0.0);
        // Concury: per-connection SRAM collapses to the transition
        // window; the stamped tags survive the wire round trip.
        assert!(
            conc.sram_bytes_per_conn < silk.sram_bytes_per_conn,
            "concury {} vs silkroad {}",
            conc.sram_bytes_per_conn,
            silk.sram_bytes_per_conn
        );
        assert!(conc.insert_fraction < 0.5, "only window newborns pin");
        assert!(conc.stamp_checks > 0, "no stamps were spot-checked");
        // CuCoTrack: denser entries, but the aliases are real and every
        // one is audited.
        assert!(cuco.false_hits > 0, "dense filter never aliased: {cuco:#?}");
        assert!(cuco.model_bits_per_entry < silk.model_bits_per_entry);
        // Hybrid: only update-crossing flows pin entries.
        assert!(hyb.entries_peak > 0, "window pinning never fired");
        assert!(hyb.insert_fraction < 0.5);
        assert_eq!(b.stamp_failures(), 0);
        assert!(b.points.iter().all(|p| p.placeable), "a layout failed");
        for p in &b.points {
            assert_eq!(p.setups, 5 * 128);
            assert!(p.live_peak >= p.live_at_state_peak);
        }
        let json = b.to_json();
        for key in [
            "\"bench\": \"compare\"",
            "\"algo\": \"silkroad\"",
            "\"algo\": \"concury\"",
            "\"algo\": \"cucotrack\"",
            "\"algo\": \"hybrid\"",
            "\"sram_bytes_per_conn\"",
            "\"model_bits_per_entry\"",
            "\"stamp_failures\": 0",
            "\"placeable\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn single_algo_filter_runs_one_row() {
        let b = run_with(tiny(), true, Some(AlgoName::Concury));
        assert_eq!(b.points.len(), 1);
        assert_eq!(b.points[0].algo, AlgoName::Concury);
        assert!(!b.has_all());
    }
}
