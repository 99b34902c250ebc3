//! `update-mix`: established traffic, a trickle of arrivals, and DIP-pool
//! updates landing underneath them.
//!
//! Traffic comes in rounds of [`ROUND`] packets: mostly data packets of
//! the established flows (a seeded permutation, walked cyclically), plus
//! [`ARRIVALS`] SYNs of new connections, each arrival's first data packet
//! [`FIRST_DATA_AFTER`] rounds later (by when its install has completed)
//! and its last [`ARRIVAL_LIFETIME`] rounds later, after which it is
//! closed. Every [`UPDATE_EVERY`] rounds one VIP, round-robin, has a DIP
//! removed or — on the VIP's next turn — added back, so the 3-step update
//! protocol, the version ring and the TransitTable bloom all do real
//! work. A round lasts [`ROUND_SIM`] of simulated time, spread evenly
//! over its batches: at full size that is 62 500 arrivals a second, a
//! third of what the modelled switch CPU (200 K inserts/s) can install, so
//! installs keep up and complete within a round or so.
//!
//! Every packet is judged by the oracle. The schedule never sends a data
//! packet of a connection whose install is still pending: only then can a
//! 256-byte bloom's false positives (which the paper accepts) remap a
//! packet, and a benchmark workload must be one on which nothing fails.
//! Removing and re-adding the *same* DIP keeps §4.2 version reuse from
//! substituting a different DIP into a version live connections use.

use super::{establish, judge, register_vips, Counters, Layers, Params, Probe, Workload};
use crate::gen::{self, BATCH, DIPS_PER_VIP, VIPS};
use crate::layers::Mirror;
use crate::oracle::Oracle;
use crate::trace::{Call, Meter};
use silkroad::{ForwardDecision, PoolUpdate, SilkRoadConfig, SilkRoadSwitch, UpdatePhase};
use sr_types::{AddrFamily, Duration, FiveTuple, Nanos, PacketMeta, Vip};

const ESTABLISHED: usize = 65_536;
const ROUND: usize = 4_096;
const ARRIVALS: usize = 256;
const FIRST_DATA_AFTER: usize = 3;
const ARRIVAL_LIFETIME: usize = 16;
const UPDATE_EVERY: usize = 8;
/// Rounds in a unit: one update for each VIP.
const CYCLE: usize = UPDATE_EVERY * VIPS as usize;
const ROUND_SIM: Duration = Duration(4_096_000);

struct Round {
    pkts: Vec<PacketMeta>,
    flow_hash: Vec<u64>,
    /// Arrivals this round closes, once its packets are through.
    closing: Vec<FiveTuple>,
}

pub struct UpdateMix {
    sw: SilkRoadSwitch,
    cfg: SilkRoadConfig,
    established: Vec<FiveTuple>,
    /// The steady-state cycle, replayed unit after unit.
    rounds: Vec<Round>,
    /// Rounds run so far (the warm cycle included).
    round_no: u64,
    now: Nanos,
    /// The update in flight: its VIP and when it was requested.
    in_flight: Option<(Vip, Nanos)>,
    oracle: Oracle,
    out: Vec<ForwardDecision>,
    digests: Vec<u64>,
    probe: Probe,
    input_hash: u64,
}

/// The arrival cohort opened in round `j` of any cycle.
fn cohort(seed: u64, j: usize, arrivals: usize) -> Vec<FiveTuple> {
    let base = (1u64 << 22) + (j * arrivals) as u64;
    (0..arrivals as u64)
        .map(|f| gen::flow(seed, base + f, false))
        .collect()
}

impl UpdateMix {
    pub fn setup(p: Params) -> UpdateMix {
        let scale = p.scale as usize;
        let (n_est, round_len, arrivals) = (ESTABLISHED / scale, ROUND / scale, ARRIVALS / scale);
        let cfg = gen::paper_cfg(n_est + (ARRIVAL_LIFETIME + 2) * arrivals);
        let hasher = gen::flow_hasher(&cfg);
        let established: Vec<FiveTuple> = (0..n_est as u64)
            .map(|g| gen::flow(p.seed, g, false))
            .collect();
        let mut order: Vec<u32> = (0..n_est as u32).collect();
        let mut rng = gen::Rng::new(p.seed ^ 0x7570_646d);
        rng.shuffle(&mut order);
        let mut cursor = 0usize;

        // Two cycles are generated: the first, run during set-up, has no
        // earlier cohorts to send data for or to close (established
        // traffic fills the gap); the second is the steady state kept for
        // the timed units.
        let mut input_hash = 0u64;
        let mut make_round = |abs: usize| {
            let j = abs % CYCLE;
            let back = |rounds: usize| (abs >= rounds).then(|| (j + CYCLE - rounds) % CYCLE);
            let mut pkts: Vec<PacketMeta> = cohort(p.seed, j, arrivals)
                .iter()
                .map(|t| PacketMeta::syn(*t))
                .collect();
            let mut closing = Vec::new();
            if let Some(c) = back(FIRST_DATA_AFTER) {
                pkts.extend(
                    cohort(p.seed, c, arrivals)
                        .iter()
                        .map(|t| PacketMeta::data(*t, 64)),
                );
            }
            if let Some(c) = back(ARRIVAL_LIFETIME) {
                closing = cohort(p.seed, c, arrivals);
                pkts.extend(closing.iter().map(|t| PacketMeta::data(*t, 64)));
            }
            while pkts.len() < round_len {
                let t = established[order[cursor % n_est] as usize];
                cursor += 1;
                pkts.push(PacketMeta::data(t, 64));
            }
            rng.shuffle(&mut pkts);
            input_hash = input_hash.rotate_left(7) ^ gen::trace_hash(&pkts);
            Round {
                flow_hash: pkts.iter().map(|p| hasher.flow_hash(&p.tuple)).collect(),
                pkts,
                closing,
            }
        };
        let warm: Vec<Round> = (0..CYCLE).map(&mut make_round).collect();
        let rounds: Vec<Round> = (CYCLE..2 * CYCLE).map(&mut make_round).collect();

        let mut sw = SilkRoadSwitch::new(cfg.clone());
        register_vips(&mut sw, |_| AddrFamily::V4);
        let mut oracle = Oracle::new();
        let syns: Vec<PacketMeta> = established.iter().map(|t| PacketMeta::syn(*t)).collect();
        let now = establish(&mut sw, &syns, &mut oracle, Nanos::ZERO);
        let mut w = UpdateMix {
            sw,
            cfg,
            established,
            rounds: warm,
            round_no: 0,
            now,
            in_flight: None,
            oracle,
            out: Vec::with_capacity(BATCH),
            digests: Vec::new(),
            probe: Probe::default(),
            input_hash,
        };
        let mut meter = Meter::start(1.0, false);
        w.run_unit(&mut meter);
        w.rounds = rounds;
        w.digests.clear();
        w.probe = Probe::default();
        w
    }

    /// The `u`-th update of the run: VIPs take turns; a VIP's turns
    /// alternate between losing its last DIP and getting it back.
    fn update_op(u: u64) -> (Vip, PoolUpdate) {
        let v = (u % u64::from(VIPS)) as u32;
        let dip = gen::dip(v, DIPS_PER_VIP - 1, AddrFamily::V4);
        let op = if (u / u64::from(VIPS)).is_multiple_of(2) {
            PoolUpdate::Remove(dip)
        } else {
            PoolUpdate::Add(dip)
        };
        (gen::vip(v, AddrFamily::V4), op)
    }

    /// At a batch boundary: sample the bloom while an update holds it, and
    /// record the update's simulated duration once its VIP reads idle.
    fn poll_update(
        sw: &SilkRoadSwitch,
        in_flight: &mut Option<(Vip, Nanos)>,
        probe: &mut Probe,
        now: Nanos,
    ) {
        let Some((vip, requested)) = *in_flight else {
            return;
        };
        probe.transit_fill_peak = probe.transit_fill_peak.max(sw.transit_fill_ratio());
        if sw.update_phase(vip) == Some(UpdatePhase::Idle) {
            probe
                .update_done_sim_us
                .push(now.since(requested).0 as f64 / 1e3);
            let live = sw.version_counters(vip).map_or(0, |c| c.3 as u64);
            probe.version_live_peak = probe.version_live_peak.max(live);
            *in_flight = None;
        }
    }
}

impl Workload for UpdateMix {
    fn run_unit(&mut self, m: &mut Meter) {
        let mut digest = 0u64;
        for j in 0..CYCLE {
            let batches = self.rounds[j].pkts.len().div_ceil(BATCH) as u64;
            let step = Duration(ROUND_SIM.0 / batches);
            if self.round_no.is_multiple_of(UPDATE_EVERY as u64) {
                let (vip, op) = Self::update_op(self.round_no / UPDATE_EVERY as u64);
                let (sw, now) = (&mut self.sw, self.now);
                m.begin_request();
                m.call(Call::RequestUpdate, 1, false, || {
                    sw.request_update(vip, op, now)
                        .expect("the plan's VIPs are registered")
                });
                m.end_request();
                // A still-unfinished earlier update would make this one
                // queue behind it; the completion poll follows the newest.
                self.in_flight = Some((vip, self.now));
                Self::poll_update(&self.sw, &mut self.in_flight, &mut self.probe, self.now);
            }
            let round = &self.rounds[j];
            for (chunk, hashes) in round.pkts.chunks(BATCH).zip(round.flow_hash.chunks(BATCH)) {
                let (sw, out, now) = (&mut self.sw, &mut self.out, self.now);
                m.begin_request();
                m.call(Call::Advance, 0, false, || sw.advance(now));
                out.clear();
                m.call(Call::ProcessBatch, chunk.len() as u32, true, || {
                    sw.process_batch_into(chunk, now, out)
                });
                m.end_request();
                digest = digest.wrapping_add(judge(&mut self.oracle, chunk, out, hashes));
                self.probe
                    .learn_depth
                    .push(self.sw.learn_queue_depth() as u32);
                self.now = self.now.saturating_add(step);
                Self::poll_update(&self.sw, &mut self.in_flight, &mut self.probe, self.now);
            }
            if !round.closing.is_empty() {
                let (sw, now) = (&mut self.sw, self.now);
                m.begin_request();
                m.call(
                    Call::CloseConnection,
                    round.closing.len() as u32,
                    false,
                    || {
                        for t in &round.closing {
                            sw.close_connection(t, now);
                        }
                    },
                );
                m.end_request();
                for t in &round.closing {
                    self.oracle.close(t);
                }
            }
            self.probe.fallback_entries_peak = self
                .probe
                .fallback_entries_peak
                .max(self.sw.stats().fallback_entries);
            self.round_no += 1;
        }
        self.digests.push(digest);
    }

    fn reference_units(&self) -> usize {
        // One cycle of removes and one of adds.
        2
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn unit_digests(&self) -> &[u64] {
        &self.digests
    }

    fn counters(&mut self) -> Counters {
        super::counters_of(&self.sw)
    }

    fn take_probe(&mut self) -> Probe {
        std::mem::take(&mut self.probe)
    }

    fn input_hash(&self) -> u64 {
        self.input_hash
    }

    fn replay_layers(&mut self, min_secs: f64) -> Layers {
        let mut out = Layers::default();
        let arrivals = self.rounds[0].closing.len().max(1);
        let seed_cohorts: Vec<Vec<FiveTuple>> = self
            .rounds
            .iter()
            .take(ARRIVAL_LIFETIME)
            .map(|r| r.closing.clone())
            .collect();
        let mut probes = self.established.clone();
        gen::Rng::new(self.input_hash).shuffle(&mut probes);
        let mut mirror = Mirror::new(&self.cfg);
        mirror.table(
            &self.established,
            &seed_cohorts,
            &probes,
            min_secs,
            &mut out,
        );
        mirror.hash(&probes, min_secs, &mut out);
        mirror.pool_select(&probes, |_| AddrFamily::V4, min_secs, &mut out);
        mirror.bloom_hash(&probes, min_secs, &mut out);
        // An update holds the filter for about two rounds; a sixteenth of
        // the arrivals in that time belong to its VIP.
        mirror.transit(
            &probes,
            (2 * arrivals / VIPS as usize).max(1),
            min_secs,
            &mut out,
        );
        out
    }
}
