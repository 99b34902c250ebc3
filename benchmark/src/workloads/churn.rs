//! `churn`: waves of new connections through the whole set-up path.
//!
//! Each wave opens a cohort (SYNs, a tenth of them retransmitted, in one
//! shuffled burst), lets the control plane install it, sends every
//! cohort member its first data packet, and retires the cohort opened
//! [`LIFETIME`] waves earlier (last data packet, FIN, close). The live set
//! therefore stays near `LIFETIME + 1` cohorts — 16 K connections at full
//! size — and ConnTable inserts and removes run beside its reads.
//!
//! The wave schedule is a cycle of [`CYCLE`] pre-generated waves, replayed
//! round and round: a cohort is long closed before its 5-tuples come up
//! again (port reuse), so every cycle does the same work on the same
//! inputs and the timed loop generates nothing.

use super::{judge, register_vips, Counters, Layers, Params, Probe, Workload};
use crate::gen::{self, BATCH};
use crate::layers::Mirror;
use crate::oracle::Oracle;
use crate::trace::{Call, Meter};
use silkroad::{ForwardDecision, SilkRoadConfig, SilkRoadSwitch};
use sr_types::{AddrFamily, Duration, FiveTuple, Nanos, PacketMeta};

/// Connections opened per wave at full size.
const COHORT: usize = 1_024;
/// Waves a connection lives.
const LIFETIME: usize = 15;
/// Waves in the replayed cycle (the unit).
const CYCLE: usize = 64;
/// One SYN in this many is sent twice.
const RETRANSMIT_ONE_IN: usize = 10;

/// Packets with their per-packet flow hashes (the digest's per-flow half).
struct Burst {
    pkts: Vec<PacketMeta>,
    flow_hash: Vec<u64>,
}

impl Burst {
    fn of(pkts: Vec<PacketMeta>, hasher: &silkroad::FlowSteering) -> Burst {
        let flow_hash = pkts.iter().map(|p| hasher.flow_hash(&p.tuple)).collect();
        Burst { pkts, flow_hash }
    }
}

struct Wave {
    /// This wave's cohort.
    cohort: Vec<FiveTuple>,
    /// The cohort's SYNs plus retransmissions, shuffled.
    syns: Burst,
    /// First data packet of every member of this cohort (the first
    /// ConnTable hit after the install), shuffled.
    first_data: Burst,
    /// Last data packet of every member of the retiring cohort, shuffled.
    last_data: Burst,
    /// FINs of the retiring cohort.
    fins: Burst,
}

pub struct Churn {
    sw: SilkRoadSwitch,
    cfg: SilkRoadConfig,
    waves: Vec<Wave>,
    /// Waves run so far (set-up included).
    wave_no: u64,
    now: Nanos,
    oracle: Oracle,
    out: Vec<ForwardDecision>,
    digests: Vec<u64>,
    probe: Probe,
    input_hash: u64,
}

impl Churn {
    pub fn setup(p: Params) -> Churn {
        let cohort = COHORT / p.scale as usize;
        let cfg = gen::paper_cfg((LIFETIME + 2) * cohort);
        let hasher = gen::flow_hasher(&cfg);
        let mut rng = gen::Rng::new(p.seed ^ 0x6368_7572);
        let cohorts: Vec<Vec<FiveTuple>> = (0..CYCLE)
            .map(|j| {
                (0..cohort)
                    .map(|f| gen::flow(p.seed, (j * cohort + f) as u64, false))
                    .collect()
            })
            .collect();
        let mut input_hash = 0u64;
        let waves: Vec<Wave> = (0..CYCLE)
            .map(|j| {
                let mine = &cohorts[j];
                let retiring = &cohorts[(j + CYCLE - LIFETIME) % CYCLE];
                let mut syns: Vec<PacketMeta> = mine.iter().map(|t| PacketMeta::syn(*t)).collect();
                for _ in 0..cohort / RETRANSMIT_ONE_IN {
                    let again = mine[rng.below(cohort as u64) as usize];
                    syns.push(PacketMeta::syn(again));
                }
                rng.shuffle(&mut syns);
                let mut data_of = |cohort: &[FiveTuple]| {
                    let mut d: Vec<PacketMeta> =
                        cohort.iter().map(|t| PacketMeta::data(*t, 64)).collect();
                    rng.shuffle(&mut d);
                    d
                };
                let (first_data, last_data) = (data_of(mine), data_of(retiring));
                let fins: Vec<PacketMeta> = retiring.iter().map(|t| PacketMeta::fin(*t)).collect();
                for part in [&syns, &first_data, &last_data, &fins] {
                    input_hash = input_hash.rotate_left(7) ^ gen::trace_hash(part);
                }
                Wave {
                    cohort: mine.clone(),
                    syns: Burst::of(syns, &hasher),
                    first_data: Burst::of(first_data, &hasher),
                    last_data: Burst::of(last_data, &hasher),
                    fins: Burst::of(fins, &hasher),
                }
            })
            .collect();

        let mut sw = SilkRoadSwitch::new(cfg.clone());
        register_vips(&mut sw, |_| AddrFamily::V4);
        let mut w = Churn {
            sw,
            cfg,
            waves,
            wave_no: 0,
            now: Nanos::ZERO,
            oracle: Oracle::new(),
            out: Vec::with_capacity(BATCH),
            digests: Vec::new(),
            probe: Probe::default(),
            input_hash,
        };
        // Warm cycle: brings the live set to its steady size (and the
        // tables, buffers and caches with it) before anything is timed.
        let mut warm = Meter::start(1.0, false);
        w.run_unit(&mut warm);
        w.digests.clear();
        w.probe = Probe::default();
        w
    }

    /// Send one burst in batches, oracle and digest on every decision.
    fn send(
        sw: &mut SilkRoadSwitch,
        burst: &Burst,
        now: Nanos,
        m: &mut Meter,
        out: &mut Vec<ForwardDecision>,
        oracle: &mut Oracle,
        digest: &mut u64,
    ) {
        for (chunk, hashes) in burst.pkts.chunks(BATCH).zip(burst.flow_hash.chunks(BATCH)) {
            m.begin_request();
            out.clear();
            m.call(Call::ProcessBatch, chunk.len() as u32, true, || {
                sw.process_batch_into(chunk, now, out)
            });
            m.end_request();
            *digest = digest.wrapping_add(judge(oracle, chunk, out, hashes));
        }
    }
}

impl Workload for Churn {
    fn run_unit(&mut self, m: &mut Meter) {
        let mut digest = 0u64;
        for _ in 0..CYCLE {
            let j = (self.wave_no % CYCLE as u64) as usize;
            let wave = &self.waves[j];
            // The cohort retiring now was opened LIFETIME waves ago; the
            // first waves after start-up have none.
            let retiring = (self.wave_no >= LIFETIME as u64)
                .then(|| &self.waves[(j + CYCLE - LIFETIME) % CYCLE].cohort);

            Self::send(
                &mut self.sw,
                &wave.syns,
                self.now,
                m,
                &mut self.out,
                &mut self.oracle,
                &mut digest,
            );
            self.probe
                .learn_depth
                .push(self.sw.learn_queue_depth() as u32);

            // Simulated time for the learning filter to time out (1 ms)
            // and the switch CPU to install the burst (5 µs each).
            self.now = self.now.saturating_add(
                Duration::from_millis(2) + Duration::from_micros(5 * wave.syns.pkts.len() as u64),
            );
            let (sw, now) = (&mut self.sw, self.now);
            m.begin_request();
            m.call(Call::Advance, 0, false, || sw.advance(now));
            m.end_request();

            let last = retiring.map(|_| [&wave.last_data, &wave.fins]);
            for burst in std::iter::once(&wave.first_data).chain(last.into_iter().flatten()) {
                Self::send(
                    &mut self.sw,
                    burst,
                    self.now,
                    m,
                    &mut self.out,
                    &mut self.oracle,
                    &mut digest,
                );
            }
            if let Some(retiring) = retiring {
                let (sw, now) = (&mut self.sw, self.now);
                m.begin_request();
                m.call(Call::CloseConnection, retiring.len() as u32, false, || {
                    for t in retiring {
                        sw.close_connection(t, now);
                    }
                });
                m.end_request();
                for t in retiring {
                    self.oracle.close(t);
                }
            }
            self.probe.fallback_entries_peak = self
                .probe
                .fallback_entries_peak
                .max(self.sw.stats().fallback_entries);
            self.now = self.now.saturating_add(Duration::from_millis(1));
            self.wave_no += 1;
        }
        self.digests.push(digest);
    }

    fn reference_units(&self) -> usize {
        1
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
        // The mirror holds the steady live set; the remaining cohorts come
        // and go beside it, as they do in the switch.
        let resident: Vec<FiveTuple> = self.waves[..=LIFETIME]
            .iter()
            .flat_map(|w| w.cohort.iter().copied())
            .collect();
        let cohorts: Vec<Vec<FiveTuple>> = self.waves[LIFETIME + 1..]
            .iter()
            .map(|w| w.cohort.clone())
            .collect();
        let mut probes = resident.clone();
        gen::Rng::new(self.input_hash).shuffle(&mut probes);
        let mut mirror = Mirror::new(&self.cfg);
        mirror.table(&resident, &cohorts, &probes, min_secs, &mut out);
        mirror.hash(&probes, min_secs, &mut out);
        mirror.pool_select(&probes, |_| AddrFamily::V4, min_secs, &mut out);
        // No pool updates here, so the TransitTable itself stays off the
        // path; the bloom hashes are what an update would add per miss.
        mirror.bloom_hash(&probes, min_secs, &mut out);
        out
    }
}
