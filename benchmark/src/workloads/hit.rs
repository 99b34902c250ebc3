//! `hit-64k`, `hit-1m` and `stream-64k`: established flows, data packets
//! in a seeded permutation.
//!
//! The working set is the only difference between the two `hit`
//! workloads, and the front end (one switch called directly vs. the
//! threaded engine) the only difference between `hit-64k` and
//! `stream-64k`. The traffic is stationary — every pass over the trace
//! must produce the decisions of the oracle-checked warm pass — so the
//! timed passes are checked by digest and the window stays free of oracle
//! work that would disturb the cache regime being measured.

use super::{establish, judge, register_vips, Counters, Layers, Params, Probe, Target, Workload};
use crate::gen::{self, BATCH};
use crate::layers::{self, Mirror};
use crate::oracle::Oracle;
use crate::trace::{Call, Meter};
use silkroad::{EngineOptions, ForwardDecision, MultiPipeSwitch, SilkRoadConfig, SilkRoadSwitch};
use sr_types::{AddrFamily, FiveTuple, Nanos, PacketMeta};

/// Length stamped on data packets: the smallest frames, where per-packet
/// cost dominates.
const DATA_LEN: u32 = 64;

/// The generated inputs and what the warm pass established about them.
struct HitTrace {
    cfg: SilkRoadConfig,
    flows: Vec<FiveTuple>,
    /// Data packets, one per flow, in a seeded permutation.
    data: Vec<PacketMeta>,
    /// Per-packet flow hash (the digest's per-flow half), aligned to `data`.
    flow_hash: Vec<u64>,
    /// Digest of one oracle-checked pass over `data`, and how many of its
    /// packets the oracle failed.
    verified: u64,
    verified_failed: u64,
    input_hash: u64,
    now: Nanos,
}

impl HitTrace {
    /// Generate the flows, open them on `t`, and run the warm pass with
    /// every packet judged by the oracle. A packet the oracle fails stays
    /// in the trace and in the run's `failed` count: the timed passes then
    /// repeat a digest that is already known to hold a failure, and the run
    /// reports `correct: false`.
    fn establish_on(
        t: &mut impl Target,
        cfg: SilkRoadConfig,
        seed: u64,
        n: usize,
        oracle: &mut Oracle,
    ) -> HitTrace {
        let flows: Vec<FiveTuple> = (0..n as u64).map(|g| gen::flow(seed, g, false)).collect();
        register_vips(t, |_| AddrFamily::V4);
        let syns: Vec<PacketMeta> = flows.iter().map(|f| PacketMeta::syn(*f)).collect();
        let now = establish(t, &syns, oracle, Nanos::ZERO);
        drop(syns);

        let mut order: Vec<u32> = (0..n as u32).collect();
        gen::Rng::new(seed ^ 0x7065_726d).shuffle(&mut order);
        let data: Vec<PacketMeta> = order
            .iter()
            .map(|&i| PacketMeta::data(flows[i as usize], DATA_LEN))
            .collect();
        let hasher = gen::flow_hasher(&cfg);
        let flow_hash: Vec<u64> = data.iter().map(|d| hasher.flow_hash(&d.tuple)).collect();

        let failed_before = oracle.failed();
        let mut verified = 0u64;
        let mut out = Vec::with_capacity(BATCH);
        for (chunk, hashes) in data.chunks(BATCH).zip(flow_hash.chunks(BATCH)) {
            out.clear();
            t.batch(chunk, now, &mut out);
            verified = verified.wrapping_add(judge(oracle, chunk, &out, hashes));
        }
        HitTrace {
            input_hash: gen::trace_hash(&data),
            cfg,
            flows,
            data,
            flow_hash,
            verified,
            verified_failed: oracle.failed() - failed_before,
            now,
        }
    }

    fn probes(&self) -> Vec<FiveTuple> {
        self.data.iter().map(|d| d.tuple).collect()
    }

    /// The layers both front ends share: hashing, the ConnTable (filled
    /// from empty, probed with the trace, emptied again) and the pool
    /// resolve.
    fn replay_common(&self, min_secs: f64) -> Layers {
        let mut out = Layers::default();
        let probes = self.probes();
        let mut mirror = Mirror::new(&self.cfg);
        mirror.table(&self.flows, &[], &probes, min_secs, &mut out);
        mirror.hash(&probes, min_secs, &mut out);
        mirror.pool_select(&probes, |_| AddrFamily::V4, min_secs, &mut out);
        out
    }
}

/// `hit-64k` / `hit-1m`: one `SilkRoadSwitch`, called directly.
pub struct Hit {
    sw: SilkRoadSwitch,
    trace: HitTrace,
    oracle: Oracle,
    out: Vec<ForwardDecision>,
    digests: Vec<u64>,
}

impl Hit {
    pub fn setup(p: Params, flows: usize) -> Hit {
        let n = flows / p.scale as usize;
        let cfg = gen::paper_cfg(n);
        let mut sw = SilkRoadSwitch::new(cfg.clone());
        let mut oracle = Oracle::new();
        let trace = HitTrace::establish_on(&mut sw, cfg, p.seed, n, &mut oracle);
        Hit {
            sw,
            trace,
            oracle,
            out: Vec::with_capacity(BATCH),
            digests: Vec::new(),
        }
    }
}

impl Workload for Hit {
    fn run_unit(&mut self, m: &mut Meter) {
        let Hit { sw, trace, out, .. } = self;
        let mut digest = 0u64;
        for (chunk, hashes) in trace.data.chunks(BATCH).zip(trace.flow_hash.chunks(BATCH)) {
            m.begin_request();
            out.clear();
            m.call(Call::ProcessBatch, chunk.len() as u32, true, || {
                sw.process_batch_into(chunk, trace.now, out)
            });
            m.end_request();
            for (d, h) in out.iter().zip(hashes) {
                digest = digest.wrapping_add(gen::packet_digest(*h, d));
            }
        }
        self.oracle.digest_checked(
            trace.data.len() as u64,
            digest == trace.verified,
            trace.verified_failed,
        );
        self.digests.push(digest);
    }

    fn reference_units(&self) -> usize {
        // About a quarter of a million packets either way.
        (262_144 / self.trace.data.len()).max(1)
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
        Probe {
            fallback_entries_peak: self.sw.stats().fallback_entries,
            ..Probe::default()
        }
    }

    fn input_hash(&self) -> u64 {
        self.trace.input_hash
    }

    fn replay_layers(&mut self, min_secs: f64) -> Layers {
        self.trace.replay_common(min_secs)
    }
}

/// `stream-64k`: the same trace through the threaded engine's streaming
/// path. Decisions never come back to the caller; the engine folds them
/// into the same order-blind digest, read at each drain.
pub struct Stream {
    sw: MultiPipeSwitch,
    trace: HitTrace,
    oracle: Oracle,
    digests: Vec<u64>,
    workers: usize,
}

impl Stream {
    pub fn setup(p: Params, flows: usize) -> Result<Stream, String> {
        let n = flows / p.scale as usize;
        let cfg = gen::paper_cfg(n);
        let workers = crate::host::stream_workers();
        // The driver thread steers; each worker drains one pipe.
        crate::host::claim_threads(workers + 1)?;
        let mut sw = if workers == 0 {
            MultiPipeSwitch::inline(cfg.clone(), 1)
        } else {
            let opts = EngineOptions {
                threaded: true,
                pin_cores: true,
                ..EngineOptions::default()
            };
            MultiPipeSwitch::with_options(cfg.clone(), workers, opts)
        };
        let mut oracle = Oracle::new();
        let trace = HitTrace::establish_on(&mut sw, cfg, p.seed, n, &mut oracle);
        Ok(Stream {
            sw,
            trace,
            oracle,
            digests: Vec::new(),
            workers,
        })
    }
}

impl Workload for Stream {
    fn run_unit(&mut self, m: &mut Meter) {
        let Stream { sw, trace, .. } = self;
        for chunk in trace.data.chunks(BATCH) {
            m.begin_request();
            m.call(Call::StreamBatch, chunk.len() as u32, true, || {
                sw.stream_batch(chunk, trace.now)
            });
            m.end_request();
        }
        m.begin_request();
        let stats = m.call(Call::StreamDrain, 0, false, || sw.stream_drain());
        m.end_request();
        let ok = stats.packets == trace.data.len() as u64 && stats.digest == trace.verified;
        self.oracle
            .digest_checked(trace.data.len() as u64, ok, trace.verified_failed);
        self.digests.push(stats.digest);
    }

    fn reference_units(&self) -> usize {
        (262_144 / self.trace.data.len()).max(1)
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn unit_digests(&self) -> &[u64] {
        &self.digests
    }

    fn counters(&mut self) -> Counters {
        super::counters_of_engine(&mut self.sw)
    }

    fn take_probe(&mut self) -> Probe {
        Probe {
            fallback_entries_peak: self.sw.stats().fallback_entries,
            ..Probe::default()
        }
    }

    fn input_hash(&self) -> u64 {
        self.trace.input_hash
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn replay_layers(&mut self, min_secs: f64) -> Layers {
        let mut out = self.trace.replay_common(min_secs);
        let probes = self.trace.probes();
        layers::steer(
            self.trace.cfg.seed,
            self.workers,
            &probes,
            min_secs,
            &mut out,
        );
        // The engine's worker is parked on its empty ring by now, so the
        // echo thread is the only other runnable one.
        layers::ring_hop(min_secs, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkroad::SilkRoadSwitch;
    use sr_types::{Dip, TcpFlags, Vip};

    /// A switch that sends the data packets of one established flow to a
    /// DIP its connection was never given.
    struct MisSteers {
        sw: SilkRoadSwitch,
        victim: FiveTuple,
    }

    impl Target for MisSteers {
        fn batch(&mut self, pkts: &[PacketMeta], now: Nanos, out: &mut Vec<ForwardDecision>) {
            self.sw.batch(pkts, now, out);
            for (p, d) in pkts.iter().zip(out.iter_mut()) {
                if p.tuple == self.victim && p.flags == TcpFlags::ACK {
                    d.dip = Some(gen::dip(gen::VIPS, 0, AddrFamily::V4));
                }
            }
        }
        fn advance_to(&mut self, now: Nanos) {
            self.sw.advance_to(now);
        }
        fn register(&mut self, vip: Vip, dips: Vec<Dip>) {
            self.sw.register(vip, dips);
        }
    }

    /// A stable mis-steer of an established flow stays in the trace, fails
    /// the warm pass, and fails again in every pass that repeats it.
    #[test]
    fn a_mis_steered_established_flow_fails_every_pass() {
        let (seed, n) = (5, 4_096);
        let cfg = gen::paper_cfg(n);
        let mut t = MisSteers {
            sw: SilkRoadSwitch::new(cfg.clone()),
            victim: gen::flow(seed, 77, false),
        };
        let mut oracle = Oracle::new();
        let trace = HitTrace::establish_on(&mut t, cfg, seed, n, &mut oracle);
        assert_eq!(trace.data.len(), n, "no packet leaves the trace");
        assert_eq!((oracle.pcc_violations, trace.verified_failed), (1, 1));

        oracle.digest_checked(n as u64, true, trace.verified_failed);
        assert_eq!(oracle.failed(), 2);
        assert!(oracle.failed_frac() > 0.0);
    }
}
