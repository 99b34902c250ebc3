//! The six workloads. Each owns its generated inputs, the program under
//! test, and an [`Oracle`]; the driver in `main.rs` only sets them up and
//! asks for units of traffic.
//!
//! A **unit** is the workload's repeating stretch of traffic (a pass over
//! the trace, a cycle of waves). Windows end on unit boundaries, the
//! order-blind decision digest is kept per unit, and the deterministic
//! metrics are counted over the first [`Workload::reference_units`] units
//! after set-up — a fixed prefix of the packet stream, so they repeat
//! exactly for a seed however long the window runs.

pub mod churn;
pub mod hit;
pub mod replay;
pub mod update_mix;

use crate::oracle::Oracle;
use crate::trace::Meter;
use silkroad::{ForwardDecision, MultiPipeSwitch, SilkRoadSwitch, SwitchStats};
use sr_types::{AddrFamily, Dip, Nanos, PacketMeta, Vip};

/// What a run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// Size divisor: 1 for the real workloads, 16 for `--smoke`.
    pub scale: u32,
}

/// Deterministic counters of the program, read between units.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub stats: SwitchStats,
    pub transit_recorded: u64,
    pub transit_checks: u64,
    /// Installed ConnTable entries.
    pub conns: u64,
    /// Provisioned ConnTable entries.
    pub capacity: u64,
    /// Modelled SRAM bytes (`memory().total()`).
    pub sram_bytes: u64,
    pub learn_overflow_drops: u64,
    /// Packets each pipe processed (one entry for a single switch).
    pub pipe_packets: Vec<u64>,
}

/// Gauges the workload samples between calls (never inside a timed call).
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Learning-filter depth after each SYN-carrying batch.
    pub learn_depth: Vec<u32>,
    pub transit_fill_peak: f64,
    pub fallback_entries_peak: u64,
    pub version_live_peak: u64,
    /// Simulated µs from `request_update` to the VIP reading idle again,
    /// polled at batch boundaries.
    pub update_done_sim_us: Vec<f64>,
}

/// Layer replays: the same keys driven through one layer's public
/// function alone, on a mirror built from the same configuration. Values
/// are ns per operation; a layer off the workload's path stays 0.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub hash_ns: f64,
    pub bloom_hash_ns: f64,
    pub locate_ns: f64,
    pub resolve_ns: f64,
    pub install_ns: f64,
    pub remove_ns: f64,
    pub moves_per_install: f64,
    pub host_bytes_per_slot: f64,
    pub vip_lookup_ns: f64,
    pub pool_select_ns: f64,
    pub transit_record_ns: f64,
    pub transit_check_ns: f64,
    pub steer_ns: f64,
    pub ring_hop_ns: f64,
}

pub trait Workload {
    /// Drive one unit through the program: every call timed by `m`, every
    /// decision judged by the oracle.
    fn run_unit(&mut self, m: &mut Meter);
    /// Units that make up the deterministic-metric prefix.
    fn reference_units(&self) -> usize;
    fn oracle(&self) -> &Oracle;
    /// Order-blind decision digest of every unit run so far.
    fn unit_digests(&self) -> &[u64];
    fn counters(&mut self) -> Counters;
    /// Hand over (and reset) the gauges sampled so far.
    fn take_probe(&mut self) -> Probe;
    /// Hash of the generated inputs.
    fn input_hash(&self) -> u64;
    /// Worker threads the program runs (0 unless threaded).
    fn workers(&self) -> usize {
        0
    }
    /// Time each layer on its own; each replay runs at least `min_secs`.
    fn replay_layers(&mut self, min_secs: f64) -> Layers;
}

/// Build and warm a workload: trace generation, table fill and a warm,
/// fully oracle-checked pass. The time this takes is `setup_s`.
pub fn build(name: &str, p: Params) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "hit-64k" => Box::new(hit::Hit::setup(p, 65_536)),
        "hit-1m" => Box::new(hit::Hit::setup(p, 1_048_576)),
        "stream-64k" => Box::new(hit::Stream::setup(p, 65_536)?),
        "churn" => Box::new(churn::Churn::setup(p)),
        "update-mix" => Box::new(update_mix::UpdateMix::setup(p)),
        "replay" => Box::new(replay::Replay::setup(p)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The two switch front ends the workloads drive, behind the calls the
/// shared set-up code needs.
pub trait Target {
    fn batch(&mut self, pkts: &[PacketMeta], now: Nanos, out: &mut Vec<ForwardDecision>);
    fn advance_to(&mut self, now: Nanos);
    fn register(&mut self, vip: Vip, dips: Vec<Dip>);
}

impl Target for SilkRoadSwitch {
    fn batch(&mut self, pkts: &[PacketMeta], now: Nanos, out: &mut Vec<ForwardDecision>) {
        self.process_batch_into(pkts, now, out);
    }
    fn advance_to(&mut self, now: Nanos) {
        self.advance(now);
    }
    fn register(&mut self, vip: Vip, dips: Vec<Dip>) {
        self.add_vip(vip, dips)
            .expect("the plan's VIPs are distinct");
    }
}

impl Target for MultiPipeSwitch {
    fn batch(&mut self, pkts: &[PacketMeta], now: Nanos, out: &mut Vec<ForwardDecision>) {
        self.process_batch_into(pkts, now, out);
    }
    fn advance_to(&mut self, now: Nanos) {
        self.advance(now);
    }
    fn register(&mut self, vip: Vip, dips: Vec<Dip>) {
        self.add_vip(vip, dips)
            .expect("the plan's VIPs are distinct");
    }
}

/// Register the plan's VIPs; `family_of(v)` picks each VIP's family.
pub fn register_vips(t: &mut impl Target, family_of: impl Fn(u32) -> AddrFamily) {
    for v in 0..crate::gen::VIPS {
        let f = family_of(v);
        t.register(crate::gen::vip(v, f), crate::gen::pool(v, f));
    }
}

/// Open `syns` as connections: SYN bursts small enough for the learning
/// filter (2 048 entries), each followed by enough simulated time for the
/// switch CPU to install the burst. Every decision goes to the oracle, so
/// each connection's first DIP is bound here. Returns the time reached.
pub fn establish(
    t: &mut impl Target,
    syns: &[PacketMeta],
    oracle: &mut Oracle,
    mut now: Nanos,
) -> Nanos {
    let mut out = Vec::with_capacity(1_024);
    for wave in syns.chunks(1_024) {
        out.clear();
        t.batch(wave, now, &mut out);
        for (p, d) in wave.iter().zip(&out) {
            oracle.observe(&p.tuple, d);
        }
        now = now.saturating_add(sr_types::Duration::from_millis(10));
        t.advance_to(now);
    }
    now = now.saturating_add(sr_types::Duration::from_secs(1));
    t.advance_to(now);
    now
}

/// Judge one batch: every decision goes to the oracle, and the batch's
/// share of the order-blind digest comes back. `flow_hash` is aligned to
/// `pkts`.
pub fn judge(
    oracle: &mut Oracle,
    pkts: &[PacketMeta],
    decisions: &[ForwardDecision],
    flow_hash: &[u64],
) -> u64 {
    let mut digest = 0u64;
    for ((pkt, d), h) in pkts.iter().zip(decisions).zip(flow_hash) {
        oracle.observe(&pkt.tuple, d);
        digest = digest.wrapping_add(crate::gen::packet_digest(*h, d));
    }
    digest
}

/// Counters of a single switch.
pub fn counters_of(sw: &SilkRoadSwitch) -> Counters {
    let (recorded, checks, _, _) = sw.transit_counters();
    Counters {
        stats: sw.stats().clone(),
        transit_recorded: recorded,
        transit_checks: checks,
        conns: sw.conn_count() as u64,
        capacity: sw.config().conn_capacity as u64,
        sram_bytes: sw.memory().total(),
        learn_overflow_drops: sw.learn_overflow_drops(),
        pipe_packets: vec![sw.stats().packets],
    }
}

/// Counters of a multi-pipe engine (per-pipe detail only where the
/// backend lets the caller see its pipes).
pub fn counters_of_engine(sw: &mut MultiPipeSwitch) -> Counters {
    let (recorded, checks, _, _) = sw.transit_counters();
    let stats = sw.stats();
    let pipes: Vec<&SilkRoadSwitch> = (0..sw.pipe_count())
        .filter_map(|i| sw.pipe(i))
        .map(|p| p.switch())
        .collect();
    let pipe_packets = if pipes.is_empty() {
        vec![stats.packets]
    } else {
        pipes.iter().map(|p| p.stats().packets).collect()
    };
    let learn_overflow_drops = pipes.iter().map(|p| p.learn_overflow_drops()).sum();
    Counters {
        transit_recorded: recorded,
        transit_checks: checks,
        conns: sw.conn_count() as u64,
        capacity: sw.config().conn_capacity as u64,
        sram_bytes: sw.memory().total(),
        learn_overflow_drops,
        pipe_packets,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;
    use crate::trace::Meter;

    /// Inputs and decisions are a function of the seed alone.
    #[test]
    fn same_seed_same_inputs_and_digest_and_another_seed_differs() {
        for (name, _) in WORKLOADS {
            let run = |seed| {
                let mut w = build(name, Params { seed, scale: 16 }).expect("smoke set-up");
                let mut m = Meter::start(1.0, false);
                w.run_unit(&mut m);
                assert_eq!(w.oracle().failed(), 0, "{name}: oracle failed");
                assert!(m.packets > 0 && m.busy_ns > 0);
                (w.input_hash(), w.unit_digests()[0])
            };
            let (a, b, c) = (run(11), run(11), run(12));
            assert_eq!(a, b, "{name}: seed 11 did not repeat");
            assert_ne!(a.0, c.0, "{name}: seeds 11 and 12 gave the same inputs");
            assert_ne!(a.1, c.1, "{name}: seeds 11 and 12 gave the same decisions");
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(build("hit-2m", Params { seed: 1, scale: 16 }).is_err());
    }
}
