//! The discrete-event harness.
//!
//! Replays one [`TraceIter`] against one [`LoadBalancer`], measuring PCC
//! violations and software load. See the crate docs for the probing model.

use crate::lb::{LoadBalancer, PacketVerdict};
use crate::metrics::RunMetrics;
use silkroad::PoolUpdate;
use sr_types::{Dip, Duration, Nanos, PacketMeta, Vip};
use sr_workload::trace::{dip_addr, vip_addr};
use sr_workload::updates::DipOp;
use sr_workload::{ConnSpec, TraceConfig, TraceEvent, TraceIter};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Extra early probes per connection after the SYN, one packet-gap apart —
/// covers the pending-insertion window.
const EARLY_PROBES: u32 = 2;

/// Periodic balancer tick (drives policies with no self-scheduled wakeups,
/// e.g. Duet's Migrate-PCC).
const PERIODIC_TICK: Duration = Duration::from_secs(1);

#[derive(PartialEq, Eq, Debug)]
enum Ev {
    /// Connection close (FIN + teardown).
    Close(u64),
    /// A mid-life packet of connection `0` (field); `1` = remaining early
    /// chain length after this probe.
    Probe(u64, u32),
    /// Balancer-scheduled wakeup.
    Wakeup,
    /// Harness periodic tick.
    Tick,
}

#[derive(PartialEq, Eq, Debug)]
struct QueuedEvent {
    at: Nanos,
    seq: u64,
    ev: Ev,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy)]
struct ConnState {
    spec: ConnSpec,
    assigned: Option<Dip>,
    violated: bool,
    dropped: bool,
    /// The connection's assigned DIP was removed from the pool: the
    /// connection is dead regardless of the balancer, so a later remap is
    /// not a PCC violation (the paper's accounting — a broken connection is
    /// one moved *between live DIPs*).
    doomed: bool,
}

/// Pool membership as a word bitset — replaces the old per-VIP
/// `HashSet<u32>`: membership checks on the open path touch one cache
/// line instead of hashing, and a pool of 128 DIPs costs 16 bytes.
#[derive(Clone, Debug, Default)]
struct DipSet {
    words: Vec<u64>,
    count: u32,
}

impl DipSet {
    /// The full pool `{0, .., n-1}`.
    fn full(n: u32) -> DipSet {
        let mut s = DipSet {
            words: vec![0; (n as usize).div_ceil(64)],
            count: 0,
        };
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    fn contains(&self, i: u32) -> bool {
        self.words
            .get((i / 64) as usize)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Insert; `true` if newly present (HashSet::insert semantics).
    fn insert(&mut self, i: u32) -> bool {
        let w = (i / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.count += 1;
        true
    }

    /// Remove; `true` if it was present (HashSet::remove semantics).
    fn remove(&mut self, i: u32) -> bool {
        let Some(word) = self.words.get_mut((i / 64) as usize) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        self.count -= 1;
        true
    }

    fn len(&self) -> u32 {
        self.count
    }
}

/// The harness. Owns the run state; borrow the balancer for the run.
///
/// ```
/// use sr_sim::Harness;
/// use silkroad::{SilkRoadConfig, SilkRoadSwitch};
/// use sr_workload::TraceConfig;
/// use sr_types::Duration;
///
/// let mut trace = TraceConfig::pop_scaled(0.0005, 1); // tiny doc-sized run
/// trace.updates_per_min = 5.0;
/// let mut lb = SilkRoadSwitch::new(SilkRoadConfig::default());
/// let metrics = Harness::new(trace).run(&mut lb);
/// assert_eq!(metrics.pcc_violations, 0);
/// assert!(metrics.conns_total > 0);
/// ```
pub struct Harness {
    trace_cfg: TraceConfig,
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    event_seq: u64,
    /// Connection states, slot-addressed with free-list reuse: the hot
    /// per-packet state stays in one contiguous, recycled arena instead
    /// of a `HashMap<u64, ConnState>` of scattered buckets.
    slab: Vec<ConnState>,
    slab_free: Vec<u32>,
    /// Trace seq -> live slab slot (events address connections by seq).
    conn_index: HashMap<u64, u32>,
    /// Live connections per VIP index (lazily compacted).
    per_vip: Vec<Vec<u64>>,
    /// VIP address -> index (for balancer-reported remaps).
    vip_index: HashMap<Vip, u32>,
    /// DIP address -> index within its VIP (doomed-connection checks).
    dip_index: HashMap<Dip, u32>,
    /// Current pool membership per VIP (no-op update filtering and
    /// doomed-connection checks).
    membership: Vec<DipSet>,
    next_wakeup_scheduled: Option<Nanos>,
    metrics: RunMetrics,
}

impl Harness {
    /// Build a harness for one trace configuration.
    pub fn new(trace_cfg: TraceConfig) -> Harness {
        Harness {
            trace_cfg,
            heap: BinaryHeap::new(),
            event_seq: 0,
            slab: Vec::new(),
            slab_free: Vec::new(),
            conn_index: HashMap::new(),
            per_vip: vec![Vec::new(); trace_cfg.vips as usize],
            vip_index: HashMap::new(),
            dip_index: HashMap::new(),
            membership: Vec::new(),
            next_wakeup_scheduled: None,
            metrics: RunMetrics::default(),
        }
    }

    fn push(&mut self, at: Nanos, ev: Ev) {
        self.event_seq += 1;
        self.heap.push(Reverse(QueuedEvent {
            at,
            seq: self.event_seq,
            ev,
        }));
    }

    /// Park `state` in a recycled slab slot, indexed by trace seq.
    fn conn_insert(&mut self, seq: u64, state: ConnState) {
        let slot = match self.slab_free.pop() {
            Some(s) => {
                if let Some(cell) = self.slab.get_mut(s as usize) {
                    *cell = state;
                }
                s
            }
            None => {
                self.slab.push(state);
                (self.slab.len() - 1) as u32
            }
        };
        self.conn_index.insert(seq, slot);
    }

    /// Remove a live connection, recycling its slot.
    fn conn_remove(&mut self, seq: u64) -> Option<ConnState> {
        let slot = self.conn_index.remove(&seq)?;
        self.slab_free.push(slot);
        self.slab.get(slot as usize).copied()
    }

    /// Run the trace to completion and return the metrics.
    pub fn run(mut self, lb: &mut dyn LoadBalancer) -> RunMetrics {
        // Register every VIP with its full initial pool.
        let family = self.trace_cfg.family;
        for v in 0..self.trace_cfg.vips {
            let dips: Vec<Dip> = (0..self.trace_cfg.dips_per_vip)
                .map(|d| dip_addr(family, v, d))
                .collect();
            let vip = vip_addr(family, v);
            for (i, d) in dips.iter().enumerate() {
                self.dip_index.insert(*d, i as u32);
            }
            lb.add_vip(vip, dips);
            self.vip_index.insert(vip, v);
            self.membership
                .push(DipSet::full(self.trace_cfg.dips_per_vip));
        }
        self.metrics.sim_secs = self.trace_cfg.duration.as_secs_f64();

        let mut trace = TraceIter::new(self.trace_cfg).peekable();
        self.push(Nanos::ZERO + PERIODIC_TICK, Ev::Tick);

        loop {
            let trace_at = trace.peek().map(|e| e.at());
            let heap_at = self.heap.peek().map(|qe| qe.0.at);
            match (trace_at, heap_at) {
                (None, None) => break,
                (Some(t), h) if h.is_none_or(|h| t <= h) => {
                    let ev = trace.next().expect("peeked");
                    match ev {
                        TraceEvent::ConnOpen(c) => self.on_open(c, lb),
                        TraceEvent::Update(u) => self.on_update(u, lb),
                    }
                    self.schedule_lb_wakeup(t, lb);
                }
                (_, Some(_)) => {
                    let Reverse(qe) = self.heap.pop().expect("peeked");
                    let at = qe.at;
                    let more_coming = trace.peek().is_some();
                    self.dispatch(qe, lb, more_coming);
                    // Once the trace is drained and every connection is
                    // closed, stop feeding balancer wakeups — otherwise a
                    // periodic policy (Duet) keeps the run alive forever.
                    if more_coming || !self.conn_index.is_empty() {
                        self.schedule_lb_wakeup(at, lb);
                    }
                }
                // (Some, None) with a false guard cannot happen: the guard
                // is always true when the heap is empty.
                (Some(_), None) => unreachable!(),
            }
        }
        self.metrics
    }

    fn dispatch(&mut self, qe: QueuedEvent, lb: &mut dyn LoadBalancer, trace_active: bool) {
        let now = qe.at;
        match qe.ev {
            Ev::Close(seq) => self.on_close(seq, now, lb),
            Ev::Probe(seq, chain) => self.on_probe(seq, chain, now, lb),
            Ev::Wakeup => {
                if self.next_wakeup_scheduled == Some(now) {
                    self.next_wakeup_scheduled = None;
                }
                let remapped = lb.tick(now);
                self.probe_remapped(remapped, now);
            }
            Ev::Tick => {
                let remapped = lb.tick(now);
                self.probe_remapped(remapped, now);
                if trace_active || !self.conn_index.is_empty() {
                    self.push(now + PERIODIC_TICK, Ev::Tick);
                }
            }
        }
    }

    fn schedule_lb_wakeup(&mut self, _now: Nanos, lb: &mut dyn LoadBalancer) {
        if let Some(w) = lb.next_wakeup() {
            let need = match self.next_wakeup_scheduled {
                Some(s) => w < s,
                None => true,
            };
            if need {
                self.next_wakeup_scheduled = Some(w);
                self.push(w, Ev::Wakeup);
            }
        }
    }

    fn on_open(&mut self, c: ConnSpec, lb: &mut dyn LoadBalancer) {
        self.metrics.conns_total += 1;
        let verdict = lb.packet(&PacketMeta::syn(c.tuple), c.opened);
        let mut state = ConnState {
            spec: c,
            assigned: None,
            violated: false,
            dropped: false,
            doomed: false,
        };
        observe(
            &mut self.metrics,
            &self.dip_index,
            &self.membership,
            &mut state,
            verdict,
        );
        let seq = c.seq.0;
        self.push(c.closes(), Ev::Close(seq));
        let first = c.opened + c.pkt_gap;
        if first < c.closes() {
            self.push(first, Ev::Probe(seq, EARLY_PROBES - 1));
        }
        if let Some(list) = self.per_vip.get_mut(c.vip.0 as usize) {
            list.push(seq);
        }
        self.conn_insert(seq, state);
    }

    fn on_probe(&mut self, seq: u64, chain: u32, now: Nanos, lb: &mut dyn LoadBalancer) {
        let Some(&slot) = self.conn_index.get(&seq) else {
            return;
        };
        let Some(spec) = self.slab.get(slot as usize).map(|s| s.spec) else {
            return;
        };
        let verdict = lb.packet(&PacketMeta::data(spec.tuple, spec.pkt_len), now);
        if let Some(state) = self.slab.get_mut(slot as usize) {
            observe(
                &mut self.metrics,
                &self.dip_index,
                &self.membership,
                state,
                verdict,
            );
        }
        if chain > 0 {
            let next = now + spec.pkt_gap;
            if next < spec.closes() {
                self.push(next, Ev::Probe(seq, chain - 1));
            }
        }
    }

    fn on_close(&mut self, seq: u64, now: Nanos, lb: &mut dyn LoadBalancer) {
        let Some(mut state) = self.conn_remove(seq) else {
            return;
        };
        let verdict = lb.packet(&PacketMeta::fin(state.spec.tuple), now);
        observe(
            &mut self.metrics,
            &self.dip_index,
            &self.membership,
            &mut state,
            verdict,
        );
        let vip = vip_addr(self.trace_cfg.family, state.spec.vip.0);
        lb.conn_closed(vip, &state.spec.tuple, now);
        self.metrics.conns_completed += 1;
        let bytes = state.spec.bytes();
        self.metrics.total_bytes += bytes;
        let share = lb.software_share(vip, state.spec.opened, now);
        self.metrics.software_bytes += (bytes as f64 * share) as u64;
    }

    fn on_update(&mut self, u: sr_workload::UpdateEvent, lb: &mut dyn LoadBalancer) {
        let vidx = u.vip.0;
        let Some(members) = self.membership.get_mut(vidx as usize) else {
            return;
        };
        // Filter no-ops and never empty a pool (operators keep capacity up).
        let effective = match u.op {
            DipOp::Remove => members.len() > 1 && members.remove(u.dip.0),
            DipOp::Add => members.insert(u.dip.0),
        };
        if !effective {
            return;
        }
        self.metrics.updates += 1;
        let family = self.trace_cfg.family;
        let vip = vip_addr(family, vidx);
        let dip = dip_addr(family, vidx, u.dip.0);
        let op = match u.op {
            DipOp::Remove => PoolUpdate::Remove(dip),
            DipOp::Add => PoolUpdate::Add(dip),
        };
        lb.apply_update(vip, op, u.at);
        if let PoolUpdate::Remove(removed) = op {
            self.doom_conns(vidx, removed);
        }
        self.probe_vip_conns(vidx, u.at);
    }

    /// Mark live connections assigned to a just-removed DIP as dead.
    fn doom_conns(&mut self, vip_idx: u32, removed: Dip) {
        let Some(list) = self.per_vip.get(vip_idx as usize) else {
            return;
        };
        for seq in list {
            let Some(&slot) = self.conn_index.get(seq) else {
                continue;
            };
            if let Some(state) = self.slab.get_mut(slot as usize) {
                if state.assigned == Some(removed) {
                    state.doomed = true;
                }
            }
        }
    }

    fn probe_remapped(&mut self, remapped: Vec<Vip>, now: Nanos) {
        for vip in remapped {
            if let Some(&idx) = self.vip_index.get(&vip) {
                self.probe_vip_conns(idx, now);
            }
        }
    }

    /// Schedule a probe for every live connection of a VIP at its natural
    /// next packet time after `after`.
    fn probe_vip_conns(&mut self, vip_idx: u32, after: Nanos) {
        let mut to_push: Vec<(Nanos, u64)> = Vec::new();
        {
            let conns = &self.conn_index;
            let slab = &self.slab;
            let Some(list) = self.per_vip.get_mut(vip_idx as usize) else {
                return;
            };
            list.retain(|seq| conns.contains_key(seq));
            for seq in list.iter() {
                let Some(state) = conns.get(seq).and_then(|&s| slab.get(s as usize)) else {
                    continue;
                };
                let c = &state.spec;
                if state.violated {
                    continue; // already counted; probing again changes nothing
                }
                let gap = c.pkt_gap.0.max(1);
                let since_open = after.since(c.opened).0;
                let k = since_open / gap + 1;
                let p = c.opened + Duration(gap.saturating_mul(k));
                if p < c.closes() {
                    to_push.push((p, *seq));
                }
            }
        }
        for (p, seq) in to_push {
            self.push(p, Ev::Probe(seq, 0));
        }
    }
}

/// Record one packet verdict against a connection's state. A free
/// function (not `&mut self`) so callers can hold a slab borrow.
fn observe(
    metrics: &mut RunMetrics,
    dip_index: &HashMap<Dip, u32>,
    membership: &[DipSet],
    state: &mut ConnState,
    verdict: PacketVerdict,
) {
    metrics.probes += 1;
    metrics.latency.record(verdict.latency);
    match verdict.dip {
        None => {
            if !state.dropped {
                state.dropped = true;
                metrics.drops += 1;
            }
        }
        Some(d) => match state.assigned {
            None => {
                state.assigned = Some(d);
                // Assigned to a DIP whose removal was already requested
                // (the balancer may still be draining the update): the
                // connection dies with that server — an administrative
                // death, not a PCC violation.
                let vip_idx = state.spec.vip.0 as usize;
                if let (Some(&idx), Some(members)) = (dip_index.get(&d), membership.get(vip_idx)) {
                    if !members.contains(idx) {
                        state.doomed = true;
                    }
                }
            }
            Some(a) => {
                if a != d && !state.violated && !state.doomed {
                    state.violated = true;
                    metrics.pcc_violations += 1;
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkroad::{SilkRoadConfig, SilkRoadSwitch};
    use sr_baselines::{DuetConfig, DuetLb, EcmpLb, MigrationPolicy, SoftwareLb};
    use sr_types::AddrFamily;

    fn trace(upm: f64, mins: u64) -> TraceConfig {
        TraceConfig {
            vips: 8,
            dips_per_vip: 6,
            new_conns_per_min: 3000.0,
            median_flow_secs: 10.0,
            flow_sigma: 1.0,
            median_rate_bps: 100_000.0,
            rate_sigma: 0.5,
            median_pkt_bytes: 800.0,
            pkt_sigma: 0.35,
            updates_per_min: upm,
            shared_dip_upgrades: false,
            duration: Duration::from_mins(mins),
            family: AddrFamily::V4,
            seed: 11,
        }
    }

    #[test]
    fn slb_never_violates_and_is_all_software() {
        let mut lb = SoftwareLb::new();
        let m = Harness::new(trace(20.0, 2)).run(&mut lb);
        assert!(m.conns_total > 50);
        assert_eq!(m.pcc_violations, 0, "SLB must be PCC-safe");
        assert!(m.software_traffic_fraction() > 0.99);
        assert!(m.updates > 5);
    }

    #[test]
    fn silkroad_never_violates() {
        let cfg = SilkRoadConfig {
            conn_capacity: 50_000,
            ..Default::default()
        };
        let mut lb = SilkRoadSwitch::new(cfg);
        let m = Harness::new(trace(30.0, 2)).run(&mut lb);
        assert!(m.conns_total > 50);
        assert_eq!(m.pcc_violations, 0, "SilkRoad must be PCC-safe: {m}");
        assert!(m.software_traffic_fraction() < 0.01);
        assert_eq!(m.drops, 0);
    }

    #[test]
    fn ecmp_violates_heavily_under_updates() {
        let mut lb = EcmpLb::new(5);
        let m = Harness::new(trace(30.0, 2)).run(&mut lb);
        assert!(
            m.violation_fraction() > 0.02,
            "stateless ECMP should break many connections: {m}"
        );
    }

    #[test]
    fn duet_periodic_violates_some_but_less_than_ecmp() {
        let mk = |policy| {
            let mut lb = DuetLb::new(DuetConfig { policy, seed: 3 });
            Harness::new(trace(30.0, 3)).run(&mut lb)
        };
        let duet = mk(MigrationPolicy::Periodic(Duration::from_mins(1)));
        let mut ecmp = EcmpLb::new(5);
        let ecmp_m = Harness::new(trace(30.0, 3)).run(&mut ecmp);
        assert!(
            duet.pcc_violations > 0,
            "periodic Duet should break some: {duet}"
        );
        assert!(
            duet.violation_fraction() < ecmp_m.violation_fraction(),
            "duet {duet} vs ecmp {ecmp_m}"
        );
        assert!(duet.software_traffic_fraction() > 0.01);
    }

    #[test]
    fn duet_wait_pcc_never_violates_but_loads_slb() {
        let mut lb = DuetLb::new(DuetConfig {
            policy: MigrationPolicy::WaitPcc,
            seed: 3,
        });
        let m = Harness::new(trace(30.0, 2)).run(&mut lb);
        assert_eq!(m.pcc_violations, 0, "{m}");
        let mut lb10 = DuetLb::new(DuetConfig {
            policy: MigrationPolicy::Periodic(Duration::from_mins(10)),
            seed: 3,
        });
        let m10 = Harness::new(trace(30.0, 2)).run(&mut lb10);
        // WaitPcc keeps at least as much traffic in SLBs as 10-min periodic.
        assert!(
            m.software_traffic_fraction() >= m10.software_traffic_fraction() * 0.8,
            "waitpcc {m} vs periodic10 {m10}"
        );
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut lb = EcmpLb::new(5);
            Harness::new(trace(10.0, 1)).run(&mut lb)
        };
        let a = run();
        let b = run();
        assert_eq!(a.pcc_violations, b.pcc_violations);
        assert_eq!(a.conns_total, b.conns_total);
        assert_eq!(a.probes, b.probes);
    }

    #[test]
    fn no_updates_no_violations_anywhere() {
        let systems: [Box<dyn LoadBalancer>; 4] = [
            Box::new(SilkRoadSwitch::new(SilkRoadConfig::small_test())),
            Box::new(DuetLb::new(DuetConfig::default())),
            Box::new(EcmpLb::new(5)),
            Box::new(SoftwareLb::new()),
        ];
        for mut lb in systems {
            let m = Harness::new(trace(0.0, 1)).run(lb.as_mut());
            assert_eq!(m.pcc_violations, 0, "{}: {m}", lb.name());
            assert_eq!(m.updates, 0, "{}", lb.name());
        }
    }
}
