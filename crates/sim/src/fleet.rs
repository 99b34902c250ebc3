//! Fleet-scale steady-state engine — millions of live connections
//! across the paper's ~100-cluster fleet, cheap enough to run in CI.
//!
//! The per-figure simulations in [`crate::harness`] replay one cluster's
//! trace with rich per-connection probing. This engine answers a
//! different question — the paper's §3.1 fleet view: can the repo *hold*
//! the whole fleet's steady state at once (millions of live connections,
//! continuous DIP-pool churn, a mid-run update storm) without violating
//! per-connection consistency and without paying hashmap-sized memory
//! per connection? Three design moves make it cheap:
//!
//! * **Compact state.** Live flows sit in an [`sr_workload::FlowStore`]
//!   (20 B/flow) with expiry driven by a [`crate::wheel::TimerWheel`]
//!   (12 B/flow). Everything else about a flow is regenerated from
//!   `(seed, seq)` via [`sr_workload::flow_attrs`] — which is also how
//!   the close path *checks* PCC: it re-derives the flow's DIP choice
//!   against the pool version stamped at open time and compares.
//! * **Versioned pools.** Each VIP keeps immutable per-version DIP
//!   bitmasks with reference counts — SilkRoad's version-reuse scheme in
//!   miniature (≤ 256 live versions per VIP; an update that finds no
//!   free version is counted and skipped, never applied in place).
//! * **One job per cluster.** Clusters are independent shards, so each
//!   is one [`Exec`] job that builds its shard and walks the whole epoch
//!   script (storm on, storm off, an advance at every boundary) on its
//!   own. Jobs share nothing, and `Exec` returns the shards in cluster
//!   order, so per-cluster event sequences — and therefore the
//!   commutative fleet digest — are bit-identical for any worker count.
//!
//! Closes fire in wheel-tick batches at epoch boundaries rather than
//! interleaved with same-epoch arrivals — a ≤ one-epoch timing
//! coarsening that never affects PCC (version masks are immutable once
//! created).

use crate::wheel::TimerWheel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sr_exec::Exec;
use sr_workload::dists::exponential;
use sr_workload::{
    flow_attrs, prewarm_close_ns, synthesize_fleet, ClusterSpec, FleetConfig, FlowGen, FlowRecord,
    FlowStore, StreamConfig,
};

/// Log-space sd of flow durations fleet-wide (the workload crate's
/// calibration for paper-shaped heavy tails).
const FLOW_SIGMA: f64 = 0.8;
/// Live pool versions per VIP (the version field is stored in 8 bits).
const MAX_VERSIONS: usize = 256;

/// Fleet-engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct FleetParams {
    /// Fleet synthesis (cluster counts + synthesis seed).
    pub fleet: FleetConfig,
    /// Simulation seed for flow streams and update schedules (distinct
    /// from the synthesis seed so the same fleet can be re-run).
    pub seed: u64,
    /// Fleet-wide live-connection target at steady state.
    pub target_conns: u64,
    /// Simulated duration, seconds.
    pub sim_secs: u64,
    /// Control epoch, milliseconds (arrival/close batching granularity).
    pub epoch_ms: u64,
    /// Multiplier on every cluster's DIP-update rate during the storm
    /// window (middle third of the run).
    pub storm_factor: f64,
}

/// What the fleet run measured.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Clusters simulated.
    pub clusters: u32,
    /// Control epochs executed.
    pub epochs: u64,
    /// Median of the per-epoch fleet-wide live-connection samples.
    pub held_median: u64,
    /// Peak fleet-wide live connections over all epochs.
    pub held_peak: u64,
    /// Live connections at the end of the run.
    pub held_final: u64,
    /// Flows opened during the run (excludes the prewarm population).
    pub opens: u64,
    /// Flows closed during the run.
    pub closes: u64,
    /// New-connection absorption rate, opens / sim seconds.
    pub opens_per_sec: f64,
    /// PCC violations (a closed flow whose re-derived DIP choice differs
    /// from the one stamped at open). Must be 0.
    pub pcc_violations: u64,
    /// DIP-pool updates applied (new version allocated).
    pub updates_applied: u64,
    /// Updates skipped for want of a free version slot (version-reuse
    /// pressure) or because they would empty a pool.
    pub updates_skipped: u64,
    /// Bytes held by per-connection state (flow stores + timer wheels).
    pub state_bytes: u64,
    /// `state_bytes / held_peak` — the paper-facing economy figure.
    pub bytes_per_conn: f64,
    /// Bytes held by per-VIP control state (version masks + refcounts);
    /// scales with VIPs × versions, not with connections.
    pub control_bytes: u64,
    /// Commutative digest over every open/close event; identical for
    /// any worker count.
    pub digest: u64,
    /// Per-cluster peak live connections, indexed like the synthesized
    /// fleet (feeds the network-wide SRAM-fit plan).
    pub per_cluster_peak: Vec<u64>,
}

/// One VIP's versioned DIP pool: immutable per-version membership masks
/// plus reference counts from live flows.
#[derive(Clone, Debug)]
struct VipState {
    /// Current version slot (new opens stamp this).
    cur: u8,
    /// Per-version DIP membership (bit i = DIP i in the pool).
    masks: Vec<u128>,
    /// Live flows stamped with each version.
    refs: Vec<u32>,
    /// Version slots free for reuse.
    free: Vec<u8>,
}

/// Index of the `k`-th set bit of `mask` (k < popcount).
fn kth_set_bit(mask: u128, k: u32) -> u8 {
    let mut m = mask;
    let mut i = 0;
    while i < k {
        m &= m.wrapping_sub(1);
        i += 1;
    }
    m.trailing_zeros() as u8
}

/// Commutative event hash: the fleet digest is the wrapping sum of
/// these over all open (`kind` 0) and close (`kind` 1) events, so it is
/// independent of cluster-to-worker assignment.
fn event_hash(cluster: u32, seq: u64, vip: u16, dip: u8, version: u8, kind: u8) -> u64 {
    let mut x = u64::from(cluster)
        ^ seq.rotate_left(17)
        ^ (u64::from(vip) << 40)
        ^ (u64::from(dip) << 32)
        ^ (u64::from(version) << 24)
        ^ (u64::from(kind) << 16);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Splitmix-style per-cluster seed derivation.
fn mix_seed(seed: u64, salt: u64, idx: u64) -> u64 {
    let mut x = seed ^ salt ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 31)
}

/// One cluster's complete simulation state.
struct ClusterShard {
    /// Cluster index in the synthesized fleet.
    id: u32,
    scfg: StreamConfig,
    gen: FlowGen,
    store: FlowStore,
    wheel: TimerWheel,
    vips: Vec<VipState>,
    dips_per_vip: u32,
    upd_rng: SmallRng,
    upd_rate_per_sec: f64,
    upd_factor: f64,
    next_upd_ns: u64,
    now_ns: u64,
    opens: u64,
    closes: u64,
    pcc_violations: u64,
    upd_applied: u64,
    upd_skipped: u64,
    digest: u64,
    live_samples: Vec<u64>,
    peak_live: u64,
}

impl ClusterShard {
    /// Build one shard: versioned VIP pools plus a prewarmed live
    /// population of `target` flows with equilibrium residual lifetimes.
    fn new(idx: u32, spec: &ClusterSpec, sim_seed: u64, target: u64, epochs: u64) -> ClusterShard {
        let mean_dur = spec.median_flow_secs * (FLOW_SIGMA * FLOW_SIGMA / 2.0).exp();
        let scfg = StreamConfig {
            seed: mix_seed(sim_seed, 0x0f1e_e75e_ed00, u64::from(idx)),
            vips: spec.vips.min(u32::from(u16::MAX)) as u16,
            arrivals_per_sec: target as f64 / mean_dur.max(1e-9),
            median_flow_secs: spec.median_flow_secs,
            flow_sigma: FLOW_SIGMA,
        };
        let dips = spec.dips_per_vip.clamp(1, 120);
        let initial_mask: u128 = (1u128 << dips) - 1;
        let mut vips = Vec::with_capacity(scfg.vips as usize);
        for _ in 0..scfg.vips {
            vips.push(VipState {
                cur: 0,
                masks: vec![initial_mask],
                refs: vec![0],
                free: Vec::new(),
            });
        }
        let cap = (target + target / 8 + 64) as usize;
        let mut upd_rng =
            SmallRng::seed_from_u64(mix_seed(sim_seed, 0x000d_1b00_757e_ad00, u64::from(idx)));
        let upd_rate_per_sec = (spec.updates_per_min_median / 60.0).max(1e-9);
        let first_gap = exponential(&mut upd_rng, upd_rate_per_sec);
        let mut shard = ClusterShard {
            id: idx,
            scfg,
            gen: FlowGen::new(scfg, target),
            store: FlowStore::with_capacity(cap),
            wheel: TimerWheel::with_capacity(cap),
            vips,
            dips_per_vip: dips,
            upd_rng,
            upd_rate_per_sec,
            upd_factor: 1.0,
            next_upd_ns: (first_gap * 1e9) as u64,
            now_ns: 0,
            opens: 0,
            closes: 0,
            pcc_violations: 0,
            upd_applied: 0,
            upd_skipped: 0,
            digest: 0,
            live_samples: Vec::with_capacity(epochs as usize),
            peak_live: 0,
        };
        for q in 0..target {
            shard.prewarm_one(q);
        }
        shard.peak_live = shard.store.live();
        shard
    }

    /// Insert prewarm flow `q` (already live at t = 0) with a
    /// length-biased residual lifetime.
    fn prewarm_one(&mut self, q: u64) {
        let attrs = flow_attrs(&self.scfg, q);
        let close_ns = prewarm_close_ns(&self.scfg, q);
        let Some(vs) = self.vips.get_mut(usize::from(attrs.vip)) else {
            return;
        };
        let cur = vs.cur;
        let mask = vs.masks.get(usize::from(cur)).copied().unwrap_or(0);
        let dip = kth_set_bit(
            mask,
            (attrs.dip_hash % u64::from(mask.count_ones().max(1))) as u32,
        );
        if let Some(r) = vs.refs.get_mut(usize::from(cur)) {
            *r += 1;
        }
        let slot = self.store.insert(FlowRecord {
            seq: q,
            vip: attrs.vip,
            dip,
            version: cur,
            close_ns,
            flags: 0,
        });
        self.wheel.schedule(slot, close_ns);
    }

    /// Rescale the DIP-update rate (storm on/off). The pending gap is
    /// rescaled too, so the change takes effect at once (and
    /// deterministically: `now_ns` is always an epoch boundary).
    fn set_update_factor(&mut self, factor: f64) {
        let old = self.upd_factor.max(1e-12);
        let new = factor.max(1e-12);
        let rem = self.next_upd_ns.saturating_sub(self.now_ns) as f64 * (old / new);
        self.next_upd_ns = self.now_ns.saturating_add(rem as u64);
        self.upd_factor = factor;
    }

    /// Advance one epoch: merge arrivals and updates by timestamp, then
    /// fire the epoch's expiries from the wheel.
    fn advance_to(&mut self, to_ns: u64) {
        // srlint: hot-path begin
        loop {
            let t_arr = self.gen.peek_at().0;
            let t_upd = self.next_upd_ns;
            if t_arr.min(t_upd) > to_ns {
                break;
            }
            if t_arr <= t_upd {
                self.open_flow();
            } else {
                self.apply_update();
            }
        }
        let scfg = self.scfg;
        let id = self.id;
        let ClusterShard {
            wheel,
            store,
            vips,
            closes,
            pcc_violations,
            digest,
            ..
        } = self;
        wheel.advance(to_ns, |slot, _due| {
            let Some(rec) = store.remove(slot) else {
                return;
            };
            let attrs = flow_attrs(&scfg, rec.seq);
            let Some(vs) = vips.get_mut(usize::from(rec.vip)) else {
                return;
            };
            let ver = usize::from(rec.version);
            // PCC check: the mask for the stamped version is immutable
            // and pinned by this flow's reference, so re-deriving the
            // selection must reproduce the stamped DIP.
            let mask = vs.masks.get(ver).copied().unwrap_or(0);
            let expect = kth_set_bit(
                mask,
                (attrs.dip_hash % u64::from(mask.count_ones().max(1))) as u32,
            );
            if attrs.vip != rec.vip || expect != rec.dip {
                *pcc_violations += 1;
            }
            if let Some(r) = vs.refs.get_mut(ver) {
                *r = r.saturating_sub(1);
                if *r == 0 && rec.version != vs.cur {
                    vs.free.push(rec.version);
                }
            }
            *closes += 1;
            *digest =
                digest.wrapping_add(event_hash(id, rec.seq, rec.vip, rec.dip, rec.version, 1));
        });
        // srlint: hot-path end
        self.now_ns = to_ns;
        let live = self.store.live();
        self.peak_live = self.peak_live.max(live);
        self.live_samples.push(live);
    }

    /// Open the next flow from the arrival stream.
    fn open_flow(&mut self) {
        // srlint: hot-path begin
        let open = self.gen.next_open();
        let attrs = flow_attrs(&self.scfg, open.seq);
        let Some(vs) = self.vips.get_mut(usize::from(attrs.vip)) else {
            return;
        };
        let cur = vs.cur;
        let mask = vs.masks.get(usize::from(cur)).copied().unwrap_or(0);
        let dip = kth_set_bit(
            mask,
            (attrs.dip_hash % u64::from(mask.count_ones().max(1))) as u32,
        );
        if let Some(r) = vs.refs.get_mut(usize::from(cur)) {
            *r += 1;
        }
        let close_ns = open.at.0.saturating_add(attrs.duration_ns);
        let slot = self.store.insert(FlowRecord {
            seq: open.seq,
            vip: attrs.vip,
            dip,
            version: cur,
            close_ns,
            flags: 0,
        });
        self.wheel.schedule(slot, close_ns);
        self.opens += 1;
        self.digest = self
            .digest
            .wrapping_add(event_hash(self.id, open.seq, attrs.vip, dip, cur, 0));
        // srlint: hot-path end
    }

    /// Apply one DIP-pool update: toggle a random DIP of a random VIP
    /// into a freshly allocated version. RNG draws happen regardless of
    /// the outcome, so skipped updates keep the schedule deterministic.
    fn apply_update(&mut self) {
        let nvips = self.vips.len() as u32;
        let v = self.upd_rng.gen_range(0..nvips.max(1));
        let bit = self.upd_rng.gen_range(0..self.dips_per_vip.max(1));
        let rate = (self.upd_rate_per_sec * self.upd_factor).max(1e-12);
        let gap = exponential(&mut self.upd_rng, rate);
        self.next_upd_ns = self.next_upd_ns.saturating_add((gap * 1e9) as u64);
        let Some(vs) = self.vips.get_mut(v as usize) else {
            return;
        };
        let mask = vs.masks.get(usize::from(vs.cur)).copied().unwrap_or(0);
        let toggled = mask ^ (1u128 << bit);
        if toggled == 0 {
            // Removing the last DIP would strand the VIP; operators don't.
            self.upd_skipped += 1;
            return;
        }
        let slot = if let Some(s) = vs.free.pop() {
            if let Some(m) = vs.masks.get_mut(usize::from(s)) {
                *m = toggled;
            }
            if let Some(r) = vs.refs.get_mut(usize::from(s)) {
                *r = 0;
            }
            s
        } else if vs.masks.len() < MAX_VERSIONS {
            vs.masks.push(toggled);
            vs.refs.push(0);
            (vs.masks.len() - 1) as u8
        } else {
            // Version space exhausted: SilkRoad would stall the update
            // until old versions drain; we count the pressure and skip.
            self.upd_skipped += 1;
            return;
        };
        let old = vs.cur;
        vs.cur = slot;
        if old != slot && vs.refs.get(usize::from(old)).copied().unwrap_or(1) == 0 {
            vs.free.push(old);
        }
        self.upd_applied += 1;
    }

    /// Bytes of per-connection state (store + wheel).
    fn state_bytes(&self) -> u64 {
        self.store.allocated_bytes() + self.wheel.allocated_bytes()
    }

    /// Bytes of per-VIP control state (masks, refcounts, free lists).
    fn control_bytes(&self) -> u64 {
        self.vips
            .iter()
            .map(|v| {
                (v.masks.capacity() * 16 + v.refs.capacity() * 4 + v.free.capacity() + 8) as u64
            })
            .sum()
    }
}

/// Run the fleet engine to completion and report: one `exec` job per
/// cluster, folded in cluster order.
pub fn run_fleet(params: &FleetParams, exec: &Exec) -> FleetReport {
    let specs = synthesize_fleet(params.fleet);
    let total_weight: u64 = specs.iter().map(|s| s.total_conns_p99()).sum();
    let epoch_ns = params.epoch_ms.max(1) * 1_000_000;
    let epochs = (params.sim_secs * 1_000) / params.epoch_ms.max(1);
    let storm_on = epochs / 3;
    let storm_off = 2 * epochs / 3;

    let shards = exec.run(specs.iter().enumerate().collect(), |(i, spec)| {
        let target = ((params.target_conns as u128 * u128::from(spec.total_conns_p99()))
            / u128::from(total_weight.max(1))) as u64;
        let mut shard = ClusterShard::new(i as u32, spec, params.seed, target.max(16), epochs);
        for e in 1..=epochs {
            if e == storm_on {
                shard.set_update_factor(params.storm_factor);
            }
            if e == storm_off {
                shard.set_update_factor(1.0);
            }
            shard.advance_to(e * epoch_ns);
        }
        shard
    });

    let mut held = vec![0u64; epochs as usize];
    let mut per_cluster_peak = Vec::with_capacity(shards.len());
    let (mut opens, mut closes, mut pcc, mut upd_a, mut upd_s) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut state_bytes, mut control_bytes, mut digest, mut held_final) = (0u64, 0u64, 0u64, 0u64);
    for sh in &shards {
        for (e, v) in sh.live_samples.iter().enumerate() {
            if let Some(h) = held.get_mut(e) {
                *h += v;
            }
        }
        per_cluster_peak.push(sh.peak_live);
        opens += sh.opens;
        closes += sh.closes;
        pcc += sh.pcc_violations;
        upd_a += sh.upd_applied;
        upd_s += sh.upd_skipped;
        state_bytes += sh.state_bytes();
        control_bytes += sh.control_bytes();
        digest = digest.wrapping_add(sh.digest);
        held_final += sh.store.live();
    }
    let mut sorted = held.clone();
    sorted.sort_unstable();
    let held_median = sorted.get(sorted.len() / 2).copied().unwrap_or(0);
    let held_peak = held.iter().copied().max().unwrap_or(0);
    FleetReport {
        clusters: specs.len() as u32,
        epochs,
        held_median,
        held_peak,
        held_final,
        opens,
        closes,
        opens_per_sec: opens as f64 / params.sim_secs.max(1) as f64,
        pcc_violations: pcc,
        updates_applied: upd_a,
        updates_skipped: upd_s,
        state_bytes,
        bytes_per_conn: state_bytes as f64 / held_peak.max(1) as f64,
        control_bytes,
        digest,
        per_cluster_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> FleetParams {
        FleetParams {
            fleet: FleetConfig {
                pops: 2,
                frontends: 1,
                backends: 2,
                seed: 0xf1ee7,
            },
            seed: 42,
            target_conns: 20_000,
            sim_secs: 5,
            epoch_ms: 250,
            storm_factor: 10.0,
        }
    }

    #[test]
    fn holds_target_with_zero_pcc_violations() {
        let r = run_fleet(&small_params(), &Exec::new(1));
        assert_eq!(r.pcc_violations, 0);
        assert_eq!(r.clusters, 5);
        assert_eq!(r.epochs, 20);
        assert!(r.opens > 0, "no arrivals absorbed");
        assert!(r.closes > 0, "no expiries fired");
        let target = 20_000.0;
        let ratio = r.held_median as f64 / target;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "held_median {} vs target {target}",
            r.held_median
        );
        // 20 B/flow store + 12 B/flow wheel + slack must stay under the
        // paper-facing 64 B/conn budget.
        assert!(r.bytes_per_conn <= 64.0, "bytes/conn {}", r.bytes_per_conn);
        assert!(r.updates_applied > 0, "no pool churn simulated");
    }

    #[test]
    fn digest_and_counters_invariant_across_worker_counts() {
        let a = run_fleet(&small_params(), &Exec::new(1));
        let b = run_fleet(&small_params(), &Exec::new(3));
        assert_eq!(a.digest, b.digest, "event stream diverged across shardings");
        assert_eq!(a.opens, b.opens);
        assert_eq!(a.closes, b.closes);
        assert_eq!(a.held_median, b.held_median);
        assert_eq!(a.held_peak, b.held_peak);
        assert_eq!(a.updates_applied, b.updates_applied);
        assert_eq!(a.updates_skipped, b.updates_skipped);
        assert_eq!(a.per_cluster_peak, b.per_cluster_peak);
    }

    #[test]
    fn version_exhaustion_is_counted_not_violating() {
        // One VIP, flows far longer than the run (their version refs
        // never drop), and updates arriving about as fast as opens: every
        // version that picks up a reference is pinned forever, so the
        // 256-slot version space must run dry — and the engine must skip,
        // count, and stay PCC-clean.
        let spec = ClusterSpec {
            id: sr_types::ClusterId(0),
            kind: sr_workload::ClusterKind::Backend,
            family: sr_types::AddrFamily::V6,
            tors: 1,
            vips: 1,
            dips_per_vip: 8,
            conns_per_tor_median: 300_000,
            conns_per_tor_p99: 300_000,
            new_conns_per_vip_min: 1_000,
            updates_per_min_median: 9_000.0,
            updates_per_min_p99: 9_000.0,
            peak_gbps: 1.0,
            peak_pps: 1.0,
            median_flow_secs: 3_000.0,
            live_versions_per_vip: 4,
        };
        let mut sh = ClusterShard::new(0, &spec, 7, 300_000, 40);
        for e in 1..=40u64 {
            sh.advance_to(e * 250_000_000);
        }
        assert!(sh.upd_skipped > 0, "storm never exhausted version space");
        assert!(sh.upd_applied > 0);
        assert_eq!(sh.pcc_violations, 0);
    }
}
