//! DIP health checking (§7, "Handle DIP failures").
//!
//! "Many switches today offer an ability to offload BFD... To perform the
//! health check for 10K DIPs in every 10 seconds with 100-byte packets,
//! switches only need around 800 Kbps bandwidth."
//!
//! The [`HealthChecker`] schedules per-DIP probes on a fixed interval,
//! declares a DIP down after `fail_threshold` consecutive missed replies,
//! and up again after `rise_threshold` successes. Each verdict comes out
//! as the `Remove`/`Add` pool update it stands for, which the caller hands
//! to `request_update`; the version-reuse machinery then collapses a flap
//! into at most a couple of pool versions.

use crate::pool::PoolUpdate;
use sr_hash::FxHashMap;
use sr_types::{Dip, Duration, Nanos, Vip};

/// Health-checker configuration.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Probe interval per DIP (paper example: 10 s).
    pub interval: Duration,
    /// Probe packet size on the wire, bytes (paper example: 100 B).
    pub probe_bytes: u32,
    /// Consecutive failures before declaring a DIP down (BFD-style).
    pub fail_threshold: u32,
    /// Consecutive successes before declaring it up again.
    pub rise_threshold: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            interval: Duration::from_secs(10),
            probe_bytes: 100,
            fail_threshold: 3,
            rise_threshold: 2,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Healthy,
    Failed,
}

struct Target {
    vip: Vip,
    dip: Dip,
    verdict: Verdict,
    consecutive: u32,
    next_probe: Nanos,
}

/// The BFD-offload health checker.
///
/// ```
/// use silkroad::{HealthChecker, HealthConfig, PoolUpdate, SilkRoadConfig, SilkRoadSwitch};
/// use sr_types::{Addr, Dip, Nanos, Vip};
/// let mut hc = HealthChecker::new(HealthConfig { fail_threshold: 2, ..Default::default() });
/// let vip = Vip(Addr::v4(20, 0, 0, 1, 80));
/// let dip = Dip(Addr::v4(10, 0, 0, 1, 20));
/// let mut sw = SilkRoadSwitch::new(SilkRoadConfig::small_test());
/// sw.add_vip(vip, vec![dip, Dip(Addr::v4(10, 0, 0, 2, 20))]).unwrap();
/// hc.watch(vip, dip, Nanos::ZERO);
/// // Two probe rounds (at 0 s and 10 s) with no reply: declared down.
/// assert!(hc.poll(Nanos::from_secs(5), |_, _| false).is_empty());
/// let now = Nanos::from_secs(15);
/// let updates = hc.poll(now, |_, _| false);
/// assert_eq!(updates, vec![(vip, PoolUpdate::Remove(dip))]);
/// for (vip, op) in updates {
///     sw.request_update(vip, op, now).unwrap();
/// }
/// ```
pub struct HealthChecker {
    cfg: HealthConfig,
    targets: Vec<Target>,
    /// Index by (vip, dip) into `targets`.
    index: FxHashMap<(Vip, Dip), usize>,
    /// Probes sent (bandwidth accounting).
    pub probes_sent: u64,
}

impl HealthChecker {
    /// Create an empty checker.
    pub fn new(cfg: HealthConfig) -> HealthChecker {
        HealthChecker {
            cfg,
            targets: Vec::new(),
            index: FxHashMap::default(),
            probes_sent: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Number of monitored DIPs.
    pub fn monitored(&self) -> usize {
        self.targets.len()
    }

    /// Start monitoring a DIP. Probes are staggered across the interval so
    /// the probe stream is smooth rather than bursty.
    pub fn watch(&mut self, vip: Vip, dip: Dip, now: Nanos) {
        if self.index.contains_key(&(vip, dip)) {
            return;
        }
        let slot = self.targets.len();
        let stagger = if self.cfg.interval.0 == 0 {
            Duration::ZERO
        } else {
            Duration((slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % self.cfg.interval.0)
        };
        self.targets.push(Target {
            vip,
            dip,
            verdict: Verdict::Healthy,
            consecutive: 0,
            next_probe: now + stagger,
        });
        self.index.insert((vip, dip), slot);
    }

    /// Stop monitoring a DIP (it was administratively removed).
    pub fn unwatch(&mut self, vip: Vip, dip: Dip) {
        if let Some(i) = self.index.remove(&(vip, dip)) {
            self.targets.swap_remove(i);
            if i < self.targets.len() {
                let moved = (self.targets[i].vip, self.targets[i].dip);
                self.index.insert(moved, i);
            }
        }
    }

    /// The earliest scheduled probe.
    pub fn next_wakeup(&self) -> Option<Nanos> {
        self.targets.iter().map(|t| t.next_probe).min()
    }

    /// Run all probes due at `now`. `responder` answers whether the DIP
    /// replied (the simulator's ground truth). Returns one pool update per
    /// state transition crossed: `Remove` when a DIP goes down, `Add` when
    /// it comes back up.
    pub fn poll<F: FnMut(Vip, Dip) -> bool>(
        &mut self,
        now: Nanos,
        mut responder: F,
    ) -> Vec<(Vip, PoolUpdate)> {
        let mut events = Vec::new();
        for t in &mut self.targets {
            while t.next_probe <= now {
                t.next_probe += self.cfg.interval;
                self.probes_sent += 1;
                let alive = responder(t.vip, t.dip);
                match (t.verdict, alive) {
                    (Verdict::Healthy, true) | (Verdict::Failed, false) => {
                        t.consecutive = 0;
                    }
                    (Verdict::Healthy, false) => {
                        t.consecutive += 1;
                        if t.consecutive >= self.cfg.fail_threshold {
                            t.verdict = Verdict::Failed;
                            t.consecutive = 0;
                            events.push((t.vip, PoolUpdate::Remove(t.dip)));
                        }
                    }
                    (Verdict::Failed, true) => {
                        t.consecutive += 1;
                        if t.consecutive >= self.cfg.rise_threshold {
                            t.verdict = Verdict::Healthy;
                            t.consecutive = 0;
                            events.push((t.vip, PoolUpdate::Add(t.dip)));
                        }
                    }
                }
            }
        }
        events
    }

    /// Steady-state probe bandwidth in bits per second.
    pub fn probe_bandwidth_bps(&self) -> f64 {
        if self.cfg.interval.0 == 0 {
            return 0.0;
        }
        self.targets.len() as f64 * self.cfg.probe_bytes as f64 * 8.0
            / self.cfg.interval.as_secs_f64()
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

    fn checker() -> HealthChecker {
        let mut h = HealthChecker::new(HealthConfig {
            interval: Duration::from_secs(1),
            probe_bytes: 100,
            fail_threshold: 3,
            rise_threshold: 2,
        });
        for i in 1..=4 {
            h.watch(vip(), dip(i), Nanos::ZERO);
        }
        h
    }

    #[test]
    fn healthy_dips_generate_no_events() {
        let mut h = checker();
        let ev = h.poll(Nanos::from_secs(10), |_, _| true);
        assert!(ev.is_empty());
        assert!(h.probes_sent >= 4 * 10);
    }

    #[test]
    fn failure_needs_consecutive_misses() {
        let mut h = checker();
        let mut down_at = None;
        for s in 1..=10 {
            let ev = h.poll(Nanos::from_secs(s), |_, d| d != dip(2));
            for e in ev {
                assert_eq!(e, (vip(), PoolUpdate::Remove(dip(2))));
                assert!(down_at.is_none());
                down_at = Some(s);
            }
        }
        // 3 consecutive misses needed: not before second 3.
        let s = down_at.expect("dip2 never declared down");
        assert!(s >= 3, "declared down after only {s} probes");
    }

    #[test]
    fn flap_recovers_after_rise_threshold() {
        let mut h = checker();
        // Kill dip1 for 5 seconds, then restore.
        let mut events = Vec::new();
        for s in 1..=20 {
            let alive = s > 5;
            events.extend(h.poll(Nanos::from_secs(s), |_, d| d != dip(1) || alive));
        }
        assert_eq!(
            events,
            vec![
                (vip(), PoolUpdate::Remove(dip(1))),
                (vip(), PoolUpdate::Add(dip(1)))
            ]
        );
    }

    #[test]
    fn unwatch_stops_probing() {
        let mut h = checker();
        h.unwatch(vip(), dip(1));
        assert_eq!(h.monitored(), 3);
        let ev = h.poll(Nanos::from_secs(30), |_, d| d != dip(1));
        assert!(ev.is_empty(), "unwatched DIP produced {ev:?}");
        // Double unwatch is a no-op; watch is idempotent.
        h.unwatch(vip(), dip(1));
        h.watch(vip(), dip(2), Nanos::ZERO);
        assert_eq!(h.monitored(), 3);
    }

    #[test]
    fn paper_bandwidth_number() {
        // 10K DIPs, 10 s interval, 100 B probes => ~800 Kbps.
        let mut h = HealthChecker::new(HealthConfig::default());
        for i in 0..10_000u32 {
            h.watch(vip(), Dip(Addr::v4_indexed(10, i, 20)), Nanos::ZERO);
        }
        let bps = h.probe_bandwidth_bps();
        assert!((700_000.0..900_000.0).contains(&bps), "{bps}");
    }

    #[test]
    fn probes_staggered() {
        let mut h = checker();
        // Within the first interval every target fires exactly once.
        let before = h.probes_sent;
        h.poll(Nanos::from_secs(1), |_, _| true);
        assert!(h.probes_sent - before >= 4);
        assert!(h.next_wakeup().is_some());
    }
}
