//! DIP-pool update event generation (§3.1, Figures 2–4).
//!
//! Updates are structured the way the paper describes operations, not as
//! i.i.d. coin flips:
//!
//! * **Service upgrades** (82.7 % of DIP changes) are *rolling reboots*: a
//!   VIP's DIPs go down in small batches ("two DIPs every five minutes"),
//!   each coming back after a Fig 4 downtime (median 3 min, p99 100 min).
//! * In **PoP/Frontend-style clusters a DIP is shared by most VIPs**, so
//!   one physical reboot emits a *burst* of updates across every VIP — the
//!   reason some PoPs see >100 updates in their 99th-percentile minute
//!   (Fig 2), and the reason Duet's Migrate-PCC can never drain (Fig 5a).
//! * Failures/preemptions hit one DIP with a longer downtime; provisioning
//!   and removal are one-way changes.
//!
//! Cause *initiation* probabilities are derived from Fig 3's event shares
//! divided by each cause's events-per-initiation, so the generated event
//! mix matches the paper's measured distribution.

use crate::dists::{exponential, lognormal_median, sigma_for_p99};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sr_types::{DipId, Duration, Nanos, VipId};

/// Root cause of a DIP change (Fig 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateCause {
    /// Rolling service upgrade (82.7 % of changes).
    Upgrade,
    /// Canary/testing reboot of a DIP subset.
    Testing,
    /// Failure (lost control, crash): remove now, return much later.
    Failure,
    /// Preemption (maintenance, resource contention).
    Preempting,
    /// Capacity addition: a brand-new DIP appears.
    Provisioning,
    /// Capacity removal: a DIP leaves for good.
    Removing,
}

impl UpdateCause {
    /// All causes, in Fig 3 order.
    pub const ALL: [UpdateCause; 6] = [
        UpdateCause::Upgrade,
        UpdateCause::Testing,
        UpdateCause::Failure,
        UpdateCause::Preempting,
        UpdateCause::Provisioning,
        UpdateCause::Removing,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            UpdateCause::Upgrade => "upgrade",
            UpdateCause::Testing => "testing",
            UpdateCause::Failure => "failure",
            UpdateCause::Preempting => "preempting",
            UpdateCause::Provisioning => "provisioning",
            UpdateCause::Removing => "removing",
        }
    }

    /// Fig 3 probability mass (share of all DIP addition/removal *events*).
    pub fn share(self) -> f64 {
        match self {
            UpdateCause::Upgrade => 0.827,
            UpdateCause::Testing => 0.055,
            UpdateCause::Failure => 0.040,
            UpdateCause::Preempting => 0.033,
            UpdateCause::Provisioning => 0.025,
            UpdateCause::Removing => 0.020,
        }
    }

    /// Whether the cause takes the DIP down (and later back up) versus a
    /// one-way add/remove.
    pub fn has_downtime(self) -> bool {
        !matches!(self, UpdateCause::Provisioning | UpdateCause::Removing)
    }

    /// Sample the downtime (reboot-to-alive) for this cause, Fig 4.
    /// Provisioning causes no downtime.
    pub fn sample_downtime<R: Rng>(self, rng: &mut R) -> Duration {
        let (median_min, p99_min) = match self {
            // Upgrades: median 3 min, p99 100 min (Fig 4's headline).
            UpdateCause::Upgrade => (3.0, 100.0),
            UpdateCause::Testing => (5.0, 120.0),
            // Failures take longer to return (migration/repair).
            UpdateCause::Failure => (12.0, 400.0),
            UpdateCause::Preempting => (8.0, 240.0),
            UpdateCause::Provisioning | UpdateCause::Removing => return Duration::ZERO,
        };
        let mins = lognormal_median(rng, median_min, sigma_for_p99(median_min, p99_min));
        Duration::from_secs_f64(mins * 60.0)
    }
}

/// The operation an update performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DipOp {
    /// Take the DIP out of its VIP's pool.
    Remove,
    /// Put the DIP into its VIP's pool.
    Add,
}

/// One DIP change event.
#[derive(Clone, Copy, Debug)]
pub struct UpdateEvent {
    /// When.
    pub at: Nanos,
    /// Which VIP's pool changes.
    pub vip: VipId,
    /// Which DIP (index within the VIP's pool universe).
    pub dip: DipId,
    /// Remove or add.
    pub op: DipOp,
    /// Root cause.
    pub cause: UpdateCause,
}

/// Rolling-reboot batch size for dedicated pools (paper example: 2).
const REBOOT_BATCH: u32 = 2;

/// Period between rolling-reboot batches (paper example: 5 minutes).
const REBOOT_PERIOD: Duration = Duration::from_mins(5);

/// Parameters for an update plan.
#[derive(Clone, Copy, Debug)]
pub struct UpdatePlanConfig {
    /// VIPs in the cluster.
    pub vips: u32,
    /// DIPs per VIP.
    pub dips_per_vip: u32,
    /// Target average update events per minute (removes + adds, in-window,
    /// steady state).
    pub updates_per_min: f64,
    /// Window to fill.
    pub window: Duration,
    /// PoP/Frontend-style shared backends (§3.1): one physical DIP change
    /// bursts across every VIP at once.
    pub shared_dips: bool,
    /// Seed.
    pub seed: u64,
}

impl UpdatePlanConfig {
    /// A dedicated-pool (Backend-style) plan with the paper's rolling
    /// parameters.
    pub fn dedicated(
        vips: u32,
        dips_per_vip: u32,
        updates_per_min: f64,
        window: Duration,
        seed: u64,
    ) -> UpdatePlanConfig {
        UpdatePlanConfig {
            vips,
            dips_per_vip,
            updates_per_min,
            window,
            shared_dips: false,
            seed,
        }
    }

    /// A shared-DIP (PoP-style) plan.
    pub fn shared(
        vips: u32,
        dips_per_vip: u32,
        updates_per_min: f64,
        window: Duration,
        seed: u64,
    ) -> UpdatePlanConfig {
        UpdatePlanConfig {
            shared_dips: true,
            ..UpdatePlanConfig::dedicated(vips, dips_per_vip, updates_per_min, window, seed)
        }
    }

    /// Expected events one initiation of `cause` produces.
    fn events_per_initiation(&self, cause: UpdateCause) -> f64 {
        let v = self.vips.max(1) as f64;
        let d = self.dips_per_vip.max(1) as f64;
        match cause {
            UpdateCause::Upgrade => {
                if self.shared_dips {
                    // One shared machine reboots: remove+add on every VIP.
                    2.0 * v
                } else {
                    // Roll the whole pool of one VIP.
                    2.0 * d
                }
            }
            UpdateCause::Testing => 2.0 * (d / 4.0).max(1.0),
            UpdateCause::Failure | UpdateCause::Preempting => {
                if self.shared_dips {
                    2.0 * v
                } else {
                    2.0
                }
            }
            UpdateCause::Provisioning | UpdateCause::Removing => {
                if self.shared_dips {
                    v
                } else {
                    1.0
                }
            }
        }
    }
}

/// Generates a time-sorted update plan for a window.
pub struct UpdatePlanner {
    cfg: UpdatePlanConfig,
}

impl UpdatePlanner {
    /// Create a planner.
    pub fn new(cfg: UpdatePlanConfig) -> UpdatePlanner {
        UpdatePlanner { cfg }
    }

    /// Generate the plan. Initiations are Poisson and may *start before the
    /// window* (a rolling upgrade lasts up to hours), so the in-window
    /// event rate is steady-state; only events inside `[0, window)` are
    /// returned, time-sorted.
    pub fn generate(&self) -> Vec<UpdateEvent> {
        let cfg = &self.cfg;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x0bda7e5);
        let mut events: Vec<UpdateEvent> = Vec::new();
        if cfg.updates_per_min <= 0.0 || cfg.vips == 0 || cfg.dips_per_vip == 0 {
            return events;
        }

        // Initiation mix: i_c ∝ share_c / events_c so event shares match
        // Fig 3. E[events/initiation] = 1 / Σ(share_c / events_c).
        let weights: Vec<(UpdateCause, f64)> = UpdateCause::ALL
            .iter()
            .map(|&c| (c, c.share() / self.cfg.events_per_initiation(c)))
            .collect();
        let z: f64 = weights.iter().map(|(_, w)| w).sum();
        let expected_events_per_initiation = 1.0 / z;
        let initiation_rate_per_sec = cfg.updates_per_min / 60.0 / expected_events_per_initiation;

        // Lead-in: the longest-running structure is a dedicated rolling
        // upgrade; also cover long downtimes so adds from pre-window
        // removals land in-window.
        let roll_steps = cfg.dips_per_vip.div_ceil(REBOOT_BATCH) as u64;
        let lead = REBOOT_PERIOD
            .saturating_mul(roll_steps)
            .0
            .max(Duration::from_mins(120).0) as f64
            / 1e9;
        let window_secs = cfg.window.as_secs_f64();

        let mut t = -lead;
        loop {
            t += exponential(&mut rng, initiation_rate_per_sec);
            if t >= window_secs {
                break;
            }
            let cause = sample_weighted(&mut rng, &weights, z);
            self.emit_initiation(&mut rng, cause, t, &mut events);
        }
        events.sort_by_key(|e| e.at);
        events
    }

    fn emit_initiation(
        &self,
        rng: &mut SmallRng,
        cause: UpdateCause,
        t_secs: f64,
        out: &mut Vec<UpdateEvent>,
    ) {
        let cfg = &self.cfg;
        let push = |out: &mut Vec<UpdateEvent>, at_secs: f64, vip: u32, dip: u32, op: DipOp| {
            if at_secs < 0.0 || at_secs >= cfg.window.as_secs_f64() {
                return;
            }
            out.push(UpdateEvent {
                at: Nanos::ZERO + Duration::from_secs_f64(at_secs),
                vip: VipId(vip),
                dip: DipId(dip),
                op,
                cause,
            });
        };

        match cause {
            UpdateCause::Upgrade if cfg.shared_dips => {
                // One shared machine reboots: every VIP loses the DIP now
                // (small per-VIP jitter) and regains it after one downtime.
                let dip = rng.gen_range(0..cfg.dips_per_vip);
                let down = cause.sample_downtime(rng).as_secs_f64();
                for vip in 0..cfg.vips {
                    let jitter = rng.gen_range(0.0..2.0);
                    push(out, t_secs + jitter, vip, dip, DipOp::Remove);
                    push(out, t_secs + jitter + down, vip, dip, DipOp::Add);
                }
            }
            UpdateCause::Upgrade => {
                // Rolling reboot of one VIP's pool: `REBOOT_BATCH` DIPs per
                // `REBOOT_PERIOD`, each back after its own downtime.
                let vip = rng.gen_range(0..cfg.vips);
                let period = REBOOT_PERIOD.as_secs_f64();
                for (i, dip) in (0..cfg.dips_per_vip).enumerate() {
                    let step = (i as u32 / REBOOT_BATCH) as f64;
                    let start = t_secs + step * period + rng.gen_range(0.0..5.0);
                    let down = cause.sample_downtime(rng).as_secs_f64();
                    push(out, start, vip, dip, DipOp::Remove);
                    push(out, start + down, vip, dip, DipOp::Add);
                }
            }
            UpdateCause::Testing => {
                // Canary: roll a quarter of one VIP's pool.
                let vip = rng.gen_range(0..cfg.vips);
                let subset = (cfg.dips_per_vip / 4).max(1);
                let first = rng.gen_range(0..cfg.dips_per_vip);
                for i in 0..subset {
                    let dip = (first + i) % cfg.dips_per_vip;
                    let start = t_secs + i as f64 * 30.0;
                    let down = cause.sample_downtime(rng).as_secs_f64();
                    push(out, start, vip, dip, DipOp::Remove);
                    push(out, start + down, vip, dip, DipOp::Add);
                }
            }
            UpdateCause::Failure | UpdateCause::Preempting => {
                let dip = rng.gen_range(0..cfg.dips_per_vip);
                let down = cause.sample_downtime(rng).as_secs_f64();
                if cfg.shared_dips {
                    for vip in 0..cfg.vips {
                        let jitter = rng.gen_range(0.0..2.0);
                        push(out, t_secs + jitter, vip, dip, DipOp::Remove);
                        push(out, t_secs + jitter + down, vip, dip, DipOp::Add);
                    }
                } else {
                    let vip = rng.gen_range(0..cfg.vips);
                    push(out, t_secs, vip, dip, DipOp::Remove);
                    push(out, t_secs + down, vip, dip, DipOp::Add);
                }
            }
            UpdateCause::Provisioning | UpdateCause::Removing => {
                let op = if cause == UpdateCause::Provisioning {
                    DipOp::Add
                } else {
                    DipOp::Remove
                };
                let dip = rng.gen_range(0..cfg.dips_per_vip);
                if cfg.shared_dips {
                    for vip in 0..cfg.vips {
                        push(out, t_secs + rng.gen_range(0.0..2.0), vip, dip, op);
                    }
                } else {
                    let vip = rng.gen_range(0..cfg.vips);
                    push(out, t_secs, vip, dip, op);
                }
            }
        }
    }
}

fn sample_weighted(rng: &mut SmallRng, weights: &[(UpdateCause, f64)], z: f64) -> UpdateCause {
    let x: f64 = rng.gen_range(0.0..z);
    let mut acc = 0.0;
    for (c, w) in weights {
        acc += w;
        if x < acc {
            return *c;
        }
    }
    UpdateCause::Upgrade
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(upm: f64, mins: u64, shared: bool) -> Vec<UpdateEvent> {
        let cfg = if shared {
            UpdatePlanConfig::shared(100, 20, upm, Duration::from_mins(mins), 7)
        } else {
            UpdatePlanConfig::dedicated(100, 20, upm, Duration::from_mins(mins), 7)
        };
        UpdatePlanner::new(cfg).generate()
    }

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = UpdateCause::ALL.iter().map(|c| c.share()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rate_matches_target_dedicated() {
        let events = plan(30.0, 120, false);
        let per_min = events.len() as f64 / 120.0;
        assert!((15.0..45.0).contains(&per_min), "rate {per_min}");
    }

    #[test]
    fn rate_matches_target_shared() {
        let events = plan(30.0, 240, true);
        let per_min = events.len() as f64 / 240.0;
        assert!((12.0..48.0).contains(&per_min), "rate {per_min}");
    }

    #[test]
    fn events_sorted_and_in_window() {
        for shared in [false, true] {
            let events = plan(20.0, 60, shared);
            assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
            let window = Duration::from_mins(60);
            assert!(events.iter().all(|e| e.at.since(Nanos::ZERO) < window));
        }
    }

    #[test]
    fn cause_mix_matches_fig3() {
        let events = plan(60.0, 1200, false);
        assert!(events.len() > 10_000, "not enough events: {}", events.len());
        for cause in UpdateCause::ALL {
            let n = events.iter().filter(|e| e.cause == cause).count() as f64;
            let share = n / events.len() as f64;
            assert!(
                (share - cause.share()).abs() < 0.06,
                "{}: generated {share} vs target {}",
                cause.name(),
                cause.share()
            );
        }
    }

    #[test]
    fn shared_bursts_touch_many_vips_at_once() {
        let events = plan(50.0, 240, true);
        // Group upgrade removals by second; bursts must span many VIPs.
        use std::collections::HashMap;
        let mut by_sec: HashMap<u64, std::collections::HashSet<u32>> = HashMap::new();
        for e in &events {
            if e.cause == UpdateCause::Upgrade && e.op == DipOp::Remove {
                by_sec
                    .entry(e.at.0 / 2_000_000_000)
                    .or_default()
                    .insert(e.vip.0);
            }
        }
        let max_burst = by_sec.values().map(|s| s.len()).max().unwrap_or(0);
        assert!(max_burst > 30, "largest burst only {max_burst} VIPs");
    }

    #[test]
    fn dedicated_upgrades_roll_one_vip() {
        let events = plan(40.0, 240, false);
        // Upgrade events concentrate: for some vip, count distinct dips
        // removed — a rolling upgrade touches many dips of the same vip.
        use std::collections::HashMap;
        let mut per_vip: HashMap<u32, std::collections::HashSet<u32>> = HashMap::new();
        for e in &events {
            if e.cause == UpdateCause::Upgrade && e.op == DipOp::Remove {
                per_vip.entry(e.vip.0).or_default().insert(e.dip.0);
            }
        }
        let max_dips = per_vip.values().map(|s| s.len()).max().unwrap_or(0);
        assert!(max_dips >= 10, "rolling upgrade too narrow: {max_dips}");
    }

    #[test]
    fn downtime_distribution_fig4() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut mins: Vec<f64> = (0..20_000)
            .map(|_| UpdateCause::Upgrade.sample_downtime(&mut rng).as_secs_f64() / 60.0)
            .collect();
        mins.sort_by(f64::total_cmp);
        let med = mins[mins.len() / 2];
        let p99 = mins[(mins.len() as f64 * 0.99) as usize];
        assert!((2.5..3.5).contains(&med), "median {med}");
        assert!((60.0..160.0).contains(&p99), "p99 {p99}");
        assert_eq!(
            UpdateCause::Provisioning.sample_downtime(&mut rng),
            Duration::ZERO
        );
    }

    #[test]
    fn degenerate_configs_yield_empty() {
        assert!(plan(0.0, 10, false).is_empty());
        let p = UpdatePlanner::new(UpdatePlanConfig::dedicated(
            0,
            10,
            10.0,
            Duration::from_mins(10),
            1,
        ));
        assert!(p.generate().is_empty());
    }
}
