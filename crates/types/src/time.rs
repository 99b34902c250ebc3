//! Simulation time.
//!
//! The whole reproduction runs on a single deterministic clock measured in
//! nanoseconds since simulation start. We use a newtype instead of
//! `std::time::Duration`/`Instant` because simulated time must be cheap to
//! order, hash, and do saturating arithmetic on, and must never consult the
//! host clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

/// A span of simulated time, in nanoseconds.
///
/// Distinct from [`Nanos`] so that `instant + instant` does not typecheck
/// but `instant + span` does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Nanos {
    /// The start of simulated time.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable instant (used as an "infinity" sentinel).
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Nanos {
        Nanos(m * 60 * 1_000_000_000)
    }

    /// Instant expressed as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: Nanos) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a span.
    pub fn saturating_add(self, d: Duration) -> Nanos {
        Nanos(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The maximum representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Duration {
        Duration(m * 60 * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs clamp to zero — workload generators
    /// sample durations from continuous distributions and must never panic
    /// on a tail sample.
    pub fn from_secs_f64(s: f64) -> Duration {
        if s.is_nan() || s <= 0.0 {
            return Duration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(ns.round() as u64)
        }
    }

    /// Span as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Integer division of spans (how many `rhs` fit in `self`).
    pub fn div_duration(self, rhs: Duration) -> u64 {
        self.0.checked_div(rhs.0).unwrap_or(0)
    }

    /// Multiply the span by an integer, saturating.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Duration) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Nanos {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Duration) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Sub<Nanos> for Nanos {
    type Output = Duration;
    fn sub(self, rhs: Nanos) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

fn format_ns(ns: u64) -> String {
    if ns == u64::MAX {
        "inf".to_string()
    } else if ns >= 60_000_000_000 {
        format!("{:.2}min", ns as f64 / 60e9)
    } else if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos(1_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
        assert_eq!(Nanos::from_mins(2), Nanos::from_secs(120));
        assert_eq!(Duration::from_secs(3), Duration::from_millis(3_000));
    }

    #[test]
    fn instant_plus_span() {
        let t = Nanos::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t, Nanos(1_500_000_000));
    }

    #[test]
    fn instant_difference_is_span() {
        let a = Nanos::from_secs(5);
        let b = Nanos::from_secs(2);
        assert_eq!(a - b, Duration::from_secs(3));
    }

    #[test]
    fn since_saturates() {
        let a = Nanos::from_secs(1);
        let b = Nanos::from_secs(2);
        assert_eq!(a.since(b), Duration::ZERO);
        assert_eq!(b.since(a), Duration::from_secs(1));
    }

    #[test]
    fn from_secs_f64_clamps_garbage() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::INFINITY), Duration::MAX);
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn div_duration() {
        let d = Duration::from_secs(10);
        assert_eq!(d.div_duration(Duration::from_secs(3)), 3);
        assert_eq!(d.div_duration(Duration::ZERO), 0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos(500).to_string(), "500ns");
        assert_eq!(Nanos(1_500).to_string(), "1.500us");
        assert_eq!(Nanos(2_000_000).to_string(), "2.000ms");
        assert_eq!(Nanos::from_secs(3).to_string(), "3.000s");
        assert_eq!(Nanos::from_mins(90).to_string(), "90.00min");
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Nanos::MAX.saturating_add(Duration(1)), Nanos::MAX);
        assert_eq!(Duration::MAX.saturating_mul(2), Duration::MAX);
    }
}
