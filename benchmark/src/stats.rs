//! Order statistics for the benchmark's reports: medians, quartiles, the
//! slice-median rate, and the rule that a tail percentile is reported only
//! when at least ten samples lie beyond it.

/// Linear-interpolated quantile `q` (0..=1) of an ascending-sorted slice.
/// Empty input yields 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let a = sorted[lo];
    let b = sorted.get(lo + 1).copied().unwrap_or(last);
    a + (b - a) * frac
}

/// Sort a sample ascending (NaNs, which no caller produces, sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), 0.5)
}

/// (first quartile, median, third quartile) of an unsorted sample.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// Samples required beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 99th percentile of an unsorted sample, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it (under 1 000 samples): a name
/// always carries the same percentile, or no value.
pub fn p99(v: &[f64]) -> Option<f64> {
    (v.len() / 100 >= TAIL_MIN_BEYOND).then(|| quantile_sorted(&sorted(v.to_vec()), 0.99))
}

/// One time slice of a measurement window: work done and the seconds the
/// program under test spent doing it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Slice {
    /// Packets completed in the slice.
    pub packets: u64,
    /// Nanoseconds spent inside calls into the program.
    pub busy_ns: u64,
}

/// Per-slice rates (packets per busy second); empty slices are skipped.
pub fn slice_rates(slices: &[Slice]) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| s.packets > 0 && s.busy_ns > 0)
        .map(|s| s.packets as f64 * 1e9 / s.busy_ns as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.125), 1.5);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_and_quartiles_of_unsorted_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let (q1, q2, q3) = quartiles(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!((q1, q2, q3), (3.0, 5.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1_000).map(f64::from).collect();
        let val = p99(&v).expect("1 000 samples leave ten beyond p99");
        assert!(v.iter().filter(|x| **x > val).count() >= TAIL_MIN_BEYOND);
        assert_eq!(p99(&v[..999]), None);
        assert_eq!(p99(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        let mut slices = vec![
            Slice {
                packets: 1_000,
                busy_ns: 1_000_000
            };
            19
        ];
        // One slice hit by a 10x stall: the mean would move 30 %, the
        // slice median not at all.
        slices.push(Slice {
            packets: 1_000,
            busy_ns: 10_000_000,
        });
        slices.push(Slice::default());
        let rates = slice_rates(&slices);
        assert_eq!(rates.len(), 20);
        assert_eq!(median(&rates), 1e6);
    }
}
