//! Latency summaries: a median plus the highest tail percentile the
//! sample supports.

/// Tail percentiles considered, highest first. A percentile is reported
/// only when at least [`MIN_BEYOND`] samples lie beyond it.
const TAIL_LADDER: [f64; 3] = [0.99, 0.9, 0.5];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond its nearest-rank position, or `None`
/// when even the median lacks them.
#[must_use]
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND)
}

/// Nearest-rank quantile of an already sorted sample.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Median of an unsorted sample (nearest rank; `NaN` when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Windows a run's tail is taken over, once it has the 1000 samples a
/// p99 needs.
pub const TAIL_WINDOWS: usize = 10;

/// Median, p90 and supported tail of one latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Meaningful once `tail_q >= 0.9`.
    pub p90: f64,
    /// Which percentile `tail` is (0.99 when the sample supports it).
    pub tail_q: f64,
    pub tail: f64,
    /// Windows `p90` and `tail` are the median of (1 for [`Summary::of`]).
    pub windows: usize,
}

impl Summary {
    /// Summarises `values`; `None` when even the median has fewer than
    /// [`MIN_BEYOND`] samples beyond it (under 20 samples).
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        let tail_q = tail_quantile(values.len())?;
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            p50: quantile_sorted(&v, 0.5),
            p90: quantile_sorted(&v, 0.9),
            tail_q,
            tail: quantile_sorted(&v, tail_q),
            windows: 1,
        })
    }

    /// Like [`Summary::of`], but once the sample supports a p99, `p90`
    /// and the tail are medians over [`TAIL_WINDOWS`] consecutive
    /// windows (in issue order) of each window's percentile, so a burst
    /// of host noise moves a few windows, not the run's numbers.
    #[must_use]
    pub fn of_windows(values: &[f64]) -> Option<Self> {
        let mut s = Self::of(values)?;
        if s.tail_q < 0.99 {
            return Some(s);
        }
        let len = values.len() / TAIL_WINDOWS;
        let windows: Vec<Vec<f64>> = (0..TAIL_WINDOWS)
            .map(|w| {
                let end = if w + 1 == TAIL_WINDOWS {
                    values.len()
                } else {
                    (w + 1) * len
                };
                let mut v = values[w * len..end].to_vec();
                v.sort_by(f64::total_cmp);
                v
            })
            .collect();
        let across = |q: f64| {
            median(
                &windows
                    .iter()
                    .map(|v| quantile_sorted(v, q))
                    .collect::<Vec<_>>(),
            )
        };
        s.p90 = across(0.9);
        s.tail = across(s.tail_q);
        s.windows = TAIL_WINDOWS;
        Some(s)
    }
}

/// Median over `windows` equal slices of `[0, span_s)` of the bytes
/// completed in each slice per second, in MB/s: a burst of host noise
/// slows a few windows, not the reported rate.
#[must_use]
pub fn windowed_rate_mb_s(done: &[(f64, u64)], span_s: f64, windows: usize) -> f64 {
    let width = span_s / windows as f64;
    let mut bytes = vec![0u64; windows];
    for &(t, b) in done {
        bytes[((t / width) as usize).min(windows - 1)] += b;
    }
    let rates: Vec<f64> = bytes.iter().map(|&b| b as f64 / 1e6 / width).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(10), None);
        assert_eq!(tail_quantile(19), None);
        // n = 21: the median is rank 11, leaving exactly ten beyond.
        assert_eq!(tail_quantile(21), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        // n = 100: p90 is rank 90, ten beyond.
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        // n = 1000: p99 is rank 990, ten beyond.
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
    }

    #[test]
    fn chosen_tail_always_leaves_ten_beyond() {
        for n in 1..3000 {
            if let Some(q) = tail_quantile(n) {
                assert!(n - 1 - rank(n, q) >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn summary_reads_nearest_rank() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert!(Summary::of(&values[..19]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_rate_ignores_a_slow_window() {
        // 1 MB every 0.1 s for 3 s, except a stalled second window.
        let done: Vec<(f64, u64)> = (0..30)
            .filter(|i| !(10..20).contains(i) || i % 5 == 0)
            .map(|i| (f64::from(i) * 0.1 + 0.05, 1_000_000))
            .collect();
        assert!((windowed_rate_mb_s(&done, 3.0, 3) - 10.0).abs() < 1e-9);
        assert!((windowed_rate_mb_s(&done, 3.0, 1) - 22.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_tail_is_the_median_window_tail() {
        // Ten windows of 100; three burst windows have a huge tail.
        let mut values = Vec::new();
        for w in 0..10 {
            let burst = if w % 3 == 1 { 1e6 } else { 0.0 };
            values.extend((1..=100).map(|i| f64::from(i) + if i > 90 { burst } else { 0.0 }));
        }
        let s = Summary::of_windows(&values).unwrap();
        assert_eq!((s.windows, s.tail_q, s.tail, s.p90), (10, 0.99, 99.0, 90.0));
        assert!(Summary::of(&values).unwrap().tail > 1e6);
        // Without a p99 it is the plain summary.
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = Summary::of_windows(&few).unwrap();
        assert_eq!((s.windows, s.tail_q, s.tail), (1, 0.9, 450.0));
    }
}
