//! Statistics helpers used throughout the measurement code: running
//! moments, percentile summaries, Pearson correlation and least-squares
//! fits (the paper validates ULI linearity with a Pearson coefficient of
//! 0.9998), and time-series recording for bandwidth traces.

use crate::time::SimTime;

/// Running mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use sim_core::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 1 observation).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample variance with Bessel's correction (0 when n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A batch summary of samples: mean and arbitrary percentiles.
///
/// The paper's figures report the average plus the 10th/90th percentile
/// band; [`Summary::from_samples`] computes exactly that.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample set (the slice is copied and sorted internally).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty sample set");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let mut stats = OnlineStats::new();
        for &x in samples {
            stats.push(x);
        }
        Summary {
            count: samples.len(),
            mean: stats.mean(),
            std_dev: stats.population_std_dev(),
            p10: percentile_sorted(&sorted, 0.10),
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Percentile of an already-sorted slice by linear interpolation.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns 0 when either series has zero variance.
///
/// # Panics
///
/// Panics if the series lengths differ or are < 2.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "series lengths differ");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Least-squares line fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Pearson correlation of the underlying data.
    pub r: f64,
}

/// Fits a straight line to `(x, y)` pairs by ordinary least squares.
///
/// # Panics
///
/// Panics if the series lengths differ, are < 2, or `x` has zero variance.
pub fn linear_fit(x: &[f64], y: &[f64]) -> LineFit {
    assert_eq!(x.len(), y.len(), "series lengths differ");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
    }
    assert!(sxx > 0.0, "x has zero variance");
    let slope = sxy / sxx;
    LineFit {
        slope,
        intercept: my - slope * mx,
        r: pearson(x, y),
    }
}

/// A recorded time series of `(instant, value)` points, e.g. a bandwidth
/// counter sampled over time or per-message latencies.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point. Points must be pushed in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded instant.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be pushed in order");
        }
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Values only, discarding timestamps.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Mean of values within `[from, to)`.
    ///
    /// Returns `None` when the window contains no points.
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut stats = OnlineStats::new();
        for &(t, v) in &self.points {
            if t >= from && t < to {
                stats.push(v);
            }
        }
        if stats.count() == 0 {
            None
        } else {
            Some(stats.mean())
        }
    }

    /// Drops points older than `horizon` before `now` (the sliding window
    /// maintenance step of the paper's Algorithm 1).
    pub fn retain_window(&mut self, now: SimTime, horizon: crate::SimDuration) {
        let cutoff = if now.as_picos() > horizon.as_picos() {
            now - horizon
        } else {
            SimTime::ZERO
        };
        self.points.retain(|&(t, _)| t >= cutoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in 1..=5 {
            s.push(x as f64);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.population_variance() - 2.0).abs() < 1e-12);
        assert!((s.sample_variance() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(left.count(), all.count());
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 3.0);
        assert!((percentile_sorted(&sorted, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.p50 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson(&x, &flat), 0.0);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.5 * v + 2.0).collect();
        let fit = linear_fit(&x, &y);
        assert!((fit.slope - 3.5).abs() < 1e-9);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
        assert!((fit.r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_series_window_ops() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(SimTime::from_micros(i), i as f64);
        }
        let m = ts
            .window_mean(SimTime::from_micros(2), SimTime::from_micros(5))
            .expect("window has points");
        assert!((m - 3.0).abs() < 1e-12);
        assert_eq!(
            ts.window_mean(SimTime::from_micros(100), SimTime::from_micros(200)),
            None
        );
        ts.retain_window(SimTime::from_micros(9), SimDuration::from_micros(3));
        assert_eq!(ts.len(), 4); // t = 6, 7, 8, 9
    }

    #[test]
    #[should_panic(expected = "pushed in order")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_micros(5), 1.0);
        ts.push(SimTime::from_micros(4), 2.0);
    }
}
