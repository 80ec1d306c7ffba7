//! Order statistics and the regression verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same values by any script that checks this
//! benchmark.

/// Linear-interpolated percentile `p` (0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentile `p` of the least-disturbed of `blocks` consecutive blocks
/// of equal count: the lowest of the blocks' percentiles. On a shared
/// host, other tenants slow whole seconds at a time; a code change
/// moves every block, interference only the blocks it covers.
pub fn best_block_percentile(samples: &[f64], p: f64, blocks: usize) -> f64 {
    let n = samples.len();
    let b = blocks.clamp(1, n.max(1));
    (0..b)
        .map(|i| percentile(&samples[i * n / b..(i + 1) * n / b], p))
        .fold(f64::INFINITY, f64::min)
}

/// `(q1, median, q3)` by Python's exclusive quantile method.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The highest of the usual reporting percentiles that has at least
/// ten samples beyond it, or `None` with fewer than 20 samples.
pub fn highest_resolved_percentile(n: usize) -> Option<f64> {
    // In per mille, so the count beyond is exact integer arithmetic.
    [999, 990, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// Peak resident set in MiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing one metric on one workload across two commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and its median
    /// moved by more than the base's own quartile spread.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// The median worsened by more than the bound.
    Worse,
    /// The base's own spread is wider than the bound, so "no worse"
    /// cannot be told apart from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change from `base` to `new`, signed so that positive means
/// worse.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let rel = (new - base) / base;
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// The verdict for one metric, from every run of each side (runs are
/// paired in order) and the metric's bound (a share of the base median).
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (bq1, bmed, bq3) = quartiles(base);
    let (_, nmed, _) = quartiles(new);
    let spread = (bq3 - bq1) / bmed;
    let beats = |n: f64, b: f64| worsening(b, n, better) < 0.0;
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|&(&b, &n)| beats(n, b)).count();
    let change = worsening(bmed, nmed, better);
    if all_better || (pairs > 0 && wins * 10 >= pairs * 9 && -change > spread) {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        // statistics.quantiles([2, 8], n=4) == [0.5, 5.0, 9.5]
        assert_eq!(quartiles(&[2.0, 8.0]), (0.5, 5.0, 9.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn best_block_percentile_skips_disturbed_blocks() {
        // 5 blocks of 100 units; the second, third and fifth run 1.6x
        // slower throughout, as under a noisy neighbour.
        let samples: Vec<f64> = (0..500)
            .map(|i| {
                let base = 10.0 + f64::from(i % 100) / 100.0;
                if (100..300).contains(&i) || i >= 400 {
                    base * 1.6
                } else {
                    base
                }
            })
            .collect();
        let quiet: Vec<f64> = (0..100).map(|i| 10.0 + f64::from(i) / 100.0).collect();
        assert_eq!(
            best_block_percentile(&samples, 90.0, 5),
            percentile(&quiet, 90.0)
        );
        assert_eq!(best_block_percentile(&samples, 50.0, 5), median(&quiet));
        assert!(
            percentile(&samples, 50.0) > 15.0,
            "a plain median sees the slow blocks"
        );
        // A uniform slowdown, as from a code change, moves the result.
        let slower: Vec<f64> = samples.iter().map(|x| x * 1.1).collect();
        let moved = best_block_percentile(&slower, 50.0, 5) / median(&quiet);
        assert!((moved - 1.1).abs() < 1e-9);
        // Fewer samples than blocks: one block per sample.
        assert_eq!(best_block_percentile(&[3.0, 1.0, 2.0], 50.0, 5), 1.0);
        assert_eq!(best_block_percentile(&[4.0, 2.0], 50.0, 1), 3.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_resolved_percentile(19), None);
        assert_eq!(highest_resolved_percentile(20), Some(50.0));
        assert_eq!(highest_resolved_percentile(99), Some(50.0));
        assert_eq!(highest_resolved_percentile(100), Some(90.0));
        assert_eq!(highest_resolved_percentile(999), Some(90.0));
        assert_eq!(highest_resolved_percentile(1000), Some(99.0));
        assert_eq!(highest_resolved_percentile(10_000), Some(99.9));
    }

    #[test]
    fn vm_hwm_parses_kib_into_mib() {
        let status = "Name:\tperf\nVmPeak:\t  20480 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(5.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t4096 MB\n"), None);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Lower is better: 3% slower is within an 8% bound.
        let slower: Vec<f64> = base.iter().map(|x| x * 1.03).collect();
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.08),
            Verdict::WithinBound
        );
        // 12% slower is worse.
        let much_slower: Vec<f64> = base.iter().map(|x| x * 1.12).collect();
        assert_eq!(
            verdict(&base, &much_slower, Better::Lower, 0.08),
            Verdict::Worse
        );
        // The same numbers read as throughput (higher is better) win.
        assert_eq!(
            verdict(&base, &much_slower, Better::Higher, 0.08),
            Verdict::Better
        );
        // Every run of the change beats every run of the base.
        let faster: Vec<f64> = base.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.08),
            Verdict::Better
        );
        // A base whose own quartile spread exceeds the bound cannot
        // show "no worse": unresolved, even when the medians agree.
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 100.0];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &much_slower, Better::Lower, 0.08),
            Verdict::Unresolved
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.1).abs() < 1e-12);
    }
}
