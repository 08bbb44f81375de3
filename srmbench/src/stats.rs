//! Window and quantile arithmetic shared by every workload.
//!
//! Two conventions live here and nowhere else:
//!
//! - a *window quantile* is exact (nearest-rank over the sorted sample), and
//!   a run reports the **median over 1-s windows** of each window's
//!   quantile, so one stalled second moves one window and not the result;
//! - *quartiles across runs* follow Python's
//!   `statistics.quantiles(values, n=4)` (the exclusive method), because
//!   that is what the driver computes when it decides whether the benchmark
//!   is steady.

/// Exact nearest-rank quantile of an unsorted sample; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median with the usual mean-of-the-middle-two for even counts.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// `(q1, q3)` as `statistics.quantiles(values, n=4)` gives them (exclusive
/// method: positions `(n+1)·k/4`, linear interpolation, clamped to the
/// sample). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = (n + 1) * k;
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Samples bucketed into fixed-length windows by timestamp.
///
/// `push(t_ns, v)` files `v` under window `(t_ns - start) / len`; samples
/// before `start` or at/after `start + windows·len` are ignored, so the
/// partial window a drain period produces never dilutes a quantile.
pub struct Windows {
    start_ns: u64,
    len_ns: u64,
    buckets: Vec<Vec<f64>>,
}

impl Windows {
    /// `count` windows of `len_ns` each, the first starting at `start_ns`.
    pub fn new(start_ns: u64, len_ns: u64, count: usize) -> Self {
        Windows {
            start_ns,
            len_ns: len_ns.max(1),
            buckets: vec![Vec::new(); count],
        }
    }

    /// File one sample.
    pub fn push(&mut self, t_ns: u64, v: f64) {
        if t_ns < self.start_ns {
            return;
        }
        let i = ((t_ns - self.start_ns) / self.len_ns) as usize;
        if let Some(b) = self.buckets.get_mut(i) {
            b.push(v);
        }
    }

    /// Each non-empty window's `q`-quantile, in time order.
    pub fn quantiles(&self, q: f64) -> Vec<f64> {
        self.buckets.iter().filter_map(|b| quantile(b, q)).collect()
    }

    /// Median over non-empty windows of each window's `q`-quantile.
    pub fn median_of_quantile(&self, q: f64) -> Option<f64> {
        median(&self.quantiles(q))
    }

    /// Total samples filed.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

/// Median over windows of `Δnum / Δden`, from cumulative `(num, den)`
/// samples taken at window boundaries. Windows where the denominator did
/// not advance are skipped.
pub fn median_ratio_of_deltas(samples: &[(f64, f64)]) -> Option<f64> {
    median(&ratios_of_deltas(samples))
}

/// `Δnum / Δden` of each window in which the denominator advanced.
pub fn ratios_of_deltas(samples: &[(f64, f64)]) -> Vec<f64> {
    samples
        .windows(2)
        .filter(|w| w[1].1 > w[0].1)
        .map(|w| (w[1].0 - w[0].0) / (w[1].1 - w[0].1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn windows_bucket_by_time_and_ignore_the_outside() {
        let mut w = Windows::new(1_000, 100, 3);
        w.push(999, 50.0); // before the first window
        w.push(1_000, 1.0);
        w.push(1_099, 3.0);
        w.push(1_100, 10.0);
        w.push(1_250, 20.0);
        w.push(1_300, 99.0); // past the last window
        assert_eq!(w.len(), 4);
        // Window p100s are 3, 10, 20 -> median 10.
        assert_eq!(w.median_of_quantile(1.0), Some(10.0));
        // One stalled window moves one window, not the result.
        let mut w = Windows::new(0, 10, 5);
        for i in 0..5u64 {
            w.push(i * 10, if i == 2 { 1e6 } else { 1.0 });
        }
        assert_eq!(w.median_of_quantile(0.99), Some(1.0));
    }

    #[test]
    fn delta_ratios_skip_idle_windows() {
        // CPU 0,10,10,40 over ADUs 0,5,5,15 -> ratios 2 and 3, idle skipped.
        let s = [(0.0, 0.0), (10.0, 5.0), (10.0, 5.0), (40.0, 15.0)];
        assert_eq!(median_ratio_of_deltas(&s), Some(2.5));
        assert_eq!(median_ratio_of_deltas(&[(1.0, 1.0)]), None);
    }
}
