//! Passive bandwidth measurement.
//!
//! Section III-A: session-message bandwidth is "limited to a small fraction
//! (e.g., 5%) of the aggregate data bandwidth, **whether pre-allocated by a
//! reservation protocol or measured adaptively** by a congestion control
//! algorithm." This module provides the measured-adaptively half: a
//! sliding-window rate meter over the data traffic a member sends and
//! hears, which the agent can feed into the session-message scheduler in
//! place of a static allocation.

use netsim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Sub-windows a [`RateMeter`] divides its window into: what it keeps is
/// bounded by this, whatever the packet rate.
const SUB_WINDOWS: u64 = 64;

/// Sliding-window byte-rate estimator.
///
/// Bytes are added up per sub-window of `window / 64`, opened by the first
/// sample that falls outside the previous one, and a sub-window leaves the
/// sum as a whole once its first sample is older than the window. So a
/// sample can leave up to one sub-window early: the rate reads at most one
/// sub-window's bytes (1/64 of the window at a steady rate) below the exact
/// sliding sum, and never above it.
#[derive(Clone, Debug)]
pub struct RateMeter {
    window: SimDuration,
    sub_window: SimDuration,
    /// `(time of the sub-window's first sample, bytes in it)`, oldest
    /// first; consecutive first samples are more than a sub-window apart,
    /// so at most [`SUB_WINDOWS`] of them fit in the window.
    samples: VecDeque<(SimTime, u64)>,
    total_in_window: u64,
}

impl RateMeter {
    /// Measure over the trailing `window`.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "zero-width measurement window");
        RateMeter {
            window,
            sub_window: window / SUB_WINDOWS,
            samples: VecDeque::new(),
            total_in_window: 0,
        }
    }

    fn expire(&mut self, now: SimTime) {
        let cutoff = now - self.window;
        while let Some(&(t, b)) = self.samples.front() {
            if t < cutoff {
                self.samples.pop_front();
                self.total_in_window -= b;
            } else {
                break;
            }
        }
    }

    /// Record `bytes` observed at `now`. Samples must arrive in
    /// non-decreasing time order (simulation time is monotone).
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        debug_assert!(
            self.samples.back().is_none_or(|&(t, _)| now >= t),
            "rate meter fed out of order"
        );
        match self.samples.back_mut() {
            Some((opened, sum)) if now.since(*opened) <= self.sub_window => *sum += bytes,
            _ => self.samples.push_back((now, bytes)),
        }
        self.total_in_window += bytes;
        self.expire(now);
    }

    /// Estimated rate in bytes/second over the trailing window.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.expire(now);
        self.total_in_window as f64 / self.window.as_secs_f64()
    }

    /// Bytes currently inside the window.
    pub fn bytes_in_window(&mut self, now: SimTime) -> u64 {
        self.expire(now);
        self.total_in_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn steady_stream_measures_true_rate() {
        let mut m = RateMeter::new(SimDuration::from_secs(10));
        // 100 B every 0.1 s = 1000 B/s.
        for i in 0..200 {
            m.record(t(i as f64 * 0.1), 100);
        }
        let r = m.rate(t(19.9));
        assert!((r - 1000.0).abs() < 50.0, "rate {r}");
    }

    #[test]
    fn old_samples_expire() {
        let mut m = RateMeter::new(SimDuration::from_secs(5));
        m.record(t(0.0), 10_000);
        assert!(m.rate(t(1.0)) > 0.0);
        assert_eq!(m.rate(t(10.0)), 0.0);
        assert_eq!(m.bytes_in_window(t(10.0)), 0);
    }

    #[test]
    fn burst_then_silence_decays() {
        let mut m = RateMeter::new(SimDuration::from_secs(10));
        m.record(t(0.0), 5_000);
        let early = m.rate(t(1.0));
        assert_eq!(early, 500.0);
        // The burst stays in the window until it slides out entirely.
        assert_eq!(m.rate(t(9.9)), 500.0);
        assert_eq!(m.rate(t(20.0)), 0.0);
    }

    #[test]
    fn window_accumulates_mixed_sizes() {
        let mut m = RateMeter::new(SimDuration::from_secs(4));
        m.record(t(0.0), 100);
        m.record(t(1.0), 300);
        m.record(t(2.0), 200);
        assert_eq!(m.bytes_in_window(t(2.0)), 600);
        assert_eq!(m.rate(t(2.0)), 150.0);
        // t=5: only the t≥1 samples remain.
        assert_eq!(m.bytes_in_window(t(5.0)), 500);
    }

    #[test]
    fn a_million_records_leave_at_most_64_samples() {
        let mut m = RateMeter::new(SimDuration::from_secs(30));
        // 64 B every 10 µs for 10 s, then every 100 µs to 100 s: the first
        // rate is 48 MB of samples per 30 s when each packet keeps its own.
        for i in 0..1_000_000u64 {
            m.record(SimTime::from_nanos(i * 10_000), 64);
            assert!(m.samples.len() <= SUB_WINDOWS as usize);
        }
        let exact = 64.0 * 100_000.0;
        let r = m.rate(SimTime::from_secs(10));
        assert!(r <= exact / 3.0 && r >= exact / 3.0 * (1.0 - 1.0 / 64.0), "rate {r}");
        for i in 0..900_000u64 {
            m.record(SimTime::from_nanos(10_000_000_000 + i * 100_000), 64);
            assert!(m.samples.len() <= SUB_WINDOWS as usize);
        }
        let exact = 64.0 * 10_000.0;
        let r = m.rate(SimTime::from_secs(100));
        assert!(r <= exact && r >= exact * (1.0 - 1.0 / 64.0) - 64.0, "rate {r}");
    }
}
