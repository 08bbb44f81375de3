//! Session-message scheduling (Section III-A).
//!
//! "The average bandwidth consumed by session messages is limited to a
//! small fraction (e.g., 5%) of the aggregate data bandwidth … SRM members
//! use the algorithm developed for vat for dynamically adjusting the
//! generation rate of session messages in proportion to the multicast
//! group size."
//!
//! With a session bandwidth `B`, the session fraction `f` (5 %), a message
//! size `s`, and an estimated group size `G`, the aggregate session-message
//! rate is `f·B / s` messages per second, so each member sends every
//! `G·s / (f·B)` seconds, and never more often than
//! [`MIN_SESSION_INTERVAL`]. Like vat, the interval is randomized (uniform
//! in `[0.5, 1.5)` of the nominal value) to avoid synchronization.

use crate::config::{MIN_SESSION_INTERVAL, SESSION_BANDWIDTH, SESSION_FRACTION, SESSION_MSG_BYTES};
use netsim::SimDuration;
use rand::Rng;

/// Computes session-message intervals.
#[derive(Clone, Debug)]
pub struct SessionScheduler {
    /// Aggregate session data bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Session-message size, bytes.
    pub msg_bytes: f64,
}

impl Default for SessionScheduler {
    /// [`SESSION_BANDWIDTH`] and [`SESSION_MSG_BYTES`].
    fn default() -> Self {
        SessionScheduler {
            bandwidth: SESSION_BANDWIDTH,
            msg_bytes: SESSION_MSG_BYTES,
        }
    }
}

impl SessionScheduler {
    /// Deterministic (un-jittered) interval for an estimated group size.
    pub fn nominal_interval(&self, group_size: usize) -> SimDuration {
        let g = group_size.max(1) as f64;
        let session_bw = self.bandwidth * SESSION_FRACTION;
        let secs = g * self.msg_bytes / session_bw;
        SimDuration::from_secs_f64(secs).max(MIN_SESSION_INTERVAL)
    }

    /// Jittered interval: uniform in `[0.5, 1.5) ×` the nominal value.
    pub fn next_interval<R: Rng>(&self, group_size: usize, rng: &mut R) -> SimDuration {
        let jitter = rng.random_range(0.5..1.5);
        self.nominal_interval(group_size).mul_f64(jitter)
    }

    /// Aggregate session-message bandwidth across `group_size` members
    /// (bytes/second) — used by tests to check the 5% cap holds.
    pub fn aggregate_rate(&self, group_size: usize) -> f64 {
        let per_member = self.msg_bytes
            / self
                .nominal_interval(group_size)
                .as_secs_f64();
        per_member * group_size.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sched() -> SessionScheduler {
        SessionScheduler::default()
    }

    #[test]
    fn interval_scales_with_group_size() {
        let s = sched();
        let i10 = s.nominal_interval(10).as_secs_f64();
        let i100 = s.nominal_interval(100).as_secs_f64();
        assert!((i100 / i10 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_rate_respects_fraction() {
        let s = sched();
        for g in [2usize, 10, 100, 1000] {
            let agg = s.aggregate_rate(g);
            // ≤ 5% of 16 kB/s = 800 B/s (up to the min-interval floor for
            // tiny groups, which only lowers the rate).
            assert!(agg <= 0.05 * 16_000.0 + 1e-6, "g={g} agg={agg}");
        }
    }

    #[test]
    fn min_interval_floor_applies() {
        let s = sched();
        // One member would otherwise send every 0.125 s.
        assert_eq!(s.nominal_interval(1), SimDuration::from_secs(1));
    }

    #[test]
    fn jitter_stays_in_band() {
        let s = sched();
        let mut rng = StdRng::seed_from_u64(4);
        let nominal = s.nominal_interval(50).as_secs_f64();
        for _ in 0..500 {
            let j = s.next_interval(50, &mut rng).as_secs_f64();
            assert!(j >= 0.5 * nominal - 1e-9);
            assert!(j < 1.5 * nominal + 1e-9);
        }
    }
}
