//! Request and repair timer intervals (Section III-B).
//!
//! A member missing data draws its request timer uniformly from
//! `[C1·d_SA, (C1+C2)·d_SA]`, where `d_SA` is its estimated one-way
//! distance to the data's original source. A member able to answer a
//! request draws its repair timer from `[D1·d_AB, (D1+D2)·d_AB]`, with
//! `d_AB` the distance to the requestor. On suppression the request
//! interval is backed off by the configured multiplier ("the backed-off
//! timer is randomly chosen from the uniform distribution on
//! `[2·C1·d, 2·(C1+C2)·d]`"; the adaptive simulations use ×3).

use netsim::SimDuration;
use rand::Rng;

/// Longest backed-off timer end, seconds (about 30 years): far beyond any
/// session, and `now + delay` in nanoseconds still fits a `u64`.
pub const MAX_BACKOFF_SECS: f64 = 1e9;

/// A uniform timer interval `[lo, hi]` in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimerInterval {
    /// Interval start, seconds.
    pub lo: f64,
    /// Interval end, seconds.
    pub hi: f64,
}

impl TimerInterval {
    /// The request interval `[c1·d, (c1+c2)·d]`.
    pub fn request(c1: f64, c2: f64, dist: SimDuration) -> Self {
        let d = dist.as_secs_f64();
        TimerInterval {
            lo: c1 * d,
            hi: (c1 + c2) * d,
        }
    }

    /// The repair interval `[d1·d, (d1+d2)·d]`.
    pub fn repair(d1: f64, d2: f64, dist: SimDuration) -> Self {
        let d = dist.as_secs_f64();
        TimerInterval {
            lo: d1 * d,
            hi: (d1 + d2) * d,
        }
    }

    /// The interval after `k` exponential backoffs with multiplier `m`:
    /// `[m^k·lo, m^k·hi]`, each end capped at [`MAX_BACKOFF_SECS`].
    ///
    /// `m^k` overflows to infinity after about a thousand doublings — which
    /// a member at distance 0 (interval `[0, 0]`, every round instant) gets
    /// through in no time — and `0·inf` is NaN. The factor is therefore kept
    /// finite, so a zero end stays zero, and the ends are capped so the
    /// drawn delay still fits the nanosecond clock.
    pub fn backed_off(self, m: f64, k: u32) -> Self {
        let f = m.powi(i32::try_from(k).unwrap_or(i32::MAX)).min(f64::MAX);
        TimerInterval {
            lo: (self.lo * f).min(MAX_BACKOFF_SECS),
            hi: (self.hi * f).min(MAX_BACKOFF_SECS),
        }
    }

    /// Draw a delay uniformly from the interval.
    ///
    /// A degenerate interval (`lo == hi`, e.g. distance 0 or C2 = 0) yields
    /// exactly `lo`.
    pub fn draw<R: Rng>(self, rng: &mut R) -> SimDuration {
        debug_assert!(self.lo <= self.hi + 1e-12, "inverted interval");
        let v = if self.hi > self.lo {
            rng.random_range(self.lo..self.hi)
        } else {
            self.lo
        };
        SimDuration::from_secs_f64(v)
    }

    /// Interval width in seconds.
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn request_interval_scales_with_distance() {
        let i = TimerInterval::request(2.0, 10.0, SimDuration::from_secs(3));
        assert_eq!(i.lo, 6.0);
        assert_eq!(i.hi, 36.0);
        assert_eq!(i.width(), 30.0);
    }

    #[test]
    fn repair_interval_scales_with_distance() {
        let i = TimerInterval::repair(1.0, 4.0, SimDuration::from_secs(2));
        assert_eq!(i.lo, 2.0);
        assert_eq!(i.hi, 10.0);
    }

    #[test]
    fn backoff_doubles_both_ends() {
        let i = TimerInterval { lo: 2.0, hi: 4.0 };
        let b = i.backed_off(2.0, 1);
        assert_eq!(b, TimerInterval { lo: 4.0, hi: 8.0 });
        let b3 = i.backed_off(3.0, 2);
        assert_eq!(b3, TimerInterval { lo: 18.0, hi: 36.0 });
        // k = 0 leaves the interval unchanged.
        assert_eq!(i.backed_off(2.0, 0), i);
    }

    #[test]
    fn two_thousand_backoffs_stay_finite() {
        let mut rng = StdRng::seed_from_u64(4);
        // Distance 0: 2^k reaches inf at k = 1024 and 0·inf was NaN.
        let zero = TimerInterval::request(2.0, 2.0, SimDuration::ZERO);
        // One second: the ends used to reach inf, the draw with them.
        let one = TimerInterval::request(2.0, 2.0, SimDuration::from_secs(1));
        for k in [1023, 1024, 2000, u32::MAX] {
            assert_eq!(zero.backed_off(2.0, k).draw(&mut rng), SimDuration::ZERO);
            let far = one.backed_off(2.0, k);
            assert_eq!((far.lo, far.hi), (MAX_BACKOFF_SECS, MAX_BACKOFF_SECS));
            assert_eq!(
                far.draw(&mut rng),
                SimDuration::from_secs_f64(MAX_BACKOFF_SECS)
            );
        }
    }

    #[test]
    fn draws_stay_in_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let i = TimerInterval { lo: 1.0, hi: 5.0 };
        for _ in 0..1000 {
            let d = i.draw(&mut rng).as_secs_f64();
            assert!((1.0..5.0 + 1e-9).contains(&d));
        }
    }

    #[test]
    fn draws_cover_the_interval() {
        // Sanity that the draw is not constant: min and max over many draws
        // approach the endpoints.
        let mut rng = StdRng::seed_from_u64(2);
        let i = TimerInterval { lo: 0.0, hi: 1.0 };
        let draws: Vec<f64> = (0..2000).map(|_| i.draw(&mut rng).as_secs_f64()).collect();
        let min = draws.iter().cloned().fold(f64::MAX, f64::min);
        let max = draws.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < 0.01);
        assert!(max > 0.99);
    }

    #[test]
    fn degenerate_interval_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        // Distance 0, or C2 = 0 for the chain's deterministic algorithm
        // (Section IV-A): the draw is exactly C1·d.
        let i = TimerInterval::request(1.0, 0.0, SimDuration::from_secs(4));
        assert_eq!(i.draw(&mut rng), SimDuration::from_secs(4));
        let z = TimerInterval::request(1.0, 1.0, SimDuration::ZERO);
        assert_eq!(z.draw(&mut rng), SimDuration::ZERO);
    }
}
