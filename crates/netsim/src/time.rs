//! Simulation time.
//!
//! Time is tracked as an integer number of nanoseconds since the start of the
//! simulation. Using an integer (rather than `f64`) keeps the event queue
//! totally ordered and the whole simulation bit-for-bit deterministic, which
//! matters because every figure in the SRM paper is a statistical summary over
//! seeded runs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Nanoseconds in one second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant on the simulation clock.
///
/// `SimTime::ZERO` is the start of the simulation. Instants are compared and
/// subtracted freely; subtracting a later time from an earlier one panics in
/// debug builds (it is always a logic error in this codebase).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" bound.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_to_nanos(s))
    }

    /// Construct from raw nanoseconds since the epoch.
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    /// The instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier`.
    ///
    /// Saturates at zero if `earlier` is in the future (debug builds assert).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self >= earlier, "SimTime::since of a future instant");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Midpoint between `self` and a later instant `later`.
    ///
    /// Used by the "ignore-backoff" heuristic of Section III-B, which ignores
    /// duplicate requests until halfway to the backed-off timer's expiry.
    pub fn midpoint(self, later: SimTime) -> SimTime {
        debug_assert!(later >= self);
        SimTime(self.0 + (later.0 - self.0) / 2)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_to_nanos(s))
    }

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Multiply by a non-negative float (used for timer-constant scaling).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "negative duration scaling");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// True if this is the zero span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

fn secs_to_nanos(s: f64) -> u64 {
    if s <= 0.0 {
        0
    } else {
        (s * NANOS_PER_SEC as f64).round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(2) + SimDuration::from_secs(3);
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(t.since(SimTime::from_secs(2)), SimDuration::from_secs(3));
        assert_eq!(SimDuration::from_secs(4) / 2, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(3) * 2, SimDuration::from_secs(6));
    }

    #[test]
    fn duration_ratio() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(2);
        assert!((a / b - 1.5).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = SimTime::from_secs(2);
        let b = SimTime::from_secs(6);
        assert_eq!(a.midpoint(b), SimTime::from_secs(4));
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2).mul_f64(1.25);
        assert!((d.as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
