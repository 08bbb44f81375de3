//! Monotonic wall clock mapped onto the simulator's time axis.
//!
//! The driver seam ([`srm::Clock`]) speaks [`SimTime`] — nanoseconds on a
//! per-run axis starting at zero. In the simulator that axis is virtual
//! event time; here it is real elapsed time since the node's runtime
//! started, read from [`std::time::Instant`] so it is monotonic and immune
//! to wall-clock steps. Each node has its own origin, which is exactly the
//! paper's model: session-message timestamp echoes only ever *difference*
//! clock readings, so per-host origins cancel out of the distance
//! estimates.

use netsim::SimTime;
use std::time::Instant;

/// A monotonic clock whose zero is the moment it was created.
#[derive(Clone, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Start a clock; its `now()` reads zero at this instant.
    pub fn new() -> Self {
        WallClock { origin: Instant::now() }
    }

    /// Monotonic elapsed time since the origin, on the [`SimTime`] axis.
    pub fn now(&self) -> SimTime {
        // u64 nanos overflow after ~584 years of uptime; saturate rather
        // than panic.
        let n = self.origin.elapsed().as_nanos();
        SimTime::from_nanos(u64::try_from(n).unwrap_or(u64::MAX))
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_near_zero_and_is_monotonic() {
        let c = WallClock::new();
        let a = c.now();
        assert!(a.as_secs_f64() < 1.0);
        let b = c.now();
        assert!(b >= a);
    }
}
