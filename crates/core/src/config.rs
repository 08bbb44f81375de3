//! SRM configuration.
//!
//! The framework's knobs, with defaults matching the paper's Section V
//! simulations: `C1 = D1 = 2`, `C2 = D2 = √G` (set by the experiment once
//! the session size is known), backoff ×2 (×3 when the adaptive algorithm
//! is on, per Section VII-A). Values the paper gives once, and no caller
//! varies, are the constants below rather than fields.

use netsim::SimDuration;

/// Hold-down factor: a member ignores requests for an ADU for
/// `HOLD_DOWN · d_SB` after sending or receiving a repair for it
/// (§III-B: "for 3·d_S,B seconds").
pub const HOLD_DOWN: f64 = 3.0;

/// Share of the session bandwidth spent on session messages (§III-A:
/// "a small fraction (e.g., 5%)").
pub const SESSION_FRACTION: f64 = 0.05;

/// Aggregate session data bandwidth, bytes per second, that
/// [`SESSION_FRACTION`] is taken of (§III-C's "fixed bandwidth
/// constraint"; the paper gives no number, 16 kB/s is ours).
pub const SESSION_BANDWIDTH: f64 = 16_000.0;

/// Session-message size, bytes, charged until the first session message
/// is out and its encoded length replaces it (ours).
pub const SESSION_MSG_BYTES: f64 = 100.0;

/// Floor on the session-message interval (ours).
pub const MIN_SESSION_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Recent local losses advertised in a session message's loss fingerprint
/// (§VII-B; the length is ours).
pub const FINGERPRINT_LEN: usize = 8;

/// Locally detected losses after which a member arms its recovery-group
/// invitation timer (§VII-B2 "persistent" losses; the count is ours).
pub const RECOVERY_GROUP_MIN_LOSSES: u64 = 2;

/// wb 1.59's request interval base `c`: timers from `[c, 2c]` (§III-E).
pub const WB159_REQUEST: SimDuration = SimDuration::from_millis(30);
/// wb 1.59's repair interval base `d` at the data's original source.
pub const WB159_REPAIR_SOURCE: SimDuration = SimDuration::from_millis(100);
/// wb 1.59's repair interval base `d` at every other member.
pub const WB159_REPAIR_OTHER: SimDuration = SimDuration::from_millis(200);

/// The four timer constants of Section III-B.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimerParams {
    /// Request-timer interval start multiplier: timers are drawn from
    /// `[C1·d, (C1+C2)·d]` where `d` is the distance to the data's source.
    pub c1: f64,
    /// Request-timer interval width multiplier.
    pub c2: f64,
    /// Repair-timer interval start multiplier: `[D1·d, (D1+D2)·d]` where
    /// `d` is the distance to the requestor.
    pub d1: f64,
    /// Repair-timer interval width multiplier.
    pub d2: f64,
}

impl TimerParams {
    /// The paper's fixed-parameter setting for a session of size `g`:
    /// `C1 = D1 = 2`, `C2 = D2 = √G` (Section V).
    pub fn fixed_for_group(g: usize) -> Self {
        let s = (g as f64).sqrt();
        TimerParams {
            c1: 2.0,
            c2: s,
            d1: 2.0,
            d2: s,
        }
    }
}

impl Default for TimerParams {
    fn default() -> Self {
        TimerParams {
            c1: 2.0,
            c2: 2.0,
            d1: 2.0,
            d2: 2.0,
        }
    }
}

/// Scope policy for requests and repairs (Section VII-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RecoveryScope {
    /// Global recovery: everything multicast to the whole group (the base
    /// framework of Section III).
    #[default]
    Global,
    /// TTL-based local recovery with the given initial request TTL;
    /// repairs use two-step re-multicast (Section VII-B3).
    Ttl(u8),
    /// Administratively scoped recovery (Section VII-B1): requests and
    /// repairs carry the admin-scope flag and stop at zone boundaries.
    Admin,
}

/// Separate-multicast-group local recovery (Section VII-B2): after
/// [`RECOVERY_GROUP_MIN_LOSSES`] local losses, a member allocates a
/// recovery group, invites nearby members with a TTL-scoped invitation,
/// and subsequent first-round requests (and their repairs) use that group
/// instead of the session group. Unanswered requests still widen back to
/// the session group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryGroupConfig {
    /// Scope of the invitation — "nearby" is whoever it reaches.
    pub invite_ttl: u8,
}

/// Token-bucket rate limit (Section III-E: "individual members would use a
/// token bucket rate limiter to enforce this peak rate").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateLimit {
    /// Sustained rate, bytes per second.
    pub bytes_per_sec: f64,
    /// Bucket depth, bytes.
    pub burst_bytes: f64,
}

/// Full agent configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SrmConfig {
    /// Request/repair timer constants.
    pub timers: TimerParams,
    /// Backoff multiplier applied to the request-timer interval after each
    /// suppression/expiry: 2 in the base framework, 3 with the adaptive
    /// algorithm (Section VII-A).
    pub backoff: f64,
    /// Give up re-requesting an ADU after this many request transmissions
    /// (`None` = retry forever; the paper's reliability model).
    pub max_request_rounds: Option<u32>,
    /// Adaptive timer adjustment (Section VII-A, constants in
    /// [`crate::adaptive`]); `false` = fixed timers.
    pub adaptive: bool,
    /// wb 1.59's fixed intervals (Section III-E): "members set a request
    /// timer to a random value from the interval \[c, 2c\] … for the
    /// original source of the data, d is set to a fixed value of 100 ms,
    /// and for other members d is set to 200 ms" ([`WB159_REQUEST`] and
    /// the two repair bases). Distance estimation is bypassed.
    pub wb159: bool,
    /// Proactive parity FEC (Section VII-B / \[38\]); `None` = off.
    pub fec: Option<crate::fec::FecConfig>,
    /// Separate-multicast-group local recovery (Section VII-B2); `None` =
    /// off.
    pub recovery_groups: Option<RecoveryGroupConfig>,
    /// Hierarchical session messages with local representatives
    /// (Section IX-A); `None` = every member sends global session messages.
    pub session_hierarchy: Option<crate::hierarchy::HierarchyConfig>,
    /// Recovery scope policy.
    pub scope: RecoveryScope,
    /// Ceiling on the session-message interval (keeps liveness when the
    /// measured data bandwidth goes to zero in an idle session).
    pub max_session_interval: SimDuration,
    /// §III-A "measured adaptively": when true, the session-message rate
    /// is a fraction of the *measured* aggregate data bandwidth (trailing
    /// window) instead of the static [`SESSION_BANDWIDTH`].
    pub measured_session_bandwidth: bool,
    /// Distance assumed for peers we have no estimate for.
    pub default_distance: SimDuration,
    /// Optional token-bucket send rate limit.
    pub rate_limit: Option<RateLimit>,
}

impl Default for SrmConfig {
    fn default() -> Self {
        SrmConfig {
            timers: TimerParams::default(),
            backoff: 2.0,
            max_request_rounds: None,
            adaptive: false,
            wb159: false,
            fec: None,
            recovery_groups: None,
            session_hierarchy: None,
            scope: RecoveryScope::Global,
            max_session_interval: SimDuration::from_secs(120),
            measured_session_bandwidth: false,
            default_distance: SimDuration::from_secs(1),
            rate_limit: None,
        }
    }
}

impl SrmConfig {
    /// Paper Section V defaults for a session of `g` members, fixed timers.
    pub fn fixed(g: usize) -> Self {
        SrmConfig {
            timers: TimerParams::fixed_for_group(g),
            ..Default::default()
        }
    }

    /// Paper Section VII-A defaults: adaptive timers (starting from the
    /// fixed setting for `g`), backoff ×3.
    pub fn adaptive(g: usize) -> Self {
        SrmConfig {
            timers: TimerParams::fixed_for_group(g),
            backoff: 3.0,
            adaptive: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_params_follow_sqrt_g() {
        let p = TimerParams::fixed_for_group(100);
        assert_eq!(p.c1, 2.0);
        assert_eq!(p.d1, 2.0);
        assert!((p.c2 - 10.0).abs() < 1e-12);
        assert!((p.d2 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_preset_uses_triple_backoff() {
        let c = SrmConfig::adaptive(50);
        assert_eq!(c.backoff, 3.0);
        assert!(c.adaptive);
        let f = SrmConfig::fixed(50);
        assert_eq!(f.backoff, 2.0);
        assert!(!f.adaptive);
    }

    #[test]
    fn defaults_are_sane() {
        let c = SrmConfig::default();
        assert_eq!(c.scope, RecoveryScope::Global);
    }
}
