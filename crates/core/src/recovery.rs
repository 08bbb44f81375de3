//! Per-ADU loss-recovery state machines (Section III-B).
//!
//! [`RequestState`] lives on members that are *missing* an ADU: it owns the
//! request timer, the exponential backoff, and the "ignore-backoff"
//! heuristic that distinguishes same-iteration duplicate requests from the
//! next recovery iteration. [`RepairState`] lives on members that *hold*
//! the data and heard a request: it owns the repair timer and is cancelled
//! by hearing someone else's repair. An `Episode` is everything one member
//! remembers about one name: the two sides and the hold-down deadline ("host
//! B ignores requests for data for 3·d_SB seconds after sending or receiving
//! a repair for that data"). The agent keeps one table of them and retires
//! an episode once it is `Episode::finished`.
//!
//! These are pure state machines — all clock readings and random draws come
//! in as arguments — so they are directly unit-testable.

use crate::name::AduName;
use crate::timers::TimerInterval;
use netsim::{GroupId, SimDuration, SimTime, TimerId};
use rand::Rng;

/// An armed driver timer: the driver's cancellation id and the token the
/// agent will be handed when it fires.
#[derive(Clone, Copy, Debug)]
pub struct TimerHandle {
    /// The driver's cancellation handle.
    pub id: TimerId,
    /// The agent's token for the timer's purpose.
    pub token: u64,
}

/// Why a request state reached its end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The missing data arrived.
    Recovered,
    /// `max_request_rounds` transmissions went unanswered.
    GaveUp,
}

/// State for one missing ADU on one member.
#[derive(Clone, Debug)]
pub struct RequestState {
    /// The missing ADU.
    pub name: AduName,
    /// When the loss was detected (first timer set).
    pub detected_at: SimTime,
    /// The un-backed-off interval `[C1·d, (C1+C2)·d]`.
    pub base_interval: TimerInterval,
    /// The member's distance estimate to the source at detection time.
    pub dist_to_source: SimDuration,
    /// Current backoff exponent (0 = original timer).
    pub backoff_count: u32,
    /// The armed request timer (the agent sets it right after arming and
    /// keeps it armed for as long as the state lives).
    pub timer: Option<TimerHandle>,
    /// When the live timer fires.
    pub expire_at: SimTime,
    /// Ignore duplicate requests until this instant (footnote 1: set to
    /// halfway between backoff time and expiry; requests before it belong
    /// to the same recovery iteration).
    pub ignore_backoff_until: Option<SimTime>,
    /// Requests this member has itself multicast.
    pub requests_sent: u32,
    /// Requests observed in total (sent or heard).
    pub requests_observed: u32,
    /// When the first request (ours or another's) was sent/heard — the end
    /// of the "request delay" measurement.
    pub first_request_event_at: Option<SimTime>,
}

/// What the agent must do after feeding an event to a [`RequestState`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestAction {
    /// Nothing; keep waiting.
    None,
    /// Cancel the old timer and re-arm at the given delay from now.
    Rearm(SimDuration),
}

impl RequestState {
    /// Create the state at loss-detection time and draw the first timer.
    /// Returns the state and the delay at which to arm the timer.
    pub fn new<R: Rng>(
        name: AduName,
        now: SimTime,
        c1: f64,
        c2: f64,
        dist: SimDuration,
        rng: &mut R,
    ) -> (Self, SimDuration) {
        let base = TimerInterval::request(c1, c2, dist);
        let delay = base.draw(rng);
        (
            RequestState {
                name,
                detected_at: now,
                base_interval: base,
                dist_to_source: dist,
                backoff_count: 0,
                timer: None,
                expire_at: now + delay,
                ignore_backoff_until: None,
                requests_sent: 0,
                requests_observed: 0,
                first_request_event_at: None,
            },
            delay,
        )
    }

    /// Our own timer expired and we are about to multicast the request.
    /// Performs the post-send backoff ("multicasts a request for the
    /// missing data, and doubles the request timer to wait for the repair")
    /// and returns the delay for the retransmit timer.
    pub fn on_timer_expired<R: Rng>(
        &mut self,
        now: SimTime,
        backoff: f64,
        rng: &mut R,
    ) -> SimDuration {
        self.requests_sent += 1;
        self.requests_observed += 1;
        if self.first_request_event_at.is_none() {
            self.first_request_event_at = Some(now);
        }
        self.backoff_count += 1;
        let delay = self
            .base_interval
            .backed_off(backoff, self.backoff_count)
            .draw(rng);
        self.expire_at = now + delay;
        // Duplicates arriving while our own request is in flight belong to
        // this iteration; ignore them until halfway to the new expiry.
        self.ignore_backoff_until = Some(now.midpoint(self.expire_at));
        delay
    }

    /// Another member's request for this ADU was heard at `now`.
    ///
    /// First hearing (or a hearing past the ignore-backoff horizon) backs
    /// the timer off; hearings within the horizon are counted but ignored.
    pub fn on_request_heard<R: Rng>(
        &mut self,
        now: SimTime,
        backoff: f64,
        rng: &mut R,
    ) -> RequestAction {
        self.requests_observed += 1;
        if self.first_request_event_at.is_none() {
            self.first_request_event_at = Some(now);
        }
        if let Some(horizon) = self.ignore_backoff_until {
            if now < horizon {
                // Same iteration of loss recovery: no further backoff.
                return RequestAction::None;
            }
        }
        self.backoff_count += 1;
        let delay = self
            .base_interval
            .backed_off(backoff, self.backoff_count)
            .draw(rng);
        self.expire_at = now + delay;
        self.ignore_backoff_until = Some(now.midpoint(self.expire_at));
        RequestAction::Rearm(delay)
    }

    /// Duplicate requests observed beyond the first.
    pub fn duplicate_requests(&self) -> u32 {
        self.requests_observed.saturating_sub(1)
    }

    /// The request delay: from first timer set until the first request was
    /// sent or heard (Section VI's per-member metric). `None` if no request
    /// has happened yet.
    pub fn request_delay(&self) -> Option<SimDuration> {
        self.first_request_event_at.map(|t| t.since(self.detected_at))
    }
}

/// How a request travelled; its repair is sent back the same way.
#[derive(Clone, Copy, Debug)]
pub struct RequestScope {
    /// The initial TTL the request was sent with (echoed by local repairs,
    /// Section VII-B3).
    pub ttl: u8,
    /// Whether the request was administratively scoped.
    pub admin_scoped: bool,
    /// The group it arrived on (the session group or a local-recovery
    /// group).
    pub group: GroupId,
}

/// State for one pending repair on one member that holds the data.
#[derive(Clone, Debug)]
pub struct RepairState {
    /// The requested ADU.
    pub name: AduName,
    /// When the triggering request arrived (timer set).
    pub set_at: SimTime,
    /// The requestor whose request triggered the timer (answered in
    /// two-step local recovery).
    pub requestor: crate::name::SourceId,
    /// How the triggering request travelled.
    pub scope: RequestScope,
    /// Distance estimate to the requestor when the timer was set.
    pub dist_to_requestor: SimDuration,
    /// The armed repair timer; `None` once it fired or a repair heard
    /// cancelled it.
    pub timer: Option<TimerHandle>,
    /// When the timer fires.
    pub expire_at: SimTime,
    /// Whether we actually multicast the repair.
    pub sent: bool,
    /// Repairs observed for this name (ours or others').
    pub repairs_observed: u32,
    /// When the first repair was sent or heard.
    pub first_repair_event_at: Option<SimTime>,
}

impl RepairState {
    /// Create at request-arrival time; returns the state and timer delay
    /// drawn from `[D1·d, (D1+D2)·d]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        name: AduName,
        now: SimTime,
        requestor: crate::name::SourceId,
        scope: RequestScope,
        d1: f64,
        d2: f64,
        dist: SimDuration,
        rng: &mut R,
    ) -> (Self, SimDuration) {
        let delay = TimerInterval::repair(d1, d2, dist).draw(rng);
        (
            RepairState {
                name,
                set_at: now,
                requestor,
                scope,
                dist_to_requestor: dist,
                timer: None,
                expire_at: now + delay,
                sent: false,
                repairs_observed: 0,
                first_repair_event_at: None,
            },
            delay,
        )
    }

    /// Our repair timer expired; we multicast the repair.
    pub fn on_timer_expired(&mut self, now: SimTime) {
        self.sent = true;
        self.repairs_observed += 1;
        if self.first_repair_event_at.is_none() {
            self.first_repair_event_at = Some(now);
        }
    }

    /// Someone else's repair for this name was heard; cancel our timer.
    pub fn on_repair_heard(&mut self, now: SimTime) {
        self.repairs_observed += 1;
        if self.first_repair_event_at.is_none() {
            self.first_repair_event_at = Some(now);
        }
    }

    /// Duplicate repairs observed beyond the first.
    pub fn duplicate_repairs(&self) -> u32 {
        self.repairs_observed.saturating_sub(1)
    }

    /// The repair delay: from timer set until the first repair was sent or
    /// heard.
    pub fn repair_delay(&self) -> Option<SimDuration> {
        self.first_repair_event_at.map(|t| t.since(self.set_at))
    }
}

/// Everything one member remembers about the recovery of one ADU: a
/// request side while it is missing the data, a repair side once it holds
/// the data and was asked for it, and the hold-down deadline. The default
/// value remembers nothing.
#[derive(Debug, Default)]
pub(crate) struct Episode {
    /// Present while this member is missing the ADU.
    pub(crate) request: Option<RequestState>,
    /// Present from the first request heard for an ADU this member holds;
    /// kept after its timer fired or was cancelled, for the duplicate-repair
    /// count.
    pub(crate) repair: Option<RepairState>,
    /// TTL of this member's most recent request (for the two-step repair
    /// re-multicast, Section VII-B3).
    pub(crate) last_request_ttl: Option<u8>,
    /// Requests are ignored before this instant ([`SimTime::ZERO`]: never
    /// held down).
    pub(crate) hold_down_until: SimTime,
}

impl Episode {
    /// Is a request for the ADU ignored at `now`?
    pub(crate) fn held_down(&self, now: SimTime) -> bool {
        now < self.hold_down_until
    }

    /// Is a repair timer armed?
    pub(crate) fn repair_pending(&self) -> bool {
        self.repair.as_ref().is_some_and(|r| r.timer.is_some())
    }

    /// Nothing is pending, no timer is armed and the hold-down is over:
    /// every protocol decision now reads this episode as it would read no
    /// episode at all, so it can be forgotten.
    pub(crate) fn finished(&self, now: SimTime) -> bool {
        self.request.is_none() && !self.repair_pending() && !self.held_down(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::{PageId, SeqNo, SourceId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn name() -> AduName {
        AduName::new(SourceId(1), PageId::new(SourceId(1), 0), SeqNo(5))
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn first_timer_drawn_from_request_interval() {
        let mut r = rng();
        for _ in 0..100 {
            let (_, delay) = RequestState::new(
                name(),
                SimTime::from_secs(10),
                2.0,
                4.0,
                SimDuration::from_secs(3),
                &mut r,
            );
            let d = delay.as_secs_f64();
            assert!((6.0..=18.0).contains(&d), "delay {d} outside [6,18]");
        }
    }

    #[test]
    fn expiry_backs_off_and_sets_ignore_horizon() {
        let mut r = rng();
        let (mut st, _) = RequestState::new(
            name(),
            SimTime::ZERO,
            1.0,
            1.0,
            SimDuration::from_secs(1),
            &mut r,
        );
        let now = SimTime::from_secs(2);
        let delay = st.on_timer_expired(now, 2.0, &mut r);
        // Backed-off interval is [2, 4].
        let d = delay.as_secs_f64();
        assert!((2.0..=4.0).contains(&d));
        assert_eq!(st.requests_sent, 1);
        assert_eq!(st.backoff_count, 1);
        let horizon = st.ignore_backoff_until.unwrap();
        assert_eq!(horizon, now.midpoint(st.expire_at));
    }

    #[test]
    fn two_thousand_unanswered_rounds_at_distance_zero() {
        // At distance 0 every round is instant, so a request nobody answers
        // gets through 1024 doublings at once; the backed-off interval must
        // stay `[0, 0]` (it was `0·inf = NaN`, tripping `draw`'s assert).
        let mut r = rng();
        let (mut st, first) =
            RequestState::new(name(), SimTime::ZERO, 2.0, 2.0, SimDuration::ZERO, &mut r);
        assert_eq!(first, SimDuration::ZERO);
        for _ in 0..2000 {
            assert_eq!(st.on_timer_expired(SimTime::ZERO, 2.0, &mut r), SimDuration::ZERO);
        }
        assert_eq!(st.backoff_count, 2000);
    }

    #[test]
    fn heard_request_suppresses_within_horizon() {
        let mut r = rng();
        let (mut st, _) = RequestState::new(
            name(),
            SimTime::ZERO,
            1.0,
            1.0,
            SimDuration::from_secs(1),
            &mut r,
        );
        // First heard request → backoff (rearm).
        let a1 = st.on_request_heard(SimTime::from_secs(1), 2.0, &mut r);
        assert!(matches!(a1, RequestAction::Rearm(_)));
        assert_eq!(st.backoff_count, 1);
        let horizon = st.ignore_backoff_until.unwrap();
        // Second request inside the horizon → ignored (same iteration).
        let inside = SimTime::from_secs_f64(horizon.as_secs_f64() - 0.01);
        let a2 = st.on_request_heard(inside, 2.0, &mut r);
        assert_eq!(a2, RequestAction::None);
        assert_eq!(st.backoff_count, 1);
        // A request after the horizon → next iteration → backoff again.
        let after = SimTime::from_secs_f64(horizon.as_secs_f64() + 0.01);
        let a3 = st.on_request_heard(after, 2.0, &mut r);
        assert!(matches!(a3, RequestAction::Rearm(_)));
        assert_eq!(st.backoff_count, 2);
        assert_eq!(st.duplicate_requests(), 2);
    }

    #[test]
    fn request_delay_measures_first_event_only() {
        let mut r = rng();
        let (mut st, _) = RequestState::new(
            name(),
            SimTime::from_secs(10),
            1.0,
            1.0,
            SimDuration::from_secs(1),
            &mut r,
        );
        assert_eq!(st.request_delay(), None);
        st.on_request_heard(SimTime::from_secs(13), 2.0, &mut r);
        assert_eq!(st.request_delay(), Some(SimDuration::from_secs(3)));
        st.on_request_heard(SimTime::from_secs(20), 2.0, &mut r);
        assert_eq!(st.request_delay(), Some(SimDuration::from_secs(3)));
    }

    #[test]
    fn repair_state_lifecycle() {
        let mut r = rng();
        let (mut st, delay) = RepairState::new(
            name(),
            SimTime::from_secs(5),
            SourceId(7),
            RequestScope {
                ttl: 32,
                admin_scoped: false,
                group: GroupId(1),
            },
            1.0,
            2.0,
            SimDuration::from_secs(2),
            &mut r,
        );
        let d = delay.as_secs_f64();
        assert!((2.0..=6.0).contains(&d));
        st.on_repair_heard(SimTime::from_secs(6));
        assert_eq!(st.duplicate_repairs(), 0);
        assert!(!st.sent);
        st.on_timer_expired(SimTime::from_secs(8));
        assert!(st.sent);
        assert_eq!(st.duplicate_repairs(), 1);
        assert_eq!(st.repair_delay(), Some(SimDuration::from_secs(1)));
        assert_eq!(st.requestor, SourceId(7));
        assert_eq!(st.scope.ttl, 32);
    }

    #[test]
    fn an_episode_is_finished_when_nothing_is_left_to_happen() {
        let mut r = rng();
        let now = SimTime::from_secs(10);
        let mut ep = Episode::default();
        assert!(ep.finished(now));
        let (st, _) = RequestState::new(name(), now, 1.0, 1.0, SimDuration::from_secs(1), &mut r);
        ep.request = Some(st);
        assert!(!ep.finished(now), "a request is pending");
        ep.request = None;
        ep.hold_down_until = SimTime::from_secs(13);
        assert!(ep.held_down(now) && !ep.finished(now), "held down");
        assert!(ep.finished(SimTime::from_secs(13)), "the deadline itself is outside");
        let scope = RequestScope {
            ttl: 255,
            admin_scoped: false,
            group: GroupId(1),
        };
        let (mut st, _) = RepairState::new(
            name(),
            now,
            SourceId(7),
            scope,
            1.0,
            1.0,
            SimDuration::from_secs(1),
            &mut r,
        );
        st.timer = Some(TimerHandle {
            id: TimerId(3),
            token: 3,
        });
        ep.repair = Some(st);
        assert!(!ep.finished(SimTime::from_secs(13)), "a repair timer is armed");
        ep.repair.as_mut().unwrap().timer = None;
        assert!(ep.finished(SimTime::from_secs(13)), "a spent repair side holds nothing up");
    }

    #[test]
    fn triple_backoff_grows_interval() {
        let mut r = rng();
        let (mut st, _) = RequestState::new(
            name(),
            SimTime::ZERO,
            1.0,
            0.0, // deterministic draws
            SimDuration::from_secs(1),
            &mut r,
        );
        let d1 = st.on_timer_expired(SimTime::from_secs(1), 3.0, &mut r);
        assert_eq!(d1, SimDuration::from_secs(3));
        let d2 = st.on_timer_expired(st.expire_at, 3.0, &mut r);
        assert_eq!(d2, SimDuration::from_secs(9));
    }
}
