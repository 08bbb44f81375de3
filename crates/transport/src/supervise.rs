//! Receive-path supervision: classify, back off, rebind, respawn.
//!
//! The reactor that owns a socket consults a [`Supervisor`] after every
//! failed `recv_batch`. Socket errors are classified transient (the same
//! socket is read again after a bounded exponential backoff) or fatal (the
//! socket is re-cloned — or, if the descriptor itself is the problem,
//! rebound — against a bounded respawn budget), and a panic inside the
//! backend counts as fatal. Each call returns a [`Verdict`]; the reactor
//! turns it into a deadline, counters and typed [`obs::TransportEventKind`]
//! events, and keeps firing timers and answering `exec` meanwhile. The
//! supervisor itself never sleeps, logs or touches a socket, so the whole
//! state machine — transient retry, backoff growth and cap, respawn budget,
//! exhaustion — is unit-testable without any I/O.

use std::io;
use std::time::Duration;

/// How a receive error should be handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Read the same socket again after a short backoff: the error is a
    /// property of the moment, not the socket.
    Transient,
    /// Rebuild the socket (bounded).
    Fatal,
}

/// Classify an I/O error kind the way the recv supervisor does.
///
/// `WouldBlock`/`TimedOut` are what a drained non-blocking socket and a
/// read timeout produce; `Interrupted` is a signal; `ConnectionReset`/
/// `ConnectionAborted` are what Windows and some Unixes report on a UDP
/// socket after an ICMP port-unreachable from a peer that is merely
/// restarting.  None of these say anything about *our* socket, so they are
/// transient.
pub fn classify(kind: io::ErrorKind) -> ErrorClass {
    match kind {
        io::ErrorKind::WouldBlock
        | io::ErrorKind::TimedOut
        | io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted => ErrorClass::Transient,
        _ => ErrorClass::Fatal,
    }
}

/// Supervision limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Fatal errors / panics tolerated before giving up.
    pub max_respawns: u32,
    /// First backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            max_respawns: 5,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(2),
        }
    }
}

impl SupervisePolicy {
    /// Exponential backoff for the `n`-th consecutive failure (0-based),
    /// capped at `backoff_max`.
    pub fn backoff(&self, n: u32) -> Duration {
        let mult = 1u32.checked_shl(n).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(mult)
            .unwrap_or(self.backoff_max)
            .min(self.backoff_max)
    }
}

/// What the reactor does about one failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Stop polling the socket for this long, then read it again.
    Retry(Duration),
    /// Stop polling the socket for `after`, then rebuild it: respawn
    /// `attempt` (1-based) of the budget.
    Respawn {
        /// 1-based respawn attempt.
        attempt: u32,
        /// The pause before the rebuild.
        after: Duration,
    },
    /// The respawn budget is spent: stop reading for good.
    GiveUp,
}

/// The step-wise supervisor of one socket's receive path.
#[derive(Clone, Debug)]
pub struct Supervisor {
    policy: SupervisePolicy,
    /// Respawns spent; never refunded.
    respawns: u32,
    /// Consecutive transient errors since the last good read or rebuild.
    streak: u32,
}

impl Supervisor {
    /// A supervisor with a full budget.
    pub fn new(policy: SupervisePolicy) -> Self {
        Supervisor { policy, respawns: 0, streak: 0 }
    }

    /// A read that worked ends a transient streak.
    pub fn succeeded(&mut self) {
        self.streak = 0;
    }

    /// A read failed (`Fatal` also covers a panicking backend and a
    /// rebuild that could not get a socket): decide what happens next.
    pub fn failed(&mut self, class: ErrorClass) -> Verdict {
        match class {
            ErrorClass::Transient => {
                let pause = self.policy.backoff(self.streak);
                self.streak = self.streak.saturating_add(1);
                Verdict::Retry(pause)
            }
            ErrorClass::Fatal if self.respawns >= self.policy.max_respawns => Verdict::GiveUp,
            ErrorClass::Fatal => {
                // A rebuilt socket starts a fresh transient streak.
                self.streak = 0;
                self.respawns += 1;
                Verdict::Respawn { attempt: self.respawns, after: self.policy.backoff(self.respawns - 1) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SupervisePolicy {
        SupervisePolicy {
            max_respawns: 2,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(80),
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn classification_matches_the_issue_list() {
        assert_eq!(classify(io::ErrorKind::WouldBlock), ErrorClass::Transient);
        assert_eq!(classify(io::ErrorKind::Interrupted), ErrorClass::Transient);
        assert_eq!(classify(io::ErrorKind::ConnectionReset), ErrorClass::Transient);
        assert_eq!(classify(io::ErrorKind::PermissionDenied), ErrorClass::Fatal);
        assert_eq!(classify(io::ErrorKind::NotConnected), ErrorClass::Fatal);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = policy();
        assert_eq!(p.backoff(0), ms(10));
        assert_eq!(p.backoff(1), ms(20));
        assert_eq!(p.backoff(2), ms(40));
        assert_eq!(p.backoff(3), ms(80));
        assert_eq!(p.backoff(10), ms(80), "capped");
        assert_eq!(p.backoff(40), ms(80), "no shift overflow");
    }

    #[test]
    fn transient_errors_retry_in_place_with_growing_backoff() {
        let mut s = Supervisor::new(policy());
        // The backoff grows across a streak and resets after a good read;
        // no transient error ever spends the respawn budget.
        assert_eq!(s.failed(ErrorClass::Transient), Verdict::Retry(ms(10)));
        assert_eq!(s.failed(ErrorClass::Transient), Verdict::Retry(ms(20)));
        s.succeeded();
        assert_eq!(s.failed(ErrorClass::Transient), Verdict::Retry(ms(10)));
        for _ in 0..20 {
            assert!(matches!(s.failed(ErrorClass::Transient), Verdict::Retry(_)));
        }
        assert_eq!(s.failed(ErrorClass::Fatal), Verdict::Respawn { attempt: 1, after: ms(10) });
    }

    #[test]
    fn panics_respawn_until_the_budget_runs_out() {
        // A panicking backend is reported as fatal: first life plus
        // `max_respawns` respawns, then the reactor stops reading.
        let mut s = Supervisor::new(policy());
        assert_eq!(s.failed(ErrorClass::Fatal), Verdict::Respawn { attempt: 1, after: ms(10) });
        assert_eq!(s.failed(ErrorClass::Fatal), Verdict::Respawn { attempt: 2, after: ms(20) });
        assert_eq!(s.failed(ErrorClass::Fatal), Verdict::GiveUp);
        assert_eq!(s.failed(ErrorClass::Fatal), Verdict::GiveUp, "the budget is never refunded");
    }

    // A respawn does not poison the supervisor: the rebuilt socket reads
    // normally and starts its own transient streak from the base backoff.
    #[test]
    fn a_respawned_step_can_recover() {
        let mut s = Supervisor::new(policy());
        assert_eq!(s.failed(ErrorClass::Transient), Verdict::Retry(ms(10)));
        assert_eq!(s.failed(ErrorClass::Transient), Verdict::Retry(ms(20)));
        assert!(matches!(s.failed(ErrorClass::Fatal), Verdict::Respawn { attempt: 1, .. }));
        s.succeeded();
        assert_eq!(s.failed(ErrorClass::Transient), Verdict::Retry(ms(10)));
    }

    #[test]
    fn make_step_failure_consumes_the_budget() {
        // A rebuild that cannot get a socket is one more fatal failure:
        // fatal read → respawn 1 → rebuild fails → respawn 2 → rebuild
        // fails → give up.
        let mut s = Supervisor::new(policy());
        let verdicts: Vec<_> = (0..3).map(|_| s.failed(ErrorClass::Fatal)).collect();
        assert_eq!(
            verdicts,
            [
                Verdict::Respawn { attempt: 1, after: ms(10) },
                Verdict::Respawn { attempt: 2, after: ms(20) },
                Verdict::GiveUp,
            ]
        );
    }
}
