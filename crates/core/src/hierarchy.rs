//! Scalable session messages via local representatives (Section IX-A).
//!
//! "For larger groups, we are investigating a hierarchical approach for
//! scalable session messages \[33\], where members in a local area
//! dynamically select one of the local members to be the representative …
//! The representatives would each send global session messages … All other
//! members would send local session messages with limited scope sufficient
//! to reach their representative."
//!
//! Election works the SRM way — by listening and suppression, with no
//! extra protocol machinery: a member becomes a representative when it has
//! heard no *nearby* representative for a timeout (global session messages
//! reveal both who is a representative and, via the carried initial TTL,
//! how far away they are); it stands down when a nearer representative
//! with a smaller Source-ID appears. The result is a distance-`local_ttl`
//! dominating set maintained purely from received traffic.

use crate::name::SourceId;
use netsim::{SimDuration, SimTime};

/// A member becomes a representative after hearing no nearby
/// representative for this long (§IX-A gives no number; 30 s is ours).
pub const REP_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Configuration of the session-message hierarchy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HierarchyConfig {
    /// Scope of non-representative ("local") session messages — also the
    /// radius within which one representative suffices.
    pub local_ttl: u8,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig { local_ttl: 3 }
    }
}

/// What kind of session message to send this tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionScope {
    /// Full-scope session message (we are a representative).
    Global,
    /// TTL-limited session message (a representative is nearby).
    Local,
}

/// Per-member election state.
#[derive(Clone, Debug)]
pub struct HierarchyState {
    /// Configuration.
    pub cfg: HierarchyConfig,
    /// Whether this member currently acts as a representative.
    pub is_rep: bool,
    /// The most recent nearby representative heard: (id, when).
    last_nearby_rep: Option<(SourceId, SimTime)>,
}

impl HierarchyState {
    /// Fresh state: not a representative, nobody heard.
    pub fn new(cfg: HierarchyConfig) -> Self {
        HierarchyState {
            cfg,
            is_rep: false,
            last_nearby_rep: None,
        }
    }

    /// Feed every received *global* session message: `hops` is how far it
    /// traveled (from the packet's carried initial TTL).
    pub fn on_global_session(&mut self, self_id: SourceId, sender: SourceId, hops: u8, now: SimTime) {
        if hops > self.cfg.local_ttl {
            return; // not nearby; irrelevant to our local area
        }
        self.last_nearby_rep = Some((sender, now));
        // Deterministic tie-break: a nearby representative with a smaller
        // id demotes us (exactly one survives per contention region).
        if self.is_rep && sender < self_id {
            self.is_rep = false;
        }
    }

    /// Decide the scope of the session message being sent at `now`.
    pub fn decide(&mut self, now: SimTime) -> SessionScope {
        let heard_recent = self
            .last_nearby_rep
            .is_some_and(|(_, t)| now.since(t) < REP_TIMEOUT);
        if self.is_rep {
            SessionScope::Global
        } else if heard_recent {
            SessionScope::Local
        } else {
            // Nobody is covering this area: stand up.
            self.is_rep = true;
            SessionScope::Global
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HierarchyConfig {
        HierarchyConfig { local_ttl: 3 }
    }

    const ME: SourceId = SourceId(5);

    #[test]
    fn lonely_member_becomes_rep() {
        let mut h = HierarchyState::new(cfg());
        assert_eq!(h.decide(SimTime::from_secs(0)), SessionScope::Global);
        assert!(h.is_rep);
        // And stays one.
        assert_eq!(h.decide(SimTime::from_secs(10)), SessionScope::Global);
    }

    #[test]
    fn nearby_rep_suppresses() {
        let mut h = HierarchyState::new(cfg());
        h.on_global_session(ME, SourceId(9), 2, SimTime::from_secs(1));
        assert_eq!(h.decide(SimTime::from_secs(2)), SessionScope::Local);
        assert!(!h.is_rep);
    }

    #[test]
    fn distant_rep_does_not_suppress() {
        let mut h = HierarchyState::new(cfg());
        h.on_global_session(ME, SourceId(9), 7, SimTime::from_secs(1));
        assert_eq!(h.decide(SimTime::from_secs(2)), SessionScope::Global);
    }

    #[test]
    fn rep_times_out_and_successor_stands_up() {
        let mut h = HierarchyState::new(cfg());
        h.on_global_session(ME, SourceId(9), 1, SimTime::from_secs(0));
        assert_eq!(h.decide(SimTime::from_secs(10)), SessionScope::Local);
        // The rep goes silent (left the session): after the timeout we take
        // over.
        assert_eq!(h.decide(SimTime::from_secs(31)), SessionScope::Global);
        assert!(h.is_rep);
    }

    #[test]
    fn smaller_id_nearby_rep_demotes() {
        let mut h = HierarchyState::new(cfg());
        h.decide(SimTime::from_secs(0)); // become rep
        assert!(h.is_rep);
        // A bigger-id rep nearby does not demote us…
        h.on_global_session(ME, SourceId(9), 1, SimTime::from_secs(1));
        assert!(h.is_rep);
        // …a smaller-id one does.
        h.on_global_session(ME, SourceId(2), 1, SimTime::from_secs(2));
        assert!(!h.is_rep);
        assert_eq!(h.decide(SimTime::from_secs(3)), SessionScope::Local);
    }
}
