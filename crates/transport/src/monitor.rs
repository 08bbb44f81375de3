//! Passive group-health monitoring from received session messages.
//!
//! Section III-A makes every member a beacon: each session message carries
//! the sender's per-source sequence-number state, timestamp echoes for
//! distance estimation, and a self-reported loss rate.  A read-only
//! observer that joins the group therefore needs **no cooperation** from
//! the members to reconstruct group health — the observability substrate
//! is the protocol's own control traffic.
//!
//! [`GroupMonitor`] is that observer's state machine, kept free of sockets
//! so it is unit-testable with synthetic [`Message`]s:
//!
//! - **Lag**: every session message reports the sender's highest received
//!   sequence per `(page, source)` flow.  The monitor keeps the group-wide
//!   maximum per flow; a member's lag on a flow is the distance between
//!   that maximum and the member's last report.  A member that has
//!   repaired a loss converges back to lag 0 without the monitor ever
//!   seeing the repair.
//! - **RTT**: member A stamps its session with its local clock `t1`;
//!   member B later echoes `(A, t1, Δ)` where Δ is B's hold time.  The
//!   monitor saw A's message arrive at `m1` and sees B's echo arrive at
//!   `m2`, so `(m2 − m1) − Δ ≈ d(A→B) + d(B→M) − d(A→M)` — on a roughly
//!   symmetric topology, the one-way distance between A and B, by the same
//!   NTP-style algebra the members themselves use (clock skew cancels:
//!   `t1` is only used as a lookup key and Δ is a duration).  Samples are
//!   EWMA-smoothed per member; reported RTT is twice the distance.
//! - **Liveness**: the members' own alive/suspect/dead machine
//!   ([`PeerLiveness`]) re-used verbatim, driven by monitor arrival times
//!   and swept against the nominal session interval for the observed
//!   group size.
//! - **Loss**: the sender's self-reported session `loss_rate`, plus a
//!   monitor-side estimate from session-beacon arrivals versus the nominal
//!   interval (a member whose beacons reach the monitor half as often as
//!   the schedule predicts is losing about half of them).
//!
//! The srm-node `monitor` subcommand wraps this in a socket loop and
//! renders [`GroupMonitor::render_table`] / [`GroupMonitor::to_json_line`]
//! periodically; `srm-experiments monitor` aggregates the JSONL.

use std::collections::{BTreeMap, VecDeque};

use netsim::{SimDuration, SimTime};
use srm::liveness::Transition;
use srm::session::SessionScheduler;
use srm::{Body, LivenessConfig, Message, PageId, PeerLiveness, PeerState, SeqNo, SourceId};

/// How many recent `(timestamp, arrival)` pairs to keep per member for
/// echo matching.  Echoes reference the peer's *latest* heard session, so a
/// short ring suffices even with reordering.
const TS_RING_CAP: usize = 16;

/// EWMA weight for new distance samples.
const RTT_ALPHA: f64 = 0.25;

/// One flow's identity: the page and the originating source within it.
pub type FlowKey = (PageId, SourceId);

/// Per-member state reconstructed from received traffic.
#[derive(Debug, Clone)]
struct MemberEntry {
    /// Monitor-clock arrival of the last frame from this member.
    last_heard: SimTime,
    /// Monitor-clock arrival of the first frame from this member.
    first_heard: SimTime,
    /// Session messages heard from this member.
    sessions_heard: u64,
    /// Frames of any kind heard from this member.
    frames_heard: u64,
    /// The member's last self-reported loss rate.
    reported_loss: f32,
    /// Highest sequence the member last reported per flow.
    reported: BTreeMap<FlowKey, SeqNo>,
    /// EWMA one-way distance estimate (seconds), from echo algebra.
    distance: Option<f64>,
    /// Recent (their local send timestamp, monitor arrival) pairs from this
    /// member's session messages, for matching later echoes.
    ts_ring: VecDeque<(SimTime, SimTime)>,
}

impl MemberEntry {
    fn new(now: SimTime) -> Self {
        MemberEntry {
            last_heard: now,
            first_heard: now,
            sessions_heard: 0,
            frames_heard: 0,
            reported_loss: 0.0,
            reported: BTreeMap::new(),
            distance: None,
            ts_ring: VecDeque::new(),
        }
    }

    fn fold_distance(&mut self, sample: f64) {
        self.distance = Some(match self.distance {
            None => sample,
            Some(d) => d + RTT_ALPHA * (sample - d),
        });
    }
}

/// A snapshot of one member's health, derived purely from received
/// session messages (plus arrival times of any other traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct MemberHealth {
    /// The member.
    pub member: SourceId,
    /// Liveness state from session-silence thresholds.
    pub state: PeerState,
    /// Seconds of silence at snapshot time.
    pub silence: SimDuration,
    /// Session messages heard.
    pub sessions_heard: u64,
    /// Frames of any kind heard.
    pub frames_heard: u64,
    /// Estimated round-trip time to the group (2 × EWMA one-way distance),
    /// `None` until an echo involving this member has been observed.
    pub rtt: Option<SimDuration>,
    /// The member's own last-reported loss rate.
    pub reported_loss: f32,
    /// Monitor-side session-loss estimate: `1 − heard/expected` over the
    /// member's observed lifetime, `None` before one nominal interval has
    /// passed.
    pub session_loss: Option<f64>,
    /// Per-flow lag behind the group-wide highest sequence.
    pub lag: BTreeMap<FlowKey, u64>,
}

impl MemberHealth {
    /// The worst lag across flows (0 when fully caught up or no flows).
    pub fn max_lag(&self) -> u64 {
        self.lag.values().copied().max().unwrap_or(0)
    }
}

/// Reconstructs per-member group health from observed traffic.
///
/// Feed every decoded [`Message`] to [`GroupMonitor::observe`], call
/// [`GroupMonitor::sweep`] periodically (session-interval cadence), and
/// read [`GroupMonitor::health`].
#[derive(Debug, Clone)]
pub struct GroupMonitor {
    scheduler: SessionScheduler,
    liveness: PeerLiveness,
    members: BTreeMap<SourceId, MemberEntry>,
    /// Group-wide highest sequence seen in any report, per flow.
    high: BTreeMap<FlowKey, SeqNo>,
    /// JSONL snapshot sequence number.
    snap_seq: u64,
}

impl GroupMonitor {
    /// A monitor using the members' session-bandwidth schedule (so its
    /// silence thresholds match what the members themselves run) and the
    /// given liveness thresholds.
    pub fn new(liveness_cfg: LivenessConfig) -> Self {
        let scheduler = SessionScheduler::default();
        let mut liveness = PeerLiveness::new();
        liveness.enable(liveness_cfg);
        GroupMonitor { scheduler, liveness, members: BTreeMap::new(), high: BTreeMap::new(), snap_seq: 0 }
    }

    /// Number of distinct members heard from.
    pub fn group_size(&self) -> usize {
        self.members.len()
    }

    /// The nominal (un-jittered) session interval for the observed group
    /// size — the monitor's unit of silence.
    pub fn nominal_interval(&self) -> SimDuration {
        self.scheduler.nominal_interval(self.group_size().max(1))
    }

    /// Ingest one decoded message that arrived at monitor-clock `now`.
    /// Returns any revival transition (a suspect/dead member heard again).
    pub fn observe(&mut self, now: SimTime, msg: &Message) -> Option<Transition> {
        let sender = msg.header.sender;
        let revival = self.liveness.note_heard(sender, now);
        let entry = self.members.entry(sender).or_insert_with(|| MemberEntry::new(now));
        entry.last_heard = now;
        entry.frames_heard += 1;
        if let Body::Session(s) = &msg.body {
            entry.sessions_heard += 1;
            entry.reported_loss = s.loss_rate;
            // Remember (their stamp, our arrival) for later echo matching.
            if entry.ts_ring.len() == TS_RING_CAP {
                entry.ts_ring.pop_front();
            }
            entry.ts_ring.push_back((msg.header.timestamp, now));
            // Fold the reported per-flow state into this member's view and
            // the group-wide maxima.
            for &(source, seq) in &s.state {
                let key = (s.page, source);
                entry.reported.insert(key, seq);
                let high = self.high.entry(key).or_insert(seq);
                if seq > *high {
                    *high = seq;
                }
            }
            // Echo algebra: sender echoes (peer, t1, Δ); we saw peer's t1
            // arrive at a1, and this echo arrive at `now`.
            for echo in &s.echoes {
                let Some(peer) = self.members.get_mut(&echo.peer) else { continue };
                let Some(&(_, a1)) = peer.ts_ring.iter().rev().find(|(ts, _)| *ts == echo.their_ts)
                else {
                    continue;
                };
                if now < a1 {
                    continue;
                }
                let gap = now.since(a1).as_secs_f64() - echo.delay.as_secs_f64();
                let sample = gap.max(0.0);
                peer.fold_distance(sample);
                // The sample bounds both endpoints' distance to the group;
                // fold it into the echoing sender too.
                if let Some(me) = self.members.get_mut(&sender) {
                    me.fold_distance(sample);
                }
            }
        }
        revival
    }

    /// Sweep silence thresholds at `now`; call on a session-interval
    /// cadence.  Returns the liveness transitions that fired.
    pub fn sweep(&mut self, now: SimTime) -> Vec<Transition> {
        let interval = self.nominal_interval();
        self.liveness.sweep(now, interval)
    }

    /// Current liveness state of `member`.
    pub fn state(&self, member: SourceId) -> PeerState {
        self.liveness.state(member)
    }

    /// Snapshot every member's health at monitor-clock `now`, in member-id
    /// order.
    pub fn health(&self, now: SimTime) -> Vec<MemberHealth> {
        let nominal = self.nominal_interval().as_secs_f64();
        self.members
            .iter()
            .map(|(&member, e)| {
                let silence =
                    if now > e.last_heard { now.since(e.last_heard) } else { SimDuration::ZERO };
                let lag = e
                    .reported
                    .iter()
                    .map(|(key, &seq)| {
                        let high = self.high.get(key).copied().unwrap_or(seq);
                        (*key, high.0.saturating_sub(seq.0))
                    })
                    .collect();
                let lifetime =
                    if now > e.first_heard { now.since(e.first_heard).as_secs_f64() } else { 0.0 };
                let session_loss = (nominal > 0.0 && lifetime >= nominal).then(|| {
                    let expected = lifetime / nominal;
                    (1.0 - e.sessions_heard as f64 / expected).clamp(0.0, 1.0)
                });
                MemberHealth {
                    member,
                    state: self.liveness.state(member),
                    silence,
                    sessions_heard: e.sessions_heard,
                    frames_heard: e.frames_heard,
                    rtt: e.distance.map(|d| SimDuration::from_secs_f64(2.0 * d)),
                    reported_loss: e.reported_loss,
                    session_loss,
                    lag,
                }
            })
            .collect()
    }

    /// Render the group-health table for a terminal refresh.
    pub fn render_table(&self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# group monitor: {} member(s), nominal interval {:.2}s",
            self.group_size(),
            self.nominal_interval().as_secs_f64()
        );
        let _ = writeln!(
            out,
            "{:>7}  {:>8}  {:>9}  {:>8}  {:>7}  {:>8}  {:>7}  {:>8}",
            "member", "state", "silence_s", "sessions", "maxlag", "rtt_ms", "loss", "sessloss"
        );
        for h in self.health(now) {
            let state = match h.state {
                PeerState::Alive => "alive",
                PeerState::Suspect => "suspect",
                PeerState::Dead => "dead",
            };
            let rtt = h
                .rtt
                .map(|d| format!("{:.2}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".to_string());
            let sess_loss = h
                .session_loss
                .map(|l| format!("{:.2}", l))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:>7}  {:>8}  {:>9.2}  {:>8}  {:>7}  {:>8}  {:>7.2}  {:>8}",
                format!("m{}", h.member.0),
                state,
                h.silence.as_secs_f64(),
                h.sessions_heard,
                h.max_lag(),
                rtt,
                h.reported_loss,
                sess_loss,
            );
        }
        out
    }

    /// One versioned JSONL line describing the whole group at `now`
    /// (monitor-clock seconds), for post-hoc diffing against sender-side
    /// metrics snapshots.
    pub fn to_json_line(&mut self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let seq = self.snap_seq;
        self.snap_seq += 1;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"v\":1,\"kind\":\"monitor\",\"seq\":{},\"at\":{:.9},\"group_size\":{},\"members\":[",
            seq,
            now.as_secs_f64(),
            self.group_size()
        );
        for (i, h) in self.health(now).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let state = match h.state {
                PeerState::Alive => "alive",
                PeerState::Suspect => "suspect",
                PeerState::Dead => "dead",
            };
            let _ = write!(
                s,
                "{{\"member\":{},\"state\":\"{}\",\"silence\":{:.6},\"sessions\":{},\"frames\":{},\"max_lag\":{},\"reported_loss\":{:.6}",
                h.member.0,
                state,
                h.silence.as_secs_f64(),
                h.sessions_heard,
                h.frames_heard,
                h.max_lag(),
                h.reported_loss,
            );
            if let Some(rtt) = h.rtt {
                let _ = write!(s, ",\"rtt\":{:.9}", rtt.as_secs_f64());
            }
            if let Some(l) = h.session_loss {
                let _ = write!(s, ",\"session_loss\":{:.6}", l);
            }
            s.push_str(",\"lag\":[");
            for (j, ((page, source), lag)) in h.lag.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"page\":\"{}.{}\",\"source\":{},\"lag\":{}}}",
                    page.creator.0, page.number, source.0, lag
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm::wire::{Echo, Header, SessionBody};

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn session(
        sender: u64,
        ts: SimTime,
        page: PageId,
        state: Vec<(SourceId, SeqNo)>,
        echoes: Vec<Echo>,
    ) -> Message {
        Message {
            header: Header { sender: SourceId(sender), timestamp: ts },
            body: Body::Session(SessionBody {
                page,
                state,
                echoes,
                loss_rate: 0.0,
                loss_fingerprint: Vec::new(),
            }),
        }
    }

    fn monitor() -> GroupMonitor {
        GroupMonitor::new(LivenessConfig::default())
    }

    #[test]
    fn lag_is_distance_to_group_maximum() {
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        let src = SourceId(1);
        // Member 1 (the source) reports seq 9; member 2 lags at 5.
        m.observe(t(1.0), &session(1, t(1.0), page, vec![(src, SeqNo(9))], vec![]));
        m.observe(t(1.1), &session(2, t(1.1), page, vec![(src, SeqNo(5))], vec![]));
        let health = m.health(t(1.2));
        assert_eq!(health.len(), 2);
        assert_eq!(health[0].member, SourceId(1));
        assert_eq!(health[0].max_lag(), 0);
        assert_eq!(health[1].member, SourceId(2));
        assert_eq!(health[1].max_lag(), 4);
        assert_eq!(health[1].lag[&(page, src)], 4);
        // Member 2 repairs its loss and reports seq 9: lag converges to 0.
        m.observe(t(2.0), &session(2, t(2.0), page, vec![(src, SeqNo(9))], vec![]));
        assert_eq!(m.health(t(2.1))[1].max_lag(), 0);
    }

    #[test]
    fn silence_flips_members_suspect_then_dead() {
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        m.observe(t(1.0), &session(1, t(1.0), page, vec![], vec![]));
        m.observe(t(1.0), &session(2, t(1.0), page, vec![], vec![]));
        // Keep member 1 chatty; member 2 goes silent.  Nominal interval for
        // a 2-member group floors at 1s; defaults: suspect 3, dead 8.
        for k in 2..=10 {
            m.observe(t(k as f64), &session(1, t(k as f64), page, vec![], vec![]));
        }
        let transitions = m.sweep(t(10.0));
        assert!(transitions
            .iter()
            .any(|tr| tr.peer == SourceId(2) && tr.to == PeerState::Dead));
        assert_eq!(m.state(SourceId(1)), PeerState::Alive);
        assert_eq!(m.state(SourceId(2)), PeerState::Dead);
        // Hearing the member again revives it.
        let revival = m.observe(t(11.0), &session(2, t(11.0), page, vec![], vec![]));
        assert_eq!(revival.map(|r| r.to), Some(PeerState::Alive));
    }

    #[test]
    fn echo_algebra_recovers_pairwise_distance() {
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        // A's session, stamped with A's local clock 100.0, reaches the
        // monitor at 5.000.  (Local clocks are deliberately offset — only
        // the stamp's identity matters.)
        m.observe(t(5.0), &session(1, t(100.0), page, vec![], vec![]));
        // B heard that message and echoes it 0.5s later (B's Δ); B's
        // session reaches the monitor at 5.540.
        let echo = Echo { peer: SourceId(1), their_ts: t(100.0), delay: SimDuration::from_secs_f64(0.5) };
        m.observe(t(5.54), &session(2, t(7.0), page, vec![], vec![echo]));
        // Sample = (5.54 − 5.0) − 0.5 = 0.04 one-way → RTT ≈ 80ms, on both
        // endpoints of the exchange.
        let health = m.health(t(6.0));
        for h in &health {
            let rtt = h.rtt.expect("both members have a sample").as_secs_f64();
            assert!((rtt - 0.08).abs() < 1e-9, "rtt={rtt}");
        }
    }

    #[test]
    fn unmatched_or_stale_echoes_are_ignored() {
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        m.observe(t(1.0), &session(1, t(50.0), page, vec![], vec![]));
        // Echo references a timestamp the monitor never saw (lost beacon).
        let echo = Echo { peer: SourceId(1), their_ts: t(49.0), delay: SimDuration::ZERO };
        m.observe(t(1.5), &session(2, t(9.0), page, vec![], vec![echo]));
        // Echo references a member the monitor never heard at all.
        let echo = Echo { peer: SourceId(77), their_ts: t(1.0), delay: SimDuration::ZERO };
        m.observe(t(1.6), &session(2, t(9.1), page, vec![], vec![echo]));
        assert!(m.health(t(2.0)).iter().all(|h| h.rtt.is_none()));
    }

    #[test]
    fn negative_samples_clamp_to_zero() {
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        m.observe(t(1.0), &session(1, t(10.0), page, vec![], vec![]));
        // Δ exceeds the observed gap (e.g. the monitor is much closer to B
        // than to A): the sample clamps to 0 instead of going negative.
        let echo = Echo { peer: SourceId(1), their_ts: t(10.0), delay: SimDuration::from_secs(5) };
        m.observe(t(1.2), &session(2, t(2.0), page, vec![], vec![echo]));
        let health = m.health(t(2.0));
        assert_eq!(health[0].rtt, Some(SimDuration::ZERO));
    }

    #[test]
    fn session_loss_estimate_tracks_missing_beacons() {
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        // 10s of lifetime at a 1s nominal interval (2-member group) with
        // only 5 sessions heard → about half the beacons lost.
        m.observe(t(0.0), &session(1, t(0.0), page, vec![], vec![]));
        m.observe(t(0.0), &session(2, t(0.0), page, vec![], vec![]));
        for k in 1..5 {
            m.observe(t(2.0 * k as f64), &session(1, t(2.0 * k as f64), page, vec![], vec![]));
        }
        let h = m.health(t(10.0));
        let loss = h[0].session_loss.expect("past one interval");
        assert!((loss - 0.5).abs() < 0.11, "loss={loss}");
        // The chatty path: member 2 heard every second has ~zero loss.
        let mut m2 = monitor();
        for k in 0..=10 {
            m2.observe(t(k as f64), &session(2, t(k as f64), page, vec![], vec![]));
        }
        let h2 = m2.health(t(10.0));
        assert!(h2[0].session_loss.unwrap() < 0.05);
    }

    #[test]
    fn data_frames_count_as_life_but_not_state() {
        use bytes::Bytes;
        use srm::{AduName, DataBody};
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        let msg = Message {
            header: Header { sender: SourceId(3), timestamp: t(4.0) },
            body: Body::Data(DataBody {
                name: AduName { source: SourceId(3), page, seq: SeqNo(0) },
                is_repair: false,
                answering: None,
                dist_to_requestor: 0.0,
                payload: Bytes::from_static(b"x"),
            }),
        };
        m.observe(t(4.0), &msg);
        let h = m.health(t(4.5));
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].frames_heard, 1);
        assert_eq!(h[0].sessions_heard, 0);
        assert!(h[0].lag.is_empty());
    }

    #[test]
    fn json_line_is_versioned_and_sequenced() {
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        m.observe(t(1.0), &session(1, t(1.0), page, vec![(SourceId(1), SeqNo(3))], vec![]));
        let line = m.to_json_line(t(2.0));
        assert!(line.starts_with("{\"v\":1,\"kind\":\"monitor\",\"seq\":0"), "{line}");
        assert!(line.contains("\"member\":1"), "{line}");
        assert!(line.contains("\"page\":\"1.0\""), "{line}");
        assert!(!line.contains('\n'));
        assert!(m.to_json_line(t(3.0)).contains("\"seq\":1"));
    }

    #[test]
    fn render_table_lists_members_and_states() {
        let mut m = monitor();
        let page = PageId::new(SourceId(1), 0);
        m.observe(t(1.0), &session(1, t(1.0), page, vec![], vec![]));
        m.observe(t(1.0), &session(2, t(1.0), page, vec![], vec![]));
        m.sweep(t(20.0));
        let table = m.render_table(t(20.0));
        assert!(table.contains("m1"), "{table}");
        assert!(table.contains("dead"), "{table}");
    }
}
