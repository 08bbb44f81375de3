//! Adaptive adjustment of the request/repair timer parameters
//! (Section VII-A, Figs 9–11).
//!
//! Each member measures, over *request periods* and *repair periods*:
//!
//! - `ave_dup_req` / `ave_dup_rep`: exponential-weighted moving averages of
//!   the number of duplicate requests/repairs per period ("dup_req keeps
//!   count of the number of duplicate requests received during one request
//!   period … At the end of each request period, the member updates
//!   ave_dup_req … before resetting dup_req to zero");
//! - `ave_req_delay` / `ave_rep_delay`: EWMAs of the delay from timer set
//!   to the first request/repair (sent or heard), "as a multiple of the
//!   roundtrip time to the source of the missing data".
//!
//! A request period begins when the member first detects a loss and sets a
//! request timer, and ends when it detects a *subsequent* loss and begins a
//! new period. Repair periods are delimited analogously by repair-timer
//! sets for different data items.
//!
//! At each period boundary the parameters are nudged (the paper's
//! adjustment constants: ±0.1/−0.05 for C1, ±0.5/−0.1 for C2) toward the
//! targets `AveDups` and `AveDelay`, and clamped. Two further mechanisms
//! encourage *deterministic* suppression: members reduce C1 right after
//! sending a request, and members who sent a request reduce C2 when they
//! observe a duplicate request from a member reporting a distance more than
//! 1.5× their own ("further from the source").

use crate::config::TimerParams;
use crate::name::AduName;

/// Target bound on the average duplicate count per period: "the predefined
/// threshold is one duplicate request" (AveDups).
pub const AVE_DUPS: f64 = 1.0;
/// Target bound on the average request/repair delay, in RTTs to the
/// relevant source (AveDelay).
pub const AVE_DELAY: f64 = 1.0;
/// EWMA weight λ of the running averages (DESIGN.md §6, note 2).
pub const LAMBDA: f64 = 0.25;
/// Lower clamp for C1 and D1 (Fig 11, reconstructed: DESIGN.md §6, note 3).
pub const MIN_C1: f64 = 0.5;
/// Upper clamp for C1 and D1 (Fig 11, reconstructed).
pub const MAX_C1: f64 = 2.0;
/// Lower clamp for C2 and D2 (Fig 11, reconstructed).
pub const MIN_C2: f64 = 1.0;
/// Upper clamp for C2 and D2 (Fig 11, reconstructed).
pub const MAX_C2: f64 = 64.0;
/// "Further from the source": a duplicate request reported from more than
/// this multiple of our own distance triggers the C2 decrease.
pub const FARTHER_FACTOR: f64 = 1.5;

/// One side (request or repair) of the adaptive state.
#[derive(Clone, Debug)]
struct Side {
    /// EWMA of duplicates per period.
    ave_dup: f64,
    /// EWMA of (delay / RTT).
    ave_delay: f64,
    /// Duplicates observed in the current period.
    dup: u32,
    /// The data item delimiting the current period.
    current_item: Option<AduName>,
    /// Did we send (a request/repair) during the current period?
    sent_this_period: bool,
    /// Did we send during the previous period?
    sent_last_period: bool,
    /// Whether any period has been opened yet.
    opened: bool,
}

impl Side {
    fn new() -> Self {
        Side {
            ave_dup: 0.0,
            ave_delay: 0.0,
            dup: 0,
            current_item: None,
            sent_this_period: false,
            sent_last_period: false,
            opened: false,
        }
    }

    /// Fold the finished period's duplicate count into the average.
    fn close_period(&mut self) {
        self.ave_dup = (1.0 - LAMBDA) * self.ave_dup + LAMBDA * self.dup as f64;
        self.dup = 0;
        self.sent_last_period = self.sent_this_period;
        self.sent_this_period = false;
    }

    fn note_delay(&mut self, delay_over_rtt: f64) {
        self.ave_delay = (1.0 - LAMBDA) * self.ave_delay + LAMBDA * delay_over_rtt;
    }
}

/// Per-member adaptive timer state. Owns the live [`TimerParams`].
#[derive(Clone, Debug)]
pub struct AdaptiveTimers {
    /// The live parameters used to draw timers.
    pub params: TimerParams,
    req: Side,
    rep: Side,
}

impl AdaptiveTimers {
    /// Start from `initial` parameters.
    pub fn new(initial: TimerParams) -> Self {
        AdaptiveTimers {
            params: initial,
            req: Side::new(),
            rep: Side::new(),
        }
    }

    // ---- request side ---------------------------------------------------

    /// A request timer was set for `item` after detecting its loss. If this
    /// starts a new request period, the previous one is closed and the
    /// request parameters adjusted (Fig 9: "the general adaptation performed
    /// by all members when they set a request timer").
    pub fn on_request_timer_set(&mut self, item: AduName) {
        if self.req.current_item == Some(item) {
            return; // same loss-recovery event (e.g. re-armed timer)
        }
        if self.req.opened {
            self.req.close_period();
            self.adjust_request_params();
        }
        self.req.opened = true;
        self.req.current_item = Some(item);
    }

    /// A duplicate request was observed for data we set a request timer for.
    pub fn on_duplicate_request(&mut self) {
        self.req.dup += 1;
    }

    /// We sent a request. Mechanism 1 of Section VII-A: "members … reduce
    /// C1 after they send a request", encouraging members near the failure
    /// to keep requesting early (deterministic suppression).
    pub fn on_request_sent(&mut self) {
        self.req.sent_this_period = true;
        self.params.c1 -= 0.05;
        self.clamp();
    }

    /// We had sent a request and then observed a duplicate request from a
    /// member whose reported distance to the source exceeds
    /// [`FARTHER_FACTOR`] × ours. Mechanism 2: reduce C2.
    ///
    /// Returns true if the rule fired.
    pub fn on_far_duplicate_request(&mut self, their_dist: f64, our_dist: f64) -> bool {
        if self.req.sent_this_period && their_dist > FARTHER_FACTOR * our_dist {
            self.params.c2 -= 0.1;
            self.clamp();
            true
        } else {
            false
        }
    }

    /// Record the request delay (time from first timer set until a request
    /// was sent or heard), in units of the RTT to the source.
    pub fn on_request_delay(&mut self, delay_over_rtt: f64) {
        self.req.note_delay(delay_over_rtt);
    }

    fn adjust_request_params(&mut self) {
        if self.req.ave_dup >= AVE_DUPS {
            // Too many duplicates: spread the timers out.
            self.params.c1 += 0.1;
            self.params.c2 += 0.5;
        } else {
            // Duplicates are under control; claw back delay.
            if self.req.ave_delay > AVE_DELAY {
                self.params.c2 -= 0.1;
            }
            // "only decreases C1 for members who have sent requests, or
            // when the average number of duplicates is already small."
            if self.req.sent_last_period || self.req.ave_dup < 0.25 * AVE_DUPS {
                self.params.c1 -= 0.05;
            }
        }
        self.clamp();
    }

    // ---- repair side ----------------------------------------------------

    /// A repair timer was set for `item`. Opens/closes repair periods and
    /// adjusts D1/D2 at boundaries, mirroring the request side.
    pub fn on_repair_timer_set(&mut self, item: AduName) {
        if self.rep.current_item == Some(item) {
            return;
        }
        if self.rep.opened {
            self.rep.close_period();
            self.adjust_repair_params();
        }
        self.rep.opened = true;
        self.rep.current_item = Some(item);
    }

    /// A duplicate repair was observed for data we set a repair timer for.
    pub fn on_duplicate_repair(&mut self) {
        self.rep.dup += 1;
    }

    /// We sent a repair (mirror of [`Self::on_request_sent`]).
    pub fn on_repair_sent(&mut self) {
        self.rep.sent_this_period = true;
        self.params.d1 -= 0.05;
        self.clamp();
    }

    /// Record the repair delay in units of the RTT to the requestor.
    pub fn on_repair_delay(&mut self, delay_over_rtt: f64) {
        self.rep.note_delay(delay_over_rtt);
    }

    fn adjust_repair_params(&mut self) {
        if self.rep.ave_dup >= AVE_DUPS {
            self.params.d1 += 0.1;
            self.params.d2 += 0.5;
        } else {
            if self.rep.ave_delay > AVE_DELAY {
                self.params.d2 -= 0.1;
            }
            if self.rep.sent_last_period || self.rep.ave_dup < 0.25 * AVE_DUPS {
                self.params.d1 -= 0.05;
            }
        }
        self.clamp();
    }

    // ---- shared ----------------------------------------------------------

    fn clamp(&mut self) {
        self.params.c1 = self.params.c1.clamp(MIN_C1, MAX_C1);
        self.params.c2 = self.params.c2.clamp(MIN_C2, MAX_C2);
        self.params.d1 = self.params.d1.clamp(MIN_C1, MAX_C1);
        self.params.d2 = self.params.d2.clamp(MIN_C2, MAX_C2);
    }

    /// Current request-side duplicate average (for tests/metrics).
    pub fn ave_dup_req(&self) -> f64 {
        self.req.ave_dup
    }

    /// Current request-side delay average.
    pub fn ave_req_delay(&self) -> f64 {
        self.req.ave_delay
    }

    /// Current repair-side duplicate average.
    pub fn ave_dup_rep(&self) -> f64 {
        self.rep.ave_dup
    }

    /// Current repair-side delay average.
    pub fn ave_rep_delay(&self) -> f64 {
        self.rep.ave_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::{PageId, SeqNo, SourceId};

    fn item(q: u64) -> AduName {
        AduName::new(SourceId(1), PageId::new(SourceId(1), 0), SeqNo(q))
    }

    fn fresh() -> AdaptiveTimers {
        AdaptiveTimers::new(TimerParams {
            c1: 2.0,
            c2: 7.0,
            d1: 2.0,
            d2: 7.0,
        })
    }

    #[test]
    fn duplicates_increase_interval() {
        let mut a = fresh();
        a.on_request_timer_set(item(0));
        for _ in 0..5 {
            a.on_duplicate_request();
        }
        // New period → adjustment happens with ave_dup = 0.25·5 = 1.25 ≥ 1.
        a.on_request_timer_set(item(1));
        assert!((a.params.c1 - 2.0).abs() < 1e-9, "clamped at max_c1");
        assert!((a.params.c2 - 7.5).abs() < 1e-9);
    }

    #[test]
    fn high_delay_decreases_c2_when_dups_low() {
        let mut a = fresh();
        a.on_request_timer_set(item(0));
        a.on_request_delay(5.0); // ave_delay = 1.25 > 1
        a.on_request_timer_set(item(1));
        assert!((a.params.c2 - 6.9).abs() < 1e-9);
    }

    #[test]
    fn c1_decreases_only_for_senders_or_low_dups() {
        // Sender path:
        let mut a = fresh();
        a.on_request_timer_set(item(0));
        a.on_request_sent(); // immediate −0.05
        assert!((a.params.c1 - 1.95).abs() < 1e-9);
        a.on_request_timer_set(item(1)); // sent_last_period = true → −0.05
        assert!((a.params.c1 - 1.90).abs() < 1e-9);

        // Low-dups path (never sent): ave_dup 0 < 0.25 → C1 decreases.
        let mut b = fresh();
        b.on_request_timer_set(item(0));
        b.on_request_timer_set(item(1));
        assert!((b.params.c1 - 1.95).abs() < 1e-9);

        // Moderate dups, no send: C1 untouched.
        let mut c = fresh();
        c.on_request_timer_set(item(0));
        c.on_duplicate_request();
        c.on_duplicate_request(); // ave_dup = 0.5, in [0.25, 1)
        c.on_request_timer_set(item(1));
        assert!((c.params.c1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn far_duplicate_rule_requires_recent_send_and_distance() {
        let mut a = fresh();
        a.on_request_timer_set(item(0));
        assert!(!a.on_far_duplicate_request(4.0, 1.0)); // didn't send
        a.on_request_sent();
        assert!(!a.on_far_duplicate_request(1.4, 1.0)); // not far enough
        assert!(a.on_far_duplicate_request(1.6, 1.0));
        assert!((a.params.c2 - 6.9).abs() < 1e-9);
    }

    #[test]
    fn same_item_does_not_open_new_period() {
        let mut a = fresh();
        a.on_request_timer_set(item(0));
        a.on_duplicate_request();
        a.on_request_timer_set(item(0)); // re-arm, same event
        assert_eq!(a.ave_dup_req(), 0.0); // period not closed yet
        a.on_request_timer_set(item(1));
        assert!((a.ave_dup_req() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn delay_ewma_update_math() {
        // ave' = (1−λ)·ave + λ·sample with λ = 0.25 (paper's weight).
        let mut a = fresh();
        assert_eq!(a.ave_req_delay(), 0.0);
        a.on_request_delay(5.0);
        assert!((a.ave_req_delay() - 1.25).abs() < 1e-12); // 0.75·0 + 0.25·5
        a.on_request_delay(3.0);
        assert!((a.ave_req_delay() - 1.6875).abs() < 1e-12); // 0.75·1.25 + 0.25·3
        a.on_request_delay(0.0);
        assert!((a.ave_req_delay() - 1.265625).abs() < 1e-12); // 0.75·1.6875
        // The repair side uses the same recurrence independently.
        a.on_repair_delay(4.0);
        assert!((a.ave_rep_delay() - 1.0).abs() < 1e-12);
        assert!((a.ave_req_delay() - 1.265625).abs() < 1e-12);
    }

    #[test]
    fn dup_ewma_chains_across_periods() {
        let mut a = fresh();
        // Period 0: 4 duplicates → on close, ave = 0.25·4 = 1.0.
        a.on_request_timer_set(item(0));
        for _ in 0..4 {
            a.on_duplicate_request();
        }
        a.on_request_timer_set(item(1));
        assert!((a.ave_dup_req() - 1.0).abs() < 1e-12);
        // Period 1: 2 duplicates → ave = 0.75·1.0 + 0.25·2 = 1.25.
        a.on_duplicate_request();
        a.on_duplicate_request();
        a.on_request_timer_set(item(2));
        assert!((a.ave_dup_req() - 1.25).abs() < 1e-12);
        // Period 2: quiet → ave decays: 0.75·1.25 = 0.9375, and the dup
        // counter was reset at the boundary (no carry-over).
        a.on_request_timer_set(item(3));
        assert!((a.ave_dup_req() - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn close_period_transfers_sent_flag_once() {
        let mut a = fresh();
        a.on_request_timer_set(item(0));
        a.on_request_sent(); // c1: 2.0 → 1.95
        // Boundary 1: sent_last_period = true → extra −0.05.
        a.on_request_timer_set(item(1));
        assert!((a.params.c1 - 1.90).abs() < 1e-9);
        // Boundary 2: we did not send in period 1, but ave_dup is 0 (< 0.25
        // of target) so the low-dups branch still applies −0.05.
        a.on_request_timer_set(item(2));
        assert!((a.params.c1 - 1.85).abs() < 1e-9);
    }

    #[test]
    fn params_stay_clamped_under_stress() {
        let mut a = fresh();
        for i in 0..200 {
            a.on_request_timer_set(item(i));
            for _ in 0..10 {
                a.on_duplicate_request();
            }
        }
        assert!(a.params.c1 <= MAX_C1 + 1e-9);
        assert!(a.params.c2 <= MAX_C2 + 1e-9);
        let mut b = fresh();
        for i in 0..200 {
            b.on_request_timer_set(item(i));
            b.on_request_sent();
            b.on_request_delay(10.0);
        }
        assert!(b.params.c1 >= MIN_C1 - 1e-9);
        assert!(b.params.c2 >= MIN_C2 - 1e-9);
    }

    #[test]
    fn repair_side_mirrors_request_side() {
        let mut a = fresh();
        a.on_repair_timer_set(item(0));
        for _ in 0..8 {
            a.on_duplicate_repair();
        }
        a.on_repair_timer_set(item(1));
        assert!((a.params.d2 - 7.5).abs() < 1e-9);
        assert!((a.ave_dup_rep() - 2.0).abs() < 1e-9);
        a.on_repair_sent();
        assert!((a.params.d1 - 1.95).abs() < 1e-9);
    }

    #[test]
    fn converges_to_low_duplicates_in_simple_model() {
        // A toy closed loop: duplicates per round ≈ max(0, 6 − C2), a crude
        // stand-in for a star where widening the interval suppresses dups.
        let mut a = AdaptiveTimers::new(TimerParams {
            c1: 2.0,
            c2: 1.0,
            d1: 2.0,
            d2: 1.0,
        });
        let mut last_dups = 0.0;
        for i in 0..200 {
            a.on_request_timer_set(item(i));
            let dups = (6.0 - a.params.c2).max(0.0);
            last_dups = dups;
            for _ in 0..dups.round() as u32 {
                a.on_duplicate_request();
            }
        }
        assert!(last_dups <= 2.0, "did not converge: {last_dups}");
        assert!(a.params.c2 > 3.0);
    }
}
