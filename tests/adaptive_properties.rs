//! Property tests on the adaptive timer algorithm: under *any* interleaving
//! of period boundaries, duplicates, sends, delay reports, and
//! far-duplicate observations, the parameters stay inside their clamps and
//! the running averages stay finite and non-negative.

use proptest::prelude::*;
use srm::adaptive::{AdaptiveTimers, MAX_C1, MAX_C2, MIN_C1, MIN_C2};
use srm::{AduName, PageId, SeqNo, SourceId, TimerParams};

#[derive(Clone, Debug)]
enum Ev {
    NewPeriod(u64),
    Dup,
    Sent,
    Delay(f64),
    FarDup(f64, f64),
    RepPeriod(u64),
    RepDup,
    RepSent,
    RepDelay(f64),
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u64..40).prop_map(Ev::NewPeriod),
        Just(Ev::Dup),
        Just(Ev::Sent),
        (0.0f64..20.0).prop_map(Ev::Delay),
        (0.0f64..10.0, 0.01f64..10.0).prop_map(|(a, b)| Ev::FarDup(a, b)),
        (0u64..40).prop_map(Ev::RepPeriod),
        Just(Ev::RepDup),
        Just(Ev::RepSent),
        (0.0f64..20.0).prop_map(Ev::RepDelay),
    ]
}

fn item(q: u64) -> AduName {
    AduName::new(SourceId(1), PageId::new(SourceId(1), 0), SeqNo(q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parameters_always_clamped(
        events in prop::collection::vec(arb_event(), 0..400),
        c1_0 in 0.5f64..2.0,
        c2_0 in 1.0f64..64.0,
    ) {
        let mut a = AdaptiveTimers::new(TimerParams {
            c1: c1_0,
            c2: c2_0,
            d1: c1_0,
            d2: c2_0,
        });
        for e in events {
            match e {
                Ev::NewPeriod(q) => a.on_request_timer_set(item(q)),
                Ev::Dup => a.on_duplicate_request(),
                Ev::Sent => a.on_request_sent(),
                Ev::Delay(d) => a.on_request_delay(d),
                Ev::FarDup(t, o) => { a.on_far_duplicate_request(t, o); }
                Ev::RepPeriod(q) => a.on_repair_timer_set(item(q)),
                Ev::RepDup => a.on_duplicate_repair(),
                Ev::RepSent => a.on_repair_sent(),
                Ev::RepDelay(d) => a.on_repair_delay(d),
            }
            let p = a.params;
            prop_assert!(p.c1 >= MIN_C1 - 1e-9 && p.c1 <= MAX_C1 + 1e-9, "C1={}", p.c1);
            prop_assert!(p.c2 >= MIN_C2 - 1e-9 && p.c2 <= MAX_C2 + 1e-9, "C2={}", p.c2);
            prop_assert!(p.d1 >= MIN_C1 - 1e-9 && p.d1 <= MAX_C1 + 1e-9, "D1={}", p.d1);
            prop_assert!(p.d2 >= MIN_C2 - 1e-9 && p.d2 <= MAX_C2 + 1e-9, "D2={}", p.d2);
            prop_assert!(a.ave_dup_req().is_finite() && a.ave_dup_req() >= 0.0);
            prop_assert!(a.ave_req_delay().is_finite() && a.ave_req_delay() >= 0.0);
            prop_assert!(a.ave_dup_rep().is_finite() && a.ave_dup_rep() >= 0.0);
            prop_assert!(a.ave_rep_delay().is_finite() && a.ave_rep_delay() >= 0.0);
        }
    }

    /// Sustained duplicate pressure always widens C2; sustained quiet with
    /// high delay always narrows it (monotone responses).
    #[test]
    fn monotone_response_to_pressure(rounds in 5usize..60) {
        let mut noisy = AdaptiveTimers::new(TimerParams {
            c1: 1.0, c2: 5.0, d1: 1.0, d2: 5.0,
        });
        for q in 0..rounds as u64 {
            noisy.on_request_timer_set(item(q));
            for _ in 0..6 { noisy.on_duplicate_request(); }
        }
        prop_assert!(noisy.params.c2 > 5.0, "dups widen C2: {}", noisy.params.c2);

        let mut quiet = AdaptiveTimers::new(TimerParams {
            c1: 1.0, c2: 5.0, d1: 1.0, d2: 5.0,
        });
        for q in 0..rounds as u64 {
            quiet.on_request_timer_set(item(q));
            quiet.on_request_delay(3.0);
        }
        prop_assert!(quiet.params.c2 < 5.0, "delay narrows C2: {}", quiet.params.c2);
    }
}
