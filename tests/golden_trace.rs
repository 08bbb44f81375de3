//! Golden-file tests for the observability layer: the JSONL timeline of a
//! small deterministic scenario is pinned byte-for-byte, for a plain
//! single-drop run, a faulted (source-crash) variant and a rate-limited
//! lossy session; and the `report` table of every traced scenario is
//! pinned in `report_<scenario>.txt`.
//!
//! These pins are what makes the tracing layer trustworthy as a debugging
//! tool: if an instrumentation point moves, disappears, or changes its
//! payload — or if recording starts perturbing the protocol's RNG/timer
//! decisions — the golden bytes change and this test says so.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_trace
//! ```

use srm_experiments::trace_cmd::{run_traced, TRACE_SCENARIOS};
use std::path::PathBuf;

/// Compare `actual` against the pinned golden file `name` (with its
/// extension), or rewrite the pin when `GOLDEN_UPDATE=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run GOLDEN_UPDATE=1 cargo test --test golden_trace",
            path.display()
        )
    });
    if expected != actual {
        // Find the first diverging line for a readable failure.
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(
                || {
                    format!(
                        "line counts differ: golden {} vs actual {}",
                        expected.lines().count(),
                        actual.lines().count()
                    )
                },
                |i| {
                    format!(
                        "first difference at line {}:\n  golden: {}\n  actual: {}",
                        i + 1,
                        expected.lines().nth(i).unwrap_or(""),
                        actual.lines().nth(i).unwrap_or("")
                    )
                },
            );
        panic!(
            "{name} diverged from its golden file {}\n{mismatch}\n\
             If the change is intentional, regenerate with \
             GOLDEN_UPDATE=1 cargo test --test golden_trace",
            path.display()
        );
    }
}

#[test]
fn chain_drop_timeline_matches_golden() {
    let run = run_traced("chain-drop").expect("known scenario");
    assert_golden("chain_drop.jsonl", &run.timeline.to_jsonl());
}

#[test]
fn source_crash_timeline_matches_golden() {
    let run = run_traced("source-crash").expect("known scenario");
    let jsonl = run.timeline.to_jsonl();
    // The faulted variant must carry its fault window in the export.
    assert!(jsonl.contains("\"fault\":\"crash\""), "fault span missing");
    assert_golden("source_crash.jsonl", &jsonl);
}

/// The one pin on the agent's token bucket and send priorities (§III-E):
/// `scenarios/rate_limited_recovery.json` limits every member to 300 B/s,
/// so data queues at the source and requests and repairs wait behind it or
/// jump ahead of it. Dropping the limit, or reversing the queue's priority
/// order, moves this timeline.
#[test]
fn rate_limited_recovery_matches_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let text = std::fs::read_to_string(path.join("rate_limited_recovery.json")).expect("scenario");
    let scenario = srm_sim::Scenario::from_json(&text).expect("valid scenario");
    let (report, timeline) = srm_sim::run_with_trace(&scenario).expect("runs");
    assert_eq!(report.complete_receivers, report.members - 1);
    assert_golden("rate_limited_recovery.jsonl", &timeline.to_jsonl());
}

/// The issue's acceptance criterion, pinned at the tier-1 level: the traced
/// chain-drop scenario reconstructs a complete request→suppression→repair
/// chain whose timestamps are ordered.
#[test]
fn chain_drop_reconstructs_a_complete_recovery_chain() {
    let run = run_traced("chain-drop").expect("known scenario");
    let chains = run.timeline.chains();
    let c = chains
        .iter()
        .find(|c| c.is_complete())
        .unwrap_or_else(|| panic!("no complete chain in {chains:?}"));
    let repair = c.repair_at.expect("complete chain has a repair");
    let recovered = c.recovered_at.expect("complete chain has a recovery");
    assert!(c.detected_at <= c.request_at);
    assert!(c.request_at <= repair);
    assert!(repair <= recovered);
    assert!(!c.suppressed.is_empty(), "someone must have been suppressed");
    assert!(c.recovered_members >= 1);
    // And the rendering carries the complete-marker the CLI prints.
    assert!(c.render().ends_with("[complete]"));
}

/// The `report` table of every traced scenario: one row per counter name,
/// one column per member and the total, then the five histogram lines.
#[test]
fn every_scenario_report_matches_its_golden() {
    for name in TRACE_SCENARIOS {
        let run = run_traced(name).expect("known scenario");
        assert_golden(&format!("report_{}.txt", name.replace('-', "_")), &run.summary.render(name));
    }
}

/// Re-running a traced scenario yields identical bytes — the determinism
/// the golden files rely on.
#[test]
fn traced_runs_are_reproducible() {
    let a = run_traced("source-crash").unwrap().timeline.to_jsonl();
    let b = run_traced("source-crash").unwrap().timeline.to_jsonl();
    assert_eq!(a, b);
}
