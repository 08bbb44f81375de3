//! `srm-sim --json` output of every sample scenario in `scenarios/`, pinned
//! byte-for-byte in `tests/golden/srm_sim_<name>.json`.
//!
//! A scenario's report runs through the whole configuration path — the
//! scenario's `config` object, `SrmConfig` and the protocol constants (the
//! session-message schedule, hold-down, adaptive clamps, wb 1.59 intervals)
//! — so a change to any of them that moves a protocol decision shows here.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test scenario_goldens
//! ```

use srm_sim::{run, Scenario};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// What `srm-sim --json <path>` prints.
fn srm_sim_json(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let scenario =
        Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let report = run(&scenario).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    format!("{}\n", report.to_json())
}

#[test]
fn every_sample_scenario_matches_its_srm_sim_golden() {
    let update = std::env::var_os("GOLDEN_UPDATE").is_some_and(|v| v == "1");
    let mut scenarios: Vec<PathBuf> = std::fs::read_dir(root().join("scenarios"))
        .expect("scenarios dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    scenarios.sort();
    assert!(scenarios.len() >= 6, "sample scenarios present ({})", scenarios.len());
    let mut diverged = Vec::new();
    for path in &scenarios {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let golden = root().join(format!("tests/golden/srm_sim_{stem}.json"));
        let actual = srm_sim_json(path);
        if update {
            std::fs::write(&golden, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run GOLDEN_UPDATE=1 cargo test --test scenario_goldens",
                golden.display()
            )
        });
        if expected != actual {
            let line = expected
                .lines()
                .zip(actual.lines())
                .position(|(e, a)| e != a)
                .map_or(expected.lines().count().min(actual.lines().count()), |i| i);
            diverged.push(format!(
                "{stem}: first difference at line {}:\n  golden: {}\n  actual: {}",
                line + 1,
                expected.lines().nth(line).unwrap_or(""),
                actual.lines().nth(line).unwrap_or("")
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "srm-sim --json diverged from its golden files:\n{}\n\
         If the change is intentional, regenerate with \
         GOLDEN_UPDATE=1 cargo test --test scenario_goldens",
        diverged.join("\n")
    );
}
