//! Malformed `srm-sim` command lines: each row exits 2 at parse time,
//! before any scenario runs, with an error line that names the flag at
//! fault; `--help` prints the usage on stdout and exits 0. `srm-sim` has
//! no integer flag; its out-of-range integers live in the scenario file
//! and exit 1 (`spec::tests`).

use std::process::Command;

const SIM: &str = env!("CARGO_BIN_EXE_srm-sim");
const SCENARIO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/lossy_tree.json");

#[test]
fn malformed_srm_sim_command_lines_exit_2_and_name_the_flag() {
    let rows: &[(&[&str], &str)] = &[
        (&["--bogus", SCENARIO], "--bogus"),
        (&[SCENARIO, "--trace"], "--trace"),
        (&["--trace", "/dev/null", SCENARIO, SCENARIO], "--trace"),
        (&["--json"], "scenario"),
        (&[], "scenario"),
    ];
    for &(args, names) in rows {
        let out = Command::new(SIM).args(args).output().expect("srm-sim runs");
        let err = String::from_utf8_lossy(&out.stderr);
        let first = err.lines().next().unwrap_or("");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(first.starts_with("srm-sim: ") && first.contains(names), "{args:?}: {first:?}");
        assert!(err.contains("usage: srm-sim"), "{args:?}: no usage on stderr");
        assert!(out.stdout.is_empty(), "{args:?}: a scenario ran");
    }
    let out = Command::new(SIM).arg("--help").output().expect("srm-sim runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: srm-sim"));
    assert!(out.stderr.is_empty());
}
