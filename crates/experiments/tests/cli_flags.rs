//! Malformed `srm-experiments` command lines: each row exits 2 at parse
//! time, before any simulation runs, with an error line that names the flag
//! at fault; `--help` prints the usage on stdout and exits 0. A table that
//! cannot be written under `--out` fails the run (exit 1) after the
//! remaining figures have run.

use std::process::Command;

const EXP: &str = env!("CARGO_BIN_EXE_srm-experiments");

#[test]
fn malformed_srm_experiments_command_lines_exit_2_and_name_the_flag() {
    let rows: &[(&[&str], &str)] = &[
        (&["list", "--threads", "abc"], "--threads"),
        (&["faults", "-j", "99999999999999999999999"], "--threads"),
        (&["faults", "-j"], "--threads"),
        (&["fig99"], "fig99"),
        (&["--bogus"], "--bogus"),
        (&["trace", "--scenario", "chain-drop", "--member", "x"], "--member"),
        (&["trace", "--scenario", "chain-drop", "--member", "-1"], "--member"),
        (&["trace", "--scenario", "nope"], "--scenario"),
        (&["trace"], "--scenario"),
        (&["trace", "-s", "chain-drop", "--bogus"], "--bogus"),
        (&["report", "-s", "nope"], "--scenario"),
        (&["monitor", "--validate"], "--monitor"),
        (&["monitor", "--stats"], "--stats"),
    ];
    for &(args, names) in rows {
        let out = Command::new(EXP).args(args).output().expect("srm-experiments runs");
        let err = String::from_utf8_lossy(&out.stderr);
        let first = err.lines().next().unwrap_or("");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(first.starts_with("srm-experiments: ") && first.contains(names), "{args:?}: {first:?}");
        assert!(err.contains("usage: srm-experiments"), "{args:?}: no usage on stderr");
        assert!(out.stdout.is_empty(), "{args:?}: something ran");
    }
    let out = Command::new(EXP).arg("--help").output().expect("srm-experiments runs");
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.starts_with("usage: srm-experiments"), "{usage}");
    assert!(usage.contains("chain-check") && usage.contains("partition-heal"), "{usage}");
    assert!(out.stderr.is_empty());
}

#[test]
fn an_unwritable_out_dir_fails_the_run_after_every_figure() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_flags_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("file");
    std::fs::write(&blocker, "a regular file, not a directory").unwrap();
    let out = Command::new(EXP)
        .args(["faults", "chain-check", "--quick", "-j", "1", "--out"])
        .arg(blocker.join("csv"))
        .output()
        .expect("srm-experiments runs");
    std::fs::remove_dir_all(&dir).unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("could not write faults_a.csv"), "{err}");
    assert!(err.contains("--- chain-check done"), "the figure after the failed write still ran: {err}");
    assert!(!out.stdout.is_empty(), "the tables still print");
}
