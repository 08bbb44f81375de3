//! Malformed `srm-node` and `srm-hub` command lines: each row exits 2 at
//! parse time, before any socket or thread exists, with an error line that
//! names the flag at fault; `--help` prints the usage on stdout and exits 0.
//! Plus `srm-hub`'s exit line after a control session on stdin.

use std::io::Write;
use std::process::{Command, Stdio};

/// A row: the arguments, the exit code, and what the first stderr line
/// must name.
type Row<'a> = (&'a [&'a str], i32, &'a str);

/// Run every row against `bin` (the binary `name`).
fn check(bin: &str, name: &str, rows: &[Row]) {
    for &(args, code, names) in rows {
        let out = Command::new(bin).args(args).stdin(Stdio::null()).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        let first = err.lines().next().unwrap_or("");
        assert_eq!(out.status.code(), Some(code), "{name} {args:?}: {err}");
        assert!(first.starts_with(&format!("{name}: ")), "{name} {args:?}: {first:?}");
        assert!(first.contains(names), "{name} {args:?}: {first:?} does not name {names}");
        assert!(err.contains(&format!("usage: {name}")), "{name} {args:?}: no usage on stderr");
    }
}

/// `-h`/`--help` prints the usage on stdout, nothing on stderr, and exits 0.
fn help(bin: &str, name: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{name} {args:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with(&format!("usage: {name}")));
    assert!(out.stderr.is_empty(), "{name} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
}

const NODE: &str = env!("CARGO_BIN_EXE_srm-node");
const HUB: &str = env!("CARGO_BIN_EXE_srm-hub");
const JOIN: &[&str] = &["join", "--id", "1", "--bind", "127.0.0.1:0", "--peers", "127.0.0.1:9"];

fn join(extra: &[&'static str]) -> Vec<&'static str> {
    JOIN.iter().chain(extra).copied().collect()
}

#[test]
fn malformed_srm_node_command_lines_exit_2_and_name_the_flag() {
    let rows: &[(Vec<&str>, i32, &str)] = &[
        (join(&["--duration", "inf"]), 2, "--duration"),
        (join(&["--duration", "-1"]), 2, "--duration"),
        (join(&["--stats-interval", "inf"]), 2, "--stats-interval"),
        (join(&["--stats-interval", "0"]), 2, "--stats-interval"),
        (vec!["monitor", "--bind", "127.0.0.1:0", "--refresh", "nan"], 2, "--refresh"),
        (vec!["soak", "--secs", "inf"], 2, "--secs"),
        (vec!["soak", "--secs", "0.05"], 2, "--secs"),
        (vec!["soak", "--nodes", "17"], 2, "--nodes"),
        (vec!["soak", "--bogus"], 2, "--bogus"),
        (join(&["--bogus"]), 2, "--bogus"),
        (vec!["join", "--id"], 2, "--id"),
        (vec!["join", "--id", "abc"], 2, "--id"),
        (vec!["join", "--id", "4294967296", "--bind", "127.0.0.1:0", "--peers", "127.0.0.1:9"], 2, "--id"),
        (vec!["join", "--id", "1"], 2, "--bind"),
        (join(&["--store-cache", "0", "--store", "x"]), 2, "--store-cache"),
        (join(&["--fsync", "always"]), 2, "--store"),
        (join(&["--fsync", "sometimes", "--store", "x"]), 2, "--fsync"),
        (join(&["--mcast", "239.66.66.0:7400"]), 2, "--mcast"),
        (join(&["--chaos", "bogus"]), 2, "--chaos"),
        (join(&["--chaos", "reorder=1:infs"]), 2, "--chaos"),
        (vec!["send", "--id", "1", "--bind", "127.0.0.1:0", "--peers", "127.0.0.1:9"], 2, "--text"),
        (vec!["join", "--id", "1", "--bind", "127.0.0.1:0"], 2, "--peers"),
        (vec!["frob"], 2, "frob"),
        (vec![], 2, "command"),
    ];
    let rows: Vec<Row> = rows.iter().map(|(a, c, n)| (a.as_slice(), *c, *n)).collect();
    check(NODE, "srm-node", &rows);
    help(NODE, "srm-node", &["--help"]);
    help(NODE, "srm-node", &["soak", "-h"]);
}

#[test]
fn malformed_srm_hub_command_lines_exit_2_and_name_the_flag() {
    let b = "127.0.0.1:0";
    check(
        HUB,
        "srm-hub",
        &[
            (&["--bind", b, "--duration", "inf"], 2, "--duration"),
            (&["--bind", b, "--stats-interval", "inf"], 2, "--stats-interval"),
            (&["--bind", b, "--shards", "65"], 2, "--shards"),
            (&["--bind", b, "--shards", "0"], 2, "--shards"),
            (&["--bind", b, "--seed", "x"], 2, "--seed"),
            (&["--bind", b, "--control", "nowhere"], 2, "--control"),
            (&["--bind", b, "--bogus"], 2, "--bogus"),
            (&["--bind"], 2, "--bind"),
            (&[], 2, "--bind"),
        ],
    );
    help(HUB, "srm-hub", &["--help"]);
}

/// A group created and then drained by `stop` is counted in the exit
/// line's `groups_drained`, beside the transport counters under their
/// `TransportStats::counters` names.
#[test]
fn srm_hub_exit_line_counts_the_groups_stop_drained() {
    let mut hub = Command::new(HUB)
        .args(["--bind", "127.0.0.1:0", "--shards", "2", "--quiet", "--duration", "30"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = hub.stdin.take().expect("piped stdin");
    stdin.write_all(b"{\"cmd\":\"create\",\"group\":1}\n{\"cmd\":\"stop\"}\n").unwrap();
    drop(stdin);
    let out = hub.wait_with_output().expect("hub exits");
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains(r#"{"ok":true,"cmd":"stop","groups":1}"#), "{stdout}");
    let done = stderr.lines().find(|l| l.starts_with("srm-hub: done")).unwrap_or_else(|| panic!("{stderr}"));
    assert!(done.contains("groups_drained=1 "), "{done}");
    assert!(done.contains(" frames_attempted=") && done.contains(" max_sendq_len="), "{done}");
}
