//! Line-JSON control plane for the multi-session hub.
//!
//! One command per line, one reply per line — the grammar a shell script,
//! a test harness, or `bash /dev/tcp` redirection can speak without a
//! client library. Commands arrive on the hub binary's stdin or its local
//! TCP listener; both run [`serve`], so the two surfaces cannot drift
//! apart. What a peer can make the hub hold is bounded: a line is at most
//! [`MAX_LINE`] bytes and nests at most 32 arrays/objects deep.
//!
//! Grammar (flat JSON objects):
//!
//! ```text
//! {"cmd":"create","group":G,"peers":["IP:PORT",...],"id":N,"members":N,
//!  "rate":BYTES_PER_SEC,"burst":BYTES,"dist_ms":MS}   // error if G exists
//! {"cmd":"join", ...same fields...}                   // idempotent create
//! {"cmd":"send","group":G,"text":"...","count":N}     // publish N ADUs
//! {"cmd":"drain","group":G}                           // flush + detach G
//! {"cmd":"stats"}                                     // hub rollup snapshot
//! {"cmd":"stop"}                                      // drain all, shut down
//! ```
//!
//! Only `group` (and `text` for `send`) is required; everything else
//! defaults (`id` 1, `members` = peers+1, `count` 1, no quota). An `id`
//! must fit the envelope's 32-bit source field and a `count` lie in
//! 1..=100000; a value outside is an error reply naming the field, never
//! a silent clamp. Replies are JSON objects with a fixed key order and no
//! timestamps or ports, so a scripted session's reply stream is
//! byte-for-byte reproducible — the golden test pins it. `stats` is the
//! one deliberately non-pinned reply (its counters are live): its `hub`
//! object is [`TransportStats::counters`], the names a node's and a hub's
//! registry use, and each `groups` entry a
//! [`GroupStats`](crate::hub::GroupStats) row. Lines are read by
//! [`obs::json`], the workspace's one JSON parser.

use crate::hub::HubHandle;
use crate::runtime::TransportStats;
use obs::json::Json;
use std::io::{self, BufRead, Read as _, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};

/// The parsed-value type under the name this module has always exported.
pub use obs::json::Json as Jv;

/// Parse one JSON value, the error as text (`"... at byte N"`).
pub fn parse_json(input: &str) -> Result<Jv, String> {
    Json::parse(input).map_err(|e| e.to_string())
}

pub use obs::json_escape;

/// Everything needed to host one group: identity, mesh, quota, seeding.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// The multicast group id (the demux key).
    pub group: u32,
    /// Peer addresses for the unicast fan-out (may be empty: sole member).
    pub peers: Vec<SocketAddr>,
    /// The member id the hub's agent runs as in this group (default 1); it
    /// must fit the envelope's 32-bit source field.
    pub id: u64,
    /// Group size for the adaptive timer scaling (default peers + 1).
    pub members: usize,
    /// Token-bucket refill rate in bytes/sec; `None` disables the quota.
    pub rate: Option<f64>,
    /// Token-bucket depth in bytes (default `2 × rate`).
    pub burst: Option<f64>,
    /// Pre-seed every other member's distance estimate to this many
    /// milliseconds (assumed-converged state; live session messages refine
    /// it). `None` starts cold.
    pub dist_ms: Option<u64>,
}

/// One parsed control command.
#[derive(Clone, Debug)]
pub enum Command {
    /// Host a new group. `idempotent` is the `join` variant: re-creating
    /// an existing group reports `already:true` instead of an error.
    Create {
        /// The group to host.
        spec: GroupSpec,
        /// `join` (true) vs `create` (false) duplicate semantics.
        idempotent: bool,
    },
    /// Publish `count` ADUs of `text` on the group's page 0.
    Send {
        /// Target group.
        group: u32,
        /// ADU payload (suffixed with the index when `count > 1`).
        text: String,
        /// How many ADUs to publish.
        count: u32,
    },
    /// Gracefully drain one group: final session message, WAL flush,
    /// detach.
    Drain {
        /// Target group.
        group: u32,
    },
    /// Roll up per-group and hub-level counters.
    Stats,
    /// Drain every group and shut the hub down.
    Stop,
}

/// `name`'s value through `conv`: `Ok(None)` if absent, an error saying it
/// must be `what` if present but not convertible.
fn opt<'a, T>(
    o: &'a Json,
    name: &str,
    what: &str,
    conv: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    o.get(name)
        .map(|v| conv(v).ok_or_else(|| format!("`{name}` must be {what}")))
        .transpose()
}

fn need<T>(got: Option<T>, name: &str) -> Result<T, String> {
    got.ok_or_else(|| format!("missing field `{name}`"))
}

const INT: &str = "a non-negative integer";
const POSITIVE: &str = "a positive number";
/// The most ADUs one `send` publishes.
const MAX_COUNT: u64 = 100_000;

/// Parse one control line into a [`Command`].
pub fn parse_command(line: &str) -> Result<Command, String> {
    let o = parse_json(line)?;
    if o.as_obj().is_none() {
        return Err("not a JSON object".into());
    }
    let group = || {
        let g = opt(&o, "group", INT, |v| {
            v.as_u64().and_then(|n| u32::try_from(n).ok())
        })?;
        need(g, "group")
    };
    let cmd = need(opt(&o, "cmd", "a string", Json::as_str)?, "cmd")?;
    match cmd {
        "create" | "join" => {
            let group = group()?;
            let peers = opt(&o, "peers", "an array of addresses", |v| {
                v.as_arr()?
                    .iter()
                    .map(Json::as_str)
                    .collect::<Option<Vec<_>>>()
            })?
            .unwrap_or_default()
            .into_iter()
            .map(|s| {
                s.parse::<SocketAddr>()
                    .map_err(|_| format!("bad peer address `{s}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
            let id = opt(&o, "id", "an integer in 0..=4294967295", |v| {
                v.as_u64().filter(|&n| u32::try_from(n).is_ok())
            })?
            .unwrap_or(1);
            let members = opt(&o, "members", INT, Json::as_u64)?
                .map(|m| m as usize)
                .unwrap_or(peers.len() + 1)
                .max(1);
            let positive = |name| opt(&o, name, POSITIVE, |v| v.as_f64().filter(|n| *n > 0.0));
            Ok(Command::Create {
                spec: GroupSpec {
                    group,
                    peers,
                    id,
                    members,
                    rate: positive("rate")?,
                    burst: positive("burst")?,
                    dist_ms: opt(&o, "dist_ms", INT, Json::as_u64)?,
                },
                idempotent: cmd == "join",
            })
        }
        "send" => {
            let group = group()?;
            let text = need(opt(&o, "text", "a string", Json::as_str)?, "text")?.to_string();
            let count = opt(&o, "count", "an integer in 1..=100000", |v| {
                v.as_u64().filter(|n| (1..=MAX_COUNT).contains(n)).map(|n| n as u32)
            })?
            .unwrap_or(1);
            Ok(Command::Send { group, text, count })
        }
        "drain" => Ok(Command::Drain { group: group()? }),
        "stats" => Ok(Command::Stats),
        "stop" => Ok(Command::Stop),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

fn error_reply(e: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(e))
}

/// Execute one control line against a hub and format the one-line reply.
///
/// Every reply is a single JSON object with `ok` first; errors are
/// `{"ok":false,"error":"..."}`. The reply stream for a scripted session
/// is deterministic (no ports, clocks, or counters except in `stats`).
pub fn handle_line(hub: &HubHandle, line: &str) -> String {
    parse_command(line).map_or_else(|e| error_reply(&e), |cmd| execute(hub, cmd))
}

fn execute(hub: &HubHandle, cmd: Command) -> String {
    match cmd {
        Command::Create { spec, idempotent } => {
            let group = spec.group;
            let members = spec.members;
            match hub.create(spec, idempotent) {
                Ok(out) => {
                    if idempotent {
                        format!(
                            "{{\"ok\":true,\"cmd\":\"join\",\"group\":{},\"shard\":{},\"already\":{}}}",
                            group, out.shard, out.already
                        )
                    } else {
                        format!(
                            "{{\"ok\":true,\"cmd\":\"create\",\"group\":{},\"shard\":{},\"members\":{}}}",
                            group, out.shard, members
                        )
                    }
                }
                Err(e) => error_reply(&e),
            }
        }
        Command::Send { group, text, count } => match hub.send(group, &text, count) {
            Ok(last) => format!(
                "{{\"ok\":true,\"cmd\":\"send\",\"group\":{group},\"count\":{count},\"last\":\"{}\"}}",
                json_escape(&last)
            ),
            Err(e) => error_reply(&e),
        },
        Command::Drain { group } => match hub.drain(group) {
            Ok(row) => format!(
                "{{\"ok\":true,\"cmd\":\"drain\",\"group\":{group},\"data_sent\":{},\"delivered\":{}}}",
                row.agent_counter("data_sent"),
                row.delivered
            ),
            Err(e) => error_reply(&e),
        },
        Command::Stats => stats_reply(&hub.stats()),
        Command::Stop => {
            let drained = hub.drain_all();
            format!("{{\"ok\":true,\"cmd\":\"stop\",\"groups\":{}}}", drained.len())
        }
    }
}

/// `"name":value` for each entry of a counter row, comma-separated.
fn json_fields(row: &[(&str, u64)]) -> String {
    let pairs: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    pairs.join(",")
}

/// The `stats` reply: one JSON line, the transport counters in
/// [`TransportStats::counters`] order under `hub`, then every group's row
/// (sorted by id) with its agent's counters.
fn stats_reply(st: &TransportStats) -> String {
    let groups: Vec<String> = (st.groups.iter())
        .map(|g| {
            format!(
                "{{\"group\":{},\"shard\":{},\"members\":{},\"rx_frames\":{},\"tx_frames\":{},\
                 \"delivered\":{},{},\"quota_overflow\":{}}}",
                g.group,
                g.shard,
                g.members,
                g.rx_frames,
                g.tx_frames,
                g.delivered,
                json_fields(&g.agent),
                g.quota_overflow
            )
        })
        .collect();
    let hub = json_fields(&st.counters());
    format!("{{\"ok\":true,\"cmd\":\"stats\",\"hub\":{{{hub}}},\"groups\":[{}]}}", groups.join(","))
}

/// Longest control line [`serve`] reads into memory.
pub const MAX_LINE: usize = 64 * 1024;

/// Read one line of at most [`MAX_LINE`] bytes (newline included) into
/// `line`. `Ok(None)` at end of input; `Ok(Some(false))` for a longer line,
/// whose remainder is discarded up to its newline without being buffered.
fn read_line_bounded(input: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    line.clear();
    let n = input.by_ref().take(MAX_LINE as u64 + 1).read_until(b'\n', line)?;
    if n == 0 {
        return Ok(None);
    }
    if n <= MAX_LINE || line.ends_with(b"\n") {
        return Ok(Some(true));
    }
    loop {
        let buf = input.fill_buf()?;
        let (skip, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), buf.is_empty()),
        };
        input.consume(skip);
        if done {
            return Ok(Some(false));
        }
    }
}

/// Serve one control stream until end of input, a read error, or `quit`:
/// one reply line on `out` per non-blank input line (echoed to stderr
/// unless `quiet`). A `stop` command sets `quit` once its reply is written.
pub fn serve(
    hub: &HubHandle,
    mut input: impl BufRead,
    out: &mut dyn Write,
    quit: &AtomicBool,
    quiet: bool,
) {
    let mut line = Vec::new();
    while !quit.load(Ordering::Relaxed) {
        let mut stop = false;
        let reply = match read_line_bounded(&mut input, &mut line) {
            Ok(Some(true)) => match std::str::from_utf8(&line).map(str::trim) {
                Ok("") => continue,
                Ok(text) => {
                    let parsed = parse_command(text);
                    stop = matches!(parsed, Ok(Command::Stop));
                    parsed.map_or_else(|e| error_reply(&e), |cmd| execute(hub, cmd))
                }
                Err(_) => error_reply("invalid utf-8"),
            },
            Ok(Some(false)) => error_reply("line too long"),
            Ok(None) | Err(_) => return,
        };
        let _ = writeln!(out, "{reply}").and_then(|()| out.flush());
        if !quiet {
            eprintln!("srm-hub: {reply}");
        }
        if stop {
            quit.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_command_grammar() {
        let c = parse_command(
            r#"{"cmd":"create","group":7,"peers":["127.0.0.1:9000"],"id":2,"members":3,"rate":1000.5,"dist_ms":10}"#,
        )
        .unwrap();
        let Command::Create { spec, idempotent } = c else { panic!("not create") };
        assert!(!idempotent);
        assert_eq!(spec.group, 7);
        assert_eq!(spec.peers, vec!["127.0.0.1:9000".parse().unwrap()]);
        assert_eq!(spec.id, 2);
        assert_eq!(spec.members, 3);
        assert_eq!(spec.rate, Some(1000.5));
        assert_eq!(spec.burst, None);
        assert_eq!(spec.dist_ms, Some(10));

        let Command::Create { spec, idempotent } =
            parse_command(r#"{"cmd":"join","group":1}"#).unwrap()
        else {
            panic!("not join")
        };
        assert!(idempotent);
        assert_eq!(spec.members, 1, "sole member when no peers given");
        assert_eq!(spec.id, 1);

        let Command::Send { group, text, count } =
            parse_command(r#"{"cmd":"send","group":1,"text":"hi \"there\"","count":3}"#).unwrap()
        else {
            panic!("not send")
        };
        assert_eq!((group, text.as_str(), count), (1, "hi \"there\"", 3));

        assert!(matches!(parse_command(r#"{"cmd":"drain","group":4}"#), Ok(Command::Drain { group: 4 })));
        assert!(matches!(parse_command(r#"{"cmd":"stats"}"#), Ok(Command::Stats)));
        assert!(matches!(parse_command(r#"{"cmd":"stop"}"#), Ok(Command::Stop)));
    }

    #[test]
    fn rejects_malformed_commands_with_stable_messages() {
        assert_eq!(parse_command("garbage").unwrap_err(), "unexpected input at byte 0");
        assert_eq!(parse_command("not json").unwrap_err(), "bad literal at byte 0");
        assert_eq!(parse_command("[1,2]").unwrap_err(), "not a JSON object");
        assert_eq!(parse_command("{}").unwrap_err(), "missing field `cmd`");
        assert_eq!(
            parse_command(r#"{"cmd":"warp"}"#).unwrap_err(),
            "unknown cmd `warp`"
        );
        assert_eq!(
            parse_command(r#"{"cmd":"create"}"#).unwrap_err(),
            "missing field `group`"
        );
        assert_eq!(
            parse_command(r#"{"cmd":"create","group":-1}"#).unwrap_err(),
            "`group` must be a non-negative integer"
        );
        assert_eq!(
            parse_command(r#"{"cmd":"create","group":1,"peers":["nope"]}"#).unwrap_err(),
            "bad peer address `nope`"
        );
        assert_eq!(
            parse_command(r#"{"cmd":"send","group":1}"#).unwrap_err(),
            "missing field `text`"
        );
        // Out-of-range values name their field rather than being clamped
        // or cut to 32 bits.
        let count = "`count` must be an integer in 1..=100000";
        let id = "`id` must be an integer in 0..=4294967295";
        for (line, msg) in [
            (r#"{"cmd":"send","group":1,"text":"x","count":0}"#, count),
            (r#"{"cmd":"send","group":1,"text":"x","count":100001}"#, count),
            (r#"{"cmd":"create","group":1,"id":4294967296}"#, id),
            (r#"{"cmd":"join","group":1,"id":-1}"#, id),
        ] {
            assert_eq!(parse_command(line).unwrap_err(), msg, "{line}");
        }
        let largest = parse_command(r#"{"cmd":"send","group":1,"text":"x","count":100000}"#);
        assert!(matches!(largest, Ok(Command::Send { count: 100_000, .. })), "{largest:?}");
        let largest = parse_command(r#"{"cmd":"create","group":1,"id":4294967295}"#);
        assert!(matches!(largest, Ok(Command::Create { spec: GroupSpec { id: 4_294_967_295, .. }, .. })), "{largest:?}");
    }
}
