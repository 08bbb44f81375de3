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
//! defaults (`id` 1, `members` = peers+1, no quota). Replies are JSON
//! objects with a fixed key order and no timestamps or ports, so a
//! scripted session's reply stream is byte-for-byte reproducible — the
//! golden test pins it. `stats` is the one deliberately non-pinned reply
//! (its counters are live).
//!
//! The parser below is a deliberately minimal recursive-descent JSON
//! reader: the transport crate sits below the simulator's CLI (which owns
//! the repo's full JSON helper), and pulling a dependency edge upward for
//! thirty lines of parsing would invert the layering.

use crate::hub::HubHandle;
use std::io::{self, BufRead, Read as _, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};

/// A parsed JSON value (just enough of the grammar for the control plane).
#[derive(Clone, Debug, PartialEq)]
pub enum Jv {
    /// String.
    S(String),
    /// Number (always f64, as in JSON).
    N(f64),
    /// Boolean.
    B(bool),
    /// null.
    Null,
    /// Array.
    A(Vec<Jv>),
    /// Object, in source order.
    O(Vec<(String, Jv)>),
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level on a connection thread's stack and the input is
/// whatever a TCP peer sent, so the depth is bounded here; the control
/// grammar itself nests two deep.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Parse one array or object with `inner`, one level further down.
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Jv, String>) -> Result<Jv, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, s: &str, v: Jv) -> Result<Jv, String> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Jv, String> {
        self.ws();
        match self.peek() {
            Some(b'"') => Ok(Jv::S(self.string()?)),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b't') => self.lit("true", Jv::B(true)),
            Some(b'f') => self.lit("false", Jv::B(false)),
            Some(b'n') => self.lit("null", Jv::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let c = self.peek().ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Re-borrow from the byte after the opener: multi-byte
                    // UTF-8 sequences must survive intact.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.b.len() && self.b[end] != b'"' && self.b[end] != b'\\' {
                        end += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.b[start..end])
                            .map_err(|_| "invalid utf-8 in string")?,
                    );
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Jv, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Jv::N)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn array(&mut self) -> Result<Jv, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Jv::A(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Jv::A(items));
                }
                _ => return Err("expected `,` or `]` in array".into()),
            }
        }
    }

    fn object(&mut self) -> Result<Jv, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Jv::O(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Jv::O(fields));
                }
                _ => return Err("expected `,` or `}` in object".into()),
            }
        }
    }
}

/// Parse one JSON value from `input` (trailing whitespace allowed).
pub fn parse_json(input: &str) -> Result<Jv, String> {
    let mut p = Parser { b: input.as_bytes(), i: 0, depth: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

pub use obs::json_escape;

/// Everything needed to host one group: identity, mesh, quota, seeding.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// The multicast group id (the demux key).
    pub group: u32,
    /// Peer addresses for the unicast fan-out (may be empty: sole member).
    pub peers: Vec<SocketAddr>,
    /// The member id the hub's agent runs as in this group (default 1).
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

fn field<'a>(fields: &'a [(String, Jv)], name: &str) -> Option<&'a Jv> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn need_u32(fields: &[(String, Jv)], name: &str) -> Result<u32, String> {
    match field(fields, name) {
        Some(Jv::N(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => Ok(*n as u32),
        Some(_) => Err(format!("`{name}` must be a non-negative integer")),
        None => Err(format!("missing field `{name}`")),
    }
}

fn opt_u64(fields: &[(String, Jv)], name: &str) -> Result<Option<u64>, String> {
    match field(fields, name) {
        Some(Jv::N(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(_) => Err(format!("`{name}` must be a non-negative integer")),
        None => Ok(None),
    }
}

fn opt_f64(fields: &[(String, Jv)], name: &str) -> Result<Option<f64>, String> {
    match field(fields, name) {
        Some(Jv::N(n)) if *n > 0.0 => Ok(Some(*n)),
        Some(_) => Err(format!("`{name}` must be a positive number")),
        None => Ok(None),
    }
}

/// Parse one control line into a [`Command`].
pub fn parse_command(line: &str) -> Result<Command, String> {
    let Jv::O(fields) = parse_json(line)? else {
        return Err("not a JSON object".into());
    };
    let cmd = match field(&fields, "cmd") {
        Some(Jv::S(s)) => s.clone(),
        Some(_) => return Err("`cmd` must be a string".into()),
        None => return Err("missing field `cmd`".into()),
    };
    match cmd.as_str() {
        "create" | "join" => {
            let group = need_u32(&fields, "group")?;
            let mut peers = Vec::new();
            match field(&fields, "peers") {
                Some(Jv::A(items)) => {
                    for it in items {
                        let Jv::S(s) = it else {
                            return Err("`peers` must be an array of addresses".into());
                        };
                        peers.push(
                            s.parse::<SocketAddr>()
                                .map_err(|_| format!("bad peer address `{s}`"))?,
                        );
                    }
                }
                Some(_) => return Err("`peers` must be an array of addresses".into()),
                None => {}
            }
            let id = opt_u64(&fields, "id")?.unwrap_or(1);
            let members = opt_u64(&fields, "members")?
                .map(|m| m as usize)
                .unwrap_or(peers.len() + 1)
                .max(1);
            Ok(Command::Create {
                spec: GroupSpec {
                    group,
                    peers,
                    id,
                    members,
                    rate: opt_f64(&fields, "rate")?,
                    burst: opt_f64(&fields, "burst")?,
                    dist_ms: opt_u64(&fields, "dist_ms")?,
                },
                idempotent: cmd == "join",
            })
        }
        "send" => {
            let group = need_u32(&fields, "group")?;
            let text = match field(&fields, "text") {
                Some(Jv::S(s)) => s.clone(),
                Some(_) => return Err("`text` must be a string".into()),
                None => return Err("missing field `text`".into()),
            };
            let count = opt_u64(&fields, "count")?.unwrap_or(1).clamp(1, 100_000) as u32;
            Ok(Command::Send { group, text, count })
        }
        "drain" => Ok(Command::Drain { group: need_u32(&fields, "group")? }),
        "stats" => Ok(Command::Stats),
        "stop" => Ok(Command::Stop),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

/// Execute one control line against a hub and format the one-line reply.
///
/// Every reply is a single JSON object with `ok` first; errors are
/// `{"ok":false,"error":"..."}`. The reply stream for a scripted session
/// is deterministic (no ports, clocks, or counters except in `stats`).
pub fn handle_line(hub: &HubHandle, line: &str) -> String {
    let cmd = match parse_command(line) {
        Ok(c) => c,
        Err(e) => return format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(&e)),
    };
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
                Err(e) => format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(&e)),
            }
        }
        Command::Send { group, text, count } => match hub.send(group, &text, count) {
            Ok(last) => format!(
                "{{\"ok\":true,\"cmd\":\"send\",\"group\":{group},\"count\":{count},\"last\":\"{}\"}}",
                json_escape(&last)
            ),
            Err(e) => format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(&e)),
        },
        Command::Drain { group } => match hub.drain(group) {
            Ok(out) => format!(
                "{{\"ok\":true,\"cmd\":\"drain\",\"group\":{group},\"data_sent\":{},\"delivered\":{}}}",
                out.data_sent, out.delivered
            ),
            Err(e) => format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(&e)),
        },
        Command::Stats => hub.stats().to_json_line(),
        Command::Stop => {
            let drained = hub.drain_all();
            format!("{{\"ok\":true,\"cmd\":\"stop\",\"groups\":{}}}", drained.groups)
        }
    }
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
            Ok(Some(true)) => {
                let Ok(text) = std::str::from_utf8(&line) else { return };
                let text = text.trim();
                if text.is_empty() {
                    continue;
                }
                stop = matches!(parse_command(text), Ok(Command::Stop));
                handle_line(hub, text)
            }
            Ok(Some(false)) => "{\"ok\":false,\"error\":\"line too long\"}".to_string(),
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
    }

    #[test]
    fn json_roundtrips_escapes() {
        let v = parse_json(r#"{"a":"x\n\"y\"","b":[1,2.5,-3],"c":true,"d":null}"#).unwrap();
        let Jv::O(fields) = v else { panic!() };
        assert_eq!(field(&fields, "a"), Some(&Jv::S("x\n\"y\"".into())));
        assert_eq!(
            field(&fields, "b"),
            Some(&Jv::A(vec![Jv::N(1.0), Jv::N(2.5), Jv::N(-3.0)]))
        );
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // Escaped output parses back to the original.
        let s = "weird \"payload\"\twith\nnewlines";
        let line = format!("{{\"t\":\"{}\"}}", json_escape(s));
        let Jv::O(f) = parse_json(&line).unwrap() else { panic!() };
        assert_eq!(field(&f, "t"), Some(&Jv::S(s.into())));
    }

    /// The parser runs on a connection thread against bytes from a TCP
    /// peer: nesting is refused at a fixed depth instead of recursing until
    /// the stack ends (an abort, which no `catch_unwind` sees).
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| ["[".repeat(100_000), "{\"a\":".repeat(100_000)].map(|s| parse_json(&s)))
            .unwrap()
            .join()
            .unwrap();
        for got in parsed {
            assert_eq!(got.unwrap_err().split(" at byte").next(), Some("nesting deeper than 32"));
        }
        // The cap is on open containers, not on length.
        let at_cap = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_cap).is_ok());
        assert!(parse_json(&format!("[{at_cap}]")).is_err());
        assert!(parse_json(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
    }

    /// A string from outside the program (an OS error text, a decode
    /// reason) keeps its record on one line of the `--trace` stream.
    #[test]
    fn control_characters_stay_inside_one_jsonl_record() {
        let detail = "a\nb\t\u{1}\"\\";
        let mut tl = obs::Timeline::new();
        tl.add_transport(
            1,
            vec![obs::TransportRecord {
                at: netsim::SimTime::from_nanos(5),
                kind: obs::TransportEventKind::SocketError {
                    detail: detail.into(),
                    transient: true,
                },
                seq: 0,
            }],
        );
        let jsonl = tl.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1, "{jsonl:?}");
        let Jv::O(f) = parse_json(jsonl.trim_end()).unwrap() else { panic!() };
        assert_eq!(field(&f, "detail"), Some(&Jv::S(detail.into())));
    }

    #[test]
    fn parses_unicode_and_utf8_strings() {
        let Jv::O(f) = parse_json(r#"{"t":"café — ünïcode"}"#).unwrap() else { panic!() };
        assert_eq!(field(&f, "t"), Some(&Jv::S("café — ünïcode".into())));
    }
}
