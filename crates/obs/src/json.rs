//! The workspace's one JSON reader: a small, dependency-free tree with a
//! depth-capped parser, a pretty printer and typed accessors, beside the
//! one escaper ([`json_escape`]).
//!
//! It reads the hub's control lines (bytes from a TCP peer), `srm-sim`
//! scenario files and the monitor/stats digests, so it is total: every
//! input yields a value or a [`JsonError`] carrying its byte offset, never
//! a panic. Full JSON syntax (objects in insertion order, `f64` numbers,
//! `\u` escapes with UTF-16 surrogate pairs); RFC 8259's four whitespace
//! bytes; non-finite numbers such as `1e999` refused.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    B(bool),
    /// Any JSON number (stored as `f64`, always finite).
    N(f64),
    /// A string.
    S(String),
    /// An array.
    A(Vec<Json>),
    /// An object, in insertion order.
    O(Vec<(String, Json)>),
}

/// A syntax error with its byte offset.
#[derive(Clone, Debug)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one complete JSON value (surrounding whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }

    /// Render with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// The object's entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::O(m) => Some(m),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::A(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::S(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::N(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::B(b) => Some(*b),
            _ => None,
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::B(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::N(n) => out.push_str(&format_num(*n)),
            Json::S(s) => write_escaped(out, s),
            Json::A(v) => {
                if v.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    e.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::O(m) => {
                if m.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Integers print without a fraction; everything else uses shortest-`{}`.
fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

/// Escape `s` for embedding in a JSON string literal. Every control
/// character is escaped, so a string from outside the program (an OS error
/// message, a decode reason) cannot break a one-record-per-line stream.
/// The workspace's one escaper: the JSONL exports, the hub's control
/// replies and [`Json::pretty`] all call it.
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Deepest array/object nesting the parser accepts. It recurses once per
/// level, on a connection thread's stack when the input is a control line
/// from a TCP peer; every format the workspace reads nests far less.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// The code unit spelled by exactly four hex digits (no sign).
fn hex4(digits: &[u8]) -> Option<u32> {
    digits
        .iter()
        .try_fold(0, |n, &d| Some(n * 16 + char::from(d).to_digit(16)?))
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.i,
        }
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    /// Parse one array or object with `inner`, one level further down.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.ws();
        match self.peek() {
            Some(b'"') => self.string().map(Json::S),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b't') => self.literal("true", Json::B(true)),
            Some(b'f') => self.literal("false", Json::B(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        self.i += 1;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::N)
            .ok_or(JsonError {
                msg: "bad number".into(),
                at: start,
            })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy a run up to the next quote or backslash at once. Runs
            // start and end next to ASCII bytes, so one never splits a
            // UTF-8 sequence, and each byte is validated once.
            let run = self.i;
            while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.b[run..self.i])
                .map_err(|_| self.err("invalid utf-8 in string"))?;
            out.push_str(text);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape spells; the backslash is behind us.
    fn escape(&mut self) -> Result<char, JsonError> {
        let e = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        let c = match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                self.i += 1;
                return self.unicode_escape();
            }
            other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
        };
        self.i += 1;
        Ok(c)
    }

    /// `\uXXXX`, the `\u` behind us. A high surrogate escaped right before
    /// a low one is one character outside the BMP, as UTF-16 spells it; a
    /// lone surrogate is not a character and reads as U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let digits = self
            .b
            .get(self.i..self.i + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hi = hex4(digits).ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        if (0xD800..0xDC00).contains(&hi) {
            let lo = self
                .b
                .get(self.i..self.i + 6)
                .filter(|e| e.starts_with(b"\\u"))
                .and_then(|e| hex4(&e[2..]))
                .filter(|lo| (0xDC00..0xE000).contains(lo));
            if let Some(lo) = lo {
                self.i += 6;
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::A(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::A(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::O(fields));
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
                    return Ok(Json::O(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn err(s: &str) -> String {
        Json::parse(s).unwrap_err().to_string()
    }

    fn ok(s: &str) -> Json {
        Json::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"))
    }

    #[test]
    fn parses_every_value_kind() {
        let v = Json::parse(
            r#" {"a": [1, -2.5, 1e3], "b": "x\"\\\nA", "c": true, "d": null, "e": {}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"\\\nA"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_obj().unwrap().len(), 0);
        let b = Json::parse(r#"{"b":[1,2.5,-3]}"#).unwrap();
        assert_eq!(
            b.get("b"),
            Some(&Json::A(vec![Json::N(1.0), Json::N(2.5), Json::N(-3.0)]))
        );
    }

    /// The control plane's replies pin the first two wordings (its golden
    /// transcript and `rejects_malformed_commands_with_stable_messages`).
    #[test]
    fn malformed_input_is_an_error_with_its_byte_offset() {
        assert_eq!(err("garbage"), "unexpected input at byte 0");
        assert_eq!(err("not json"), "bad literal at byte 0");
        assert_eq!(err(""), "unexpected input at byte 0");
        assert_eq!(err("1 2"), "trailing input at byte 2");
        assert_eq!(err("[1,]"), "unexpected input at byte 3");
        assert_eq!(err(r#"{"a"}"#), "expected `:` at byte 4");
        assert_eq!(err(r#""x"#), "unterminated string at byte 2");
        assert_eq!(err(r#""\x""#), "bad escape `\\x` at byte 2");
        assert_eq!(err("-"), "bad number at byte 0");
        for bad in [
            "{",
            "{\"a\":1,}",
            "[1 2]",
            "{1:2}",
            "\"\\",
            "tru",
            "1e",
            "--1",
            "\u{b}1",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // RFC 8259's whitespace is exactly space, tab, LF and CR.
        assert!(Json::parse(" \t\r\n1 \t\r\n").is_ok());
        assert!(Json::parse("\u{c}1").is_err());
    }

    /// The parser runs on a connection thread against bytes from a TCP
    /// peer: nesting is refused at a fixed depth instead of recursing until
    /// the stack ends (an abort, which no `catch_unwind` sees).
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| ["[".repeat(100_000), "{\"a\":".repeat(100_000)].map(|s| Json::parse(&s)))
            .unwrap()
            .join()
            .unwrap();
        let arrays = parsed[0].as_ref().unwrap_err();
        assert_eq!(
            (arrays.msg.as_str(), arrays.at),
            ("nesting deeper than 32", 32)
        );
        assert_eq!(
            parsed[1].as_ref().unwrap_err().msg,
            "nesting deeper than 32"
        );
        // The cap is on open containers, not on length.
        let at_cap = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        assert!(Json::parse(&format!("[{at_cap}]")).is_err());
        assert!(Json::parse(&format!("[{}]", vec!["[[]]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn pretty_roundtrips() {
        let src = r#"{"topology": {"kind": "chain", "n": 12}, "list": [1, 2], "f": 2.25, "s": "hi", "empty": [], "flag": false}"#;
        let v = Json::parse(src).unwrap();
        let again = Json::parse(&v.pretty()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::N(3.0).pretty(), "3");
        assert_eq!(Json::N(-7.0).pretty(), "-7");
        assert_eq!(Json::N(2.5).pretty(), "2.5");
    }

    #[test]
    fn u64_accessor_is_exact() {
        assert_eq!(Json::N(5.0).as_u64(), Some(5));
        assert_eq!(Json::N(5.5).as_u64(), None);
        assert_eq!(Json::N(-1.0).as_u64(), None);
    }

    #[test]
    fn escapes_roundtrip() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        let s = "weird \"payload\"\twith\nnewlines\u{0}";
        let line = format!("{{\"t\":\"{}\"}}", json_escape(s));
        assert_eq!(
            Json::parse(&line).unwrap().get("t"),
            Some(&Json::S(s.into()))
        );
        assert_eq!(ok(r#""\/\b\f\rAé""#), Json::S("/\u{8}\u{c}\rAé".into()));
    }

    #[test]
    fn utf8_strings_survive_intact() {
        let v = ok(r#"{"t":"café — ünïcode 😀"}"#);
        assert_eq!(v.get("t"), Some(&Json::S("café — ünïcode 😀".into())));
    }

    /// Python's `json.dumps` (ASCII output by default) sends a character
    /// outside the BMP as a surrogate pair.
    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(ok(r#""\ud83d\ude00""#), Json::S("😀".into()));
        assert_eq!(ok(r#""\uD83D\uDE00!""#), Json::S("😀!".into()));
        // A lone surrogate, either half, is one U+FFFD; what follows it
        // stands on its own.
        assert_eq!(ok(r#""\ud83d""#), Json::S("\u{fffd}".into()));
        assert_eq!(ok(r#""\ude00x""#), Json::S("\u{fffd}x".into()));
        assert_eq!(ok(r#""\ud83dA""#), Json::S("\u{fffd}A".into()));
        assert_eq!(ok(r#""\ud83d\ud83d\ude00""#), Json::S("\u{fffd}😀".into()));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(ok(r#""\u0041""#), Json::S("A".into()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u00g1""#] {
            assert_eq!(err(bad), "bad \\u escape at byte 3", "{bad}");
        }
        assert_eq!(err(r#""\u004"#), "truncated \\u escape at byte 3");
    }

    #[test]
    fn non_finite_numbers_are_refused() {
        assert_eq!(err(r#"{"rate":1e999}"#), "bad number at byte 8");
        assert_eq!(err("-1e999"), "bad number at byte 0");
        assert_eq!(Json::parse("1e308").unwrap(), Json::N(1e308));
    }

    /// A string from outside the program (an OS error text, a decode
    /// reason) keeps its record on one line of the `--trace` stream.
    #[test]
    fn control_characters_stay_inside_one_jsonl_record() {
        let detail = "a\nb\t\u{1}\"\\";
        let mut tl = crate::Timeline::new();
        tl.add_transport(
            1,
            vec![crate::TransportRecord {
                at: netsim::SimTime::from_nanos(5),
                kind: crate::TransportEventKind::SocketError {
                    detail: detail.into(),
                    transient: true,
                },
                seq: 0,
            }],
        );
        let jsonl = tl.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1, "{jsonl:?}");
        let v = Json::parse(jsonl.trim_end()).unwrap();
        assert_eq!(v.get("detail"), Some(&Json::S(detail.into())));
    }

    /// One line the way control replies and JSONL records are written:
    /// `json_escape` inside quotes, numbers through `{}`.
    fn compact(v: &Json) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        match v {
            Json::Null => "null".into(),
            Json::B(b) => b.to_string(),
            Json::N(n) => n.to_string(),
            Json::S(s) => format!("\"{}\"", json_escape(s)),
            Json::A(items) => format!("[{}]", join(items.iter().map(compact).collect())),
            Json::O(fields) => format!(
                "{{{}}}",
                join(
                    fields
                        .iter()
                        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), compact(v)))
                        .collect()
                )
            ),
        }
    }

    /// Characters a JSON writer or reader gets wrong: quotes, backslashes,
    /// control characters, multi-byte and non-BMP ones.
    const AWKWARD: &[char] = &[
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'u',
        ' ',
        'é',
        '—',
        '\u{fffd}',
        '😀',
        '\u{10ffff}',
    ];

    fn text() -> impl Strategy<Value = String> {
        let c = prop_oneof![
            3 => any::<prop::sample::Index>().prop_map(|i| AWKWARD[i.index(AWKWARD.len())]),
            1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('x')),
        ];
        prop::collection::vec(c, 0..8).prop_map(|cs| cs.into_iter().collect())
    }

    fn number() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-1000i64..1000).prop_map(|n| n as f64),
            -1e6..1e6f64,
            any::<u64>().prop_map(|bits| Some(f64::from_bits(bits))
                .filter(|n| n.is_finite())
                .unwrap_or(0.5)),
        ]
    }

    /// Trees at most `depth` containers deep.
    fn tree(depth: u32) -> BoxedStrategy<Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::B),
            number().prop_map(Json::N),
            text().prop_map(Json::S),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        prop_oneof![
            2 => leaf,
            1 => prop::collection::vec(tree(depth - 1), 0..4).prop_map(Json::A),
            1 => prop::collection::vec((text(), tree(depth - 1)), 0..4).prop_map(Json::O),
        ]
        .boxed()
    }

    /// Bytes biased toward JSON's own punctuation, so inputs get past the
    /// first byte.
    fn jsonish_bytes() -> impl Strategy<Value = Vec<u8>> {
        const PUNCT: &[u8] = b"{}[]\",:\\/u0123456789abcdefABCDEF-+.eEtrulsn \t\r\n";
        let b = prop_oneof![
            any::<u8>(),
            any::<prop::sample::Index>().prop_map(|i| PUNCT[i.index(PUNCT.len())]),
        ];
        prop::collection::vec(b, 0..96)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in jsonish_bytes()) {
            let s = String::from_utf8_lossy(&bytes);
            match Json::parse(&s) {
                Err(e) => prop_assert!(e.at <= s.len(), "{e} past the end of {} bytes", s.len()),
                Ok(v) => prop_assert_eq!(Json::parse(&v.pretty()).ok(), Some(v)),
            }
        }

        #[test]
        fn trees_roundtrip_through_pretty_and_a_compact_line(v in tree(8)) {
            prop_assert_eq!(Json::parse(&v.pretty()).ok(), Some(v.clone()));
            let line = compact(&v);
            prop_assert!(!line.contains('\n'), "{line:?}");
            prop_assert_eq!(Json::parse(&line).ok(), Some(v));
        }
    }
}
