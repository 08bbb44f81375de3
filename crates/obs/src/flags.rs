//! The workspace's one command-line parser, beside [`crate::json`], its one
//! JSON parser.
//!
//! A binary describes each subcommand as one static table of [`Flag`]s.
//! [`Cli::run`] splits the process's arguments into a [`Parsed`] set of raw
//! values, and the binary's `main` reads them with [`Parsed::get`] and
//! [`Parsed::opt`] and a typed reader ([`int`], [`secs`], [`positive_secs`],
//! [`addr`]) before it starts any work. The usage text is generated from
//! the same tables, so an accepted flag is always a documented one.
//!
//! Exit codes: 0 ok, 1 runtime failure, 2 usage. On an [`Error::Usage`]
//! the binary prints `<bin>: <message naming the flag>` and the usage on
//! stderr and exits 2; `-h`/`--help` prints the usage on stdout and exits 0.

use std::fmt::{Debug, Write as _};
use std::net::SocketAddr;
use std::ops::RangeBounds;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// How a flag takes its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Present or absent: `--quiet`.
    Switch,
    /// One value, named in the usage by the string; given twice, the last
    /// one counts.
    Value(&'static str),
    /// A value that may be given many times: `--text A --text B`.
    Repeat(&'static str),
    /// Bare words that are not flags: file names, figure ids.
    Positional,
}

/// One row of a subcommand's flag table.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// `--name`; for [`Kind::Positional`], the placeholder the usage shows.
    name: &'static str,
    /// The one-dash alias, e.g. `-s`.
    short: Option<&'static str>,
    /// How the flag takes its value.
    kind: Kind,
    /// The value a typed read sees when the flag is absent.
    default: Option<&'static str>,
    /// One line for the usage.
    help: &'static str,
}

impl Flag {
    const fn new(name: &'static str, kind: Kind, help: &'static str) -> Flag {
        Flag { name, short: None, kind, default: None, help }
    }

    /// A [`Kind::Switch`].
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Switch, help)
    }

    /// A [`Kind::Value`] whose value the usage calls `meta`.
    pub const fn value(name: &'static str, meta: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Value(meta), help)
    }

    /// A [`Kind::Repeat`] whose values the usage calls `meta`.
    pub const fn repeat(name: &'static str, meta: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Repeat(meta), help)
    }

    /// The command's [`Kind::Positional`] words, shown as `name...`.
    pub const fn positional(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Positional, help)
    }

    /// With a one-dash alias.
    pub const fn short(self, short: &'static str) -> Flag {
        Flag { short: Some(short), ..self }
    }

    /// With a default value.
    pub const fn default(self, default: &'static str) -> Flag {
        Flag { default: Some(default), ..self }
    }
}

/// One subcommand: the words that select it and its flag table.
#[derive(Debug)]
pub struct Command {
    /// `|`-separated words (`"join|send"`), or `""` for the command that
    /// runs when the first argument is no command word.
    pub name: &'static str,
    /// One line for the usage.
    pub about: &'static str,
    /// The flag table.
    pub flags: &'static [Flag],
}

/// A binary's whole command line.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name, the prefix of every error line.
    pub bin: &'static str,
    /// Its subcommands.
    pub commands: &'static [Command],
    /// Text printed after the flag tables (lists known only at run time,
    /// control verbs); `String::new` for none.
    pub footer: fn() -> String,
}

/// Why a command line was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// `-h` or `--help`: print the usage and exit 0.
    Help,
    /// A malformed command line; the message names the flag. Exit 2.
    Usage(String),
}

impl Cli {
    /// Split `args` (without the program name) into the subcommand and its
    /// flag values. Values are checked only by the typed reads.
    fn parse<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Parsed, Error> {
        let mut args = args.into_iter().peekable();
        let first = args.peek().cloned().unwrap_or_default();
        let cmd = |word: &str| {
            self.commands.iter().find(|c| c.name.split('|').any(|w| w == word))
        };
        let (command, cmd) = match cmd(&first) {
            _ if first == "-h" || first == "--help" => return Err(Error::Help),
            Some(c) if !first.is_empty() => (args.next().unwrap_or_default(), c),
            _ => match cmd("") {
                Some(c) => (String::new(), c),
                None if first.is_empty() => return Err(Error::Usage("missing command".into())),
                None => return Err(Error::Usage(format!("unknown command {first:?}"))),
            },
        };
        let mut values = vec![Vec::new(); cmd.flags.len()];
        while let Some(a) = args.next() {
            if a == "-h" || a == "--help" {
                return Err(Error::Help);
            }
            let is_flag = a.len() > 1 && a.starts_with('-');
            let Some(i) = cmd.flags.iter().position(|f| {
                if is_flag {
                    f.kind != Kind::Positional && (f.name == a || f.short == Some(a.as_str()))
                } else {
                    f.kind == Kind::Positional
                }
            }) else {
                let what = if is_flag { "unknown flag" } else { "unexpected argument" };
                return Err(Error::Usage(format!("{what} {a:?}")));
            };
            let v = match cmd.flags[i].kind {
                Kind::Value(_) | Kind::Repeat(_) => args
                    .next()
                    .ok_or_else(|| Error::Usage(format!("{} needs a value", cmd.flags[i].name)))?,
                Kind::Switch | Kind::Positional => a,
            };
            values[i].push(v);
        }
        Ok(Parsed { command, flags: cmd.flags, values })
    }

    /// The usage text, generated from the tables.
    fn usage(&self) -> String {
        let mut s = String::new();
        for c in self.commands {
            let word = if c.name.is_empty() { String::new() } else { format!(" {}", c.name) };
            let pos = c.flags.iter().find(|f| f.kind == Kind::Positional);
            let pos = pos.map(|f| format!(" {}...", f.name)).unwrap_or_default();
            let _ = writeln!(s, "usage: {}{word} [flags]{pos}", self.bin);
            if !c.about.is_empty() {
                let _ = writeln!(s, "  {}", c.about);
            }
            for f in c.flags {
                let mut label = match f.kind {
                    Kind::Positional => format!("{}...", f.name),
                    _ => f.name.to_string(),
                };
                if let Some(short) = f.short {
                    let _ = write!(label, ", {short}");
                }
                if let Kind::Value(meta) | Kind::Repeat(meta) = f.kind {
                    let _ = write!(label, " {meta}");
                }
                let again = if matches!(f.kind, Kind::Repeat(_)) { " (repeatable)" } else { "" };
                let default = f.default.map(|d| format!(" (default {d})")).unwrap_or_default();
                let _ = writeln!(s, "    {label:<22} {}{again}{default}", f.help);
            }
        }
        let footer = (self.footer)();
        if !footer.is_empty() {
            let _ = writeln!(s, "\n{}", footer.trim_end());
        }
        s
    }

    /// Act on `e`: the usage on stdout and exit 0 for [`Error::Help`], the
    /// message and the usage on stderr and exit 2 otherwise.
    fn exit(&self, e: Error) -> ! {
        match e {
            Error::Help => {
                print!("{}", self.usage());
                std::process::exit(0)
            }
            Error::Usage(msg) => {
                eprintln!("{}: {msg}", self.bin);
                eprint!("{}", self.usage());
                std::process::exit(2)
            }
        }
    }

    /// Parse the process's own arguments and run `main` on them; on an
    /// [`Error`] from either, print it with the usage and exit 0 or 2. `main` reads
    /// every flag before it starts work, so a malformed flag exits before
    /// any socket or thread exists.
    pub fn run<T>(&self, main: impl FnOnce(&Parsed) -> Result<T, Error>) -> T {
        self.parse(std::env::args().skip(1))
            .and_then(|p| main(&p))
            .unwrap_or_else(|e| self.exit(e))
    }
}

/// A parsed command line: the subcommand word and each flag's raw values.
#[derive(Debug)]
pub struct Parsed {
    command: String,
    flags: &'static [Flag],
    values: Vec<Vec<String>>,
}

impl Parsed {
    /// The subcommand word as given (`"send"` for `join|send`), or `""`.
    pub fn command(&self) -> &str {
        &self.command
    }

    fn slot(&self, name: &str) -> (&Flag, &[String]) {
        let i = self.flags.iter().position(|f| f.name == name);
        let i = i.unwrap_or_else(|| panic!("{name} is not in this command's flag table"));
        (&self.flags[i], &self.values[i])
    }

    /// Whether the flag was given.
    pub fn on(&self, name: &str) -> bool {
        !self.slot(name).1.is_empty()
    }

    /// Every value of a repeatable flag or of the positionals, in order.
    pub fn all(&self, name: &str) -> &[String] {
        self.slot(name).1
    }

    /// The flag's last value, else its default.
    pub fn str(&self, name: &str) -> Option<&str> {
        let (f, v) = self.slot(name);
        v.last().map(String::as_str).or(f.default)
    }

    /// The flag's value (else its default) read by `read`, or `None`.
    pub fn opt<T>(&self, name: &str, read: impl FnOnce(&str) -> Result<T, String>) -> Result<Option<T>, Error> {
        self.str(name)
            .map(|s| read(s).map_err(|msg| Error::Usage(format!("{name}: {msg}"))))
            .transpose()
    }

    /// The flag's value (else its default) read by `read`; a flag with
    /// neither is required.
    pub fn get<T>(&self, name: &str, read: impl FnOnce(&str) -> Result<T, String>) -> Result<T, Error> {
        self.opt(name, read)?.ok_or_else(|| Error::Usage(format!("{name} is required")))
    }
}

/// Read an integer within `range` (`..` for any).
pub fn int<T, R>(range: R) -> impl FnOnce(&str) -> Result<T, String>
where
    T: FromStr + PartialOrd + Debug,
    R: RangeBounds<T> + Debug,
{
    move |s| match s.parse::<T>() {
        Ok(n) if range.contains(&n) => Ok(n),
        Ok(_) => Err(format!("must be in {range:?}, got {s}")),
        Err(_) => Err(format!("expected an integer, got {s:?}")),
    }
}

/// Read seconds: finite, not negative, and short enough that a deadline
/// that far from now exists.
pub fn secs(s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|v| Duration::try_from_secs_f64(*v).is_ok_and(|d| Instant::now().checked_add(d).is_some()))
        .ok_or_else(|| format!("expected seconds (finite, not negative), got {s:?}"))
}

/// Read seconds as [`secs`] does, and above zero.
pub fn positive_secs(s: &str) -> Result<f64, String> {
    secs(s)
        .ok()
        .filter(|v| *v > 0.0)
        .ok_or_else(|| format!("expected positive seconds, got {s:?}"))
}

/// Read a socket address, `host:port`.
pub fn addr(s: &str) -> Result<SocketAddr, String> {
    s.parse().map_err(|_| format!("expected host:port, got {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODE: &[Flag] = &[
        Flag::value("--id", "N", "source id (required)"),
        Flag::value("--group", "N", "group id").default("1"),
        Flag::value("--bind", "ADDR", "local address"),
        Flag::value("--duration", "SECS", "run time").default("10"),
        Flag::value("--refresh", "SECS", "table period").default("1"),
        Flag::repeat("--text", "STRING", "one ADU each"),
        Flag::switch("--quiet", "print nothing").short("-q"),
    ];
    const FIGS: &[Flag] = &[
        Flag::switch("--quick", "small runs").short("-q"),
        Flag::positional("FIGURE", "figure ids"),
    ];
    static CLI: Cli = Cli {
        bin: "t",
        commands: &[
            Command { name: "join|send", about: "run a member", flags: NODE },
            Command { name: "", about: "", flags: FIGS },
        ],
        footer: || "footer line".to_string(),
    };
    static NO_DEFAULT: Cli = Cli {
        bin: "t",
        commands: &[Command { name: "join", about: "", flags: NODE }],
        footer: String::new,
    };

    fn parse(args: &[&str]) -> Result<Parsed, Error> {
        CLI.parse(args.iter().map(|s| s.to_string()))
    }

    fn usage_err(r: Result<impl Debug, Error>) -> String {
        match r {
            Err(Error::Usage(m)) => m,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn a_switch_is_on_by_name_or_alias() {
        assert!(parse(&["send", "--quiet"]).unwrap().on("--quiet"));
        assert!(parse(&["send", "-q"]).unwrap().on("--quiet"));
        assert!(!parse(&["send"]).unwrap().on("--quiet"));
    }

    #[test]
    fn a_value_takes_the_last_given_else_the_default() {
        let p = parse(&["join", "--group", "3", "--group", "4"]).unwrap();
        assert_eq!(p.get("--group", int(0u32..)), Ok(4));
        let p = parse(&["join"]).unwrap();
        assert_eq!(p.get("--group", int(0u32..)), Ok(1));
        assert_eq!(p.opt("--id", int(0u64..)), Ok(None));
        assert_eq!(usage_err(p.get("--id", int(0u64..))), "--id is required");
        assert_eq!(usage_err(parse(&["join", "--id"])), "--id needs a value");
    }

    #[test]
    fn a_repeat_keeps_every_value_in_order() {
        let p = parse(&["send", "--text", "a", "--text", "--quiet"]).unwrap();
        assert_eq!(p.all("--text"), ["a", "--quiet"]);
        assert!(!p.on("--quiet"), "a value is taken as given, even if it looks like a flag");
    }

    #[test]
    fn positionals_go_to_the_default_command() {
        let p = parse(&["fig3", "-q", "fig5"]).unwrap();
        assert_eq!(p.command(), "");
        assert_eq!(p.all("FIGURE"), ["fig3", "fig5"]);
        assert!(p.on("--quick"));
        assert_eq!(usage_err(parse(&["join", "fig3"])), "unexpected argument \"fig3\"");
    }

    #[test]
    fn commands_unknown_flags_and_help() {
        assert_eq!(parse(&["send"]).unwrap().command(), "send");
        assert_eq!(usage_err(parse(&["join", "--bogus"])), "unknown flag \"--bogus\"");
        assert_eq!(usage_err(parse(&["--bogus"])), "unknown flag \"--bogus\"");
        let one = |args: &[&str]| NO_DEFAULT.parse(args.iter().map(|s| s.to_string()));
        assert_eq!(usage_err(one(&["leave"])), "unknown command \"leave\"");
        assert_eq!(usage_err(one(&[])), "missing command");
        assert_eq!(parse(&["-h"]).unwrap_err(), Error::Help);
        assert_eq!(parse(&["join", "--id", "1", "--help"]).unwrap_err(), Error::Help);
    }

    #[test]
    fn integers_are_checked_against_their_range() {
        let p = parse(&["join", "--id", "abc", "--group", "20"]).unwrap();
        assert_eq!(usage_err(p.get("--id", int(0u64..))), "--id: expected an integer, got \"abc\"");
        assert_eq!(usage_err(p.get("--group", int(2u32..=16))), "--group: must be in 2..=16, got 20");
        assert_eq!(p.get("--group", int(1u32..=64)), Ok(20));
        assert!(usage_err(p.get("--group", int(0u8..=9))).contains("must be in 0..=9"));
    }

    #[test]
    fn seconds_are_finite_and_not_negative() {
        for bad in ["inf", "nan", "-1", "1e300", "x"] {
            let p = parse(&["join", "--duration", bad]).unwrap();
            assert!(usage_err(p.get("--duration", secs)).starts_with("--duration: expected seconds"));
        }
        let p = parse(&["join", "--duration", "0", "--refresh", "0"]).unwrap();
        assert_eq!(p.get("--duration", secs), Ok(0.0));
        assert!(usage_err(p.get("--refresh", positive_secs)).starts_with("--refresh: expected positive"));
        assert_eq!(parse(&["join"]).unwrap().get("--refresh", positive_secs), Ok(1.0));
    }

    #[test]
    fn addresses_are_host_and_port() {
        let p = parse(&["join", "--bind", "127.0.0.1:7401"]).unwrap();
        assert_eq!(p.get("--bind", addr), Ok("127.0.0.1:7401".parse().unwrap()));
        let p = parse(&["join", "--bind", "localhost"]).unwrap();
        assert_eq!(usage_err(p.get("--bind", addr)), "--bind: expected host:port, got \"localhost\"");
    }

    #[test]
    fn the_usage_lists_every_flag_with_its_alias_meta_and_default() {
        let u = CLI.usage();
        assert!(u.contains("usage: t join|send [flags]\n  run a member\n"), "{u}");
        assert!(u.contains("--group N"), "{u}");
        assert!(u.contains("group id (default 1)"), "{u}");
        assert!(u.contains("--quiet, -q"), "{u}");
        assert!(u.contains("one ADU each (repeatable)"), "{u}");
        assert!(u.contains("usage: t [flags] FIGURE...\n"), "{u}");
        assert!(u.ends_with("\nfooter line\n"), "{u}");
        for f in NODE.iter().chain(FIGS) {
            assert!(u.contains(f.help), "{} missing from the usage", f.name);
        }
    }
}
