//! The JSON scenario schema for `srm-sim`.
//!
//! A scenario file describes a topology, a session membership, an SRM
//! configuration, a loss process, and a workload; [`crate::run()`](crate::run()) executes
//! it and reports traffic and recovery statistics.
//!
//! Parsing is hand-written over [`obs::json`] (the workspace builds
//! offline, without serde); the shapes match the original serde derives:
//! `{"kind": ...}`-tagged topology and loss, untagged members/timers,
//! defaultable config/effects/workload sections.

use obs::json::{Json, JsonError};
use std::fmt;

/// Topology description.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// A chain of `n` nodes.
    Chain {
        /// Node count.
        n: usize,
    },
    /// A star with `leaves` leaf nodes and a non-member hub (node 0).
    Star {
        /// Leaf count.
        leaves: usize,
    },
    /// A balanced bounded-degree tree.
    BoundedTree {
        /// Node count.
        n: usize,
        /// Interior degree.
        degree: usize,
    },
    /// A uniformly random labeled tree.
    RandomTree {
        /// Node count.
        n: usize,
    },
    /// A connected random graph.
    RandomGraph {
        /// Node count.
        n: usize,
        /// Edge count (≥ n−1).
        m: usize,
    },
}

/// Which nodes join the session.
#[derive(Clone, Debug, PartialEq)]
pub enum MembersSpec {
    /// Explicit node ids.
    List(Vec<u32>),
    /// `{"random": k}`: k members chosen uniformly.
    Random {
        /// Member count.
        random: usize,
    },
    /// The string "all": every node joins.
    All(AllTag),
}

/// The literal string "all".
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AllTag {
    /// Every node is a member.
    All,
}

/// Timer parameter selection.
#[derive(Clone, Debug, PartialEq)]
pub enum TimersSpec {
    /// `"fixed"`: the paper's C1=D1=2, C2=D2=√G.
    Preset(TimerPreset),
    /// Explicit constants.
    Explicit {
        /// Request interval start multiplier.
        c1: f64,
        /// Request interval width multiplier.
        c2: f64,
        /// Repair interval start multiplier.
        d1: f64,
        /// Repair interval width multiplier.
        d2: f64,
    },
}

/// Named timer presets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimerPreset {
    /// C1=D1=2, C2=D2=√G (Section V).
    Fixed,
    /// The Section VII-A adaptive algorithm (backoff ×3).
    Adaptive,
    /// wb 1.59's fixed millisecond intervals.
    Wb159,
}

/// Recovery scope selection.
#[derive(Clone, Debug, PartialEq)]
pub enum ScopeSpec {
    /// Global recovery (default).
    Global,
    /// TTL-scoped with two-step repairs.
    Ttl {
        /// Initial request TTL.
        ttl: u8,
    },
    /// Administratively scoped.
    Admin,
}

/// Protocol configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigSpec {
    /// Timer selection.
    pub timers: TimersSpec,
    /// Recovery scope.
    pub scope: ScopeSpec,
    /// FEC block size (`0` = off).
    pub fec_k: u8,
    /// Enable Section VII-B2 recovery groups with this invite TTL
    /// (`0` = off).
    pub recovery_group_ttl: u8,
    /// Enable Section IX-A hierarchical session messages with this local
    /// TTL (`0` = off).
    pub hierarchy_ttl: u8,
    /// Periodic session messages on/off.
    pub session_messages: bool,
    /// Token-bucket send limit in bytes/second (`0` = unlimited).
    pub rate_limit_bps: f64,
}

impl Default for ConfigSpec {
    fn default() -> Self {
        ConfigSpec {
            timers: TimersSpec::Preset(TimerPreset::Fixed),
            scope: ScopeSpec::Global,
            fec_k: 0,
            recovery_group_ttl: 0,
            hierarchy_ttl: 0,
            session_messages: true,
            rate_limit_bps: 0.0,
        }
    }
}

/// Loss process.
#[derive(Clone, Debug, PartialEq)]
pub enum LossSpec {
    /// No loss.
    None,
    /// Independent Bernoulli loss on every link.
    Bernoulli {
        /// Drop probability.
        p: f64,
    },
    /// Drop the given (1-based) packet ordinals on the link between two
    /// nodes.
    Scripted {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
        /// 1-based ordinals of crossings to drop.
        ordinals: Vec<u64>,
    },
}

/// Channel effects.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct EffectsSpec {
    /// Per-hop duplication probability.
    pub duplication: f64,
    /// Maximum per-hop reordering jitter, seconds.
    pub jitter_secs: f64,
}

/// Data workload: the source streams ADUs.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of ADUs to originate.
    pub adus: u32,
    /// Seconds between ADUs.
    pub interval_secs: f64,
    /// Payload size in bytes.
    pub payload_bytes: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            adus: 10,
            interval_secs: 5.0,
            payload_bytes: 64,
        }
    }
}

/// A complete scenario file.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Topology to build.
    pub topology: TopologySpec,
    /// RNG seed (topology, membership, and protocol timers).
    pub seed: u64,
    /// Session membership.
    pub members: MembersSpec,
    /// Data source: a node id, or absent for the first member.
    pub source: Option<u32>,
    /// Protocol configuration.
    pub config: ConfigSpec,
    /// Loss process.
    pub loss: LossSpec,
    /// Channel effects.
    pub effects: EffectsSpec,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Extra settle time after the workload, seconds.
    pub settle_secs: f64,
}

/// A scenario that failed to parse.
#[derive(Clone, Debug)]
pub enum SpecError {
    /// The input is not JSON at all.
    Syntax(JsonError),
    /// The JSON does not match the schema; the string names the field.
    Schema(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Schema(msg) => write!(f, "schema error: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError::Schema(msg.into())
}

fn req_u64(v: &Json, field: &str) -> Result<u64, SpecError> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("'{field}' must be a non-negative integer")))
}

fn req_f64(v: &Json, field: &str) -> Result<f64, SpecError> {
    v.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("'{field}' must be a number")))
}

impl TopologySpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("topology needs a string 'kind'"))?;
        Ok(match kind {
            "chain" => TopologySpec::Chain {
                n: req_u64(v, "n")? as usize,
            },
            "star" => TopologySpec::Star {
                leaves: req_u64(v, "leaves")? as usize,
            },
            "bounded_tree" => TopologySpec::BoundedTree {
                n: req_u64(v, "n")? as usize,
                degree: req_u64(v, "degree")? as usize,
            },
            "random_tree" => TopologySpec::RandomTree {
                n: req_u64(v, "n")? as usize,
            },
            "random_graph" => TopologySpec::RandomGraph {
                n: req_u64(v, "n")? as usize,
                m: req_u64(v, "m")? as usize,
            },
            other => return Err(bad(format!("unknown topology kind '{other}'"))),
        })
    }
}

impl MembersSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        match v {
            Json::A(items) => {
                let ids = items
                    .iter()
                    .map(|e| {
                        e.as_u64()
                            .filter(|&n| n <= u32::MAX as u64)
                            .map(|n| n as u32)
                            .ok_or_else(|| bad("member ids must be u32"))
                    })
                    .collect::<Result<Vec<u32>, _>>()?;
                Ok(MembersSpec::List(ids))
            }
            Json::S(s) if s == "all" => Ok(MembersSpec::All(AllTag::All)),
            Json::O(_) => Ok(MembersSpec::Random {
                random: req_u64(v, "random")? as usize,
            }),
            _ => Err(bad("'members' must be a list, {\"random\": k}, or \"all\"")),
        }
    }
}

impl TimersSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        match v {
            Json::S(s) => Ok(TimersSpec::Preset(match s.as_str() {
                "fixed" => TimerPreset::Fixed,
                "adaptive" => TimerPreset::Adaptive,
                "wb159" => TimerPreset::Wb159,
                other => return Err(bad(format!("unknown timer preset '{other}'"))),
            })),
            Json::O(_) => Ok(TimersSpec::Explicit {
                c1: req_f64(v, "c1")?,
                c2: req_f64(v, "c2")?,
                d1: req_f64(v, "d1")?,
                d2: req_f64(v, "d2")?,
            }),
            _ => Err(bad("'timers' must be a preset name or {c1,c2,d1,d2}")),
        }
    }
}

impl ScopeSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        match v {
            Json::S(s) if s == "global" => Ok(ScopeSpec::Global),
            Json::S(s) if s == "admin" => Ok(ScopeSpec::Admin),
            Json::O(_) => {
                let inner = v
                    .get("ttl")
                    .ok_or_else(|| bad("scope object must be {\"ttl\": {\"ttl\": n}}"))?;
                let ttl = req_u64(inner, "ttl")?;
                if ttl > u8::MAX as u64 {
                    return Err(bad("scope ttl must fit in u8"));
                }
                Ok(ScopeSpec::Ttl { ttl: ttl as u8 })
            }
            _ => Err(bad("'scope' must be \"global\", \"admin\", or a ttl object")),
        }
    }
}

impl ConfigSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        if v.as_obj().is_none() {
            return Err(bad("'config' must be an object"));
        }
        let mut cfg = ConfigSpec::default();
        if let Some(t) = v.get("timers") {
            cfg.timers = TimersSpec::from_json(t)?;
        }
        if let Some(s) = v.get("scope") {
            cfg.scope = ScopeSpec::from_json(s)?;
        }
        if v.get("fec_k").is_some() {
            cfg.fec_k = req_u64(v, "fec_k")? as u8;
        }
        if v.get("recovery_group_ttl").is_some() {
            cfg.recovery_group_ttl = req_u64(v, "recovery_group_ttl")? as u8;
        }
        if v.get("hierarchy_ttl").is_some() {
            cfg.hierarchy_ttl = req_u64(v, "hierarchy_ttl")? as u8;
        }
        if let Some(b) = v.get("session_messages") {
            cfg.session_messages = b
                .as_bool()
                .ok_or_else(|| bad("'session_messages' must be a boolean"))?;
        }
        if v.get("rate_limit_bps").is_some() {
            cfg.rate_limit_bps = req_f64(v, "rate_limit_bps")?;
        }
        Ok(cfg)
    }
}

impl LossSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("loss needs a string 'kind'"))?;
        Ok(match kind {
            "none" => LossSpec::None,
            "bernoulli" => LossSpec::Bernoulli {
                p: req_f64(v, "p")?,
            },
            "scripted" => LossSpec::Scripted {
                a: req_u64(v, "a")? as u32,
                b: req_u64(v, "b")? as u32,
                ordinals: v
                    .get("ordinals")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("'ordinals' must be an array"))?
                    .iter()
                    .map(|e| e.as_u64().ok_or_else(|| bad("ordinals must be integers")))
                    .collect::<Result<Vec<u64>, _>>()?,
            },
            other => return Err(bad(format!("unknown loss kind '{other}'"))),
        })
    }
}

impl EffectsSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        if v.as_obj().is_none() {
            return Err(bad("'effects' must be an object"));
        }
        let mut e = EffectsSpec::default();
        if v.get("duplication").is_some() {
            e.duplication = req_f64(v, "duplication")?;
        }
        if v.get("jitter_secs").is_some() {
            e.jitter_secs = req_f64(v, "jitter_secs")?;
        }
        Ok(e)
    }
}

impl WorkloadSpec {
    fn from_json(v: &Json) -> Result<Self, SpecError> {
        if v.as_obj().is_none() {
            return Err(bad("'workload' must be an object"));
        }
        let mut w = WorkloadSpec::default();
        if v.get("adus").is_some() {
            w.adus = req_u64(v, "adus")? as u32;
        }
        if v.get("interval_secs").is_some() {
            w.interval_secs = req_f64(v, "interval_secs")?;
        }
        if v.get("payload_bytes").is_some() {
            w.payload_bytes = req_u64(v, "payload_bytes")? as usize;
        }
        Ok(w)
    }
}

impl Scenario {
    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Scenario, SpecError> {
        let v = Json::parse(s).map_err(SpecError::Syntax)?;
        if v.as_obj().is_none() {
            return Err(bad("scenario must be a JSON object"));
        }
        let topology = TopologySpec::from_json(
            v.get("topology")
                .ok_or_else(|| bad("missing required field 'topology'"))?,
        )?;
        let members = MembersSpec::from_json(
            v.get("members")
                .ok_or_else(|| bad("missing required field 'members'"))?,
        )?;
        let seed = match v.get("seed") {
            Some(s) => s
                .as_u64()
                .ok_or_else(|| bad("'seed' must be a non-negative integer"))?,
            None => 0,
        };
        let source = match v.get("source") {
            Some(Json::Null) | None => None,
            Some(s) => Some(
                s.as_u64()
                    .filter(|&n| n <= u32::MAX as u64)
                    .map(|n| n as u32)
                    .ok_or_else(|| bad("'source' must be a u32 node id"))?,
            ),
        };
        let config = match v.get("config") {
            Some(c) => ConfigSpec::from_json(c)?,
            None => ConfigSpec::default(),
        };
        let loss = match v.get("loss") {
            Some(l) => LossSpec::from_json(l)?,
            None => LossSpec::None,
        };
        let effects = match v.get("effects") {
            Some(e) => EffectsSpec::from_json(e)?,
            None => EffectsSpec::default(),
        };
        let workload = match v.get("workload") {
            Some(w) => WorkloadSpec::from_json(w)?,
            None => WorkloadSpec::default(),
        };
        let settle_secs = match v.get("settle_secs") {
            Some(s) => s
                .as_f64()
                .ok_or_else(|| bad("'settle_secs' must be a number"))?,
            None => 2000.0,
        };
        Ok(Scenario {
            topology,
            seed,
            members,
            source,
            config,
            loss,
            effects,
            workload,
            settle_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses() {
        let s = r#"{
            "topology": {"kind": "chain", "n": 10},
            "members": "all"
        }"#;
        let sc = Scenario::from_json(s).unwrap();
        assert_eq!(sc.topology, TopologySpec::Chain { n: 10 });
        assert_eq!(sc.members, MembersSpec::All(AllTag::All));
        assert_eq!(sc.config.timers, TimersSpec::Preset(TimerPreset::Fixed));
        assert_eq!(sc.loss, LossSpec::None);
    }

    #[test]
    fn full_scenario_parses_every_field() {
        let s = r#"{
            "topology": {"kind": "bounded_tree", "n": 200, "degree": 4},
            "seed": 7,
            "members": {"random": 20},
            "source": 3,
            "config": {
                "timers": {"c1": 2, "c2": 5, "d1": 1, "d2": 5},
                "scope": {"ttl": {"ttl": 8}},
                "fec_k": 4,
                "recovery_group_ttl": 3,
                "hierarchy_ttl": 2,
                "session_messages": true,
                "rate_limit_bps": 8000
            },
            "loss": {"kind": "bernoulli", "p": 0.02},
            "effects": {"duplication": 0.01, "jitter_secs": 0.2},
            "workload": {"adus": 30, "interval_secs": 2, "payload_bytes": 128},
            "settle_secs": 500
        }"#;
        let sc = Scenario {
            topology: TopologySpec::BoundedTree { n: 200, degree: 4 },
            seed: 7,
            members: MembersSpec::Random { random: 20 },
            source: Some(3),
            config: ConfigSpec {
                timers: TimersSpec::Explicit {
                    c1: 2.0,
                    c2: 5.0,
                    d1: 1.0,
                    d2: 5.0,
                },
                scope: ScopeSpec::Ttl { ttl: 8 },
                fec_k: 4,
                recovery_group_ttl: 3,
                hierarchy_ttl: 2,
                session_messages: true,
                rate_limit_bps: 8000.0,
            },
            loss: LossSpec::Bernoulli { p: 0.02 },
            effects: EffectsSpec {
                duplication: 0.01,
                jitter_secs: 0.2,
            },
            workload: WorkloadSpec {
                adus: 30,
                interval_secs: 2.0,
                payload_bytes: 128,
            },
            settle_secs: 500.0,
        };
        assert_eq!(Scenario::from_json(s).unwrap(), sc);
    }

    #[test]
    fn member_list_and_preset_variants() {
        let s = r#"{
            "topology": {"kind": "star", "leaves": 5},
            "members": [1, 2, 3],
            "config": {"timers": "adaptive"}
        }"#;
        let sc = Scenario::from_json(s).unwrap();
        assert_eq!(sc.members, MembersSpec::List(vec![1, 2, 3]));
        assert_eq!(sc.config.timers, TimersSpec::Preset(TimerPreset::Adaptive));
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(Scenario::from_json("{}").is_err());
        assert!(Scenario::from_json("not json").is_err());
    }

    #[test]
    fn every_variant_parses() {
        // A minimal scenario with `field` set to `json`.
        let parse = |field: &str, json: &str| {
            let topology = if field == "topology" { json } else { r#"{"kind": "chain", "n": 4}"# };
            let members = if field == "members" { json } else { r#""all""# };
            let extra = match field {
                "topology" | "members" => String::new(),
                _ => format!(r#", "{field}": {json}"#),
            };
            let doc = format!(r#"{{"topology": {topology}, "members": {members}{extra}}}"#);
            Scenario::from_json(&doc).unwrap()
        };
        let topologies = [
            (r#"{"kind": "chain", "n": 4}"#, TopologySpec::Chain { n: 4 }),
            (r#"{"kind": "star", "leaves": 5}"#, TopologySpec::Star { leaves: 5 }),
            (r#"{"kind": "bounded_tree", "n": 9, "degree": 3}"#, TopologySpec::BoundedTree { n: 9, degree: 3 }),
            (r#"{"kind": "random_tree", "n": 6}"#, TopologySpec::RandomTree { n: 6 }),
            (r#"{"kind": "random_graph", "n": 6, "m": 8}"#, TopologySpec::RandomGraph { n: 6, m: 8 }),
        ];
        for (json, want) in topologies {
            assert_eq!(parse("topology", json).topology, want, "{json}");
        }
        let members = [
            ("[1, 2]", MembersSpec::List(vec![1, 2])),
            (r#"{"random": 3}"#, MembersSpec::Random { random: 3 }),
            (r#""all""#, MembersSpec::All(AllTag::All)),
        ];
        for (json, want) in members {
            assert_eq!(parse("members", json).members, want, "{json}");
        }
        let timers = [
            (r#""fixed""#, TimersSpec::Preset(TimerPreset::Fixed)),
            (r#""adaptive""#, TimersSpec::Preset(TimerPreset::Adaptive)),
            (r#""wb159""#, TimersSpec::Preset(TimerPreset::Wb159)),
            (r#"{"c1": 1, "c2": 2, "d1": 3, "d2": 4}"#, TimersSpec::Explicit { c1: 1.0, c2: 2.0, d1: 3.0, d2: 4.0 }),
        ];
        for (json, want) in timers {
            let sc = parse("config", &format!(r#"{{"timers": {json}}}"#));
            assert_eq!(sc.config.timers, want, "{json}");
        }
        let scopes = [
            (r#""global""#, ScopeSpec::Global),
            (r#""admin""#, ScopeSpec::Admin),
            (r#"{"ttl": {"ttl": 9}}"#, ScopeSpec::Ttl { ttl: 9 }),
        ];
        for (json, want) in scopes {
            let sc = parse("config", &format!(r#"{{"scope": {json}}}"#));
            assert_eq!(sc.config.scope, want, "{json}");
            assert_eq!(sc.source, None);
        }
        let losses = [
            (r#"{"kind": "none"}"#, LossSpec::None),
            (r#"{"kind": "bernoulli", "p": 0.5}"#, LossSpec::Bernoulli { p: 0.5 }),
            (
                r#"{"kind": "scripted", "a": 1, "b": 2, "ordinals": [1, 3]}"#,
                LossSpec::Scripted { a: 1, b: 2, ordinals: vec![1, 3] },
            ),
        ];
        for (json, want) in losses {
            assert_eq!(parse("loss", json).loss, want, "{json}");
        }
    }
}
