//! The JSON scenario schema for `srm-sim`.
//!
//! A scenario file describes a session (a [`ScenarioSpec`]: topology,
//! membership, source, SRM configuration, loss process, seed), the channel
//! effects and a workload; [`crate::run()`](crate::run()) executes it and
//! reports traffic and recovery statistics.
//!
//! Parsing is hand-written over [`obs::json`] (the workspace builds
//! offline, without serde); the shapes match the original serde derives:
//! `{"kind": ...}`-tagged topology and loss, untagged members/timers,
//! defaultable config/effects/workload sections.

use crate::scenario::{LossSpec, MembersSpec, ScenarioSpec, SourceSpec, TopoSpec};
use obs::json::{Json, JsonError};
use srm::config::RecoveryGroupConfig;
use srm::{FecConfig, HierarchyConfig, RateLimit, RecoveryScope, SrmConfig, TimerParams};
use std::fmt;

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
    /// The session. The file's `seed` also seeds the simulator
    /// (`seed ^ 0x5eed`); the source defaults to the first member.
    pub spec: ScenarioSpec,
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

/// `field` as an integer of type `T`; a value that does not fit is refused,
/// not truncated.
fn req_int<T: TryFrom<u64>>(v: &Json, field: &str) -> Result<T, SpecError> {
    T::try_from(req_u64(v, field)?).map_err(|_| bad(format!("'{field}' is out of range")))
}

/// `read(v, field)` when `field` is present.
fn opt<T>(
    v: &Json,
    field: &str,
    read: fn(&Json, &str) -> Result<T, SpecError>,
) -> Result<Option<T>, SpecError> {
    v.get(field).map(|_| read(v, field)).transpose()
}

fn topology(v: &Json) -> Result<TopoSpec, SpecError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("topology needs a string 'kind'"))?;
    Ok(match kind {
        "chain" => TopoSpec::Chain { n: req_int(v, "n")? },
        "star" => TopoSpec::Star {
            leaves: req_int(v, "leaves")?,
        },
        "bounded_tree" => TopoSpec::BoundedTree {
            n: req_int(v, "n")?,
            degree: req_int(v, "degree")?,
        },
        "random_tree" => TopoSpec::RandomTree { n: req_int(v, "n")? },
        "random_graph" => TopoSpec::RandomGraph {
            n: req_int(v, "n")?,
            m: req_int(v, "m")?,
        },
        other => return Err(bad(format!("unknown topology kind '{other}'"))),
    })
}

fn members(v: &Json) -> Result<MembersSpec, SpecError> {
    match v {
        Json::A(items) => {
            let ids = items
                .iter()
                .map(|e| {
                    e.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| bad("member ids must be u32"))
                })
                .collect::<Result<Vec<u32>, _>>()?;
            Ok(MembersSpec::List(ids))
        }
        Json::S(s) if s == "all" => Ok(MembersSpec::All),
        Json::O(_) => Ok(MembersSpec::Random(req_int(v, "random")?)),
        _ => Err(bad("'members' must be a list, {\"random\": k}, or \"all\"")),
    }
}

/// The `config` section over a session of `g` members (the presets set
/// C2 = D2 = √G), and whether periodic session messages are on.
fn config(v: &Json, g: usize) -> Result<(SrmConfig, bool), SpecError> {
    if v.as_obj().is_none() {
        return Err(bad("'config' must be an object"));
    }
    let mut cfg = match v.get("timers") {
        None => SrmConfig::fixed(g),
        Some(Json::S(s)) => match s.as_str() {
            "fixed" => SrmConfig::fixed(g),
            "adaptive" => SrmConfig::adaptive(g),
            "wb159" => SrmConfig {
                wb159: true,
                ..SrmConfig::default()
            },
            other => return Err(bad(format!("unknown timer preset '{other}'"))),
        },
        Some(t @ Json::O(_)) => SrmConfig {
            timers: TimerParams {
                c1: req_f64(t, "c1")?,
                c2: req_f64(t, "c2")?,
                d1: req_f64(t, "d1")?,
                d2: req_f64(t, "d2")?,
            },
            ..SrmConfig::default()
        },
        Some(_) => return Err(bad("'timers' must be a preset name or {c1,c2,d1,d2}")),
    };
    if let Some(s) = v.get("scope") {
        cfg.scope = scope(s)?;
    }
    if let Some(k) = opt(v, "fec_k", req_int)?.filter(|&k| k > 0) {
        cfg.fec = Some(FecConfig { k });
    }
    if let Some(invite_ttl) = opt(v, "recovery_group_ttl", req_int)?.filter(|&t| t > 0) {
        cfg.recovery_groups = Some(RecoveryGroupConfig { invite_ttl });
    }
    if let Some(local_ttl) = opt(v, "hierarchy_ttl", req_int)?.filter(|&t| t > 0) {
        cfg.session_hierarchy = Some(HierarchyConfig { local_ttl });
    }
    let sessions = match v.get("session_messages") {
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad("'session_messages' must be a boolean"))?,
        None => true,
    };
    if let Some(bps) = opt(v, "rate_limit_bps", req_f64)?.filter(|&b| b > 0.0) {
        cfg.rate_limit = Some(RateLimit {
            bytes_per_sec: bps,
            burst_bytes: bps, // one second of burst
        });
    }
    Ok((cfg, sessions))
}

fn scope(v: &Json) -> Result<RecoveryScope, SpecError> {
    match v {
        Json::S(s) if s == "global" => Ok(RecoveryScope::Global),
        Json::S(s) if s == "admin" => Ok(RecoveryScope::Admin),
        Json::O(_) => {
            let inner = v
                .get("ttl")
                .ok_or_else(|| bad("scope object must be {\"ttl\": {\"ttl\": n}}"))?;
            let ttl = u8::try_from(req_u64(inner, "ttl")?)
                .map_err(|_| bad("scope ttl must fit in u8"))?;
            Ok(RecoveryScope::Ttl(ttl))
        }
        _ => Err(bad("'scope' must be \"global\", \"admin\", or a ttl object")),
    }
}

fn loss(v: &Json) -> Result<LossSpec, SpecError> {
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
            a: req_int(v, "a")?,
            b: req_int(v, "b")?,
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
            w.adus = req_int(v, "adus")?;
        }
        if v.get("interval_secs").is_some() {
            w.interval_secs = req_f64(v, "interval_secs")?;
        }
        if v.get("payload_bytes").is_some() {
            w.payload_bytes = req_int(v, "payload_bytes")?;
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
        let topo = topology(
            v.get("topology")
                .ok_or_else(|| bad("missing required field 'topology'"))?,
        )?;
        let members = members(
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
            Some(Json::Null) | None => SourceSpec::First,
            Some(s) => SourceSpec::Node(
                s.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad("'source' must be a u32 node id"))?,
            ),
        };
        let g = members.count(topo);
        let (cfg, sessions) = match v.get("config") {
            Some(c) => config(c, g)?,
            None => (SrmConfig::fixed(g), true),
        };
        let loss = match v.get("loss") {
            Some(l) => loss(l)?,
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
            spec: ScenarioSpec {
                topo,
                members,
                source,
                loss,
                cfg,
                sessions,
                seed,
                timer_seed: Some(seed ^ 0x5eed),
            },
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
        assert_eq!(sc.spec.topo, TopoSpec::Chain { n: 10 });
        assert_eq!(sc.spec.members, MembersSpec::All);
        assert_eq!(sc.spec.cfg, SrmConfig::fixed(10));
        assert_eq!(sc.spec.loss, LossSpec::None);
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
            spec: ScenarioSpec {
                topo: TopoSpec::BoundedTree { n: 200, degree: 4 },
                seed: 7,
                timer_seed: Some(7 ^ 0x5eed),
                members: MembersSpec::Random(20),
                source: SourceSpec::Node(3),
                cfg: SrmConfig {
                    timers: TimerParams {
                        c1: 2.0,
                        c2: 5.0,
                        d1: 1.0,
                        d2: 5.0,
                    },
                    scope: RecoveryScope::Ttl(8),
                    fec: Some(FecConfig { k: 4 }),
                    recovery_groups: Some(RecoveryGroupConfig { invite_ttl: 3 }),
                    session_hierarchy: Some(HierarchyConfig { local_ttl: 2 }),
                    rate_limit: Some(RateLimit {
                        bytes_per_sec: 8000.0,
                        burst_bytes: 8000.0,
                    }),
                    ..SrmConfig::default()
                },
                sessions: true,
                loss: LossSpec::Bernoulli { p: 0.02 },
            },
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
        assert_eq!(sc.spec.members, MembersSpec::List(vec![1, 2, 3]));
        assert_eq!(sc.spec.cfg, SrmConfig::adaptive(3));
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
            (r#"{"kind": "chain", "n": 4}"#, TopoSpec::Chain { n: 4 }),
            (r#"{"kind": "star", "leaves": 5}"#, TopoSpec::Star { leaves: 5 }),
            (r#"{"kind": "bounded_tree", "n": 9, "degree": 3}"#, TopoSpec::BoundedTree { n: 9, degree: 3 }),
            (r#"{"kind": "random_tree", "n": 6}"#, TopoSpec::RandomTree { n: 6 }),
            (r#"{"kind": "random_graph", "n": 6, "m": 8}"#, TopoSpec::RandomGraph { n: 6, m: 8 }),
        ];
        for (json, want) in topologies {
            assert_eq!(parse("topology", json).spec.topo, want, "{json}");
        }
        let members = [
            ("[1, 2]", MembersSpec::List(vec![1, 2])),
            (r#"{"random": 3}"#, MembersSpec::Random(3)),
            (r#""all""#, MembersSpec::All),
        ];
        for (json, want) in members {
            assert_eq!(parse("members", json).spec.members, want, "{json}");
        }
        let explicit = TimerParams { c1: 1.0, c2: 2.0, d1: 3.0, d2: 4.0 };
        let timers = [
            (r#""fixed""#, SrmConfig::fixed(4)),
            (r#""adaptive""#, SrmConfig::adaptive(4)),
            (r#""wb159""#, SrmConfig { wb159: true, ..SrmConfig::default() }),
            (r#"{"c1": 1, "c2": 2, "d1": 3, "d2": 4}"#, SrmConfig { timers: explicit, ..SrmConfig::default() }),
        ];
        for (json, want) in timers {
            let sc = parse("config", &format!(r#"{{"timers": {json}}}"#));
            assert_eq!(sc.spec.cfg, want, "{json}");
        }
        let scopes = [
            (r#""global""#, RecoveryScope::Global),
            (r#""admin""#, RecoveryScope::Admin),
            (r#"{"ttl": {"ttl": 9}}"#, RecoveryScope::Ttl(9)),
        ];
        for (json, want) in scopes {
            let sc = parse("config", &format!(r#"{{"scope": {json}}}"#));
            assert_eq!(sc.spec.cfg.scope, want, "{json}");
            assert_eq!(sc.spec.source, SourceSpec::First);
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
            assert_eq!(parse("loss", json).spec.loss, want, "{json}");
        }
    }

    /// An integer field that does not fit its type is refused, never
    /// truncated: `"fec_k": 260` used to run with k = 4.
    #[test]
    fn out_of_range_integers_are_schema_errors() {
        let cases = [
            (r#""config": {"fec_k": 260}"#, "'fec_k' is out of range"),
            (r#""config": {"recovery_group_ttl": 256}"#, "'recovery_group_ttl' is out of range"),
            (r#""config": {"hierarchy_ttl": 999}"#, "'hierarchy_ttl' is out of range"),
            (r#""config": {"scope": {"ttl": {"ttl": 256}}}"#, "scope ttl must fit in u8"),
            (r#""loss": {"kind": "scripted", "a": 4294967297, "b": 1, "ordinals": [1]}"#, "'a' is out of range"),
            (r#""loss": {"kind": "scripted", "a": 1, "b": 4294967296, "ordinals": [1]}"#, "'b' is out of range"),
            (r#""workload": {"adus": 4294967296}"#, "'adus' is out of range"),
            (r#""source": 4294967296"#, "'source' must be a u32 node id"),
        ];
        for (field, want) in cases {
            let doc = format!(r#"{{"topology": {{"kind": "chain", "n": 4}}, "members": "all", {field}}}"#);
            let err = Scenario::from_json(&doc).expect_err(field);
            assert_eq!(err.to_string(), format!("schema error: {want}"), "{field}");
        }
        let doc = r#"{"topology": {"kind": "chain", "n": 4}, "members": "all",
            "config": {"fec_k": 255}, "workload": {"adus": 4294967295}}"#;
        let sc = Scenario::from_json(doc).unwrap();
        assert_eq!(sc.spec.cfg.fec, Some(FecConfig { k: 255 }));
        assert_eq!(sc.workload.adus, u32::MAX);
    }
}
