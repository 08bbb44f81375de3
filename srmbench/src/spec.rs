//! What the benchmark is: workloads, metrics, bounds, and how they relate.
//!
//! This module is the single source for `BENCHMARK.json`
//! (`srmbench list --benchmark-json` prints it), the README tables, and the
//! parameters the runners use, so the file and the binary cannot drift.

use srm_transport::control::json_escape;
use std::fmt::Write as _;

/// The emulated round-trip time every live latency is divided by: each
/// sending node holds every frame back [`ONE_WAY_MS`] on its chaos delay
/// queue, so a frame and its answer cross two such delays.
pub const RTT_MS: u64 = 10;
/// One-way emulated path delay (`ChaosPlan::reorder(1.0, 5 ms)`), also the
/// value every `initial_distances` entry is seeded to.
pub const ONE_WAY_MS: u64 = RTT_MS / 2;
/// Seconds one run measures by default (`run_seconds` in `BENCHMARK.json`):
/// a live workload spends half in each phase.
pub const RUN_SECONDS: u64 = 20;
/// Timed set-ups per live run (the last one is kept and measured on).
pub const SETUP_REPEATS: usize = 16;
/// How long after a phase's last publish an ADU may still arrive before it
/// counts as failed. A drain normally ends within 50 ms, when the last ADU is
/// in; the allowance is for the one slow case there is. Seeded loss drops a
/// multicast for everybody and is repaired within a few RTTs, but a frame
/// lost at *one* receiver (a socket buffer or inbound channel that filled
/// while its thread was off the CPU of a shared host) can take seconds: the
/// hub's agent runs the 1 s `default_distance`, which stands in for its
/// distance to itself, so after repairing one of its own ADUs it ignores
/// requests for it for 3 s; the only other holder heard that repair while its
/// own repair timer was pending and never schedules one again; and the
/// requester's uncapped doubling back-off then first asks again up to 3 s
/// after the hold-down ended. With the inbound channel cut to 4 entries to
/// force such losses throughout, the slowest drain seen took 15.6 s.
pub const DRAIN_MS: u64 = 30_000;
/// ADUs per `HubHandle::send` call.
pub const HUB_SEND_COUNT: u32 = 8;
/// Simulated sessions per `sim_fig4` epoch (the paper's 20 replicates).
pub const SIM_SESSIONS: u64 = 20;
/// Loss-recovery rounds per session per epoch; with [`SIM_SESSIONS`] this
/// fixes the 14 000 rounds the protocol metrics are computed over (2000
/// left requests per round 2.8 % apart between seeds).
pub const SIM_ROUNDS: usize = 700;

/// One phase of a live workload.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// ADUs per second per publisher.
    pub rate: u32,
    /// Generator tick: every ADU due within a tick is published by one
    /// `exec` at the tick's scheduled time.
    pub tick_us: u64,
    /// Each receiver's `take_delivered` poll period.
    pub poll_us: u64,
    /// Emulate the path delay on every sending node.
    pub delay: bool,
    /// Seeded Bernoulli loss probability on every sending node.
    pub loss: f64,
}

/// Who is in a live workload.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `n` nodes on a unicast mesh, the first `publishers` of them publish.
    Mesh { n: usize, publishers: usize },
    /// One hub hosting `groups` groups, each = hub member + nodes A and B;
    /// all three publish.
    HubGroups { groups: u32, shards: usize },
}

/// A live (loopback UDP) workload.
#[derive(Clone, Copy, Debug)]
pub struct LiveSpec {
    /// Members and publishers.
    pub shape: Shape,
    /// ADU payload bytes.
    pub payload: usize,
    /// Low-rate phase under the emulated RTT: latency, frames, bytes.
    pub lat: Phase,
    /// High-rate phase: CPU per ADU.
    pub cpu: Phase,
}

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Stable name (`--workload`).
    pub name: &'static str,
    /// One sentence on why it exists (goes to `BENCHMARK.json`).
    pub why: &'static str,
    /// `None` for the simulator workload.
    pub live: Option<LiveSpec>,
}

// Every publish and every poll is a synchronous `exec` round trip of about
// 60 us when the reactor has to be woken, all from the one generator thread,
// so the rates below are set to keep it under about 5k round trips a second;
// above that `loadgen.send_lag_p99_us` left the 1 ms it must stay under.
const CPU_TICK_US: u64 = 5_000;
const CPU_POLL_US: u64 = 20_000;

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pair_stream",
        why: "2-node mesh, one publisher, 64-B ADUs, no loss (lat 5k/s over the emulated RTT, cpu 100k/s bare): batch, pool, envelope, wire and the recv-to-reactor hand-off do all the work; recovery and hub idle",
        live: Some(LiveSpec {
            shape: Shape::Mesh { n: 2, publishers: 1 },
            payload: 64,
            lat: Phase { rate: 5_000, tick_us: 250, poll_us: 1_000, delay: true, loss: 0.0 },
            cpu: Phase { rate: 100_000, tick_us: CPU_TICK_US, poll_us: CPU_POLL_US, delay: false, loss: 0.0 },
        }),
    },
    Workload {
        name: "hub_groups4",
        why: "one 2-shard hub hosting 4 groups of hub+2 nodes, all publishing 64-B ADUs (lat 200/s, cpu 2k/s each), 2% loss: demux, precheck, shard reactors and control RPCs work; a hub-only change moves only this",
        live: Some(LiveSpec {
            shape: Shape::HubGroups { groups: 4, shards: 2 },
            payload: 64,
            lat: Phase { rate: 200, tick_us: 1_000, poll_us: 2_000, delay: true, loss: 0.02 },
            cpu: Phase { rate: 2_000, tick_us: CPU_TICK_US, poll_us: CPU_POLL_US, delay: true, loss: 0.02 },
        }),
    },
    Workload {
        name: "mesh4_lossy",
        why: "4-node mesh, every member publishes 1-KiB ADUs (lat 500/s, cpu 2.5k/s each), 5% loss: request/repair timers, suppression, wheel and store fetch work; the mixed send+receive+repair path, large frames",
        live: Some(LiveSpec {
            shape: Shape::Mesh { n: 4, publishers: 4 },
            payload: 1024,
            lat: Phase { rate: 500, tick_us: 1_000, poll_us: 2_000, delay: true, loss: 0.05 },
            cpu: Phase { rate: 2_500, tick_us: CPU_TICK_US, poll_us: CPU_POLL_US, delay: true, loss: 0.05 },
        }),
    },
    Workload {
        name: "sim_fig4",
        why: "the paper's Fig. 4 on netsim: 20 sessions of 50 members in a 1000-node degree-4 tree, 700 loss rounds each, single thread: shares agent and wire with the live path and nothing of transport",
        live: None,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Stable name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_better: bool,
    /// End-to-end only: share of the parent's median it may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_better: false,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_better: false,
        bound: 0.0,
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_better: true,
        bound: 0.0,
    }
}

/// The six gated metrics; every workload reports all of them.
pub const END_TO_END: [MetricDef; 6] = [
    // The two timings get the widest bound the contract allows: on the
    // 2-vCPU sandbox this was written on, the CPU time of even the
    // deterministic single-threaded simulation wanders by 7 to 10 % (quartile
    // distance over ten runs) with a correlation time of about ten seconds,
    // whatever estimator over windows is used. See NOISE.md.
    e2e("setup_s", "s", 0.25),
    e2e("cpu_us_per_adu", "us", 0.25),
    e2e("adu_p50_rtt", "rtt", 0.05),
    e2e("adu_p99_rtt", "rtt", 0.10),
    e2e("frames_per_adu", "count", 0.02),
    e2e("wire_bytes_per_adu", "B", 0.02),
];

/// The ungated per-layer metrics, grouped by the repo's modules.
pub const PER_LAYER: &[MetricDef] = &[
    // wire (srm::wire)
    layer("wire.data64_encode_ns", "ns"),
    layer("wire.data64_decode_ns", "ns"),
    layer("wire.data1k_encode_ns", "ns"),
    layer("wire.data1k_decode_ns", "ns"),
    layer("wire.session4_encode_ns", "ns"),
    layer("wire.session4_decode_ns", "ns"),
    layer("wire.session64_encode_ns", "ns"),
    layer("wire.session64_decode_ns", "ns"),
    layer("wire.request_encode_ns", "ns"),
    layer("wire.request_decode_ns", "ns"),
    layer("wire.data64_bytes", "B"),
    layer("wire.session4_bytes", "B"),
    layer("wire.session64_bytes", "B"),
    layer("wire.request_bytes", "B"),
    // envelope
    layer("envelope.encode_ns", "ns"),
    layer("envelope.decode_view_ns", "ns"),
    layer("envelope.precheck_ns", "ns"),
    layer("envelope.overhead_bytes", "B"),
    // batch, pool
    layer("batch.mmsg_send_frame_ns", "ns"),
    layer("batch.mmsg_recv_frame_ns", "ns"),
    layer("batch.portable_send_frame_ns", "ns"),
    layer("batch.portable_recv_frame_ns", "ns"),
    layer("pool.take_release_ns", "ns"),
    layer("pool.miss_share", "share"),
    // wheel
    layer("wheel.arm_ns_d16", "ns"),
    layer("wheel.cancel_ns_d16", "ns"),
    layer("wheel.pop_ns_d16", "ns"),
    layer("wheel.arm_ns_d4k", "ns"),
    layer("wheel.cancel_ns_d4k", "ns"),
    layer("wheel.pop_ns_d4k", "ns"),
    // agent, adustore (srm::store)
    layer("agent.send_data_ns", "ns"),
    layer("agent.drive_data_ns", "ns"),
    layer("agent.drive_session_ns", "ns"),
    layer("agent.drive_request_ns", "ns"),
    layer("agent.drive_repair_ns", "ns"),
    layer("agent.drive_timer_ns", "ns"),
    layer("adustore.insert_ns", "ns"),
    layer("adustore.fetch_ns", "ns"),
    // store (srm-store WAL)
    layer("store.mem_append_ns", "ns"),
    layer("store.dir_append_never_ns", "ns"),
    layer("store.dir_append_every8_ns", "ns"),
    layer("store.dir_read_ns", "ns"),
    layer("store.rehydrate_10k_ms", "ms"),
    // runtime (registry + outside timing)
    layer("runtime.queue_p50_us", "us"),
    layer("runtime.queue_p99_us", "us"),
    layer("runtime.decode_mean_us", "us"),
    layer("runtime.handle_mean_us", "us"),
    layer("runtime.send_mean_us", "us"),
    layer_up("runtime.recv_batch_mean", "count"),
    layer_up("runtime.send_batch_mean", "count"),
    layer("runtime.inbound_overflow", "count"),
    layer("runtime.pool_misses", "count"),
    layer("runtime.wheel_high_water", "count"),
    layer("runtime.delayq_high_water", "count"),
    layer("runtime.exec_roundtrip_us", "us"),
    layer("runtime.handoff_p50_us", "us"),
    layer("runtime.handoff_p99_us", "us"),
    layer_up("runtime.sat_goodput_adus_per_s", "1/s"),
    // hub, control
    layer("hub.send_roundtrip_us", "us"),
    layer("hub.stats_roundtrip_us", "us"),
    layer("hub.create_us", "us"),
    layer("hub.drain_us", "us"),
    layer("hub.demux_splits", "count"),
    layer("hub.inbound_overflow", "count"),
    layer("hub.rx_unjoined_group", "count"),
    layer("hub.quota_overflow", "count"),
    layer("control.handle_line_us", "us"),
    // recovery, traffic (wire spans)
    layer("recovery.losses", "count"),
    layer("recovery.p50_rtt", "rtt"),
    layer("recovery.p90_rtt", "rtt"),
    layer("recovery.request_delay_p50_rtt", "rtt"),
    layer("recovery.requests_per_loss", "count"),
    layer("recovery.repairs_per_loss", "count"),
    layer("recovery.via_repair_share", "share"),
    layer("traffic.data_frames_per_adu", "count"),
    layer("traffic.session_frames_per_adu", "count"),
    layer("traffic.request_frames_per_adu", "count"),
    layer("traffic.repair_frames_per_adu", "count"),
    layer("traffic.session_bytes_share", "share"),
    // netsim, obs, chaos
    layer("netsim.event_ns", "ns"),
    layer("netsim.events_per_round", "count"),
    layer("netsim.hops_per_round", "count"),
    layer_up("netsim.flood_events_per_s", "1/s"),
    layer("obs.counter_inc_ns", "ns"),
    layer("obs.hist_record_ns", "ns"),
    layer("chaos.verdict_ns", "ns"),
    layer("chaos.delayq_push_pop_ns", "ns"),
    // the benchmark itself
    layer("loadgen.send_lag_p99_us", "us"),
    layer("loadgen.poll_gap_p99_us", "us"),
    layer("tap.frames_missed", "count"),
    layer("trace.overhead_share", "share"),
    layer_up("trace.accounted_share", "share"),
];

/// Find a metric definition (either list) by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One row of the interaction table: which end-to-end metric a layer
/// metric should move, on which workload, and where it must stay flat.
pub struct Interaction {
    /// Layer metric(s).
    pub layer: &'static str,
    /// End-to-end metric(s) expected to move.
    pub moves: &'static str,
    /// Workload(s) it should move on.
    pub on: &'static str,
    /// Where it must stay flat.
    pub flat_on: &'static str,
}

/// The interaction table; a later claim is checked against it.
pub const INTERACTIONS: [Interaction; 10] = [
    Interaction {
        layer: "wire.*_ns, envelope.*_ns",
        moves: "cpu_us_per_adu (about two codec passes per ADU)",
        on: "pair_stream; wire.* also sim_fig4",
        flat_on: "latency metrics everywhere; envelope.* on sim_fig4",
    },
    Interaction {
        layer: "wire.session*_bytes, envelope.overhead_bytes",
        moves: "wire_bytes_per_adu",
        on: "mesh4_lossy (4 sources), hub_groups4",
        flat_on: "frames_per_adu, unless the session scheduler's byte budget re-spends the saving (say which)",
    },
    Interaction {
        layer: "batch.*, pool.*, runtime.recv/send_batch_mean",
        moves: "cpu_us_per_adu",
        on: "pair_stream",
        flat_on: "sim_fig4 (all six), frames_per_adu everywhere",
    },
    Interaction {
        layer: "runtime.queue_*, runtime.handoff_*",
        moves: "adu_p99_rtt once queueing reaches about 0.5 ms; cpu_us_per_adu",
        on: "pair_stream, mesh4_lossy",
        flat_on: "sim_fig4",
    },
    Interaction {
        layer: "hub.*, control.*, envelope.precheck_ns",
        moves: "cpu_us_per_adu, setup_s, adu_p99_rtt",
        on: "hub_groups4",
        flat_on: "pair_stream, mesh4_lossy, sim_fig4",
    },
    Interaction {
        layer: "wheel.*, agent.drive_timer_ns, adustore.fetch_ns",
        moves: "cpu_us_per_adu; adu_p99_rtt if timers fire late",
        on: "mesh4_lossy, hub_groups4",
        flat_on: "pair_stream (two session timers, nothing else)",
    },
    Interaction {
        layer: "agent.*, recovery.*, traffic.*",
        moves: "frames_per_adu, adu_p99_rtt, cpu_us_per_adu",
        on: "sim_fig4 exactly, mesh4_lossy statistically",
        flat_on: "pair_stream frames_per_adu",
    },
    Interaction {
        layer: "netsim.*",
        moves: "cpu_us_per_adu, setup_s",
        on: "sim_fig4",
        flat_on: "sim_fig4's own frames_per_adu, adu_*_rtt, wire_bytes_per_adu (exact); all live workloads",
    },
    Interaction {
        layer: "store.*",
        moves: "nothing: no end-to-end workload runs durable yet",
        on: "-",
        flat_on: "all 24 pairs; a store optimisation first needs a benchmark-extending issue",
    },
    Interaction {
        layer: "obs.*, trace.overhead_share",
        moves: "cpu_us_per_adu only when a registry is attached",
        on: "traced runs",
        flat_on: "untraced runs",
    },
];

/// The command the driver runs, before it appends `--workload ...`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "srmbench/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [");
    for (i, c) in COMMAND.iter().enumerate() {
        let _ = write!(s, "{}\"{}\"", if i > 0 { ", " } else { "" }, json_escape(c));
    }
    let _ = write!(
        s,
        "],\n  \"paths\": [\"srmbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n"
    );
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            json_escape(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            if m.higher_better { "higher" } else { "lower" },
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_parses_and_has_exactly_the_contract_keys() {
        use srm_transport::control::{parse_json, Jv};
        let Jv::O(fields) = parse_json(&benchmark_json()).expect("valid JSON") else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn generator_rates_divide_into_their_ticks_without_starving_a_core() {
        for w in WORKLOADS.iter().filter_map(|w| w.live) {
            for p in [w.lat, w.cpu] {
                // One exec per publisher per non-empty tick: the RPC rate is
                // bounded by the tick rate, whatever the ADU rate.
                let rpcs_per_s = (1_000_000 / p.tick_us).min(u64::from(p.rate));
                assert!(rpcs_per_s <= 5_000);
                assert!(p.poll_us % p.tick_us == 0, "polls land on ticks");
            }
        }
    }
}
