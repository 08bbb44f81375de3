//! Decoding a simulated multicast once, in `netsim::Packet`'s shared slot,
//! is invisible to the protocol.
//!
//! One seeded 50-member Fig-4 session runs twice: with plain [`SrmAgent`]s,
//! whose `on_packet` decodes each transmission once and hands every member
//! a copy of the result, and with a thin wrapper whose `on_packet` calls
//! `drive_packet`, which decodes the payload again at every receiver. The
//! simulator's full event log and every member's counters and deliveries
//! must come out identical, and one corrupt multicast must cost every
//! member exactly one `decode_errors` on both sides.

use bytes::Bytes;
use netsim::loss::OneShotLinkDrop;
use netsim::{flow, Application, Ctx, NodeId, Packet, SendOptions, SimDuration, Simulator};
use srm::{SourceId, SrmAgent, SrmConfig};
use srm_experiments::scenario::GROUP;
use srm_experiments::{fig4, Session};

const MEMBERS: usize = 50;
const ROUNDS: usize = 20;

/// An [`SrmAgent`] that decodes every packet it hears by itself.
struct PerReceiver(SrmAgent);

impl Application for PerReceiver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.0.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        self.0.drive_packet(ctx, pkt);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.0.on_timer(ctx, token);
    }
}

trait Member: Application {
    fn agent(&mut self) -> &mut SrmAgent;
}

impl Member for SrmAgent {
    fn agent(&mut self) -> &mut SrmAgent {
        self
    }
}

impl Member for PerReceiver {
    fn agent(&mut self) -> &mut SrmAgent {
        &mut self.0
    }
}

/// The simulator `Session::build` makes for `layout`, with each agent
/// wrapped by `wrap`, tracing on.
fn build<A: Member>(layout: &Session, sim_seed: u64, wrap: fn(SrmAgent) -> A) -> Simulator<A> {
    let mut sim = Simulator::new(layout.sim.topology().clone(), sim_seed);
    for &m in &layout.members {
        let mut agent = SrmAgent::new(SourceId(m.0 as u64), GROUP, SrmConfig::fixed(MEMBERS));
        agent.session_enabled = false;
        agent.set_current_page(layout.page());
        agent
            .distances_mut()
            .set_exact_distances(&mut sim, m, &layout.members);
        sim.install(m, wrap(agent));
        sim.join(m, GROUP);
    }
    sim.trace.enable();
    sim
}

/// What a run shows: the event log, then per member its counters and
/// every ADU it delivered.
struct Outcome {
    trace: Vec<String>,
    members: Vec<(NodeId, String, Vec<String>)>,
}

/// `run_round`'s drive (drop armed, the doomed ADU, the one that exposes
/// its loss, quiescence) `ROUNDS` times, then one corrupt multicast from a
/// node outside the session.
fn run<A: Member>(layout: &Session, mut sim: Simulator<A>) -> Outcome {
    let (source, page) = (layout.source, layout.page());
    let mut delivered: Vec<Vec<String>> = vec![Vec::new(); MEMBERS];
    for _ in 0..ROUNDS {
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(
            layout.congested_link.expect("a congested link"),
            source,
            flow::DATA,
        )));
        for gap in [0.01, 0.0] {
            sim.exec(source, |a, ctx| {
                a.agent().send_data(ctx, page, Bytes::from_static(b"adu"));
            });
            sim.run_until(sim.now() + SimDuration::from_secs_f64(gap));
        }
        assert!(sim.run_until_idle(sim.now() + SimDuration::from_secs(100_000)));
        for (i, &m) in layout.members.iter().enumerate() {
            let got = sim.app_mut(m).unwrap().agent().take_delivered();
            delivered[i].extend(got.iter().map(|d| format!("{d:?}")));
        }
    }
    let outsider = sim
        .topology()
        .nodes()
        .find(|n| !layout.members.contains(n))
        .expect("a 1000-node tree has non-members");
    let garbage = Bytes::from_static(&[0xff; 24]);
    sim.send_from(outsider, GROUP, garbage, SendOptions::default());
    assert!(sim.run_until_idle(sim.now() + SimDuration::from_secs(100)));
    Outcome {
        trace: sim.trace.events().map(|e| format!("{e:?}")).collect(),
        members: layout
            .members
            .iter()
            .zip(delivered)
            .map(|(&m, got)| {
                let metrics = &sim.app_mut(m).unwrap().agent().metrics;
                assert_eq!(metrics.decode_errors, 1, "member {m:?}");
                (m, format!("{metrics:?}"), got)
            })
            .collect(),
    }
}

#[test]
fn decoding_once_per_multicast_changes_nothing_a_member_sees() {
    let sim_seed = 0x5eed;
    let mut spec = fig4::spec(MEMBERS, 3, SrmConfig::fixed(MEMBERS));
    spec.timer_seed = Some(sim_seed);
    let layout = spec.build();
    assert_eq!(layout.members.len(), MEMBERS);

    let memo = run(&layout, build(&layout, sim_seed, |a| a));
    let per_receiver = run(&layout, build(&layout, sim_seed, PerReceiver));
    for (m, _, got) in &memo.members {
        if *m != layout.source {
            assert_eq!(got.len(), 2 * ROUNDS, "member {m:?} delivered every ADU");
        }
    }
    assert_eq!(memo.trace.len(), per_receiver.trace.len());
    assert!(memo.trace == per_receiver.trace, "the event logs differ");
    for (a, b) in memo.members.iter().zip(&per_receiver.members) {
        assert_eq!(a, b);
    }
}
