//! Head-to-head: SRM vs the Section II-A baselines on a shared-loss star.
//!
//! Three protocols recover the same loss — the first packet from the
//! source dropped on its access link of a G-member star — and we count
//! control messages converging on the source and total control-traffic
//! link crossings (the paper's bandwidth proxy):
//!
//! - **sender-based ACK** (TCP-style): G−1 ACKs per packet arrive at the
//!   source *even without loss* (ACK implosion), plus per-receiver unicast
//!   retransmissions;
//! - **unicast NACK** \[29\]: the shared loss draws G−1 NACKs and G−1 unicast
//!   retransmissions;
//! - **SRM**: multicast requests suppress each other (≈ 1 + (G−2)/C2) and
//!   one multicast repair serves everyone.

use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::{f, Table};
use crate::RunOpts;
use netsim::generators::star;
use netsim::loss::OneShotLinkDrop;
use netsim::{GroupId, NodeId, SimDuration, SimTime, Simulator};
use srm::{SrmConfig, TimerParams};
use srm_baselines::{wire, AckApp, AckReceiver, AckSender, NackApp, NackReceiver, NackSender};
use std::collections::BTreeSet;

const GROUP: GroupId = GroupId(9);

/// Measured costs of one protocol on one scenario.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Control messages that arrived at the source.
    pub control_at_source: u64,
    /// Link crossings of control traffic (ACK/NACK/request + retx/repair).
    pub control_hops: u64,
}

/// Run the ACK baseline: 1 data packet, loss toward one receiver.
pub fn ack_cost(g: usize, seed: u64) -> Cost {
    let mut sim = Simulator::new(star(g), seed);
    let sender = NodeId(1);
    let receivers: BTreeSet<NodeId> = (2..=g as u32).map(NodeId).collect();
    sim.install(
        sender,
        AckApp::Sender(AckSender::new(GROUP, receivers, SimDuration::from_secs(20))),
    );
    sim.join(sender, GROUP);
    for i in 2..=g as u32 {
        sim.install(NodeId(i), AckApp::Receiver(AckReceiver::new(sender)));
        sim.join(NodeId(i), GROUP);
    }
    // Loss toward receiver 2 (any single receiver).
    let l = sim.topology().link_between(NodeId(0), NodeId(2)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(l, sender, wire::flow::DATA)));
    sim.exec(sender, |a, ctx| {
        let AckApp::Sender(s) = a else { unreachable!() };
        s.send_data(ctx);
    });
    assert!(sim.run_until_idle(SimTime::from_secs(100_000)));
    let AckApp::Sender(s) = sim.app(sender).unwrap() else {
        unreachable!()
    };
    assert!(s.all_acked());
    Cost {
        control_at_source: s.acks_received,
        control_hops: sim.stats.hops_for(wire::flow::ACK) + sim.stats.hops_for(wire::flow::RETX),
    }
}

/// Run the unicast-NACK baseline: shared loss at the source's access link.
pub fn nack_cost(g: usize, seed: u64) -> Cost {
    let mut sim = Simulator::new(star(g), seed);
    let sender = NodeId(1);
    sim.install(sender, NackApp::Sender(NackSender::new(GROUP)));
    sim.join(sender, GROUP);
    for i in 2..=g as u32 {
        sim.install(
            NodeId(i),
            NackApp::Receiver(NackReceiver::new(sender, SimDuration::from_secs(60))),
        );
        sim.join(NodeId(i), GROUP);
    }
    let l = sim.topology().link_between(NodeId(0), sender).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(l, sender, wire::flow::DATA)));
    sim.exec(sender, |a, ctx| {
        let NackApp::Sender(s) = a else { unreachable!() };
        s.send_data(ctx);
    });
    sim.run_until(SimTime::from_secs(1));
    sim.exec(sender, |a, ctx| {
        let NackApp::Sender(s) = a else { unreachable!() };
        s.send_data(ctx);
    });
    assert!(sim.run_until_idle(SimTime::from_secs(100_000)));
    let NackApp::Sender(s) = sim.app(sender).unwrap() else {
        unreachable!()
    };
    Cost {
        control_at_source: s.nacks_received,
        control_hops: sim.stats.hops_for(wire::flow::NACK) + sim.stats.hops_for(wire::flow::RETX),
    }
}

/// Run SRM on the same shared loss with request-interval width `c2`.
///
/// The Section VI comparison with \[29\] turns on `c2`: "the random interval
/// over which NACK timers were set would have to be at least 10 times [the
/// one-way delay] for the multicasting of NACKs to result in bandwidth
/// savings over a scheme of unicasting NACKs". At `C2 = √G` multicast
/// requests win on *implosion* but can lose on raw bandwidth in a star; at
/// large `C2` they win on both.
pub fn srm_cost(g: usize, c2: f64, seed: u64) -> Cost {
    let spec = ScenarioSpec::round(
        TopoSpec::Star { leaves: g },
        MembersSpec::All,
        DropSpec::AdjacentToSource,
        SrmConfig {
            timers: TimerParams {
                c1: 2.0,
                c2,
                d1: 1.0,
                d2: 1.0,
            },
            ..SrmConfig::default()
        },
        seed,
    );
    let mut s = spec.build();
    let r = run_round(&mut s, 100_000.0);
    assert!(r.all_recovered);
    Cost {
        control_at_source: r.requests, // every multicast request reaches the source
        control_hops: s.sim.stats.hops_for(netsim::flow::REQUEST)
            + s.sim.stats.hops_for(netsim::flow::REPAIR),
    }
}

/// The comparison table.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let sizes: Vec<usize> = if opts.quick {
        vec![10, 30]
    } else {
        vec![10, 30, 100, 200]
    };
    let sims = if opts.quick { 3 } else { 10 };
    let mut t = Table::new(
        "baseline-compare: recovering a shared loss on a G-member star (means over sims)",
        &[
            "G",
            "ack_ctrl_at_src",
            "ack_ctrl_hops",
            "unack_nacks_at_src",
            "unack_ctrl_hops",
            "srm_reqs(C2=sqrtG)",
            "srm_hops(C2=sqrtG)",
            "srm_reqs(C2=2G)",
            "srm_hops(C2=2G)",
        ],
    );
    for g in sizes {
        let mut acc = [0.0f64; 8];
        for rep in 0..sims {
            let seed = 0xbc_0000 ^ ((g as u64) << 8) ^ rep;
            let a = ack_cost(g, seed);
            let n = nack_cost(g, seed);
            let s1 = srm_cost(g, (g as f64).sqrt(), seed);
            let s2 = srm_cost(g, 2.0 * g as f64, seed);
            acc[0] += a.control_at_source as f64;
            acc[1] += a.control_hops as f64;
            acc[2] += n.control_at_source as f64;
            acc[3] += n.control_hops as f64;
            acc[4] += s1.control_at_source as f64;
            acc[5] += s1.control_hops as f64;
            acc[6] += s2.control_at_source as f64;
            acc[7] += s2.control_hops as f64;
        }
        for v in &mut acc {
            *v /= sims as f64;
        }
        t.row(vec![
            g.to_string(),
            f(acc[0]),
            f(acc[1]),
            f(acc[2]),
            f(acc[3]),
            f(acc[4]),
            f(acc[5]),
            f(acc[6]),
            f(acc[7]),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srm_beats_baselines_at_scale() {
        let g = 60;
        let a = ack_cost(g, 1);
        let n = nack_cost(g, 1);
        let s_sqrt = srm_cost(g, (g as f64).sqrt(), 1);
        let s_wide = srm_cost(g, 2.0 * g as f64, 1);
        // ACK implosion: control at source equals the receiver count even
        // though only one receiver lost the packet.
        assert_eq!(a.control_at_source, (g - 1) as u64);
        // Unicast NACKs: one per receiver for the shared loss.
        assert_eq!(n.control_at_source, (g - 1) as u64);
        // SRM: suppression collapses implosion at any C2.
        assert!(
            s_sqrt.control_at_source * 4 < n.control_at_source,
            "SRM {} vs unicast-NACK {}",
            s_sqrt.control_at_source,
            n.control_at_source
        );
        // The [29] bandwidth crossover: with a wide enough interval,
        // multicast NACKs also win on raw link crossings.
        assert!(
            s_wide.control_hops < n.control_hops,
            "SRM-wide hops {} vs NACK hops {}",
            s_wide.control_hops,
            n.control_hops
        );
        let _ = srm_baselines::ack::AckSender::new(GROUP, Default::default(), SimDuration::from_secs(1));
        let _ = srm_baselines::nack::NackSender::new(GROUP);
    }
}
