//! The receiver-based *unicast-NACK* baseline of Section VI's comparison
//! with La Porta & Schwartz \[29\]: receivers detect gaps and unicast NACKs
//! to the sender, which unicasts retransmissions back.
//!
//! Against this baseline the paper weighs SRM's *multicast* NACKs: "for
//! multicast groups that could have hundreds of members … multicasting
//! NACKs would be quite effective in reducing the unnecessary use of
//! bandwidth" — because one multicast NACK suppresses the other G−2.

use crate::wire::{flow, BaselineMsg};
use netsim::{Application, Ctx, GroupId, NodeId, Packet, SendOptions, SimDuration};
use std::collections::BTreeSet;

/// One node of the unicast-NACK protocol.
pub enum NackApp {
    /// The data source.
    Sender(NackSender),
    /// A receiver.
    Receiver(NackReceiver),
}

/// Sender: stateless beyond its own send history (receiver-reliable).
pub struct NackSender {
    group: GroupId,
    next_seq: u64,
    /// NACKs received (compare with SRM's suppressed request count).
    pub nacks_received: u64,
    /// Unicast retransmissions sent.
    pub retx_sent: u64,
}

/// Receiver: gap detection plus a NACK retransmit timer.
pub struct NackReceiver {
    sender: NodeId,
    /// Sequences received.
    pub received: BTreeSet<u64>,
    /// Highest sequence seen (gap detection).
    highest: Option<u64>,
    /// Sequences currently being chased.
    pub missing: BTreeSet<u64>,
    /// NACK retransmit timeout.
    pub rto: SimDuration,
    /// NACKs this receiver has sent.
    pub nacks_sent: u64,
}

impl NackSender {
    /// A sender multicasting to `group`.
    pub fn new(group: GroupId) -> Self {
        NackSender {
            group,
            next_seq: 0,
            nacks_received: 0,
            retx_sent: 0,
        }
    }

    /// Multicast the next data packet.
    pub fn send_data(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.multicast_with(
            self.group,
            BaselineMsg::Data { seq }.encode(),
            SendOptions::for_flow(flow::DATA),
        );
        seq
    }
}

impl NackReceiver {
    /// A receiver that NACKs to `sender` with retransmit timeout `rto`.
    pub fn new(sender: NodeId, rto: SimDuration) -> Self {
        NackReceiver {
            sender,
            received: BTreeSet::new(),
            highest: None,
            missing: BTreeSet::new(),
            rto,
            nacks_sent: 0,
        }
    }

    /// All gaps closed?
    pub fn complete(&self) -> bool {
        self.missing.is_empty()
    }

    fn note_seq(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        self.received.insert(seq);
        self.missing.remove(&seq);
        let prev = self.highest.map_or(0, |h| h + 1);
        if self.highest.is_none_or(|h| seq > h) {
            self.highest = Some(seq);
            for gap in prev..seq {
                if !self.received.contains(&gap) && self.missing.insert(gap) {
                    self.send_nack(ctx, gap);
                }
            }
        }
    }

    fn send_nack(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        self.nacks_sent += 1;
        ctx.unicast(
            self.sender,
            BaselineMsg::Nack {
                seq,
                from: ctx.node,
            }
            .encode(),
            SendOptions::for_flow(flow::NACK),
        );
        ctx.set_timer(self.rto, seq);
    }
}

impl Application for NackApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Some(msg) = BaselineMsg::from_packet(pkt) else {
            return;
        };
        match self {
            NackApp::Sender(s) => {
                if let BaselineMsg::Nack { seq, from } = msg {
                    s.nacks_received += 1;
                    s.retx_sent += 1;
                    ctx.unicast(
                        from,
                        BaselineMsg::Retx { seq }.encode(),
                        SendOptions::for_flow(flow::RETX),
                    );
                }
            }
            NackApp::Receiver(r) => match msg {
                BaselineMsg::Data { seq } | BaselineMsg::Retx { seq } => r.note_seq(ctx, seq),
                _ => {}
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let NackApp::Receiver(r) = self else {
            return;
        };
        let seq = token;
        if r.missing.contains(&seq) {
            r.send_nack(ctx, seq); // chase again
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::generators::star;
    use netsim::loss::OneShotLinkDrop;
    use netsim::{SimTime, Simulator};

    const G: GroupId = GroupId(3);

    fn setup(leaves: usize) -> (Simulator<NackApp>, NodeId) {
        let mut sim = Simulator::new(star(leaves), 2);
        let sender = NodeId(1);
        sim.install(sender, NackApp::Sender(NackSender::new(G)));
        sim.join(sender, G);
        for i in 2..=leaves as u32 {
            sim.install(
                NodeId(i),
                NackApp::Receiver(NackReceiver::new(sender, SimDuration::from_secs(30))),
            );
            sim.join(NodeId(i), G);
        }
        (sim, sender)
    }

    #[test]
    fn shared_loss_triggers_one_nack_per_receiver() {
        // Drop on the sender's access link: every receiver misses packet 0,
        // detects the gap from packet 1, and unicasts a NACK — G−1 NACKs
        // converge on the sender (no suppression in this baseline).
        let (mut sim, sender) = setup(8);
        let l = sim.topology().link_between(NodeId(0), sender).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(l, sender, flow::DATA)));
        sim.exec(sender, |a, ctx| {
            let NackApp::Sender(s) = a else { unreachable!() };
            s.send_data(ctx);
        });
        sim.run_until(SimTime::from_secs(2));
        sim.exec(sender, |a, ctx| {
            let NackApp::Sender(s) = a else { unreachable!() };
            s.send_data(ctx);
        });
        sim.run_until_idle(SimTime::from_secs(10_000));
        let NackApp::Sender(s) = sim.app(sender).unwrap() else {
            unreachable!()
        };
        assert_eq!(s.nacks_received, 7);
        assert_eq!(s.retx_sent, 7, "one unicast retransmission per receiver");
        for i in 2..=8u32 {
            let NackApp::Receiver(r) = sim.app(NodeId(i)).unwrap() else {
                unreachable!()
            };
            assert!(r.complete(), "receiver {i}");
            assert_eq!(r.received.len(), 2);
        }
    }

    #[test]
    fn nack_retransmit_timer_survives_lost_nacks() {
        let (mut sim, sender) = setup(4);
        // Drop data toward receiver 3, and also its first NACK.
        let l3 = sim.topology().link_between(NodeId(0), NodeId(3)).unwrap();
        sim.set_loss_model(Box::new(netsim::loss::ScriptedDrop::new(vec![
            (l3, 1), // the data copy
            (l3, 3), // its first NACK (data pkt2 is ordinal 2)
        ])));
        sim.exec(sender, |a, ctx| {
            let NackApp::Sender(s) = a else { unreachable!() };
            s.send_data(ctx);
        });
        sim.run_until(SimTime::from_secs(2));
        sim.exec(sender, |a, ctx| {
            let NackApp::Sender(s) = a else { unreachable!() };
            s.send_data(ctx);
        });
        sim.run_until_idle(SimTime::from_secs(100_000));
        let NackApp::Receiver(r) = sim.app(NodeId(3)).unwrap() else {
            unreachable!()
        };
        assert!(r.complete(), "recovered despite the lost NACK");
        assert!(r.nacks_sent >= 2);
    }
}
