//! The sender-based (TCP-style) reliable multicast baseline of Section
//! II-A — the design the paper rejects.
//!
//! "If a TCP-style, sender-based approach is applied to multicast
//! distribution, a number of problems occur. First, because data packets
//! trigger acknowledgments … from all the receivers, the sender is subject
//! to the well-known ACK implosion effect. Also, if the sender is
//! responsible for reliable delivery, it must continuously track the
//! changing set of active receivers and the reception state of each."
//!
//! This implementation makes those costs measurable: the sender holds
//! per-receiver state, every data packet draws one unicast ACK per
//! receiver, and retransmissions are unicast per unacknowledged receiver
//! after a timeout.

use crate::wire::{flow, BaselineMsg};
use netsim::{Application, Ctx, GroupId, NodeId, Packet, SendOptions, SimDuration};
use std::collections::{BTreeMap, BTreeSet};

/// One node of the ACK-based protocol: either the single sender or one of
/// the receivers.
pub enum AckApp {
    /// The data source.
    Sender(AckSender),
    /// A receiver.
    Receiver(AckReceiver),
}

/// Sender state: the per-receiver tracking SRM exists to avoid.
pub struct AckSender {
    group: GroupId,
    /// The receiver set the sender must know (itself a scaling liability —
    /// "the receiver set may be expensive or impossible to obtain").
    pub receivers: BTreeSet<NodeId>,
    /// Outstanding: seq → receivers that have not ACKed yet.
    pub outstanding: BTreeMap<u64, BTreeSet<NodeId>>,
    next_seq: u64,
    /// Fixed retransmit timeout.
    pub rto: SimDuration,
    /// ACKs received (the implosion counter).
    pub acks_received: u64,
    /// Unicast retransmissions performed.
    pub retx_sent: u64,
}

/// Receiver state: ACK everything, deliver once.
pub struct AckReceiver {
    sender: NodeId,
    /// Sequences received.
    pub received: BTreeSet<u64>,
    /// Duplicate data/retx arrivals.
    pub duplicates: u64,
}

impl AckSender {
    /// A sender multicasting to `group`, retransmitting after `rto`.
    pub fn new(group: GroupId, receivers: BTreeSet<NodeId>, rto: SimDuration) -> Self {
        AckSender {
            group,
            receivers,
            outstanding: BTreeMap::new(),
            next_seq: 0,
            rto,
            acks_received: 0,
            retx_sent: 0,
        }
    }

    /// Multicast the next data packet; starts per-packet ACK tracking.
    pub fn send_data(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding.insert(seq, self.receivers.clone());
        ctx.multicast_with(
            self.group,
            BaselineMsg::Data { seq }.encode(),
            SendOptions::for_flow(flow::DATA),
        );
        ctx.set_timer(self.rto, seq);
        seq
    }

    /// All packets fully acknowledged?
    pub fn all_acked(&self) -> bool {
        self.outstanding.values().all(|s| s.is_empty())
    }
}

impl AckReceiver {
    /// A receiver that ACKs to `sender`.
    pub fn new(sender: NodeId) -> Self {
        AckReceiver {
            sender,
            received: BTreeSet::new(),
            duplicates: 0,
        }
    }
}

impl Application for AckApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Some(msg) = BaselineMsg::from_packet(pkt) else {
            return;
        };
        match self {
            AckApp::Sender(s) => {
                if let BaselineMsg::Ack { seq, from } = msg {
                    s.acks_received += 1;
                    if let Some(waiting) = s.outstanding.get_mut(&seq) {
                        waiting.remove(&from);
                    }
                }
            }
            AckApp::Receiver(r) => match msg {
                BaselineMsg::Data { seq } | BaselineMsg::Retx { seq } => {
                    if !r.received.insert(seq) {
                        r.duplicates += 1;
                    }
                    // Every arrival is acknowledged (TCP-style duplicate
                    // ACKs on duplicate data).
                    ctx.unicast(
                        r.sender,
                        BaselineMsg::Ack {
                            seq,
                            from: ctx.node,
                        }
                        .encode(),
                        SendOptions::for_flow(flow::ACK),
                    );
                }
                _ => {}
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let AckApp::Sender(s) = self else {
            return;
        };
        let seq = token;
        let Some(waiting) = s.outstanding.get(&seq) else {
            return;
        };
        if waiting.is_empty() {
            return;
        }
        // Unicast a retransmission to every straggler, then re-arm.
        for &r in waiting.clone().iter() {
            s.retx_sent += 1;
            ctx.unicast(
                r,
                BaselineMsg::Retx { seq }.encode(),
                SendOptions::for_flow(flow::RETX),
            );
        }
        ctx.set_timer(s.rto, seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::generators::star;
    use netsim::loss::OneShotLinkDrop;
    use netsim::{SimTime, Simulator};

    const G: GroupId = GroupId(2);

    fn setup(leaves: usize) -> (Simulator<AckApp>, NodeId) {
        let mut sim = Simulator::new(star(leaves), 1);
        let sender = NodeId(1);
        let receivers: BTreeSet<NodeId> = (2..=leaves as u32).map(NodeId).collect();
        sim.install(
            sender,
            AckApp::Sender(AckSender::new(G, receivers, SimDuration::from_secs(20))),
        );
        sim.join(sender, G);
        for i in 2..=leaves as u32 {
            sim.install(NodeId(i), AckApp::Receiver(AckReceiver::new(sender)));
            sim.join(NodeId(i), G);
        }
        (sim, sender)
    }

    #[test]
    fn every_receiver_acks_every_packet() {
        let (mut sim, sender) = setup(10);
        sim.exec(sender, |a, ctx| {
            let AckApp::Sender(s) = a else { unreachable!() };
            s.send_data(ctx);
        });
        sim.run_until_idle(SimTime::from_secs(1000));
        let AckApp::Sender(s) = sim.app(sender).unwrap() else {
            unreachable!()
        };
        assert_eq!(s.acks_received, 9, "ACK implosion: one per receiver");
        assert!(s.all_acked());
        assert_eq!(s.retx_sent, 0);
    }

    #[test]
    fn lost_packet_is_retransmitted_per_receiver() {
        let (mut sim, sender) = setup(6);
        // Drop the data copy toward receiver 4.
        let l = sim.topology().link_between(NodeId(0), NodeId(4)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(l, sender, flow::DATA)));
        sim.exec(sender, |a, ctx| {
            let AckApp::Sender(s) = a else { unreachable!() };
            s.send_data(ctx);
        });
        sim.run_until_idle(SimTime::from_secs(10_000));
        let AckApp::Sender(s) = sim.app(sender).unwrap() else {
            unreachable!()
        };
        assert!(s.all_acked());
        assert_eq!(s.retx_sent, 1, "exactly one unicast retransmission");
        let AckApp::Receiver(r) = sim.app(NodeId(4)).unwrap() else {
            unreachable!()
        };
        assert!(r.received.contains(&0));
    }
}
