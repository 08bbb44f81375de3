//! In-process multi-node loopback harness.
//!
//! Binds one 127.0.0.1 socket per member *first*, so every node can be
//! spawned with the full peer list ([`Mode::Mesh`]), then runs each node's
//! reactor on its own thread — a whole SRM session inside one test process,
//! over real UDP datagrams. "Deterministic enough" for integration tests:
//! timer *draws* are seeded per node, and tests make outcomes robust to
//! scheduling jitter by separating competing timer ranges (seeded
//! distances), not by assuming exact interleavings.

use crate::runtime::{Mode, Node, NodeHandle, NodeOptions};
use netsim::GroupId;
use srm::{SourceId, SrmAgent, SrmConfig};
use std::io;
use std::net::{SocketAddr, UdpSocket};

/// A set of loopback-mesh nodes forming one SRM session.
pub struct Harness {
    /// Handles, in member order (member `i` is `SourceId(i + 1)`).
    pub nodes: Vec<NodeHandle>,
}

impl Harness {
    /// Spawn `n` members of `group` on a 127.0.0.1 unicast mesh.
    ///
    /// `customize` runs once per node before spawn with the node's index,
    /// the full address list (index-aligned, e.g. for per-destination
    /// [`crate::ChaosPlan::drop_nth_to`] rules), and the default options to amend.
    pub fn loopback<F>(
        n: usize,
        group: GroupId,
        cfg: &SrmConfig,
        mut customize: F,
    ) -> io::Result<Harness>
    where
        F: FnMut(usize, &[SocketAddr], &mut NodeOptions),
    {
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<io::Result<_>>()?;

        let mut nodes = Vec::with_capacity(n);
        for (i, socket) in sockets.into_iter().enumerate() {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &a)| a)
                .collect();
            let mut opts = NodeOptions::new(SourceId(i as u64 + 1), group, cfg.clone());
            customize(i, &addrs, &mut opts);
            nodes.push(Node::spawn_on(socket, Mode::Mesh { peers }, opts)?);
        }
        Ok(Harness { nodes })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the harness has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Stop every node and return the final agents, in member order.
    pub fn shutdown(self) -> Vec<SrmAgent> {
        self.nodes.into_iter().map(NodeHandle::shutdown).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use srm::PageId;
    use std::time::{Duration, Instant};

    /// Two loopback nodes, no loss: an ADU multicast by one arrives at the
    /// other over a real socket within a bounded wall-clock wait.
    #[test]
    fn two_nodes_exchange_over_udp() {
        let group = GroupId(1);
        let cfg = SrmConfig::fixed(2);
        let h = Harness::loopback(2, group, &cfg, |_, _, _| {}).unwrap();
        let page = PageId::new(SourceId(1), 0);
        let name = h.nodes[0].send_data(page, Bytes::from_static(b"hello, wire"));
        assert_eq!(name.source, SourceId(1));

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while Instant::now() < deadline {
            got.extend(h.nodes[1].take_delivered());
            if !got.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(got.len(), 1, "ADU did not arrive over loopback UDP");
        assert_eq!(got[0].name, name);
        assert_eq!(got[0].payload.as_ref(), b"hello, wire");
        assert!(h.nodes[0].frames_sent() >= 1);
        let agents = h.shutdown();
        assert_eq!(agents.len(), 2);
        assert_eq!(agents[0].metrics.data_sent, 1);
    }
}
