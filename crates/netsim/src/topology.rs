//! Network topology: nodes joined by bidirectional links.
//!
//! The SRM paper's simulations use undirected graphs with unit-delay links
//! (Section IV: "all links have distance of 1"). Each link additionally
//! carries a *multicast threshold* — the minimum TTL a packet needs in order
//! to be forwarded across it (Section VII-B3, TTL-based scoping) — and each
//! node belongs to an *administrative zone* used by admin-scoped delivery
//! (Section VII-B1).

use crate::time::SimDuration;
use std::fmt;

/// Identifier of a node in the topology (index into the node table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an undirected link (index into the link table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The index as `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The index as `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A bidirectional link between two nodes.
#[derive(Clone, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Minimum TTL required to forward a multicast packet across this link
    /// (Mbone-style threshold; default 1).
    pub threshold: u8,
}

impl Link {
    /// The endpoint opposite `n`; panics if `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            assert_eq!(n, self.b, "node {n:?} is not on this link");
            self.a
        }
    }
}

/// An immutable network graph.
///
/// Build one with [`TopologyBuilder`] or the constructors in
/// [`crate::generators`].
#[derive(Clone, Debug)]
pub struct Topology {
    links: Vec<Link>,
    /// adjacency: for each node, (neighbor, link) pairs sorted by neighbor id.
    adj: Vec<Vec<(NodeId, LinkId)>>,
    /// administrative zone of each node (0 = global default zone).
    zones: Vec<u32>,
}

impl Topology {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All node ids in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Neighbors of `n` as (neighbor, link) pairs, sorted by neighbor id.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.index()]
    }

    /// Degree of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// The administrative zone of node `n`.
    pub fn zone(&self, n: NodeId) -> u32 {
        self.zones[n.index()]
    }

    /// Assign node `n` to administrative zone `z`.
    pub fn set_zone(&mut self, n: NodeId, z: u32) {
        self.zones[n.index()] = z;
    }

    /// Set the multicast threshold on a link.
    pub fn set_threshold(&mut self, l: LinkId, threshold: u8) {
        self.links[l.index()].threshold = threshold;
    }

    /// Find the link joining `a` and `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adj[a.index()]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|&(_, l)| l)
    }

    /// True if the graph is connected (or empty).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// True if the graph is a tree (connected with exactly n−1 edges).
    pub fn is_tree(&self) -> bool {
        self.num_nodes() > 0
            && self.num_links() == self.num_nodes() - 1
            && self.is_connected()
    }

    /// Export as Graphviz DOT (undirected), labeling non-default delays and
    /// thresholds — handy for eyeballing generated topologies.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "graph {name} {{");
        for n in self.nodes() {
            if self.zone(n) != 0 {
                let _ = writeln!(s, "  n{} [label=\"n{} z{}\"];", n.0, n.0, self.zone(n));
            }
        }
        for (_, l) in self.links() {
            let mut attrs = Vec::new();
            let d = l.delay.as_secs_f64();
            if (d - 1.0).abs() > 1e-9 {
                attrs.push(format!("label=\"{d:.3}s\""));
            }
            if l.threshold != 1 {
                attrs.push(format!("style=dashed, taillabel=\"t{}\"", l.threshold));
            }
            let attr = if attrs.is_empty() {
                String::new()
            } else {
                format!(" [{}]", attrs.join(", "))
            };
            let _ = writeln!(s, "  n{} -- n{}{attr};", l.a.0, l.b.0);
        }
        s.push_str("}\n");
        s
    }
}

/// Incremental construction of a [`Topology`].
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    num_nodes: usize,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Start a builder with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        TopologyBuilder {
            num_nodes: n,
            links: Vec::new(),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add a unit-delay link with threshold 1 between `a` and `b`.
    pub fn link(&mut self, a: NodeId, b: NodeId) -> LinkId {
        self.link_with(a, b, SimDuration::from_secs(1), 1)
    }

    /// Add a link with explicit delay and threshold.
    pub fn link_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: SimDuration,
        threshold: u8,
    ) -> LinkId {
        assert!(a.index() < self.num_nodes, "link endpoint {a:?} out of range");
        assert!(b.index() < self.num_nodes, "link endpoint {b:?} out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            delay,
            threshold,
        });
        id
    }

    /// Finalize into an immutable [`Topology`].
    pub fn build(self) -> Topology {
        let mut adj: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); self.num_nodes];
        for (i, l) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            adj[l.a.index()].push((l.b, id));
            adj[l.b.index()].push((l.a, id));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        Topology {
            links: self.links,
            adj,
            zones: vec![0; self.num_nodes],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new(3);
        b.link(NodeId(0), NodeId(1));
        b.link(NodeId(1), NodeId(2));
        b.link(NodeId(2), NodeId(0));
        b.build()
    }

    #[test]
    fn builder_counts() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.degree(NodeId(1)), 2);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let t = triangle();
        let ns: Vec<NodeId> = t.neighbors(NodeId(2)).iter().map(|&(n, _)| n).collect();
        assert_eq!(ns, vec![NodeId(0), NodeId(1)]);
        let l = t.link_between(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(t.link_between(NodeId(2), NodeId(0)), Some(l));
    }

    #[test]
    fn link_other_endpoint() {
        let t = triangle();
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(t.link(l).other(NodeId(0)), NodeId(1));
        assert_eq!(t.link(l).other(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic]
    fn other_panics_for_non_endpoint() {
        let t = triangle();
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        t.link(l).other(NodeId(2));
    }

    #[test]
    fn connectivity_and_tree_checks() {
        let t = triangle();
        assert!(t.is_connected());
        assert!(!t.is_tree()); // a cycle is not a tree

        let mut b = TopologyBuilder::new(4);
        b.link(NodeId(0), NodeId(1));
        b.link(NodeId(1), NodeId(2));
        let t = b.build();
        assert!(!t.is_connected()); // node 3 isolated
        assert!(!t.is_tree());

        let mut b = TopologyBuilder::new(3);
        b.link(NodeId(0), NodeId(1));
        b.link(NodeId(1), NodeId(2));
        let t = b.build();
        assert!(t.is_tree());
    }

    #[test]
    fn zones_default_and_set() {
        let mut t = triangle();
        assert_eq!(t.zone(NodeId(0)), 0);
        t.set_zone(NodeId(0), 7);
        assert_eq!(t.zone(NodeId(0)), 7);
    }

    #[test]
    fn dot_export_contains_all_edges() {
        let mut t = triangle();
        t.set_zone(NodeId(2), 5);
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        t.set_threshold(l, 16);
        let dot = t.to_dot("tri");
        assert!(dot.starts_with("graph tri {"));
        assert_eq!(dot.matches(" -- ").count(), 3);
        assert!(dot.contains("z5"));
        assert!(dot.contains("t16"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new(2);
        b.link(NodeId(0), NodeId(0));
    }
}
