//! Topology generators used by the paper's evaluation.
//!
//! - chains (Fig. 1) and stars (Fig. 2) for the analytic Section IV;
//! - balanced bounded-degree trees (Sections V-B, VII) — "interior nodes
//!   have degree 4", 1000 or 5000 nodes;
//! - random labeled trees built from uniform Prüfer sequences, the
//!   construction the paper cites from Palmer, *Graphical Evolution*, p. 99
//!   (Section V-A);
//! - connected random graphs denser than trees ("1000 nodes and 1500
//!   edges", Section VII-A);
//! - router-plus-Ethernet clusters ("each node … is a router with an
//!   adjacent Ethernet with 5 workstations", Section V-B).

use crate::time::SimDuration;
use crate::topology::{NodeId, Topology, TopologyBuilder};
use rand::seq::SliceRandom;
use rand::Rng;

/// A chain of `n` nodes: `0 — 1 — … — n−1` (paper Fig. 1).
///
/// All links have unit delay and threshold 1.
pub fn chain(n: usize) -> Topology {
    assert!(n >= 1);
    let mut b = TopologyBuilder::new(n);
    for i in 1..n {
        b.link(NodeId(i as u32 - 1), NodeId(i as u32));
    }
    b.build()
}

/// A star with a non-member hub (paper Fig. 2).
///
/// Node 0 is the hub; nodes `1..=leaves` are the spokes. The paper's star
/// has the center "not a member of the multicast group" — membership is a
/// session-level concept, so callers simply do not give node 0 an agent.
pub fn star(leaves: usize) -> Topology {
    assert!(leaves >= 1);
    let mut b = TopologyBuilder::new(leaves + 1);
    for i in 1..=leaves {
        b.link(NodeId(0), NodeId(i as u32));
    }
    b.build()
}

/// A balanced tree on exactly `n` nodes in which interior nodes have total
/// degree `degree` (so the root has `degree` children and every other
/// interior node has `degree − 1` children).
///
/// This is the "bounded-degree tree … interior nodes have degree 4" of
/// Section V-B, filled breadth-first so the tree is as balanced as `n`
/// allows.
pub fn bounded_degree_tree(n: usize, degree: usize) -> Topology {
    assert!(n >= 1);
    assert!(degree >= 2, "interior degree must be at least 2");
    let mut b = TopologyBuilder::new(n);
    // Breadth-first attachment: the root may take `degree` children, every
    // later node `degree − 1` (one edge goes to its parent).
    let mut next_child = 1usize;
    let mut frontier = std::collections::VecDeque::new();
    frontier.push_back((NodeId(0), degree));
    while let Some((parent, capacity)) = frontier.pop_front() {
        for _ in 0..capacity {
            if next_child >= n {
                return b.build();
            }
            let c = NodeId(next_child as u32);
            next_child += 1;
            b.link(parent, c);
            frontier.push_back((c, degree - 1));
        }
    }
    b.build()
}

/// A uniformly random labeled tree on `n` nodes via a random Prüfer
/// sequence (Palmer, *Graphical Evolution*, p. 99 — the construction cited
/// in Section V-A).
///
/// Every labeled tree on `n` nodes is produced with equal probability.
pub fn random_labeled_tree<R: Rng>(n: usize, rng: &mut R) -> Topology {
    assert!(n >= 1);
    let mut b = TopologyBuilder::new(n);
    if n == 1 {
        return b.build();
    }
    if n == 2 {
        b.link(NodeId(0), NodeId(1));
        return b.build();
    }
    // Random Prüfer sequence of length n − 2 over labels 0..n.
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    for (a, bnode) in prufer_decode(n, &prufer) {
        b.link(NodeId(a as u32), NodeId(bnode as u32));
    }
    b.build()
}

/// Decode a Prüfer sequence into the n−1 edges of the corresponding tree.
///
/// Exposed for testing the bijection property.
pub fn prufer_decode(n: usize, prufer: &[usize]) -> Vec<(usize, usize)> {
    assert_eq!(prufer.len(), n.saturating_sub(2));
    let mut degree = vec![1usize; n];
    for &p in prufer {
        assert!(p < n, "Prüfer label out of range");
        degree[p] += 1;
    }
    // Min-heap of current leaves.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut leaves: BinaryHeap<Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(Reverse)
        .collect();
    let mut edges = Vec::with_capacity(n - 1);
    for &p in prufer {
        let Reverse(leaf) = leaves.pop().expect("ran out of leaves");
        edges.push((leaf, p));
        degree[p] -= 1;
        if degree[p] == 1 {
            leaves.push(Reverse(p));
        }
    }
    let Reverse(u) = leaves.pop().unwrap();
    let Reverse(v) = leaves.pop().unwrap();
    edges.push((u, v));
    edges
}

/// A connected random graph with `n` nodes and `m ≥ n − 1` edges: a uniform
/// random labeled tree plus `m − (n−1)` distinct extra edges chosen uniformly
/// among absent pairs.
///
/// This is the "connected graphs that are more dense than trees, with 1000
/// nodes and 1500 edges" of Section VII-A.
pub fn random_connected_graph<R: Rng>(n: usize, m: usize, rng: &mut R) -> Topology {
    assert!(n >= 1);
    assert!(m >= n.saturating_sub(1), "need at least n-1 edges");
    let max_edges = n * (n - 1) / 2;
    assert!(m <= max_edges, "too many edges for a simple graph");
    let tree = random_labeled_tree(n, rng);
    let mut present: std::collections::HashSet<(u32, u32)> = tree
        .links()
        .map(|(_, l)| ordered_pair(l.a, l.b))
        .collect();
    let mut b = TopologyBuilder::new(n);
    for (_, l) in tree.links() {
        b.link(l.a, l.b);
    }
    let mut extra = m - (n - 1);
    while extra > 0 {
        let a = rng.random_range(0..n as u32);
        let c = rng.random_range(0..n as u32);
        if a == c {
            continue;
        }
        let key = ordered_pair(NodeId(a), NodeId(c));
        if present.insert(key) {
            b.link(NodeId(a), NodeId(c));
            extra -= 1;
        }
    }
    b.build()
}

fn ordered_pair(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// A backbone tree of routers where every router has an attached "Ethernet"
/// of `hosts_per_router` workstation nodes (Section V-B: "each of the nodes
/// in the underlying network is a router with an adjacent Ethernet with 5
/// workstations").
///
/// Router ids are `0..routers`; the hosts of router `r` are
/// `routers + r*hosts_per_router ..`. Host links get delay `lan_delay`.
pub fn router_ethernet_clusters<R: Rng>(
    routers: usize,
    hosts_per_router: usize,
    lan_delay: SimDuration,
    rng: &mut R,
) -> Topology {
    let backbone = random_labeled_tree(routers, rng);
    let n = routers + routers * hosts_per_router;
    let mut b = TopologyBuilder::new(n);
    for (_, l) in backbone.links() {
        b.link(l.a, l.b);
    }
    for r in 0..routers {
        for h in 0..hosts_per_router {
            let host = NodeId((routers + r * hosts_per_router + h) as u32);
            b.link_with(NodeId(r as u32), host, lan_delay, 1);
        }
    }
    b.build()
}

/// A uniformly random labeled tree whose links carry propagation delays
/// drawn uniformly from `[min_delay, max_delay]` — the "point-to-point
/// topologies where the edges have a range of propagation delays" of
/// Section V-B.
pub fn random_delay_tree<R: Rng>(
    n: usize,
    min_delay: SimDuration,
    max_delay: SimDuration,
    rng: &mut R,
) -> Topology {
    let base = random_labeled_tree(n, rng);
    let mut b = TopologyBuilder::new(n);
    let lo = min_delay.as_secs_f64();
    let hi = max_delay.as_secs_f64();
    for (_, l) in base.links() {
        let d = if hi > lo { rng.random_range(lo..hi) } else { lo };
        b.link_with(l.a, l.b, SimDuration::from_secs_f64(d), 1);
    }
    b.build()
}

/// A dumbbell: two stars joined by a single bottleneck link of delay
/// `bottleneck_delay`. Left hub is node 0, right hub is node `left + 1`.
///
/// Useful for local-recovery scenarios (losses confined to one side).
pub fn dumbbell(left: usize, right: usize, bottleneck_delay: SimDuration) -> Topology {
    let mut b = TopologyBuilder::new(left + right + 2);
    let lh = NodeId(0);
    let rh = NodeId(left as u32 + 1);
    for i in 0..left {
        b.link(lh, NodeId(1 + i as u32));
    }
    for i in 0..right {
        b.link(rh, NodeId(left as u32 + 2 + i as u32));
    }
    b.link_with(lh, rh, bottleneck_delay, 1);
    b.build()
}

/// Choose `k` distinct session members uniformly from the nodes of `topo`.
///
/// The paper's Section V: "N of the nodes are randomly chosen to be session
/// members; these session members are not necessarily leaf nodes".
pub fn random_members<R: Rng>(topo: &Topology, k: usize, rng: &mut R) -> Vec<NodeId> {
    let mut all: Vec<NodeId> = topo.nodes().collect();
    all.shuffle(rng);
    all.truncate(k);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_shape() {
        let t = chain(5);
        assert!(t.is_tree());
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
        assert_eq!(t.degree(NodeId(4)), 1);
    }

    #[test]
    fn star_shape() {
        let t = star(6);
        assert!(t.is_tree());
        assert_eq!(t.degree(NodeId(0)), 6);
        for i in 1..=6 {
            assert_eq!(t.degree(NodeId(i)), 1);
        }
    }

    #[test]
    fn bounded_degree_tree_respects_degree() {
        for &(n, d) in &[(1usize, 4usize), (5, 4), (100, 4), (1000, 4), (50, 10), (7, 3)] {
            let t = bounded_degree_tree(n, d);
            assert!(t.is_tree(), "n={n} d={d}");
            for v in t.nodes() {
                assert!(t.degree(v) <= d, "n={n} d={d} node {v:?}");
            }
        }
    }

    #[test]
    fn bounded_degree_tree_is_balanced_bfs() {
        // With degree 4 the root has 4 children, so a 5-node tree is a star.
        let t = bounded_degree_tree(5, 4);
        assert_eq!(t.degree(NodeId(0)), 4);
    }

    #[test]
    fn prufer_known_decoding() {
        // Classic example: sequence [3,3,3,4] on 6 nodes.
        let edges = prufer_decode(6, &[3, 3, 3, 4]);
        assert_eq!(edges.len(), 5);
        let mut degree = [0usize; 6];
        for &(a, b) in &edges {
            degree[a] += 1;
            degree[b] += 1;
        }
        // Node 3 appears 3 times in the sequence => degree 4.
        assert_eq!(degree[3], 4);
        assert_eq!(degree[4], 2);
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 100, 500] {
            let t = random_labeled_tree(n, &mut rng);
            assert!(t.is_tree(), "n={n}");
        }
    }

    #[test]
    fn random_tree_degree_statistics() {
        // Palmer: P(deg ≤ 4) → ~0.98 for large n. Check loosely.
        let mut rng = StdRng::seed_from_u64(42);
        let t = random_labeled_tree(2000, &mut rng);
        let small = t.nodes().filter(|&v| t.degree(v) <= 4).count();
        assert!(small as f64 / 2000.0 > 0.95);
    }

    #[test]
    fn random_connected_graph_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_connected_graph(100, 150, &mut rng);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_links(), 150);
        assert!(g.is_connected());
    }

    #[test]
    fn ethernet_clusters_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = router_ethernet_clusters(10, 5, SimDuration::from_millis(10), &mut rng);
        assert_eq!(t.num_nodes(), 10 + 50);
        assert!(t.is_tree());
        // Host 0 of router 0 hangs off node 0.
        assert!(t.link_between(NodeId(0), NodeId(10)).is_some());
    }

    #[test]
    fn random_delay_tree_delays_in_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = random_delay_tree(
            60,
            SimDuration::from_millis(100),
            SimDuration::from_secs(2),
            &mut rng,
        );
        assert!(t.is_tree());
        let mut min = f64::MAX;
        let mut max: f64 = 0.0;
        for (_, l) in t.links() {
            let d = l.delay.as_secs_f64();
            assert!((0.1..=2.0).contains(&d));
            min = min.min(d);
            max = max.max(d);
        }
        assert!(max - min > 0.5, "delays actually vary: [{min}, {max}]");
    }

    #[test]
    fn dumbbell_shape() {
        let t = dumbbell(3, 4, SimDuration::from_secs(2));
        assert!(t.is_tree());
        assert_eq!(t.degree(NodeId(0)), 4); // 3 leaves + bottleneck
        assert_eq!(t.degree(NodeId(4)), 5); // 4 leaves + bottleneck
    }

    #[test]
    fn random_members_distinct_sorted() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = chain(50);
        let m = random_members(&t, 10, &mut rng);
        assert_eq!(m.len(), 10);
        for w in m.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
