//! Shortest-path routing and per-source multicast distribution trees.
//!
//! The paper assumes "messages are multicast to members of the multicast
//! group along a shortest-path tree from the source of the message"
//! (Section V). We compute, per transmitting node, a shortest-path tree
//! (SPT) over the whole topology with deterministic tie-breaking (smallest
//! parent node id), and forward hop by hop along it so that per-link loss,
//! TTL thresholds, and scope boundaries apply at each hop exactly as they
//! would in a real multicast routing substrate.

use crate::time::SimDuration;
use crate::topology::{LinkId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The shortest-path tree rooted at one node.
#[derive(Clone, Debug)]
pub struct SpTree {
    /// The root (transmitting node).
    pub root: NodeId,
    /// Shortest-path distance in nanoseconds from the root to each node
    /// (0 for the root, `UNREACHABLE` for nodes the search never
    /// reached); [`SpTree::distance`] converts on read.
    dist: Vec<u64>,
    /// For each node: (parent node, link to parent, hop count from the
    /// root); the parent is `NONE` for the root and unreachable nodes.
    up: Vec<(u32, u32, u32)>,
    /// Children of node `v` are `kids[kid_start[v]..kid_start[v + 1]]`,
    /// sorted by child id: one flat table instead of a `Vec` per node.
    kid_start: Vec<u32>,
    kids: Vec<(NodeId, LinkId)>,
}

const UNREACHABLE: u64 = u64::MAX;
/// "No parent" in a node's best offer: sorts after every real node id.
const NONE: u32 = u32::MAX;

impl SpTree {
    /// Dijkstra from `root` with deterministic tie-breaking: among equal
    /// distances, the path through the smaller parent id wins.
    pub fn compute(topo: &Topology, root: NodeId) -> SpTree {
        SpTree::compute_masked(topo, root, None)
    }

    /// Like [`SpTree::compute`], but skipping any link whose entry in
    /// `link_up` is `false` — routing around failed links. `None` means all
    /// links are up.
    ///
    /// Dijkstra with lazy deletion: each node keeps its best offer
    /// `(dist, parent, link, hops)` and a heap entry `(dist, node)`, packed
    /// into one `u128` so it compares in one step, is pushed only when an
    /// offer lowers the distance; a settled node's later entries are
    /// skipped. An offer replaces the best only if it is
    /// strictly smaller as a tuple, so a node settles with the least
    /// `(dist, parent, link, hops)` offered to it — whatever order the
    /// neighbors were scanned in, zero-delay links included.
    pub fn compute_masked(topo: &Topology, root: NodeId, link_up: Option<&[bool]>) -> SpTree {
        let up = |l: LinkId| link_up.is_none_or(|m| m[l.index()]);
        let n = topo.num_nodes();
        let mut dist = vec![UNREACHABLE; n];
        // Best offer per node: (parent, link, hops); NONE parent = none yet.
        let mut offer = vec![(NONE, NONE, 0u32); n];
        let mut settled = vec![false; n];
        let key = |d: u64, v: u32| Reverse((d as u128) << 32 | v as u128);
        let mut heap: BinaryHeap<Reverse<u128>> = BinaryHeap::with_capacity(n);
        dist[root.index()] = 0;
        heap.push(key(0, root.0));
        while let Some(Reverse(k)) = heap.pop() {
            let (d, v) = ((k >> 32) as u64, k as u32);
            let vi = v as usize;
            if settled[vi] {
                continue;
            }
            settled[vi] = true;
            let h = offer[vi].2 + 1;
            for &(w, link) in topo.neighbors(NodeId(v)) {
                let wi = w.index();
                if settled[wi] || !up(link) {
                    continue;
                }
                let nd = d + topo.link(link).delay.as_nanos();
                let (p, l, oh) = offer[wi];
                if (nd, v, link.0, h) < (dist[wi], p, l, oh) {
                    if nd < dist[wi] {
                        heap.push(key(nd, w.0));
                    }
                    dist[wi] = nd;
                    offer[wi] = (v, link.0, h);
                }
            }
        }
        // Count each node's children into kid_start[p + 1], prefix-sum to
        // starts, fill with kid_start[p] as p's cursor (visiting children in
        // id order keeps each run sorted), then move each cursor, now its
        // run's end, up one slot, where it is the next run's start.
        let mut kid_start = vec![0u32; n + 1];
        for &(p, _, _) in &offer {
            if p != NONE {
                kid_start[p as usize + 1] += 1;
            }
        }
        for i in 1..=n {
            kid_start[i] += kid_start[i - 1];
        }
        let mut kids = vec![(NodeId(0), LinkId(0)); kid_start[n] as usize];
        for (v, &(p, l, _)) in offer.iter().enumerate() {
            if p != NONE {
                let at = &mut kid_start[p as usize];
                kids[*at as usize] = (NodeId(v as u32), LinkId(l));
                *at += 1;
            }
        }
        kid_start.copy_within(0..n, 1);
        kid_start[0] = 0;
        SpTree {
            root,
            dist,
            up: offer,
            kid_start,
            kids,
        }
    }

    /// Shortest-path delay from the root to `n`.
    pub fn distance(&self, n: NodeId) -> SimDuration {
        match self.dist[n.index()] {
            UNREACHABLE => SimDuration::from_secs(u64::MAX / 2_000_000_000),
            d => nanos(d),
        }
    }

    /// Hop count from the root to `n`.
    pub fn hop_count(&self, n: NodeId) -> u32 {
        self.up[n.index()].2
    }

    /// Whether `n` was reached by the search.
    pub fn reachable(&self, n: NodeId) -> bool {
        n == self.root || self.up[n.index()].0 != NONE
    }

    /// Children of `n` in the tree (sorted by id).
    pub fn children(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        let i = n.index();
        &self.kids[self.kid_start[i] as usize..self.kid_start[i + 1] as usize]
    }

    /// Parent of `n`, or `None` for the root / unreachable nodes.
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        let (p, l, _) = self.up[n.index()];
        (p != NONE).then_some((NodeId(p), LinkId(l)))
    }

    /// The path from the root to `n` as a list of link ids.
    pub fn path_links(&self, n: NodeId) -> Vec<LinkId> {
        let mut out = Vec::new();
        let mut cur = n;
        while let Some((p, l)) = self.parent(cur) {
            out.push(l);
            cur = p;
        }
        out.reverse();
        out
    }

    /// Whether the tree path from the root to `n` traverses `link`.
    pub fn path_uses_link(&self, n: NodeId, link: LinkId) -> bool {
        let mut cur = n;
        while let Some((p, l)) = self.parent(cur) {
            if l == link {
                return true;
            }
            cur = p;
        }
        false
    }

    /// All nodes whose tree path from the root traverses `link` — i.e. the
    /// set "downstream of the congested link" for this source. Sorted.
    pub fn downstream_of(&self, link: LinkId) -> Vec<NodeId> {
        let n = self.dist.len();
        (0..n as u32)
            .map(NodeId)
            .filter(|&v| self.path_uses_link(v, link))
            .collect()
    }

    /// The set of nodes a multicast from the root with initial TTL `ttl`
    /// reaches, honoring per-link thresholds. We follow the mrouted
    /// convention: a packet is forwarded across a link iff its current TTL
    /// is at least the link's threshold (and nonzero), and the TTL is
    /// decremented by the crossing (Section VII-B3). With all thresholds 1,
    /// TTL `k` therefore reaches exactly the nodes within `k` hops.
    pub fn ttl_reach(&self, topo: &Topology, ttl: u8) -> Vec<NodeId> {
        let mut out = vec![self.root];
        let mut stack = vec![(self.root, ttl)];
        while let Some((v, t)) = stack.pop() {
            for &(c, l) in self.children(v) {
                if t >= 1 && t >= topo.link(l).threshold {
                    out.push(c);
                    stack.push((c, t - 1));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The minimum initial TTL needed for a multicast from the root to reach
    /// `target`, or `None` if no TTL suffices (only possible with thresholds
    /// above 255 semantics; with u8 thresholds 255 always suffices on paths
    /// shorter than 255 hops).
    pub fn min_ttl_to_reach(&self, topo: &Topology, target: NodeId) -> Option<u8> {
        if target == self.root {
            return Some(0);
        }
        if !self.reachable(target) {
            return None;
        }
        // Walk the path; crossing the i-th link (1-based from the sender)
        // the packet's TTL is ttl − (i−1), which must be ≥ threshold(l_i)
        // and ≥ 1. So ttl ≥ max_i (max(threshold(l_i), 1) + i − 1).
        let links = self.path_links(target);
        let mut need = 0u32;
        for (i, l) in links.iter().enumerate() {
            need = need.max(topo.link(*l).threshold.max(1) as u32 + i as u32);
        }
        u8::try_from(need).ok()
    }
}

fn nanos(n: u64) -> SimDuration {
    SimDuration::from_secs_f64(n as f64 / 1e9)
}

/// A cache of per-root shortest-path trees, computed lazily.
///
/// Forwarding consults this on every multicast transmission; caching keeps a
/// 100-round adaptive experiment on a 1000-node tree fast. A session's
/// builder reads its member distances from the same cache (see
/// [`crate::Simulator::route`]), so each root's tree is computed once.
#[derive(Clone, Debug, Default)]
pub struct SptCache {
    // Indexed directly by root node id — forwarding hits this once per
    // hop, and a Vec probe beats hashing the NodeId every time. The Vec
    // grows to the highest root seen (node ids are dense by construction).
    trees: Vec<Option<std::rc::Rc<SpTree>>>,
    computed: u64,
}

impl SptCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The SPT rooted at `root`, computing it on first use.
    pub fn get(&mut self, topo: &Topology, root: NodeId) -> std::rc::Rc<SpTree> {
        self.get_masked(topo, root, None)
    }

    /// The SPT rooted at `root` over the currently-up links, computing it on
    /// first use. Callers must [`SptCache::invalidate`] whenever the mask
    /// changes — the cache is keyed by root only.
    pub fn get_masked(
        &mut self,
        topo: &Topology,
        root: NodeId,
        link_up: Option<&[bool]>,
    ) -> std::rc::Rc<SpTree> {
        let i = root.index();
        if i >= self.trees.len() {
            self.trees.resize(i + 1, None);
        }
        self.trees[i]
            .get_or_insert_with(|| {
                self.computed += 1;
                std::rc::Rc::new(SpTree::compute_masked(topo, root, link_up))
            })
            .clone()
    }

    /// How many trees this cache has computed, over its whole life.
    pub fn computed(&self) -> u64 {
        self.computed
    }

    /// Drop all cached trees (call after mutating the topology).
    pub fn invalidate(&mut self) {
        self.trees.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        bounded_degree_tree, chain, random_connected_graph, random_delay_tree, star,
    };
    use crate::topology::TopologyBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The kernel [`SpTree::compute_masked`] replaced, kept as its
    /// reference: Dijkstra over `(dist, node, parent, link, hop)` heap
    /// entries, one pushed per edge scan, a node settling at its first pop,
    /// children gathered into one `Vec` per node and sorted. Returns
    /// `(dist, parent, hops, children)` per node.
    #[allow(clippy::type_complexity)]
    fn reference(
        topo: &Topology,
        root: NodeId,
        link_up: Option<&[bool]>,
    ) -> (Vec<SimDuration>, Vec<Option<(NodeId, LinkId)>>, Vec<u32>, Vec<Vec<(NodeId, LinkId)>>) {
        let up = |l: LinkId| link_up.is_none_or(|m| m[l.index()]);
        let n = topo.num_nodes();
        let mut dist = vec![UNREACHABLE; n];
        let mut parent: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut hops = vec![0u32; n];
        let mut settled = vec![false; n];
        type HeapEntry = (u64, u32, u32, u32, u32);
        let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
        heap.push(Reverse((0, root.0, u32::MAX, u32::MAX, 0)));
        while let Some(Reverse((d, v, p, l, h))) = heap.pop() {
            let vi = v as usize;
            if settled[vi] {
                continue;
            }
            settled[vi] = true;
            dist[vi] = d;
            hops[vi] = h;
            if p != u32::MAX {
                parent[vi] = Some((NodeId(p), LinkId(l)));
            }
            for &(w, link) in topo.neighbors(NodeId(v)) {
                if !settled[w.index()] && up(link) {
                    let nd = d + topo.link(link).delay.as_nanos();
                    heap.push(Reverse((nd, w.0, v, link.0, h + 1)));
                }
            }
        }
        let mut children: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); n];
        for (v, entry) in parent.iter().enumerate() {
            if let Some((p, l)) = *entry {
                children[p.index()].push((NodeId(v as u32), l));
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }
        let dist = dist
            .into_iter()
            .map(|d| {
                if d == UNREACHABLE {
                    SimDuration::from_secs(u64::MAX / 2_000_000_000)
                } else {
                    nanos(d)
                }
            })
            .collect();
        (dist, parent, hops, children)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The lazy-deletion kernel and the heap-tuple reference agree on
        /// every node's distance (bit for bit), parent, hop count and child
        /// order, from every root: on random graphs and random delay trees,
        /// with delays drawn from {0, 1, 2} ms so equal-distance ties and
        /// zero-delay links abound, and with random links down.
        #[test]
        fn lazy_kernel_matches_the_heap_tuple_reference(
            n in 2usize..40,
            extra in 0usize..40,
            seed in 0u64..u64::MAX,
            graph in proptest::prelude::any::<bool>(),
            quantize in proptest::prelude::any::<bool>(),
            down_share in 0u32..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = if graph {
                let m = (n - 1 + extra).min(n * (n - 1) / 2);
                random_connected_graph(n, m, &mut rng)
            } else {
                random_delay_tree(
                    n,
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(50),
                    &mut rng,
                )
            };
            let topo = if quantize {
                let mut b = TopologyBuilder::new(n);
                for (_, l) in base.links() {
                    let ms = rng.random_range(0..3u64);
                    b.link_with(l.a, l.b, SimDuration::from_millis(ms), 1);
                }
                b.build()
            } else {
                base
            };
            // Each link is down with probability down_share / 8.
            let mask: Vec<bool> = (0..topo.num_links())
                .map(|_| rng.random_range(0..8u32) >= down_share)
                .collect();
            for masked in [None, Some(&mask[..])] {
                for root in topo.nodes() {
                    let got = SpTree::compute_masked(&topo, root, masked);
                    let (dist, parent, hops, children) = reference(&topo, root, masked);
                    for v in topo.nodes() {
                        let i = v.index();
                        proptest::prop_assert_eq!(got.distance(v), dist[i], "dist {:?} from {:?}", v, root);
                        proptest::prop_assert_eq!(got.parent(v), parent[i], "parent {:?} from {:?}", v, root);
                        proptest::prop_assert_eq!(got.hop_count(v), hops[i], "hops {:?} from {:?}", v, root);
                        proptest::prop_assert_eq!(got.children(v), &children[i][..], "children {:?} from {:?}", v, root);
                    }
                }
            }
        }
    }

    #[test]
    fn chain_distances() {
        let t = chain(5);
        let spt = SpTree::compute(&t, NodeId(0));
        for i in 0..5u32 {
            assert_eq!(spt.distance(NodeId(i)), SimDuration::from_secs(i as u64));
            assert_eq!(spt.hop_count(NodeId(i)), i);
        }
    }

    #[test]
    fn star_children() {
        let t = star(4);
        let spt = SpTree::compute(&t, NodeId(1));
        // From a leaf, hub is the only child; other leaves hang off the hub.
        assert_eq!(spt.children(NodeId(1)).len(), 1);
        assert_eq!(spt.children(NodeId(0)).len(), 3);
        assert_eq!(spt.distance(NodeId(3)), SimDuration::from_secs(2));
    }

    #[test]
    fn tie_break_prefers_smaller_parent() {
        // Square: 0-1, 0-2, 1-3, 2-3. From 0, node 3 is at distance 2 via
        // both 1 and 2; the deterministic rule picks parent 1.
        let mut b = TopologyBuilder::new(4);
        b.link(NodeId(0), NodeId(1));
        b.link(NodeId(0), NodeId(2));
        b.link(NodeId(1), NodeId(3));
        b.link(NodeId(2), NodeId(3));
        let t = b.build();
        let spt = SpTree::compute(&t, NodeId(0));
        assert_eq!(spt.parent(NodeId(3)).unwrap().0, NodeId(1));
    }

    #[test]
    fn path_links_and_downstream() {
        let t = chain(6);
        let spt = SpTree::compute(&t, NodeId(0));
        let links = spt.path_links(NodeId(3));
        assert_eq!(links.len(), 3);
        let l23 = t.link_between(NodeId(2), NodeId(3)).unwrap();
        assert!(spt.path_uses_link(NodeId(5), l23));
        assert!(!spt.path_uses_link(NodeId(2), l23));
        assert_eq!(
            spt.downstream_of(l23),
            vec![NodeId(3), NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn ttl_reach_unit_thresholds() {
        let t = chain(10);
        let spt = SpTree::compute(&t, NodeId(0));
        // TTL k reaches nodes 0..=k with all thresholds 1.
        let reach = spt.ttl_reach(&t, 3);
        assert_eq!(reach, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(spt.min_ttl_to_reach(&t, NodeId(3)), Some(3));
        assert_eq!(spt.min_ttl_to_reach(&t, NodeId(0)), Some(0));
    }

    #[test]
    fn ttl_reach_with_thresholds() {
        let mut t = chain(4);
        let l12 = t.link_between(NodeId(1), NodeId(2)).unwrap();
        t.set_threshold(l12, 16); // an Mbone region boundary
        let spt = SpTree::compute(&t, NodeId(0));
        assert_eq!(spt.ttl_reach(&t, 5), vec![NodeId(0), NodeId(1)]);
        // Crossing the 2nd link (1-2) needs ttl − 1 >= 16 → ttl >= 17.
        assert_eq!(spt.min_ttl_to_reach(&t, NodeId(2)), Some(17));
        assert!(spt.ttl_reach(&t, 17).contains(&NodeId(2)));
        assert!(!spt.ttl_reach(&t, 16).contains(&NodeId(2)));
    }

    #[test]
    fn bounded_tree_spt_matches_bfs() {
        let t = bounded_degree_tree(100, 4);
        let spt = SpTree::compute(&t, NodeId(17));
        // In a tree the SPT is the tree itself: every non-root has a parent.
        for v in t.nodes() {
            assert!(spt.reachable(v));
        }
        // Distances satisfy the triangle property along tree edges.
        for (_, l) in t.links() {
            let da = spt.distance(l.a).as_secs_f64();
            let db = spt.distance(l.b).as_secs_f64();
            assert!((da - db).abs() < 1.0 + 1e-9);
        }
    }

    #[test]
    fn masked_compute_routes_around_down_links() {
        // Square: 0-1, 0-2, 1-3, 2-3. With 1-3 down, node 3 must be reached
        // via 2 instead of the usual smaller-parent tie-break via 1.
        let mut b = TopologyBuilder::new(4);
        b.link(NodeId(0), NodeId(1));
        b.link(NodeId(0), NodeId(2));
        let l13 = b.link(NodeId(1), NodeId(3));
        b.link(NodeId(2), NodeId(3));
        let t = b.build();
        let mut mask = vec![true; t.num_links()];
        mask[l13.index()] = false;
        let spt = SpTree::compute_masked(&t, NodeId(0), Some(&mask));
        assert_eq!(spt.parent(NodeId(3)).unwrap().0, NodeId(2));
        // Masking both of 3's links makes it unreachable.
        mask[t.link_between(NodeId(2), NodeId(3)).unwrap().index()] = false;
        let spt = SpTree::compute_masked(&t, NodeId(0), Some(&mask));
        assert!(!spt.reachable(NodeId(3)));
        assert!(spt.reachable(NodeId(1)));
    }

    #[test]
    fn cache_returns_same_tree() {
        let t = chain(5);
        let mut cache = SptCache::new();
        let a = cache.get(&t, NodeId(2));
        let b = cache.get(&t, NodeId(2));
        assert!(std::rc::Rc::ptr_eq(&a, &b));
        cache.invalidate();
        let c = cache.get(&t, NodeId(2));
        assert!(!std::rc::Rc::ptr_eq(&a, &c));
        assert_eq!(cache.computed(), 2);
    }
}
