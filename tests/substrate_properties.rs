//! Property tests on the simulation substrate: routing optimality, TTL
//! semantics, topology generators, and store invariants — the foundations
//! every experiment result rests on.

use netsim::generators::{prufer_decode, random_connected_graph, random_labeled_tree};
use netsim::routing::SpTree;
use netsim::{NodeId, SimDuration, Topology, TopologyBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srm::{AduName, AduStore, PageId, SeqNo, SourceId};

/// Brute-force all-pairs shortest paths (Floyd–Warshall) for checking.
fn floyd_warshall(topo: &Topology) -> Vec<Vec<f64>> {
    let n = topo.num_nodes();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (_, l) in topo.links() {
        let w = l.delay.as_secs_f64();
        let (a, b) = (l.a.index(), l.b.index());
        d[a][b] = d[a][b].min(w);
        d[b][a] = d[b][a].min(w);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if d[i][k] + d[k][j] < d[i][j] {
                    d[i][j] = d[i][k] + d[k][j];
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dijkstra SPT distances equal Floyd–Warshall on arbitrary weighted
    /// connected graphs.
    #[test]
    fn spt_distances_are_optimal(seed in 0u64..100_000, n in 3usize..20, extra in 0usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let base = random_connected_graph(n, m, &mut rng);
        // Re-weight with varied delays.
        let mut b = TopologyBuilder::new(n);
        let mut w = 1u64;
        for (_, l) in base.links() {
            w = w % 7 + 1;
            b.link_with(l.a, l.b, SimDuration::from_secs(w), 1);
        }
        let topo = b.build();
        let truth = floyd_warshall(&topo);
        for (root, row) in truth.iter().enumerate() {
            let spt = SpTree::compute(&topo, NodeId(root as u32));
            for (v, want) in row.iter().enumerate() {
                let got = spt.distance(NodeId(v as u32)).as_secs_f64();
                prop_assert!((got - want).abs() < 1e-6,
                    "root {root} -> {v}: {got} vs {want}");
            }
        }
    }

    /// `ttl_reach` is monotone in TTL, and `min_ttl_to_reach` is exact:
    /// reachable at its value, unreachable one below.
    #[test]
    fn ttl_reach_consistency(seed in 0u64..100_000, n in 3usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_labeled_tree(n, &mut rng);
        let spt = SpTree::compute(&topo, NodeId(0));
        let mut prev = 0usize;
        for ttl in 0..=(n as u8) {
            let reach = spt.ttl_reach(&topo, ttl);
            prop_assert!(reach.len() >= prev, "monotone in ttl");
            prev = reach.len();
        }
        for v in 1..n as u32 {
            let need = spt.min_ttl_to_reach(&topo, NodeId(v)).unwrap();
            prop_assert!(spt.ttl_reach(&topo, need).contains(&NodeId(v)));
            if need > 0 {
                prop_assert!(!spt.ttl_reach(&topo, need - 1).contains(&NodeId(v)));
            }
        }
    }

    /// Prüfer decoding always yields a tree whose node degrees equal
    /// 1 + multiplicity in the sequence.
    #[test]
    fn prufer_degree_property(prufer in prop::collection::vec(0usize..12, 10)) {
        let n = 12;
        let edges = prufer_decode(n, &prufer);
        prop_assert_eq!(edges.len(), n - 1);
        let mut deg = vec![0usize; n];
        for (a, b) in &edges {
            deg[*a] += 1;
            deg[*b] += 1;
        }
        for (v, d) in deg.iter().enumerate() {
            let mult = prufer.iter().filter(|&&p| p == v).count();
            prop_assert_eq!(*d, mult + 1, "degree of {}", v);
        }
        // Connectivity via the builder check.
        let mut b = TopologyBuilder::new(n);
        for (x, y) in edges {
            b.link(NodeId(x as u32), NodeId(y as u32));
        }
        prop_assert!(b.build().is_tree());
    }

    /// AduStore: after any interleaving of inserts and existence notes,
    /// `missing_on_page` is exactly the names known but not held, and
    /// `page_state` reports the true high-water mark.
    #[test]
    fn store_invariants(ops in prop::collection::vec((0u8..2, 0u64..3, 0u64..30), 1..60)) {
        let page = PageId::new(SourceId(9), 0);
        let mut store = AduStore::new();
        let mut inserted: std::collections::BTreeSet<(u64, u64)> = Default::default();
        let mut known_high: std::collections::BTreeMap<u64, u64> = Default::default();
        for (kind, src, seq) in ops {
            let name = AduName::new(SourceId(src), page, SeqNo(seq));
            if kind == 0 {
                store.insert(name, bytes::Bytes::new());
                inserted.insert((src, seq));
                let e = known_high.entry(src).or_insert(seq);
                *e = (*e).max(seq);
            } else {
                store.note_exists(SourceId(src), page, SeqNo(seq));
                let e = known_high.entry(src).or_insert(seq);
                *e = (*e).max(seq);
            }
        }
        // Expected missing set.
        let mut expect_missing = Vec::new();
        for (&src, &high) in &known_high {
            for q in 0..=high {
                if !inserted.contains(&(src, q)) {
                    expect_missing.push(AduName::new(SourceId(src), page, SeqNo(q)));
                }
            }
        }
        let mut got = store.missing_on_page(page);
        got.sort();
        expect_missing.sort();
        prop_assert_eq!(got, expect_missing);
        // High-water marks.
        for (src, high) in known_high {
            prop_assert_eq!(
                store.highest_known(SourceId(src), page),
                Some(SeqNo(high))
            );
        }
    }

    /// The timer-interval draw respects `[C1·d, (C1+C2)·d]` for arbitrary
    /// parameters, and backoff scales both ends.
    #[test]
    fn timer_interval_bounds(
        c1 in 0.0f64..10.0,
        c2 in 0.0f64..50.0,
        d_ms in 1u64..10_000,
        k in 0u32..5,
        seed in 0u64..10_000,
    ) {
        use srm::timers::TimerInterval;
        let d = SimDuration::from_secs_f64(d_ms as f64 / 1000.0);
        let base = TimerInterval::request(c1, c2, d);
        let b = base.backed_off(2.0, k);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let v = b.draw(&mut rng).as_secs_f64();
            let f = 2f64.powi(k as i32);
            let lo = c1 * d.as_secs_f64() * f;
            let hi = (c1 + c2) * d.as_secs_f64() * f;
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} in [{lo}, {hi}]");
        }
    }
}
