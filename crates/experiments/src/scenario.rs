//! Scenario construction: topology + membership + source + congested link,
//! exactly as Section V describes: "Each simulation constructs either a
//! random tree or a bounded degree tree … N of the nodes are randomly
//! chosen to be session members … a source is randomly chosen from the
//! session members … In each simulation we randomly choose a link on the
//! shortest-path tree from source to the members of the multicast group."

use netsim::generators;
use netsim::loss::OneShotLinkDrop;
use netsim::routing::{SpTree, SptCache};
use netsim::{flow, GroupId, LinkId, NodeId, SimDuration, SimTime, Simulator, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use srm::{PageId, SourceId, SrmAgent, SrmConfig};
use std::rc::Rc;

/// The multicast group used by all experiments.
pub const GROUP: GroupId = GroupId(1);

/// Which topology family to construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoSpec {
    /// A chain of `n` nodes (Fig 1).
    Chain {
        /// Node count.
        n: usize,
    },
    /// A star with `leaves` members and a non-member hub (Fig 2).
    Star {
        /// Leaf count.
        leaves: usize,
    },
    /// A balanced bounded-degree tree (Section V-B).
    BoundedTree {
        /// Node count.
        n: usize,
        /// Interior degree.
        degree: usize,
    },
    /// A uniformly random labeled tree (Section V-A).
    RandomTree {
        /// Node count.
        n: usize,
    },
    /// A connected random graph (Section VII-A).
    RandomGraph {
        /// Node count.
        n: usize,
        /// Edge count.
        m: usize,
    },
    /// Routers with attached 5-workstation Ethernets (Section V-B).
    EthernetClusters {
        /// Backbone router count.
        routers: usize,
        /// Hosts per router.
        hosts: usize,
    },
    /// A random tree with heterogeneous link delays (Section V-B).
    RandomDelayTree {
        /// Node count.
        n: usize,
    },
}

impl TopoSpec {
    /// Build the topology (random families use `rng`).
    pub fn build(self, rng: &mut StdRng) -> Topology {
        match self {
            TopoSpec::Chain { n } => generators::chain(n),
            TopoSpec::Star { leaves } => generators::star(leaves),
            TopoSpec::BoundedTree { n, degree } => generators::bounded_degree_tree(n, degree),
            TopoSpec::RandomTree { n } => generators::random_labeled_tree(n, rng),
            TopoSpec::RandomGraph { n, m } => generators::random_connected_graph(n, m, rng),
            TopoSpec::EthernetClusters { routers, hosts } => {
                generators::router_ethernet_clusters(
                    routers,
                    hosts,
                    SimDuration::from_millis(10),
                    rng,
                )
            }
            TopoSpec::RandomDelayTree { n } => generators::random_delay_tree(
                n,
                SimDuration::from_millis(100),
                SimDuration::from_secs(2),
                rng,
            ),
        }
    }
}

/// Where the per-round packet drop happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropSpec {
    /// A random link of the source's (pruned) shortest-path tree.
    RandomTreeLink,
    /// The link adjacent to the source on its tree.
    AdjacentToSource,
    /// A tree link whose upstream end is exactly `hops` from the source,
    /// chosen at random among candidates with members downstream.
    HopsFromSource(u32),
}

/// A fully instantiated session over a simulator, ready to run
/// loss-recovery rounds.
pub struct Session {
    /// The simulator with installed [`SrmAgent`]s.
    pub sim: Simulator<SrmAgent>,
    /// Session members, ascending.
    pub members: Vec<NodeId>,
    /// The data source for the rounds.
    pub source: NodeId,
    /// The congested link.
    pub congested_link: LinkId,
    /// Members whose path from the source crosses the congested link.
    pub downstream_members: Vec<NodeId>,
    /// True one-way distance (seconds) from the source to each node.
    pub dist_from_source: Vec<f64>,
    source_tree: Rc<SpTree>,
    page: PageId,
    rounds_run: u64,
}

/// Everything needed to build a [`Session`].
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Topology family.
    pub topo: TopoSpec,
    /// Number of session members (`None` = all nodes; for stars, all
    /// leaves).
    pub group_size: Option<usize>,
    /// Drop placement.
    pub drop: DropSpec,
    /// SRM configuration for every member.
    pub cfg: SrmConfig,
    /// Master seed: controls topology, membership, source, and link choice.
    pub seed: u64,
    /// Separate seed for the protocol's random timers; `None` derives one
    /// from `seed`. Figs 12/13 run the *same* scenario with fresh timer
    /// seeds per run ("each run uses a new seed for the pseudo-random
    /// number generator to control the timer choices").
    pub timer_seed: Option<u64>,
}

impl ScenarioSpec {
    /// Instantiate the scenario. Distances between members are pre-warmed
    /// to the exact topology values (the paper's simulations assume
    /// converged session-message estimates), and periodic session messages
    /// are disabled so rounds measure only recovery traffic.
    pub fn build(&self) -> Session {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let topo = self.topo.build(&mut rng);

        // Membership.
        let members: Vec<NodeId> = match (self.topo, self.group_size) {
            (TopoSpec::Star { leaves }, None) => (1..=leaves as u32).map(NodeId).collect(),
            (TopoSpec::Star { leaves }, Some(g)) => {
                assert!(g <= leaves);
                (1..=g as u32).map(NodeId).collect()
            }
            (_, None) => topo.nodes().collect(),
            (_, Some(g)) => generators::random_members(&topo, g, &mut rng),
        };
        // Source: random member.
        let source = *members.choose(&mut rng).expect("nonempty membership");

        // Congested link on the source's tree toward the members. The tree
        // is computed in the cache the simulator will forward with.
        let mut routes = SptCache::new();
        let spt = routes.get(&topo, source);
        let candidates: Vec<LinkId> = candidate_links(&topo, &spt, &members, self.drop, source);
        assert!(
            !candidates.is_empty(),
            "no drop candidates for {:?}",
            self.drop
        );
        let congested_link = *candidates.choose(&mut rng).expect("candidates nonempty");
        let downstream = spt.downstream_of(congested_link);
        let downstream_members: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|m| downstream.contains(m))
            .collect();

        // Exact pairwise member distances (assumed-converged estimates).
        let sim_seed = self.timer_seed.unwrap_or_else(|| rng.random());
        let mut sim = Simulator::with_routes(topo, sim_seed, routes);
        let page = PageId::new(SourceId(source.0 as u64), 0);
        for &m in &members {
            let mut agent = SrmAgent::new(SourceId(m.0 as u64), GROUP, self.cfg.clone());
            agent.session_enabled = false;
            agent.set_current_page(page);
            agent.distances_mut().set_exact_distances(&mut sim, m, &members);
            sim.install(m, agent);
            sim.join(m, GROUP);
        }
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(
            congested_link,
            source,
            flow::DATA,
        )));

        let dist_from_source = sim
            .topology()
            .nodes()
            .map(|n| spt.distance(n).as_secs_f64())
            .collect();

        Session {
            sim,
            members,
            source,
            congested_link,
            downstream_members,
            dist_from_source,
            source_tree: spt,
            page,
            rounds_run: 0,
        }
    }
}

/// Links eligible to be "the congested link" under a [`DropSpec`]: links of
/// the source's SPT with at least one member downstream.
fn candidate_links(
    topo: &Topology,
    spt: &SpTree,
    members: &[NodeId],
    drop: DropSpec,
    source: NodeId,
) -> Vec<LinkId> {
    // Links on the tree path from the source to some member.
    let mut on_tree: Vec<LinkId> = Vec::new();
    for &m in members {
        for l in spt.path_links(m) {
            if !on_tree.contains(&l) {
                on_tree.push(l);
            }
        }
    }
    on_tree.sort_unstable();
    match drop {
        DropSpec::RandomTreeLink => on_tree,
        DropSpec::AdjacentToSource => on_tree
            .into_iter()
            .filter(|&l| {
                let link = topo.link(l);
                link.a == source || link.b == source
            })
            .collect(),
        DropSpec::HopsFromSource(h) => {
            let at_depth: Vec<LinkId> = on_tree
                .iter()
                .copied()
                .filter(|&l| {
                    let link = topo.link(l);
                    // The downstream end of a tree link is the endpoint
                    // whose parent link is l.
                    let down = if spt.parent(link.a).map(|(_, pl)| pl) == Some(l) {
                        link.a
                    } else {
                        link.b
                    };
                    // "failed edge k hops from the source" = the k-th link
                    // on the path, i.e. its downstream end sits at hop k.
                    spt.hop_count(down) == h
                })
                .collect();
            if at_depth.is_empty() {
                // Fall back to the deepest available depth.
                let max_h = on_tree
                    .iter()
                    .map(|&l| {
                        let link = topo.link(l);
                        spt.hop_count(link.a).max(spt.hop_count(link.b))
                    })
                    .max()
                    .unwrap_or(1);
                on_tree
                    .into_iter()
                    .filter(|&l| {
                        let link = topo.link(l);
                        spt.hop_count(link.a).max(spt.hop_count(link.b)) == max_h.min(h)
                    })
                    .collect()
            } else {
                at_depth
            }
        }
    }
}

impl Session {
    /// Number of members.
    pub fn group_size(&self) -> usize {
        self.members.len()
    }

    /// RTT (seconds) from `member` to the source over the true topology.
    pub fn rtt_to_source(&self, member: NodeId) -> f64 {
        2.0 * self.dist_from_source[member.index()]
    }

    /// The source's shortest-path tree, the one the congested link was
    /// picked on: the very tree `sim` forwards the source's packets along.
    pub fn source_tree(&self) -> &Rc<SpTree> {
        &self.source_tree
    }

    /// The page data is sent on.
    pub fn page(&self) -> PageId {
        self.page
    }

    /// How many loss-recovery rounds have been run.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    pub(crate) fn bump_rounds(&mut self) {
        self.rounds_run += 1;
    }

    /// Re-arm the one-shot drop for the next round.
    pub fn rearm_drop(&mut self) {
        // The loss model is always the OneShotLinkDrop installed by build();
        // re-install a fresh armed one (cheap and avoids downcasting).
        let link = self.congested_link;
        let src = self.source;
        self.sim
            .set_loss_model(Box::new(OneShotLinkDrop::new(link, src, flow::DATA)));
    }

    /// Let the source multicast one data packet now.
    pub fn source_sends(&mut self) {
        let page = self.page;
        self.sim.exec(self.source, |a, ctx| {
            a.send_data(ctx, page, bytes::Bytes::from_static(b"adu"));
        });
    }

    /// Advance the simulated clock by `secs` (processing events).
    pub fn advance(&mut self, secs: f64) {
        let t = self.sim.now() + SimDuration::from_secs_f64(secs);
        self.sim.run_until(t);
    }

    /// Run to quiescence; panics if the session does not settle within
    /// `limit_secs` (which would indicate a protocol bug).
    pub fn settle(&mut self, limit_secs: f64) {
        let limit = self.sim.now() + SimDuration::from_secs_f64(limit_secs);
        assert!(
            self.sim.run_until_idle(limit),
            "session did not quiesce within {limit_secs}s"
        );
    }

    /// Drain delivered payloads on all members (keeps memory flat across
    /// many rounds).
    pub fn drain_deliveries(&mut self) {
        for &m in &self.members.clone() {
            let _ = self.sim.app_mut(m).unwrap().take_delivered();
        }
    }
}

/// Convenience: timestamp used by drivers when they need "a moment later".
pub fn at(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_scenario_builds() {
        let spec = ScenarioSpec {
            topo: TopoSpec::Chain { n: 10 },
            group_size: None,
            drop: DropSpec::RandomTreeLink,
            cfg: SrmConfig::fixed(10),
            seed: 1,
            timer_seed: None,
        };
        let s = spec.build();
        assert_eq!(s.group_size(), 10);
        assert!(!s.downstream_members.is_empty());
    }

    #[test]
    fn star_scenario_drop_adjacent_to_source() {
        let spec = ScenarioSpec {
            topo: TopoSpec::Star { leaves: 20 },
            group_size: None,
            drop: DropSpec::AdjacentToSource,
            cfg: SrmConfig::fixed(20),
            seed: 3,
            timer_seed: None,
        };
        let s = spec.build();
        let link = s.sim.topology().link(s.congested_link);
        assert!(link.a == s.source || link.b == s.source);
        // Everyone except the source is downstream.
        assert_eq!(s.downstream_members.len(), 19);
    }

    #[test]
    fn sparse_tree_scenario() {
        let spec = ScenarioSpec {
            topo: TopoSpec::BoundedTree { n: 200, degree: 4 },
            group_size: Some(20),
            drop: DropSpec::RandomTreeLink,
            cfg: SrmConfig::fixed(20),
            seed: 7,
            timer_seed: None,
        };
        let s = spec.build();
        assert_eq!(s.group_size(), 20);
        assert!(s.members.contains(&s.source));
        assert!(!s.downstream_members.is_empty());
        // Distances were warmed: the farthest member has a positive RTT.
        let far = *s.members.iter().max_by(|a, b| {
            s.rtt_to_source(**a)
                .partial_cmp(&s.rtt_to_source(**b))
                .unwrap()
        }).unwrap();
        assert!(s.rtt_to_source(far) > 0.0);
    }

    #[test]
    fn hops_from_source_selects_depth() {
        let spec = ScenarioSpec {
            topo: TopoSpec::Chain { n: 12 },
            group_size: None,
            drop: DropSpec::HopsFromSource(3),
            cfg: SrmConfig::fixed(12),
            seed: 5,
            timer_seed: None,
        };
        let s = spec.build();
        let link = s.sim.topology().link(s.congested_link);
        let d = s.dist_from_source[link.a.index()].max(s.dist_from_source[link.b.index()]);
        assert_eq!(d, 3.0, "downstream end is 3 hops from the source");
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = ScenarioSpec {
            topo: TopoSpec::RandomTree { n: 50 },
            group_size: Some(10),
            drop: DropSpec::RandomTreeLink,
            cfg: SrmConfig::fixed(10),
            seed: 42,
            timer_seed: None,
        };
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.members, b.members);
        assert_eq!(a.source, b.source);
        assert_eq!(a.congested_link, b.congested_link);
    }
}
