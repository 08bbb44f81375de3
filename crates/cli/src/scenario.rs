//! One scenario vocabulary: a session on a simulated network (topology,
//! membership, source, where the loss falls, the agents' configuration and
//! the seeds) and the one builder that turns it into a [`Session`].
//!
//! Section V builds every simulation from this recipe: "Each simulation
//! constructs either a random tree or a bounded degree tree … N of the
//! nodes are randomly chosen to be session members … a source is randomly
//! chosen from the session members … In each simulation we randomly choose
//! a link on the shortest-path tree from source to the members of the
//! multicast group." `srm-sim`'s JSON reader ([`crate::spec`]) parses into
//! a [`ScenarioSpec`]; the figures, fault scenarios and traced scenarios of
//! `srm-experiments` construct one in Rust.
//!
//! Every draw comes from one `StdRng` seeded with [`ScenarioSpec::seed`], in
//! this order: the topology, the members, the source, the congested link,
//! then the simulator's seed unless [`ScenarioSpec::timer_seed`] gives it.

use netsim::generators;
use netsim::loss::{BernoulliLoss, LossModel, NoLoss, OneShotLinkDrop, ScriptedDrop};
use netsim::routing::{SpTree, SptCache};
use netsim::{flow, GroupId, LinkId, NodeId, SimDuration, Simulator, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use srm::{PageId, SourceId, SrmAgent, SrmConfig};
use std::fmt;
use std::rc::Rc;

/// The multicast group every session joins.
pub const GROUP: GroupId = GroupId(1);

/// Which topology family to construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoSpec {
    /// A chain of `n` nodes (Fig 1).
    Chain {
        /// Node count.
        n: usize,
    },
    /// A star with `leaves` members and a non-member hub, node 0 (Fig 2).
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
        /// Edge count, from n−1 to n(n−1)/2.
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
    /// Node count of the built topology.
    fn nodes(self) -> usize {
        match self {
            TopoSpec::Star { leaves } => leaves + 1,
            TopoSpec::EthernetClusters { routers, hosts } => routers * (hosts + 1),
            TopoSpec::Chain { n }
            | TopoSpec::BoundedTree { n, .. }
            | TopoSpec::RandomTree { n }
            | TopoSpec::RandomGraph { n, .. }
            | TopoSpec::RandomDelayTree { n } => n,
        }
    }

    /// Refuse the sizes netsim's generators assert on, naming the field.
    fn check(self) -> Result<(), RunError> {
        let why = match self {
            TopoSpec::Star { leaves: 0 } => "'leaves' must be at least 1",
            TopoSpec::EthernetClusters { routers: 0, .. } => "'routers' must be at least 1",
            _ if self.nodes() == 0 => "'n' must be at least 1",
            TopoSpec::BoundedTree { degree, .. } if degree < 2 => "'degree' must be at least 2",
            TopoSpec::RandomGraph { n, m } if m < n - 1 || m > n.saturating_mul(n - 1) / 2 => {
                "'m' must be between n-1 and n(n-1)/2"
            }
            _ => return Ok(()),
        };
        Err(RunError::BadTopology(why))
    }

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

/// Which nodes join the session.
#[derive(Clone, Debug, PartialEq)]
pub enum MembersSpec {
    /// Every node; on a star, every leaf (the hub is not a member).
    All,
    /// `k` distinct nodes drawn uniformly.
    Random(usize),
    /// These node ids.
    List(Vec<u32>),
}

impl MembersSpec {
    /// How many members this selects on `topo`, known before the build
    /// (the timer presets set C2 = D2 = √G from it).
    pub(crate) fn count(&self, topo: TopoSpec) -> usize {
        match self {
            MembersSpec::All if matches!(topo, TopoSpec::Star { .. }) => topo.nodes() - 1,
            MembersSpec::All => topo.nodes(),
            MembersSpec::Random(k) => *k,
            MembersSpec::List(ids) => ids.iter().collect::<std::collections::BTreeSet<_>>().len(),
        }
    }
}

/// Which member sources the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceSpec {
    /// A member drawn uniformly.
    Random,
    /// The lowest-numbered member.
    First,
    /// This node, which must be a member.
    Node(u32),
}

/// Where the loss falls.
#[derive(Clone, Debug, PartialEq)]
pub enum LossSpec {
    /// No loss.
    None,
    /// Independent Bernoulli loss on every link, seeded with `seed ^ 0x10`.
    Bernoulli {
        /// Drop probability.
        p: f64,
    },
    /// Drop the given (1-based) packet ordinals on the link between two
    /// nodes.
    Scripted {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
        /// 1-based ordinals of crossings to drop.
        ordinals: Vec<u64>,
    },
    /// Drop the source's next data packet on a congested link of its
    /// shortest-path tree, drawn among the links `DropSpec` allows;
    /// [`Session::rearm_drop`] arms it again for the next round.
    Congested(DropSpec),
}

/// Which tree links may be the congested one.
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

/// A scenario that cannot be built.
#[derive(Debug)]
pub enum RunError {
    /// A topology size its generator cannot build; the string names the
    /// field.
    BadTopology(&'static str),
    /// A referenced node id does not exist in the topology.
    BadNode(u32),
    /// No members were selected.
    NoMembers,
    /// `{"random": k}` asks for more members than the topology's nodes.
    TooManyMembers {
        /// The `k` asked for.
        asked: usize,
        /// The topology's node count.
        nodes: usize,
    },
    /// The source is not a session member.
    NotAMember(u32),
    /// The scripted loss references a non-adjacent node pair.
    NoSuchLink(u32, u32),
    /// No tree link with members downstream fits the drop placement.
    NoDropCandidates(DropSpec),
    /// The session never settled within the allotted time.
    DidNotSettle,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::BadTopology(why) => write!(f, "invalid topology: {why}"),
            RunError::BadNode(n) => write!(f, "node {n} does not exist"),
            RunError::NoMembers => write!(f, "scenario selects no members"),
            RunError::TooManyMembers { asked, nodes } => {
                write!(f, "'members' asks for {asked} random members of a {nodes}-node topology")
            }
            RunError::NotAMember(n) => write!(f, "source {n} is not a session member"),
            RunError::NoSuchLink(a, b) => write!(f, "no link between {a} and {b}"),
            RunError::NoDropCandidates(d) => write!(f, "no drop candidates for {d:?}"),
            RunError::DidNotSettle => write!(f, "session did not quiesce in settle_secs"),
        }
    }
}

impl std::error::Error for RunError {}

/// Everything needed to build a [`Session`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Topology family.
    pub topo: TopoSpec,
    /// Session membership.
    pub members: MembersSpec,
    /// The data source.
    pub source: SourceSpec,
    /// Where the loss falls.
    pub loss: LossSpec,
    /// SRM configuration for every member.
    pub cfg: SrmConfig,
    /// Periodic session messages on or off.
    pub sessions: bool,
    /// Master seed: topology, membership, source and link draws.
    pub seed: u64,
    /// The simulator's seed, which drives the protocol's random timers;
    /// `None` draws it from `seed`. Figs 12/13 run the *same* scenario with
    /// fresh timer seeds per run ("each run uses a new seed for the
    /// pseudo-random number generator to control the timer choices").
    pub timer_seed: Option<u64>,
}

/// A built session over a simulator, ready to run.
pub struct Session {
    /// The simulator with installed [`SrmAgent`]s.
    pub sim: Simulator<SrmAgent>,
    /// Session members, ascending.
    pub members: Vec<NodeId>,
    /// The data source.
    pub source: NodeId,
    /// The congested link, under [`LossSpec::Congested`].
    pub congested_link: Option<LinkId>,
    /// Members whose path from the source crosses the congested link.
    pub downstream_members: Vec<NodeId>,
    /// True one-way distance (seconds) from the source to each node.
    pub dist_from_source: Vec<f64>,
    source_tree: Rc<SpTree>,
    page: PageId,
    rounds_run: u64,
}

impl ScenarioSpec {
    /// Section V's loss-recovery round: a random member sources, `drop`
    /// places the congested link, session messages are off (distances are
    /// pre-warmed to the paper's converged estimates, so rounds measure only
    /// recovery traffic) and the timer seed is drawn from `seed`.
    pub fn round(
        topo: TopoSpec,
        members: MembersSpec,
        drop: DropSpec,
        cfg: SrmConfig,
        seed: u64,
    ) -> Self {
        ScenarioSpec {
            topo,
            members,
            source: SourceSpec::Random,
            loss: LossSpec::Congested(drop),
            cfg,
            sessions: false,
            seed,
            timer_seed: None,
        }
    }

    /// [`ScenarioSpec::try_build`], panicking on a scenario that cannot be
    /// built.
    pub fn build(&self) -> Session {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Instantiate the scenario: every member's agent installed and joined,
    /// its distances set to the exact topology values, the loss model in
    /// place.
    pub fn try_build(&self) -> Result<Session, RunError> {
        self.topo.check()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let topo = self.topo.build(&mut rng);
        let n = topo.num_nodes() as u32;
        let node = |id: u32| (id < n).then_some(NodeId(id)).ok_or(RunError::BadNode(id));

        let members: Vec<NodeId> = match (&self.members, self.topo) {
            (MembersSpec::All, TopoSpec::Star { leaves }) => {
                (1..=leaves as u32).map(NodeId).collect()
            }
            (MembersSpec::All, _) => topo.nodes().collect(),
            (&MembersSpec::Random(asked), _) if asked > n as usize => {
                return Err(RunError::TooManyMembers { asked, nodes: n as usize });
            }
            (MembersSpec::Random(k), _) => generators::random_members(&topo, *k, &mut rng),
            (MembersSpec::List(ids), _) => {
                let mut v = ids.iter().map(|&id| node(id)).collect::<Result<Vec<_>, _>>()?;
                v.sort_unstable();
                v.dedup();
                v
            }
        };
        if members.is_empty() {
            return Err(RunError::NoMembers);
        }
        let source = match self.source {
            SourceSpec::Random => *members.choose(&mut rng).expect("nonempty membership"),
            SourceSpec::First => members[0],
            SourceSpec::Node(id) => node(id)?,
        };
        if !members.contains(&source) {
            return Err(RunError::NotAMember(source.0));
        }

        // The source's tree, computed in the cache the simulator will
        // forward with.
        let mut routes = SptCache::new();
        let spt = routes.get(&topo, source);
        let mut congested_link = None;
        let loss: Box<dyn LossModel> = match &self.loss {
            LossSpec::None => Box::new(NoLoss),
            LossSpec::Bernoulli { p } => Box::new(BernoulliLoss::everywhere(*p, self.seed ^ 0x10)),
            LossSpec::Scripted { a, b, ordinals } => {
                let link = topo
                    .link_between(node(*a)?, node(*b)?)
                    .ok_or(RunError::NoSuchLink(*a, *b))?;
                Box::new(ScriptedDrop::new(ordinals.iter().map(|&o| (link, o)).collect()))
            }
            LossSpec::Congested(drop) => {
                let candidates = candidate_links(&topo, &spt, &members, *drop, source);
                let link = *candidates
                    .choose(&mut rng)
                    .ok_or(RunError::NoDropCandidates(*drop))?;
                congested_link = Some(link);
                Box::new(OneShotLinkDrop::new(link, source, flow::DATA))
            }
        };
        let downstream_members = congested_link.map_or_else(Vec::new, |l| {
            let downstream = spt.downstream_of(l);
            members.iter().copied().filter(|m| downstream.contains(m)).collect()
        });

        let sim_seed = self.timer_seed.unwrap_or_else(|| rng.random());
        let mut sim = Simulator::with_routes(topo, sim_seed, routes);
        let page = PageId::new(SourceId(source.0 as u64), 0);
        for &m in &members {
            let mut agent = SrmAgent::new(SourceId(m.0 as u64), GROUP, self.cfg.clone());
            agent.session_enabled = self.sessions;
            agent.set_current_page(page);
            agent.distances_mut().set_exact_distances(&mut sim, m, &members);
            sim.install(m, agent);
            sim.join(m, GROUP);
        }
        sim.set_loss_model(loss);

        let dist_from_source = sim
            .topology()
            .nodes()
            .map(|n| spt.distance(n).as_secs_f64())
            .collect();
        Ok(Session {
            sim,
            members,
            source,
            congested_link,
            downstream_members,
            dist_from_source,
            source_tree: spt,
            page,
            rounds_run: 0,
        })
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

    /// Count one more loss-recovery round.
    pub fn bump_rounds(&mut self) {
        self.rounds_run += 1;
    }

    /// Re-arm the congested link's one-shot drop for the next round; a
    /// session without one keeps its loss model.
    pub fn rearm_drop(&mut self) {
        // Re-install a fresh armed drop (cheap and avoids downcasting).
        if let Some(link) = self.congested_link {
            let drop = OneShotLinkDrop::new(link, self.source, flow::DATA);
            self.sim.set_loss_model(Box::new(drop));
        }
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
    /// many rounds); each member keeps its queue's allocation for the next
    /// round.
    pub fn drain_deliveries(&mut self) {
        for &m in &self.members {
            self.sim.app_mut(m).unwrap().discard_delivered();
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_scenario_builds() {
        let spec = ScenarioSpec::round(
            TopoSpec::Chain { n: 10 },
            MembersSpec::All,
            DropSpec::RandomTreeLink,
            SrmConfig::fixed(10),
            1,
        );
        let s = spec.build();
        assert_eq!(s.group_size(), 10);
        assert!(!s.downstream_members.is_empty());
    }

    #[test]
    fn star_scenario_drop_adjacent_to_source() {
        let spec = ScenarioSpec::round(
            TopoSpec::Star { leaves: 20 },
            MembersSpec::All,
            DropSpec::AdjacentToSource,
            SrmConfig::fixed(20),
            3,
        );
        let s = spec.build();
        let link = s.sim.topology().link(s.congested_link.expect("a congested link"));
        assert!(link.a == s.source || link.b == s.source);
        // Everyone except the source is downstream.
        assert_eq!(s.downstream_members.len(), 19);
    }

    #[test]
    fn sparse_tree_scenario() {
        let spec = ScenarioSpec::round(
            TopoSpec::BoundedTree { n: 200, degree: 4 },
            MembersSpec::Random(20),
            DropSpec::RandomTreeLink,
            SrmConfig::fixed(20),
            7,
        );
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
        let spec = ScenarioSpec::round(
            TopoSpec::Chain { n: 12 },
            MembersSpec::All,
            DropSpec::HopsFromSource(3),
            SrmConfig::fixed(12),
            5,
        );
        let s = spec.build();
        let link = s.sim.topology().link(s.congested_link.expect("a congested link"));
        let d = s.dist_from_source[link.a.index()].max(s.dist_from_source[link.b.index()]);
        assert_eq!(d, 3.0, "downstream end is 3 hops from the source");
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = ScenarioSpec::round(
            TopoSpec::RandomTree { n: 50 },
            MembersSpec::Random(10),
            DropSpec::RandomTreeLink,
            SrmConfig::fixed(10),
            42,
        );
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.members, b.members);
        assert_eq!(a.source, b.source);
        assert_eq!(a.congested_link, b.congested_link);
    }

    #[test]
    fn a_round_without_a_tree_link_is_an_error() {
        let spec = ScenarioSpec::round(
            TopoSpec::Chain { n: 1 },
            MembersSpec::All,
            DropSpec::RandomTreeLink,
            SrmConfig::fixed(1),
            9,
        );
        let err = spec.try_build().err().expect("a lone source has no tree link");
        assert!(matches!(err, RunError::NoDropCandidates(DropSpec::RandomTreeLink)), "{err}");
    }
}
