//! The SRM toolkit in action (Sections III-D and IX-D): a Usenet-style
//! newswire and a routing-update mesh, both derived from the same generic
//! `SrmTool` base — no wb code involved.
//!
//! Run with: `cargo run --release --example newswire`

use netsim::generators::bounded_degree_tree;
use netsim::loss::BernoulliLoss;
use netsim::{GroupId, NodeId, SimDuration, SimTime, Simulator};
use srm::{PageId, SourceId, SrmConfig};
use srm_toolkit::{Article, NewsApp, Prefix, RouteApp, RouteUpdate, SrmTool};

const GROUP: GroupId = GroupId(1);
const SEATS: [NodeId; 4] = [NodeId(3), NodeId(12), NodeId(20), NodeId(27)];

fn session<A: srm_toolkit::SrmApplication>(
    seed: u64,
    mk: impl Fn() -> A,
) -> (Simulator<SrmTool<A>>, PageId) {
    let topo = bounded_degree_tree(30, 3);
    let mut sim = Simulator::new(topo, seed);
    let page = PageId::new(SourceId(SEATS[0].0 as u64), 0);
    for &m in &SEATS {
        let mut t = SrmTool::new(SourceId(m.0 as u64), GROUP, SrmConfig::fixed(4), mk());
        t.agent.set_current_page(page);
        sim.install(m, t);
        sim.join(m, GROUP);
    }
    sim.set_loss_model(Box::new(BernoulliLoss::everywhere(0.02, seed)));
    sim.run_until(SimTime::from_secs(120)); // discover peers & distances
    (sim, page)
}

fn newswire() {
    println!("— newswire: threads assemble identically everywhere —");
    let (mut sim, page) = session(31, NewsApp::default);
    let root = sim.exec(SEATS[0], |t, ctx| {
        t.publish(
            ctx,
            page,
            Article {
                subject: "ANN: srm-rs 0.1".into(),
                body: "a Rust reproduction of the SIGCOMM '95 SRM paper".into(),
                references: None,
            }
            .encode(),
        )
    });
    sim.run_until(sim.now() + SimDuration::from_secs(60));
    for (i, text) in [(1usize, "does wb work?"), (2, "what about FEC?")] {
        sim.exec(SEATS[i], |t, ctx| {
            t.publish(
                ctx,
                page,
                Article {
                    subject: "re: ANN: srm-rs 0.1".into(),
                    body: text.into(),
                    references: Some(root),
                }
                .encode(),
            );
        });
    }
    sim.run_until(sim.now() + SimDuration::from_secs(2_000));
    for &m in &SEATS {
        let app = &sim.app(m).unwrap().app;
        println!(
            "  {m:?}: {} articles, {} replies under the announcement, digest {:016x}",
            app.articles.len(),
            app.replies_to(&root).len(),
            app.digest()
        );
    }
    let d: Vec<u64> = SEATS.iter().map(|&m| sim.app(m).unwrap().app.digest()).collect();
    assert!(d.windows(2).all(|w| w[0] == w[1]));
    println!();
}

fn routewire() {
    println!("— route updates: every node derives the same best-route RIB —");
    let (mut sim, page) = session(32, RouteApp::default);
    let pre = Prefix {
        addr: 0x0a0a_0000,
        len: 16,
    };
    sim.exec(SEATS[0], |t, ctx| {
        t.publish(
            ctx,
            page,
            RouteUpdate {
                prefix: pre,
                next_hop: 1,
                metric: 25,
                withdrawn: false,
            }
            .encode(),
        );
    });
    sim.exec(SEATS[1], |t, ctx| {
        t.publish(
            ctx,
            page,
            RouteUpdate {
                prefix: pre,
                next_hop: 2,
                metric: 15,
                withdrawn: false,
            }
            .encode(),
        );
    });
    sim.run_until(sim.now() + SimDuration::from_secs(2_000));
    for &m in &SEATS {
        let rib = sim.app(m).unwrap().app.rib();
        let r = rib[&pre];
        println!(
            "  {m:?}: 10.10/16 via next-hop {} (metric {}, origin {})",
            r.next_hop, r.metric, r.origin
        );
        assert_eq!(r.next_hop, 2);
    }
    // Withdraw the better route; everyone fails over identically.
    sim.exec(SEATS[1], |t, ctx| {
        t.publish(
            ctx,
            page,
            RouteUpdate {
                prefix: pre,
                next_hop: 2,
                metric: 15,
                withdrawn: true,
            }
            .encode(),
        );
    });
    sim.run_until(sim.now() + SimDuration::from_secs(2_000));
    for &m in &SEATS {
        assert_eq!(sim.app(m).unwrap().app.rib()[&pre].next_hop, 1);
    }
    println!("  after withdrawal: all nodes failed over to next-hop 1 ✓");
}

fn main() {
    newswire();
    routewire();
    println!("\ntwo applications, one framework — the §IX-D toolkit claim ✓");
}
