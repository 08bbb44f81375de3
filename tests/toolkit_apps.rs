//! End-to-end runs of the toolkit's derived applications (Section III-D /
//! IX-D): news threads and route RIBs converging across a lossy session,
//! on the unmodified SRM framework underneath.

use bytes::Bytes;
use netsim::generators::bounded_degree_tree;
use netsim::loss::BernoulliLoss;
use netsim::{GroupId, NodeId, SimDuration, Simulator};
use srm::{PageId, SourceId, SrmConfig};
use srm_toolkit::{Article, NewsApp, NewsTool, Prefix, RouteApp, RouteTool, RouteUpdate, SrmTool};

const GROUP: GroupId = GroupId(6);

fn seats() -> Vec<NodeId> {
    vec![NodeId(2), NodeId(9), NodeId(17), NodeId(28)]
}

fn install<A: srm_toolkit::SrmApplication>(
    sim: &mut Simulator<SrmTool<A>>,
    page: PageId,
    mk: impl Fn() -> A,
) {
    for &m in &seats() {
        let mut t = SrmTool::new(SourceId(m.0 as u64), GROUP, SrmConfig::fixed(4), mk());
        t.agent.set_current_page(page);
        t.agent
            .distances_mut()
            .set_exact_distances(sim, m, &seats());
        sim.install(m, t);
        sim.join(m, GROUP);
    }
}

#[test]
fn news_threads_converge_under_loss() {
    let topo = bounded_degree_tree(35, 3);
    let mut sim: Simulator<NewsTool> = Simulator::new(topo, 61);
    let page = PageId::new(SourceId(2), 0);
    install(&mut sim, page, NewsApp::default);
    sim.set_loss_model(Box::new(BernoulliLoss::everywhere(0.03, 7)));
    sim.run_until(netsim::SimTime::from_secs(60));

    // Member at n2 posts a root; others reply, building a thread.
    let root = sim.exec(seats()[0], |t, ctx| {
        t.publish(
            ctx,
            page,
            Article {
                subject: "SRM ships".into(),
                body: "reliable multicast for everyone".into(),
                references: None,
            }
            .encode(),
        )
    });
    sim.run_until(sim.now() + SimDuration::from_secs(60));
    let reply = sim.exec(seats()[1], |t, ctx| {
        t.publish(
            ctx,
            page,
            Article {
                subject: "re: SRM ships".into(),
                body: "what about congestion control?".into(),
                references: Some(root),
            }
            .encode(),
        )
    });
    sim.run_until(sim.now() + SimDuration::from_secs(60));
    sim.exec(seats()[2], |t, ctx| {
        t.publish(
            ctx,
            page,
            Article {
                subject: "re: re: SRM ships".into(),
                body: "future work, section IX-C".into(),
                references: Some(reply),
            }
            .encode(),
        );
    });
    // Session messages heal the stragglers.
    sim.run_until(sim.now() + SimDuration::from_secs(4_000));

    let digests: Vec<u64> = seats()
        .iter()
        .map(|&m| sim.app(m).unwrap().app.digest())
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "all thread forests identical: {digests:?}"
    );
    let a = &sim.app(seats()[3]).unwrap().app;
    assert_eq!(a.articles.len(), 3);
    assert_eq!(a.roots(), vec![&root]);
    assert_eq!(a.replies_to(&root).len(), 1);
}

#[test]
fn route_ribs_converge_and_withdrawals_propagate() {
    let topo = bounded_degree_tree(35, 3);
    let mut sim: Simulator<RouteTool> = Simulator::new(topo, 62);
    let page = PageId::new(SourceId(2), 0);
    install(&mut sim, page, RouteApp::default);
    sim.set_loss_model(Box::new(BernoulliLoss::everywhere(0.03, 8)));
    sim.run_until(netsim::SimTime::from_secs(60));

    let pre = Prefix {
        addr: 0x0a00_0000,
        len: 8,
    };
    // Two origins announce the same prefix with different metrics.
    sim.exec(seats()[0], |t, ctx| {
        t.publish(
            ctx,
            page,
            RouteUpdate {
                prefix: pre,
                next_hop: 100,
                metric: 30,
                withdrawn: false,
            }
            .encode(),
        );
    });
    sim.exec(seats()[1], |t, ctx| {
        t.publish(
            ctx,
            page,
            RouteUpdate {
                prefix: pre,
                next_hop: 200,
                metric: 10,
                withdrawn: false,
            }
            .encode(),
        );
    });
    sim.run_until(sim.now() + SimDuration::from_secs(2_000));
    for &m in &seats() {
        let rib = sim.app(m).unwrap().app.rib();
        assert_eq!(rib[&pre].next_hop, 200, "member {m:?} picked the 10-metric route");
    }
    // The better origin withdraws; everyone fails over.
    sim.exec(seats()[1], |t, ctx| {
        t.publish(
            ctx,
            page,
            RouteUpdate {
                prefix: pre,
                next_hop: 200,
                metric: 10,
                withdrawn: true,
            }
            .encode(),
        );
    });
    sim.run_until(sim.now() + SimDuration::from_secs(4_000));
    let mut digests = Vec::new();
    for &m in &seats() {
        let app = &sim.app(m).unwrap().app;
        let rib = app.rib();
        assert_eq!(rib[&pre].next_hop, 100, "member {m:?} failed over");
        assert_eq!(rib[&pre].metric, 30);
        digests.push(app.digest());
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn late_joining_tool_pulls_history_through_the_toolkit() {
    // The generic fetch_history path: a blank news node discovers the page
    // catalog, fetches state, and recovers every article.
    let topo = bounded_degree_tree(35, 3);
    let mut sim: Simulator<NewsTool> = Simulator::new(topo, 63);
    let page = PageId::new(SourceId(2), 0);
    install(&mut sim, page, NewsApp::default);
    let root = sim.exec(seats()[0], |t, ctx| {
        t.publish(
            ctx,
            page,
            Article {
                subject: "old news".into(),
                body: "posted before the newcomer joined".into(),
                references: None,
            }
            .encode(),
        )
    });
    sim.run_until(netsim::SimTime::from_secs(120));

    let newbie = NodeId(33);
    let mut t = NewsTool::new(SourceId(33), GROUP, SrmConfig::fixed(5), NewsApp::default());
    t.agent.set_current_page(page);
    sim.install(newbie, t);
    sim.join(newbie, GROUP);
    sim.exec(newbie, |t, ctx| t.fetch_history(ctx));
    sim.run_until(sim.now() + SimDuration::from_secs(3_000));
    let app = &sim.app(newbie).unwrap().app;
    assert!(app.articles.contains_key(&root), "history recovered");
    // A payload that fails the app decoder is counted, not delivered.
    sim.exec(seats()[0], |t, ctx| {
        t.agent.send_data(ctx, page, Bytes::from_static(&[250, 1, 2]));
    });
    sim.run_until(sim.now() + SimDuration::from_secs(200));
    assert!(sim.app(newbie).unwrap().corrupt_items >= 1);
}
