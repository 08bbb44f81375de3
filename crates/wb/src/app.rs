//! The wb application: a whiteboard member driving an SRM agent
//! (Section III-E, "Wb's Instantiation of SRM").

use crate::drawop::{DrawOp, OpKind};
use crate::whiteboard::Whiteboard;
use netsim::{Application, Ctx, GroupId, Packet};
use srm::{AduName, PageId, SourceId, SrmAgent, SrmConfig};

/// wb 1.59's SRM profile: fixed `[c, 2c]` request timers with c = 30 ms and
/// `[d, 2d]` repair timers with d = 100 ms at the source / 200 ms elsewhere
/// (Section III-E). "These fixed values … were chosen after examinations of
/// traces taken over several typical wide-area wb sessions."
pub fn wb159_config() -> SrmConfig {
    SrmConfig {
        wb159: true,
        ..SrmConfig::default()
    }
}

/// The full SRM framework profile for wb (distance-scaled adaptive timers —
/// "the design" rather than the 1.59 implementation).
pub fn wb_design_config(group_size: usize) -> SrmConfig {
    SrmConfig::adaptive(group_size)
}

/// A whiteboard session member: an [`SrmAgent`] plus the local canvas.
pub struct WbApp {
    /// The SRM engine.
    pub agent: SrmAgent,
    /// The rendered whiteboard state.
    pub board: Whiteboard,
    /// Drawops that failed integrity checks (never rendered).
    pub corrupt_ops: u64,
    next_page: u32,
}

impl WbApp {
    /// A member with the given persistent Source-ID.
    pub fn new(id: SourceId, group: GroupId, cfg: SrmConfig) -> Self {
        WbApp {
            agent: SrmAgent::new(id, group, cfg),
            board: Whiteboard::new(),
            corrupt_ops: 0,
            next_page: 0,
        }
    }

    /// This member's Source-ID.
    pub fn id(&self) -> SourceId {
        self.agent.id
    }

    /// Create a new page owned by this member ("a new page can correspond
    /// to a new viewgraph in a talk") and start viewing it.
    pub fn create_page(&mut self) -> PageId {
        let page = PageId::new(self.agent.id, self.next_page);
        self.next_page += 1;
        self.agent.set_current_page(page);
        page
    }

    /// Switch the page being viewed (session messages report this page).
    pub fn view_page(&mut self, page: PageId) {
        self.agent.set_current_page(page);
    }

    /// Draw on a page: timestamps, encodes, stores, and multicasts the op.
    /// Returns the drawop's persistent name. The op is applied locally
    /// immediately ("drawing operations … are rendered immediately").
    pub fn draw(&mut self, ctx: &mut Ctx<'_>, page: PageId, kind: OpKind) -> AduName {
        let op = DrawOp {
            timestamp: ctx.now,
            kind,
        };
        let name = self.agent.send_data(ctx, page, op.encode());
        self.board.apply(name, op);
        name
    }

    /// Delete an earlier drawop by name.
    pub fn delete(&mut self, ctx: &mut Ctx<'_>, target: AduName) -> AduName {
        self.draw(ctx, target.page, OpKind::Delete { target })
    }

    /// Ask the session for the state of `page` (late joiner obtaining "the
    /// session's history from the network").
    pub fn fetch_page(&mut self, ctx: &mut Ctx<'_>, page: PageId) {
        self.agent.request_page_state(ctx, page);
    }

    /// Fetch the whole session history: ask for the page catalog, then (as
    /// catalogs arrive) the state of every discovered page — "A user will
    /// often quit a session and later re-join, obtaining the session's
    /// history from the network" (Section II-C).
    pub fn fetch_history(&mut self, ctx: &mut Ctx<'_>) {
        self.agent.request_page_catalog(ctx);
    }

    /// Drain the agent's deliveries into the canvas and chase any newly
    /// discovered pages.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for d in self.agent.take_delivered() {
            match DrawOp::decode(d.payload) {
                Ok(op) => self.board.apply(d.name, op),
                Err(_) => self.corrupt_ops += 1,
            }
        }
        for page in self.agent.take_discovered_pages() {
            self.agent.request_page_state(ctx, page);
        }
    }
}

impl Application for WbApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.agent.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        self.agent.on_packet(ctx, pkt);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.agent.on_timer(ctx, token);
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drawop::{Color, Point};
    use netsim::generators::star;
    use netsim::loss::OneShotLinkDrop;
    use netsim::{flow, NodeId, SimDuration, Simulator};

    const GROUP: GroupId = GroupId(3);

    fn star_session(leaves: usize) -> Simulator<WbApp> {
        let topo = star(leaves);
        let mut sim = Simulator::new(topo, 21);
        for i in 1..=leaves {
            let mut app = WbApp::new(SourceId(i as u64), GROUP, wb159_config());
            app.agent.session_enabled = false;
            for j in 1..=leaves {
                if i != j {
                    app.agent
                        .distances_mut()
                        .set_distance(SourceId(j as u64), SimDuration::from_secs(2));
                }
            }
            sim.install(NodeId(i as u32), app);
            sim.join(NodeId(i as u32), GROUP);
        }
        sim
    }

    fn blue_line() -> OpKind {
        OpKind::Line {
            from: Point { x: 0, y: 0 },
            to: Point { x: 5, y: 5 },
            color: Color::BLUE,
        }
    }

    #[test]
    fn drawing_propagates_to_all_members() {
        let mut sim = star_session(4);
        let page = sim.exec(NodeId(1), |app, ctx| {
            let page = app.create_page();
            app.draw(ctx, page, blue_line());
            page
        });
        sim.run_until_idle(netsim::SimTime::from_secs(60));
        for i in 2..=4u32 {
            let app = sim.app(NodeId(i)).unwrap();
            let canvas = app.board.page(&page).expect("page known");
            assert_eq!(canvas.render().len(), 1, "member {i}");
        }
    }

    #[test]
    fn boards_converge_after_loss_recovery() {
        let mut sim = star_session(5);
        // Drop the first drawop toward member 3's access link.
        let hub = NodeId(0);
        let l3 = sim.topology().link_between(hub, NodeId(3)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(l3, NodeId(1), flow::DATA)));
        let page = sim.exec(NodeId(1), |app, ctx| {
            let page = app.create_page();
            app.draw(ctx, page, blue_line());
            page
        });
        sim.run_until(netsim::SimTime::from_secs(5));
        // A second op exposes the gap for member 3.
        sim.exec(NodeId(1), |app, ctx| {
            app.draw(
                ctx,
                page,
                OpKind::Circle {
                    center: Point { x: 9, y: 9 },
                    radius: 4,
                    color: Color::RED,
                },
            );
        });
        assert!(sim.run_until_idle(netsim::SimTime::from_secs(600)));
        let digests: Vec<u64> = (1..=5u32)
            .map(|i| sim.app(NodeId(i)).unwrap().board.digest())
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "all boards identical after recovery: {digests:?}"
        );
        let c = sim.app(NodeId(3)).unwrap().board.page(&page).unwrap();
        assert_eq!(c.render().len(), 2);
    }

    #[test]
    fn blue_line_becomes_red_circle_everywhere() {
        // The paper's canonical example: delete floyd:5, then draw the
        // circle; every member converges to just the circle.
        let mut sim = star_session(3);
        let (page, line_name) = sim.exec(NodeId(1), |app, ctx| {
            let page = app.create_page();
            let n = app.draw(ctx, page, blue_line());
            (page, n)
        });
        sim.run_until(netsim::SimTime::from_secs(10));
        sim.exec(NodeId(1), |app, ctx| {
            app.delete(ctx, line_name);
            app.draw(
                ctx,
                page,
                OpKind::Circle {
                    center: Point { x: 2, y: 2 },
                    radius: 3,
                    color: Color::RED,
                },
            );
        });
        assert!(sim.run_until_idle(netsim::SimTime::from_secs(60)));
        for i in 1..=3u32 {
            let app = sim.app(NodeId(i)).unwrap();
            let render = app
                .board
                .page(&page)
                .unwrap()
                .render()
                .iter()
                .map(|(_, op)| op.kind.clone())
                .collect::<Vec<_>>();
            assert_eq!(render.len(), 1, "member {i}");
            assert!(matches!(render[0], OpKind::Circle { .. }));
        }
    }

    #[test]
    fn concurrent_page_creation_never_collides() {
        // Two members create their "page 0" simultaneously: Page-IDs are
        // (creator, local number), so both pages exist independently and
        // everyone converges on both ("each page is identified by a
        // Page-ID consisting of the Source-ID of the initiator … and a
        // page number locally unique to that initiator").
        let mut sim = star_session(3);
        let (pa, pb) = {
            let pa = sim.exec(NodeId(1), |app, ctx| {
                let p = app.create_page();
                app.draw(ctx, p, blue_line());
                p
            });
            let pb = sim.exec(NodeId(2), |app, ctx| {
                let p = app.create_page();
                app.draw(ctx, p, blue_line());
                app.draw(ctx, p, blue_line());
                p
            });
            (pa, pb)
        };
        assert_ne!(pa, pb, "same local number, different creators");
        assert_eq!(pa.number, pb.number);
        assert!(sim.run_until_idle(netsim::SimTime::from_secs(120)));
        for i in 1..=3u32 {
            let app = sim.app(NodeId(i)).unwrap();
            assert_eq!(app.board.page(&pa).unwrap().render().len(), 1, "m{i}");
            assert_eq!(app.board.page(&pb).unwrap().render().len(), 2, "m{i}");
        }
    }

    #[test]
    fn blank_late_joiner_discovers_pages_via_catalog() {
        // A truly blank member (knows nothing, not even page ids) fetches
        // the whole history: catalog request → catalog → page requests →
        // session-state replies → loss recovery of every drawop.
        let mut sim = star_session(3);
        let (p1, p2) = sim.exec(NodeId(1), |app, ctx| {
            let p1 = app.create_page();
            app.draw(ctx, p1, blue_line());
            let p2 = app.create_page();
            app.draw(ctx, p2, blue_line());
            app.draw(ctx, p2, blue_line());
            (p1, p2)
        });
        sim.run_until_idle(netsim::SimTime::from_secs(60));
        // A brand-new member appears on leaf 3's seat... use a fresh app on
        // an unused leaf: star_session(3) has leaves 1..=3; reuse 3 wiped.
        let mut fresh = WbApp::new(SourceId(9), GROUP, wb159_config());
        fresh.agent.session_enabled = false;
        for j in 1..=2u64 {
            fresh
                .agent
                .distances_mut()
                .set_distance(SourceId(j), SimDuration::from_secs(2));
        }
        sim.install(NodeId(3), fresh);
        sim.exec(NodeId(3), |app, ctx| app.fetch_history(ctx));
        assert!(sim.run_until_idle(netsim::SimTime::from_secs(5000)));
        let app = sim.app(NodeId(3)).unwrap();
        assert_eq!(app.board.page(&p1).map(|c| c.render().len()), Some(1));
        assert_eq!(app.board.page(&p2).map(|c| c.render().len()), Some(2));
        assert_eq!(app.board.page_count(), 2);
    }

    #[test]
    fn late_joiner_fetches_history() {
        let mut sim = star_session(4);
        let page = sim.exec(NodeId(1), |app, ctx| {
            let page = app.create_page();
            app.draw(ctx, page, blue_line());
            page
        });
        sim.run_until_idle(netsim::SimTime::from_secs(30));
        // Member 4 "restarts": wipe its board and agent store by installing
        // a fresh app, then fetch the page.
        let mut fresh = WbApp::new(SourceId(4), GROUP, wb159_config());
        fresh.agent.session_enabled = false;
        for j in 1..=3u64 {
            fresh
                .agent
                .distances_mut()
                .set_distance(SourceId(j), SimDuration::from_secs(2));
        }
        sim.install(NodeId(4), fresh);
        sim.exec(NodeId(4), |app, ctx| {
            app.fetch_page(ctx, page);
        });
        assert!(sim.run_until_idle(netsim::SimTime::from_secs(600)));
        let app = sim.app(NodeId(4)).unwrap();
        assert_eq!(
            app.board.page(&page).map(|c| c.render().len()),
            Some(1),
            "history recovered via page request + loss recovery"
        );
    }
}
