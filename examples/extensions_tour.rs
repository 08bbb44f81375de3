//! A tour of the framework's extensions beyond the core request/repair
//! machinery: FEC parity (Section VII-B / [38]), separate recovery groups
//! (Section VII-B2), and hierarchical session messages (Section IX-A).
//!
//! Run with: `cargo run --release --example extensions_tour`

use bytes::Bytes;
use netsim::generators::chain;
use netsim::loss::ScriptedDrop;
use netsim::{GroupId, NodeId, SimDuration, SimTime, Simulator};
use srm::config::RecoveryGroupConfig;
use srm::{FecConfig, HierarchyConfig, PageId, SourceId, SrmAgent, SrmConfig};

const GROUP: GroupId = GroupId(1);
const N: usize = 24;

fn session(cfg: SrmConfig, sessions_on: bool) -> (Simulator<SrmAgent>, PageId) {
    let topo = chain(N);
    let mut sim = Simulator::new(topo, 60);
    let page = PageId::new(SourceId(0), 0);
    let members: Vec<NodeId> = (0..N as u32).map(NodeId).collect();
    for i in 0..N as u32 {
        let mut a = SrmAgent::new(SourceId(i as u64), GROUP, cfg.clone());
        a.session_enabled = sessions_on;
        a.set_current_page(page);
        a.distances_mut()
            .set_exact_distances(&mut sim, NodeId(i), &members);
        sim.install(NodeId(i), a);
        sim.join(NodeId(i), GROUP);
    }
    (sim, page)
}

fn fec_demo() {
    println!("— FEC parity ([38]): single in-block losses never reach the repair machinery —");
    let cfg = SrmConfig {
        fec: Some(FecConfig { k: 4 }),
        ..SrmConfig::fixed(N)
    };
    let (mut sim, page) = session(cfg, false);
    // Drop one packet per block toward the tail of the chain.
    let l = sim.topology().link_between(NodeId(15), NodeId(16)).unwrap();
    sim.set_loss_model(Box::new(ScriptedDrop::new(vec![(l, 2), (l, 7), (l, 12)])));
    for k in 0..12u8 {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k; 8]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(2));
    }
    assert!(sim.run_until_idle(SimTime::from_secs(100_000)));
    let requests: u64 = (0..N as u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.requests_sent)
        .sum();
    let fec: u64 = (0..N as u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.fec_recoveries)
        .sum();
    let tail = sim.app(NodeId(23)).unwrap();
    println!(
        "  12 ADUs sent, 3 dropped per downstream member; parity reconstructions: {fec}, \
         requests: {requests}, tail store: {} ADUs\n",
        tail.store().len()
    );
    assert_eq!(tail.store().len(), 12);
    assert_eq!(requests, 0);
}

fn recovery_group_demo() {
    println!("— Recovery groups (§VII-B2): persistent local losses get their own group —");
    let cfg = SrmConfig {
        recovery_groups: Some(RecoveryGroupConfig { invite_ttl: 4 }),
        ..SrmConfig::fixed(N)
    };
    let (mut sim, page) = session(cfg, false);
    let l = sim.topology().link_between(NodeId(17), NodeId(18)).unwrap();
    sim.set_loss_model(Box::new(ScriptedDrop::new(
        (1..=4).map(|o| (l, o)).collect(),
    )));
    for k in 0..5u8 {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(200));
    }
    assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
    let creators: Vec<u32> = (0..N as u32)
        .filter(|&i| sim.app(NodeId(i)).unwrap().created_recovery_group)
        .collect();
    let rg = netsim::GroupId(0x4000_0000 + creators[0]);
    println!(
        "  creator(s): {creators:?}; recovery-group members: {:?}\n",
        sim.members(rg)
    );
    assert_eq!(sim.app(NodeId(23)).unwrap().store().len(), 5);
}

fn hierarchy_demo() {
    println!("— Hierarchical session messages (§IX-A): a few representatives speak globally —");
    let cfg = SrmConfig {
        session_hierarchy: Some(HierarchyConfig { local_ttl: 3 }),
        ..SrmConfig::fixed(N)
    };
    let (mut sim, _) = session(cfg, true);
    sim.run_until(SimTime::from_secs(600));
    let reps: Vec<u32> = (0..N as u32)
        .filter(|&i| sim.app(NodeId(i)).unwrap().is_representative())
        .collect();
    println!(
        "  {N} members on a chain, local TTL 3 → representatives: {reps:?} ({} of {N})",
        reps.len()
    );
    assert!(reps.len() < N / 2);
}

fn main() {
    fec_demo();
    recovery_group_demo();
    hierarchy_demo();
    println!("\nall three extensions behaved as the paper sketches ✓");
}
