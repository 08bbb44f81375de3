//! srm-hub: many SRM sessions in one process, over one shared socket.
//!
//! The paper's sessions are *light-weight* (§I): all per-session state is
//! an agent, a timer wheel, an RNG, and a peer list. A whole host process
//! per session therefore wastes the expensive parts — sockets, threads,
//! kernel buffers — on state that costs almost nothing. The hub inverts
//! that: **one** batched UDP socket and a small fixed pool of reactors
//! host arbitrarily many groups.
//!
//! A hub is the N-reactor case of `reactor.rs` (the diagram lives
//! there): [`Hub::spawn_on`] starts the reactors with nothing hosted, and
//! [`HubHandle::create`] turns a [`GroupSpec`] into the same per-group
//! options a [`NodeOptions`] carries and hosts it on `shard_of(group)`.
//! What a hub group adds to a node's is an optional token bucket (§III-E,
//! refusals counted as `quota_overflow`), and that deliveries are counted
//! and discarded rather than kept for a caller.
//!
//! Shard 0 reads the shared socket. It reads only each frame's envelope
//! prefix ([`Envelope::precheck`](crate::Envelope::precheck): magic,
//! version, group id), walks its own groups' frames where they lie, and
//! forwards the rest to `shard_of(group)` — the full decode, and every
//! protocol decision, happens on the owning reactor, so the inbound path
//! stays zero-copy: the pooled receive buffer itself travels down the
//! shard's inbox. The one exception is a GRO-coalesced buffer whose
//! segments straddle shards; it is split with per-segment copies and
//! counted (`demux_splits`), so the cost is visible, rare, and never
//! silent.
//!
//! Control (create/join/send/drain/stats/stop) arrives as line-JSON via
//! [`crate::control`]. The frame-accounting invariant of the node runtime
//! holds hub-wide — `frames_attempted == frames_sent + frames_dropped +
//! blackholed + send_errors` — because quota refusals (like chaos drops)
//! happen before the fan-out.

use crate::batch::BatchOptions;
use crate::control::GroupSpec;
use crate::reactor::{self, Event, HostKind, Hosting, Mailbox, Plant, Reactor, RPC_TIMEOUT};
use crate::runtime::{Counters, Mode, NodeOptions, StoreOptions, TransportStats};
use bytes::Bytes;
use netsim::{GroupId, SimDuration};
use srm::{Driver, PageId, RateLimit, SourceId, SrmAgent, SrmConfig};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Per-group counters snapshot, the unit of a host's `stats` rollup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Group id.
    pub group: u32,
    /// The shard hosting it.
    pub shard: usize,
    /// Configured group size.
    pub members: usize,
    /// Frames routed to this group's agent (post filtering).
    pub rx_frames: u64,
    /// Logical multicasts the agent issued (pre fan-out).
    pub tx_frames: u64,
    /// ADUs the group's agent delivered to its application, whether a
    /// node keeps them queued for `take_delivered` or a hub discards them.
    pub delivered: u64,
    /// The group's agent's counters ([`srm::AgentMetrics::counters`]).
    pub agent: srm::CounterRow,
    /// Frames refused by the group's token-bucket quota (dropped before
    /// the fan-out).
    pub quota_overflow: u64,
}

impl GroupStats {
    /// The agent counter `name` ([`srm::AgentMetrics::counters`]); 0 for a
    /// name the agent does not count.
    pub fn agent_counter(&self, name: &str) -> u64 {
        self.agent.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }
}

/// Derive one group's RNG seed from the hub seed: a splitmix-style mix so
/// adjacent group ids land far apart, and the same `(hub seed, group)`
/// pair replays identically regardless of which shard hosts it.
pub fn group_seed(hub_seed: u64, group: u32) -> u64 {
    let mut x = hub_seed ^ (u64::from(group)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The hub's rollup is a node's: [`TransportStats`], one row per hosted
/// group. The name stays because `srmbench` imports it.
pub type HubStats = TransportStats;

/// Which shard hosts a group: a splitmix-style mix of the group id, mod
/// the shard count. Stable for the hub's lifetime (and across hubs with
/// the same shard count), independent of creation order, and spread even
/// for the small consecutive ids sessions actually use — `tests/hub.rs`
/// property-checks the partition against this function.
pub fn shard_of(group: u32, shards: usize) -> usize {
    let n = shards.max(1) as u64;
    let mut x = u64::from(group).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) % n) as usize
}

/// Hub spawn configuration.
#[derive(Clone, Debug)]
pub struct HubOptions {
    /// Shard reactor count (each is one thread hosting many groups).
    pub shards: usize,
    /// Hub seed; each group's RNG derives from it via [`group_seed`], so
    /// replays are per-group stable no matter which shard hosts the group.
    pub seed: u64,
    /// Live metrics registry: per-group mirrors land as `hub.g{G}.*`,
    /// per-reactor gauges as `hub.shard{i}.*` (`hub.shard0.wheel.depth`),
    /// and the stage histograms, by-kind frame counts and transport
    /// counters under the names a node uses (`frames_sent`,
    /// `demux_splits`, …: [`TransportStats::counters`]). Those counters
    /// are the cells [`HubHandle::stats`] reads, not copies, so one
    /// registry serves one host.
    pub metrics: Option<obs::MetricsRegistry>,
    /// Durable-store root: group `g` logs under `<root>/<g>/`.
    pub store_root: Option<PathBuf>,
}

impl Default for HubOptions {
    fn default() -> Self {
        HubOptions {
            shards: 4,
            seed: 1,
            metrics: None,
            store_root: None,
        }
    }
}

/// What `create`/`join` report back.
#[derive(Clone, Copy, Debug)]
pub struct CreateOutcome {
    /// The shard now hosting the group.
    pub shard: usize,
    /// `join` only: the group already existed.
    pub already: bool,
}

struct HubInner {
    addr: SocketAddr,
    mailboxes: Vec<Mailbox>,
    counters: Arc<Counters>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    stopped: AtomicBool,
    /// Groups [`HubHandle::drain_all`] has detached so far.
    drained: AtomicUsize,
    seed: u64,
    metrics: Option<obs::MetricsRegistry>,
    store_root: Option<PathBuf>,
}

/// Spawner for hub runtimes.
pub struct Hub;

impl Hub {
    /// Bind `bind` and start a hub there.
    pub fn spawn(bind: SocketAddr, opts: HubOptions) -> io::Result<HubHandle> {
        Hub::spawn_on(UdpSocket::bind(bind)?, opts)
    }

    /// Start a hub on an already-bound socket: `opts.shards` reactors
    /// with nothing hosted yet.
    pub fn spawn_on(socket: UdpSocket, opts: HubOptions) -> io::Result<HubHandle> {
        let addr = socket.local_addr()?;
        let Plant { mailboxes, reactors, counters } = reactor::build(
            socket,
            opts.shards.max(1),
            HostKind::Hub,
            BatchOptions::default(),
            opts.metrics.clone(),
        )?;
        // Reactor 0 holds every shard's mailbox, so it starts last: when a
        // spawn fails, the shards already running see their inboxes
        // disconnect and stop.
        let threads = reactors
            .into_iter()
            .enumerate()
            .rev()
            .map(|(i, reactor)| {
                // On shutdown every still-hosted group drains gracefully.
                thread::Builder::new().name(format!("srm-hub-shard{i}")).spawn(move || {
                    reactor.run().drain_all();
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(HubHandle {
            inner: Arc::new(HubInner {
                addr,
                mailboxes,
                counters,
                threads: Mutex::new(threads),
                stopped: AtomicBool::new(false),
                drained: AtomicUsize::new(0),
                seed: opts.seed,
                metrics: opts.metrics,
                store_root: opts.store_root,
            }),
        })
    }
}

/// Cloneable handle to a running hub; the control plane and tests drive
/// everything through it.
#[derive(Clone)]
pub struct HubHandle {
    inner: Arc<HubInner>,
}

impl HubHandle {
    /// The shared socket's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Shard count (fixed at spawn).
    pub fn shards(&self) -> usize {
        self.inner.mailboxes.len()
    }

    /// Run `f` on `shard`'s reactor thread and wait for its result.
    fn call<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut Reactor) -> R + Send + 'static,
    ) -> Result<R, String> {
        reactor::submit(&self.inner.mailboxes[shard], f)
            .ok_or_else(|| format!("shard {shard} is down"))?
            .recv_timeout(RPC_TIMEOUT)
            .map_err(|_| format!("shard {shard} did not reply"))
    }

    /// Host a group on its hash-assigned shard. `idempotent` is `join`
    /// semantics: a duplicate reports `already:true` instead of an error.
    pub fn create(&self, spec: GroupSpec, idempotent: bool) -> Result<CreateOutcome, String> {
        let members = spec.members.max(1);
        let mut opts = NodeOptions::new(
            SourceId(spec.id),
            GroupId(spec.group),
            SrmConfig::fixed(members),
        );
        opts.seed = group_seed(self.inner.seed, spec.group);
        opts.metrics = self.inner.metrics.clone();
        if let Some(ms) = spec.dist_ms {
            opts.initial_distances = (1..=members as u64)
                .filter(|&m| m != spec.id)
                .map(|m| (SourceId(m), SimDuration::from_millis(ms)))
                .collect();
        }
        opts.store = (self.inner.store_root.as_ref())
            .map(|root| StoreOptions::new(root.join(spec.group.to_string())));
        let quota = spec.rate.map(|rate| RateLimit {
            bytes_per_sec: rate,
            burst_bytes: spec.burst.unwrap_or(2.0 * rate),
        });
        self.host(Mode::Mesh { peers: spec.peers }, opts, quota, spec.members, idempotent)
    }

    /// [`HubHandle::create`] from Rust: host a member described by the
    /// options a standalone node takes, so a hub group can carry a seeded
    /// chaos plan (forced drops included), liveness tracking and
    /// recorders. The per-socket field of `opts` (`batch`) does not apply:
    /// the hub's socket runs the defaults. A group already hosted, or a
    /// member id that does not fit the envelope's 32-bit source field, is
    /// an error.
    pub fn create_with(&self, mode: Mode, opts: NodeOptions) -> Result<CreateOutcome, String> {
        let members = mode.group_size();
        self.host(mode, opts, None, members, false)
    }

    fn host(
        &self,
        mode: Mode,
        opts: NodeOptions,
        quota: Option<RateLimit>,
        members: usize,
        idempotent: bool,
    ) -> Result<CreateOutcome, String> {
        let group = opts.group.0;
        let shard = shard_of(group, self.shards());
        let hosting = Hosting {
            src: reactor::envelope_src(opts.id)?,
            keep_deliveries: false,
            quota,
            members,
            reg_prefix: format!("hub.g{group}."),
        };
        let already = self.call(shard, move |r| {
            if r.hosts(group) {
                return if idempotent { Ok(true) } else { Err(format!("group {group} already exists")) };
            }
            r.host(mode, opts, hosting);
            Ok(false)
        })??;
        Ok(CreateOutcome { shard, already })
    }

    /// Run `f` against `group`'s live agent on its reactor thread and
    /// return the result — what [`NodeHandle::exec`](crate::NodeHandle::exec)
    /// is to a node.
    pub fn exec<R, F>(&self, group: u32, f: F) -> Result<R, String>
    where
        F: FnOnce(&mut SrmAgent, &mut dyn Driver) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.call(shard_of(group, self.shards()), move |r| r.with_group(group, f))?
            .ok_or_else(|| format!("group {group} not hosted"))
    }

    /// Publish `count` ADUs of `text` on `group`'s page 0; returns the
    /// last ADU's name.
    pub fn send(&self, group: u32, text: &str, count: u32) -> Result<String, String> {
        let text = text.to_string();
        self.exec(group, move |a, d| {
            let page = PageId::new(a.id, 0);
            let mut last = String::new();
            for i in 0..count {
                let body = if count == 1 { text.clone() } else { format!("{text} #{i}") };
                last = a.send_data(d, page, Bytes::from(body.into_bytes())).to_string();
            }
            last
        })
    }

    /// Gracefully drain one group: final session message, WAL flush,
    /// detach. Returns the group's final row.
    pub fn drain(&self, group: u32) -> Result<GroupStats, String> {
        self.call(shard_of(group, self.shards()), move |r| r.drain(group))?
            .ok_or_else(|| format!("group {group} not hosted"))
    }

    /// Drain every hosted group on every shard (the hub keeps running).
    /// Returns the drained groups' final rows.
    pub fn drain_all(&self) -> Vec<GroupStats> {
        let mut rows = Vec::new();
        for shard in 0..self.shards() {
            if let Ok(mut one) = self.call(shard, Reactor::drain_all) {
                rows.append(&mut one);
            }
        }
        self.inner.drained.fetch_add(rows.len(), Ordering::Relaxed);
        rows
    }

    /// Groups [`HubHandle::drain_all`] has detached over the hub's life:
    /// what a `stop` and an orderly exit drained together.
    pub fn groups_drained(&self) -> usize {
        self.inner.drained.load(Ordering::Relaxed)
    }

    /// Snapshot the hub: every shard's group rows (none from a shard that
    /// does not answer within the RPC timeout), sorted by group id, then
    /// the transport counters — the rollup a node's
    /// [`NodeHandle::stats`](crate::NodeHandle::stats) runs.
    pub fn stats(&self) -> TransportStats {
        reactor::stats(&self.inner.mailboxes, &self.inner.counters)
    }

    /// Stop the hub: drain every group, stop every shard, join their
    /// threads. Idempotent; later calls (and other clones) are no-ops.
    pub fn shutdown(&self) {
        if self.inner.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for mb in &self.inner.mailboxes {
            mb.post(Event::Shutdown);
        }
        // A thread that panicked while holding the lock leaves the list
        // itself intact; joining what is there is still right.
        let mut threads = self.inner.threads.lock().unwrap_or_else(|e| e.into_inner());
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HubInner {
    fn drop(&mut self) {
        // Last handle gone without an explicit shutdown: stop the threads
        // rather than leaking them, but don't block on joins in drop.
        for mb in &self.mailboxes {
            mb.try_post(Event::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..=8usize {
            for g in 0..1000u32 {
                let s = shard_of(g, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(g, shards), "must be deterministic");
            }
        }
        // Degenerate count never panics.
        assert_eq!(shard_of(42, 0), 0);
    }

    #[test]
    fn shard_of_spreads_small_consecutive_ids() {
        // Sessions use small ids; the mix must not send them all to one
        // shard. Expect every shard of 4 to see at least one of 1..=16.
        let mut seen = [false; 4];
        for g in 1..=16u32 {
            seen[shard_of(g, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "ids 1..=16 must hit all 4 shards: {seen:?}");
    }

    #[test]
    fn group_seeds_differ_across_groups_and_hub_seeds() {
        assert_ne!(group_seed(1, 1), group_seed(1, 2));
        assert_ne!(group_seed(1, 1), group_seed(2, 1));
        assert_eq!(group_seed(7, 9), group_seed(7, 9));
    }

    #[test]
    fn hub_hosts_sends_and_drains_a_sole_member_group() {
        let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), HubOptions::default()).unwrap();
        let spec = GroupSpec {
            group: 5,
            peers: vec![],
            id: 1,
            members: 1,
            rate: None,
            burst: None,
            dist_ms: None,
        };
        let out = hub.create(spec.clone(), false).unwrap();
        assert_eq!(out.shard, shard_of(5, hub.shards()));
        // Duplicate create errors; duplicate join reports `already`.
        assert!(hub.create(spec.clone(), false).is_err());
        assert!(hub.create(spec, true).unwrap().already);

        let last = hub.send(5, "hello", 3).unwrap();
        assert!(last.contains("s1"), "ADU name names the source: {last}");
        assert!(hub.send(99, "x", 1).is_err(), "unhosted group refuses sends");

        let st = hub.stats();
        assert_eq!(st.groups.len(), 1);
        assert_eq!(st.groups[0].group, 5);
        assert_eq!(st.groups[0].agent_counter("data_sent"), 3);

        // A member id the envelope cannot carry is refused, not cut.
        let wide = NodeOptions::new(SourceId(1 << 32), GroupId(6), SrmConfig::fixed(1));
        let err = hub.create_with(Mode::Mesh { peers: vec![] }, wide).unwrap_err();
        assert!(err.contains("4294967296"), "{err}");
        assert!(hub.exec(6, |_, _| ()).is_err(), "the refused group is not hosted");

        let d = hub.drain(5).unwrap();
        assert_eq!((d.group, d.agent_counter("data_sent")), (5, 3));
        assert!(hub.drain(5).is_err(), "already drained");
        hub.shutdown();
        hub.shutdown(); // idempotent
    }

    #[test]
    fn quota_refusals_keep_the_accounting_invariant() {
        // A tiny bucket admits the first (oversize-with-debt) frame and
        // refuses the rest; attempted == sent + errors must still hold.
        let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), HubOptions::default()).unwrap();
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap(); // discard port
        let spec = GroupSpec {
            group: 3,
            peers: vec![peer],
            id: 1,
            members: 2,
            rate: Some(1.0),
            burst: Some(1.0),
            dist_ms: None,
        };
        hub.create(spec, false).unwrap();
        hub.send(3, "flood", 50).unwrap();
        let st = hub.stats();
        let g = &st.groups[0];
        assert!(g.quota_overflow > 0, "bucket must refuse most of the flood: {g:?}");
        assert!(g.tx_frames < 50 + g.agent_counter("session_sent"), "refused frames never fan out");
        assert_eq!(
            st.frames_attempted,
            st.frames_sent + st.send_errors,
            "hub invariant: {st:?}"
        );
        hub.shutdown();
    }
}