//! A member's life across failures: the crash that loses volatile state,
//! the restart that rejoins as a late joiner (§III-A), and the durable
//! store's rehydrate that brings back what stable storage kept.

use super::SrmAgent;
use crate::{driver::Driver, name::SeqNo};
use crate::store::{Persistence, Rehydrated};

impl SrmAgent {
    /// The member's host crashed: full loss of *volatile* protocol state.
    ///
    /// Rebuilds from scratch, carrying over only the identity,
    /// configuration, and the observer-side metrics (the experiment is
    /// watching the crash, the member is not). If a durability layer is
    /// attached it survives too — but first its own [`crate::store::Persistence::crash`]
    /// runs, dropping whatever was appended and never synced, so the log
    /// holds exactly what real stable storage would after a power cut.
    pub fn drive_crash(&mut self) {
        let mut old = std::mem::replace(self, SrmAgent::new(self.id, self.group, self.cfg.clone()));
        self.session_enabled = old.session_enabled;
        self.metrics = old.metrics;
        self.metrics.drop_inflight();
        self.metrics.crashes += 1;
        self.obs = old.obs;
        self.transport_obs = old.transport_obs;
        self.liveness = old.liveness;
        if let Some(mut p) = old.store.take_persistence() {
            p.crash();
            self.store.cache_per_stream = old.store.cache_per_stream;
            self.store.evictions = old.store.evictions;
            self.store.disk_fetches = old.store.disk_fetches;
            self.store.attach_persistence(p);
        }
    }

    /// The member's host came back up after a crash.
    ///
    /// A durable member first replays its log: the page catalog, high-water
    /// marks, and own-stream sequence counters come back from stable
    /// storage, so it restarts as a repair-capable peer — the PR 1
    /// full-state-loss behavior applies only when no backend is attached.
    /// Either way the member then rejoins as a late joiner (§III-A):
    /// `rejoining` lifts the own-source guards so the unsynced tail (and
    /// anything published while it was down) is chased from the group.
    pub fn drive_restart(&mut self, ctx: &mut dyn Driver) {
        if self.store.has_persistence() {
            if let Some(summary) = self.store.rehydrate() {
                self.resume_from_rehydrate(&summary);
                self.transport_obs.record(
                    ctx.now(),
                    obs::TransportEventKind::StoreRehydrate {
                        adus: summary.names.len() as u64,
                        segments: summary.segments,
                        truncated_bytes: summary.truncated_bytes,
                    },
                );
            }
        }
        self.rejoining = true;
        self.drive_start(ctx);
        self.request_page_catalog(ctx);
    }

    /// Attach a durability layer to the ADU store and replay it
    /// immediately. This is the single rehydrate path: the wall-clock
    /// runtime calls it at startup (`srm-node --store`) and the
    /// fault-injected simulator reaches the same code through
    /// [`SrmAgent::drive_restart`].
    ///
    /// `cache_per_stream` bounds the in-memory payload cache (spill to the
    /// log beyond it); `None` keeps everything resident while still
    /// logging. Returns the replay summary.
    pub fn attach_durable_store(
        &mut self,
        p: Box<dyn Persistence>,
        cache_per_stream: Option<usize>,
    ) -> Rehydrated {
        self.store.cache_per_stream = cache_per_stream;
        self.store.attach_persistence(p);
        let summary = self.store.rehydrate().expect("persistence just attached");
        self.resume_from_rehydrate(&summary);
        summary
    }

    /// Resume volatile state implied by a rehydrated catalog: our own
    /// streams' next sequence numbers continue after the highest durable
    /// ADU, so a restarted source never reuses a name for different data
    /// (up to the last fsync; an unsynced own tail is additionally fenced
    /// by the session state learned while `rejoining`).
    fn resume_from_rehydrate(&mut self, summary: &Rehydrated) {
        // Resume viewing the page we were last working on (the log's final
        // append): session messages then advertise the rehydrated state,
        // which is what lets peers detect and request what they missed
        // while we were down.
        if let Some(last) = summary.last_appended {
            self.current_page = last.page;
        }
        for name in &summary.names {
            if name.source != self.id {
                continue;
            }
            let next = self.next_seq.entry(name.page).or_insert(SeqNo::ZERO);
            if name.seq.next() > *next {
                *next = name.seq.next();
            }
        }
    }

    /// Force the durable store onto stable storage (clean shutdown).
    pub fn flush_store(&mut self) {
        self.store.flush();
    }
}
