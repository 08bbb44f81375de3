//! The ADU store: what this member has received or originated.
//!
//! Data is held per `(source, page)` stream, indexed by sequence number (see
//! `Stream`). The store answers the three questions loss recovery needs:
//! *do I have this name?* (so I can answer a request), *what is the highest
//! sequence I know of per stream?* (for session messages), and *which
//! sequence numbers am I missing?* (gap detection).
//!
//! "This does not require that all session members keep all of the data all
//! of the time": with a log attached, a bounded cache keeps only the
//! newest payloads in RAM, and reliability only needs each item to survive
//! *somewhere* in the session.
//!
//! # Durability
//!
//! The store optionally sits on top of a [`Persistence`] layer (implemented
//! by the `srm-store` crate's write-ahead log). When attached:
//!
//! * every fresh insert is also appended to the log before it is visible;
//! * a bounded in-memory cache ([`AduStore::cache_per_stream`]) evicts the
//!   oldest payloads from RAM while keeping their *names* (a slot's
//!   durable bit), so `has`/gap detection still answer correctly;
//! * [`AduStore::fetch`] reads through to disk for evicted names, which is
//!   how repair requests older than the memory window are served;
//! * [`AduStore::rehydrate`] replays the log after a restart, rebuilding the
//!   page catalog so a crashed member rejoins as a repair-capable peer.
//!
//! With no persistence attached (the default everywhere), behavior is
//! byte-identical to the purely in-memory store.

use crate::name::{AduName, PageId, SeqNo, SourceId};
use bytes::Bytes;
use std::collections::BTreeMap;

/// Counters a [`Persistence`] implementation reports about itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistenceStats {
    /// Records appended to the write-ahead log.
    pub appends: u64,
    /// Bytes appended (framing included).
    pub bytes_appended: u64,
    /// Physical syncs issued to the backing store.
    pub fsyncs: u64,
    /// Snapshot/compaction passes completed.
    pub snapshots: u64,
    /// Payloads read back from the log (disk-served fetches).
    pub reads: u64,
    /// Live segments in the log right now.
    pub segments: u64,
    /// Distinct ADU records live in the log right now.
    pub live_records: u64,
    /// Backend I/O failures (the affected record is not marked durable).
    pub io_errors: u64,
}

/// Summary of a completed [`Persistence::rehydrate`] pass.
#[derive(Clone, Debug, Default)]
pub struct Rehydrated {
    /// Every durable ADU name recovered from the log, ascending.
    pub names: Vec<AduName>,
    /// Bytes dropped from the log tail because the final record was torn
    /// or failed its checksum.
    pub truncated_bytes: u64,
    /// Segments replayed.
    pub segments: u64,
    /// The most recently *appended* surviving ADU (log order, not name
    /// order): what the member was working on when it went down. Restores
    /// the viewed page so the restarted member's session messages
    /// advertise the rehydrated state.
    pub last_appended: Option<AduName>,
}

/// A durability backend beneath [`AduStore`]: an append-only log of named
/// ADUs that survives the process.
///
/// The contract mirrors SRM's naming bet: a name always refers to the same
/// data, so the log never needs updates — only appends, reads, and
/// wholesale compaction. Implementations live in the `srm-store` crate
/// (real files and a deterministic in-memory backend for the simulator);
/// this trait lives here so the agent core never depends on them.
pub trait Persistence: std::fmt::Debug + Send {
    /// Durably record `payload` under `name`. Called once per fresh
    /// insert; returns `false` if the record could not be appended (the
    /// caller then treats the ADU as memory-only).
    fn persist(&mut self, name: AduName, payload: &Bytes) -> bool;

    /// Read back a payload previously persisted. `None` if the name is not
    /// in the log (or its record was lost to a torn tail).
    fn read(&mut self, name: &AduName) -> Option<Bytes>;

    /// Force everything appended so far onto stable storage (clean
    /// shutdown; stronger than the configured fsync policy).
    fn flush(&mut self);

    /// Model process death: drop whatever was appended but never synced and
    /// forget all in-memory state. The next [`Persistence::rehydrate`]
    /// must rebuild purely from what survived on stable storage.
    fn crash(&mut self);

    /// Replay the log from stable storage: rebuild the internal index,
    /// truncate any torn tail, and report every recovered name.
    fn rehydrate(&mut self) -> Rehydrated;

    /// Self-reported counters.
    fn stats(&self) -> PersistenceStats;
}

/// Slots per chunk: one `u64` bitmap per state bit.
const CHUNK: u64 = 64;

/// Payload slots a chunk allocates for its first payload. A stream of a
/// few ADUs (most simulated members hold one or two) stays at this size;
/// the first payload beyond it grows the chunk to all [`CHUNK`] slots, so
/// a stream that fills its chunks pays two allocations per chunk.
const FIRST_SLOTS: usize = 4;

/// [`CHUNK`] consecutive sequence numbers of one stream. A slot is one of
/// *empty*, *in RAM*, *durable on disk*, or *both*: the two bitmaps.
#[derive(Clone, Debug, Default)]
struct Chunk {
    /// Bit `i`: slot `i`'s payload is in `slots` (in RAM).
    ram: u64,
    /// Bit `i`: the persistence layer holds slot `i`'s payload.
    durable: u64,
    /// Bit `i`: the agent marked slot `i` ([`AduStore::mark`]). Says
    /// nothing about the payload and goes when the chunk goes.
    marked: u64,
    /// Payloads by slot, `Some` exactly where `ram` is set. Allocated with
    /// the first payload, grown as [`FIRST_SLOTS`] describes, and freed
    /// when the last payload is evicted — a chunk that is only durable
    /// costs its three bitmaps.
    slots: Vec<Option<Bytes>>,
}

impl Chunk {
    /// Bit `i`: slot `i` is recoverable (RAM or disk).
    fn held(&self) -> u64 {
        self.ram | self.durable
    }

    fn put(&mut self, i: u64, payload: Bytes) {
        let at = i as usize;
        if at >= self.slots.len() {
            let cap = if at < FIRST_SLOTS {
                FIRST_SLOTS
            } else {
                CHUNK as usize
            };
            self.slots.reserve_exact(cap - self.slots.len());
            self.slots.resize(at + 1, None);
        }
        self.slots[at] = Some(payload);
        self.ram |= 1 << i;
    }

    /// Drop the lowest payload from RAM and return its slot.
    fn evict_lowest(&mut self) -> u64 {
        let i = u64::from(self.ram.trailing_zeros());
        self.slots[i as usize] = None;
        self.ram &= !(1 << i);
        if self.ram == 0 {
            self.slots = Vec::new();
        }
        i
    }
}

/// One `(source, page)` stream: what is held of a sequence-number space,
/// indexed by sequence number.
///
/// The paper names data `(Source-ID, page, sequence number)` with
/// consecutive sequence numbers (§III), so what a member holds is dense
/// almost everywhere — but a sequence number arrives off the wire, and one
/// corrupt frame may claim 2⁶². The outer index is therefore a sparse map
/// keyed by `seq / CHUNK` (memory follows the ADUs held, never the highest
/// number seen), and the chunk in-order traffic is filling sits beside the
/// map, so the steady state walks no tree.
#[derive(Clone, Debug, Default)]
struct Stream {
    /// Chunks by `seq / CHUNK`, all but the highest. A chunk whose last
    /// slot empties is removed.
    chunks: BTreeMap<u64, Chunk>,
    /// The chunk with the highest key, and that key.
    tail: Option<(u64, Chunk)>,
    /// Payloads in RAM across all chunks.
    in_ram: usize,
    /// Eviction cursor: no payload in RAM has a lower sequence number.
    lowest: u64,
    /// Highest sequence number known to exist (from data or session
    /// messages), even if not yet received.
    highest_known: Option<SeqNo>,
}

impl Stream {
    fn chunk(&self, key: u64) -> Option<&Chunk> {
        match &self.tail {
            Some((k, c)) if *k == key => Some(c),
            _ => self.chunks.get(&key),
        }
    }

    fn existing_chunk_mut(&mut self, key: u64) -> Option<&mut Chunk> {
        match &mut self.tail {
            Some((k, c)) if *k == key => Some(c),
            _ => self.chunks.get_mut(&key),
        }
    }

    /// The chunk for `key`, created if absent; call only to fill a slot.
    /// A key beyond the tail's becomes the new tail.
    fn chunk_mut(&mut self, key: u64) -> &mut Chunk {
        match self.tail {
            Some((k, _)) if k == key => {}
            Some((k, _)) if k > key => return self.chunks.entry(key).or_default(),
            _ => {
                if let Some((k, old)) = self.tail.replace((key, Chunk::default())) {
                    if old.held() != 0 {
                        self.chunks.insert(k, old);
                    }
                }
            }
        }
        &mut self.tail.as_mut().expect("matched or just set").1
    }

    /// Is the payload for `seq` recoverable (RAM or disk)?
    fn holds(&self, seq: u64) -> bool {
        self.chunk(seq / CHUNK)
            .is_some_and(|c| c.held() >> (seq % CHUNK) & 1 == 1)
    }

    fn all_chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks
            .values()
            .chain(self.tail.as_ref().map(|(_, c)| c))
    }

    /// Call `f` with every sequence number in `lo..=hi` that is not held,
    /// ascending — one chunk lookup per chunk, not per number.
    fn for_each_missing(&self, lo: u64, hi: u64, mut f: impl FnMut(u64)) {
        let mut q = lo;
        while q <= hi {
            let key = q / CHUNK;
            let last = hi.min(key * CHUNK + (CHUNK - 1));
            let held = self.chunk(key).map_or(0, Chunk::held);
            (q..=last)
                .filter(|q| held >> (q % CHUNK) & 1 == 0)
                .for_each(&mut f);
            match last.checked_add(1) {
                Some(next) => q = next,
                None => break,
            }
        }
    }

    /// Drop the lowest-numbered payload from RAM (its durable bit, if any,
    /// stays: the name is still held).
    fn evict_lowest(&mut self) {
        let from = self.lowest / CHUNK;
        let in_map = self.chunks.range_mut(from..).find(|(_, c)| c.ram != 0);
        let (key, chunk, mapped) = match in_map {
            Some((k, c)) => (*k, c, true),
            None => {
                let (k, c) = self.tail.as_mut().expect("a payload in RAM has a chunk");
                (*k, c, false)
            }
        };
        self.lowest = key * CHUNK + chunk.evict_lowest() + 1;
        self.in_ram -= 1;
        if mapped && chunk.held() == 0 {
            self.chunks.remove(&key);
        }
    }
}

/// Per-member data store.
#[derive(Debug, Default)]
pub struct AduStore {
    streams: BTreeMap<(SourceId, PageId), Stream>,
    /// With persistence attached: keep at most this many *payloads* per
    /// stream in RAM; older ones spill to the log and are re-read on
    /// demand by [`AduStore::fetch`]. Ignored without persistence.
    pub cache_per_stream: Option<usize>,
    /// Upper bound on how many missing names a single sequence-number jump
    /// may enumerate. A corrupt (or hostile) packet claiming seq 2⁶²
    /// would otherwise make gap detection materialize billions of request
    /// states; with the cap, only the *newest* `gap_cap` holes are chased.
    /// Legitimate gaps are orders of magnitude smaller.
    pub gap_cap: u64,
    /// Optional durability layer; see the module docs.
    persistence: Option<Box<dyn Persistence>>,
    /// Payloads evicted from RAM to the log (spills). Crate-visible so a
    /// crash/restart cycle can carry the lifetime counter across the
    /// agent reset, like the agent's own metrics.
    pub(crate) evictions: u64,
    /// Fetches served by reading the log instead of RAM (see
    /// [`AduStore::evictions`] on crate visibility).
    pub(crate) disk_fetches: u64,
}

impl AduStore {
    /// Empty store, every payload kept in RAM.
    pub fn new() -> Self {
        AduStore {
            streams: BTreeMap::new(),
            cache_per_stream: None,
            gap_cap: 4096,
            persistence: None,
            evictions: 0,
            disk_fetches: 0,
        }
    }

    /// Attach a durability layer. Existing in-memory contents are *not*
    /// retroactively persisted; attach before inserting (or right after
    /// construction, which is what the agent does).
    pub fn attach_persistence(&mut self, p: Box<dyn Persistence>) {
        self.persistence = Some(p);
    }

    /// Detach and return the durability layer (crash handling: the log
    /// outlives the agent's in-memory state).
    pub fn take_persistence(&mut self) -> Option<Box<dyn Persistence>> {
        self.persistence.take()
    }

    /// Is a durability layer attached?
    pub fn has_persistence(&self) -> bool {
        self.persistence.is_some()
    }

    /// The durability layer's self-reported counters, if attached.
    pub fn persistence_stats(&self) -> Option<PersistenceStats> {
        self.persistence.as_ref().map(|p| p.stats())
    }

    /// Payloads spilled from RAM to the log so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Fetches served from the log instead of RAM so far.
    pub fn disk_fetches(&self) -> u64 {
        self.disk_fetches
    }

    /// Force the durability layer onto stable storage (clean shutdown).
    pub fn flush(&mut self) {
        if let Some(p) = self.persistence.as_mut() {
            p.flush();
        }
    }

    /// Replay the attached log and rebuild the page catalog from it:
    /// every recovered name becomes durable (payload stays on disk until
    /// fetched) and per-stream high-water marks resume at the highest
    /// recovered sequence. Returns the replay summary, or `None` without
    /// persistence.
    pub fn rehydrate(&mut self) -> Option<Rehydrated> {
        let summary = self.persistence.as_mut()?.rehydrate();
        for name in &summary.names {
            let s = self.streams.entry((name.source, name.page)).or_default();
            s.chunk_mut(name.seq.0 / CHUNK).durable |= 1 << (name.seq.0 % CHUNK);
            if s.highest_known.is_none_or(|h| name.seq > h) {
                s.highest_known = Some(name.seq);
            }
        }
        Some(summary)
    }

    /// Insert a payload under `name`. Returns `true` if it was new.
    ///
    /// Re-insertion under the same name is idempotent and keeps the first
    /// payload: "the name always refers to the same data". A name already
    /// durable on disk (even if evicted from RAM) counts as held.
    pub fn insert(&mut self, name: AduName, payload: Bytes) -> bool {
        self.insert_with(name, || payload)
    }

    /// [`AduStore::insert`], making the payload only if the store keeps it:
    /// a caller holding a shared payload clones it just for a new name.
    pub fn insert_with(&mut self, name: AduName, payload: impl FnOnce() -> Bytes) -> bool {
        let cache_limit = self.persistence.as_ref().and(self.cache_per_stream);
        let (seq, slot) = (name.seq.0, name.seq.0 % CHUNK);
        let s = self.streams.entry((name.source, name.page)).or_default();
        if s.holds(seq) {
            return false;
        }
        let payload = payload();
        let durable = self
            .persistence
            .as_mut()
            .is_some_and(|p| p.persist(name, &payload));
        let chunk = s.chunk_mut(seq / CHUNK);
        chunk.durable |= u64::from(durable) << slot;
        chunk.put(slot, payload);
        if s.in_ram == 0 || seq < s.lowest {
            s.lowest = seq;
        }
        s.in_ram += 1;
        if s.highest_known.is_none_or(|h| name.seq > h) {
            s.highest_known = Some(name.seq);
        }
        if let Some(limit) = cache_limit {
            while s.in_ram > limit {
                s.evict_lowest();
                self.evictions += 1;
            }
        }
        true
    }

    /// Do we hold the payload for `name` — in RAM or durably on disk?
    pub fn has(&self, name: &AduName) -> bool {
        self.streams
            .get(&(name.source, name.page))
            .is_some_and(|s| s.holds(name.seq.0))
    }

    /// Retrieve the payload for `name` from RAM, if cached. Does not touch
    /// the durability layer; use [`AduStore::fetch`] to read through.
    pub fn get(&self, name: &AduName) -> Option<Bytes> {
        let chunk = self
            .streams
            .get(&(name.source, name.page))?
            .chunk(name.seq.0 / CHUNK)?;
        chunk.slots.get((name.seq.0 % CHUNK) as usize)?.clone()
    }

    /// Retrieve the payload for `name`, reading through to the durability
    /// layer when it has been evicted from (or never entered) RAM. Fetched
    /// payloads are returned without re-warming the cache: repair sends are
    /// one-shot and re-caching would churn the eviction window.
    pub fn fetch(&mut self, name: &AduName) -> Option<Bytes> {
        let chunk = self
            .streams
            .get(&(name.source, name.page))?
            .chunk(name.seq.0 / CHUNK)?;
        let slot = name.seq.0 % CHUNK;
        if let Some(Some(b)) = chunk.slots.get(slot as usize) {
            return Some(b.clone());
        }
        if chunk.durable >> slot & 1 == 0 {
            return None;
        }
        let b = self.persistence.as_mut()?.read(name)?;
        self.disk_fetches += 1;
        Some(b)
    }

    /// Set the one spare bit the store keeps per held name. The agent uses
    /// it for the single fact it needs about a recovery episode it has
    /// forgotten: "I once set a repair timer for this name". A name whose
    /// chunk is gone (never held, or evicted with everything around it)
    /// is not marked and reads unmarked.
    pub fn mark(&mut self, name: &AduName) {
        let chunk = self
            .streams
            .get_mut(&(name.source, name.page))
            .and_then(|s| s.existing_chunk_mut(name.seq.0 / CHUNK));
        if let Some(c) = chunk {
            c.marked |= 1 << (name.seq.0 % CHUNK);
        }
    }

    /// Was `name` marked ([`AduStore::mark`]) since its chunk came to be?
    pub fn marked(&self, name: &AduName) -> bool {
        self.streams
            .get(&(name.source, name.page))
            .and_then(|s| s.chunk(name.seq.0 / CHUNK))
            .is_some_and(|c| c.marked >> (name.seq.0 % CHUNK) & 1 == 1)
    }

    /// Record that sequence numbers up to `seq` exist on `(source, page)`
    /// (learned from a data arrival or a session message). Returns the list
    /// of sequence numbers that are now known missing — i.e. the newly
    /// detected gap, ascending.
    ///
    /// Jumps larger than [`AduStore::gap_cap`] report only the newest
    /// `gap_cap` holes (bounded resource use under corruption; see the
    /// field's documentation).
    pub fn note_exists(&mut self, source: SourceId, page: PageId, seq: SeqNo) -> Vec<AduName> {
        self.note_gap(source, page, seq, true)
    }

    /// [`AduStore::note_exists`] for `seq` arriving: the same gap without
    /// `seq` itself, so an in-order arrival reports an empty list, which
    /// does not allocate.
    pub fn note_arrival(&mut self, source: SourceId, page: PageId, seq: SeqNo) -> Vec<AduName> {
        self.note_gap(source, page, seq, false)
    }

    fn note_gap(&mut self, source: SourceId, page: PageId, seq: SeqNo, with_seq: bool) -> Vec<AduName> {
        let s = self.streams.entry((source, page)).or_default();
        let prev = s.highest_known;
        if prev.is_none_or(|h| seq > h) {
            s.highest_known = Some(seq);
        }
        // Newly discovered names: (prev, seq]; missing = those not held.
        let Some(mut start) = prev.map_or(Some(0), |h| h.0.checked_add(1)) else {
            return Vec::new();
        };
        if start > seq.0 {
            return Vec::new();
        }
        // `span - 1`: the span itself overflows for a claim of seq 2⁶⁴ − 1.
        if seq.0 - start >= self.gap_cap {
            start = seq.0 - self.gap_cap.saturating_sub(1);
        }
        let hi = match (with_seq, seq.0.checked_sub(1)) {
            (true, _) => seq.0,
            (false, Some(hi)) if hi >= start => hi,
            (false, _) => return Vec::new(),
        };
        let mut out = Vec::new();
        s.for_each_missing(start, hi, |q| out.push(AduName::new(source, page, SeqNo(q))));
        out
    }

    /// Highest sequence number known to exist on `(source, page)`.
    pub fn highest_known(&self, source: SourceId, page: PageId) -> Option<SeqNo> {
        self.streams
            .get(&(source, page))
            .and_then(|s| s.highest_known)
    }

    /// Every name known to exist but not held, across all streams of `page`
    /// (the newest [`AduStore::gap_cap`] per stream, for bounded output).
    pub fn missing_on_page(&self, page: PageId) -> Vec<AduName> {
        let mut out = Vec::new();
        for ((src, pg), s) in &self.streams {
            if *pg != page {
                continue;
            }
            if let Some(h) = s.highest_known {
                let start = h.0.saturating_sub(self.gap_cap.saturating_sub(1));
                s.for_each_missing(start, h.0, |q| out.push(AduName::new(*src, *pg, SeqNo(q))));
            }
        }
        out
    }

    /// The session-message state report for `page`: highest sequence known
    /// per active source (Section III-A). Sorted by source.
    pub fn page_state(&self, page: PageId) -> Vec<(SourceId, SeqNo)> {
        self.streams
            .iter()
            .filter(|((_, pg), _)| *pg == page)
            .filter_map(|((src, _), s)| s.highest_known.map(|h| (*src, h)))
            .collect()
    }

    /// All pages this store has streams for, ascending, deduplicated.
    pub fn known_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.streams.keys().map(|&(_, p)| p).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Count of ADUs held in RAM across all streams.
    pub fn len(&self) -> usize {
        self.streams.values().map(|s| s.in_ram).sum()
    }

    /// Count of ADUs recoverable across all streams: cached in RAM or
    /// durable on disk (union, not sum — cached ADUs are usually durable
    /// too).
    pub fn recoverable_len(&self) -> usize {
        self.streams
            .values()
            .flat_map(Stream::all_chunks)
            .map(|c| c.held().count_ones() as usize)
            .sum()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: SourceId = SourceId(1);

    fn page() -> PageId {
        PageId::new(SRC, 0)
    }

    fn n(seq: u64) -> AduName {
        AduName::new(SRC, page(), SeqNo(seq))
    }

    /// Minimal in-memory Persistence for unit-testing the store's
    /// read-through and eviction plumbing (the real WAL lives in
    /// `srm-store`).
    #[derive(Debug, Default)]
    struct FakeLog {
        records: BTreeMap<AduName, Bytes>,
        stats: PersistenceStats,
        /// Fail every append, as a log whose disk is gone does: a spilled
        /// payload is then lost with its name.
        refuse: bool,
    }

    impl Persistence for FakeLog {
        fn persist(&mut self, name: AduName, payload: &Bytes) -> bool {
            if self.refuse {
                self.stats.io_errors += 1;
                return false;
            }
            self.records.insert(name, payload.clone());
            self.stats.appends += 1;
            true
        }
        fn read(&mut self, name: &AduName) -> Option<Bytes> {
            self.stats.reads += 1;
            self.records.get(name).cloned()
        }
        fn flush(&mut self) {}
        fn crash(&mut self) {}
        fn rehydrate(&mut self) -> Rehydrated {
            Rehydrated {
                names: self.records.keys().copied().collect(),
                truncated_bytes: 0,
                segments: 1,
                last_appended: self.records.keys().next_back().copied(),
            }
        }
        fn stats(&self) -> PersistenceStats {
            self.stats
        }
    }

    #[test]
    fn insert_and_get() {
        let mut st = AduStore::new();
        assert!(st.insert(n(0), Bytes::from_static(b"a")));
        assert!(st.has(&n(0)));
        assert_eq!(st.get(&n(0)).unwrap(), Bytes::from_static(b"a"));
        assert!(!st.has(&n(1)));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn reinsert_is_idempotent_and_keeps_first() {
        let mut st = AduStore::new();
        st.insert(n(0), Bytes::from_static(b"first"));
        assert!(!st.insert(n(0), Bytes::from_static(b"second")));
        assert_eq!(st.get(&n(0)).unwrap(), Bytes::from_static(b"first"));
    }

    #[test]
    fn gap_detection_on_data_arrival() {
        let mut st = AduStore::new();
        st.insert(n(0), Bytes::new());
        let missing = st.note_exists(SRC, page(), SeqNo(3));
        assert_eq!(missing, vec![n(1), n(2), n(3)]);
        // A later note for the same high water mark reports nothing new.
        assert!(st.note_exists(SRC, page(), SeqNo(3)).is_empty());
    }

    #[test]
    fn an_arrival_reports_only_the_names_before_it() {
        let mut st = AduStore::new();
        assert!(st.note_arrival(SRC, page(), SeqNo(0)).is_empty());
        st.insert(n(0), Bytes::new());
        assert!(st.note_arrival(SRC, page(), SeqNo(1)).is_empty(), "in order");
        st.insert(n(1), Bytes::new());
        assert_eq!(st.note_arrival(SRC, page(), SeqNo(4)), vec![n(2), n(3)]);
        // A late arrival inside the known range reports nothing new.
        assert!(st.note_arrival(SRC, page(), SeqNo(2)).is_empty());
    }

    #[test]
    fn gap_detection_from_scratch_includes_seq_zero() {
        let mut st = AduStore::new();
        // Session message says seq 2 exists; we have nothing.
        let missing = st.note_exists(SRC, page(), SeqNo(2));
        assert_eq!(missing, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn missing_on_page_reflects_holes() {
        let mut st = AduStore::new();
        st.insert(n(0), Bytes::new());
        st.insert(n(2), Bytes::new());
        st.note_exists(SRC, page(), SeqNo(4));
        assert_eq!(st.missing_on_page(page()), vec![n(1), n(3), n(4)]);
    }

    #[test]
    fn page_state_reports_highest_known() {
        let mut st = AduStore::new();
        st.insert(n(0), Bytes::new());
        st.note_exists(SRC, page(), SeqNo(5));
        let other = SourceId(2);
        st.insert(AduName::new(other, page(), SeqNo(7)), Bytes::new());
        let mut state = st.page_state(page());
        state.sort();
        assert_eq!(state, vec![(SRC, SeqNo(5)), (other, SeqNo(7))]);
    }

    /// A store whose log refuses every append, keeping `cache` payloads
    /// per stream: what it evicts is gone.
    fn failing_log_store(cache: usize) -> AduStore {
        let mut st = AduStore::new();
        st.cache_per_stream = Some(cache);
        st.attach_persistence(Box::new(FakeLog { refuse: true, ..FakeLog::default() }));
        st
    }

    #[test]
    fn a_payload_the_log_refused_is_lost_when_evicted() {
        let mut st = failing_log_store(2);
        st.insert(n(0), Bytes::new());
        st.insert(n(1), Bytes::new());
        st.insert(n(2), Bytes::new());
        assert!(!st.has(&n(0)));
        assert!(st.has(&n(1)));
        assert!(st.has(&n(2)));
        // highest_known is unaffected by eviction.
        assert_eq!(st.highest_known(SRC, page()), Some(SeqNo(2)));
    }

    #[test]
    fn gap_cap_bounds_enumeration() {
        let mut st = AduStore::new();
        st.gap_cap = 10;
        // A corrupt claim of seq 2^40 yields only the newest 10 names.
        let missing = st.note_exists(SRC, page(), SeqNo(1 << 40));
        assert_eq!(missing.len(), 10);
        assert_eq!(missing.last().unwrap().seq, SeqNo(1 << 40));
        assert_eq!(missing.first().unwrap().seq, SeqNo((1 << 40) - 9));
        // missing_on_page is bounded the same way.
        assert_eq!(st.missing_on_page(page()).len(), 10);
        // Subsequent small jumps behave normally.
        let more = st.note_exists(SRC, page(), SeqNo((1 << 40) + 2));
        assert_eq!(more.len(), 2);
    }

    #[test]
    fn hostile_sequence_numbers_cost_one_chunk() {
        let mut st = AduStore::new();
        for q in 0..200 {
            st.insert(n(q), Bytes::new());
        }
        // One corrupt frame claims seq 2⁶², another the last number there is.
        for far in [1 << 62, u64::MAX] {
            assert_eq!(
                st.note_exists(SRC, page(), SeqNo(far)).len() as u64,
                st.gap_cap
            );
            assert!(st.insert(n(far), Bytes::from_static(b"far")));
            assert_eq!(st.get(&n(far)).unwrap(), Bytes::from_static(b"far"));
            assert!(!st.has(&n(far - 1)));
            assert_eq!(st.missing_on_page(page()).len() as u64, st.gap_cap - 1);
        }
        assert_eq!(st.len(), 202);
        // 200 ADUs fill four chunks; each far one added a chunk of
        // `FIRST_SLOTS` or `CHUNK` slots, and nothing in between.
        let s = &st.streams[&(SRC, page())];
        assert_eq!(s.all_chunks().count(), 6);
        assert!(s.all_chunks().all(|c| c.slots.capacity() <= CHUNK as usize));
        assert_eq!(s.tail.as_ref().unwrap().0, u64::MAX / CHUNK);
        // The ordinary numbers still work, off the tail now.
        assert!(st.insert(n(200), Bytes::new()));
        assert!(st.has(&n(200)) && !st.has(&n(201)));
    }

    #[test]
    fn a_mark_sticks_to_a_held_name_and_goes_with_its_chunk() {
        let mut st = failing_log_store(1);
        st.mark(&n(3));
        assert!(!st.marked(&n(3)), "nothing held, nothing to mark");
        st.insert(n(3), Bytes::new());
        assert!(!st.marked(&n(3)));
        st.mark(&n(3));
        assert!(st.marked(&n(3)) && !st.marked(&n(4)));
        // Seq 3 is evicted, but its chunk lives on while seq 4 is held ...
        st.insert(n(4), Bytes::new());
        assert!(!st.has(&n(3)) && st.marked(&n(3)));
        // ... and is dropped once the stream has moved on to the next one.
        st.insert(n(CHUNK), Bytes::new());
        assert!(!st.marked(&n(3)));
    }

    #[test]
    fn a_short_stream_stays_small_and_eviction_frees_the_slots() {
        let mut st = AduStore::new();
        st.insert(n(0), Bytes::new());
        let slots = |st: &AduStore| {
            st.streams[&(SRC, page())]
                .tail
                .as_ref()
                .unwrap()
                .1
                .slots
                .capacity()
        };
        assert_eq!(slots(&st), FIRST_SLOTS);
        st.insert(n(FIRST_SLOTS as u64), Bytes::new());
        assert_eq!(slots(&st), CHUNK as usize);
        // With a log, a chunk whose payloads all spilled keeps its bitmaps.
        st.cache_per_stream = Some(1);
        st.attach_persistence(Box::<FakeLog>::default());
        for q in 10..=CHUNK {
            st.insert(n(q), Bytes::new());
        }
        let s = &st.streams[&(SRC, page())];
        assert_eq!(s.chunks[&0].slots.capacity(), 0);
        assert_eq!(s.chunks[&0].durable.count_ones(), 54);
        // With a log that refused them, a chunk that empties is gone.
        let mut st = failing_log_store(1);
        for q in 0..=CHUNK {
            st.insert(n(q), Bytes::new());
        }
        assert!(st.streams[&(SRC, page())].chunks.is_empty());
    }

    #[test]
    fn known_pages_lists_all() {
        let mut st = AduStore::new();
        let p0 = PageId::new(SRC, 0);
        let p1 = PageId::new(SRC, 1);
        st.insert(AduName::new(SRC, p0, SeqNo(0)), Bytes::new());
        st.insert(AduName::new(SRC, p1, SeqNo(0)), Bytes::new());
        st.insert(AduName::new(SourceId(9), p1, SeqNo(0)), Bytes::new());
        assert_eq!(st.known_pages(), vec![p0, p1]);
    }

    #[test]
    fn spill_eviction_keeps_name_and_fetch_reads_through() {
        let mut st = AduStore::new();
        st.cache_per_stream = Some(2);
        st.attach_persistence(Box::<FakeLog>::default());
        st.insert(n(0), Bytes::from_static(b"zero"));
        st.insert(n(1), Bytes::from_static(b"one"));
        st.insert(n(2), Bytes::from_static(b"two"));
        // Seq 0 spilled: not in RAM, but still *held* and fetchable.
        assert_eq!(st.get(&n(0)), None);
        assert!(st.has(&n(0)));
        assert_eq!(st.fetch(&n(0)).unwrap(), Bytes::from_static(b"zero"));
        assert_eq!(st.evictions(), 1);
        assert_eq!(st.disk_fetches(), 1);
        // Gap detection does not consider a spilled ADU missing.
        assert!(st.note_exists(SRC, page(), SeqNo(2)).is_empty());
        assert!(st.missing_on_page(page()).is_empty());
        // A repair arriving for a spilled name is a duplicate, not fresh.
        assert!(!st.insert(n(0), Bytes::from_static(b"imposter")));
        assert_eq!(st.len(), 2);
        assert_eq!(st.recoverable_len(), 3);
    }

    #[test]
    fn rehydrate_rebuilds_catalog_without_warming_cache() {
        let mut log = FakeLog::default();
        log.records.insert(n(0), Bytes::from_static(b"zero"));
        log.records.insert(n(3), Bytes::from_static(b"three"));
        let mut st = AduStore::new();
        st.attach_persistence(Box::new(log));
        let summary = st.rehydrate().unwrap();
        assert_eq!(summary.names, vec![n(0), n(3)]);
        // Catalog is back (names + high water), payloads stay on disk.
        assert!(st.has(&n(0)) && st.has(&n(3)));
        assert_eq!(st.len(), 0);
        assert_eq!(st.recoverable_len(), 2);
        assert_eq!(st.highest_known(SRC, page()), Some(SeqNo(3)));
        // The holes between recovered names are still chased.
        assert_eq!(st.missing_on_page(page()), vec![n(1), n(2)]);
        assert_eq!(st.fetch(&n(3)).unwrap(), Bytes::from_static(b"three"));
    }
}
