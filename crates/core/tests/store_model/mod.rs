//! A reference model of [`srm::AduStore`] and a random script that drives
//! the store and the model side by side.
//!
//! The model is the store as it was before it became sequence-indexed: per
//! stream a `BTreeMap` of payloads and a `BTreeSet` of durable names, every
//! operation the obvious tree probe. It is slow and plainly right, and the
//! store must give the same answer to every question at every step — the
//! simulator, the goldens and the figure CSVs all rest on that.
//!
//! Shared by `store_equivalence.rs` here (a fake log) and by
//! `crates/store/tests/wal_properties.rs`, which includes this file by path
//! and runs the same script over the real write-ahead log.

use bytes::Bytes;
use srm::{AduName, AduStore, PageId, Persistence, Rehydrated, SeqNo, SourceId};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Default)]
struct ModelStream {
    data: BTreeMap<SeqNo, Bytes>,
    durable: BTreeSet<SeqNo>,
    highest_known: Option<SeqNo>,
}

impl ModelStream {
    fn holds(&self, seq: &SeqNo) -> bool {
        self.data.contains_key(seq) || self.durable.contains(seq)
    }
}

/// The reference store. Same fields, same methods, trees throughout.
#[derive(Default)]
pub struct Model {
    streams: BTreeMap<(SourceId, PageId), ModelStream>,
    cache_per_stream: Option<usize>,
    gap_cap: u64,
    persistence: Option<Box<dyn Persistence>>,
    evictions: u64,
    disk_fetches: u64,
}

impl Model {
    fn rehydrate(&mut self) -> Option<Rehydrated> {
        let summary = self.persistence.as_mut()?.rehydrate();
        for name in &summary.names {
            let s = self.streams.entry((name.source, name.page)).or_default();
            s.durable.insert(name.seq);
            if s.highest_known.is_none_or(|h| name.seq > h) {
                s.highest_known = Some(name.seq);
            }
        }
        Some(summary)
    }

    fn insert(&mut self, name: AduName, payload: Bytes) -> bool {
        let cache_limit = self.persistence.as_ref().and(self.cache_per_stream);
        let s = self.streams.entry((name.source, name.page)).or_default();
        let fresh = !s.holds(&name.seq);
        if fresh {
            if let Some(p) = self.persistence.as_mut() {
                if p.persist(name, &payload) {
                    s.durable.insert(name.seq);
                }
            }
            s.data.insert(name.seq, payload);
            if s.highest_known.is_none_or(|h| name.seq > h) {
                s.highest_known = Some(name.seq);
            }
            if let Some(limit) = cache_limit {
                while s.data.len() > limit {
                    s.data.pop_first();
                    self.evictions += 1;
                }
            }
        }
        fresh
    }

    fn has(&self, name: &AduName) -> bool {
        self.streams
            .get(&(name.source, name.page))
            .is_some_and(|s| s.holds(&name.seq))
    }

    fn get(&self, name: &AduName) -> Option<Bytes> {
        self.streams
            .get(&(name.source, name.page))?
            .data
            .get(&name.seq)
            .cloned()
    }

    fn fetch(&mut self, name: &AduName) -> Option<Bytes> {
        if let Some(b) = self.get(name) {
            return Some(b);
        }
        if !self
            .streams
            .get(&(name.source, name.page))?
            .durable
            .contains(&name.seq)
        {
            return None;
        }
        let b = self.persistence.as_mut()?.read(name)?;
        self.disk_fetches += 1;
        Some(b)
    }

    fn note_exists(&mut self, source: SourceId, page: PageId, seq: SeqNo) -> Vec<AduName> {
        let s = self.streams.entry((source, page)).or_default();
        let prev = s.highest_known;
        if prev.is_none_or(|h| seq > h) {
            s.highest_known = Some(seq);
        }
        let start = prev.map_or(0, |h| h.0 + 1);
        let start = start.max((seq.0 + 1).saturating_sub(self.gap_cap));
        (start..=seq.0)
            .map(SeqNo)
            .filter(|q| !s.holds(q))
            .map(|q| AduName::new(source, page, q))
            .collect()
    }

    /// The agent's former arrival path: the full gap, then the arriving
    /// name filtered out of it.
    fn note_arrival(&mut self, source: SourceId, page: PageId, seq: SeqNo) -> Vec<AduName> {
        let mut gap = self.note_exists(source, page, seq);
        gap.retain(|m| m.seq != seq);
        gap
    }

    fn highest_known(&self, source: SourceId, page: PageId) -> Option<SeqNo> {
        self.streams.get(&(source, page))?.highest_known
    }

    fn missing_on_page(&self, page: PageId) -> Vec<AduName> {
        let mut out = Vec::new();
        for ((src, pg), s) in self.streams.iter().filter(|((_, pg), _)| *pg == page) {
            let Some(h) = s.highest_known else { continue };
            let held = |q: &u64| !s.holds(&SeqNo(*q));
            let names = ((h.0 + 1).saturating_sub(self.gap_cap)..=h.0).filter(held);
            out.extend(names.map(|q| AduName::new(*src, *pg, SeqNo(q))));
        }
        out
    }

    fn page_state(&self, page: PageId) -> Vec<(SourceId, SeqNo)> {
        self.streams
            .iter()
            .filter(|((_, pg), _)| *pg == page)
            .filter_map(|((src, _), s)| s.highest_known.map(|h| (*src, h)))
            .collect()
    }

    fn known_pages(&self) -> Vec<PageId> {
        let pages: BTreeSet<PageId> = self.streams.keys().map(|&(_, p)| p).collect();
        pages.into_iter().collect()
    }

    fn len(&self) -> usize {
        self.streams.values().map(|s| s.data.len()).sum()
    }

    fn recoverable_len(&self) -> usize {
        self.streams
            .values()
            .map(|s| {
                s.data
                    .keys()
                    .chain(&s.durable)
                    .collect::<BTreeSet<_>>()
                    .len()
            })
            .sum()
    }
}

/// How one case is configured.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    pub cache: Option<usize>,
    /// Small, so a script can afford to jump beyond it.
    pub gap_cap: u64,
}

/// One raw script step: `(kind, stream, a, n)`, interpreted by [`run`].
pub type RawOp = (u8, u8, u64, u8);

/// The three streams a script touches: two sources on one page, and a
/// second page of the first source.
fn stream(i: u8) -> (SourceId, PageId) {
    let page0 = PageId::new(SourceId(1), 0);
    match i % 3 {
        0 => (SourceId(1), page0),
        1 => (SourceId(2), page0),
        _ => (SourceId(1), PageId::new(SourceId(1), 1)),
    }
}

fn build(setup: &Setup, log: Option<Box<dyn Persistence>>) -> AduStore {
    let mut st = AduStore::new();
    st.cache_per_stream = setup.cache;
    st.gap_cap = setup.gap_cap;
    if let Some(p) = log {
        st.attach_persistence(p);
    }
    st
}

fn build_model(setup: &Setup, log: Option<Box<dyn Persistence>>) -> Model {
    Model {
        cache_per_stream: setup.cache,
        gap_cap: setup.gap_cap,
        persistence: log,
        ..Model::default()
    }
}

macro_rules! same {
    ($step:expr, $what:expr, $store:expr, $model:expr) => {{
        let (s, m) = ($store, $model);
        if s != m {
            return Err(format!(
                "step {}: {} — store {:?}, model {:?}",
                $step, $what, s, m
            ));
        }
    }};
}

/// Drive a store and the model with `ops` and compare every answer, and
/// after every step the counters and sizes. `log` builds one side's
/// persistence layer: it is called once per side (and must build equal
/// ones), or returns `None` for a purely in-memory case.
pub fn run(
    setup: &Setup,
    ops: &[RawOp],
    log: impl Fn() -> Option<Box<dyn Persistence>>,
) -> Result<(), String> {
    let mut store = build(setup, log());
    let mut model = build_model(setup, log());
    // Where each stream's in-order traffic continues.
    let mut next = [0u64; 3];
    for (step, &(kind, si, a, n)) in ops.iter().enumerate() {
        let (source, page) = stream(si);
        let cursor = &mut next[usize::from(si % 3)];
        let name = |seq: u64| AduName::new(source, page, SeqNo(seq));
        // Distinct per step, so "re-insertion keeps the first payload" shows.
        let payload = |seq: u64| Bytes::from(vec![si, seq as u8, step as u8, (step >> 8) as u8]);
        let what = format!("{:?}", (kind, si, a, n));
        match kind % 10 {
            // An in-order run: through `FIRST_SLOTS`, across chunk borders,
            // and past any cache limit; each arrival noted as a session
            // message would (0, 1) or as the data frame itself does (2, 3).
            0..=3 => {
                for seq in *cursor..*cursor + 1 + u64::from(n % 100) {
                    let missing = match kind % 10 {
                        0 | 1 => (
                            store.note_exists(source, page, SeqNo(seq)),
                            model.note_exists(source, page, SeqNo(seq)),
                        ),
                        _ => (
                            store.note_arrival(source, page, SeqNo(seq)),
                            model.note_arrival(source, page, SeqNo(seq)),
                        ),
                    };
                    same!(
                        step,
                        format!("{what} note {seq}"),
                        missing.0,
                        missing.1
                    );
                    same!(
                        step,
                        format!("{what} insert {seq}"),
                        store.insert(name(seq), payload(seq)),
                        model.insert(name(seq), payload(seq))
                    );
                }
                *cursor += 1 + u64::from(n % 100);
            }
            // Anywhere in the busy range: re-inserts, late arrivals below
            // the eviction cursor, holes filled out of order.
            4 => {
                let seq = a % 300;
                same!(
                    step,
                    what,
                    store.insert(name(seq), payload(seq)),
                    model.insert(name(seq), payload(seq))
                );
            }
            // A session message a little ahead.
            5 => {
                let seq = *cursor + a % 8;
                same!(
                    step,
                    what,
                    store.note_exists(source, page, SeqNo(seq)),
                    model.note_exists(source, page, SeqNo(seq))
                );
            }
            // A jump beyond `gap_cap`; the stream carries on from there.
            6 => {
                let seq = *cursor + setup.gap_cap + a % 200;
                same!(
                    step,
                    what,
                    store.note_exists(source, page, SeqNo(seq)),
                    model.note_exists(source, page, SeqNo(seq))
                );
                *cursor = seq;
            }
            7 => {
                let seq = if a % 2 == 0 {
                    a % 300
                } else {
                    cursor.saturating_sub(a % 90)
                };
                same!(
                    step,
                    format!("{what} has {seq}"),
                    store.has(&name(seq)),
                    model.has(&name(seq))
                );
                same!(
                    step,
                    format!("{what} get {seq}"),
                    store.get(&name(seq)),
                    model.get(&name(seq))
                );
                same!(
                    step,
                    format!("{what} fetch {seq}"),
                    store.fetch(&name(seq)),
                    model.fetch(&name(seq))
                );
            }
            8 => {
                same!(
                    step,
                    format!("{what} missing_on_page"),
                    store.missing_on_page(page),
                    model.missing_on_page(page)
                );
                same!(
                    step,
                    format!("{what} page_state"),
                    store.page_state(page),
                    model.page_state(page)
                );
                same!(
                    step,
                    format!("{what} known_pages"),
                    store.known_pages(),
                    model.known_pages()
                );
            }
            // Process death: what was synced survives, RAM does not.
            _ => {
                let (Some(mut ps), Some(mut pm)) =
                    (store.take_persistence(), model.persistence.take())
                else {
                    continue;
                };
                ps.crash();
                pm.crash();
                store = build(setup, Some(ps));
                model = build_model(setup, Some(pm));
                let (rs, rm) = (
                    store.rehydrate().expect("attached"),
                    model.rehydrate().expect("attached"),
                );
                same!(step, format!("{what} rehydrated names"), rs.names, rm.names);
                same!(
                    step,
                    format!("{what} last_appended"),
                    rs.last_appended,
                    rm.last_appended
                );
                // In-order traffic resumes after what survived.
                for (i, c) in next.iter_mut().enumerate() {
                    let (src, pg) = stream(i as u8);
                    *c = model.highest_known(src, pg).map_or(0, |h| h.0 + 1);
                }
            }
        }
        same!(step, format!("{what} len"), store.len(), model.len());
        same!(
            step,
            format!("{what} is_empty"),
            store.is_empty(),
            model.len() == 0
        );
        same!(
            step,
            format!("{what} recoverable_len"),
            store.recoverable_len(),
            model.recoverable_len()
        );
        same!(
            step,
            format!("{what} evictions"),
            store.evictions(),
            model.evictions
        );
        same!(
            step,
            format!("{what} disk_fetches"),
            store.disk_fetches(),
            model.disk_fetches
        );
        for i in 0..3 {
            let (src, pg) = stream(i);
            same!(
                step,
                format!("{what} highest_known"),
                store.highest_known(src, pg),
                model.highest_known(src, pg)
            );
        }
    }
    Ok(())
}
