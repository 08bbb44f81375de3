//! Property tests on the write-ahead log: for *any* record mix, segment
//! size, fsync cadence, and snapshot cadence —
//!
//! * a flushed log replays exactly (append → reopen → replay);
//! * tearing bytes off the tail or flipping a stored bit never yields
//!   wrong data: every surviving record reads back byte-identically and
//!   the damage is confined to a truncated suffix;
//! * an `AduStore` with a bounded cache serves every inserted payload
//!   byte-identically through [`srm::AduStore::fetch`], no matter what
//!   was evicted to disk;
//! * an `AduStore` over this log answers a random script — spills,
//!   read-through, crashes that lose the unsynced tail, rehydration —
//!   exactly as its tree-based reference model does over an equal log
//!   (`crates/core/tests/store_model/`).

#[path = "../../core/tests/store_model/mod.rs"]
mod store_model;

use bytes::Bytes;
use proptest::prelude::*;
use srm::{AduName, AduStore, PageId, Persistence, SeqNo, SourceId};
use srm_store::{DurableStore, FsyncPolicy, MemBackend, StoreConfig};
use std::collections::BTreeMap;

/// Raw material for one ADU: stream selector + payload bytes.
type RawAdu = (u8, u8, Vec<u8>);

/// Assign per-stream ascending sequence numbers so names are unique.
fn build_adus(raw: Vec<RawAdu>) -> Vec<(AduName, Bytes)> {
    let mut next: BTreeMap<(u8, u8), u64> = BTreeMap::new();
    raw.into_iter()
        .map(|(src, page, payload)| {
            let seq = next.entry((src, page)).or_insert(0);
            let name = AduName::new(
                SourceId(src as u64 + 1),
                PageId::new(SourceId(src as u64 + 1), page as u32),
                SeqNo(*seq),
            );
            *seq += 1;
            (name, Bytes::from(payload))
        })
        .collect()
}

fn arb_adus() -> impl Strategy<Value = Vec<RawAdu>> {
    prop::collection::vec(
        (0u8..3, 0u8..2, prop::collection::vec(any::<u8>(), 0..48)),
        1..40,
    )
}

fn arb_config() -> impl Strategy<Value = StoreConfig> {
    (
        prop_oneof![
            Just(FsyncPolicy::Always),
            (1u64..8).prop_map(FsyncPolicy::EveryN),
            Just(FsyncPolicy::Never),
        ],
        64u64..512,
        prop::option::of(1u64..32),
    )
        .prop_map(|(fsync, segment_bytes, snapshot_every)| StoreConfig {
            fsync,
            segment_bytes,
            snapshot_every,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flushed_log_replays_exactly(raw in arb_adus(), cfg in arb_config()) {
        let adus = build_adus(raw);
        let disk = MemBackend::new();
        let mut s = DurableStore::new(Box::new(disk.clone()), cfg);
        for (name, payload) in &adus {
            prop_assert!(s.persist(*name, payload));
        }
        s.flush();
        // Reopen from the shared disk in a fresh store instance.
        let mut s2 = DurableStore::new(Box::new(disk), cfg);
        let r = s2.rehydrate();
        prop_assert_eq!(r.truncated_bytes, 0);
        prop_assert_eq!(r.names.len(), adus.len());
        for (name, payload) in &adus {
            let read = s2.read(name);
            prop_assert_eq!(read, Some(payload.clone()));
        }
    }

    #[test]
    fn tail_damage_never_yields_wrong_data(
        raw in arb_adus(),
        cfg in arb_config(),
        tear in 0usize..64,
        flip in prop::option::of((0u64..4096, 1u8..=255)),
    ) {
        let adus = build_adus(raw);
        let disk = MemBackend::new();
        let mut s = DurableStore::new(Box::new(disk.clone()), cfg);
        for (name, payload) in &adus {
            s.persist(*name, payload);
        }
        s.flush();
        let last = disk.last_segment().expect("at least one segment");
        disk.tear_tail(last, tear);
        if let Some((off, mask)) = flip {
            disk.corrupt_byte(last, off as usize, mask);
        }
        s.crash();
        let r = s.rehydrate();
        let expected: BTreeMap<AduName, Bytes> = adus.into_iter().collect();
        for name in &r.names {
            let read = s.read(name);
            let want = expected.get(name).cloned();
            prop_assert_eq!(read, want, "surviving record must be byte-identical");
        }
        // A second replay of the repaired log is clean and idempotent.
        s.crash();
        let r2 = s.rehydrate();
        prop_assert_eq!(r2.truncated_bytes, 0, "truncation already healed the log");
        prop_assert_eq!(r2.names, r.names);
    }

    #[test]
    fn bounded_cache_serves_everything_byte_identically(
        raw in arb_adus(),
        cache in 1usize..4,
        cfg in arb_config(),
    ) {
        let adus = build_adus(raw);
        let mut st = AduStore::new();
        st.cache_per_stream = Some(cache);
        st.attach_persistence(Box::new(DurableStore::new(
            Box::new(MemBackend::new()),
            cfg,
        )));
        for (name, payload) in &adus {
            prop_assert!(st.insert(*name, payload.clone()));
        }
        for (name, payload) in &adus {
            prop_assert!(st.has(name), "evicted ADU still held by name");
            let fetched = st.fetch(name);
            prop_assert_eq!(
                fetched,
                Some(payload.clone()),
                "fetch must read through to the log"
            );
        }
    }

    #[test]
    fn store_over_the_wal_matches_the_model(
        (cache, gap_cap) in (prop::option::of(1usize..70), 1u64..40),
        // Runs of at most 24 ADUs: the log compacts every few appends.
        ops in prop::collection::vec((0u8..10, 0u8..3, any::<u64>(), 0u8..24), 1..60),
        cfg in arb_config(),
    ) {
        let setup = store_model::Setup { cache, gap_cap };
        let log = || -> Option<Box<dyn Persistence>> {
            Some(Box::new(DurableStore::new(Box::new(MemBackend::new()), cfg)))
        };
        let verdict = store_model::run(&setup, &ops, log);
        prop_assert!(verdict.is_ok(), "{:?} {:?}: {}", setup, cfg, verdict.unwrap_err());
    }
}
