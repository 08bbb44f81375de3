//! The sequence-indexed [`srm::AduStore`] against its tree-based reference
//! model (`store_model/`): the same random script — in-order runs, late and
//! repeated inserts, session-message jumps beyond `gap_cap`, cache
//! eviction, spill and read-through, crash and rehydrate — must get
//! the same answer to every question and leave the same `evictions` and
//! `disk_fetches` behind, step by step.

mod store_model;

use bytes::Bytes;
use proptest::prelude::*;
use srm::{AduName, Persistence, PersistenceStats, Rehydrated};
use std::collections::BTreeMap;
use store_model::{run, RawOp, Setup};

/// An in-memory log that loses nothing: `crash` keeps every record.
#[derive(Debug, Default)]
struct FakeLog {
    records: BTreeMap<AduName, Bytes>,
    last: Option<AduName>,
}

impl Persistence for FakeLog {
    fn persist(&mut self, name: AduName, payload: &Bytes) -> bool {
        self.records.insert(name, payload.clone());
        self.last = Some(name);
        true
    }
    fn read(&mut self, name: &AduName) -> Option<Bytes> {
        self.records.get(name).cloned()
    }
    fn flush(&mut self) {}
    fn crash(&mut self) {}
    fn rehydrate(&mut self) -> Rehydrated {
        Rehydrated {
            names: self.records.keys().copied().collect(),
            truncated_bytes: 0,
            segments: 1,
            last_appended: self.last,
        }
    }
    fn stats(&self) -> PersistenceStats {
        PersistenceStats::default()
    }
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    (prop::option::of(1usize..70), 1u64..40).prop_map(|(cache, gap_cap)| Setup { cache, gap_cap })
}

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u8..10, 0u8..3, any::<u64>(), any::<u8>()), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn in_memory_store_matches_the_model(setup in arb_setup(), ops in arb_ops()) {
        let verdict = run(&setup, &ops, || None);
        prop_assert!(verdict.is_ok(), "{:?}: {}", setup, verdict.unwrap_err());
    }

    #[test]
    fn spilling_store_matches_the_model(setup in arb_setup(), ops in arb_ops()) {
        let verdict = run(&setup, &ops, || Some(Box::<FakeLog>::default()));
        prop_assert!(verdict.is_ok(), "{:?}: {}", setup, verdict.unwrap_err());
    }
}
