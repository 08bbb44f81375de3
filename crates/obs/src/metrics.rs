//! Live metrics: a lock-free registry of counters, gauges and histograms
//! with versioned, delta-able snapshots.
//!
//! The offline pipeline (Recorder → [`Timeline`](crate::Timeline) →
//! `report`) answers "what happened" after a run ends; this module answers
//! "what is happening" while it runs.  A [`MetricsRegistry`] hands out
//! cheap clonable handles — [`Counter`], [`Gauge`], [`Histo`] — that the
//! transport reactor threads update on the hot path with one relaxed
//! atomic operation each.  Registration (name → handle) takes a mutex, but
//! only at startup; steady-state updates never lock.
//!
//! A periodic [`MetricsRegistry::snapshot`] freezes every instrument into
//! a [`MetricsSnapshot`]: a versioned, self-describing value that
//! serializes to one JSONL line ([`MetricsSnapshot::to_json_line`]), the
//! one export format. Counters are cumulative, so rates are derived
//! *between* snapshots, by whoever reads the lines (`srm-experiments
//! monitor`).
//!
//! Histograms are [`LogHistogram`]s underneath — the same quarter-octave
//! buckets the report pipeline uses — recorded through a fixed-size array
//! of atomic bucket counters ([`Histo`]), so snapshots of different nodes
//! (or different times) merge exactly like any other `LogHistogram`.
//!
//! The simulator never constructs a registry, so netsim runs — and their
//! golden traces and figure CSVs — are untouched by this module existing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::SimTime;

use crate::hist::{self, LogHistogram};

/// Schema version stamped into every snapshot (`"v"` in JSONL).  Bump when
/// the snapshot layout changes incompatibly.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Atomic-histogram bucket range: quarter-octave indices covering
/// ~2⁻³² .. 2¹⁶ seconds (sub-nanosecond to ~18 hours).  Samples outside
/// the range saturate into the first/last bucket (the histogram stays
/// correct in count/sum/min/max; only the bucketed quantile degrades at
/// the extremes).
const HIST_MIN_IDX: i32 = -128;
/// One past the highest representable bucket index.
const HIST_MAX_IDX: i32 = 64;
/// Number of atomic bucket slots.
const HIST_SLOTS: usize = (HIST_MAX_IDX - HIST_MIN_IDX) as usize;

/// A monotonically increasing event count.  Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with an externally maintained cumulative total (used to
    /// mirror per-group tallies a reactor keeps as plain integers; a host's
    /// own transport counters are handles and count in place).
    #[inline]
    pub fn set_total(&self, total: u64) {
        self.0.store(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, peer count, high-water mark).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the current level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise to `v` if it exceeds the current value (high-water marks).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free histogram handle: a fixed array of atomic quarter-octave
/// bucket counters plus atomic count/sum/min/max, snapshotting into an
/// ordinary mergeable [`LogHistogram`].
#[derive(Clone, Debug)]
pub struct Histo(Arc<AtomicHist>);

#[derive(Debug)]
struct AtomicHist {
    buckets: Vec<AtomicU64>,
    zeros: AtomicU64,
    count: AtomicU64,
    /// f64 bits, updated with a CAS loop.
    sum: AtomicU64,
    /// f64 bits; meaningful only when `count > 0`.
    min: AtomicU64,
    /// f64 bits; meaningful only when `count > 0`.
    max: AtomicU64,
}

impl AtomicHist {
    fn new() -> Self {
        AtomicHist {
            buckets: (0..HIST_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            zeros: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// CAS-update an f64 stored as bits with a combining function.
fn update_f64(cell: &AtomicU64, v: f64, combine: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = combine(f64::from_bits(cur), v);
        match cell.compare_exchange_weak(
            cur,
            next.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histo {
    /// Record one sample.  Non-finite samples are ignored; `v <= 0` counts
    /// in the zeros bucket; out-of-range magnitudes saturate into the
    /// first/last bucket.
    #[inline]
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let h = &*self.0;
        h.count.fetch_add(1, Ordering::Relaxed);
        update_f64(&h.sum, v, |a, b| a + b);
        update_f64(&h.min, v, f64::min);
        update_f64(&h.max, v, f64::max);
        if v <= 0.0 {
            h.zeros.fetch_add(1, Ordering::Relaxed);
        } else {
            let idx = hist::bucket_index(v).clamp(HIST_MIN_IDX, HIST_MAX_IDX - 1);
            let slot = (idx - HIST_MIN_IDX) as usize;
            h.buckets[slot].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Freeze into a mergeable [`LogHistogram`].
    ///
    /// Concurrent recording keeps the result *consistent enough*: each
    /// field is read once, so a racing `record` may be partially included,
    /// which periodic snapshotting tolerates by design.
    pub fn snapshot(&self) -> LogHistogram {
        let h = &*self.0;
        let count = h.count.load(Ordering::Relaxed);
        if count == 0 {
            return LogHistogram::new();
        }
        let mut buckets = BTreeMap::new();
        for (slot, cell) in h.buckets.iter().enumerate() {
            let c = cell.load(Ordering::Relaxed);
            if c > 0 {
                buckets.insert(slot as i32 + HIST_MIN_IDX, c);
            }
        }
        LogHistogram::from_raw(
            buckets,
            h.zeros.load(Ordering::Relaxed),
            count,
            f64::from_bits(h.sum.load(Ordering::Relaxed)),
            f64::from_bits(h.min.load(Ordering::Relaxed)),
            f64::from_bits(h.max.load(Ordering::Relaxed)),
        )
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, Histo>>,
    snapshot_seq: AtomicU64,
}

/// A shared registry of named instruments.
///
/// Cloning shares the underlying registry (it is an `Arc` inside), so the
/// CLI, the reactor and an emitter thread can all hold it.  Instrument
/// lookup/creation locks briefly; the returned handles never do.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
    start: Instant,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.  `elapsed` (and snapshot timestamps) count
    /// from this call.
    pub fn new() -> Self {
        MetricsRegistry { inner: Arc::new(Inner::default()), start: Instant::now() }
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("metrics lock");
        map.entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("metrics lock");
        map.entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histo {
        let mut map = self.inner.hists.lock().expect("metrics lock");
        map.entry(name.to_string())
            .or_insert_with(|| Histo(Arc::new(AtomicHist::new())))
            .clone()
    }

    /// Elapsed time since the registry was created, on the [`SimTime`]
    /// axis (the same per-process-origin convention the wall-clock
    /// transport uses).
    pub fn elapsed(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Freeze every instrument into a snapshot stamped `at` the registry's
    /// current elapsed time, with a registry-monotone sequence number.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let seq = self.inner.snapshot_seq.fetch_add(1, Ordering::Relaxed);
        let counters = self
            .inner
            .counters
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let hists = self
            .inner
            .hists
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot { version: SNAPSHOT_VERSION, seq, at: self.elapsed(), counters, gauges, hists }
    }
}

/// A frozen, versioned view of every instrument in a registry.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u64,
    /// Registry-monotone snapshot sequence number (restarts reset it).
    pub seq: u64,
    /// Elapsed time on the emitting process's clock axis.
    pub at: SimTime,
    /// Cumulative counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges, by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms, by name (cumulative since registry creation).
    pub hists: BTreeMap<String, LogHistogram>,
}

impl MetricsSnapshot {
    /// One JSONL line (no trailing newline):
    ///
    /// ```json
    /// {"v":1,"seq":0,"at":1.25,"counters":{...},"gauges":{...},
    ///  "hists":{"name":{"count":..,"zeros":..,"sum":..,"min":..,"max":..,
    ///           "buckets":[[idx,count],...]}}}
    /// ```
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"v\":{},\"seq\":{},\"at\":{:.9}",
            self.version,
            self.seq,
            self.at.as_secs_f64()
        );
        s.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", crate::json_escape(k), v);
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", crate::json_escape(k), v);
        }
        s.push_str("},\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"zeros\":{},\"sum\":{}",
                crate::json_escape(k),
                h.count(),
                h.zeros(),
                fmt_f64(h.sum()),
            );
            if let (Some(min), Some(max)) = (h.min(), h.max()) {
                let _ = write!(s, ",\"min\":{},\"max\":{}", fmt_f64(min), fmt_f64(max));
            }
            s.push_str(",\"buckets\":[");
            for (j, (idx, c)) in h.bucket_counts().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{idx},{c}]");
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }
}

/// JSON-safe float formatting: finite values print plainly, non-finite
/// (which JSON cannot carry) degrade to 0.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("frames");
        let b = reg.counter("frames");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("frames").get(), 3);
        let g = reg.gauge("depth");
        g.set(7);
        g.raise(5); // lower than current: no change
        g.raise(9);
        assert_eq!(reg.gauge("depth").get(), 9);
    }

    #[test]
    fn histo_snapshot_matches_direct_log_histogram() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        let mut direct = LogHistogram::new();
        for v in [0.0, 0.001, 0.25, 1.0, 7.5, 1e3] {
            h.record(v);
            direct.record(v);
        }
        h.record(f64::NAN); // ignored
        assert_eq!(h.snapshot(), direct);
    }

    #[test]
    fn histo_saturates_out_of_range_magnitudes() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("sat");
        h.record(1e300); // far above the top bucket
        h.record(1e-300); // far below the bottom bucket
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max(), Some(1e300)); // exact extremes survive
        assert_eq!(snap.min(), Some(1e-300));
        // Both samples landed in (clamped) buckets, not lost.
        let bucketed: u64 = snap.bucket_counts().map(|(_, c)| c).sum();
        assert_eq!(bucketed, 2);
    }

    #[test]
    fn snapshot_carries_everything_and_is_versioned() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(5);
        reg.gauge("g").set(2);
        reg.histogram("h").record(1.5);
        let snap = reg.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.seq, 0);
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 2);
        assert_eq!(snap.hists["h"].count(), 1);
        assert_eq!(reg.snapshot().seq, 1);
    }

    #[test]
    fn json_line_is_stable_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("rx").add(3);
        reg.gauge("wheel").set(4);
        reg.histogram("lat").record(0.5);
        let line = reg.snapshot().to_json_line();
        assert!(line.starts_with("{\"v\":1,\"seq\":0,\"at\":"));
        assert!(line.contains("\"counters\":{\"rx\":3}"), "{line}");
        assert!(line.contains("\"gauges\":{\"wheel\":4}"), "{line}");
        assert!(line.contains("\"hists\":{\"lat\":{\"count\":1"), "{line}");
        assert!(line.contains("\"buckets\":[[-4,1]]"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn concurrent_updates_are_all_counted() {
        let reg = MetricsRegistry::new();
        let mut threads = Vec::new();
        for _ in 0..4 {
            let c = reg.counter("n");
            let h = reg.histogram("v");
            threads.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    c.inc();
                    h.record((i % 10) as f64 + 0.5);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("n").get(), 4000);
        assert_eq!(reg.histogram("v").count(), 4000);
        assert_eq!(reg.histogram("v").snapshot().count(), 4000);
    }
}
