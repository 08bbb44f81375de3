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
//! serializes to one JSONL line ([`MetricsSnapshot::to_json_line`]) or a
//! Prometheus-style text exposition
//! ([`MetricsSnapshot::render_prometheus`]).  Counters are cumulative, so
//! rates are derived *between* snapshots: [`MetricsSnapshot::delta_since`]
//! subtracts an earlier snapshot restart-aware (a counter that went
//! backwards is treated as reset, not negative), and
//! [`MetricsSnapshot::rate`] divides by the elapsed interval.
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

/// Restart-aware counter subtraction: a counter that went backwards means
/// the emitting process restarted (or the counter wrapped), so the later
/// value *is* the delta since the reset.
fn counter_delta(later: u64, earlier: u64) -> u64 {
    if later >= earlier {
        later - earlier
    } else {
        later
    }
}

impl MetricsSnapshot {
    /// The interval between two snapshots, in seconds; `None` when `self`
    /// is not later than `prev` (clock restart — rates are undefined).
    pub fn elapsed_since(&self, prev: &MetricsSnapshot) -> Option<f64> {
        (self.at > prev.at).then(|| self.at.since(prev.at).as_secs_f64())
    }

    /// The change in each instrument since `prev`.
    ///
    /// Counters subtract restart-aware (a value that went backwards is a
    /// reset, and the later value is the delta).
    /// Counters present only in `self` (registered after `prev` was taken)
    /// pass through whole.  Gauges and histograms are levels/cumulative
    /// state, not flows: the delta carries `self`'s values unchanged.
    /// `seq`/`at` are `self`'s.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), counter_delta(v, prev.counters.get(k).copied().unwrap_or(0))))
            .collect();
        MetricsSnapshot {
            version: self.version,
            seq: self.seq,
            at: self.at,
            counters,
            gauges: self.gauges.clone(),
            hists: self.hists.clone(),
        }
    }

    /// Per-second rate of counter `name` between `prev` and `self`, or
    /// `None` if the counter is absent or the interval is not positive.
    pub fn rate(&self, prev: &MetricsSnapshot, name: &str) -> Option<f64> {
        let later = *self.counters.get(name)?;
        let earlier = prev.counters.get(name).copied().unwrap_or(0);
        let dt = self.elapsed_since(prev)?;
        Some(counter_delta(later, earlier) as f64 / dt)
    }

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

    /// Prometheus-style text exposition.  Every metric name is prefixed
    /// (`srm_` by convention) and sanitized to `[a-zA-Z0-9_]`; histograms
    /// expose `_count`, `_sum` and quantile gauges.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut s = String::with_capacity(512);
        let name = |k: &str| -> String {
            let mut n = String::with_capacity(prefix.len() + k.len());
            n.push_str(prefix);
            for c in k.chars() {
                n.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
            }
            n
        };
        for (k, v) in &self.counters {
            let n = name(k);
            let _ = writeln!(s, "# TYPE {n} counter");
            let _ = writeln!(s, "{n} {v}");
        }
        for (k, v) in &self.gauges {
            let n = name(k);
            let _ = writeln!(s, "# TYPE {n} gauge");
            let _ = writeln!(s, "{n} {v}");
        }
        for (k, h) in &self.hists {
            let n = name(k);
            let _ = writeln!(s, "# TYPE {n} summary");
            let _ = writeln!(s, "{n}_count {}", h.count());
            let _ = writeln!(s, "{n}_sum {}", fmt_f64(h.sum()));
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(s, "{n}{{quantile=\"{label}\"}} {}", fmt_f64(v));
                }
            }
        }
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
    use netsim::SimDuration;

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

    fn snap_at(secs: f64, counters: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            version: SNAPSHOT_VERSION,
            seq: 0,
            at: SimTime::ZERO + SimDuration::from_secs_f64(secs),
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    #[test]
    fn delta_and_rate_between_snapshots() {
        let a = snap_at(1.0, &[("tx", 100)]);
        let b = snap_at(3.0, &[("tx", 150)]);
        let d = b.delta_since(&a);
        assert_eq!(d.counters["tx"], 50);
        assert_eq!(b.rate(&a, "tx"), Some(25.0));
        assert_eq!(b.rate(&a, "nope"), None);
    }

    #[test]
    fn delta_treats_backwards_counters_as_restart() {
        // The emitting process restarted: the counter fell from 1000 to 7.
        let before = snap_at(10.0, &[("tx", 1000)]);
        let after = snap_at(12.0, &[("tx", 7)]);
        let d = after.delta_since(&before);
        assert_eq!(d.counters["tx"], 7, "later value is the delta since reset");
        assert_eq!(after.rate(&before, "tx"), Some(3.5));
        // A counter that appears only in the later snapshot passes whole.
        let grown = snap_at(13.0, &[("tx", 8), ("new", 4)]);
        assert_eq!(grown.delta_since(&after).counters["new"], 4);
    }

    #[test]
    fn rate_is_none_without_forward_time() {
        let a = snap_at(5.0, &[("tx", 1)]);
        let b = snap_at(5.0, &[("tx", 2)]);
        assert_eq!(b.rate(&a, "tx"), None, "no elapsed interval");
        let earlier = snap_at(4.0, &[("tx", 2)]);
        assert_eq!(earlier.rate(&a, "tx"), None, "clock went backwards");
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
    fn prometheus_exposition_has_types_and_quantiles() {
        let reg = MetricsRegistry::new();
        reg.counter("tx.frames").add(2);
        reg.gauge("depth").set(1);
        let h = reg.histogram("lat");
        h.record(1.0);
        h.record(2.0);
        let text = reg.snapshot().render_prometheus("srm_");
        assert!(text.contains("# TYPE srm_tx_frames counter"), "{text}");
        assert!(text.contains("srm_tx_frames 2"), "{text}");
        assert!(text.contains("# TYPE srm_depth gauge"), "{text}");
        assert!(text.contains("srm_lat_count 2"), "{text}");
        assert!(text.contains("srm_lat{quantile=\"0.5\"}"), "{text}");
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
