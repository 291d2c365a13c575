//! The shared, lock-cheap metrics registry used on concurrent paths.
//!
//! [`MetricsRegistry`] hands out [`CounterHandle`] / [`GaugeHandle`] /
//! [`HistogramHandle`] values: each handle is an `Arc` of atomics, so a hot
//! path pays one registry lock to *acquire* the handle and then records with
//! plain atomic stores — no lock, no allocation, no wall-clock read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::escape_json;

/// A shared monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Adds one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared last-value-wins gauge.
#[derive(Debug, Clone)]
pub struct GaugeHandle(Arc<AtomicU64>);

impl GaugeHandle {
    /// Overwrites the gauge with `value`.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// 64 base-2 log buckets plus a running count and sum; bucket `i` covers
/// `[2^i, 2^(i+1))` ms with bucket 0 covering `[0, 2)` — the same shape as
/// the single-threaded [`crate::Histogram`].
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_ms: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ms: AtomicU64::new(0),
        }
    }

    fn observe_ms(&self, ms: u64) {
        let idx = if ms < 2 { 0 } else { 63 - ms.leading_zeros() as usize };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ms.fetch_add(ms, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then(|| (if i == 0 { 0 } else { 1u64 << i }, c))
            })
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ms: self.sum_ms.load(Ordering::Relaxed),
        }
    }
}

/// A shared log-bucketed millisecond histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<AtomicHistogram>);

impl HistogramHandle {
    /// Records one millisecond value.
    pub fn observe_ms(&self, ms: u64) {
        self.0.observe_ms(ms);
    }

    /// Total number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<AtomicHistogram>>,
}

/// A registry of named counters, gauges, and histograms shared across
/// threads. Cloning is cheap (one `Arc`); all clones see the same metrics.
///
/// ```
/// use simba_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let sends = registry.counter("runtime.sends");
/// sends.incr();
/// sends.add(2);
/// assert_eq!(registry.snapshot().counter("runtime.sends"), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter called `name`, created at zero on first use. Cache the
    /// handle on hot paths; recording through it is lock-free.
    pub fn counter(&self, name: &str) -> CounterHandle {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        CounterHandle(Arc::clone(
            inner.counters.entry(name.to_string()).or_default(),
        ))
    }

    /// The gauge called `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        GaugeHandle(Arc::clone(inner.gauges.entry(name.to_string()).or_default()))
    }

    /// The histogram called `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        HistogramHandle(Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicHistogram::new())),
        ))
    }

    /// A point-in-time copy of every metric, for rendering or assertions.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket_lower_bound_ms, count)` pairs for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed milliseconds (for mean latency).
    pub sum_ms: u64,
}

impl HistogramSnapshot {
    /// Mean observed value in milliseconds, or 0.0 if empty.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter called `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge called `name` (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The histogram called `name`, if anything was observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// A plain-text rendering, one metric per line, for operators:
    ///
    /// ```text
    /// counter runtime.sends 3
    /// gauge   mab.backlog 0
    /// histo   delivery.ack_latency_ms n=2 mean=7.5ms p_buckets=[(4,1),(8,1)]
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge   {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histo   {name} n={} mean={:.1}ms buckets={:?}",
                h.count,
                h.mean_ms(),
                h.buckets
            );
        }
        out
    }

    /// A single-line JSON rendering of the snapshot.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape_json(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape_json(k));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum_ms\":{},\"buckets\":[",
                escape_json(k),
                h.count,
                h.sum_ms
            );
            for (j, (lo, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.incr();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(r.snapshot().counter("x"), 5);
        assert_eq!(r.snapshot().counter("missing"), 0);
    }

    #[test]
    fn gauge_is_last_value_wins() {
        let r = MetricsRegistry::new();
        let g = r.gauge("backlog");
        g.set(7);
        g.set(3);
        assert_eq!(r.snapshot().gauge("backlog"), 3);
    }

    #[test]
    fn histogram_buckets_match_single_threaded_shape() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for ms in [0, 1, 2, 3, 1024] {
            h.observe_ms(ms);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.buckets, vec![(0, 2), (2, 2), (1024, 1)]);
        assert_eq!(hs.sum_ms, 1030);
        assert!((hs.mean_ms() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn clones_see_the_same_registry() {
        let r = MetricsRegistry::new();
        let r2 = r.clone();
        r.counter("c").incr();
        assert_eq!(r2.snapshot().counter("c"), 1);
    }

    #[test]
    fn handles_record_across_threads() {
        let r = MetricsRegistry::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = r.counter("threaded");
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.snapshot().counter("threaded"), 4000);
    }

    #[test]
    fn render_text_lists_every_metric() {
        let r = MetricsRegistry::new();
        r.counter("a.sends").add(2);
        r.gauge("a.backlog").set(1);
        r.histogram("a.lat").observe_ms(5);
        let text = r.snapshot().render_text();
        assert!(text.contains("counter a.sends 2"), "{text}");
        assert!(text.contains("gauge   a.backlog 1"), "{text}");
        assert!(text.contains("histo   a.lat n=1"), "{text}");
    }

    #[test]
    fn to_json_is_well_formed() {
        let r = MetricsRegistry::new();
        r.counter("c").incr();
        r.gauge("g").set(9);
        r.histogram("h").observe_ms(3);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"c\":1"), "{json}");
        assert!(json.contains("\"g\":9"), "{json}");
        assert!(json.contains("\"h\":{\"count\":1,\"sum_ms\":3,\"buckets\":[[2,1]]}"), "{json}");
    }
}
