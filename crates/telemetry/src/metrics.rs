//! Lock-cheap metrics: atomic counters and gauges plus log-bucketed
//! histograms, collected behind one [`MetricsRegistry`] and read out as a
//! [`MetricsSnapshot`].
//!
//! Recording never blocks on another recorder: counter/gauge/histogram
//! handles are `Arc`s over atomics, so the registry lock is taken only at
//! registration and snapshot time. Histograms bucket values
//! logarithmically ([`SUB_BUCKETS`] sub-buckets per power of two, ~3%
//! relative bucket width), which is what makes p50/p99/p999 readout over
//! modeled-cycle latencies cheap and allocation-free on the record path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: each power of two splits into `2^SUB_BITS`
/// buckets, bounding a bucket's relative width by `2^-SUB_BITS` (~3%).
const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two (`2^SUB_BITS`).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total buckets needed to cover the whole `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// Index of the bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= SUB_BITS
    let group = (e - SUB_BITS + 1) as usize;
    let sub = ((v >> (e - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
    group * SUB_BUCKETS as usize + sub
}

/// Smallest value landing in bucket `i`.
fn bucket_low(i: usize) -> u64 {
    let group = i as u64 / SUB_BUCKETS;
    let sub = i as u64 % SUB_BUCKETS;
    if group == 0 {
        return sub;
    }
    (SUB_BUCKETS + sub) << (group - 1)
}

/// Largest value landing in bucket `i`.
fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_low(i + 1) - 1
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below (peak tracking).
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCells {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A log-bucketed histogram of `u64` samples. Recording is one atomic add
/// into a fixed bucket array; quantile readout walks the cumulative counts.
/// Cloning shares the underlying cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// where the cumulative sample count crosses `q · count`, clamped to
    /// the observed maximum — within one log-bucket of the exact quantile.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_high(i).min(self.0.max.load(Ordering::Relaxed));
            }
        }
        self.0.max.load(Ordering::Relaxed)
    }

    /// Full bucket-state snapshot, diffable via [`HistogramState::since`].
    /// Unlike [`HistogramSnapshot`] (pre-computed quantiles, not diffable),
    /// a state carries every bucket count, so the difference of two states
    /// yields exact windowed counts and windowed quantiles.
    pub fn state(&self) -> HistogramState {
        HistogramState {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// Immutable summary of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.0.min.load(Ordering::Relaxed)
            },
            max: self.0.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (within one log-bucket).
    pub p50: u64,
    /// 99th percentile (within one log-bucket).
    pub p99: u64,
    /// 99.9th percentile (within one log-bucket).
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Full bucket-count snapshot of a [`Histogram`], capturing every log
/// bucket rather than pre-computed quantiles. Two states taken at
/// different times diff with [`since`](HistogramState::since) into the
/// samples recorded *between* them — the primitive behind windowed
/// percentile series ([`WindowSampler`](crate::WindowSampler)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramState {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
}

impl Default for HistogramState {
    fn default() -> Self {
        HistogramState {
            buckets: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramState {
    /// An empty state (useful as the initial baseline of a series).
    pub fn empty() -> Self {
        HistogramState::default()
    }

    /// Samples held in this state.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples held in this state.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The state containing exactly the samples recorded after `earlier`
    /// was taken and before `self` was. Per-bucket saturating subtraction,
    /// so a mismatched pair (e.g. across a histogram reset) degrades to
    /// zeros instead of wrapping.
    pub fn since(&self, earlier: &HistogramState) -> HistogramState {
        HistogramState {
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// The `q`-quantile over the samples in this state, as the upper bound
    /// of the bucket where the cumulative count crosses `q · count`,
    /// clamped to the highest occupied bucket. Same one-log-bucket error
    /// bound as [`Histogram::quantile`]; exact min/max are not carried
    /// through a diff, so the clamp is the bucket bound, not the sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_high(i).min(self.approx_max());
            }
        }
        self.approx_max()
    }

    /// Number of samples strictly above the bucket containing `v` — used
    /// for SLO error-budget accounting ("requests over target"). Counts at
    /// bucket granularity: samples in `v`'s own bucket are *not* counted.
    pub fn count_over(&self, v: u64) -> u64 {
        let cut = bucket_of(v);
        self.buckets.iter().skip(cut + 1).sum()
    }

    /// Upper bound of the highest occupied bucket (0 when empty).
    fn approx_max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(bucket_high)
            .unwrap_or(0)
    }

    /// Lower bound of the lowest occupied bucket (0 when empty).
    fn approx_min(&self) -> u64 {
        self.buckets
            .iter()
            .position(|&b| b > 0)
            .map(bucket_low)
            .unwrap_or(0)
    }

    /// Summary of this state. `min`/`max` are bucket bounds (within one
    /// log-bucket of the true extremes), since exact extremes cannot be
    /// recovered from a diff of two cumulative states.
    pub fn summary(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.approx_min(),
            max: self.approx_max(),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named metric handles. Registration (create-or-get by name) takes the
/// registry lock; recording through the returned handles does not.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Anything that can contribute metrics to a [`MetricsSnapshot`] — the
/// adapter the stack's pre-existing telemetry islands (`sim::Profiler`,
/// `cluster::TrafficStats`, `serve::GatewayStats`) implement so one
/// snapshot absorbs them all.
pub trait MetricsSource {
    /// Merges this source's current values into `snap`.
    fn fill_metrics(&self, snap: &mut MetricsSnapshot);
}

/// One machine-readable view over every metric source: registry contents
/// plus whatever [`MetricsSource`]s were absorbed. Exportable as JSON
/// ([`to_json`](MetricsSnapshot::to_json)) and renderable as a text table
/// ([`render`](MetricsSnapshot::render)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot to absorb sources into.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Sets counter `name` to `value` (sources report absolute values).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Sets histogram `name` to `snap`.
    pub fn set_histogram(&mut self, name: &str, snap: HistogramSnapshot) {
        self.histograms.insert(name.to_string(), snap);
    }

    /// Absorbs a [`MetricsSource`]'s current values.
    pub fn absorb(&mut self, source: &dyn MetricsSource) -> &mut Self {
        source.fill_metrics(self);
        self
    }

    /// The delta view of this snapshot relative to an earlier `baseline`:
    /// counters become the increase since the baseline (saturating, so a
    /// reset degrades to 0 instead of wrapping), gauges keep their current
    /// (instantaneous) value, and histogram `count`/`sum` are diffed while
    /// the quantile fields keep their *cumulative* values — summary
    /// snapshots cannot be diffed for percentiles. For true windowed
    /// percentiles track the histogram through a
    /// [`WindowSampler`](crate::WindowSampler), which diffs full
    /// [`HistogramState`]s.
    pub fn since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, v) in out.counters.iter_mut() {
            *v = v.saturating_sub(baseline.counters.get(k).copied().unwrap_or(0));
        }
        for (k, h) in out.histograms.iter_mut() {
            if let Some(base) = baseline.histograms.get(k) {
                h.count = h.count.saturating_sub(base.count);
                h.sum = h.sum.saturating_sub(base.sum);
            }
        }
        out
    }

    /// Machine-readable JSON: `{"counters": {..}, "gauges": {..},
    /// "histograms": {name: {count, sum, min, max, p50, p99, p999}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    {k:?}: {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!("{sep}\n    {k:?}: {v}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\n    {k:?}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \
                 \"max\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p99, h.p999
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Human-readable table (the `examples/cluster_serve.rs` printout).
    pub fn render(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("  {k:<width$}  {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("  {k:<width$}  {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "  {k:<width$}  n={} p50={} p99={} p999={} max={}\n",
                h.count, h.p50, h.p99, h.p999, h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_tile_the_line() {
        // Every bucket's low is the previous bucket's high + 1, and every
        // value maps into the bucket whose [low, high] range contains it.
        for i in 1..BUCKETS {
            assert_eq!(bucket_low(i), bucket_high(i - 1) + 1, "bucket {i}");
        }
        for v in (0..10_000u64).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let i = bucket_of(v);
            assert!(bucket_low(i) <= v && v <= bucket_high(i), "value {v}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_round_trip_within_one_bucket() {
        // Uniform 1..=100_000: the log-bucket readout must land within one
        // bucket width of the exact quantile, for every headline quantile.
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 50_000u64), (0.99, 99_000), (0.999, 99_900)] {
            let got = h.quantile(q);
            let bucket_width = bucket_high(bucket_of(exact)) - bucket_low(bucket_of(exact)) + 1;
            assert!(
                got.abs_diff(exact) <= bucket_width,
                "q={q}: got {got}, exact {exact}, bucket width {bucket_width}"
            );
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100_000);
        assert_eq!(s.p50, h.quantile(0.5));
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        let h = Histogram::new();
        h.record(1000);
        // A single sample: every quantile is that sample (not its bucket's
        // upper bound, which may exceed it).
        assert_eq!(h.quantile(0.5), 1000);
        assert_eq!(h.quantile(0.999), 1000);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        reg.counter("a").inc();
        reg.gauge("g").set(-5);
        reg.histogram("h").record(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 3);
        assert_eq!(snap.gauges["g"], -5);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn histogram_state_diff_isolates_the_window() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mid = h.state();
        for v in 100_000..=101_000u64 {
            h.record(v);
        }
        let window = h.state().since(&mid);
        // Only the second burst is in the window: count and quantiles must
        // reflect 100_000..=101_000, not the earlier 1..=1000 samples.
        assert_eq!(window.count(), 1001);
        assert!(window.quantile(0.5) >= 100_000, "{}", window.quantile(0.5));
        let s = window.summary();
        assert!(s.min >= bucket_low(bucket_of(100_000)).min(100_000));
        assert!(s.p99 >= 100_000 && s.p999 >= s.p99);
        // Cumulative readout still sees everything.
        assert_eq!(h.state().quantile(0.01), h.quantile(0.01));
        // count_over at bucket granularity: everything in the window is
        // over 50_000, nothing is over the window max's bucket.
        assert_eq!(window.count_over(50_000), 1001);
        assert_eq!(window.count_over(101_000), 0);
    }

    #[test]
    fn snapshot_since_diffs_counters_and_histogram_counts() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(10);
        reg.gauge("g").set(3);
        reg.histogram("h").record(5);
        let base = reg.snapshot();
        reg.counter("c").add(7);
        reg.gauge("g").set(9);
        reg.histogram("h").record(6);
        reg.counter("new").add(2);
        let delta = reg.snapshot().since(&base);
        assert_eq!(delta.counters["c"], 7);
        assert_eq!(delta.counters["new"], 2); // absent from baseline => full value
        assert_eq!(delta.gauges["g"], 9); // gauges stay instantaneous
        assert_eq!(delta.histograms["h"].count, 1);
    }

    #[test]
    fn snapshot_json_and_render() {
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("sim.cycles", 42);
        snap.set_gauge("serve.inflight", 2);
        let h = Histogram::new();
        h.record(10);
        snap.set_histogram("serve.queue_wait_cycles", h.snapshot());
        let json = snap.to_json();
        assert!(json.contains("\"sim.cycles\": 42"), "{json}");
        assert!(json.contains("\"p99\": 10"), "{json}");
        let rendered = snap.render();
        assert!(rendered.contains("sim.cycles"), "{rendered}");
        assert!(rendered.contains("p50=10"), "{rendered}");
    }
}
