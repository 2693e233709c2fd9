//! Windowed time-series sampling: turn the cumulative [`MetricsSnapshot`]
//! world into a ring of per-window deltas on the modeled clock.
//!
//! A [`WindowSampler`] is fed `(now, snapshot)` pairs every time the caller
//! crosses a window boundary ([`ready`](WindowSampler::ready) says when).
//! Each call closes one [`WindowSample`]: counters become deltas over the
//! window, gauges stay instantaneous, and histograms registered through
//! [`watch_histogram`](WindowSampler::watch_histogram) are diffed at full
//! bucket resolution ([`HistogramState::since`]) so per-window p50/p99/p999
//! are real windowed percentiles, not cumulative ones.
//!
//! Nothing here touches the record path: sampling cost is paid only by the
//! caller that asks for windows, which keeps the "zero-cost when unused"
//! property of the rest of the crate.

use std::collections::{BTreeMap, VecDeque};

use crate::metrics::{Histogram, HistogramSnapshot, HistogramState, MetricsSnapshot};

/// One closed window: deltas of every counter, instantaneous gauges, and
/// windowed summaries of every watched histogram over `[start, end)`
/// modeled cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Zero-based index of this window in the series.
    pub index: u64,
    /// First modeled cycle covered by this window.
    pub start: u64,
    /// Modeled cycle the window was closed at (exclusive).
    pub end: u64,
    /// Counter increases over the window, by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at window close, by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Windowed histogram summaries (watched histograms only).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl WindowSample {
    /// Window width in modeled cycles (at least 1, so rates never divide
    /// by zero even for a degenerate window).
    pub fn width(&self) -> u64 {
        (self.end - self.start).max(1)
    }

    /// Delta of counter `name` over the window (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge `name` at window close (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Windowed summary of watched histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Counter `name` as a per-second rate, given the modeled clock rate.
    pub fn rate_per_sec(&self, name: &str, clock_hz: f64) -> f64 {
        self.counter(name) as f64 * clock_hz / self.width() as f64
    }
}

/// Ring of [`WindowSample`]s plus the bookkeeping to close the next one.
///
/// The sampler is passive: it never reads the clock or the registry itself.
/// The driving loop checks [`ready`](WindowSampler::ready) against its own
/// `Telemetry::now()` reads and calls [`sample`](WindowSampler::sample)
/// with a fresh snapshot, which keeps sampling deterministic under a
/// deterministic driver.
pub struct WindowSampler {
    window_cycles: u64,
    capacity: usize,
    next_boundary: u64,
    last_end: u64,
    next_index: u64,
    dropped: u64,
    baseline: MetricsSnapshot,
    watched: Vec<(String, Histogram, HistogramState)>,
    samples: VecDeque<WindowSample>,
}

impl WindowSampler {
    /// A sampler closing a window every `window_cycles` modeled cycles,
    /// keeping the most recent 1024 windows.
    pub fn new(window_cycles: u64) -> Self {
        WindowSampler::with_capacity(window_cycles, 1024)
    }

    /// A sampler keeping at most `capacity` windows (older ones drop off).
    pub fn with_capacity(window_cycles: u64, capacity: usize) -> Self {
        let window_cycles = window_cycles.max(1);
        WindowSampler {
            window_cycles,
            capacity: capacity.max(1),
            next_boundary: window_cycles,
            last_end: 0,
            next_index: 0,
            dropped: 0,
            baseline: MetricsSnapshot::new(),
            watched: Vec::new(),
            samples: VecDeque::new(),
        }
    }

    /// The sampler with its first window opening at modeled cycle `start`
    /// over `baseline`: counts already in `baseline` belong to no window,
    /// and the first boundary is the first grid line after `start`.
    pub fn starting_at(mut self, start: u64, baseline: MetricsSnapshot) -> Self {
        self.last_end = start;
        self.next_boundary = (start / self.window_cycles + 1) * self.window_cycles;
        self.baseline = baseline;
        self
    }

    /// The configured window width in modeled cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Tracks `hist` at full bucket resolution so each window reports real
    /// windowed percentiles for it under `name`. The baseline is the
    /// histogram's state *now*: samples recorded before this call never
    /// appear in a window.
    pub fn watch_histogram(&mut self, name: &str, hist: &Histogram) {
        let state = hist.state();
        self.watched.push((name.to_string(), hist.clone(), state));
    }

    /// True once the modeled clock has crossed the next window boundary.
    pub fn ready(&self, now: u64) -> bool {
        now >= self.next_boundary
    }

    /// Closes the window `[last_end, now)` from `snap` and returns it.
    /// Boundaries stay aligned to the `window_cycles` grid: if the driver
    /// sampled late the closed window is simply wider (visible in
    /// `start`/`end`), and the next boundary is the next grid line after
    /// `now`.
    pub fn sample(&mut self, now: u64, snap: MetricsSnapshot) -> &WindowSample {
        let delta = snap.since(&self.baseline);
        let mut histograms = BTreeMap::new();
        for (name, hist, base) in self.watched.iter_mut() {
            let state = hist.state();
            histograms.insert(name.clone(), state.since(base).summary());
            *base = state;
        }
        let sample = WindowSample {
            index: self.next_index,
            start: self.last_end,
            end: now.max(self.last_end),
            counters: delta.counters,
            gauges: delta.gauges,
            histograms,
        };
        self.baseline = snap;
        self.last_end = sample.end;
        self.next_index += 1;
        self.next_boundary = (now / self.window_cycles + 1) * self.window_cycles;
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
        self.samples.back().expect("just pushed")
    }

    /// The retained windows, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &WindowSample> {
        self.samples.iter()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no window has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Most recently closed window.
    pub fn last(&self) -> Option<&WindowSample> {
        self.samples.back()
    }

    /// Windows evicted from the ring because `capacity` was exceeded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Human-readable table over the retained windows: one row per window
    /// with per-second rates for `counters` (using `clock_hz` to convert
    /// modeled cycles to seconds), instantaneous `gauges`, and
    /// `p50/p99` for watched `histograms`.
    pub fn render_table(
        &self,
        clock_hz: f64,
        counters: &[&str],
        gauges: &[&str],
        histograms: &[&str],
    ) -> String {
        let windows: Vec<WindowSample> = self.samples().cloned().collect();
        render_window_table(&windows, clock_hz, counters, gauges, histograms)
    }
}

/// [`WindowSampler::render_table`] over an already-collected series — for
/// reports (e.g. `pim-loadgen`'s `RunReport::windows`) that carry the
/// window samples without the sampler that produced them.
pub fn render_window_table(
    windows: &[WindowSample],
    clock_hz: f64,
    counters: &[&str],
    gauges: &[&str],
    histograms: &[&str],
) -> String {
    let mut header = vec!["win".to_string(), "cycles".to_string()];
    header.extend(counters.iter().map(|c| format!("{c}/s")));
    header.extend(gauges.iter().map(|g| g.to_string()));
    header.extend(histograms.iter().map(|h| format!("{h} p50/p99")));
    let mut rows = vec![header];
    for s in windows {
        let mut row = vec![s.index.to_string(), format!("{}..{}", s.start, s.end)];
        row.extend(
            counters
                .iter()
                .map(|c| format!("{:.1}", s.rate_per_sec(c, clock_hz))),
        );
        row.extend(gauges.iter().map(|g| s.gauge(g).to_string()));
        row.extend(histograms.iter().map(|h| match s.histogram(h) {
            Some(hs) => format!("{}/{}", hs.p50, hs.p99),
            None => "-".to_string(),
        }));
        rows.push(row);
    }
    let cols = rows[0].len();
    let widths: Vec<usize> = (0..cols)
        .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for row in &rows {
        out.push(' ');
        for (c, cell) in row.iter().enumerate() {
            out.push_str(&format!(" {cell:>width$}", width = widths[c]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn windows_carry_deltas_not_cumulative_values() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("req");
        let g = reg.gauge("depth");
        let h = reg.histogram("lat");
        let mut sampler = WindowSampler::new(1000);
        sampler.watch_histogram("lat", &h);

        assert!(!sampler.ready(999));
        assert!(sampler.ready(1000));

        c.add(5);
        g.set(2);
        h.record(10);
        h.record(20);
        sampler.sample(1000, reg.snapshot());

        c.add(3);
        g.set(7);
        h.record(40_000);
        let s = sampler.sample(2000, reg.snapshot()).clone();

        assert_eq!(s.index, 1);
        assert_eq!((s.start, s.end), (1000, 2000));
        assert_eq!(s.counter("req"), 3);
        assert_eq!(s.gauge("depth"), 7);
        let lat = s.histogram("lat").unwrap();
        assert_eq!(lat.count, 1);
        assert!(lat.p99 >= 40_000, "windowed p99 {}", lat.p99);
        // Per-second rate: 3 requests over 1000 cycles at 1 MHz = 3000/s.
        assert!((s.rate_per_sec("req", 1e6) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn boundaries_stay_grid_aligned_after_late_samples() {
        let reg = MetricsRegistry::new();
        let mut sampler = WindowSampler::new(100);
        assert!(sampler.ready(100));
        sampler.sample(100, reg.snapshot());
        assert!(!sampler.ready(199));
        // Driver was busy and samples late, mid-window 3.
        sampler.sample(350, reg.snapshot());
        // Next boundary is the next grid line, not 350 + 100.
        assert!(sampler.ready(400));
        let s = sampler.sample(400, reg.snapshot()).clone();
        assert_eq!((s.start, s.end), (350, 400));
        assert_eq!(sampler.len(), 3);
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let reg = MetricsRegistry::new();
        let mut sampler = WindowSampler::with_capacity(10, 2);
        for i in 1..=5u64 {
            sampler.sample(i * 10, reg.snapshot());
        }
        assert_eq!(sampler.len(), 2);
        assert_eq!(sampler.dropped(), 3);
        let idx: Vec<u64> = sampler.samples().map(|s| s.index).collect();
        assert_eq!(idx, vec![3, 4]);
    }

    #[test]
    fn render_table_lists_requested_columns() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("req");
        let h = reg.histogram("lat");
        let mut sampler = WindowSampler::new(1000);
        sampler.watch_histogram("lat", &h);
        c.add(4);
        h.record(123);
        sampler.sample(1000, reg.snapshot());
        let table = sampler.render_table(1e6, &["req"], &["depth"], &["lat"]);
        assert!(table.contains("req/s"), "{table}");
        assert!(table.contains("lat p50/p99"), "{table}");
        assert!(table.contains("0..1000"), "{table}");
    }
}
