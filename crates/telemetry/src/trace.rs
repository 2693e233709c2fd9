//! Span-based tracing on the **modeled clock**, with per-request
//! attribution.
//!
//! The stack's notion of time is modeled PIM cycles, not wall time: each
//! shard's profiler counts the cycles its chip consumed, and the
//! interconnect charges link cycles per burst. The [`TraceRecorder`] keeps
//! one ring buffer per *track* (one per shard, plus
//! gateway/admission/interconnect tracks); a shard job records complete
//! spans stamped with its chip's cycle counter and advances the recorder's
//! global modeled clock, which host-side tracks (gateway admission,
//! interconnect bursts) stamp from. The timelines are therefore per-track monotonic and
//! globally aligned to within the chips-run-in-parallel model's skew.
//!
//! Every span carries a [`RequestId`], so a finished trace attributes
//! modeled cycles, cross-chip words, and queue-wait time to the specific
//! gateway request (and through it, the session) that caused them — the
//! per-request accounting [`Telemetry::request_stats`] aggregates.
//!
//! Recording is armed per handle: [`Telemetry::disabled`] yields a no-op
//! handle whose record paths reduce to one relaxed atomic load, so serving
//! and benchmark throughput are unchanged with recording off.

use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Identifies one admitted gateway request (or the untagged background of
/// everything executed outside a request context). Packs the session id and
/// a per-session sequence number, so attribution can roll up per request or
/// per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RequestId(u64);

impl RequestId {
    /// The id carried by work executed outside any request context
    /// (direct device calls, maintenance traffic).
    pub const UNTAGGED: RequestId = RequestId(0);

    /// The id of request `seq` of session `session`.
    pub fn new(session: u32, seq: u32) -> Self {
        RequestId(((u64::from(session) + 1) << 32) | u64::from(seq))
    }

    /// Whether this is the untagged background id.
    pub fn is_untagged(&self) -> bool {
        self.0 == 0
    }

    /// The session this request belongs to (`None` when untagged).
    pub fn session(&self) -> Option<u32> {
        if self.is_untagged() {
            None
        } else {
            Some((self.0 >> 32) as u32 - 1)
        }
    }

    /// The per-session sequence number (`None` when untagged).
    pub fn seq(&self) -> Option<u32> {
        if self.is_untagged() {
            None
        } else {
            Some(self.0 as u32)
        }
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.session(), self.seq()) {
            (Some(s), Some(r)) => write!(f, "s{s}.r{r}"),
            _ => write!(f, "-"),
        }
    }
}

/// One recorded span: a named slice of modeled time on one track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (e.g. `"exec"`, `"queued"`, `"burst"`).
    pub name: &'static str,
    /// Start, in modeled cycles on the track's timeline.
    pub ts: u64,
    /// Duration in modeled cycles.
    pub dur: u64,
    /// The request this span is attributed to.
    pub request: RequestId,
    /// Optional `(key, value)` detail (e.g. `("instructions", n)`).
    pub detail: Option<(&'static str, u64)>,
}

/// One counter track's snapshot: `(name, (ts, value) samples, dropped)`.
pub type CounterTrackSnapshot = (String, Vec<(u64, f64)>, u64);

/// One named ring buffer and the count of records it dropped.
struct Track<T> {
    name: String,
    buf: Mutex<(VecDeque<T>, u64)>,
}

/// A registry of tracks of one record type — span tracks hold
/// [`TraceEvent`]s, counter tracks `(ts, value)` samples — each a ring
/// buffer that drops its oldest record beyond the recorder's capacity.
struct Tracks<T>(RwLock<Vec<Track<T>>>);

impl<T> Default for Tracks<T> {
    fn default() -> Self {
        Tracks(RwLock::new(Vec::new()))
    }
}

impl<T: Copy> Tracks<T> {
    /// Registers (or finds) the track named `name`, returning its index.
    fn register(&self, name: &str) -> u32 {
        let mut tracks = self.0.write().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = tracks.iter().position(|t| t.name == name) {
            return i as u32;
        }
        tracks.push(Track {
            name: name.to_string(),
            buf: Mutex::new((VecDeque::new(), 0)),
        });
        tracks.len() as u32 - 1
    }

    fn record(&self, track: u32, item: T, capacity: usize) {
        let tracks = self.0.read().unwrap_or_else(|e| e.into_inner());
        let Some(t) = tracks.get(track as usize) else {
            return;
        };
        let mut buf = t.buf.lock().unwrap_or_else(|e| e.into_inner());
        let (items, dropped) = &mut *buf;
        if items.len() >= capacity {
            items.pop_front();
            *dropped += 1;
        }
        items.push_back(item);
    }

    /// `(name, records, dropped count)` of every track.
    fn snapshot(&self) -> Vec<(String, Vec<T>, u64)> {
        let tracks = self.0.read().unwrap_or_else(|e| e.into_inner());
        tracks
            .iter()
            .map(|t| {
                let buf = t.buf.lock().unwrap_or_else(|e| e.into_inner());
                (t.name.clone(), buf.0.iter().copied().collect(), buf.1)
            })
            .collect()
    }

    fn clear(&self) {
        let tracks = self.0.read().unwrap_or_else(|e| e.into_inner());
        for t in tracks.iter() {
            *t.buf.lock().unwrap_or_else(|e| e.into_inner()) = (VecDeque::new(), 0);
        }
    }
}

/// Ring-buffered span storage, one buffer per track, plus counter tracks
/// (timestamped scalar samples — queue depth, utilization) that export as
/// Perfetto counter tracks next to the span tracks.
#[derive(Default)]
pub struct TraceRecorder {
    tracks: Tracks<TraceEvent>,
    counters: Tracks<(u64, f64)>,
    capacity: usize,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl TraceRecorder {
    fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            capacity,
            ..TraceRecorder::default()
        }
    }

    /// Registers (or finds) the track named `name`, returning its id.
    pub fn register_track(&self, name: &str) -> TrackId {
        TrackId(self.tracks.register(name))
    }

    /// Registers (or finds) the counter track named `name`.
    pub fn register_counter_track(&self, name: &str) -> CounterId {
        CounterId(self.counters.register(name))
    }

    /// Snapshot of every track: `(track name, events, dropped count)`.
    pub fn tracks(&self) -> Vec<(String, Vec<TraceEvent>, u64)> {
        self.tracks.snapshot()
    }

    /// Snapshot of every counter track:
    /// `(name, (ts, value) samples, dropped count)`.
    pub fn counter_tracks(&self) -> Vec<CounterTrackSnapshot> {
        self.counters.snapshot()
    }

    /// Discards every recorded event and counter sample (track
    /// registrations are kept).
    pub fn clear(&self) {
        self.tracks.clear();
        self.counters.clear();
    }
}

/// Identifier of one registered track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(pub(crate) u32);

/// Identifier of one registered counter track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Modeled cycles, cross-chip words, and queue-wait attributed to one
/// request by the spans recorded against its [`RequestId`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Shard execution cycles attributed to this request.
    pub cycles: u64,
    /// Cross-chip words this request's moves sent over the interconnect.
    pub cross_words: u64,
    /// Modeled link cycles charged to this request's interconnect bursts.
    pub link_cycles: u64,
    /// Modeled cycles the request's batches waited in session queues
    /// before admission dispatched them.
    pub queue_wait: u64,
    /// Macro-instructions executed for this request.
    pub instructions: u64,
}

impl RequestStats {
    fn absorb(&mut self, other: &RequestStats) {
        self.cycles += other.cycles;
        self.cross_words += other.cross_words;
        self.link_cycles += other.link_cycles;
        self.queue_wait += other.queue_wait;
        self.instructions += other.instructions;
    }
}

/// Tuning of a [`Telemetry`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity per track (oldest events drop beyond it).
    pub track_events: usize,
    /// Whether recording starts armed.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            track_events: 65_536,
            enabled: true,
        }
    }
}

struct TelemetryInner {
    enabled: AtomicBool,
    clock: AtomicU64,
    recorder: TraceRecorder,
    metrics: MetricsRegistry,
    requests: Mutex<Vec<(RequestId, RequestStats)>>,
}

/// The unified telemetry handle threaded through the stack: a metrics
/// registry, a modeled-clock [`TraceRecorder`], and per-request
/// attribution. Cloning is cheap; clones share all state.
///
/// Recording is gated on one relaxed atomic flag, so a disabled handle
/// ([`Telemetry::disabled`], or [`set_enabled(false)`](Telemetry::set_enabled))
/// costs a single load on every record path and execution results are
/// bit-identical either way (recording never influences execution).
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A handle with the given configuration.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                enabled: AtomicBool::new(cfg.enabled),
                clock: AtomicU64::new(0),
                recorder: TraceRecorder::with_capacity(cfg.track_events.max(1)),
                metrics: MetricsRegistry::new(),
                requests: Mutex::new(Vec::new()),
            }),
        }
    }

    /// An armed handle with default capacity.
    pub fn recording() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }

    /// A no-op handle: recording is off (every record path is one relaxed
    /// atomic load) until [`set_enabled(true)`](Telemetry::set_enabled).
    pub fn disabled() -> Self {
        Telemetry::new(TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        })
    }

    /// Whether recording is armed.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Arms or disarms recording. Execution results are unaffected either
    /// way; only whether spans/metrics/attribution are stored changes.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The metrics registry behind this handle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The trace recorder behind this handle.
    pub fn recorder(&self) -> &TraceRecorder {
        &self.inner.recorder
    }

    /// Registers (or finds) a trace track, returning a recording handle
    /// bound to it.
    pub fn track(&self, name: &str) -> TrackHandle {
        TrackHandle {
            telemetry: self.clone(),
            track: self.inner.recorder.register_track(name),
        }
    }

    /// Registers (or finds) a counter track, returning a recording handle
    /// bound to it. Counter samples export as Perfetto counter tracks
    /// (`"ph": "C"` events) alongside span tracks.
    pub fn counter_track(&self, name: &str) -> CounterHandle {
        CounterHandle {
            telemetry: self.clone(),
            counter: self.inner.recorder.register_counter_track(name),
        }
    }

    /// The current global modeled clock: the high-water mark of every
    /// shard's cycle counter plus host-charged link cycles.
    pub fn now(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Raises the global modeled clock to `cycles` if it is behind.
    pub fn advance_clock(&self, cycles: u64) {
        self.inner.clock.fetch_max(cycles, Ordering::Relaxed);
    }

    /// Attributes per-request deltas (cycles, traffic, queue-wait) to
    /// `request`. No-op when disabled or untagged.
    pub fn attribute(&self, request: RequestId, delta: RequestStats) {
        if !self.is_enabled() || request.is_untagged() {
            return;
        }
        let mut reqs = self
            .inner
            .requests
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match reqs.iter_mut().find(|(id, _)| *id == request) {
            Some((_, stats)) => stats.absorb(&delta),
            None => reqs.push((request, delta)),
        }
    }

    /// Per-request attribution collected so far, in first-seen order.
    pub fn request_stats(&self) -> Vec<(RequestId, RequestStats)> {
        self.inner
            .requests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Per-session roll-up of [`request_stats`](Telemetry::request_stats):
    /// `(session, requests, stats)` ordered by session id.
    pub fn session_stats(&self) -> Vec<(u32, u64, RequestStats)> {
        let mut out: Vec<(u32, u64, RequestStats)> = Vec::new();
        for (id, stats) in self.request_stats() {
            let Some(session) = id.session() else {
                continue;
            };
            match out.iter_mut().find(|(s, _, _)| *s == session) {
                Some((_, n, agg)) => {
                    *n += 1;
                    agg.absorb(&stats);
                }
                None => out.push((session, 1, stats)),
            }
        }
        out.sort_by_key(|&(s, _, _)| s);
        out
    }

    /// Discards recorded spans and attribution (metric registrations and
    /// track registrations are kept) — the start of a measurement region.
    pub fn clear(&self) {
        self.inner.recorder.clear();
        self.inner
            .requests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.inner.clock.store(0, Ordering::Relaxed);
    }
}

/// A recording handle bound to one track. Cheap to clone.
#[derive(Debug, Clone)]
pub struct TrackHandle {
    telemetry: Telemetry,
    track: TrackId,
}

impl TrackHandle {
    /// Whether recording is currently armed (one relaxed load — hoist this
    /// check around any work done only to build a span).
    pub fn is_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// The [`Telemetry`] handle this track records into (for clock
    /// advancement and attribution next to a recorded span).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Records a complete span with explicit modeled-clock timestamps (a
    /// shard's span is stamped from its chip's own cycle counter). No-op
    /// when disabled.
    pub fn record_complete(
        &self,
        name: &'static str,
        ts: u64,
        dur: u64,
        request: RequestId,
        detail: Option<(&'static str, u64)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let recorder = &self.telemetry.inner.recorder;
        let event = TraceEvent {
            name,
            ts,
            dur,
            request,
            detail,
        };
        recorder
            .tracks
            .record(self.track.0, event, recorder.capacity);
    }
}

/// A recording handle bound to one counter track. Cheap to clone.
#[derive(Debug, Clone)]
pub struct CounterHandle {
    telemetry: Telemetry,
    counter: CounterId,
}

impl CounterHandle {
    /// Whether recording is currently armed (one relaxed load).
    pub fn is_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Records `value` at modeled cycle `ts`. No-op when disabled.
    pub fn record(&self, ts: u64, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let recorder = &self.telemetry.inner.recorder;
        recorder
            .counters
            .record(self.counter.0, (ts, value), recorder.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_packs_session_and_seq() {
        let id = RequestId::new(3, 17);
        assert_eq!(id.session(), Some(3));
        assert_eq!(id.seq(), Some(17));
        assert_eq!(id.to_string(), "s3.r17");
        assert!(!id.is_untagged());
        assert!(RequestId::UNTAGGED.is_untagged());
        assert_eq!(RequestId::UNTAGGED.session(), None);
        assert_eq!(RequestId::UNTAGGED.to_string(), "-");
        // Session 0 is distinct from untagged.
        assert_eq!(RequestId::new(0, 0).session(), Some(0));
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        let track = t.track("shard-0");
        track.record_complete("exec", 0, 10, RequestId::new(0, 0), None);
        t.attribute(
            RequestId::new(0, 0),
            RequestStats {
                cycles: 5,
                ..RequestStats::default()
            },
        );
        let tracks = t.recorder().tracks();
        assert_eq!(tracks.len(), 1);
        assert!(tracks[0].1.is_empty());
        assert!(t.request_stats().is_empty());
    }

    #[test]
    fn spans_and_attribution_round_trip() {
        let t = Telemetry::recording();
        let track = t.track("shard-1");
        let req = RequestId::new(2, 0);
        track.record_complete("exec", 100, 50, req, Some(("instructions", 4)));
        t.advance_clock(150);
        t.attribute(
            req,
            RequestStats {
                cycles: 50,
                instructions: 4,
                ..RequestStats::default()
            },
        );
        t.attribute(
            req,
            RequestStats {
                cross_words: 8,
                ..RequestStats::default()
            },
        );
        let tracks = t.recorder().tracks();
        assert_eq!(tracks[0].0, "shard-1");
        assert_eq!(
            tracks[0].1,
            vec![TraceEvent {
                name: "exec",
                ts: 100,
                dur: 50,
                request: req,
                detail: Some(("instructions", 4)),
            }]
        );
        let reqs = t.request_stats();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].1.cycles, 50);
        assert_eq!(reqs[0].1.cross_words, 8);
        assert_eq!(t.now(), 150);
        // Session roll-up.
        let sessions = t.session_stats();
        assert_eq!(sessions, vec![(2, 1, reqs[0].1)]);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let t = Telemetry::new(TelemetryConfig {
            track_events: 2,
            enabled: true,
        });
        let track = t.track("a");
        for i in 0..5u64 {
            track.record_complete("e", i, 1, RequestId::UNTAGGED, None);
        }
        let (_, events, dropped) = &t.recorder().tracks()[0];
        assert_eq!(events.len(), 2);
        assert_eq!(*dropped, 3);
        assert_eq!(events[0].ts, 3);
        assert_eq!(events[1].ts, 4);
    }

    #[test]
    fn track_registration_is_idempotent() {
        let t = Telemetry::recording();
        let a = t.recorder().register_track("x");
        let b = t.recorder().register_track("x");
        assert_eq!(a, b);
        assert_eq!(t.recorder().tracks().len(), 1);
    }

    #[test]
    fn counter_tracks_record_and_clear() {
        let t = Telemetry::recording();
        let depth = t.counter_track("gateway/queue_depth");
        depth.record(100, 3.0);
        depth.record(250, 5.0);
        // Registration is idempotent; recording through a second handle
        // lands on the same track.
        t.counter_track("gateway/queue_depth").record(300, 2.0);
        let tracks = t.recorder().counter_tracks();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].0, "gateway/queue_depth");
        assert_eq!(tracks[0].1, vec![(100, 3.0), (250, 5.0), (300, 2.0)]);
        t.clear();
        assert!(t.recorder().counter_tracks()[0].1.is_empty());

        // Disabled handles record nothing.
        let off = Telemetry::disabled();
        off.counter_track("x").record(1, 1.0);
        assert!(off.recorder().counter_tracks()[0].1.is_empty());
    }

    #[test]
    fn clear_resets_events_but_keeps_tracks() {
        let t = Telemetry::recording();
        let track = t.track("a");
        track.record_complete("e", 0, 1, RequestId::new(0, 0), None);
        t.attribute(
            RequestId::new(0, 0),
            RequestStats {
                cycles: 1,
                ..RequestStats::default()
            },
        );
        t.advance_clock(99);
        t.clear();
        assert_eq!(t.recorder().tracks().len(), 1);
        assert!(t.recorder().tracks()[0].1.is_empty());
        assert!(t.request_stats().is_empty());
        assert_eq!(t.now(), 0);
    }
}
