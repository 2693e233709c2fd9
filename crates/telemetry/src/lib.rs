//! # pim-telemetry
//!
//! Unified observability for the PyPIM stack: lock-cheap metrics
//! ([`MetricsRegistry`], [`MetricsSnapshot`]), windowed time series over
//! them ([`WindowSampler`], [`WindowSample`]), span-based tracing on the
//! modeled clock ([`Telemetry`], [`TraceRecorder`]) with counter tracks
//! ([`CounterHandle`]), per-request attribution ([`RequestId`],
//! [`RequestStats`]), and Chrome/Perfetto trace export
//! ([`TraceRecorder::export_chrome_trace`]).
//!
//! The crate deliberately has no dependencies — every layer of the stack
//! (simulator, cluster, device, gateway, benches) links it, so it must be
//! free to thread anywhere. See `README.md` in this crate for metric
//! naming conventions and a walkthrough of adding a span.
//!
//! Everything hangs off a cloneable [`Telemetry`] handle. A
//! [`Telemetry::disabled`] handle makes every record path a single relaxed
//! atomic load, and recording never influences execution, so results are
//! bit-identical and throughput unchanged with telemetry off.

mod chrome;
mod metrics;
mod series;
mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramState, MetricsRegistry, MetricsSnapshot,
    MetricsSource, SUB_BUCKETS,
};
pub use series::{render_window_table, WindowSample, WindowSampler};
pub use trace::{
    CounterHandle, CounterId, RequestId, RequestStats, Telemetry, TelemetryConfig, TraceEvent,
    TraceRecorder, TrackHandle, TrackId,
};
