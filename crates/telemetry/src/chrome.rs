//! Chrome/Perfetto trace-event JSON export.
//!
//! Emits the classic trace-event format (`{"traceEvents": [...]}`) that
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly: one `"M"` (metadata) event naming each track as a thread
//! of a single `pim` process, one `"X"` (complete) event per recorded
//! span, and one `"C"` (counter) event per counter-track sample — Perfetto
//! renders those as value-over-time counter tracks (queue depth,
//! utilization) alongside the span timelines. Timestamps are microseconds
//! by convention; we map **1 modeled cycle = 1 µs**, so the viewer's time
//! axis reads directly in modeled cycles.

use crate::trace::TraceRecorder;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TraceRecorder {
    /// Exports every recorded span as Chrome trace-event JSON, loadable in
    /// `chrome://tracing` or Perfetto. Each track becomes one thread
    /// (`tid` = track index + 1) of process 1; `ts`/`dur` are the span's
    /// modeled cycles (1 cycle = 1 µs). Span args carry the attributed
    /// request id (`"request"`) and any recorded detail pair.
    pub fn export_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&s);
        };
        for (i, (name, events, _dropped)) in self.tracks().iter().enumerate() {
            let tid = i + 1;
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape(name)
                ),
                &mut first,
            );
            for e in events {
                let mut args = format!("\"request\":\"{}\"", e.request);
                if let Some((k, v)) = e.detail {
                    args.push_str(&format!(",\"{}\":{v}", escape(k)));
                }
                push(
                    format!(
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"pim\",\"pid\":1,\
                         \"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                        escape(e.name),
                        e.ts,
                        e.dur.max(1)
                    ),
                    &mut first,
                );
            }
        }
        for (name, samples, _dropped) in self.counter_tracks() {
            for (ts, value) in samples {
                // Perfetto groups "C" events by (pid, name) into one
                // counter track; non-finite values would break the JSON.
                let v = if value.is_finite() { value } else { 0.0 };
                push(
                    format!(
                        "{{\"ph\":\"C\",\"name\":\"{}\",\"cat\":\"pim\",\"pid\":1,\
                         \"tid\":0,\"ts\":{ts},\"args\":{{\"value\":{v}}}}}",
                        escape(&name)
                    ),
                    &mut first,
                );
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{RequestId, Telemetry};

    #[test]
    fn export_names_tracks_and_tags_requests() {
        let t = Telemetry::recording();
        let shard = t.track("shard-0");
        let req = RequestId::new(1, 2);
        shard.record_complete("exec", 10, 40, req, Some(("instructions", 3)));
        let json = t.recorder().export_chrome_trace();
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"name\":\"shard-0\""), "{json}");
        assert!(json.contains("\"name\":\"exec\""), "{json}");
        assert!(json.contains("\"ts\":10"), "{json}");
        assert!(json.contains("\"dur\":40"), "{json}");
        assert!(json.contains("\"request\":\"s1.r2\""), "{json}");
        assert!(json.contains("\"instructions\":3"), "{json}");
    }

    #[test]
    fn zero_duration_spans_export_visible() {
        let t = Telemetry::recording();
        t.track("a")
            .record_complete("e", 0, 0, RequestId::UNTAGGED, None);
        let json = t.recorder().export_chrome_trace();
        // A dur of 0 renders invisibly in the viewers; exported as 1.
        assert!(json.contains("\"dur\":1"), "{json}");
    }

    #[test]
    fn counter_samples_export_as_counter_events() {
        let t = Telemetry::recording();
        t.track("shard-0")
            .record_complete("exec", 0, 5, RequestId::UNTAGGED, None);
        let depth = t.counter_track("gateway/queue_depth");
        depth.record(100, 3.0);
        depth.record(200, 1.5);
        t.counter_track("bad").record(300, f64::NAN);
        let json = t.recorder().export_chrome_trace();
        assert!(
            json.contains("\"ph\":\"C\",\"name\":\"gateway/queue_depth\""),
            "{json}"
        );
        assert!(json.contains("\"ts\":100,\"args\":{\"value\":3}"), "{json}");
        assert!(
            json.contains("\"ts\":200,\"args\":{\"value\":1.5}"),
            "{json}"
        );
        // Non-finite samples are clamped so the JSON stays parseable.
        assert!(json.contains("\"ts\":300,\"args\":{\"value\":0}"), "{json}");
        // Span tracks still export alongside.
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn names_are_escaped() {
        let t = Telemetry::recording();
        t.recorder().register_track("tr\"ack\\x");
        let json = t.recorder().export_chrome_trace();
        assert!(json.contains("tr\\\"ack\\\\x"), "{json}");
    }
}
