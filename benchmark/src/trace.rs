//! Host-clock spans recorded by the benchmark around its calls into each
//! layer's public functions (nothing inside `crates/` is instrumented).
//! Spans stay in memory and are written once, at exit, as a Chrome trace.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Spans of one op share `op`; `parent` is the index of
/// the span that caused it (the op's root span), if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub op: u64,
    pub parent: Option<usize>,
    /// Lane in the trace viewer (the closed-loop client, 0 otherwise).
    pub lane: u32,
}

/// The recorder. Single-threaded by construction (the load generator is
/// one thread); interior mutability lets the interleaved async clients of
/// one `join_all` share it. Disabled, every call is a flag test.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end)` as `name`; returns the span's index so
    /// children can name it as their parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        op: u64,
        parent: Option<usize>,
        lane: u32,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            dur_ns: end.duration_since(start).as_nanos() as u64,
            op,
            parent,
            lane,
        });
        Some(spans.len() - 1)
    }

    /// Opens an op's root span (its duration is filled in by
    /// [`close_root`](Tracer::close_root)), so child spans recorded
    /// meanwhile can point at it.
    pub fn open_root(
        &self,
        name: &'static str,
        start: Instant,
        op: u64,
        lane: u32,
    ) -> Option<usize> {
        self.record(name, start, start, op, None, lane)
    }

    pub fn close_root(&self, root: Option<usize>, end: Instant) {
        if let Some(i) = root {
            let mut spans = self.spans.borrow_mut();
            let start_ns = spans[i].start_ns;
            spans[i].dur_ns = self.ns(end).saturating_sub(start_ns);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// The Chrome-trace document (`chrome://tracing`, Perfetto): complete
    /// ("X") events in microseconds; `args` carry the op id and the parent
    /// span.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let spans = self.spans.borrow();
        let events: Vec<Json> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let layer = s.name.split('.').next().unwrap_or("op");
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str(layer.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(f64::from(s.lane))),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("span".into(), Json::Num(i as f64)),
                            ("op".into(), Json::Num(s.op as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ns".into())),
            (
                "otherData".into(),
                Json::Obj(vec![
                    ("workload".into(), Json::Str(workload.into())),
                    ("clock".into(), Json::Str("host".into())),
                ]),
            ),
            ("traceEvents".into(), Json::Arr(events)),
        ])
        .to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("core.upload", now, now, 1, None, 0), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn children_point_at_their_root_and_export_parses() {
        let t = Tracer::new(true);
        let a = Instant::now();
        let b = a + Duration::from_micros(5);
        let c = b + Duration::from_micros(7);
        let root = t.open_root("op", a, 42, 3);
        t.record("core.upload", a, b, 42, root, 3);
        t.record("core.program", b, c, 42, root, 3);
        t.close_root(root, c);
        assert_eq!(t.durations("op"), vec![12_000.0]);
        assert_eq!(t.durations("core.program"), vec![7_000.0]);
        let doc = crate::json::parse(&t.chrome_trace("w")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        let child = events[2].get("args").unwrap();
        assert_eq!(child.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(child.get("op").unwrap().as_f64(), Some(42.0));
    }
}
