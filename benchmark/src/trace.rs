//! Spans around every call the benchmark makes into a layer.
//!
//! A span is `{name: "<layer>.<op>", start_ns, end_ns, parent, req}` pushed
//! into a preallocated in-memory `Vec`; nothing is written until the run
//! ends. The spans are recorded from the benchmark's side of each library
//! call — spans inside the libraries are a later change.

use crate::json::Value;
use std::time::Instant;

/// "No parent" marker.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u16,
    /// Display lane (Chrome-trace `tid`): one per phase of the run.
    pub lane: u16,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Op index within the phase; spans of one request share it.
    pub req: u32,
    /// Entries (or simulated accesses) the call processed.
    pub units: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Interns a span name.
    pub fn name_id(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that encloses later ones; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &str, lane: u16, parent: u32) -> u32 {
        let name = self.name_id(name);
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            lane,
            parent,
            req: 0,
            units: 0,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.ns(Instant::now());
    }

    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        name: u16,
        lane: u16,
        parent: u32,
        req: u32,
        units: u32,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            lane,
            parent,
            req,
            units,
            start_ns,
            end_ns,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Forgets every span (names stay interned).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Chrome-trace ("Trace Event Format") JSON: complete (`"ph": "X"`)
    /// events with microsecond timestamps; `parent` and `req` ride in
    /// `args`. Loadable in `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self, lanes: &[String]) -> String {
        let mut events = Vec::with_capacity(self.spans.len() + lanes.len());
        for (tid, lane) in lanes.iter().enumerate() {
            events.push(Value::obj([
                ("name", Value::str("thread_name")),
                ("ph", Value::str("M")),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(tid as f64)),
                ("args", Value::obj([("name", Value::str(lane.clone()))])),
            ]));
        }
        for (i, s) in self.spans.iter().enumerate() {
            events.push(Value::obj([
                ("name", Value::str(self.names[s.name as usize].clone())),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(s.lane as f64)),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(i as f64)),
                        (
                            "parent",
                            if s.parent == ROOT {
                                Value::Null
                            } else {
                                Value::Num(s.parent as f64)
                            },
                        ),
                        ("req", Value::Num(s.req as f64)),
                        ("units", Value::Num(s.units as f64)),
                    ]),
                ),
            ]));
        }
        Value::obj([
            ("displayTimeUnit", Value::str("ns")),
            ("traceEvents", Value::Arr(events)),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_export_as_loadable_chrome_trace_json() {
        let mut t = Tracer::with_capacity(8);
        let parent = t.open("rep", 0, ROOT);
        let read = t.name_id("service.read");
        let a = Instant::now();
        let b = a + std::time::Duration::from_nanos(500);
        t.push(read, 0, parent, 0, 32, a, b);
        t.push(read, 0, parent, 1, 32, a, b);
        t.close(parent);
        assert_eq!(t.len(), 3);
        let doc = json::parse(&t.to_chrome_json(&["rep".into()])).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        let last = events.last().unwrap();
        assert_eq!(last.get("ph").unwrap().as_str(), Some("X"));
        let args = last.get("args").unwrap();
        assert_eq!(args.get("req").unwrap().as_f64(), Some(1.0));
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(parent as f64));
        t.clear();
        assert_eq!(t.len(), 0);
    }
}
