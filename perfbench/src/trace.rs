//! In-memory spans around the benchmark's calls into the program.
//!
//! Every span has a name, a start and an end (ns since the run's origin),
//! the span that was open when it began, and the id of the operation it
//! belongs to (a day batch, a restart, one HTTP request). Spans of one
//! thread nest strictly, so a span's self time is its duration minus the
//! durations of its direct children. A disabled tracer records nothing;
//! the end-to-end figures never come from spans.

use dlinfma_obs::JsonValue;
use std::time::Instant;

/// Index of a span in its tracer; `NONE` when the tracer is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.ingest`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// Operation id shared by all spans of one request, day or restart.
    pub op: u64,
    /// Recording thread (0 for the main thread).
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer for thread 0; records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread sharing this one's origin and switch.
    pub fn for_thread(&self, thread: u32) -> Self {
        Self {
            on: self.on,
            origin: self.origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
            thread: self.thread,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Closes `id` and every span opened inside it that is still open.
    pub fn end(&mut self, id: SpanId) {
        if !self.on || id == SpanId::NONE {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans, in begin order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times (ns) of the spans named `name` whose ancestors include a
    /// span named `within` (any ancestor when `within` is `None`).
    pub fn self_ns_of(&self, name: &str, within: Option<&str>) -> Vec<u64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .filter(|(i, _)| within.is_none_or(|w| self.has_ancestor(*i, w)))
            .map(|(i, _)| selfs[i])
            .collect()
    }

    fn has_ancestor(&self, mut i: usize, name: &str) -> bool {
        while let Some(p) = self.spans[i].parent {
            i = p as usize;
            if self.spans[i].name == name {
                return true;
            }
        }
        false
    }

    /// The spans as a JSON array of `{name, thread, op, parent, start_ns,
    /// end_ns}` objects.
    pub fn to_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::Num(v as f64);
        JsonValue::Arr(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::Str(s.name.into())),
                        ("thread".into(), n(u64::from(s.thread))),
                        ("op".into(), n(s.op)),
                        (
                            "parent".into(),
                            s.parent.map_or(JsonValue::Null, |p| n(u64::from(p))),
                        ),
                        ("start_ns".into(), n(s.start_ns)),
                        ("end_ns".into(), n(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}
