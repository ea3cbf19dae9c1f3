//! The span/event recorder and the [`Trace`] it accumulates.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Trace schema identifier (the Chrome file's `otherData.schema`).
pub(crate) const SCHEMA_NAME: &str = "oorq-trace";
/// Trace schema version (`otherData.version`); bump on any incompatible
/// layout change.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// A span identifier: 1-based index into [`Trace::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// A field value attached to a span or event. Numbers are `f64`
/// (exact for counters up to 2^53; fingerprints travel as strings).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Num(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Num(v as f64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Num(v as f64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Num(v as f64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::Num(v as f64)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl FieldValue {
    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            FieldValue::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// Named fields of a span or event, in insertion order.
pub type Fields = Vec<(String, FieldValue)>;

/// A recorded span: a named interval with a parent, a layer category
/// (`optimizer`, `exec`, `storage`, `lint`) and attached fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Layer category.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (`None` while open;
    /// [`Recorder::finish`] closes stragglers).
    pub end_ns: Option<u64>,
    /// Attached fields.
    pub fields: Fields,
}

impl Span {
    /// Duration in nanoseconds (0 while open).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns
            .map(|e| e.saturating_sub(self.start_ns))
            .unwrap_or(0)
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A recorded point event, scoped to the innermost open span at the
/// time it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Timestamp, nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// The innermost open span when the event fired.
    pub span: Option<SpanId>,
    /// Layer category.
    pub cat: String,
    /// Event name (e.g. `candidate`, `fix-iteration`, `page-miss`).
    pub name: String,
    /// Structured payload.
    pub fields: Fields,
}

impl Event {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Everything one recorder accumulated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, in creation order (`SpanId(n)` is `spans[n-1]`).
    pub spans: Vec<Span>,
    /// All events, in firing order.
    pub events: Vec<Event>,
    /// The counters registry: monotonically accumulated named totals.
    pub counters: BTreeMap<String, f64>,
}

impl Trace {
    /// The span behind an id.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.get((id.0 as usize).checked_sub(1)?)
    }

    /// Events with the given name, in order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.name == name)
    }
}

#[derive(Debug)]
struct Inner {
    t0: Instant,
    spans: Vec<Span>,
    events: Vec<Event>,
    counters: BTreeMap<String, f64>,
    /// Stack of open (strictly nested) spans; the top scopes new events
    /// and parents new spans.
    stack: Vec<SpanId>,
}

/// Take the recorder's lock; a poisoned lock (a thread panicked while
/// recording) still yields the data — traces are diagnostics, not
/// invariants.
fn lock(inner: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

/// The recorder handle: cheap to clone, shared by every layer — and
/// across threads (the state sits behind an `Arc<Mutex<_>>`).
/// [`Recorder::disabled`] (also `Default`) makes every call a no-op
/// behind a single branch.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Arc<Mutex<Inner>>>);

impl Recorder {
    /// An enabled recorder with its epoch at "now".
    pub fn new() -> Self {
        Recorder(Some(Arc::new(Mutex::new(Inner {
            t0: Instant::now(),
            spans: Vec::new(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            stack: Vec::new(),
        }))))
    }

    /// The no-op recorder.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since the recorder's epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.0 {
            Some(inner) => lock(inner).t0.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Open a span as a child of the innermost open span. Returns `None`
    /// when disabled.
    pub fn begin(&self, cat: &str, name: &str) -> Option<SpanId> {
        let inner = self.0.as_ref()?;
        let mut r = lock(inner);
        let start_ns = r.t0.elapsed().as_nanos() as u64;
        let id = SpanId(r.spans.len() as u64 + 1);
        let parent = r.stack.last().copied();
        r.spans.push(Span {
            id,
            parent,
            cat: cat.to_string(),
            name: name.to_string(),
            start_ns,
            end_ns: None,
            fields: Vec::new(),
        });
        r.stack.push(id);
        Some(id)
    }

    /// Close a span opened with [`Recorder::begin`]. Any span opened
    /// after it and still open is closed too (stack discipline).
    pub fn end(&self, id: Option<SpanId>) {
        let (Some(inner), Some(id)) = (&self.0, id) else {
            return;
        };
        let mut r = lock(inner);
        let now = r.t0.elapsed().as_nanos() as u64;
        let Some(pos) = r.stack.iter().rposition(|&s| s == id) else {
            return;
        };
        let to_close: Vec<SpanId> = r.stack.drain(pos..).collect();
        for s in to_close {
            let span = &mut r.spans[s.0 as usize - 1];
            if span.end_ns.is_none() {
                span.end_ns = Some(now);
            }
        }
    }

    /// Attach fields to a span (open or closed).
    pub fn span_fields(&self, id: Option<SpanId>, fields: Fields) {
        let (Some(inner), Some(id)) = (&self.0, id) else {
            return;
        };
        let mut r = lock(inner);
        if let Some(span) = r.spans.get_mut(id.0 as usize - 1) {
            span.fields.extend(fields);
        }
    }

    /// Record a span with explicit timing (synthesized after the fact,
    /// e.g. the executor's per-operator spans). Not placed on the stack.
    pub fn add_span(
        &self,
        cat: &str,
        name: &str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        fields: Fields,
    ) -> Option<SpanId> {
        let inner = self.0.as_ref()?;
        let mut r = lock(inner);
        let id = SpanId(r.spans.len() as u64 + 1);
        r.spans.push(Span {
            id,
            parent,
            cat: cat.to_string(),
            name: name.to_string(),
            start_ns,
            end_ns: Some(end_ns),
            fields,
        });
        Some(id)
    }

    /// Fire an event scoped to the innermost open span.
    pub fn event(&self, cat: &str, name: &str, fields: Fields) {
        let Some(inner) = &self.0 else { return };
        let mut r = lock(inner);
        let ts_ns = r.t0.elapsed().as_nanos() as u64;
        let span = r.stack.last().copied();
        r.events.push(Event {
            ts_ns,
            span,
            cat: cat.to_string(),
            name: name.to_string(),
            fields,
        });
    }

    /// Bump a named counter in the registry.
    pub fn counter_add(&self, name: &str, delta: f64) {
        let Some(inner) = &self.0 else { return };
        *lock(inner).counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Close any still-open spans and return the accumulated trace.
    pub fn finish(&self) -> Trace {
        let Some(inner) = &self.0 else {
            return Trace::default();
        };
        let mut r = lock(inner);
        let now = r.t0.elapsed().as_nanos() as u64;
        let open: Vec<SpanId> = r.stack.drain(..).collect();
        for s in open {
            let span = &mut r.spans[s.0 as usize - 1];
            if span.end_ns.is_none() {
                span.end_ns = Some(now);
            }
        }
        Trace {
            spans: r.spans.clone(),
            events: r.events.clone(),
            counters: r.counters.clone(),
        }
    }
}
