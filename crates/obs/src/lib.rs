//! Structured tracing for the whole stack: hierarchical spans, runtime
//! events, and a counters registry, with an offline Chrome-trace export.
//!
//! The paper's contribution is a *cost-controlled* decision; this crate
//! is the window into how that decision was reached. The optimizer
//! records one span per §4 step and one structured `candidate` event
//! per enumerated plan (fingerprint, estimated cost, the incumbent it
//! was compared against, accept/reject reason); the executor records
//! one span per physical operator carrying its observed counters plus
//! per-fixpoint-iteration events with delta sizes; the buffer manager
//! records page hit/miss/eviction events; the lint engine records
//! violations with their stable codes. Everything lands in one
//! [`Trace`], written as **Chrome trace-event JSON**
//! ([`Trace::to_chrome`]), loadable in Perfetto / `chrome://tracing`:
//! stack spans become balanced `B`/`E` pairs, synthesized operator
//! spans get one named track each, the counters registry becomes `C`
//! samples. [`check_chrome_trace`] is the in-repo validity checker CI
//! and the benchmark run (balanced `B`/`E`, monotone `ts`, schema fields
//! present) — no network, no external tools.
//!
//! The recorder is a cheap cloneable handle; [`Recorder::disabled`]
//! (the default everywhere) reduces every call to one branch, so
//! instrumented hot paths cost nothing when tracing is off. No external
//! dependencies; the JSON reader/writer is in [`json`].

mod chrome;
pub mod json;
pub mod metrics;
mod recorder;
mod search;

pub use chrome::{check_chrome_trace, ChromeSummary};
pub use metrics::{
    Counter, CounterHandle, Histogram, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use recorder::{Event, FieldValue, Fields, Recorder, Span, SpanId, Trace};
pub use search::search_space_table;

#[cfg(test)]
mod tests;
