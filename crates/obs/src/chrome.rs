//! Chrome trace-event sink (`trace.json`, loadable in Perfetto or
//! `chrome://tracing`) and the in-repo validity checker CI runs on it.
//!
//! Mapping:
//! - stack-disciplined spans (opened via [`Recorder::begin`]) become
//!   balanced `B`/`E` pairs on tid 1 — they are strictly nested by
//!   construction, which the trace-event stack model requires;
//! - synthesized spans (explicit timestamps via [`Recorder::add_span`],
//!   e.g. per-operator executor spans whose brackets interleave) become
//!   `X` complete events, one tid per span so overlapping siblings
//!   never violate `B`/`E` nesting;
//! - the counters registry becomes one `C` sample per counter;
//! - thread names are emitted as `M` metadata so Perfetto labels the
//!   per-operator tracks.
//!
//! [`Recorder::begin`]: crate::Recorder::begin
//! [`Recorder::add_span`]: crate::Recorder::add_span

use crate::json::Json;
use crate::recorder::{FieldValue, Span, Trace, SCHEMA_NAME, SCHEMA_VERSION};
use std::collections::BTreeMap;

/// Process id used for every emitted trace event.
const PID: u64 = 1;
/// Thread id carrying the stack-disciplined spans.
const MAIN_TID: u64 = 1;
/// First tid handed to synthesized (per-operator) spans.
const SYNTH_TID_BASE: u64 = 100;

fn args_json(fields: &[(String, FieldValue)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| {
                let jv = match v {
                    FieldValue::Str(s) => Json::Str(s.clone()),
                    FieldValue::Num(n) => Json::Num(*n),
                    FieldValue::Bool(b) => Json::Bool(*b),
                };
                (k.clone(), jv)
            })
            .collect(),
    )
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Whether a span was opened on the recorder stack (strictly nested) or
/// synthesized with explicit timestamps. Stack spans have ids assigned
/// in open order interleaved with their children; we tell them apart by
/// the recording convention: synthesized spans carry a `track` field.
fn is_synth(span: &Span) -> bool {
    span.field("track").is_some()
}

impl Trace {
    /// Render the trace as a Chrome trace-event JSON document.
    pub fn to_chrome(&self) -> String {
        let mut events: Vec<Json> = Vec::new();
        let mut meta: Vec<Json> = Vec::new();

        meta.push(thread_name_meta(MAIN_TID, "main"));

        // Stack spans: B/E pairs on the main tid. Stack discipline means
        // ids are assigned in open order and the spans open when a new
        // span begins are exactly its ancestors, so replaying spans in id
        // order with a stack reconstructs the exact execution
        // interleaving — balanced and properly nested by construction,
        // with no timestamp tie-breaking hazards.
        let emit_e = |span: &Span| {
            Json::Obj(vec![
                ("ph".into(), Json::Str("E".into())),
                (
                    "ts".into(),
                    Json::Num(us(span.end_ns.unwrap_or(span.start_ns))),
                ),
                ("pid".into(), Json::Num(PID as f64)),
                ("tid".into(), Json::Num(MAIN_TID as f64)),
            ])
        };
        let mut open: Vec<&Span> = Vec::new();
        for span in self.spans.iter().filter(|s| !is_synth(s)) {
            // Close spans until the top of the stack is this span's
            // parent (or the stack is empty for a root span).
            while open.last().map(|t| t.id) != span.parent {
                match open.pop() {
                    Some(t) => events.push(emit_e(t)),
                    None => break, // parent not on stack: treat as root
                }
            }
            let mut b_fields = vec![
                ("name".into(), Json::Str(span.name.clone())),
                ("cat".into(), Json::Str(span.cat.clone())),
                ("ph".into(), Json::Str("B".into())),
                ("ts".into(), Json::Num(us(span.start_ns))),
                ("pid".into(), Json::Num(PID as f64)),
                ("tid".into(), Json::Num(MAIN_TID as f64)),
            ];
            if !span.fields.is_empty() {
                b_fields.push(("args".into(), args_json(&span.fields)));
            }
            events.push(Json::Obj(b_fields));
            open.push(span);
        }
        while let Some(t) = open.pop() {
            events.push(emit_e(t));
        }

        // Synthesized spans: one X complete event per span, one tid per
        // track name so interleaved operator brackets never collide.
        let mut track_tids: BTreeMap<String, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| is_synth(s)) {
            let track = span
                .field("track")
                .and_then(FieldValue::as_str)
                .unwrap_or("synth")
                .to_string();
            let next_tid = SYNTH_TID_BASE + track_tids.len() as u64;
            let tid = *track_tids.entry(track.clone()).or_insert(next_tid);
            let end_ns = span.end_ns.unwrap_or(span.start_ns);
            let mut x_fields = vec![
                ("name".into(), Json::Str(span.name.clone())),
                ("cat".into(), Json::Str(span.cat.clone())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(us(span.start_ns))),
                (
                    "dur".into(),
                    Json::Num(us(end_ns.saturating_sub(span.start_ns))),
                ),
                ("pid".into(), Json::Num(PID as f64)),
                ("tid".into(), Json::Num(tid as f64)),
            ];
            if !span.fields.is_empty() {
                x_fields.push(("args".into(), args_json(&span.fields)));
            }
            events.push(Json::Obj(x_fields));
        }
        for (track, tid) in &track_tids {
            meta.push(thread_name_meta(*tid, track));
        }

        // Counters: one C sample each at the end of the trace so the
        // totals are visible as counter tracks.
        let t_end = self
            .spans
            .iter()
            .filter_map(|s| s.end_ns)
            .chain(self.events.iter().map(|e| e.ts_ns))
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(name.clone())),
                ("ph".into(), Json::Str("C".into())),
                ("ts".into(), Json::Num(us(t_end))),
                ("pid".into(), Json::Num(PID as f64)),
                (
                    "args".into(),
                    Json::Obj(vec![("value".into(), Json::Num(*value))]),
                ),
            ]));
        }

        // Point events become instant ('i') events on the main track.
        for e in &self.events {
            let mut i_fields = vec![
                ("name".into(), Json::Str(e.name.clone())),
                ("cat".into(), Json::Str(e.cat.clone())),
                ("ph".into(), Json::Str("i".into())),
                ("ts".into(), Json::Num(us(e.ts_ns))),
                ("pid".into(), Json::Num(PID as f64)),
                ("tid".into(), Json::Num(MAIN_TID as f64)),
                ("s".into(), Json::Str("t".into())),
            ];
            if !e.fields.is_empty() {
                i_fields.push(("args".into(), args_json(&e.fields)));
            }
            events.push(Json::Obj(i_fields));
        }

        let mut all = meta;
        all.extend(events);
        let doc = Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(all)),
            ("displayTimeUnit".into(), Json::Str("ns".into())),
            (
                "otherData".into(),
                Json::Obj(vec![
                    ("schema".into(), Json::Str(SCHEMA_NAME.into())),
                    ("version".into(), Json::Num(SCHEMA_VERSION as f64)),
                ]),
            ),
        ]);
        doc.render()
    }
}

fn thread_name_meta(tid: u64, name: &str) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str("thread_name".into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Num(PID as f64)),
        ("tid".into(), Json::Num(tid as f64)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(name.into()))]),
        ),
    ])
}

/// What [`check_chrome_trace`] verified, for reporting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeSummary {
    /// Total trace events in the document.
    pub total_events: usize,
    /// `B`/`E` pairs validated (count of `B` events).
    pub duration_pairs: usize,
    /// `X` complete events.
    pub complete_events: usize,
    /// `C` counter samples.
    pub counter_samples: usize,
    /// `i`/`I` instant events.
    pub instant_events: usize,
}

/// Validate a Chrome trace-event JSON document: parses, has a
/// `traceEvents` array, every `B` has a matching `E` on the same
/// pid/tid (balanced, properly nested), timestamps within each tid's
/// duration-event stream are monotone, `X` events have non-negative
/// `dur`, and the schema tag matches this crate. Returns a summary of
/// what was checked or the first violation found.
pub fn check_chrome_trace(src: &str) -> Result<ChromeSummary, String> {
    let doc = Json::parse(src).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;

    let schema = doc
        .get("otherData")
        .and_then(|o| o.get("schema"))
        .and_then(Json::as_str)
        .ok_or("missing `otherData.schema` tag")?;
    if schema != SCHEMA_NAME {
        return Err(format!("schema drift: `{schema}` != `{}`", SCHEMA_NAME));
    }
    let version = doc
        .get("otherData")
        .and_then(|o| o.get("version"))
        .and_then(Json::as_num)
        .ok_or("missing `otherData.version` tag")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema drift: version {version} != {}",
            SCHEMA_VERSION
        ));
    }

    let mut summary = ChromeSummary {
        total_events: events.len(),
        ..Default::default()
    };
    // Per-(pid,tid): open B stack and last duration-event timestamp.
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let pid = ev.get("pid").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let tid = ev.get("tid").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let key = (pid, tid);
        let ts = ev.get("ts").and_then(Json::as_num);

        match ph {
            "B" => {
                let ts = ts.ok_or_else(|| format!("event {i}: `B` missing `ts`"))?;
                if ts < 0.0 {
                    return Err(format!("event {i}: negative ts {ts}"));
                }
                if let Some(&prev) = last_ts.get(&key) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: non-monotone ts on tid {tid}: {ts} < {prev}"
                        ));
                    }
                }
                last_ts.insert(key, ts);
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: `B` missing `name`"))?;
                stacks.entry(key).or_default().push(name.to_string());
                summary.duration_pairs += 1;
            }
            "E" => {
                let ts = ts.ok_or_else(|| format!("event {i}: `E` missing `ts`"))?;
                if let Some(&prev) = last_ts.get(&key) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: non-monotone ts on tid {tid}: {ts} < {prev}"
                        ));
                    }
                }
                last_ts.insert(key, ts);
                let stack = stacks.entry(key).or_default();
                if stack.pop().is_none() {
                    return Err(format!("event {i}: `E` with no open `B` on tid {tid}"));
                }
            }
            "X" => {
                let ts = ts.ok_or_else(|| format!("event {i}: `X` missing `ts`"))?;
                if ts < 0.0 {
                    return Err(format!("event {i}: negative ts {ts}"));
                }
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: `X` missing `dur`"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur {dur}"));
                }
                summary.complete_events += 1;
            }
            "C" => {
                ts.ok_or_else(|| format!("event {i}: `C` missing `ts`"))?;
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: `C` missing args.value"))?;
                summary.counter_samples += 1;
            }
            "i" | "I" => {
                ts.ok_or_else(|| format!("event {i}: instant missing `ts`"))?;
                summary.instant_events += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }

    for ((_, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unbalanced trace: `B` for `{open}` on tid {tid} never closed"
            ));
        }
    }
    Ok(summary)
}
