//! JSONL sink: one schema-versioned JSON object per line (each parses
//! with [`crate::json`]; nothing in the repo reads a dump back into a
//! [`Trace`]).
//!
//! Line kinds, discriminated by the `t` field (the first line is the
//! header and has no `t`):
//!
//! ```text
//! {"schema":"oorq-trace","version":1,"counters":{...}}
//! {"t":"span","id":1,"parent":null,"cat":"optimizer","name":"optimize","start_ns":0,"end_ns":12,"fields":{...}}
//! {"t":"event","ts_ns":5,"span":1,"cat":"optimizer","name":"candidate","fields":{...}}
//! ```
//!
//! Field maps preserve insertion order; numbers are `f64` (exact up to
//! 2^53 — u64 fingerprints travel as hex *strings* for this reason).

use crate::json::Json;
use crate::recorder::{FieldValue, Fields, Trace, SCHEMA_NAME, SCHEMA_VERSION};

fn fields_to_json(fields: &Fields) -> Json {
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

impl Trace {
    /// Serialize as JSONL: a header line followed by one line per span
    /// and per event (in recording order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA_NAME.into())),
            ("version".into(), Json::Num(SCHEMA_VERSION as f64)),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ]);
        out.push_str(&header.render());
        out.push('\n');
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("t".into(), Json::Str("span".into())),
                ("id".into(), Json::Num(s.id.0 as f64)),
                (
                    "parent".into(),
                    match s.parent {
                        Some(p) => Json::Num(p.0 as f64),
                        None => Json::Null,
                    },
                ),
                ("cat".into(), Json::Str(s.cat.clone())),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                (
                    "end_ns".into(),
                    match s.end_ns {
                        Some(e) => Json::Num(e as f64),
                        None => Json::Null,
                    },
                ),
                ("fields".into(), fields_to_json(&s.fields)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for e in &self.events {
            let line = Json::Obj(vec![
                ("t".into(), Json::Str("event".into())),
                ("ts_ns".into(), Json::Num(e.ts_ns as f64)),
                (
                    "span".into(),
                    match e.span {
                        Some(s) => Json::Num(s.0 as f64),
                        None => Json::Null,
                    },
                ),
                ("cat".into(), Json::Str(e.cat.clone())),
                ("name".into(), Json::Str(e.name.clone())),
                ("fields".into(), fields_to_json(&e.fields)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}
