use crate::json::Json;
use crate::{check_chrome_trace, search_space_table, FieldValue, Recorder, SpanId, Trace};

fn sample_trace() -> Trace {
    let rec = Recorder::new();
    let root = rec.begin("optimizer", "optimize");
    rec.event(
        "optimizer",
        "candidate",
        vec![
            ("step".into(), "generatePT".into()),
            ("fingerprint".into(), "0xdeadbeef".into()),
            ("cost".into(), FieldValue::Num(42.5)),
            ("incumbent".into(), "0xcafe".into()),
            ("incumbent_cost".into(), FieldValue::Num(40.0)),
            ("outcome".into(), "reject".into()),
            ("reason".into(), "costlier than incumbent".into()),
        ],
    );
    let child = rec.begin("optimizer", "generatePT");
    rec.counter_add("optimizer.candidates", 3.0);
    rec.end(child);
    rec.end(root);
    // A synthesized operator span with explicit timestamps.
    rec.add_span(
        "exec",
        "Scan",
        root,
        10,
        500,
        vec![
            ("track".into(), "op.Scan#0".into()),
            ("rows_out".into(), FieldValue::Num(12.0)),
        ],
    );
    rec.counter_add("exec.io.page_reads", 7.0);
    rec.finish()
}

#[test]
fn recorder_nesting_and_scoping() {
    let rec = Recorder::new();
    let a = rec.begin("x", "a");
    let b = rec.begin("x", "b");
    rec.event("x", "ev", vec![]);
    // Ending `a` closes the straggler `b` too (stack discipline).
    rec.end(a);
    let t = rec.finish();
    assert_eq!(t.spans.len(), 2);
    assert_eq!(t.spans[0].parent, None);
    assert_eq!(t.spans[1].parent, Some(SpanId(1)));
    assert!(t.spans.iter().all(|s| s.end_ns.is_some()));
    assert_eq!(t.events[0].span, Some(b.unwrap()));
    // Child interval inside parent interval.
    assert!(t.spans[1].start_ns >= t.spans[0].start_ns);
    assert!(t.spans[1].end_ns.unwrap() <= t.spans[0].end_ns.unwrap());
}

#[test]
fn disabled_recorder_is_inert() {
    let rec = Recorder::disabled();
    assert!(!rec.enabled());
    assert_eq!(rec.begin("x", "a"), None);
    rec.event("x", "ev", vec![]);
    rec.counter_add("c", 1.0);
    let t = rec.finish();
    assert_eq!(t, Trace::default());
}

#[test]
fn chrome_preserves_string_escapes() {
    let rec = Recorder::new();
    let (name, note) = ("weird \"name\"\nwith\tescapes", "π ≈ 3.14159; cost < ∞");
    let s = rec.begin("x", name);
    rec.span_fields(s, vec![("note".into(), FieldValue::Str(note.into()))]);
    rec.end(s);
    let chrome = Json::parse(&rec.finish().to_chrome()).expect("parses");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    let begin = events
        .iter()
        .find(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .expect("one `B` event");
    assert_eq!(begin.get("name").and_then(Json::as_str), Some(name));
    let args = begin.get("args").expect("args");
    assert_eq!(args.get("note").and_then(Json::as_str), Some(note));
}

#[test]
fn chrome_trace_is_valid_and_balanced() {
    let trace = sample_trace();
    let chrome = trace.to_chrome();
    let summary = check_chrome_trace(&chrome).expect("valid chrome trace");
    // 2 stack spans → 2 B/E pairs; 1 synthesized span → 1 X event.
    assert_eq!(summary.duration_pairs, 2);
    assert_eq!(summary.complete_events, 1);
    assert_eq!(summary.counter_samples, 2);
    assert_eq!(summary.instant_events, 1);
}

#[test]
fn chrome_checker_catches_violations() {
    // Unbalanced: B without E.
    let bad = r#"{"traceEvents":[{"name":"a","cat":"x","ph":"B","ts":0,"pid":1,"tid":1}],"otherData":{"schema":"oorq-trace","version":1}}"#;
    assert!(check_chrome_trace(bad)
        .unwrap_err()
        .contains("never closed"));
    // E without B.
    let bad = r#"{"traceEvents":[{"ph":"E","ts":0,"pid":1,"tid":1}],"otherData":{"schema":"oorq-trace","version":1}}"#;
    assert!(check_chrome_trace(bad).unwrap_err().contains("no open"));
    // Non-monotone ts.
    let bad = r#"{"traceEvents":[{"name":"a","cat":"x","ph":"B","ts":5,"pid":1,"tid":1},{"ph":"E","ts":3,"pid":1,"tid":1}],"otherData":{"schema":"oorq-trace","version":1}}"#;
    assert!(check_chrome_trace(bad)
        .unwrap_err()
        .contains("non-monotone"));
    // Schema drift.
    let bad = r#"{"traceEvents":[],"otherData":{"schema":"oorq-trace","version":2}}"#;
    assert!(check_chrome_trace(bad).unwrap_err().contains("drift"));
    // Not JSON at all.
    assert!(check_chrome_trace("not json").is_err());
}

#[test]
fn search_table_lists_rejections() {
    let trace = sample_trace();
    let table = search_space_table(&trace);
    assert!(table.contains("| generatePT | 1 | 1 | 0 | 1 | 0 |"));
    assert!(table.contains("Rejected candidates"));
    assert!(table.contains("0xdeadbeef"));
    assert!(table.contains("costlier than incumbent"));
    // No candidate events → empty table.
    assert_eq!(search_space_table(&Trace::default()), "");
}

#[test]
fn json_parser_round_trips() {
    for src in [
        r#"{"a":1,"b":[true,false,null],"c":"x\ny","d":-2.5,"e":{}}"#,
        r#"[1e3,0.25,"é😀"]"#,
        "42",
        r#""""#,
    ] {
        let v = Json::parse(src).expect("parse");
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).expect("reparse"), v);
    }
    assert!(Json::parse("{").is_err());
    assert!(Json::parse("1 2").is_err());
    assert!(Json::parse("'single'").is_err());
}

/// A document nested past the parser's bound is refused at the bracket
/// that passes it, not parsed until the thread's stack overflows. Run on
/// a spawned thread, whose stack is the default size.
#[test]
fn json_nesting_is_bounded() {
    std::thread::spawn(|| {
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (128, "nested too deeply")
        );
        let deepest = format!("{}0{}", "[{\"a\":".repeat(64), "}]".repeat(64));
        Json::parse(&deepest).expect("128 levels parse");
        assert!(Json::parse(&format!("[{deepest}]")).is_err());
    })
    .join()
    .unwrap();
}
