//! What the optimizer announces at its choice points, pinned against
//! `crates/bench/decisions_baseline.txt`: every `candidate` event in
//! order with all of its fields, the Figure 6 summary text and the
//! `optimizer.candidates.*` / `optimizer.push_decisions` counters, for
//! the three trace scenarios and Figure 3 under the three push
//! strategies. Debug and release builds make the same decisions, so the
//! test passes in both (`ci.sh` runs it in release too). The
//! baseline was recorded from commit 093b071 (PR 21), the last whose
//! choice points bumped the counters, built the events and pushed the
//! notes separately; a sink that drops, reorders or double-counts an
//! announcement moves a line of it.
//!
//! To re-record (and say why): the test leaves what it rendered in
//! `target/tmp/decisions.txt`; that file replaces the baseline.

use std::fmt::Write;

use oorq_bench::scenarios::Scenario;
use oorq_bench::tracing::{trace_case, TRACE_SCENARIOS};
use oorq_bench::Knobs;
use oorq_core::{OptTrace, OptimizerConfig};
use oorq_datagen::MusicConfig;
use oorq_obs::{FieldValue, MetricsRegistry, Recorder};
use oorq_query::QueryGraph;

const BASELINE: &str = include_str!("../decisions_baseline.txt");

const BUCKETS: [&str; 4] = ["accepted", "rejected", "pruned", "pruned_proven"];

/// One case as the baseline holds it; also checks DESIGN §14's equality
/// on it: `enumerated` = the bucket sum = the `candidate` events.
fn render(name: &str, obs: &Recorder, trace: &OptTrace, registry: &MetricsRegistry) -> String {
    let mut out = format!("== {name}\n");
    let recorded = obs.finish();
    let mut events = 0;
    for e in recorded.events_named("candidate") {
        events += 1;
        out.push_str("candidate");
        for (key, value) in &e.fields {
            let _ = match value {
                FieldValue::Str(s) => write!(out, " {key}={s:?}"),
                FieldValue::Num(n) => write!(out, " {key}={n:?}"),
                FieldValue::Bool(b) => write!(out, " {key}={b}"),
            };
        }
        out.push('\n');
    }
    out.push_str(&trace.summary());
    let count = |series: &str| registry.counter(&format!("optimizer.{series}")).get();
    let enumerated = count("candidates.enumerated");
    let buckets = BUCKETS.map(|b| count(&format!("candidates.{b}")));
    let _ = write!(out, "counters: enumerated={enumerated}");
    for (bucket, n) in BUCKETS.iter().zip(buckets) {
        let _ = write!(out, " {bucket}={n}");
    }
    let _ = writeln!(
        out,
        " revisited={} push_decisions={}",
        count("candidates.revisited"),
        count("push_decisions")
    );
    let sum: u64 = buckets.iter().sum();
    assert_eq!(enumerated, sum, "{name}: enumerated = the bucket sum");
    assert_eq!(enumerated, events, "{name}: one event per candidate");
    out
}

/// A whole optimization under an enabled recorder and registry.
fn optimized(name: &str, s: &Scenario, q: &QueryGraph, config: OptimizerConfig) -> String {
    let knobs = Knobs {
        recorder: Recorder::new(),
        registry: MetricsRegistry::new(),
        ..Knobs::default()
    };
    let plan = s.plan(q, config, &knobs).expect("optimizes");
    render(name, &knobs.recorder, &plan.trace, &knobs.registry)
}

#[test]
fn announcements_are_the_recorded_ones() {
    let mut got = String::new();
    for name in TRACE_SCENARIOS {
        let (s, q, _) = trace_case(name).expect("known scenario");
        got += &optimized(name, &s, &q, OptimizerConfig::cost_controlled());
    }
    let s = Scenario::music(MusicConfig::default());
    let q = s.fig3();
    type Strategy = fn() -> OptimizerConfig;
    let strategies: [(&str, Strategy); 3] = [
        ("fig3/cost_controlled", OptimizerConfig::cost_controlled),
        (
            "fig3/deductive_heuristic",
            OptimizerConfig::deductive_heuristic,
        ),
        ("fig3/never_push", OptimizerConfig::never_push),
    ];
    for (name, config) in strategies {
        got += &optimized(name, &s, &q, config());
    }

    let rendered = concat!(env!("CARGO_TARGET_TMPDIR"), "/decisions.txt");
    std::fs::write(rendered, &got).expect("the test's scratch directory is writable");
    for (i, (g, w)) in got.lines().zip(BASELINE.lines()).enumerate() {
        assert_eq!(g, w, "line {} of decisions_baseline.txt", i + 1);
    }
    assert_eq!(got.lines().count(), BASELINE.lines().count());
}
