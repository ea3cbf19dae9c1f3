//! What the optimizer announces at its choice points, pinned against
//! `crates/bench/decisions_baseline.txt`: every `candidate` event in
//! order with all of its fields, the Figure 6 summary text and the
//! `optimizer.candidates.*` / `optimizer.push_decisions` counters, for
//! the three trace scenarios, Figure 3 under the three push strategies
//! and a randomized walk whose one move the verifier rejects. The
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
use oorq_core::{rand_optimize_with, Decisions, Move, OptTrace, OptimizerConfig, RandConfig};
use oorq_cost::{CostModel, CostParams};
use oorq_datagen::MusicConfig;
use oorq_obs::{FieldValue, MetricsRegistry, Recorder};
use oorq_pt::Pt;
use oorq_query::{Expr, QueryGraph};

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
    let (plan, _) = s.plan(q, config, &knobs).expect("optimizes");
    render(name, &knobs.recorder, &plan.trace, &knobs.registry)
}

/// The randomized walk alone, offered one ill-typed plan (a filter on a
/// column no input produces) on each of five moves, under verification.
fn verifier_rejected_move(s: &Scenario, q: &QueryGraph) -> String {
    let (plan, temps) = s
        .plan(q, OptimizerConfig::never_push(), &Knobs::default())
        .expect("optimizes");
    let model: CostModel<'_> = s.model(CostParams::default(), temps);
    let broken = |_: &CostModel<'_>, pt: &Pt| {
        let pred = Expr::var("no_such_column").eq(Expr::int(1));
        let plan = Pt::sel(pred, pt.clone());
        vec![Move { plan, node: 0 }]
    };
    let config = RandConfig {
        moves: 5,
        ..Default::default()
    };
    let (obs, registry) = (Recorder::new(), MetricsRegistry::new());
    let mut sink = Decisions::new(obs.clone(), &registry);
    let outcome = rand_optimize_with(&model, plan.pt.clone(), &config, &broken, true, &mut sink);
    assert_eq!(outcome.pt, plan.pt);
    let rendered = render("walk/verifier-rejected-move", &obs, sink.trace(), &registry);
    let verifier_rejections = rendered
        .lines()
        .filter(|l| l.contains("outcome=\"reject\"") && l.contains("reason=\"verifier rejected"))
        .count();
    assert_eq!(verifier_rejections, 1, "{rendered}");
    rendered
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
    got += &verifier_rejected_move(&s, &q);

    let rendered = concat!(env!("CARGO_TARGET_TMPDIR"), "/decisions.txt");
    std::fs::write(rendered, &got).expect("the test's scratch directory is writable");
    for (i, (g, w)) in got.lines().zip(BASELINE.lines()).enumerate() {
        assert_eq!(g, w, "line {} of decisions_baseline.txt", i + 1);
    }
    assert_eq!(got.lines().count(), BASELINE.lines().count());
}
