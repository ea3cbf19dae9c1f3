//! Every plan the optimizer can reach answers like the reference.
//!
//! The randomized walk of `transformPT` judges a move by its cost alone
//! and lints no candidate. This suite is what holds its moves to the
//! plan's meaning: for every corpus row's query under the three push
//! strategies, it closes the chosen plan under `oorq_core::neighbours`
//! (every plan the walk could ever stand on) and demands of each plan in
//! the closure that it
//!
//! - passes the plan verifier cleanly and hands up the chosen plan's
//!   columns;
//! - is bounded by the analyzer, and executes inside those intervals
//!   (AB001–AB003) at an unbounded breaker budget and at budget 1;
//! - returns, sorted, the rows `eval_query_graph` returns.
//!
//! Under `cost_controlled` no plan of the closure may be cheaper than the
//! chosen one: the walk left no cheaper plan behind.
//!
//! A debug build runs the small music and parts entries; a release build
//! (`ci.sh`) runs the whole corpus, whose chain entries' reference
//! evaluations take most of its time.

use oorq::analysis::check_observed;
use oorq::cost::CostParams;
use oorq::exec::eval_query_graph;
use oorq::optimizer::OptimizerConfig;
use oorq::query::QueryGraph;
use oorq::storage::Value;
use oorq_bench::scenarios::{neighbour_closure, Entry, CORPUS};
use oorq_bench::{Knobs, Scenario};

/// The corpus entries a debug build runs.
const DEBUG_ENTRIES: [&str; 5] = ["music0", "music1", "music2", "parts0", "parts1"];

type Strategy = fn() -> OptimizerConfig;
const STRATEGIES: [(&str, Strategy); 3] = [
    ("cost_controlled", OptimizerConfig::cost_controlled),
    ("deductive_heuristic", OptimizerConfig::deductive_heuristic),
    ("never_push", OptimizerConfig::never_push),
];

/// Close one strategy's plan of `q` and check every plan in the closure;
/// returns how many plans that was.
fn check_closure(
    label: &str,
    s: &mut Scenario,
    q: &QueryGraph,
    reference: &[Vec<Value>],
    config: OptimizerConfig,
    cheapest: bool,
) -> usize {
    let plan = s
        .plan(q, config, &Knobs::default())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let model = s.model(CostParams::default());
    let env = s.env();
    let closure = neighbour_closure(&model, &plan.pt);
    let label = |i: usize| format!("{label}, plan {i} of {}", closure.len());
    // What a plan is before it runs: its lint, columns, cost and bounds.
    let statics: Vec<_> = closure
        .iter()
        .enumerate()
        .map(|(i, pt)| {
            let report = oorq::lint::verify_pt(&env, pt);
            assert!(report.is_clean(), "{}:\n{}", label(i), report.render());
            let columns = pt.output_columns(&env);
            let columns = columns.unwrap_or_else(|e| panic!("{}: {e}", label(i)));
            let cost = model.cost(pt);
            let cost = cost.unwrap_or_else(|e| panic!("{}: {e}", label(i)));
            let analysis = s.analyze(pt);
            let analysis = analysis.unwrap_or_else(|e| panic!("{}: {e}", label(i)));
            (columns, cost.total(&model.params), analysis)
        })
        .collect();
    // The closure lists the chosen plan first.
    let (chosen_columns, chosen_cost, _) = &statics[0];
    for (i, (columns, cost, _)) in statics.iter().enumerate() {
        assert_eq!(columns, chosen_columns, "{}", label(i));
        assert!(
            !cheapest || cost >= chosen_cost,
            "{} costs {cost}, less than the chosen {chosen_cost}",
            label(i)
        );
    }
    for (i, (pt, (_, _, analysis))) in closure.iter().zip(&statics).enumerate() {
        for budget in [0, 1] {
            let label = format!("{}, budget {budget}", label(i));
            let (answer, run, _) = s
                .execute(pt, &Knobs::resources(budget))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let (ops, fixes) = run.observed();
            let check = check_observed(analysis, &ops, &fixes);
            assert!(check.is_clean(), "{label}:\n{}", check.render());
            let mut rows = answer.rows;
            rows.sort();
            assert_eq!(rows, reference, "{label}: diverged from the reference");
        }
    }
    closure.len()
}

/// Every row of `entry`, each distinct query once, under every strategy;
/// returns how many plans were checked.
fn check_entry(entry: &Entry) -> usize {
    let mut s = (entry.build)();
    let mut done: Vec<QueryGraph> = Vec::new();
    let mut plans = 0;
    for (label, query, _) in entry.rows {
        let q = query(&s);
        if done.contains(&q) {
            continue;
        }
        let mut reference = eval_query_graph(&s.db, &s.methods, &q)
            .unwrap_or_else(|e| panic!("{}/{label}: reference: {e}", entry.name))
            .rows;
        reference.sort();
        for (strategy, config) in STRATEGIES {
            let label = format!("{}/{label} under {strategy}", entry.name);
            let cheapest = strategy == "cost_controlled";
            plans += check_closure(&label, &mut s, &q, &reference, config(), cheapest);
        }
        done.push(q);
    }
    plans
}

#[test]
fn every_plan_the_walk_can_reach_answers_like_the_reference() {
    let mut plans = 0;
    for entry in CORPUS {
        if cfg!(debug_assertions) && !DEBUG_ENTRIES.contains(&entry.name) {
            continue;
        }
        plans += check_entry(entry);
    }
    assert!(plans > 0);
    println!("{plans} plans, each executed at two budgets");
}
