//! Differential tests: the streaming pipeline executor against the
//! naive reference evaluator, on every datagen scenario (music chains,
//! parts BOM, relational chain joins) across seeded PRNG sizes. Each
//! case asserts the result sets are identical and — for recursive
//! queries — that the semi-naive fixpoint converged (a bounded number
//! of delta scans, observed through the per-operator counters) — and
//! that `Executor::answer` of the same plan is the same run without its
//! per-operator report.

use std::collections::{HashMap, HashSet};

use oorq::cost::{CostParams, NodeCost, OpKind};
use oorq::datagen::{ChainConfig, MusicConfig, PartsConfig};
use oorq::exec::{eval_query_graph, Executor};
use oorq::optimizer::OptimizerConfig;
use oorq::pt::{AccessMethod, Pt};
use oorq::query::{Expr, NameRef, QArc, QueryGraph, SpjNode};
use oorq::storage::IndexKindDesc;
use oorq_bench::scenarios::{env_budget, for_each_row};
use oorq_bench::{Knobs, Scenario};

/// The knobs of every streaming run: the breaker memory budget (pages)
/// comes from `OORQ_MEMORY_BUDGET` (`0` / unset = unbounded). CI re-runs
/// this whole suite under a low budget to prove spilling breakers
/// return byte-identical answers.
fn knobs() -> Knobs {
    Knobs::resources(env_budget())
}

/// Optimize under the given config, stream the plan, and compare
/// against the (pre-computed, sorted) reference answer; then answer the
/// same plan unprofiled over a fresh copy of the store, which must be
/// the streaming run without its report. Returns the per-operator
/// reports of the streaming run so callers can assert on counters.
fn diff_one(
    s: &mut Scenario,
    q: &QueryGraph,
    reference: &[Vec<oorq::storage::Value>],
    config: OptimizerConfig,
    label: &str,
) -> Vec<oorq::exec::OpReport> {
    // Copied before the run creates its temporaries, so the unprofiled
    // run creates the same ones. A copy's page account starts empty, as
    // the run's does after `cold_cache`, so both reports' `io` is the
    // one execution's.
    let mut copy = s.db.snapshot();
    let knobs = knobs();
    let run = s
        .run(q, config, &knobs)
        .unwrap_or_else(|e| panic!("{label}: {e}"));

    let mut ex = Executor::new(&mut copy, &s.idx, &s.methods).with_config(knobs.exec.clone());
    let lowered = ex
        .prepare(&run.optimized.pt)
        .unwrap_or_else(|e| panic!("{label}: prepare: {e}"));
    let answered = ex
        .answer(&lowered)
        .unwrap_or_else(|e| panic!("{label}: answer: {e}"));
    let report = ex.report();
    assert_eq!(run.answer.rows, answered.rows, "{label}: answer's rows");
    assert_eq!(
        (run.report.io, run.report.evals, run.report.method_calls),
        (report.io, report.evals, report.method_calls),
        "{label}: answer's I/O, evals and method calls"
    );
    assert!(report.ops.is_empty(), "{label}: answer reports no operator");
    assert!(ex.last_plan().is_none(), "{label}: answer keeps no plan");

    let mut b = run.answer.rows;
    b.sort();
    assert_eq!(
        reference,
        &b[..],
        "{label}: streaming executor diverged from reference"
    );
    run.report.ops
}

/// Run `diff_one` under both the cost-controlled and the always-push
/// strategies (the two plans that exercise different pipeline shapes),
/// and assert every fixpoint in the plans converged: the rec-side delta
/// scan must open at least once less than the row count bound (semi-
/// naive iterations are bounded by the longest derivation chain).
fn diff_configs(s: &mut Scenario, q: &QueryGraph, label: &str, expect_fix: bool) {
    // The naive reference is the slow side (cross products); evaluate it
    // once per scenario and compare every strategy's plan against it.
    let mut reference = eval_query_graph(&s.db, &s.methods, q)
        .unwrap_or_else(|e| panic!("{label}: reference failed: {e}"))
        .rows;
    reference.sort();
    for (cname, config) in [
        ("cost-controlled", OptimizerConfig::cost_controlled()),
        ("always-push", OptimizerConfig::deductive_heuristic()),
    ] {
        let ops = diff_one(s, q, &reference, config, &format!("{label}/{cname}"));
        let fix_ops: Vec<_> = ops.iter().filter(|o| o.label.starts_with("Fix(")).collect();
        if expect_fix {
            assert!(
                !fix_ops.is_empty(),
                "{label}/{cname}: expected a fixpoint operator in the plan"
            );
        }
        for fix in &fix_ops {
            // The pipeline breaker runs its whole loop inside one open;
            // convergence within the iteration bound is what lets it
            // return Ok at all, and a converged loop opens the delta
            // scan once per productive iteration only.
            assert_eq!(fix.opens, 1, "{label}/{cname}: fixpoint opened once");
        }
        let delta_scans: Vec<_> = ops
            .iter()
            .filter(|o| o.label.starts_with("scan temp "))
            .collect();
        for d in &delta_scans {
            assert!(
                d.opens <= d.rows_in.max(d.rows_out).max(1) + 1,
                "{label}/{cname}: {} delta scans for {} rows — redundant iterations",
                d.opens,
                d.rows_out,
            );
        }
    }
}

#[test]
fn music_scenario_differential_across_seeds() {
    for (seed, chains, chain_len) in [(1u64, 2u32, 4u32), (7, 3, 5), (42, 4, 6)] {
        let mut s = Scenario::music(MusicConfig {
            chains,
            chain_len,
            works_per_composer: 2,
            instruments_per_work: 2,
            harpsichord_fraction: 0.5,
            seed,
            ..Default::default()
        });
        let q = s.fig3_gen(2);
        diff_configs(
            &mut s,
            &q,
            &format!("music(seed={seed},chains={chains}x{chain_len})"),
            true,
        );
    }
}

#[test]
fn parts_scenario_differential_across_seeds() {
    for (seed, roots, fanout, depth) in [(1u64, 2u32, 2u32, 3u32), (9, 3, 2, 4), (23, 2, 3, 3)] {
        let mut s = Scenario::parts(PartsConfig {
            roots,
            fanout,
            depth,
            seed,
            ..Default::default()
        });
        let q = s.parts_query();
        diff_configs(
            &mut s,
            &q,
            &format!("parts(seed={seed},{roots}x{fanout}^{depth})"),
            true,
        );
    }
}

/// Add base + recursive rules for a derived transitive-closure
/// predicate over the Composer master chains. `depth_cap` bounds the
/// recursion (`gen < cap`) so two instances produce distinct delta
/// curves.
fn closure_rules(
    q: &mut QueryGraph,
    name: &str,
    composer: oorq::schema::ClassId,
    depth_cap: Option<i64>,
) {
    let nref = NameRef::Derived(name.into());
    q.add_spj(
        nref.clone(),
        SpjNode {
            inputs: vec![QArc::new(NameRef::Class(composer), "x")],
            pred: Expr::path("x", &["master"]).ne(Expr::Lit(oorq::query::Literal::Null)),
            out_proj: vec![
                ("master".into(), Expr::path("x", &["master"])),
                ("disciple".into(), Expr::var("x")),
                ("gen".into(), Expr::int(1)),
            ],
        },
    );
    let mut pred = Expr::path("i", &["disciple"]).eq(Expr::path("x", &["master"]));
    if let Some(cap) = depth_cap {
        pred = pred.and(Expr::path("i", &["gen"]).lt(Expr::int(cap)));
    }
    q.add_spj(
        nref,
        SpjNode {
            inputs: vec![
                QArc::new(NameRef::Derived(name.into()), "i"),
                QArc::new(NameRef::Class(composer), "x"),
            ],
            pred,
            out_proj: vec![
                ("master".into(), Expr::path("i", &["master"])),
                ("disciple".into(), Expr::var("x")),
                ("gen".into(), Expr::path("i", &["gen"]).add(Expr::int(1))),
            ],
        },
    );
}

/// A plan with two *independent* fixpoints: the full influence closure
/// joined against a depth-capped closure of the same chains. Checks the
/// streaming result against the reference evaluator and — the per-node
/// delta attribution — that the executor reports one delta curve per
/// fixpoint node, each with its own convergence profile.
#[test]
fn two_independent_fixpoints_report_separate_delta_curves() {
    let mut s = Scenario::music(MusicConfig {
        chains: 3,
        chain_len: 5,
        works_per_composer: 2,
        instruments_per_work: 2,
        harpsichord_fraction: 0.5,
        seed: 11,
        ..Default::default()
    });
    let mut q = QueryGraph::new(NameRef::Derived("Answer".into()));
    q.add_spj(
        NameRef::Derived("Answer".into()),
        SpjNode {
            inputs: vec![
                QArc::new(NameRef::Derived("InfFull".into()), "a"),
                QArc::new(NameRef::Derived("InfCapped".into()), "b"),
            ],
            pred: Expr::path("a", &["disciple"]).eq(Expr::path("b", &["disciple"])),
            out_proj: vec![
                ("name".into(), Expr::path("a", &["disciple", "name"])),
                ("ga".into(), Expr::path("a", &["gen"])),
                ("gb".into(), Expr::path("b", &["gen"])),
            ],
        },
    );
    let composer = s.db.catalog().class_by_name("Composer").unwrap();
    closure_rules(&mut q, "InfFull", composer, None);
    closure_rules(&mut q, "InfCapped", composer, Some(2));
    let mut reference = eval_query_graph(&s.db, &s.methods, &q).unwrap().rows;
    reference.sort();
    assert!(!reference.is_empty(), "two-fix query must produce rows");

    for (cname, config) in [
        ("cost-controlled", OptimizerConfig::cost_controlled()),
        ("always-push", OptimizerConfig::deductive_heuristic()),
    ] {
        let run = s.run(&q, config, &knobs()).unwrap();
        let mut got = run.answer.rows;
        got.sort();
        assert_eq!(reference, got, "two-fix/{cname}: diverged from reference");

        let report = run.report;
        let mut by_temp: std::collections::BTreeMap<&str, &oorq::exec::FixDeltaCurve> =
            Default::default();
        for c in &report.fix_deltas {
            by_temp.insert(c.temp.as_str(), c);
        }
        assert_eq!(
            by_temp.len(),
            2,
            "two-fix/{cname}: expected one delta curve per fixpoint, got {:?}",
            report.fix_deltas
        );
        let full = by_temp["InfFull"];
        let capped = by_temp["InfCapped"];
        assert_ne!(
            full.pt_node, capped.pt_node,
            "two-fix/{cname}: curves must be keyed to distinct plan nodes"
        );
        for c in [full, capped] {
            assert_eq!(
                c.deltas.last(),
                Some(&0),
                "two-fix/{cname}: {c}: converged curve ends with an empty delta"
            );
            assert!(
                c.deltas[0] > 0,
                "two-fix/{cname}: {c}: seed delta must be non-empty"
            );
        }
        // Full closure: chains of length 5 derive pairs up to gen 4, so
        // the seed plus 3 productive passes plus the empty convergence
        // pass. The capped closure stops deriving at gen 2.
        assert_eq!(full.deltas.len(), 5, "two-fix/{cname}: {full}");
        assert_eq!(capped.deltas.len(), 3, "two-fix/{cname}: {capped}");
        let mass = |c: &oorq::exec::FixDeltaCurve| c.deltas.iter().sum::<u64>();
        assert!(
            mass(full) > mass(capped),
            "two-fix/{cname}: capped closure must derive strictly less ({full} vs {capped})"
        );
    }
}

#[test]
fn chain_scenario_differential_across_seeds() {
    for (seed, relations, rows, domain) in
        [(3u64, 3usize, 30u32, 10i64), (13, 4, 18, 8), (31, 5, 10, 6)]
    {
        let mut s = Scenario::chain(ChainConfig {
            relations,
            rows,
            domain,
            seed,
        });
        let q = s.chain_query(6);
        diff_configs(
            &mut s,
            &q,
            &format!("chain(seed={seed},k={relations})"),
            false,
        );
    }
}

/// Cost line, static bounds and executed operator of one plan agree on
/// what every node is: each executed operator carries the label of its
/// node's cost line (the cost line of a `Fix` appends ` x<iterations>`),
/// and the analyzer marks as lowered exactly the nodes that executed.
fn assert_one_operator_per_node(label: &str, s: &mut Scenario, pt: &Pt) {
    let cost = s
        .model(CostParams::default())
        .cost(pt)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let analysis = s.analyze(pt).unwrap_or_else(|e| panic!("{label}: {e}"));
    let (_, report, _) = s
        .execute(pt, &knobs())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let lines: HashMap<usize, &NodeCost> = cost
        .breakdown
        .iter()
        .filter_map(|n| Some((n.node?, n)))
        .collect();
    let mut executed = HashSet::new();
    for op in &report.ops {
        executed.insert(op.pt_node);
        let line = lines[&op.pt_node];
        let predicted = match line.kind {
            OpKind::Fix => line.label.rsplit_once(" x").expect("iteration suffix").0,
            _ => line.label.as_str(),
        };
        assert_eq!(predicted, op.label, "{label}: node {}", op.pt_node);
    }
    for n in &analysis.nodes {
        assert_eq!(
            n.lowered,
            executed.contains(&n.pt_node),
            "{label}: node {} ({})",
            n.pt_node,
            n.label
        );
    }
}

/// Predicted, bounded and executed operator are the same operator on
/// every corpus row. A hand-built plan whose index annotation the
/// predicate cannot use is not run as a filter: the verifier reports
/// PT005, and lowering (all a release build does before it runs a plan)
/// fails.
#[test]
fn predicted_bounded_and_executed_operators_agree() {
    let mut rows = 0;
    for_each_row(
        |_, _| true,
        |name, s, q, config| {
            let plan = s.plan(q, config, &knobs())?;
            assert_one_operator_per_node(name, s, &plan.pt);
            rows += 1;
            Ok::<(), String>(())
        },
    )
    .expect("the corpus optimizes");
    assert_eq!(rows, 27, "every corpus row");

    let mut s = Scenario::music(MusicConfig {
        chains: 2,
        chain_len: 4,
        ..Default::default()
    });
    let composer = s.db.catalog().class_by_name("Composer").unwrap();
    let e = s.db.physical().class_entity(composer).unwrap();
    let by_name =
        s.db.physical()
            .indexes()
            .iter()
            .find(|d| matches!(d.kind, IndexKindDesc::Selection { .. }))
            .expect("the music design indexes composer names")
            .id;
    let sel = Pt::Sel {
        pred: Expr::path("x", &["name"]).ne(Expr::text("Bach")),
        method: AccessMethod::Index(by_name),
        input: Box::new(Pt::entity(e, "x")),
    };
    let env = s.env();
    let report = oorq::lint::verify_pt(&env, &sel);
    assert_eq!(report.codes().into_iter().collect::<Vec<_>>(), ["PT005"]);
    let lowered = oorq::pt::lower(&env, &sel);
    assert!(
        matches!(lowered, Err(oorq::pt::PtError::NoProbe { index, .. }) if index == by_name),
        "{lowered:?}"
    );
    assert!(s.execute(&sel, &knobs()).is_err());
}
