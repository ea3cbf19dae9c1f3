//! Optimizer tests: the full pipeline on the paper's running example,
//! with execution-level verification against the reference evaluator.

use std::sync::Arc;

use oorq_cost::{CostError, CostModel, CostParams, OpenTemp};
use oorq_datagen::{MusicConfig, MusicDb};
use oorq_exec::{eval_query_graph, Executor, MethodRegistry};
use oorq_index::{IndexSet, PathIndex, SelectionIndex};
use oorq_pt::{propagated_columns, Pt, PtError};
use oorq_query::paper::{
    fig2_query, fig3, fig3_query, fig3_query_gen, music_catalog, sec45_pushjoin_query,
};
use oorq_query::{Expr, NameRef, QArc, QueryGraph, SpjNode};
use oorq_storage::DbStats;

use crate::transform::{best_selection, can_push, filter_action};
use crate::translate::translate_arc;
use crate::*;

/// A music database with the paper's physical design: the
/// `works.instruments` path index and a name selection index.
fn setup(cfg: MusicConfig) -> (MusicDb, IndexSet, DbStats) {
    let cat = Arc::new(music_catalog());
    let mut m = MusicDb::generate(cat, cfg);
    let mut idx = IndexSet::new();
    idx.add_path(PathIndex::build(
        &mut m.db,
        vec![
            (m.composer, m.works_attr),
            (m.composition, m.instruments_attr),
        ],
    ));
    idx.add_selection(SelectionIndex::build(&mut m.db, m.composer, m.name_attr));
    let stats = DbStats::collect(&m.db);
    (m, idx, stats)
}

fn fig3_graph(m: &MusicDb) -> QueryGraph {
    fig3_query(m.db.catalog())
}

fn optimizer<'a>(m: &'a MusicDb, stats: &'a DbStats, config: OptimizerConfig) -> Optimizer<'a> {
    let model = CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        stats,
        CostParams::default(),
    );
    Optimizer::new(model, config)
}

#[test]
fn fig2_nonrecursive_query_optimizes_and_executes() {
    let (mut m, idx, stats) = setup(MusicConfig {
        chains: 4,
        chain_len: 4,
        harpsichord_fraction: 0.6,
        ..Default::default()
    });
    let q = fig2_query(m.db.catalog());
    let methods = MethodRegistry::new();
    let reference = eval_query_graph(&m.db, &methods, &q).unwrap();

    let plan = {
        let mut opt = optimizer(&m, &stats, OptimizerConfig::cost_controlled());
        opt.optimize(&q).unwrap()
    };
    assert_eq!(plan.out_cols, vec!["title".to_string()]);
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let got = ex.run(&plan.pt).unwrap();
    let mut a = reference.rows.clone();
    let mut b = got.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "optimized plan must match reference semantics");
}

#[test]
fn fig3_recursive_query_output_matches_reference() {
    let (mut m, idx, stats) = setup(MusicConfig {
        chains: 2,
        chain_len: 6,
        harpsichord_fraction: 0.7,
        ..Default::default()
    });
    let q = fig3_query_gen(m.db.catalog(), 2);
    let methods = MethodRegistry::new();
    let reference = eval_query_graph(&m.db, &methods, &q).unwrap();
    assert!(
        !reference.is_empty(),
        "the test query must select something"
    );

    for config in [
        OptimizerConfig::cost_controlled(),
        OptimizerConfig::deductive_heuristic(),
        OptimizerConfig::never_push(),
        OptimizerConfig::exhaustive(),
    ] {
        let plan = {
            let mut opt = optimizer(&m, &stats, config.clone());
            opt.optimize(&q).unwrap()
        };
        let mut ex = Executor::new(&mut m.db, &idx, &methods);
        let got = ex.run(&plan.pt).unwrap();
        let mut a = reference.rows.clone();
        let mut b = got.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "config {config:?} produced wrong answer");
    }
}

#[test]
fn fig3_plan_has_fixpoint_and_paper_shape() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let q = fig3_graph(&m);
    let mut opt = optimizer(&m, &stats, OptimizerConfig::never_push());
    let plan = opt.optimize(&q).unwrap();
    // The plan contains a Fix over a Union whose recursive side scans the
    // Influencer temporary.
    let mut has_fix = false;
    plan.pt.visit(&mut |n| {
        if let Pt::Fix { temp, body } = n {
            has_fix = true;
            assert_eq!(temp, "Influencer");
            assert!(matches!(body.as_ref(), Pt::Union { .. }));
        }
    });
    assert!(has_fix);
    // Figure 4.(i): the harpsichord selection sits *outside* the Fix.
    let env = oorq_pt::PtEnv::new(m.db.catalog(), m.db.physical());
    let display = plan.pt.display(&env).to_string();
    assert!(display.contains("Fix(Influencer"), "{display}");
    assert!(display.contains("harpsichord"), "{display}");
    let fix_pos = display.find("Fix(Influencer").unwrap();
    let sel_pos = display.find("harpsichord").unwrap();
    assert!(
        sel_pos < fix_pos,
        "unpushed plan: selection should print before (outside) the Fix: {display}"
    );
    // Trace covers all four steps.
    let summary = plan.trace.summary();
    for step in ["rewrite", "translate", "generatePT", "transformPT"] {
        assert!(summary.contains(step), "missing {step} in:\n{summary}");
    }
}

#[test]
fn cost_controlled_push_decision_matches_cost_comparison() {
    // Deep chains + expensive path predicate: pushing re-evaluates the
    // path every iteration over the growing temporary — the §4.6
    // conclusion is that pushing loses.
    let (m, _idx, stats) = setup(MusicConfig {
        chains: 4,
        chain_len: 10,
        works_per_composer: 3,
        instruments_per_work: 3,
        harpsichord_fraction: 0.5,
        ..Default::default()
    });
    let q = fig3_graph(&m);
    let unpushed = {
        let mut o = optimizer(&m, &stats, OptimizerConfig::never_push());
        o.optimize(&q).unwrap()
    };
    let pushed = {
        let mut o = optimizer(&m, &stats, OptimizerConfig::deductive_heuristic());
        o.optimize(&q).unwrap()
    };
    let chosen = {
        let mut o = optimizer(&m, &stats, OptimizerConfig::cost_controlled());
        o.optimize(&q).unwrap()
    };
    let params = CostParams::default();
    let best = unpushed.cost.total(&params).min(pushed.cost.total(&params));
    assert!(
        chosen.cost.total(&params) <= best + 1e-6,
        "cost-controlled ({}) must match the cheaper of unpushed ({}) / pushed ({})",
        chosen.cost.total(&params),
        unpushed.cost.total(&params),
        pushed.cost.total(&params)
    );
}

#[test]
fn pushjoin_query_pushes_selective_join() {
    // §4.5: "composers influenced by the masters of Bach" — the join is
    // extremely selective, pushing restricts the fixpoint to one chain.
    let (m, _idx, stats) = setup(MusicConfig {
        chains: 12,
        chain_len: 8,
        ..Default::default()
    });
    let q = sec45_pushjoin_query(m.db.catalog());
    let unpushed = {
        let mut o = optimizer(&m, &stats, OptimizerConfig::never_push());
        o.optimize(&q).unwrap()
    };
    let chosen = {
        let mut o = optimizer(&m, &stats, OptimizerConfig::cost_controlled());
        o.optimize(&q).unwrap()
    };
    let params = CostParams::default();
    assert!(
        chosen.cost.total(&params) < unpushed.cost.total(&params),
        "pushing the Bach join must win: chosen {} vs unpushed {}",
        chosen.cost.total(&params),
        unpushed.cost.total(&params)
    );
    // The chosen plan has the join inside the fixpoint (semi-join on the
    // base side).
    let mut join_inside_fix = false;
    chosen.pt.visit(&mut |n| {
        if let Pt::Fix { body, .. } = n {
            body.visit(&mut |inner| {
                if matches!(inner, Pt::EJ { .. }) {
                    join_inside_fix = true;
                }
            });
        }
    });
    assert!(
        join_inside_fix,
        "expected the selective join pushed into the fixpoint"
    );
}

#[test]
fn pushjoin_execution_matches_reference_both_ways() {
    let (mut m, idx, stats) = setup(MusicConfig {
        chains: 3,
        chain_len: 5,
        ..Default::default()
    });
    let q = sec45_pushjoin_query(m.db.catalog());
    let methods = MethodRegistry::new();
    let reference = eval_query_graph(&m.db, &methods, &q).unwrap();
    assert!(!reference.is_empty(), "Bach's chain has disciples");
    for config in [
        OptimizerConfig::cost_controlled(),
        OptimizerConfig::never_push(),
    ] {
        let plan = {
            let mut opt = optimizer(&m, &stats, config);
            opt.optimize(&q).unwrap()
        };
        let mut ex = Executor::new(&mut m.db, &idx, &methods);
        let got = ex.run(&plan.pt).unwrap();
        let mut a = reference.rows.clone();
        let mut b = got.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}

#[test]
fn exhaustive_is_never_beaten_by_dp_or_greedy() {
    let (m, _idx, stats) = setup(MusicConfig {
        chains: 6,
        chain_len: 5,
        ..Default::default()
    });
    let q = fig3_graph(&m);
    let params = CostParams::default();
    let cost_of = |strategy| {
        let mut opt = optimizer(
            &m,
            &stats,
            OptimizerConfig {
                spj_strategy: strategy,
                rand: None,
                ..Default::default()
            },
        );
        opt.optimize(&q).unwrap().cost.total(&params)
    };
    let ex = cost_of(SpjStrategy::Exhaustive);
    let dp = cost_of(SpjStrategy::Dp);
    let greedy = cost_of(SpjStrategy::Greedy);
    assert!(ex <= dp + 1e-6, "exhaustive {ex} must not lose to dp {dp}");
    assert!(
        ex <= greedy + 1e-6,
        "exhaustive {ex} must not lose to greedy {greedy}"
    );
}

#[test]
fn randomized_phase_never_worsens_the_plan() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let q = fig3_graph(&m);
    let params = CostParams::default();
    let base = {
        let mut opt = optimizer(
            &m,
            &stats,
            OptimizerConfig {
                rand: None,
                ..OptimizerConfig::cost_controlled()
            },
        );
        opt.optimize(&q).unwrap().cost.total(&params)
    };
    let refined = {
        let mut opt = optimizer(&m, &stats, OptimizerConfig::cost_controlled());
        opt.optimize(&q).unwrap().cost.total(&params)
    };
    assert!(refined <= base + 1e-6, "{refined} vs {base}");
}

#[test]
fn filter_action_pushes_only_propagated_conjuncts() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    // Hand-build the Influencer fixpoint.
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let base = Pt::proj(
        vec![
            ("master".into(), Expr::path("x", &["master"])),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::int(1)),
        ],
        Pt::entity(e, "x"),
    );
    let rec = Pt::proj(
        vec![
            ("master".into(), Expr::var("i.master")),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::var("i.gen").add(Expr::int(1))),
        ],
        Pt::ej(
            Expr::var("i.disciple").eq(Expr::path("x", &["master"])),
            Pt::temp("Influencer", "i"),
            Pt::entity(e, "x"),
        ),
    );
    let fix = Pt::fix("Influencer", Pt::union(base.clone(), rec));
    // The pushed selection is planned against the fixpoint's temporary,
    // open as while its recursive leg is planned: the base leg's output,
    // at the modeled delta.
    let env = oorq_pt::PtEnv::new(m.db.catalog(), m.db.physical());
    let fields = fix.output_columns(&env).unwrap();
    let mut model = CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        &stats,
        CostParams::default(),
    );
    let curve = model.fix_delta_curve("Influencer", model.cost(&base).unwrap().rows);
    model.open_temp = Some(OpenTemp {
        name: "Influencer".into(),
        cols: fields.clone(),
        delta: curve.delta,
    });
    let propagated = propagated_columns(&fix);
    assert_eq!(
        propagated,
        vec!["master".to_string()],
        "only master is copied"
    );
    let info = FixInfo { fields, propagated };
    // gen >= 6 is NOT pushable; master-rooted selection is.
    assert!(!can_push(&Expr::var("gen").ge(Expr::int(6)), &info));
    let master_sel =
        Expr::path("master", &["works", "instruments", "name"]).eq(Expr::text("harpsichord"));
    assert!(can_push(&master_sel, &info));
    let pushed = filter_action(&model, &fix, &info, &master_sel).unwrap();
    // Both union sides now carry the selection.
    let Pt::Fix { body, .. } = &pushed else {
        panic!("expected Fix")
    };
    let Pt::Union { left, right } = body.as_ref() else {
        panic!("expected Union")
    };
    let mut sel_count = 0;
    for side in [left, right] {
        side.visit(&mut |n| {
            if let Pt::Sel { pred, .. } = n {
                if pred.to_string().contains("harpsichord") {
                    sel_count += 1;
                }
            }
        });
    }
    assert!(
        sel_count >= 2,
        "selection must appear in base and recursive sides"
    );
}

/// A fixpoint's temporary is open only while the optimizer plans its
/// recursive leg: after `optimize`, the model prices no scan of it
/// outside the fixpoint.
#[test]
fn no_temporary_outlives_its_fixpoint_in_the_model() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let mut opt = optimizer(&m, &stats, OptimizerConfig::cost_controlled());
    let plan = opt.optimize(&fig3_graph(&m)).unwrap();
    let mut fix = None;
    plan.pt.visit(&mut |n| {
        if matches!(n, Pt::Fix { .. }) && fix.is_none() {
            fix = Some(n.clone());
        }
    });
    let escaped = Pt::ej(
        Expr::var("master").eq(Expr::var("i.master")),
        fix.expect("Figure 3's plan has a fixpoint"),
        Pt::temp("Influencer", "i"),
    );
    assert_eq!(opt.model.open_temp, None);
    assert_eq!(
        opt.model.cost(&escaped).err(),
        Some(CostError::Pt(PtError::UnknownTemp("Influencer".into())))
    );
}

#[test]
fn filter_expansion_uses_path_index_inside_fixpoint() {
    // With the works.instruments path index available, the pushed
    // selection expands into IJ_master + PIJ_works.instruments — the
    // Figure 4.(ii) shape.
    let (m, _idx, stats) = setup(MusicConfig::default());
    let q = fig3_graph(&m);
    let mut always = optimizer(&m, &stats, OptimizerConfig::deductive_heuristic());
    let plan = always.optimize(&q).unwrap();
    let env = oorq_pt::PtEnv::new(m.db.catalog(), m.db.physical());
    let display = plan.pt.display(&env).to_string();
    let fix_start = display.find("Fix(Influencer").expect("plan has a Fix");
    let inside = &display[fix_start..];
    assert!(
        inside.contains("harpsichord"),
        "pushed plan evaluates the selection inside the fixpoint: {display}"
    );
    assert!(
        inside.contains("PIJ_works.instruments") || inside.contains("IJ_works"),
        "pushed selection expanded into implicit joins: {display}"
    );
}

#[test]
fn always_push_executes_correctly_too() {
    let (mut m, idx, stats) = setup(MusicConfig {
        chains: 2,
        chain_len: 6,
        harpsichord_fraction: 0.7,
        ..Default::default()
    });
    let q = fig3_query_gen(m.db.catalog(), 2);
    let methods = MethodRegistry::new();
    let reference = eval_query_graph(&m.db, &methods, &q).unwrap();
    let plan = {
        let mut opt = optimizer(&m, &stats, OptimizerConfig::deductive_heuristic());
        opt.optimize(&q).unwrap()
    };
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let got = ex.run(&plan.pt).unwrap();
    let mut a = reference.rows.clone();
    let mut b = got.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "pushed plan must preserve semantics");
}

#[test]
fn collapse_uses_existing_path_index() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let q = fig3_graph(&m);
    let mut opt = optimizer(&m, &stats, OptimizerConfig::never_push());
    let plan = opt.optimize(&q).unwrap();
    // The consumer chain above the fixpoint traverses
    // master.works.instruments; with the path index present the
    // optimizer should collapse works.instruments into a PIJ when
    // cheaper.
    let mut has_pij = false;
    plan.pt.visit(&mut |n| {
        if matches!(n, Pt::PIJ { .. }) {
            has_pij = true;
        }
    });
    assert!(has_pij, "expected a PIJ in the plan");
}

#[test]
fn optimizer_trace_summarizes_figure6() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let q = fig3_graph(&m);
    let mut opt = optimizer(&m, &stats, OptimizerConfig::cost_controlled());
    let plan = opt.optimize(&q).unwrap();
    let s = plan.trace.summary();
    assert!(s.contains("| rewrite | the entire query (graph) | irrevocable | Fix, Union |"));
    assert!(s.contains("| translate | one arc | cost-based |"), "{s}");
    assert!(s.contains("| generatePT | one predicate node | cost-based (generative) |"));
    assert!(s.contains("| transformPT | the entire query (PT) | cost-based (transformational)"));
}

#[test]
fn play_relation_join_optimizes_and_matches_reference() {
    // Figure 1's stored `Play` relation: instruments played by Bach.
    let (mut m, idx, stats) = setup(MusicConfig {
        chains: 3,
        chain_len: 4,
        ..Default::default()
    });
    let cat = m.db.catalog_rc();
    let play = cat.relation_by_name("Play").unwrap();
    let mut q = QueryGraph::new(NameRef::Derived("Answer".into()));
    q.add_spj(
        NameRef::Derived("Answer".into()),
        SpjNode {
            inputs: vec![QArc::new(NameRef::Relation(play), "r")],
            pred: Expr::path("r", &["who", "name"]).eq(Expr::text("Bach")),
            out_proj: vec![(
                "instrument".into(),
                Expr::path("r", &["instrument", "name"]),
            )],
        },
    );
    let methods = MethodRegistry::new();
    let reference = eval_query_graph(&m.db, &methods, &q).unwrap();
    assert!(!reference.is_empty(), "Bach plays something");
    let plan = {
        let mut opt = optimizer(&m, &stats, OptimizerConfig::cost_controlled());
        opt.optimize(&q).unwrap()
    };
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let got = ex.run(&plan.pt).unwrap();
    let mut a = reference.rows.clone();
    let mut b = got.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn translate_enumerates_orderings_and_collapse() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let cat = m.db.catalog();
    // The fig2 arc: after normalization its label has name + works
    // branches; translate must offer both branch orders and, with the
    // works.instruments index present, collapsed variants.
    let mut q = oorq_query::paper::fig2_query(cat);
    q.normalize(cat).unwrap();
    let spj = q.nodes[0].1.spjs()[0].clone();
    let composer_e = m.db.physical().class_entity(m.composer).unwrap();
    let mut counter = 0;
    let mut fresh = || {
        counter += 1;
        format!("_f{counter}")
    };
    let alts = translate_arc(
        cat,
        m.db.physical(),
        &spj.inputs[0],
        BasePlan::Class(composer_e, m.composer),
        &mut fresh,
        16,
    )
    .unwrap();
    assert!(
        alts.len() >= 2,
        "expected ordering/collapse alternatives, got {}",
        alts.len()
    );
    // At least one alternative collapses works.instruments into a PIJ.
    let has_pij = alts
        .iter()
        .any(|a| a.ops.iter().any(|op| matches!(op, ChainOp::Pij { .. })));
    assert!(has_pij, "collapse must offer a PIJ alternative");
    // And the uncollapsed IJ-only chain is always kept.
    let has_plain = alts
        .iter()
        .any(|a| a.ops.iter().all(|op| matches!(op, ChainOp::Ij { .. })));
    assert!(has_plain);
    // Substitutions map every label variable.
    for v in spj.inputs[0].label.vars() {
        assert!(alts[0].subst.contains_key(&v), "unmapped label var {v}");
    }
    let _ = stats;
}

#[test]
fn best_selection_expands_long_paths_when_cheaper() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let model = CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        &stats,
        CostParams::default(),
    );
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let pred = Expr::path("x", &["works", "instruments", "name"]).eq(Expr::text("flute"));
    let chosen = best_selection(&model, pred, Pt::entity(e, "x"), &["x".to_string()]).unwrap();
    // With the path index registered, the expansion through
    // PIJ_works.instruments must win over per-row dereferencing.
    let mut has_pij = false;
    chosen.visit(&mut |n| {
        if matches!(n, Pt::PIJ { .. }) {
            has_pij = true;
        }
    });
    assert!(has_pij, "expected PIJ expansion, got plain selection");
    // The result is projected back onto the original column.
    assert!(matches!(chosen, Pt::Proj { .. }));
}

#[test]
fn neighbours_enumerate_join_and_access_moves() {
    // `setup` builds a selection index on Composer.name.
    let (m, _idx, stats) = setup(MusicConfig::default());
    let sid =
        m.db.physical()
            .selection_index(m.composer, m.name_attr)
            .expect("setup built the name index")
            .id;
    let model = CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        &stats,
        CostParams::default(),
    );
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let plan = Pt::ej(
        Expr::path("l", &["master"]).eq(Expr::path("r", &["master"])),
        Pt::sel(
            Expr::path("l", &["name"]).eq(Expr::text("Bach")),
            Pt::entity(e, "l"),
        ),
        Pt::entity(e, "r"),
    );
    let ns: Vec<Pt> = neighbours(&model, &plan)
        .into_iter()
        .map(|m| m.plan)
        .collect();
    // Swap and the Sel scan->index toggle.
    assert!(
        ns.len() >= 2,
        "expected several neighbour moves, got {}",
        ns.len()
    );
    let has_swap = ns.iter().any(|n| {
        matches!(n, Pt::EJ { left, .. }
        if matches!(left.as_ref(), Pt::Entity { .. }))
    });
    assert!(has_swap, "operand swap must be a move");
    let has_index_sel = ns.iter().any(|n| {
        let mut found = false;
        n.visit(&mut |x| {
            if matches!(x, Pt::Sel { method: oorq_pt::AccessMethod::Index(i), .. } if *i == sid) {
                found = true;
            }
        });
        found
    });
    assert!(has_index_sel, "access-method toggle must be a move");
}

#[test]
fn parsed_program_optimizes() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let cat = m.db.catalog();
    let q = oorq_query::parse_query(cat, &fig3("harpsichord", 6)).unwrap();
    assert!(oorq_lint::lint_graph(cat, &q).is_clean());
    let mut o = optimizer(&m, &stats, OptimizerConfig::never_push());
    let cost = o.optimize(&q).unwrap().cost.total(&CostParams::default());
    assert!(cost.is_finite() && cost > 0.0, "parsed plan costs {cost}");
}

/// `Proj(EJ_{l.master = r}(Union(Sel(l), Sel(l)), right))`: an explicit
/// join over a union of two selections the name index could serve.
fn join_over_union(e: oorq_storage::EntityId, right: Pt) -> Pt {
    let pred = Expr::path("l", &["master"]).eq(Expr::var("r"));
    Pt::proj(
        vec![("n".into(), Expr::path("r", &["name"]))],
        Pt::ej(
            pred,
            Pt::union(
                Pt::sel(
                    Expr::path("l", &["name"]).eq(Expr::text("Bach")),
                    Pt::entity(e, "l"),
                ),
                Pt::sel(
                    Expr::path("l", &["name"]).eq(Expr::text("composer0")),
                    Pt::entity(e, "l"),
                ),
            ),
            right,
        ),
    )
}

/// The walk draws an index into `neighbours`' list, so the list's order
/// is behaviour: local moves in pre-order, then the distributions. The
/// fingerprints were recorded before the distribution was a
/// `neighbours` arm.
#[test]
fn neighbours_keep_their_order() {
    let (m, _idx, stats) = setup(MusicConfig {
        chains: 2,
        chain_len: 3,
        ..Default::default()
    });
    let e = m.db.physical().class_entity(m.composer).unwrap();
    // The inner join joins on names, which the music design indexes.
    let inner = Pt::ej(
        Expr::path("r", &["name"]).eq(Expr::path("s", &["name"])),
        Pt::entity(e, "r"),
        Pt::entity(e, "s"),
    );
    let plan = join_over_union(e, inner);
    let model = CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        &stats,
        CostParams::default(),
    );
    let got: Vec<(u64, usize)> = neighbours(&model, &plan)
        .iter()
        .map(|m| (m.plan.fingerprint(), m.node))
        .collect();
    // Swap the outer join; index-select each `Sel`; swap the inner
    // join; distribute the outer join. Pre-order: `Proj` 0, outer `EJ`
    // 1, `Union` 2, the `Sel`s 3 and 5, inner `EJ` 7.
    let want = [
        (3491937777058935093, 1),
        (8410823513055222181, 3),
        (5688382343708591439, 5),
        (5953477124716096093, 7),
        (13369470883053651101, 1),
    ];
    assert_eq!(got, want);
}

#[test]
fn distribute_join_over_union_preserves_semantics() {
    // §5: "distributing union over join and vice-versa ... we are able
    // to efficiently explore this transformation".
    let (mut m, idx, stats) = setup(MusicConfig {
        chains: 2,
        chain_len: 3,
        ..Default::default()
    });
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let plan = join_over_union(e, Pt::entity(e, "r"));
    let model = CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        &stats,
        CostParams::default(),
    );
    // The distribution is the last move.
    let distributed = neighbours(&model, &plan).pop().unwrap().plan;
    // The join is now below the union.
    let mut shape_ok = false;
    distributed.visit(&mut |n| {
        if let Pt::Union { left, right } = n {
            if matches!(left.as_ref(), Pt::EJ { .. }) && matches!(right.as_ref(), Pt::EJ { .. }) {
                shape_ok = true;
            }
        }
    });
    assert!(shape_ok, "expected Union(EJ, EJ)");
    // Both cost estimates are computable (the framework can compare
    // them, which is the paper's §5 point).
    assert!(model.cost(&plan).is_ok());
    assert!(model.cost(&distributed).is_ok());
    // And the answers are the same.
    let methods = MethodRegistry::new();
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let a = ex.run(&plan).unwrap();
    let b = ex.run(&distributed).unwrap();
    let mut ra = a.rows.clone();
    let mut rb = b.rows.clone();
    ra.sort();
    rb.sort();
    assert_eq!(ra, rb);
}

/// The randomized walk under an enabled recorder and registry: its
/// outcome, the `(fingerprint, outcome, reason)` of every `candidate`
/// event in order, the `optimizer.candidates.revisited` count and the
/// Figure 6 trace.
fn traced_walk(
    model: &CostModel<'_>,
    start: &Pt,
    config: &RandConfig,
    moves: &MoveFn<'_>,
) -> (RandOutcome, Vec<(u64, String, String)>, u64, OptTrace) {
    let obs = oorq_obs::Recorder::new();
    let registry = oorq_obs::MetricsRegistry::new();
    let mut sink = Decisions::new(obs.clone(), &registry);
    let outcome = rand_optimize_with(model, start.clone(), config, moves, &mut sink);
    let text = |e: &oorq_obs::Event, key: &str| {
        let v = e.field(key).and_then(|v| v.as_str());
        v.expect("every candidate event carries it").to_string()
    };
    let events = obs
        .finish()
        .events_named("candidate")
        .map(|e| {
            let fp = u64::from_str_radix(&text(e, "fingerprint"), 16).expect("hex");
            (fp, text(e, "outcome"), text(e, "reason"))
        })
        .collect();
    let revisited = registry.counter("optimizer.candidates.revisited").get();
    (outcome, events, revisited, sink.trace().clone())
}

/// A move generator that always offers the same two worse plans: each is
/// examined once whatever the move budget, every other move only counts
/// as a revisit, and the walk returns its start.
#[test]
fn walk_examines_each_plan_once_whatever_the_budget() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let mut opt = optimizer(&m, &stats, OptimizerConfig::never_push());
    let start = opt.optimize(&fig3_graph(&m)).unwrap().pt;
    let model = &opt.model;
    // A needless filter over the start plan costs more than the plan.
    let worse = |name: &str| Pt::sel(Expr::var("name").eq(Expr::text(name)), start.clone());
    let two = [worse("Bach"), worse("Handel")];
    let start_cost = model.cost(&start).unwrap().total(&model.params);
    for w in &two {
        assert!(model.cost(w).unwrap().total(&model.params) > start_cost);
    }
    let offer = |_: &CostModel<'_>, _: &Pt| {
        let at_root = |plan: &Pt| Move {
            plan: plan.clone(),
            node: 0,
        };
        two.iter().map(at_root).collect()
    };
    for moves in [90, 5, 8] {
        let config = RandConfig {
            moves,
            ..Default::default()
        };
        let (outcome, events, revisited, _) = traced_walk(model, &start, &config, &offer);
        let mut seen: Vec<u64> = events.iter().map(|(fp, ..)| *fp).collect();
        seen.sort_unstable();
        let mut offered = [two[0].fingerprint(), two[1].fingerprint()];
        offered.sort_unstable();
        assert_eq!(seen, offered, "one event per distinct plan: {events:?}");
        assert!(events.iter().all(|(_, outcome, _)| outcome == "reject"));
        assert_eq!(revisited as usize, moves - 2);
        assert_eq!(outcome.pt, start);
        let cost = outcome.cost.expect("the start is costable");
        assert_eq!(cost.total(&model.params).to_bits(), start_cost.to_bits());
    }
}

/// A plan rejected by cost is examined once and stays turned down after
/// a downhill move (the incumbent's cost only falls). Scripted over the
/// §4.5 push-join plan at 300 composers, whose neighbourhood holds a
/// worse and a better plan.
#[test]
fn cost_rejections_are_for_good() {
    let (m, _idx, stats) = setup(MusicConfig {
        chains: 30,
        chain_len: 10,
        works_per_composer: 4,
        instruments_per_work: 3,
        seed: 1992,
        ..Default::default()
    });
    let cat = m.db.catalog();
    let q = sec45_pushjoin_query(cat);
    let config = OptimizerConfig {
        rand: None,
        ..OptimizerConfig::cost_controlled()
    };
    let mut opt = optimizer(&m, &stats, config);
    let start = opt.optimize(&q).unwrap().pt;
    let model = &opt.model;

    // A scripted move generator: the i-th call offers `script[i]` alone.
    let walk = |script: &[&Pt]| {
        let calls = std::cell::Cell::new(0);
        let moves = |_: &CostModel<'_>, _: &Pt| {
            calls.set(calls.get() + 1);
            let plan = script[calls.get() - 1].clone();
            vec![Move { plan, node: 0 }]
        };
        let config = RandConfig {
            moves: script.len(),
            ..Default::default()
        };
        traced_walk(model, &start, &config, &moves)
    };
    // Classify the start's neighbours by what one move makes of each.
    let ns: Vec<Pt> = neighbours(model, &start)
        .into_iter()
        .map(|m| m.plan)
        .collect();
    let first = |outcome: &str| {
        let hit = ns.iter().find(|n| walk(&[n]).1[0].1 == outcome);
        hit.unwrap_or_else(|| panic!("no neighbour the walk would {outcome}"))
    };
    let (worse, better) = (first("reject"), first("accept"));

    let script = [worse, worse, better, worse, worse];
    let (outcome, events, revisited, _) = walk(&script);
    assert_eq!(&outcome.pt, better);
    let of = |pt: &Pt| -> Vec<&str> {
        let mine = events.iter().filter(|(fp, ..)| *fp == pt.fingerprint());
        mine.map(|(_, outcome, _)| outcome.as_str()).collect()
    };
    assert_eq!(of(worse), ["reject"], "rejected by cost: never again");
    assert_eq!(of(better), ["accept"]);
    assert_eq!(revisited, 3);
}

/// In a debug build the optimizer verifies every intermediate stage, and
/// the paper query passes each one.
#[test]
fn optimizer_verification_levels() {
    let (m, _idx, stats) = setup(MusicConfig::default());
    let q = fig3_graph(&m);
    let mut opt = optimizer(&m, &stats, OptimizerConfig::cost_controlled());
    opt.optimize(&q)
        .expect("the paper query must verify at every stage");
}
