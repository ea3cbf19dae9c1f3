//! The plan verifier reads the plan as lowering, costing and analysis
//! resolve it: a fixpoint that lowers also verifies and runs at the
//! executor boundary (which verifies in debug builds), a misread
//! temporary is blamed where it is read, and an entity id outside the
//! physical schema is an error every pass returns rather than a panic.

use oorq::analysis::Analyzer;
use oorq::cost::CostParams;
use oorq::datagen::ChainConfig;
use oorq::exec::eval_query_graph;
use oorq::lint::{verify_pt, LintCode};
use oorq::pt::{lower, resolve, Pt};
use oorq::query::{Expr, NameRef, QArc, QueryGraph, SpjNode};
use oorq::storage::EntityId;
use oorq_bench::{Knobs, Scenario};

fn chain() -> Scenario {
    Scenario::chain(ChainConfig {
        relations: 2,
        rows: 30,
        domain: 8,
        seed: 5,
    })
}

/// `Fix(T, Union(R0 e, Proj[e.a: t.<a>, e.b: t.<b>](Temp T t)))`: the
/// temporary is shaped like the base leg, `e.a` and `e.b`.
fn copy_fix(s: &Scenario, a: &str, b: &str) -> Pt {
    let r0 = s.db.catalog().relation_by_name("R0").expect("chain schema");
    let base = Pt::entity(s.db.physical().relation_entity(r0).unwrap(), "e");
    let rec = Pt::proj(
        vec![("e.a".into(), Expr::var(a)), ("e.b".into(), Expr::var(b))],
        Pt::temp("T", "t"),
    );
    Pt::fix("T", Pt::union(base, rec))
}

#[test]
fn a_fixpoint_over_qualified_columns_verifies_and_runs() {
    let mut s = chain();
    let pt = copy_fix(&s, "t.e.a", "t.e.b");
    let report = verify_pt(&s.env(), &pt);
    assert!(report.is_clean(), "{}", report.render());
    let (answer, _, _) = s
        .execute(&pt, &Knobs::default())
        .expect("the executor verifies and runs the plan");

    // The same fixpoint as a query graph, through the reference evaluator.
    let r0 = s.db.catalog().relation_by_name("R0").expect("chain schema");
    let (t, out) = (NameRef::Derived("T".into()), NameRef::Derived("Out".into()));
    let copy = |from: NameRef, var: &str| SpjNode {
        inputs: vec![QArc::new(from, var)],
        pred: Expr::True,
        out_proj: ["a", "b"]
            .map(|f| (f.to_string(), Expr::path(var, &[f])))
            .to_vec(),
    };
    let mut q = QueryGraph::new(out.clone());
    q.add_spj(t.clone(), copy(NameRef::Relation(r0), "e"));
    q.add_spj(t.clone(), copy(t.clone(), "t"));
    q.add_spj(out, copy(t, "t"));
    let reference = eval_query_graph(&s.db, &s.methods, &q).expect("reference evaluates");
    let (mut want, mut got) = (reference.rows, answer.rows);
    want.sort();
    got.sort();
    assert!(!want.is_empty());
    assert_eq!(got, want);
}

#[test]
fn a_misread_temporary_is_blamed_where_it_is_read() {
    let s = chain();
    let pt = copy_fix(&s, "t.a", "t.b");
    let report = verify_pt(&s.env(), &pt);
    assert!(!report.is_clean());
    for d in &report.diagnostics {
        assert_eq!(
            (d.code, d.location.as_str()),
            (LintCode::IllTypedPredicate, "plan/Fix/Proj"),
            "{}",
            report.render()
        );
    }
}

#[test]
fn an_unknown_entity_is_an_error_of_every_pass() {
    let s = chain();
    let pt = Pt::entity(EntityId(9999), "x");
    let (catalog, physical) = (s.db.catalog(), s.db.physical());
    assert!(resolve(catalog, physical, None, &pt).is_err());
    assert!(lower(&s.env(), &pt).is_err());
    let model = s.model(CostParams::default());
    assert!(model.cost(&pt).is_err());
    let analyzer = Analyzer::new(catalog, physical, &s.stats);
    assert!(analyzer.analyze(&pt).is_err());

    let report = verify_pt(&s.env(), &pt);
    let found: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.code, d.location.as_str(), d.message.as_str()))
        .collect();
    assert_eq!(
        found,
        [(
            LintCode::UndefinedTemp,
            "plan/Scan",
            "entity id #9999 is not in the physical schema"
        )]
    );
}
