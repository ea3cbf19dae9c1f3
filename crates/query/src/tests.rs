//! Query-graph tests over the paper's running example.

use oorq_schema::ResolvedType;

use crate::graph::ViewRegistry;
use crate::paper::*;
use crate::*;

#[test]
fn fig2_query_displays() {
    let cat = music_catalog();
    let q = fig2_query(&cat);
    let s = q.display(&cat).to_string();
    assert!(s.contains("Answer <- SPJ({(Composer,"), "got: {s}");
    assert!(s.contains("n=\"Bach\" and i1=\"harpsichord\" and i2=\"flute\""));
    // The paper's tree-label denotation for tr1.
    let arc_label = match &q.nodes[0].1 {
        GraphTerm::Spj(s) => s.inputs[0].label.to_string(),
        _ => unreachable!(),
    };
    assert_eq!(
        arc_label,
        "{(name, {}, n), (works, {(NIL, {(title, {}, t), (instruments, \
         {(NIL, {(name, {}, i1)}, NIL), (NIL, {(name, {}, i2)}, NIL)}, NIL)}, NIL)}, NIL)}"
    );
}

/// Figure 3 before its views are expanded, and the views it names.
fn fig3_program(cat: &oorq_schema::Catalog) -> parse::ParsedProgram {
    parse::parse_program(cat, &fig3("harpsichord", 6)).unwrap()
}

#[test]
fn fig3_query_with_view_expands() {
    let cat = music_catalog();
    let parse::ParsedProgram {
        graph: mut q,
        views,
    } = fig3_program(&cat);
    assert_eq!(q.nodes.len(), 1, "P3 alone before expansion");
    views.expand(&mut q, &cat).unwrap();
    // P3 + P1 + P2
    assert_eq!(q.nodes.len(), 3);
    // The Influencer name is produced by two predicate nodes (P1, P2).
    let influencer = cat.relation_by_name("Influencer").unwrap();
    assert_eq!(q.producers(&NameRef::Relation(influencer)).len(), 2);
}

#[test]
fn expansion_is_idempotent_and_missing_views_error() {
    let cat = music_catalog();
    let parse::ParsedProgram {
        graph: mut q,
        views,
    } = fig3_program(&cat);
    let unexpanded = q.clone();
    views.expand(&mut q, &cat).unwrap();
    let n = q.nodes.len();
    views.expand(&mut q, &cat).unwrap();
    assert_eq!(q.nodes.len(), n, "second expansion adds nothing");

    let mut q2 = unexpanded;
    let err = ViewRegistry::new().expand(&mut q2, &cat).unwrap_err();
    assert_eq!(err, QueryError::UnknownView("Influencer".into()));
}

#[test]
fn normalization_grafts_paths_and_rewrites_predicates() {
    let cat = music_catalog();
    let mut q = fig3_query(&cat);
    q.normalize(&cat).unwrap();
    // After normalization no path expressions remain in predicates.
    for (_, term) in &q.nodes {
        for spj in term.spjs() {
            assert!(
                spj.pred.paths().is_empty(),
                "pred still has paths: {}",
                spj.pred
            );
            for (_, e) in &spj.out_proj {
                assert!(e.paths().is_empty() || matches!(e, Expr::Var(_)));
            }
        }
    }
    // P3's arc label now spans master.works.instruments.name, gen and
    // disciple.name — overlapping paths share the arc.
    let p3 = q.nodes[0].1.spjs()[0];
    let label = p3.inputs[0].label.to_string();
    assert!(label.contains("master"), "label: {label}");
    assert!(label.contains("works"));
    assert!(label.contains("instruments"));
    assert!(label.contains("gen"));
    assert!(label.contains("disciple"));
}

#[test]
fn normalization_shares_identical_paths() {
    let cat = music_catalog();
    let composer = cat.class_by_name("Composer").unwrap();
    let mut q = QueryGraph::new(NameRef::Derived("A".into()));
    q.add_spj(
        NameRef::Derived("A".into()),
        SpjNode {
            inputs: vec![QArc::new(NameRef::Class(composer), "x")],
            // name appears twice: both occurrences must share one variable.
            pred: Expr::path("x", &["name"])
                .ne(Expr::text("Bach"))
                .and(Expr::path("x", &["name"]).ne(Expr::text("Handel"))),
            out_proj: vec![("n".into(), Expr::path("x", &["name"]))],
        },
    );
    q.normalize(&cat).unwrap();
    let spj = q.nodes[0].1.spjs()[0];
    let vars: Vec<String> = spj.inputs.iter().flat_map(|a| a.label.vars()).collect();
    assert_eq!(vars.len(), 1, "one shared variable, got {vars:?}");
}

#[test]
fn derived_name_type_inferred_from_projection() {
    let cat = music_catalog();
    let mut q = fig3_query(&cat);
    q.normalize(&cat).unwrap();
    let ty = q.type_of(&cat, &NameRef::Derived("Answer".into())).unwrap();
    match ty {
        ResolvedType::Tuple(fields) => {
            assert_eq!(fields.len(), 1);
            assert_eq!(fields[0].0, "name");
            assert!(matches!(fields[0].1, ResolvedType::Atomic(_)));
        }
        other => panic!("expected tuple, got {other:?}"),
    }
}

#[test]
fn unknown_attribute_in_path_rejected() {
    let cat = music_catalog();
    let composer = cat.class_by_name("Composer").unwrap();
    let mut q = QueryGraph::new(NameRef::Derived("A".into()));
    q.add_spj(
        NameRef::Derived("A".into()),
        SpjNode {
            inputs: vec![QArc::new(NameRef::Class(composer), "x")],
            pred: Expr::path("x", &["nonexistent"]).eq(Expr::int(1)),
            out_proj: vec![("a".into(), Expr::var("x"))],
        },
    );
    assert!(matches!(
        q.normalize(&cat).unwrap_err(),
        QueryError::UnknownAttribute { .. }
    ));
}

#[test]
fn fig3_denotation_mentions_fixpoint_inputs() {
    let cat = music_catalog();
    let q = fig3_query(&cat);
    let s = q.display(&cat).to_string();
    assert!(s.contains("Influencer <- SPJ"), "got: {s}");
    assert!(s.contains("gen: i.gen+1"), "got: {s}");
}

#[test]
fn pushjoin_query_normalizes() {
    let cat = music_catalog();
    let mut q = sec45_pushjoin_query(&cat);
    q.normalize(&cat).unwrap();
}
