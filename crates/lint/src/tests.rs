//! One intentionally broken fixture per lint code, plus clean paper
//! fixtures that must stay clean.

use std::sync::Arc;

use oorq_pt::{IjStep, Pt, PtEnv};
use oorq_query::paper::{fig2_query, fig3_query, music_catalog, sec45_pushjoin_query};
use oorq_query::{parse_query, Expr, NameRef, QArc, QueryGraph, SpjNode, TreeChild, TreeLabel};
use oorq_schema::Catalog;
use oorq_storage::{Database, StorageConfig};

use crate::{
    lint_drift, lint_graph, verify_phys, verify_pt, DriftTolerance, LintCode, ObservedOp, Severity,
};

fn setup() -> (Arc<Catalog>, Database) {
    let cat = Arc::new(music_catalog());
    let db = Database::new(Arc::clone(&cat), StorageConfig::default());
    (cat, db)
}

fn answer() -> NameRef {
    NameRef::Derived("Answer".into())
}

/// An SPJ selecting composers by name — the building block the broken
/// fixtures perturb.
fn simple_spj(cat: &Catalog) -> SpjNode {
    let composer = cat.class_by_name("Composer").unwrap();
    SpjNode {
        inputs: vec![QArc {
            name: NameRef::Class(composer),
            var: Some("x".into()),
            label: TreeLabel::leaf().attr_var("name", "n"),
        }],
        pred: Expr::var("n").eq(Expr::text("Bach")),
        out_proj: vec![("who".into(), Expr::var("x"))],
    }
}

// ---- graph pass -----------------------------------------------------

#[test]
fn clean_paper_queries_lint_clean() {
    let (cat, _) = setup();
    let report = lint_graph(&cat, &fig2_query(&cat));
    assert!(report.is_clean(), "unexpected errors:\n{report}");
    // The recursive view, expanded: clean, and noted as linear.
    let report = lint_graph(&cat, &fig3_query(&cat));
    assert!(report.is_clean(), "unexpected errors:\n{report}");
    assert!(report.has(LintCode::LinearRecursion));
    // Normalized, as the optimizer admits them.
    for mut q in [fig3_query(&cat), sec45_pushjoin_query(&cat)] {
        q.normalize(&cat).unwrap();
        let report = lint_graph(&cat, &q);
        assert!(report.is_clean(), "unexpected errors:\n{report}");
    }
    let q = parse_query(
        &cat,
        "-- all composers\nselect [n: x.name] from x in Composer;",
    )
    .unwrap();
    assert!(lint_graph(&cat, &q).is_clean());
}

#[test]
fn an_answer_nothing_produces_is_reported() {
    let (cat, _) = setup();
    let report = lint_graph(&cat, &QueryGraph::new(answer()));
    assert!(report.has(LintCode::UnknownName), "{report}");
    assert!(!report.is_clean());
}

#[test]
fn unbound_variable_is_reported() {
    let (cat, _) = setup();
    let mut spj = simple_spj(&cat);
    spj.pred = Expr::var("ghost").eq(Expr::text("Bach"));
    let mut g = QueryGraph::new(answer());
    g.add_spj(answer(), spj);
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::UnboundVariable), "{report}");
    assert!(!report.is_clean());
}

#[test]
fn unknown_name_is_reported() {
    let (cat, _) = setup();
    let mut g = QueryGraph::new(answer());
    g.add_spj(
        answer(),
        SpjNode {
            inputs: vec![QArc::new(NameRef::Derived("Nowhere".into()), "x")],
            pred: Expr::True,
            out_proj: vec![("who".into(), Expr::var("x"))],
        },
    );
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::UnknownName), "{report}");
}

#[test]
fn duplicate_variable_is_reported() {
    let (cat, _) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let mut g = QueryGraph::new(answer());
    g.add_spj(
        answer(),
        SpjNode {
            inputs: vec![
                QArc::new(NameRef::Class(composer), "x"),
                QArc::new(NameRef::Class(composer), "x"),
            ],
            pred: Expr::path("x", &["name"]).eq(Expr::text("Bach")),
            out_proj: vec![("who".into(), Expr::var("x"))],
        },
    );
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::DuplicateVariable), "{report}");
}

#[test]
fn bad_label_is_reported() {
    let (cat, _) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let mut g = QueryGraph::new(answer());
    g.add_spj(
        answer(),
        SpjNode {
            inputs: vec![QArc {
                name: NameRef::Class(composer),
                var: Some("x".into()),
                label: TreeLabel::leaf().attr_var("no_such_attribute", "n"),
            }],
            pred: Expr::var("n").eq(Expr::text("Bach")),
            out_proj: vec![("who".into(), Expr::var("x"))],
        },
    );
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::BadLabel), "{report}");
}

#[test]
fn an_element_step_on_an_atomic_attribute_is_reported() {
    let (cat, _) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let mut g = QueryGraph::new(answer());
    g.add_spj(
        answer(),
        SpjNode {
            inputs: vec![QArc {
                name: NameRef::Class(composer),
                var: Some("x".into()),
                // `name` is text: an element step cannot apply.
                label: TreeLabel {
                    children: vec![TreeChild {
                        attr: Some("name".into()),
                        var: None,
                        tree: TreeLabel {
                            children: vec![TreeChild {
                                attr: None,
                                var: Some("bad".into()),
                                tree: TreeLabel::leaf(),
                            }],
                        },
                    }],
                },
            }],
            pred: Expr::True,
            out_proj: vec![("a".into(), Expr::var("x"))],
        },
    );
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::BadLabel), "{report}");
}

#[test]
fn unsafe_recursion_without_base_case() {
    let (cat, _) = setup();
    let loop_name = NameRef::Derived("Loop".into());
    let mut g = QueryGraph::new(answer());
    // Loop consumes only itself: an empty fixpoint.
    g.add_spj(
        loop_name.clone(),
        SpjNode {
            inputs: vec![QArc::new(loop_name.clone(), "l")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::var("l"))],
        },
    );
    g.add_spj(
        answer(),
        SpjNode {
            inputs: vec![QArc::new(loop_name, "l")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::var("l"))],
        },
    );
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::UnsafeRecursion), "{report}");
}

#[test]
fn non_linear_recursion_is_flagged() {
    let (cat, _) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let anc = NameRef::Derived("Anc".into());
    let mut g = QueryGraph::new(answer());
    // Base case.
    g.add_spj(
        anc.clone(),
        SpjNode {
            inputs: vec![QArc::new(NameRef::Class(composer), "x")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::var("x"))],
        },
    );
    // Doubly recursive case: Anc ⋈ Anc.
    g.add_spj(
        anc.clone(),
        SpjNode {
            inputs: vec![QArc::new(anc.clone(), "a"), QArc::new(anc.clone(), "b")],
            pred: Expr::path("a", &["v"]).eq(Expr::path("b", &["v"])),
            out_proj: vec![("v".into(), Expr::path("a", &["v"]))],
        },
    );
    g.add_spj(
        answer(),
        SpjNode {
            inputs: vec![QArc::new(anc, "a")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::path("a", &["v"]))],
        },
    );
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::NonLinearRecursion), "{report}");
    assert_eq!(LintCode::NonLinearRecursion.severity(), Severity::Error);
    assert!(!report.is_clean());
}

#[test]
fn unreachable_node_is_flagged() {
    let (cat, _) = setup();
    let mut g = QueryGraph::new(answer());
    g.add_spj(answer(), simple_spj(&cat));
    g.add_spj(NameRef::Derived("Orphan".into()), simple_spj(&cat));
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::UnreachableNode), "{report}");
    assert!(
        report.is_clean(),
        "unreachability is a warning, not an error"
    );
}

#[test]
fn mutual_recursion_is_reported() {
    let (cat, _) = setup();
    let a = NameRef::Derived("A".into());
    let b = NameRef::Derived("B".into());
    let mut g = QueryGraph::new(answer());
    g.add_spj(
        a.clone(),
        SpjNode {
            inputs: vec![QArc::new(b.clone(), "x")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::var("x"))],
        },
    );
    g.add_spj(
        b.clone(),
        SpjNode {
            inputs: vec![QArc::new(a.clone(), "x")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::var("x"))],
        },
    );
    g.add_spj(
        answer(),
        SpjNode {
            inputs: vec![QArc::new(a, "x")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::var("x"))],
        },
    );
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::MutualRecursion), "{report}");
}

#[test]
fn cartesian_product_is_noted() {
    let (cat, _) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let instrument = cat.class_by_name("Instrument").unwrap();
    let mut g = QueryGraph::new(answer());
    g.add_spj(
        answer(),
        SpjNode {
            inputs: vec![
                QArc::new(NameRef::Class(composer), "x"),
                QArc::new(NameRef::Class(instrument), "y"),
            ],
            pred: Expr::path("x", &["name"]).eq(Expr::text("Bach")),
            out_proj: vec![
                ("who".into(), Expr::var("x")),
                ("what".into(), Expr::var("y")),
            ],
        },
    );
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::CartesianProduct), "{report}");
    assert!(report.is_clean(), "a product is legal, only noted");
}

// ---- plan pass ------------------------------------------------------

/// `select x from Composer` as a one-entity plan.
fn scan(cat: &Catalog, db: &Database) -> Pt {
    let composer = cat.class_by_name("Composer").unwrap();
    Pt::entity(db.physical().class_entity(composer).unwrap(), "x")
}

#[test]
fn clean_plan_verifies() {
    let (cat, db) = setup();
    let plan = Pt::proj(
        vec![("who".into(), Expr::var("x"))],
        Pt::sel(
            Expr::path("x", &["name"]).eq(Expr::text("Bach")),
            scan(&cat, &db),
        ),
    );
    let env = PtEnv::new(&cat, db.physical());
    let report = verify_pt(&env, &plan);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn fix_body_must_be_union() {
    let (cat, db) = setup();
    let plan = Pt::fix("T", scan(&cat, &db));
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::FixBodyNotUnion), "{report}");
}

#[test]
fn fix_without_recursive_leg() {
    let (cat, db) = setup();
    let leg = || Pt::proj(vec![("who".into(), Expr::var("x"))], scan(&cat, &db));
    let plan = Pt::fix("T", Pt::union(leg(), leg()));
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::FixNoRecursiveLeg), "{report}");
    assert_eq!(report.diagnostics.len(), 1, "reported once: {report}");
}

#[test]
fn fix_without_base_leg() {
    let (cat, db) = setup();
    let leg = || Pt::proj(vec![("who".into(), Expr::var("t.who"))], Pt::temp("T", "t"));
    let plan = Pt::fix("T", Pt::union(leg(), leg()));
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::FixNoBaseLeg), "{report}");
}

/// With a bare `i` and a qualified `i.master` column both in scope, a
/// path demands — and is typed from — the qualified one, as the
/// evaluator reads it: the bare column holds a composer, whose master
/// has no `title`.
#[test]
fn path_demands_the_qualified_column_when_both_exist() {
    let (cat, db) = setup();
    let composition = cat.class_by_name("Composition").unwrap();
    let titled = Expr::path("i", &["master", "title"]).eq(Expr::text("Kunst der Fuge"));
    let cols = ["i", "i.master"].map(String::from).into_iter().collect();
    let (used, unresolved) = crate::plan::expr_refs(&titled, &cols);
    assert_eq!(used.into_iter().collect::<Vec<_>>(), ["i.master"]);
    assert!(unresolved.is_empty());

    let Pt::Entity { id, .. } = scan(&cat, &db) else {
        unreachable!()
    };
    let plan = Pt::sel(
        titled,
        Pt::ej(
            Expr::True,
            Pt::entity(id, "i"),
            Pt::proj(
                vec![("i.master".into(), Expr::var("w"))],
                Pt::entity(db.physical().class_entity(composition).unwrap(), "w"),
            ),
        ),
    );
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn projection_dropping_consumed_column() {
    let (cat, db) = setup();
    // The selection consumes `who`, the projection below only keeps
    // `other`.
    let plan = Pt::sel(
        Expr::var("who").eq(Expr::text("Bach")),
        Pt::proj(
            vec![("other".into(), Expr::path("x", &["name"]))],
            scan(&cat, &db),
        ),
    );
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::ProjDropsNeeded), "{report}");
}

#[test]
fn union_shape_mismatch() {
    let (cat, db) = setup();
    let plan = Pt::union(
        Pt::proj(vec![("a".into(), Expr::var("x"))], scan(&cat, &db)),
        Pt::proj(vec![("b".into(), Expr::var("x"))], scan(&cat, &db)),
    );
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::UnionShapeMismatch), "{report}");
}

#[test]
fn ill_typed_predicate() {
    let (cat, db) = setup();
    let plan = Pt::sel(
        Expr::var("no_such_column").eq(Expr::int(1)),
        scan(&cat, &db),
    );
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::IllTypedPredicate), "{report}");
}

/// The graph pass refuses a conjunct that is no truth value — here the
/// query-text fuzz mutant whose bare `i` once reached a release plan as a
/// selection over a column no operator produces — and a relation arc's
/// row used as a value (compared or projected, over a recursive view or a
/// stored relation), which translation never binds; conditions, `null`,
/// their negations and a class arc's variable stay clean.
#[test]
fn a_conjunct_that_is_no_truth_value_is_refused_at_admission() {
    let (cat, _) = setup();
    let lint = |text: &str| {
        let mut q = parse_query(&cat, text).unwrap();
        q.normalize(&cat).unwrap();
        lint_graph(&cat, &q)
    };
    let fig3 = oorq_query::paper::fig3("harpsichord", 1);
    let view = oorq_query::paper::INFLUENCER_VIEW;
    let mutant = fig3.replace("i.gen >= 1", "i");
    assert!(mutant.ends_with("= \"harpsichord\" and i"), "{mutant}");
    let refused = [
        mutant,
        "select [n: x.name] from x in Composer where x.name".into(),
        "select [n: x.name] from x in Composer where x.birth_year + 1".into(),
        "select [n: x.name] from x in Composer where not (x.name = \"Bach\" or 7)".into(),
        "select [n: x.name] from x in Composer where x".into(),
        format!("{fig3} and i <> null"),
        format!("{fig3} and i = i"),
        format!("{fig3} and not (i = null)"),
        format!("{fig3} and (i.gen >= 1 or i = i)"),
        format!("{view}select [name: i.disciple.name] from i in Influencer where i <> null"),
        format!("{view}select [x: i] from i in Influencer"),
        "select [w: p.who.name] from p in Play where p <> null".into(),
    ];
    for text in &refused {
        let report = lint(text);
        assert!(report.has(LintCode::IllTypedPredicate), "{text}\n{report}");
        assert!(!report.is_clean(), "{text}");
    }
    let clean = [
        "select [n: x.name] from x in Composer where not (x.master = null or x.name = \"Bach\")",
        "select [n: c.name] from c in Composer where c = c",
    ];
    for text in clean {
        assert!(lint(text).is_clean(), "{}", lint(text));
    }
}

/// The alternatives of a name are the legs of one union: the graph pass
/// refuses two that produce different fields (a fuzz mutant that renamed
/// the recursive leg's `gen` once reached a release plan that way).
#[test]
fn alternatives_with_different_fields_are_refused_at_admission() {
    let (cat, _) = setup();
    let fig3 = oorq_query::paper::fig3("harpsichord", 1);
    let mutant = fig3.replacen("gen: i.gen + 1", "en: i.gen + 1", 1);
    assert_ne!(mutant, fig3);
    let mut q = parse_query(&cat, &mutant).unwrap();
    q.normalize(&cat).unwrap();
    let report = lint_graph(&cat, &q);
    assert!(report.has(LintCode::UnionShapeMismatch), "{report}");
    let mut q = parse_query(&cat, &fig3).unwrap();
    q.normalize(&cat).unwrap();
    assert!(lint_graph(&cat, &q).is_clean());
}

#[test]
fn undefined_temporary() {
    let (cat, db) = setup();
    let plan = Pt::proj(
        vec![("who".into(), Expr::var("t.who"))],
        Pt::temp("NeverDefined", "t"),
    );
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::UndefinedTemp), "{report}");
    // The same temporary in scope is fine.
    let env = PtEnv::new(&cat, db.physical()).with_temp(
        "NeverDefined",
        vec![(
            "who".into(),
            oorq_schema::ResolvedType::Object(cat.class_by_name("Composer").unwrap()),
        )],
    );
    assert!(verify_pt(&env, &plan).is_clean());
}

/// A fixpoint's temporary is in scope only in its recursive leg: a scan
/// of it after the fixpoint, beside it in a join, is undefined.
#[test]
fn a_temporary_scanned_after_its_fixpoint_is_undefined() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    assert!(verify_pt(&env, &influencer_fix(&cat, &db)).is_clean());
    let plan = Pt::ej(
        Expr::var("master").eq(Expr::var("i.master")),
        influencer_fix(&cat, &db),
        Pt::temp("R", "i"),
    );
    let report = verify_pt(&env, &plan);
    assert!(report.has(LintCode::UndefinedTemp), "{report}");
}

#[test]
fn bad_index_kind_for_probe() {
    let (cat, mut db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let (works, _) = cat.attr(composer, "works").unwrap();
    let composition = cat.class_by_name("Composition").unwrap();
    let (instruments, _) = cat.attr(composition, "instruments").unwrap();
    let pix = db.physical_mut().add_index(
        oorq_storage::IndexKindDesc::Path {
            path: vec![(composer, works), (composition, instruments)],
        },
        oorq_storage::IndexStats {
            nblevels: 2,
            nbleaves: 30,
        },
    );
    // A path index used as a selection probe.
    let plan = Pt::Sel {
        pred: Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        method: oorq_pt::AccessMethod::Index(pix),
        input: Box::new(scan(&cat, &db)),
    };
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::BadIndex), "{report}");
}

/// Figure 3's plan with the generator selection of its base leg as a
/// `Sel^idx` on `name`: `probe` makes it one that cannot probe.
fn fig3_plan(cat: &Catalog, db: &mut Database, probe: bool) -> Pt {
    let composer = cat.class_by_name("Composer").unwrap();
    let (name, _) = cat.attr(composer, "name").unwrap();
    let (master, _) = cat.attr(composer, "master").unwrap();
    let e = db.physical().class_entity(composer).unwrap();
    let six = db.physical_mut().add_index(
        oorq_storage::IndexKindDesc::Selection {
            class: composer,
            attr: name,
        },
        oorq_storage::IndexStats {
            nblevels: 2,
            nbleaves: 30,
        },
    );
    let ij = |on: Expr, out: &str, input: Pt, target: &str| Pt::IJ {
        on,
        step: IjStep::class_attr(cat, composer, master),
        out: out.into(),
        input: Box::new(input),
        target: Box::new(Pt::entity(e, target)),
    };
    // `name <> "Bach"` has no `name = literal` conjunct to probe with.
    let pred = Expr::path("x", &["name"]).ne(Expr::text("Bach"));
    let generator = match probe {
        true => Pt::Sel {
            pred,
            method: oorq_pt::AccessMethod::Index(six),
            input: Box::new(Pt::entity(e, "x")),
        },
        false => Pt::sel(pred, Pt::entity(e, "x")),
    };
    let base = Pt::proj(
        vec![
            ("master".into(), Expr::path("x", &["master"])),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::int(1)),
        ],
        generator,
    );
    let rec = Pt::proj(
        vec![
            ("master".into(), Expr::var("i.master")),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::var("i.gen").add(Expr::int(1))),
        ],
        Pt::ej(
            Expr::var("i.disciple").eq(Expr::var("m")),
            ij(Expr::path("x", &["master"]), "m", Pt::entity(e, "x"), "mc"),
            Pt::temp("Influencer", "i"),
        ),
    );
    let fix = Pt::fix("Influencer", Pt::union(base, rec));
    let answer = ij(Expr::var("disciple"), "d", fix, "dc");
    Pt::proj(vec![("name".into(), Expr::path("d", &["name"]))], answer)
}

/// A base leg that fails leaves its temporary without a shape: the one
/// real error is reported, not a `PT008` for every read of the
/// temporary in the recursive leg.
#[test]
fn a_failed_base_leg_is_its_one_diagnostic() {
    let (cat, mut db) = setup();
    let scanning = fig3_plan(&cat, &mut db, false);
    let probing = fig3_plan(&cat, &mut db, true);
    let env = PtEnv::new(&cat, db.physical());
    let report = verify_pt(&env, &scanning);
    assert!(report.diagnostics.is_empty(), "{report}");
    let report = verify_pt(&env, &probing);
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.code()).collect();
    assert_eq!(codes, ["PT005"], "{report}");
}

#[test]
fn bad_ij_on_expression() {
    let (cat, db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let (master, _) = cat.attr(composer, "master").unwrap();
    let plan = Pt::IJ {
        on: Expr::path("nobody", &["master"]),
        step: IjStep::class_attr(&cat, composer, master),
        out: "m".into(),
        input: Box::new(scan(&cat, &db)),
        target: Box::new(scan(&cat, &db)),
    };
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::BadIjStep), "{report}");
}

#[test]
fn report_renders_codes_and_severities() {
    let (cat, db) = setup();
    let plan = Pt::sel(Expr::var("ghost").eq(Expr::int(1)), scan(&cat, &db));
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    let text = report.render();
    assert!(text.contains("PT008"), "{text}");
    assert!(text.contains("error"), "{text}");
    // The code table is complete and stable.
    assert!(LintCode::all().len() >= 10);
    for code in LintCode::all() {
        assert!(!code.code().is_empty());
        assert!(!code.describe().is_empty());
    }
    let ids: std::collections::BTreeSet<&str> = LintCode::all().iter().map(|c| c.code()).collect();
    assert_eq!(
        ids.len(),
        LintCode::all().len(),
        "two codes share a short code"
    );
}

// ---- physical-plan pass ---------------------------------------------

/// A fixpoint of the Influencer shape over temporary `R`.
fn influencer_fix(cat: &Catalog, db: &Database) -> Pt {
    let composer = cat.class_by_name("Composer").unwrap();
    let e = db.physical().class_entity(composer).unwrap();
    let base = Pt::proj(
        vec![
            ("master".into(), Expr::path("x", &["master"])),
            ("disciple".into(), Expr::var("x")),
        ],
        Pt::entity(e, "x"),
    );
    let rec = Pt::proj(
        vec![
            ("master".into(), Expr::var("i.master")),
            ("disciple".into(), Expr::var("x")),
        ],
        Pt::ej(
            Expr::var("i.disciple").eq(Expr::path("x", &["master"])),
            Pt::temp("R", "i"),
            Pt::entity(e, "x"),
        ),
    );
    Pt::fix("R", Pt::union(base, rec))
}

/// [`influencer_fix`] lowered, for the phys pass.
fn lowered_fix(cat: &Catalog, db: &Database) -> oorq_pt::PhysPlan {
    let fix = influencer_fix(cat, db);
    oorq_pt::lower(&PtEnv::new(cat, db.physical()), &fix).expect("lowers")
}

#[test]
fn lowered_plans_verify_clean() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    let plan = lowered_fix(&cat, &db);
    let report = verify_phys(&env, &plan);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn phys_op_count_mismatch_is_reported() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    let mut plan = lowered_fix(&cat, &db);
    plan.ops += 1;
    let report = verify_phys(&env, &plan);
    assert!(report.has(LintCode::PhysOpIds), "{report}");
}

fn phys_meta(id: usize) -> oorq_pt::OpMeta {
    oorq_pt::OpMeta {
        id,
        pt_node: id,
        label: format!("op{id}"),
        replay: None,
    }
}

fn phys_scan(cat: &Catalog, db: &Database, id: usize, var: &str) -> oorq_pt::PhysOp {
    let composer = cat.class_by_name("Composer").unwrap();
    oorq_pt::PhysOp::EntityScan {
        meta: phys_meta(id),
        entity: db.physical().class_entity(composer).unwrap(),
        var: var.into(),
        class: Some(composer),
        cols: vec![var.into()],
    }
}

#[test]
fn phys_cols_mismatch_is_reported() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    // A filter claiming columns its input does not produce.
    let root = oorq_pt::PhysOp::Filter {
        meta: phys_meta(0),
        pred: Expr::True,
        input: Box::new(phys_scan(&cat, &db, 1, "x")),
        cols: vec!["y".into()],
    };
    let report = verify_phys(&env, &oorq_pt::PhysPlan { root, ops: 2 });
    assert!(report.has(LintCode::PhysColsMismatch), "{report}");
}

#[test]
fn phys_bad_union_permutation_is_reported() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    // Identity columns but a perm that maps both outputs to column 0.
    let root = oorq_pt::PhysOp::UnionAll {
        meta: phys_meta(0),
        perm: Some(vec![0, 0]),
        left: Box::new(oorq_pt::PhysOp::Project {
            meta: phys_meta(1),
            exprs: vec![("a".into(), Expr::var("x")), ("b".into(), Expr::var("x"))],
            input: Box::new(phys_scan(&cat, &db, 2, "x")),
            cols: vec!["a".into(), "b".into()],
        }),
        right: Box::new(oorq_pt::PhysOp::Project {
            meta: phys_meta(3),
            exprs: vec![("a".into(), Expr::var("x")), ("b".into(), Expr::var("x"))],
            input: Box::new(phys_scan(&cat, &db, 4, "x")),
            cols: vec!["a".into(), "b".into()],
        }),
        cols: vec!["a".into(), "b".into()],
    };
    let report = verify_phys(&env, &oorq_pt::PhysPlan { root, ops: 5 });
    assert!(report.has(LintCode::PhysBadPerm), "{report}");
}

#[test]
fn phys_undefined_temp_is_reported() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    let root = oorq_pt::PhysOp::TempScan {
        meta: phys_meta(0),
        name: "Ghost".into(),
        cols: vec!["g".into()],
    };
    let report = verify_phys(&env, &oorq_pt::PhysPlan { root, ops: 1 });
    assert!(report.has(LintCode::PhysUndefinedTemp), "{report}");
    // In the recursive leg of its fixpoint: clean.
    assert!(verify_phys(&env, &lowered_fix(&cat, &db)).is_clean());
}

/// A temporary is out of scope in its fixpoint's base leg: the
/// recursive leg's scan, swapped there, is reported.
#[test]
fn phys_temp_scan_in_a_base_leg_is_reported() {
    let (cat, db) = setup();
    let mut plan = lowered_fix(&cat, &db);
    let oorq_pt::PhysOp::FixPoint { base, rec, .. } = &mut plan.root else {
        panic!("a fixpoint at the root")
    };
    std::mem::swap(base, rec);
    let report = verify_phys(&PtEnv::new(&cat, db.physical()), &plan);
    assert_eq!(report.codes(), ["PX005"].into(), "{report}");
}

#[test]
fn phys_bad_rescan_is_reported() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    // rescan_inner over a join inner: the inner is a pipeline, not a
    // rescannable leaf.
    let inner = oorq_pt::PhysOp::NlJoin {
        meta: phys_meta(1),
        pred: Expr::True,
        rescan_inner: true,
        mat_types: Vec::new(),
        left: Box::new(phys_scan(&cat, &db, 2, "b")),
        right: Box::new(phys_scan(&cat, &db, 3, "c")),
        cols: vec!["b".into(), "c".into()],
    };
    let root = oorq_pt::PhysOp::NlJoin {
        meta: phys_meta(0),
        pred: Expr::True,
        rescan_inner: true,
        mat_types: Vec::new(),
        left: Box::new(phys_scan(&cat, &db, 4, "a")),
        right: Box::new(inner),
        cols: vec!["a".into(), "b".into(), "c".into()],
    };
    let report = verify_phys(&env, &oorq_pt::PhysPlan { root, ops: 5 });
    assert!(report.has(LintCode::PhysBadRescan), "{report}");
}

#[test]
fn phys_bad_entity_is_reported() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    let root = oorq_pt::PhysOp::EntityScan {
        meta: phys_meta(0),
        entity: oorq_storage::EntityId(999),
        var: "x".into(),
        class: None,
        cols: vec!["x".into()],
    };
    let report = verify_phys(&env, &oorq_pt::PhysPlan { root, ops: 1 });
    assert!(report.has(LintCode::PhysBadEntity), "{report}");
}

// ---- drift pass ---------------------------------------------------

fn node_cost(node: usize, label: &str, io: f64, cpu: f64, rows: f64) -> oorq_cost::NodeCost {
    oorq_cost::NodeCost {
        label: label.to_string(),
        kind: oorq_cost::OpKind::Sel,
        node: Some(node),
        cost: oorq_cost::Cost::new(io, cpu),
        rows,
        pages: 1.0,
        passes: None,
    }
}

fn observed(node: usize, label: &str, io: f64, cpu: f64, rows: f64) -> ObservedOp {
    ObservedOp {
        pt_node: node,
        label: label.to_string(),
        io,
        cpu,
        rows,
    }
}

#[test]
fn drift_clean_when_prediction_matches() {
    let breakdown = vec![node_cost(0, "scan a", 100.0, 50.0, 200.0)];
    let obs = vec![observed(0, "scan a", 110.0, 45.0, 200.0)];
    let report = lint_drift(&breakdown, &obs, DriftTolerance::default());
    assert!(report.diagnostics.is_empty(), "{report}");
}

#[test]
fn drift_io_and_cpu_fire_beyond_ratio() {
    let breakdown = vec![node_cost(0, "scan a", 1000.0, 500.0, 200.0)];
    let obs = vec![observed(0, "scan a", 40.0, 20.0, 200.0)];
    let report = lint_drift(&breakdown, &obs, DriftTolerance::default());
    assert!(report.has(LintCode::IoDrift), "{report}");
    assert!(report.has(LintCode::CpuDrift), "{report}");
    assert!(!report.has(LintCode::RowsDrift), "{report}");
}

#[test]
fn drift_rows_fires_on_cardinality_misestimate() {
    let breakdown = vec![node_cost(0, "Sel", 10.0, 10.0, 5000.0)];
    let obs = vec![observed(0, "Sel", 10.0, 10.0, 60.0)];
    let report = lint_drift(&breakdown, &obs, DriftTolerance::default());
    assert!(report.has(LintCode::RowsDrift), "{report}");
}

#[test]
fn drift_small_counts_never_fire() {
    // Both sides below the floor: 12 vs 1 page is noise, not drift.
    let breakdown = vec![node_cost(0, "Sel", 12.0, 3.0, 8.0)];
    let obs = vec![observed(0, "Sel", 1.0, 15.0, 1.0)];
    let report = lint_drift(&breakdown, &obs, DriftTolerance::default());
    assert!(report.diagnostics.is_empty(), "{report}");
}

#[test]
fn drift_unmatched_sides_reported() {
    let breakdown = vec![node_cost(0, "scan a", 100.0, 0.0, 10.0)];
    let obs = vec![observed(7, "IJ_parts", 50.0, 0.0, 10.0)];
    let report = lint_drift(&breakdown, &obs, DriftTolerance::default());
    let unmatched = report
        .diagnostics
        .iter()
        .filter(|d| d.code == LintCode::UnmatchedOperator)
        .count();
    assert_eq!(unmatched, 2, "{report}");
    // Notes, not errors: attribution gaps don't make the plan wrong.
    assert!(report.is_clean(), "{report}");
}

#[test]
fn drift_sums_repeated_observations_of_one_node() {
    // A fixpoint re-instantiates the rec-side scan; observations sum.
    let breakdown = vec![node_cost(3, "scan temp d", 90.0, 0.0, 30.0)];
    let obs = vec![
        observed(3, "scan temp d", 45.0, 0.0, 15.0),
        observed(3, "scan temp d", 45.0, 0.0, 15.0),
    ];
    let report = lint_drift(&breakdown, &obs, DriftTolerance::default());
    assert!(report.diagnostics.is_empty(), "{report}");
}

#[test]
fn unused_variable_is_noted() {
    let (cat, _) = setup();
    let mut spj = simple_spj(&cat);
    // `x` stays bound by the arc but nothing reads it any more.
    spj.out_proj = vec![("who".into(), Expr::var("n"))];
    let mut g = QueryGraph::new(answer());
    g.add_spj(answer(), spj);
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::UnusedVariable), "{report}");
    assert!(
        report.is_clean(),
        "an unused binding is advice, not an error"
    );
}

#[test]
fn dead_view_cycle_is_reported() {
    let (cat, _) = setup();
    // A and B feed only each other; the answer never consumes either.
    let a = NameRef::Derived("A".into());
    let b = NameRef::Derived("B".into());
    let mut g = QueryGraph::new(answer());
    g.add_spj(
        a.clone(),
        SpjNode {
            inputs: vec![QArc::new(b.clone(), "x")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::var("x"))],
        },
    );
    g.add_spj(
        b,
        SpjNode {
            inputs: vec![QArc::new(a, "x")],
            pred: Expr::True,
            out_proj: vec![("v".into(), Expr::var("x"))],
        },
    );
    g.add_spj(answer(), simple_spj(&cat));
    let report = lint_graph(&cat, &g);
    assert!(report.has(LintCode::DeadViewCycle), "{report}");
    assert!(
        !report.has(LintCode::MutualRecursion),
        "a dead cycle is not live mutual recursion: {report}"
    );
}

#[test]
fn duplicate_join_columns_are_reported() {
    let (cat, db) = setup();
    let leg = || {
        Pt::proj(
            vec![("who".into(), Expr::path("x", &["name"]))],
            scan(&cat, &db),
        )
    };
    let plan = Pt::ej(Expr::True, leg(), leg());
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::DuplicateColumn), "{report}");
}

#[test]
fn empty_projection_is_reported() {
    let (cat, db) = setup();
    let plan = Pt::proj(vec![], scan(&cat, &db));
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::EmptyProjection), "{report}");
}

#[test]
fn fixpoint_without_propagated_columns_is_noted() {
    let (cat, db) = setup();
    // Both legs recompute `who` from the joined entity; no temporary
    // column survives verbatim, so no selection can commute inside.
    let base = Pt::proj(
        vec![("who".into(), Expr::path("x", &["name"]))],
        scan(&cat, &db),
    );
    let rec = Pt::proj(
        vec![("who".into(), Expr::path("x", &["name"]))],
        Pt::ej(
            Expr::var("t.who").eq(Expr::path("x", &["name"])),
            Pt::temp("T", "t"),
            scan(&cat, &db),
        ),
    );
    let plan = Pt::fix("T", Pt::union(base, rec));
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(report.has(LintCode::NoPropagatedColumns), "{report}");
    // The same fixpoint propagating `who` verbatim is clean.
    let base = Pt::proj(
        vec![("who".into(), Expr::path("x", &["name"]))],
        scan(&cat, &db),
    );
    let rec = Pt::proj(
        vec![("who".into(), Expr::var("t.who"))],
        Pt::ej(
            Expr::var("t.who").eq(Expr::path("x", &["name"])),
            Pt::temp("T", "t"),
            scan(&cat, &db),
        ),
    );
    let plan = Pt::fix("T", Pt::union(base, rec));
    let report = verify_pt(&PtEnv::new(&cat, db.physical()), &plan);
    assert!(!report.has(LintCode::NoPropagatedColumns), "{report}");
}

// ---- physical-plan pass: index descriptors --------------------------

#[test]
fn phys_bad_index_is_reported() {
    let (cat, db) = setup();
    let env = PtEnv::new(&cat, db.physical());
    // A probe of an index that does not exist.
    let composer = cat.class_by_name("Composer").unwrap();
    let root = oorq_pt::PhysOp::IndexSelect {
        meta: phys_meta(0),
        index: oorq_storage::IndexId(999),
        class: composer,
        var: "x".into(),
        key: oorq_query::Literal::Text("Bach".into()),
        pred: Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        cols: vec!["x".into()],
    };
    let report = verify_phys(&env, &oorq_pt::PhysPlan { root, ops: 1 });
    assert!(report.has(LintCode::PhysBadIndex), "{report}");
}
