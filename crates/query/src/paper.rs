//! The paper's running example: the Figure 1 schema, the Figure 2 query,
//! the `Influencer` recursive view of §2.3, and the Figure 3 query.
//!
//! These constructions are shared by tests, examples and the benchmark
//! harness that regenerates the paper's figures.

use oorq_schema::{AttributeDef, Catalog, ClassDef, Field, RelationDef, SchemaBuilder, TypeExpr};

use crate::expr::Expr;
use crate::graph::{NameRef, QArc, QueryGraph, SpjNode, ViewRegistry};
use crate::label::TreeLabel;

/// Build the Figure 1 conceptual schema: `Person`, `Composer isa Person`,
/// `Composition`, `Instrument`, the `Play` relation, plus the
/// `Influencer` view declaration of §2.3.
pub fn music_catalog() -> Catalog {
    SchemaBuilder::new()
        .class(
            ClassDef::new("Person")
                .attr(AttributeDef::stored("name", TypeExpr::text()))
                .attr(AttributeDef::stored("birth_year", TypeExpr::int()))
                .attr(AttributeDef::computed("age", TypeExpr::int(), 2.0)),
        )
        .class(
            ClassDef::new("Composer")
                .isa("Person")
                .attr(AttributeDef::stored("master", TypeExpr::class("Composer")))
                .attr(AttributeDef::stored(
                    "works",
                    TypeExpr::set(TypeExpr::class("Composition")),
                )),
        )
        .class(
            ClassDef::new("Composition")
                .attr(AttributeDef::stored("title", TypeExpr::text()))
                .attr(
                    AttributeDef::stored("author", TypeExpr::class("Composer"))
                        .inverse_of("Composer", "works"),
                )
                .attr(AttributeDef::stored(
                    "instruments",
                    TypeExpr::set(TypeExpr::class("Instrument")),
                )),
        )
        .class(ClassDef::new("Instrument").attr(AttributeDef::stored("name", TypeExpr::text())))
        .relation(RelationDef::new(
            "Play",
            TypeExpr::Tuple(vec![
                Field::new("who", TypeExpr::class("Person")),
                Field::new("instrument", TypeExpr::class("Instrument")),
            ]),
        ))
        .view(RelationDef::new(
            "Influencer",
            TypeExpr::Tuple(vec![
                Field::new("master", TypeExpr::class("Composer")),
                Field::new("disciple", TypeExpr::class("Composer")),
                Field::new("gen", TypeExpr::int()),
            ]),
        ))
        .build()
        .expect("figure 1 schema must validate")
}

/// The Figure 2 query: *"the title of the works of Bach including a
/// harpsichord and a flute"*.
///
/// The tree label `tr1` is built exactly as the paper denotes it: the
/// composer's `name` binds `n`; one element of `works` (the same work)
/// binds `t` on its title and two independent `instruments` elements bind
/// `i1` and `i2` on their names.
pub fn fig2_query(catalog: &Catalog) -> QueryGraph {
    let composer = catalog.class_by_name("Composer").expect("music schema");
    // trComposition: {(title, {}, t), (instruments, {(NIL, {(name,{},i1)}, NIL),
    //                                                (NIL, {(name,{},i2)}, NIL)}, NIL)}
    let tr_composition = TreeLabel::leaf().attr_var("title", "t").attr_tree(
        "instruments",
        TreeLabel::leaf()
            .elem(TreeLabel::leaf().attr_var("name", "i1"))
            .elem(TreeLabel::leaf().attr_var("name", "i2")),
    );
    // tr1: {(name, {}, n), (works, {(NIL, trComposition, NIL)}, NIL)}
    let tr1 = TreeLabel::leaf()
        .attr_var("name", "n")
        .attr_tree("works", TreeLabel::leaf().elem(tr_composition));
    let mut q = QueryGraph::new(NameRef::Derived("Answer".into()));
    q.add_spj(
        NameRef::Derived("Answer".into()),
        SpjNode {
            inputs: vec![QArc {
                name: NameRef::Class(composer),
                var: None,
                label: tr1,
            }],
            pred: Expr::var("n")
                .eq(Expr::text("Bach"))
                .and(Expr::var("i1").eq(Expr::text("harpsichord")))
                .and(Expr::var("i2").eq(Expr::text("flute"))),
            out_proj: vec![("title".into(), Expr::var("t"))],
        },
    );
    q
}

/// Register the §2.3 `Influencer` view:
///
/// ```text
/// relation Influencer
///   includes (select [master: x.master, disciple: x, gen: 1]
///             from x in Composer)
///   union    (select [master: i.master, disciple: x, gen: add1gen(i.gen)]
///             from i in Influencer, x in Composer
///             where i.disciple = x.master)
/// ```
pub fn influencer_view(catalog: &Catalog) -> ViewRegistry {
    let composer = catalog.class_by_name("Composer").expect("music schema");
    let influencer = catalog
        .relation_by_name("Influencer")
        .expect("music schema");
    // P1: base case.
    let p1 = SpjNode {
        inputs: vec![QArc::new(NameRef::Class(composer), "x")],
        pred: Expr::path("x", &["master"]).ne(Expr::Lit(crate::expr::Literal::Null)),
        out_proj: vec![
            ("master".into(), Expr::path("x", &["master"])),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::int(1)),
        ],
    };
    // P2: recursive case.
    let p2 = SpjNode {
        inputs: vec![
            QArc::new(NameRef::Relation(influencer), "i"),
            QArc::new(NameRef::Class(composer), "x"),
        ],
        pred: Expr::path("i", &["disciple"]).eq(Expr::path("x", &["master"])),
        out_proj: vec![
            ("master".into(), Expr::path("i", &["master"])),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::path("i", &["gen"]).add(Expr::int(1))),
        ],
    };
    let mut reg = ViewRegistry::new();
    reg.define(influencer, vec![p1, p2]);
    reg
}

/// The Figure 3 query: *"the names of the composers influenced by
/// composers for harpsichord that lived 6 generations before"* — P3 over
/// the `Influencer` view, with the selection on the master's instruments
/// (the path `master.works.instruments.name`), the selection `gen >= 6`,
/// and the projection on the disciple's name.
pub fn fig3_query(catalog: &Catalog) -> QueryGraph {
    fig3_query_gen(catalog, 6)
}

/// [`fig3_query`] with a custom generation bound `gen >= min_gen` (so
/// tiny databases can have non-empty answers).
pub fn fig3_query_gen(catalog: &Catalog, min_gen: i64) -> QueryGraph {
    let influencer = catalog
        .relation_by_name("Influencer")
        .expect("music schema");
    let mut q = QueryGraph::new(NameRef::Derived("Answer".into()));
    q.add_spj(
        NameRef::Derived("Answer".into()),
        SpjNode {
            inputs: vec![QArc::new(NameRef::Relation(influencer), "i")],
            pred: Expr::path("i", &["master", "works", "instruments", "name"])
                .eq(Expr::text("harpsichord"))
                .and(Expr::path("i", &["gen"]).ge(Expr::int(min_gen))),
            out_proj: vec![("name".into(), Expr::path("i", &["disciple", "name"]))],
        },
    );
    q
}

/// The §4.5 push-join query: *"the composers that were influenced by the
/// masters of Bach"* — a very selective explicit join
/// `Influencer.master = Composer.master and Composer.name = "Bach"`.
pub fn sec45_pushjoin_query(catalog: &Catalog) -> QueryGraph {
    let influencer = catalog
        .relation_by_name("Influencer")
        .expect("music schema");
    let composer = catalog.class_by_name("Composer").expect("music schema");
    let mut q = QueryGraph::new(NameRef::Derived("Answer".into()));
    q.add_spj(
        NameRef::Derived("Answer".into()),
        SpjNode {
            inputs: vec![
                QArc::new(NameRef::Relation(influencer), "i"),
                QArc::new(NameRef::Class(composer), "c"),
            ],
            pred: Expr::path("i", &["master"])
                .eq(Expr::path("c", &["master"]))
                .and(Expr::path("c", &["name"]).eq(Expr::text("Bach"))),
            out_proj: vec![("name".into(), Expr::path("i", &["disciple", "name"]))],
        },
    );
    q
}
