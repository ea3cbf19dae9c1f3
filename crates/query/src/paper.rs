//! The paper's running example: the Figure 1 schema, the Figure 2 query,
//! the `Influencer` recursive view of §2.3, and the Figure 3 query.
//!
//! The queries are OQL text, read by [`parse_query`] as the server reads
//! a request: [`INFLUENCER_VIEW`] and [`fig3`] are the texts, and each
//! `*_query` constructor returns its text parsed, views expanded. Tests,
//! examples and the figures of `reproduce` share them.
//!
//! Figure 2 alone is built by hand. Its point is its tree label: two
//! independent `instruments` elements of one work, bound to `i1` and
//! `i2`. A `from` clause binds only classes and relations, so no text
//! states that label.

use oorq_schema::{AttributeDef, Catalog, ClassDef, Field, RelationDef, SchemaBuilder, TypeExpr};

use crate::expr::Expr;
use crate::graph::{NameRef, QArc, QueryGraph, SpjNode};
use crate::label::TreeLabel;
use crate::parse::parse_query;

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

/// The §2.3 `Influencer` view as OQL text, prepended to every query
/// over it: the base case P1 and the recursive case P2, whose `gen:
/// add1gen(i.gen)` is written `i.gen + 1`.
pub const INFLUENCER_VIEW: &str = "view Influencer as
  select [master: x.master, disciple: x, gen: 1]
  from x in Composer
  where x.master <> null
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer
  where i.disciple = x.master;
";

/// The Figure 3 program as OQL text: P3 over the [`INFLUENCER_VIEW`],
/// selecting the composers whose master's works include `instrument`,
/// `gen >= min_gen` generations down.
pub fn fig3(instrument: &str, min_gen: i64) -> String {
    format!(
        "{INFLUENCER_VIEW}select [name: i.disciple.name]
from i in Influencer
where i.master.works.instruments.name = \"{instrument}\" and i.gen >= {min_gen}"
    )
}

/// The Figure 3 query: *"the names of the composers influenced by
/// composers for harpsichord that lived 6 generations before"* — P3 over
/// the `Influencer` view, with the selection on the master's instruments
/// (the path `master.works.instruments.name`), the selection `gen >= 6`,
/// and the projection on the disciple's name. The view is expanded.
pub fn fig3_query(catalog: &Catalog) -> QueryGraph {
    fig3_query_gen(catalog, 6)
}

/// [`fig3_query`] with a custom generation bound `gen >= min_gen` (so
/// tiny databases can have non-empty answers).
pub fn fig3_query_gen(catalog: &Catalog, min_gen: i64) -> QueryGraph {
    parsed(catalog, &fig3("harpsichord", min_gen))
}

/// The §4.5 push-join query: *"the composers that were influenced by the
/// masters of Bach"* — a very selective explicit join
/// `Influencer.master = Composer.master and Composer.name = "Bach"`. The
/// view is expanded.
pub fn sec45_pushjoin_query(catalog: &Catalog) -> QueryGraph {
    let text = format!(
        "{INFLUENCER_VIEW}select [name: i.disciple.name]
from i in Influencer, c in Composer
where i.master = c.master and c.name = \"Bach\""
    );
    parsed(catalog, &text)
}

fn parsed(catalog: &Catalog, text: &str) -> QueryGraph {
    parse_query(catalog, text).expect("the paper's queries parse over the music schema")
}
