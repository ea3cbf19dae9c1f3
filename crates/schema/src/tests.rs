//! Unit tests for the conceptual schema (Figure 1 of the paper).

use crate::*;

/// Build the paper's Figure 1 schema: Person, Composer isa Person,
/// Composition, Instrument, and the Play relation, plus the Influencer
/// view declaration of §2.3.
pub(crate) fn music_catalog() -> Catalog {
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

#[test]
fn figure1_schema_builds() {
    let cat = music_catalog();
    assert_eq!(cat.classes().len(), 4);
    assert_eq!(cat.relations().len(), 2);
}

#[test]
fn inheritance_flattens_attributes() {
    let cat = music_catalog();
    let composer = cat.class_by_name("Composer").unwrap();
    let names: Vec<_> = cat
        .class(composer)
        .attrs
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    // Inherited (Person) attributes first, then own.
    assert_eq!(names, ["name", "birth_year", "age", "master", "works"]);
    let person = cat.class_by_name("Person").unwrap();
    assert!(cat.is_subclass_of(composer, person));
    assert!(!cat.is_subclass_of(person, composer));
}

#[test]
fn computed_attribute_carries_cost() {
    let cat = music_catalog();
    let composer = cat.class_by_name("Composer").unwrap();
    let (_, age) = cat.attr(composer, "age").unwrap();
    assert_eq!(age.kind, AttributeKind::Computed { eval_cost: 2.0 });
    let person = cat.class_by_name("Person").unwrap();
    assert_eq!(age.declared_in, person);
}

#[test]
fn inverse_pair_is_wired_both_ways() {
    let cat = music_catalog();
    let composer = cat.class_by_name("Composer").unwrap();
    let composition = cat.class_by_name("Composition").unwrap();
    let (works_id, works) = cat.attr(composer, "works").unwrap();
    let (author_id, author) = cat.attr(composition, "author").unwrap();
    assert_eq!(works.inverse, Some((composition, author_id)));
    assert_eq!(author.inverse, Some((composer, works_id)));
}

#[test]
fn referenced_class_sees_through_collections() {
    let cat = music_catalog();
    let composer = cat.class_by_name("Composer").unwrap();
    let composition = cat.class_by_name("Composition").unwrap();
    let (_, works) = cat.attr(composer, "works").unwrap();
    assert_eq!(works.ty.referenced_class(), Some(composition));
    assert!(works.ty.is_collection());
    let (_, master) = cat.attr(composer, "master").unwrap();
    assert_eq!(master.ty.referenced_class(), Some(composer));
    assert!(!master.ty.is_collection());
}

#[test]
fn view_kind_is_recorded() {
    let cat = music_catalog();
    let play = cat.relation_by_name("Play").unwrap();
    let inf = cat.relation_by_name("Influencer").unwrap();
    assert_eq!(cat.relation(play).kind, ViewKind::Stored);
    assert_eq!(cat.relation(inf).kind, ViewKind::View);
}

#[test]
fn duplicate_class_name_rejected() {
    let err = SchemaBuilder::new()
        .class(ClassDef::new("A"))
        .class(ClassDef::new("A"))
        .build()
        .unwrap_err();
    assert_eq!(err, SchemaError::DuplicateName("A".into()));
}

#[test]
fn class_relation_name_clash_rejected() {
    let err = SchemaBuilder::new()
        .class(ClassDef::new("A"))
        .relation(RelationDef::new("A", TypeExpr::Tuple(vec![])))
        .build()
        .unwrap_err();
    assert_eq!(err, SchemaError::DuplicateName("A".into()));
}

#[test]
fn inheritance_cycle_rejected() {
    let err = SchemaBuilder::new()
        .class(ClassDef::new("A").isa("B"))
        .class(ClassDef::new("B").isa("A"))
        .build()
        .unwrap_err();
    assert!(matches!(err, SchemaError::InheritanceCycle(_)));
}

#[test]
fn unknown_superclass_rejected() {
    let err = SchemaBuilder::new()
        .class(ClassDef::new("A").isa("Nope"))
        .build()
        .unwrap_err();
    assert!(matches!(err, SchemaError::UnknownSuperclass { .. }));
}

#[test]
fn unknown_class_in_attribute_rejected() {
    let err = SchemaBuilder::new()
        .class(ClassDef::new("A").attr(AttributeDef::stored("x", TypeExpr::class("Nope"))))
        .build()
        .unwrap_err();
    assert!(matches!(err, SchemaError::UnknownClass { .. }));
}

#[test]
fn shadowing_inherited_attribute_rejected() {
    let err = SchemaBuilder::new()
        .class(ClassDef::new("A").attr(AttributeDef::stored("x", TypeExpr::int())))
        .class(
            ClassDef::new("B")
                .isa("A")
                .attr(AttributeDef::stored("x", TypeExpr::int())),
        )
        .build()
        .unwrap_err();
    assert!(matches!(err, SchemaError::DuplicateAttribute { .. }));
}

#[test]
fn relation_must_be_tuple() {
    let err = SchemaBuilder::new()
        .relation(RelationDef::new("R", TypeExpr::int()))
        .build()
        .unwrap_err();
    assert_eq!(err, SchemaError::RelationNotTuple("R".into()));
}

#[test]
fn bad_inverse_rejected() {
    let err = SchemaBuilder::new()
        .class(
            ClassDef::new("A")
                .attr(AttributeDef::stored("x", TypeExpr::class("A")).inverse_of("A", "missing")),
        )
        .build()
        .unwrap_err();
    assert!(matches!(err, SchemaError::BadInverse { .. }));
}

#[test]
fn inverse_type_mismatch_rejected() {
    // A.x : A declared inverse of A.y : int — y references no class.
    let err = SchemaBuilder::new()
        .class(
            ClassDef::new("A")
                .attr(AttributeDef::stored("x", TypeExpr::class("A")).inverse_of("A", "y"))
                .attr(AttributeDef::stored("y", TypeExpr::int())),
        )
        .build()
        .unwrap_err();
    assert!(matches!(err, SchemaError::InverseTypeMismatch { .. }));
}

#[test]
fn type_display_matches_paper_notation() {
    let t = TypeExpr::Tuple(vec![
        Field::new("title", TypeExpr::text()),
        Field::new("instruments", TypeExpr::set(TypeExpr::class("Instrument"))),
        Field::new("movements", TypeExpr::list(TypeExpr::int())),
    ]);
    assert_eq!(
        t.to_string(),
        "[title: string, instruments: {Instrument}, movements: <int>]"
    );
}

#[test]
fn subclasses_of_includes_self_and_descendants() {
    let cat = music_catalog();
    let person = cat.class_by_name("Person").unwrap();
    let composer = cat.class_by_name("Composer").unwrap();
    let subs = cat.subclasses_of(person);
    assert!(subs.contains(&person) && subs.contains(&composer));
    assert_eq!(cat.subclasses_of(composer), vec![composer]);
}

#[test]
fn error_display_is_informative() {
    let e = SchemaError::UnknownSuperclass {
        class: "B".into(),
        superclass: "A".into(),
    };
    assert!(e.to_string().contains("unknown superclass"));
    let e = SchemaError::NotFound("X".into());
    assert!(e.to_string().contains("X"));
}
