//! PT construction, display, typing and lowering tests.

use std::sync::Arc;

use oorq_query::paper::music_catalog;
use oorq_query::Expr;
use oorq_schema::{Catalog, ResolvedType};
use oorq_storage::{Database, StorageConfig};

use crate::*;

/// A database over the Figure 1 schema (no data needed for these tests —
/// only the physical schema matters).
fn setup() -> (Arc<Catalog>, Database) {
    let cat = Arc::new(music_catalog());
    let db = Database::new(Arc::clone(&cat), StorageConfig::default());
    (cat, db)
}

#[test]
fn display_matches_paper_notation() {
    let (cat, mut db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let influencer_fields = vec![
        ("master".to_string(), ResolvedType::Object(composer)),
        ("disciple".to_string(), ResolvedType::Object(composer)),
        (
            "gen".to_string(),
            ResolvedType::Atomic(oorq_schema::AtomicType::Int),
        ),
    ];
    let (composer_e, composition_e, instrument_e, pix) = {
        let composition = cat.class_by_name("Composition").unwrap();
        let (works, _) = cat.attr(composer, "works").unwrap();
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
        (
            db.physical().class_entity(composer).unwrap(),
            db.physical().class_entity(composition).unwrap(),
            db.physical()
                .class_entity(cat.class_by_name("Instrument").unwrap())
                .unwrap(),
            pix,
        )
    };
    let (master, _) = cat.attr(composer, "master").unwrap();
    let ij = Pt::IJ {
        on: Expr::path("i", &["master"]),
        step: IjStep::class_attr(&cat, composer, master),
        out: "m".into(),
        input: Box::new(Pt::temp("Influencer", "i")),
        target: Box::new(Pt::entity(composer_e, "mc")),
    };
    let pij = Pt::PIJ {
        index: pix,
        on: Expr::var("m"),
        outs: vec!["w".into(), "ins".into()],
        input: Box::new(ij),
        targets: vec![
            Pt::entity(composition_e, "wc"),
            Pt::entity(instrument_e, "ic"),
        ],
    };
    let sel = Pt::sel(
        Expr::path("ins", &["name"]).eq(Expr::text("harpsichord")),
        pij,
    );
    let env = PtEnv::new(&cat, db.physical());
    assert_eq!(
        sel.display(&env).to_string(),
        "Sel_{ins.name=\"harpsichord\"}(PIJ_works.instruments(IJ_master(Influencer, \
         Composer), Composition, Instrument))"
    );
    // Output columns, with the temporary open as in its fixpoint's
    // recursive leg: Influencer fields + m + w + ins.
    let open = Some(("Influencer", &influencer_fields));
    let mut plan = resolve(&cat, db.physical(), open, &sel).unwrap();
    let cols = plan.swap_remove(0).cols;
    let names: Vec<&str> = cols.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["i.master", "i.disciple", "i.gen", "m", "w", "ins"]);
}

#[test]
fn tree_navigation_and_replacement() {
    let (cat, db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let e = db.physical().class_entity(composer).unwrap();
    let pt = Pt::sel(
        Expr::var("x").eq(Expr::int(1)),
        Pt::union(Pt::entity(e, "a"), Pt::entity(e, "b")),
    );
    assert_eq!(pt.size(), 4);
    assert!(matches!(pt.at_path(&[0, 1]), Some(Pt::Entity { .. })));
    assert!(pt.at_path(&[0, 2]).is_none());
    let mut pt2 = pt.clone();
    let old = pt2.replace_at(&[0, 1], Pt::temp("T", "t")).unwrap();
    assert!(matches!(old, Pt::Entity { .. }));
    assert!(pt2.references_temp("T"));
    assert!(!pt.references_temp("T"));
    assert!(matches!(
        pt2.replace_at(&[5], Pt::temp("X", "x")),
        Err(PtError::BadPath { .. })
    ));
}

#[test]
fn fix_output_columns_come_from_base_side() {
    let (cat, db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let e = db.physical().class_entity(composer).unwrap();
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
    let fix = Pt::fix("Influencer", Pt::union(base, rec));
    let cols = fix
        .output_columns(&PtEnv::new(&cat, db.physical()))
        .unwrap();
    let names: Vec<&str> = cols.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["master", "disciple", "gen"]);
    assert!(matches!(cols[2].1, ResolvedType::Atomic(_)));
}

// ---- lowering to physical plans -------------------------------------

/// Register a selection index on `Composer.name` in the physical schema.
fn name_index(cat: &Catalog, db: &mut Database) -> oorq_storage::IndexId {
    let composer = cat.class_by_name("Composer").unwrap();
    let (name, _) = cat.attr(composer, "name").unwrap();
    db.physical_mut().add_index(
        oorq_storage::IndexKindDesc::Selection {
            class: composer,
            attr: name,
        },
        oorq_storage::IndexStats {
            nblevels: 2,
            nbleaves: 10,
        },
    )
}

/// One row per `Pt` kind: the operator `node_op` resolves, its label,
/// and which children it absorbs — checked against what lowering
/// actually builds.
#[test]
fn node_op_resolves_every_pt_kind() {
    let (cat, mut db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let composition = cat.class_by_name("Composition").unwrap();
    let sid = name_index(&cat, &mut db);
    let (master, _) = cat.attr(composer, "master").unwrap();
    let (works, _) = cat.attr(composer, "works").unwrap();
    let pid = db.physical_mut().add_index(
        oorq_storage::IndexKindDesc::Path {
            path: vec![(composer, works)],
        },
        oorq_storage::IndexStats {
            nblevels: 2,
            nbleaves: 10,
        },
    );
    let e = db.physical().class_entity(composer).unwrap();
    let we = db.physical().class_entity(composition).unwrap();
    let obj = ResolvedType::Object(composer);
    let r_cols = vec![("master".into(), obj.clone()), ("disciple".into(), obj)];
    let env = PtEnv::new(&cat, db.physical());
    let scan = |v: &str| Pt::entity(e, v);
    let is_bach = Expr::path("x", &["name"]).eq(Expr::text("Bach"));
    let not_bach = Expr::path("x", &["name"]).ne(Expr::text("Bach"));
    let same_name = Expr::path("l", &["name"]).eq(Expr::path("x", &["name"]));
    let sel_idx = |pred: &Expr| Pt::Sel {
        pred: pred.clone(),
        method: AccessMethod::Index(sid),
        input: Box::new(scan("x")),
    };
    let pairs = |input: Pt| {
        Pt::proj(
            vec![
                ("master".into(), Expr::path("x", &["master"])),
                ("disciple".into(), Expr::var("x")),
            ],
            input,
        )
    };
    let base = pairs(scan("x"));
    let rec = pairs(Pt::ej(
        Expr::var("i.disciple").eq(Expr::path("x", &["master"])),
        Pt::temp("R", "i"),
        scan("x"),
    ));
    let ij = Pt::IJ {
        on: Expr::path("x", &["master"]),
        step: IjStep::class_attr(&cat, composer, master),
        out: "m".into(),
        input: Box::new(scan("x")),
        target: Box::new(scan("t")),
    };
    let pij = Pt::PIJ {
        index: pid,
        on: Expr::var("x"),
        outs: vec!["w".into()],
        input: Box::new(scan("x")),
        targets: vec![Pt::entity(we, "t")],
    };
    let nl = Pt::ej(same_name.clone(), scan("l"), scan("x"));
    let union = Pt::union(scan("x"), scan("x"));
    let fix_rec_right = Pt::fix("R", Pt::union(base.clone(), rec.clone()));
    let fix_rec_left = Pt::fix("R", Pt::union(rec.clone(), base.clone()));
    // (plan, kind, label, absorbed children)
    let rows = [
        (scan("x"), OpKind::Scan, "scan Composer", 0),
        (Pt::temp("R", "i"), OpKind::TempScan, "scan temp R", 0),
        (
            Pt::sel(is_bach.clone(), scan("x")),
            OpKind::Sel,
            "Sel[x.name=\"Bach\"]",
            0,
        ),
        (
            sel_idx(&is_bach),
            OpKind::SelIdx,
            "Sel^idx[x.name=\"Bach\"]",
            1,
        ),
        (base.clone(), OpKind::Proj, "Proj", 0),
        (ij, OpKind::Ij, "IJ_master", 1),
        (pij, OpKind::Pij, "PIJ_works", 1),
        (nl, OpKind::Ej, "EJ[l.name=x.name]", 0),
        (union, OpKind::Union, "Union", 0),
        (fix_rec_right, OpKind::Fix, "Fix(R)", 1),
        (fix_rec_left, OpKind::Fix, "Fix(R)", 1),
    ];
    for (pt, kind, label, absorbed) in &rows {
        let op = node_op(&cat, db.physical(), pt).unwrap();
        assert_eq!(op.kind(), *kind, "{label}");
        assert_eq!(op.label(&cat, db.physical()), *label);
        if let NodeOp::FixPoint {
            base: b, rec: r, ..
        } = &op
        {
            assert_eq!((*b, *r), (&base, &rec), "legs found on either side");
        }
        // The same resolution with operands named by pre-order id: the
        // operands that execute are the lowered operator's children — for
        // a fixpoint the two legs of its absorbed body, base first — and
        // a child that is absorbed lowers to nothing.
        // With `R` open, as in a recursive leg planned apart from its
        // fixpoint; a fixpoint of `R` scopes its own.
        let resolved = resolve(&cat, db.physical(), Some(("R", &r_cols)), pt).unwrap();
        let executed = match &resolved[0].op {
            NodeOp::Filter { input, .. }
            | NodeOp::Project { input, .. }
            | NodeOp::IjDeref { input, .. }
            | NodeOp::PijLookup { input, .. } => vec![*input],
            NodeOp::NlJoin { left, right, .. } | NodeOp::UnionAll { left, right } => {
                vec![*left, *right]
            }
            NodeOp::FixPoint { base, rec, .. } => vec![*base, *rec],
            _ => vec![],
        };
        if *kind == OpKind::TempScan {
            // Outside its fixpoint a temporary lowers to nothing.
            let unknown = PtError::UnknownTemp("R".into());
            assert_eq!(lower(&env, pt).err(), Some(unknown), "{label}");
            continue;
        }
        let plan = lower(&env, pt).unwrap();
        assert_eq!(plan.root.meta().label, *label);
        let lowered: Vec<usize> = plan
            .root
            .children()
            .iter()
            .map(|c| c.meta().pt_node)
            .collect();
        assert_eq!(lowered, executed, "{label}: executed operands");
        let order = pt.preorder();
        let kids = order.kids(0).filter(|k| !executed.contains(k));
        assert_eq!(kids.count(), *absorbed, "{label}: absorbed children");
        // What lowering copies out of the resolution: the probe's key.
        match &plan.root {
            PhysOp::IndexSelect { index, key, .. } => {
                assert_eq!(*index, sid);
                assert_eq!(*key, oorq_query::Literal::Text("Bach".into()));
            }
            PhysOp::NlJoin { rescan_inner, .. } => {
                assert!(*rescan_inner, "entity inner is honestly rescannable");
            }
            _ => {}
        }
        assert_eq!(rescannable(pt), plan.root.rescannable(), "{label}");
    }

    // An index selection is a probe or nothing: one its predicate cannot
    // key fails to resolve and to lower.
    let unprobeable = sel_idx(&not_bach);
    let why = "no `var.attr = literal` conjunct on the indexed attribute";
    let err = PtError::NoProbe { index: sid, why };
    assert_eq!(
        node_op(&cat, db.physical(), &unprobeable).err(),
        Some(err.clone())
    );
    assert_eq!(lower(&env, &unprobeable).err(), Some(err));

    // The one error for a malformed fixpoint, whoever asks.
    let not_union = Pt::fix("R", base.clone());
    let no_rec = Pt::fix("R", Pt::union(base.clone(), base.clone()));
    for (pt, err) in [
        (&not_union, PtError::FixBodyNotUnion),
        (&no_rec, PtError::FixNotRecursive("R".into())),
    ] {
        assert_eq!(node_op(&cat, db.physical(), pt).err(), Some(err.clone()));
        assert_eq!(pt.fix_sides().err(), Some(err.clone()));
        assert_eq!(lower(&env, pt).err(), Some(err.clone()));
        assert_eq!(pt.output_columns(&env).err(), Some(err));
        assert!(fix_recursive_nodes(pt).is_empty());
    }
    // Pre-order: Fix=0, Union=1, base Proj=2, Entity=3, rec Proj=4, EJ=5,
    // Temp=6, Entity=7 — the Fix node plus its whole recursive leg.
    let fix = Pt::fix("R", Pt::union(base, rec));
    let mut inside: Vec<usize> = fix_recursive_nodes(&fix).into_iter().collect();
    inside.sort_unstable();
    assert_eq!(inside, vec![0, 4, 5, 6, 7]);
}

#[test]
fn lowering_shares_preorder_node_numbering() {
    let (cat, db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let e = db.physical().class_entity(composer).unwrap();
    let env = PtEnv::new(&cat, db.physical());
    let pt = Pt::sel(
        Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        Pt::union(Pt::entity(e, "x"), Pt::entity(e, "x")),
    );
    let ids = node_ids(&pt);
    assert_eq!(ids.len(), 4, "one id per PT node");
    let plan = lower(&env, &pt).unwrap();
    assert_eq!(plan.ops, 4, "one operator per node here");
    // Pre-order: Sel=0, Union=1, left Entity=2, right Entity=3 — and the
    // lowered operators carry exactly those indices.
    let mut seen = Vec::new();
    plan.root.visit(&mut |op| seen.push(op.meta().pt_node));
    assert_eq!(seen, vec![0, 1, 2, 3]);
    // Operator ids are dense and unique.
    let mut op_ids = Vec::new();
    plan.root.visit(&mut |op| op_ids.push(op.meta().id));
    op_ids.sort_unstable();
    assert_eq!(op_ids, vec![0, 1, 2, 3]);
}

#[test]
fn lowering_fix_aligns_recursive_columns() {
    let (cat, db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let e = db.physical().class_entity(composer).unwrap();
    let env = PtEnv::new(&cat, db.physical());
    let base = Pt::proj(
        vec![
            ("master".into(), Expr::path("x", &["master"])),
            ("disciple".into(), Expr::var("x")),
        ],
        Pt::entity(e, "x"),
    );
    // The recursive side emits the same columns in swapped order.
    let rec = Pt::proj(
        vec![
            ("disciple".into(), Expr::var("x")),
            ("master".into(), Expr::var("i.master")),
        ],
        Pt::ej(
            Expr::var("i.disciple").eq(Expr::path("x", &["master"])),
            Pt::temp("R", "i"),
            Pt::entity(e, "x"),
        ),
    );
    let fix = Pt::fix("R", Pt::union(base, rec));
    let plan = lower(&env, &fix).unwrap();
    match &plan.root {
        PhysOp::FixPoint { perm, cols, .. } => {
            assert_eq!(cols, &["master".to_string(), "disciple".to_string()]);
            assert_eq!(
                perm,
                &Some(vec![1, 0]),
                "rec columns permuted into base order"
            );
        }
        other => panic!("expected FixPoint, got {other:?}"),
    }

    // A union whose sides bind different columns fails the lowering.
    let l = Pt::proj(vec![("a".into(), Expr::var("x"))], Pt::entity(e, "x"));
    let r = Pt::proj(vec![("b".into(), Expr::var("x"))], Pt::entity(e, "x"));
    assert!(matches!(
        lower(&env, &Pt::union(l, r)),
        Err(PtError::UnionShapeMismatch)
    ));
}

#[test]
fn column_expr_typing_handles_qualified_names() {
    let (cat, _db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let cols: std::collections::HashMap<String, ResolvedType> = [
        ("i.disciple".to_string(), ResolvedType::Object(composer)),
        (
            "i.gen".to_string(),
            ResolvedType::Atomic(oorq_schema::AtomicType::Int),
        ),
    ]
    .into_iter()
    .collect();
    // `i.disciple.name` resolves through the qualified column.
    let t = type_of_column_expr(&cat, &Expr::path("i", &["disciple", "name"]), &cols).unwrap();
    assert_eq!(t, ResolvedType::Atomic(oorq_schema::AtomicType::Text));
    let t = type_of_column_expr(&cat, &Expr::path("i", &["gen"]), &cols).unwrap();
    assert_eq!(t, ResolvedType::Atomic(oorq_schema::AtomicType::Int));

    // With a bare `i` also in scope the path still binds to the
    // qualified `i.disciple`, as the evaluator does: the bare column
    // holds a composition, which has no `disciple`.
    let composition = cat.class_by_name("Composition").unwrap();
    let mut both = cols.clone();
    both.insert("i".to_string(), ResolvedType::Object(composition));
    let t = type_of_column_expr(&cat, &Expr::path("i", &["disciple", "name"]), &both).unwrap();
    assert_eq!(t, ResolvedType::Atomic(oorq_schema::AtomicType::Text));
}

/// Known-good fingerprints under the corrected FNV prime. The values
/// are pinned so a regression to the old mistyped prime
/// (`0x100_0000_01b3`, a digit short of `0x100000001b3`) — or any
/// accidental change to the framing — fails loudly: the serving
/// layer's plan cache keys on these hashes.
#[test]
fn fingerprint_pinned_known_good() {
    let (cat, db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let e = db.physical().class_entity(composer).unwrap();

    let leaf = Pt::entity(e, "c");
    let temp = Pt::temp("Influencer", "i");
    let sel = Pt::sel(
        Expr::path("c", &["name"]).eq(Expr::text("Bach")),
        Pt::entity(e, "c"),
    );
    let fix = Pt::Fix {
        temp: "Influencer".into(),
        body: Box::new(Pt::union(Pt::temp("Influencer", "i"), Pt::entity(e, "c"))),
    };

    assert_eq!(leaf.fingerprint(), 0xbc7b2416ef78ba94);
    assert_eq!(temp.fingerprint(), 0x67e54f443c9d0dcb);
    assert_eq!(sel.fingerprint(), 0xe1566e06ced47825);
    assert_eq!(fix.fingerprint(), 0x5f6e5261eeb3dd88);
}

/// Framing: structurally distinct small PTs whose unframed renderings
/// could alias must produce distinct fingerprints.
#[test]
fn fingerprint_framing_no_alias() {
    let (cat, db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let e = db.physical().class_entity(composer).unwrap();

    // Name/var boundary shifts: ("ab","c") vs ("a","bc").
    assert_ne!(
        Pt::temp("ab", "c").fingerprint(),
        Pt::temp("a", "bc").fingerprint()
    );
    assert_ne!(
        Pt::temp("", "abc").fingerprint(),
        Pt::temp("abc", "").fingerprint()
    );
    // Variant confusion: a Temp and an Entity with superficially
    // similar payloads.
    assert_ne!(
        Pt::temp("T", "x").fingerprint(),
        Pt::entity(e, "x").fingerprint()
    );
    // Var moved across the operator boundary.
    assert_ne!(
        Pt::union(Pt::temp("T", "ab"), Pt::temp("U", "c")).fingerprint(),
        Pt::union(Pt::temp("T", "a"), Pt::temp("Ub", "c")).fingerprint()
    );
    // Projection column split: one column "ab" vs columns "a","b".
    let one = Pt::proj(vec![("ab".into(), Expr::var("x"))], Pt::entity(e, "x"));
    let two = Pt::proj(
        vec![("a".into(), Expr::var("x")), ("b".into(), Expr::var("x"))],
        Pt::entity(e, "x"),
    );
    assert_ne!(one.fingerprint(), two.fingerprint());
    // Equal trees agree, of course.
    assert_eq!(
        Pt::temp("T", "x").fingerprint(),
        Pt::temp("T", "x").fingerprint()
    );
}

/// A recursive leg replays its maximal operands that read no temporary:
/// a nested loop's outer, but neither a bare entity scan nor a nested
/// loop's inner; nothing outside a recursive leg is replayed.
#[test]
fn replayed_marks_the_temporary_free_outer_of_a_recursive_join() {
    let (cat, db) = setup();
    let composer = cat.class_by_name("Composer").unwrap();
    let e = db.physical().class_entity(composer).unwrap();
    let env = PtEnv::new(&cat, db.physical());
    let has_master = |var: &str| {
        Pt::sel(
            Expr::path(var, &["master"]).ne(Expr::Lit(oorq_query::Literal::Null)),
            Pt::entity(e, var),
        )
    };
    let fix = |outer_first: bool, outer: Pt| {
        let base = Pt::proj(
            vec![
                ("master".into(), Expr::path("x", &["master"])),
                ("disciple".into(), Expr::var("x")),
            ],
            has_master("x"),
        );
        let (left, right) = if outer_first {
            (outer, Pt::temp("R", "i"))
        } else {
            (Pt::temp("R", "i"), outer)
        };
        let rec = Pt::proj(
            vec![
                ("master".into(), Expr::var("i.master")),
                ("disciple".into(), Expr::var("y")),
            ],
            Pt::ej(
                Expr::var("i.disciple").eq(Expr::path("y", &["master"])),
                left,
                right,
            ),
        );
        Pt::fix("R", Pt::union(base, rec))
    };
    let replayed = |pt: &Pt| {
        let mut labels = Vec::new();
        let plan = lower(&env, pt).unwrap();
        plan.root.visit(&mut |op| {
            if let Some(types) = &op.meta().replay {
                assert_eq!(types, &[ResolvedType::Object(composer)]);
                labels.push(op.meta().label.clone());
            }
        });
        labels
    };
    assert_eq!(
        replayed(&fix(true, has_master("y"))),
        ["Sel[y.master<>null]"]
    );
    assert!(
        replayed(&fix(false, has_master("y"))).is_empty(),
        "an inner"
    );
    assert!(
        replayed(&fix(true, Pt::entity(e, "y"))).is_empty(),
        "a bare scan"
    );
}
