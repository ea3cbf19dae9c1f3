//! Executor and reference-evaluator tests on generated music data.

use std::sync::Arc;

use oorq_datagen::{MusicConfig, MusicDb};
use oorq_index::{IndexSet, PathIndex, SelectionIndex};
use oorq_pt::{PhysOp, Pt};
use oorq_query::paper::{fig3_query, fig3_query_gen, music_catalog};
use oorq_query::Expr;
use oorq_storage::Value;

use crate::*;

fn small_music() -> MusicDb {
    let cat = Arc::new(music_catalog());
    MusicDb::generate(
        cat,
        MusicConfig {
            chains: 3,
            chain_len: 4,
            works_per_composer: 2,
            instruments_per_work: 2,
            harpsichord_fraction: 0.5,
            ..Default::default()
        },
    )
}

#[test]
fn scan_and_select_by_name() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::with_music_methods(m.db.catalog());
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let plan = Pt::sel(
        Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        Pt::entity(e, "x"),
    );
    let out = ex.run(&plan).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows[0][0], Value::Oid(m.bach));
    let report = ex.report();
    assert!(report.io.fetches() > 0, "scan accounted I/O");
    assert!(report.evals >= 12, "one comparison per composer");
}

/// With a bare `i` and a qualified `i.master` column both in scope, a
/// path reads the qualified one: the bare column holds a composer,
/// whose master has no `title`.
#[test]
fn path_reads_the_qualified_column_when_both_exist() {
    let mut m = small_music();
    let composers = m.db.physical().class_entity(m.composer).unwrap();
    let works = m.db.physical().class_entity(m.composition).unwrap();
    let n = m.composer_count() as usize;
    let idx = IndexSet::new();
    let methods = MethodRegistry::with_music_methods(m.db.catalog());
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let plan = Pt::sel(
        Expr::path("i", &["master", "title"]).eq(Expr::text("op0-0")),
        Pt::ej(
            Expr::True,
            Pt::entity(composers, "i"),
            Pt::proj(
                vec![("i.master".into(), Expr::var("w"))],
                Pt::entity(works, "w"),
            ),
        ),
    );
    let out = ex.run(&plan).unwrap();
    assert_eq!(
        out.len(),
        n,
        "every composer pairs with the one titled work"
    );
}

#[test]
fn indexed_select_matches_scan_with_less_io() {
    let mut m = MusicDb::generate(
        Arc::new(music_catalog()),
        MusicConfig {
            chains: 20,
            chain_len: 10,
            ..Default::default()
        },
    );
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let mut idx = IndexSet::new();
    let sid = idx.add_selection(SelectionIndex::build(&mut m.db, m.composer, m.name_attr));
    let methods = MethodRegistry::new();
    let pred = Expr::path("x", &["name"]).eq(Expr::text("Bach"));
    let mut ex = Executor::new(&mut m.db, &idx, &methods);

    let scan_out = ex.run(&Pt::sel(pred.clone(), Pt::entity(e, "x"))).unwrap();
    let scan_reads = ex.report().io.page_reads;

    let idx_plan = Pt::Sel {
        pred,
        method: oorq_pt::AccessMethod::Index(sid),
        input: Box::new(Pt::entity(e, "x")),
    };
    let idx_out = ex.run(&idx_plan).unwrap();
    let idx_reads = ex.report().io.page_reads;
    assert_eq!(scan_out.rows, idx_out.rows);
    assert!(
        idx_reads < scan_reads,
        "index probe reads fewer data pages: {idx_reads} vs {scan_reads}"
    );
}

#[test]
fn implicit_join_fans_out_over_works() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let t = m.db.physical().class_entity(m.composition).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    let plan = Pt::IJ {
        on: Expr::path("x", &["works"]),
        step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composer, m.works_attr),
        out: "w".into(),
        input: Box::new(Pt::entity(e, "x")),
        target: Box::new(Pt::entity(t, "wt")),
    };
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let out = ex.run(&plan).unwrap();
    assert_eq!(out.len(), 12 * 2, "12 composers x 2 works");
    assert_eq!(out.cols, vec!["x".to_string(), "w".to_string()]);
}

#[test]
fn pij_equals_ij_chain() {
    let mut m = small_music();
    let mut idx = IndexSet::new();
    let pix = idx.add_path(PathIndex::build(
        &mut m.db,
        vec![
            (m.composer, m.works_attr),
            (m.composition, m.instruments_attr),
        ],
    ));
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let ce = m.db.physical().class_entity(m.composition).unwrap();
    let ie = m.db.physical().class_entity(m.instrument).unwrap();
    let methods = MethodRegistry::new();

    let ij_chain = Pt::IJ {
        on: Expr::path("w", &["instruments"]),
        step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composition, m.instruments_attr),
        out: "ins".into(),
        input: Box::new(Pt::IJ {
            on: Expr::path("x", &["works"]),
            step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composer, m.works_attr),
            out: "w".into(),
            input: Box::new(Pt::entity(e, "x")),
            target: Box::new(Pt::entity(ce, "ct")),
        }),
        target: Box::new(Pt::entity(ie, "it")),
    };
    let pij = Pt::PIJ {
        index: pix,
        on: Expr::var("x"),
        outs: vec!["w".into(), "ins".into()],
        input: Box::new(Pt::entity(e, "x")),
        targets: vec![Pt::entity(ce, "ct"), Pt::entity(ie, "it")],
    };
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let a = ex.run(&ij_chain).unwrap();
    let b = ex.run(&pij).unwrap();
    let mut ra = a.rows.clone();
    let rb_aligned = a.aligned(b.clone()).unwrap();
    let mut rb = rb_aligned.rows.clone();
    ra.sort();
    rb.sort();
    assert_eq!(ra, rb, "PIJ must produce the same triples as the IJ chain");
    // The PIJ touches only index pages for the traversal.
    assert!(ex.report().io.index_reads > 0);
}

/// Build the translated Influencer fixpoint by hand (what translate +
/// generatePT will produce automatically).
fn influencer_fix(m: &MusicDb) -> Pt {
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let base = Pt::proj(
        vec![
            ("master".into(), Expr::path("x", &["master"])),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::int(1)),
        ],
        Pt::sel(
            Expr::path("x", &["master"]).ne(Expr::Lit(oorq_query::Literal::Null)),
            Pt::entity(e, "x"),
        ),
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
    Pt::fix("Influencer", Pt::union(base, rec))
}

/// The Influencer fixpoint in the Figure 3 plan's shape: the recursive leg
/// is `Proj ← [Sel[keep] ←] EJ[join](IJ_master(scan y), scan temp)`, the
/// delta temporary the rescanned inner (borrowed pages), compared slot to
/// slot with the master an implicit join put in the outer row. With `via`
/// both legs also carry the disciple's direct master, which the recursive
/// leg's projection dereferences.
fn influencer_over_ij(m: &MusicDb, join: Expr, keep: Option<Expr>, via: bool) -> Pt {
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let scan = |var: &str| Pt::entity(e, var);
    let cols = |master: Expr, disciple: &str, gen: Expr| {
        let via = via.then(|| ("via".into(), Expr::path(disciple, &["master"])));
        let cols = [
            ("master".into(), master),
            ("disciple".into(), Expr::var(disciple)),
            ("gen".into(), gen),
        ];
        cols.into_iter().chain(via).collect()
    };
    let base = Pt::proj(
        cols(Expr::path("x", &["master"]), "x", Expr::int(1)),
        Pt::sel(
            Expr::path("x", &["master"]).ne(Expr::Lit(oorq_query::Literal::Null)),
            scan("x"),
        ),
    );
    let masters = Pt::IJ {
        on: Expr::path("y", &["master"]),
        step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composer, m.master_attr),
        out: "ym".into(),
        input: Box::new(scan("y")),
        target: Box::new(scan("t")),
    };
    let joined = Pt::ej(join, masters, Pt::temp("Influencer", "i"));
    let rec = Pt::proj(
        cols(
            Expr::var("i.master"),
            "y",
            Expr::var("i.gen").add(Expr::int(1)),
        ),
        match keep {
            Some(keep) => Pt::sel(keep, joined),
            None => joined,
        },
    );
    Pt::fix("Influencer", Pt::union(base, rec))
}

/// `influencer_over_ij`'s join: the delta's disciple is the outer's master.
fn by_master() -> Expr {
    Expr::var("i.disciple").eq(Expr::var("ym"))
}

#[test]
fn seminaive_fixpoint_computes_transitive_closure() {
    let mut m = small_music();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    let plan = influencer_fix(&m);
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let out = ex.run(&plan).unwrap();
    // 3 chains of length 4: per chain pairs = 3+2+1 = 6; total 18.
    assert_eq!(out.len(), 18);
    assert_eq!(out.cols, vec!["master", "disciple", "gen"]);
    // Max generation is 3.
    let max_gen = out
        .rows
        .iter()
        .map(|r| r[2].as_int().unwrap())
        .max()
        .unwrap();
    assert_eq!(max_gen, 3);
    // Temp writes were accounted.
    assert!(ex.report().io.page_writes > 0);
}

#[test]
fn fixpoint_then_selection_matches_reference_evaluator() {
    let mut m = small_music();
    let cat = m.db.catalog_rc();
    // Reference: the Figure 3 query over the expanded Influencer view.
    let mut q = fig3_query(&cat);
    q.normalize(&cat).unwrap();
    let methods = MethodRegistry::new();
    let reference = eval_query_graph(&m.db, &methods, &q).unwrap();

    // Hand-built PT for the same query: selection after the fixpoint.
    // gen >= 2 here (the tiny DB has chains of length 4, so gen reaches 3).
    let fix = influencer_fix(&m);
    let sel = Pt::sel(
        Expr::path("i", &["master", "works", "instruments", "name"])
            .eq(Expr::text("harpsichord"))
            .and(Expr::path("i", &["gen"]).ge(Expr::int(6))),
        Pt::proj(
            vec![
                ("i.master".into(), Expr::var("master")),
                ("i.disciple".into(), Expr::var("disciple")),
                ("i.gen".into(), Expr::var("gen")),
            ],
            fix,
        ),
    );
    let plan = Pt::proj(
        vec![("name".into(), Expr::path("i", &["disciple", "name"]))],
        sel,
    );
    let idx = IndexSet::new();
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let got = ex.run(&plan).unwrap();
    // With chains of length 4, gen >= 6 selects nothing — in both.
    assert_eq!(reference.len(), got.len());
    assert!(got.is_empty());
}

/// Music data whose chains reach the third generation.
fn fig3_music() -> MusicDb {
    MusicDb::generate(
        Arc::new(music_catalog()),
        MusicConfig {
            chains: 2,
            chain_len: 8,
            harpsichord_fraction: 0.6,
            ..Default::default()
        },
    )
}

/// Like Figure 3 but `gen >= 3`, so the answer is non-empty.
fn fig3_plan(m: &MusicDb) -> Pt {
    Pt::proj(
        vec![("name".into(), Expr::path("i", &["disciple", "name"]))],
        Pt::sel(
            Expr::path("i", &["master", "works", "instruments", "name"])
                .eq(Expr::text("harpsichord"))
                .and(Expr::path("i", &["gen"]).ge(Expr::int(3))),
            Pt::proj(
                vec![
                    ("i.master".into(), Expr::var("master")),
                    ("i.disciple".into(), Expr::var("disciple")),
                    ("i.gen".into(), Expr::var("gen")),
                ],
                influencer_fix(m),
            ),
        ),
    )
}

#[test]
fn fig3_with_reachable_generation_matches_reference() {
    let mut m = fig3_music();
    let cat = m.db.catalog_rc();
    // Like Figure 3 but gen >= 3 so the answer is non-empty.
    let q = fig3_query_gen(&cat, 3);
    let methods = MethodRegistry::new();
    let reference = eval_query_graph(&m.db, &methods, &q).unwrap();
    assert!(!reference.is_empty(), "some disciples qualify");

    let plan = fig3_plan(&m);
    let idx = IndexSet::new();
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let got = ex.run(&plan).unwrap();
    let mut a: Vec<_> = reference.rows.clone();
    let mut b: Vec<_> = got.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "PT execution must match the reference semantics");
}

/// Run or answer the Figure 3 plan on fresh data through an executor that
/// `attach` gave a reader, and hand back what the reader saw. `answer`
/// leaves no report either way.
fn fig3_read<T>(
    answer: bool,
    attach: impl FnOnce(Executor<'_>) -> Executor<'_>,
    read: impl FnOnce() -> T,
) -> T {
    let mut m = fig3_music();
    let plan = fig3_plan(&m);
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    let mut ex = attach(Executor::new(&mut m.db, &idx, &methods));
    let out = if answer {
        let lowered = ex.prepare(&plan).unwrap();
        ex.answer(&lowered)
    } else {
        ex.run(&plan)
    };
    assert!(!out.unwrap().is_empty());
    assert_eq!(ex.report().ops.is_empty(), answer);
    read()
}

/// An attached recorder is a reader: `answer` then profiles, and emits the
/// operator spans `run` emits.
#[test]
fn answer_under_a_recorder_emits_runs_operator_spans() {
    let spans = |answer| {
        let rec = oorq_obs::Recorder::new();
        let trace = fig3_read(answer, |ex| ex.with_recorder(rec.clone()), || rec.finish());
        let rows_out = |s: &oorq_obs::Span| s.field("rows_out")?.as_num();
        let ops = trace.spans.iter().filter(|s| s.cat == "exec");
        ops.filter_map(|s| Some((s.name.clone(), rows_out(s)? as u64)))
            .collect::<Vec<_>>()
    };
    let run = spans(false);
    assert!(
        run.iter().any(|(name, _)| name.starts_with("Fix(")),
        "{run:?}"
    );
    assert_eq!(spans(true), run);
}

/// An attached metrics registry is a reader: `answer` then profiles, and
/// publishes the `exec.op.<kind>.rows` series `run` publishes.
#[test]
fn answer_under_a_registry_publishes_runs_operator_series() {
    let series = |answer| {
        let reg = oorq_obs::MetricsRegistry::new();
        let snap = fig3_read(answer, |ex| ex.with_metrics(reg.clone()), || reg.snapshot());
        let rows = snap.histograms.into_iter();
        rows.filter(|(name, _)| name.starts_with("exec.op.") && name.ends_with(".rows"))
            .collect::<Vec<_>>()
    };
    let run = series(false);
    assert!(
        run.iter().any(|(name, _)| name == "exec.op.Fix.rows"),
        "{run:?}"
    );
    assert_eq!(series(true), run);
}

#[test]
fn computed_attribute_dispatches_to_method() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::with_music_methods(m.db.catalog());
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let plan = Pt::proj(
        vec![("age".into(), Expr::path("x", &["age"]))],
        Pt::entity(e, "x"),
    );
    let out = ex.run(&plan).unwrap();
    assert!(!out.is_empty());
    assert!(ex.report().method_calls >= out.len() as u64);
    // Missing method errors cleanly.
    let empty = MethodRegistry::new();
    let mut ex2 = Executor::new(&mut m.db, &idx, &empty);
    let err = ex2.run(&Pt::proj(
        vec![("age".into(), Expr::path("x", &["age"]))],
        Pt::entity(e, "x"),
    ));
    assert!(matches!(err, Err(ExecError::MissingMethod(_))));
}

#[test]
fn union_aligns_columns() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let l = Pt::proj(
        vec![
            ("a".into(), Expr::var("x")),
            ("n".into(), Expr::path("x", &["name"])),
        ],
        Pt::entity(e, "x"),
    );
    let r = Pt::proj(
        vec![
            ("n".into(), Expr::path("x", &["name"])),
            ("a".into(), Expr::var("x")),
        ],
        Pt::entity(e, "x"),
    );
    let out = ex.run(&Pt::union(l, r)).unwrap();
    // Same rows from both sides after alignment; dedup leaves one copy.
    assert_eq!(out.len(), 12);
}

#[test]
fn reference_evaluator_handles_fig3_shape() {
    let m = small_music();
    let cat = m.db.catalog_rc();
    let q = fig3_query(&cat);
    let methods = MethodRegistry::new();
    // Unnormalized and normalized agree.
    let a = eval_query_graph(&m.db, &methods, &q).unwrap();
    let mut qn = q.clone();
    qn.normalize(&cat).unwrap();
    let b = eval_query_graph(&m.db, &methods, &qn).unwrap();
    let mut ra = a.rows.clone();
    let mut rb = b.rows.clone();
    ra.sort();
    rb.sort();
    assert_eq!(ra, rb);
}

#[test]
fn clustered_execution_costs_less_io_than_scattered() {
    let cat = Arc::new(music_catalog());
    let cfg = MusicConfig {
        chains: 10,
        chain_len: 10,
        works_per_composer: 3,
        buffer_frames: 8,
        ..Default::default()
    };
    let run = |clustered: bool| {
        let mut m = MusicDb::generate(
            Arc::clone(&cat),
            MusicConfig {
                clustered,
                ..cfg.clone()
            },
        );
        let e = m.db.physical().class_entity(m.composer).unwrap();
        let t = m.db.physical().class_entity(m.composition).unwrap();
        let plan = Pt::IJ {
            on: Expr::path("x", &["works"]),
            step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composer, m.works_attr),
            out: "w".into(),
            input: Box::new(Pt::entity(e, "x")),
            target: Box::new(Pt::entity(t, "wt")),
        };
        let idx = IndexSet::new();
        let methods = MethodRegistry::new();
        let mut ex = Executor::new(&mut m.db, &idx, &methods);
        m_run(&mut ex, &plan)
    };
    fn m_run(ex: &mut Executor<'_>, plan: &Pt) -> u64 {
        ex.run(plan).unwrap();
        ex.report().io.page_reads
    }
    let clustered = run(true);
    let scattered = run(false);
    assert!(
        clustered < scattered,
        "clustered IJ: {clustered} reads, scattered: {scattered}"
    );
}

#[test]
fn expression_evaluation_edge_cases() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    // Or / Not / Add / float mixing.
    // Project the (unique) name alongside: Proj has set semantics and
    // birth years collide.
    let plan = Pt::proj(
        vec![
            ("n".into(), Expr::path("x", &["name"])),
            (
                "v".into(),
                Expr::path("x", &["birth_year"]).add(Expr::int(100)),
            ),
        ],
        Pt::sel(
            Expr::path("x", &["name"])
                .eq(Expr::text("Bach"))
                .or(Expr::Not(Box::new(
                    Expr::path("x", &["name"]).eq(Expr::text("Bach")),
                ))),
            Pt::entity(e, "x"),
        ),
    );
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let out = ex.run(&plan).unwrap();
    assert_eq!(out.len(), 12, "tautology keeps everybody");
    for row in &out.rows {
        assert!(row[1].as_int().unwrap() >= 1700);
    }
    // Unknown column errors cleanly: the boundary verifier rejects the
    // plan before it runs.
    let bad = Pt::sel(Expr::var("nope").eq(Expr::int(1)), Pt::entity(e, "x"));
    let mut ex2 = Executor::new(&mut m.db, &idx, &methods);
    let err = ex2.run(&bad).unwrap_err();
    assert!(matches!(err, ExecError::PlanLint(_)), "got {err:?}");
    // Adding incompatible values errors cleanly.
    let bad_add = Pt::proj(
        vec![("v".into(), Expr::path("x", &["name"]).add(Expr::int(1)))],
        Pt::entity(e, "x"),
    );
    let mut ex3 = Executor::new(&mut m.db, &idx, &methods);
    assert!(matches!(ex3.run(&bad_add), Err(ExecError::BadValue(_))));
}

#[test]
fn integer_add_overflow_is_reported_not_wrapped() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    let overflow = Pt::proj(
        vec![(
            "v".into(),
            Expr::path("x", &["birth_year"]).add(Expr::int(i64::MAX)),
        )],
        Pt::entity(e, "x"),
    );
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let err = ex.run(&overflow).unwrap_err();
    match err {
        ExecError::BadValue(msg) => {
            assert!(msg.contains("overflow"), "got {msg:?}")
        }
        other => panic!("expected BadValue(overflow), got {other:?}"),
    }
    // The same addition stays exact below the boundary.
    let ok = Pt::proj(
        vec![(
            "v".into(),
            Expr::path("x", &["birth_year"]).add(Expr::int(1)),
        )],
        Pt::entity(e, "x"),
    );
    let mut ex2 = Executor::new(&mut m.db, &idx, &methods);
    assert!(ex2.run(&ok).is_ok());
}

#[test]
fn non_boolean_predicate_is_a_bad_value_not_false() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    // A selection predicate evaluating to an Int must error, not be
    // silently treated as false (which would drop every row). The
    // boundary verifier passes both plans, in every build, so the run
    // decides.
    let bad = Pt::sel(Expr::path("x", &["birth_year"]), Pt::entity(e, "x"));
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let err = ex.run(&bad).unwrap_err();
    match err {
        ExecError::BadValue(msg) => {
            assert!(msg.contains("non-boolean"), "got {msg:?}")
        }
        other => panic!("expected BadValue(non-boolean), got {other:?}"),
    }
    // Null predicates keep their three-valued reading: no match, no
    // error.
    let null_pred = Pt::sel(Expr::Lit(oorq_query::Literal::Null), Pt::entity(e, "x"));
    let mut ex2 = Executor::new(&mut m.db, &idx, &methods);
    let out = ex2.run(&null_pred);
    match out {
        Ok(rows) => assert_eq!(rows.len(), 0, "NULL predicate selects nothing"),
        Err(other) => panic!("expected empty result, got {other:?}"),
    }
}

#[test]
fn union_mismatch_is_reported() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    let l = Pt::proj(vec![("a".into(), Expr::var("x"))], Pt::entity(e, "x"));
    let r = Pt::proj(vec![("b".into(), Expr::var("x"))], Pt::entity(e, "x"));
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let err = ex.run(&Pt::union(l, r)).unwrap_err();
    assert!(matches!(err, ExecError::PlanLint(_)), "got {err:?}");
}

#[test]
fn fixpoint_over_empty_base_terminates_empty() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    let base = Pt::proj(
        vec![
            ("master".into(), Expr::path("x", &["master"])),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::int(1)),
        ],
        Pt::sel(
            Expr::path("x", &["name"]).eq(Expr::text("Nobody")),
            Pt::entity(e, "x"),
        ),
    );
    let rec = Pt::proj(
        vec![
            ("master".into(), Expr::var("i.master")),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::var("i.gen").add(Expr::int(1))),
        ],
        Pt::ej(
            Expr::var("i.disciple").eq(Expr::path("x", &["master"])),
            Pt::temp("Empty", "i"),
            Pt::entity(e, "x"),
        ),
    );
    let plan = Pt::fix("Empty", Pt::union(base, rec));
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let out = ex.run(&plan).unwrap();
    assert!(out.is_empty());
    // Counter-based: with an empty base the delta starts empty, so the
    // recursive side must never be opened — zero redundant delta scans.
    let ops = ex.report().ops;
    let delta_scan = ops
        .iter()
        .find(|o| o.label == "scan temp Empty")
        .expect("rec-side delta scan operator");
    assert_eq!(delta_scan.opens, 0, "empty base must not scan the delta");
    assert_eq!(delta_scan.rows_out, 0);
}

#[test]
fn single_iteration_fixpoint_scans_delta_once() {
    // Chains of length 2: the base emits one (master, disciple) pair per
    // chain, and no composer has a chain tail as master, so the first
    // semi-naive iteration derives nothing new and the loop must stop.
    let mut m = MusicDb::generate(
        Arc::new(music_catalog()),
        MusicConfig {
            chains: 3,
            chain_len: 2,
            ..Default::default()
        },
    );
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    let plan = influencer_fix(&m);
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let out = ex.run(&plan).unwrap();
    assert_eq!(out.len(), 3, "one pair per chain");
    // Counter-based: exactly one delta scan (the iteration that proves
    // the fixpoint), not a redundant second pass over an empty delta.
    let ops = ex.report().ops;
    let delta_scan = ops
        .iter()
        .find(|o| o.label == "scan temp Influencer")
        .expect("rec-side delta scan operator");
    assert_eq!(
        delta_scan.opens, 1,
        "single-iteration fixpoint must scan the delta exactly once"
    );
}

/// A report describes the executor's last run, not the executor's or the
/// store's total: run one plan twice on one executor, and the second
/// report holds the first's evaluations again, and the page I/O the
/// store's account counted around the second run (read from the
/// `storage.*` series the account publishes whenever a run checks it back
/// in).
#[test]
fn a_second_run_on_one_executor_reports_itself_alone() {
    let mut m = small_music();
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    let closure = influencer_fix(&m);
    let reg = oorq_obs::MetricsRegistry::new();
    let account = || {
        ["page_hits", "page_misses", "page_writes", "page_evictions"]
            .map(|name| reg.counter(&format!("storage.{name}")).get())
    };
    let mut ex = Executor::new(&mut m.db, &idx, &methods).with_metrics(reg.clone());
    let first_rows = ex.run(&closure).unwrap();
    let first = ex.report();
    let before = account();
    assert_eq!(ex.run(&closure).unwrap(), first_rows);
    let (second, after) = (ex.report(), account());
    assert!(first.evals > 0);
    assert_eq!(second.evals, first.evals, "the second run's evaluations");
    let io = second.io;
    assert!(io.fetches() > 0 && io.page_writes > 0, "{io:?}");
    assert_eq!(
        [
            io.page_hits,
            io.page_reads,
            io.page_writes,
            io.page_evictions
        ],
        [0, 1, 2, 3].map(|i| after[i] - before[i]),
        "the second run's page I/O"
    );
}

/// A run that fails reports itself — not the run before it — and leaves
/// the store's page account where the next run finds it.
#[test]
fn failed_run_reports_itself_and_parks_the_account() {
    let four_frames = || {
        MusicDb::generate(
            Arc::new(music_catalog()),
            MusicConfig {
                chains: 3,
                chain_len: 4,
                buffer_frames: 4,
                ..Default::default()
            },
        )
    };
    let mut m = four_frames();
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let closure = influencer_fix(&m);
    // Chains of length 4 take three passes: one is not enough.
    let mut ex = Executor::new(&mut m.db, &idx, &methods).with_config(ExecConfig {
        max_fix_iterations: 1,
        ..ExecConfig::default()
    });
    ex.run(&Pt::entity(e, "x")).unwrap();
    let good = ex.report();
    assert!(!good.ops.is_empty() && ex.last_plan().is_some());
    let err = ex.run(&closure).unwrap_err();
    assert!(matches!(err, ExecError::FixpointDiverged(_)), "{err}");
    let failed = ex.report();
    assert!(failed.ops.is_empty() && failed.fix_deltas.is_empty());
    assert!(ex.last_plan().is_none(), "no plan just completed");
    assert!(
        failed.io.fetches() > good.io.fetches() && failed.io.page_writes > 0,
        "the failed run's touches are in its report: {:?}",
        failed.io
    );
    drop(ex);

    // The account was parked as the failed run left it: counters (the two
    // runs' together), frames, and what is resident in them.
    let mut both = good.io;
    both += failed.io;
    assert_eq!(m.db.io_stats(), both);
    assert_eq!(m.db.buffer_frames(), 4);
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let out = ex.run(&closure).unwrap();
    let first_scan = |report: &ExecReport| {
        let scan = report.ops.iter().find(|o| o.label == "scan Composer");
        scan.map(|o| (o.page_reads, o.page_hits))
    };
    assert_eq!(first_scan(&ex.report()), Some((0, 1)), "base page resident");
    drop(ex);
    let mut cold = four_frames();
    let mut ex = Executor::new(&mut cold.db, &idx, &methods);
    assert_eq!(out, ex.run(&closure).unwrap(), "the reference answer");
    assert_eq!(first_scan(&ex.report()), Some((1, 0)), "cold, it is a read");
}

/// A method that panics while it writes a temporary poisons that
/// temporary's lock, and the panic unwinds through the run. The session's
/// next run — a new executor over the same database and temporaries —
/// finds the page account parked and the lock poisoned, and its fixpoint's
/// truncate puts the lock right instead of panicking in turn.
#[test]
fn a_run_after_a_panicking_method_answers_as_before() {
    let mut m = small_music();
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let (idx, quiet) = (IndexSet::new(), MethodRegistry::new());
    let closure = influencer_fix(&m);
    let mut ex = Executor::new(&mut m.db, &idx, &quiet);
    let reference = ex.run(&closure).unwrap();
    let state = ex.into_state();
    let acc = state.temps["Influencer"][0].acc;

    // `age` appends to the accumulator through an account that is busy:
    // the append panics with the temporary's write lock held.
    let mut methods = MethodRegistry::new();
    let person = m.db.catalog().class_by_name("Person").unwrap();
    let (age, _) = m.db.catalog().attr(person, "age").unwrap();
    methods.register(person, age, move |db, _| {
        let io = oorq_storage::Account::new(oorq_storage::BufferManager::new(1));
        let _busy = io.borrow_mut();
        db.append_temp_rows(&io, &[acc], vec![Vec::new()]).unwrap();
        Value::Null
    });
    let aged = Pt::sel(
        Expr::path("x", &["age"]).ne(Expr::Lit(oorq_query::Literal::Null)),
        Pt::entity(e, "x"),
    );
    let mut ex = Executor::new(&mut m.db, &idx, &methods).with_state(state);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.run(&aged)));
    assert!(run.is_err(), "the method's panic unwinds through the run");
    let state = ex.into_state();
    let refused =
        m.db.append_temp_rows(&m.db.check_out(), &[acc], Vec::<Vec<Value>>::new());
    assert_eq!(
        refused,
        Err(oorq_storage::StorageError::PoisonedTemporary(acc)),
        "the accumulator's lock was left poisoned"
    );

    let mut ex = Executor::new(&mut m.db, &idx, &quiet).with_state(state);
    assert_eq!(ex.run(&closure).unwrap(), reference);
}

#[test]
fn nl_join_materialized_inner_charges_page_store_io() {
    // A nested loop whose inner is itself a join cannot rescan it; the
    // executor materializes the inner once into a page-store temporary.
    // Counter-based pin: the materialization's page writes and the
    // per-outer-row rescan fetches must land on the `NlJoin`'s own
    // operator counters (and the run totals), not vanish into an
    // unaccounted side buffer.
    let mut m = MusicDb::generate(
        Arc::new(music_catalog()),
        MusicConfig {
            chains: 6,
            chain_len: 6,
            ..Default::default()
        },
    );
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let idx = IndexSet::new();
    let methods = MethodRegistry::new();
    // The inner cross join materializes |Composer|² rows — several
    // pages, so a one-page budget genuinely has to spill it.
    let pred_inner = Expr::int(1).eq(Expr::int(1));
    let plan = Pt::ej(
        Expr::path("a", &["master"]).eq(Expr::path("b", &["master"])),
        Pt::entity(e, "a"),
        Pt::ej(pred_inner, Pt::entity(e, "b"), Pt::entity(e, "c")),
    );

    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    let out = ex.run(&plan).unwrap();
    let report = ex.report();
    let nl = report
        .ops
        .iter()
        .find(|o| o.label.starts_with("EJ") && o.page_writes > 0)
        .expect("materializing NlJoin charged page writes");
    assert!(
        nl.page_reads + nl.page_hits > 0,
        "rescans of the materialized inner must be fetched (and accounted)"
    );
    assert!(report.io.page_writes >= nl.page_writes);

    // Under a one-page breaker budget the inner spills and re-fetches,
    // but the answer is byte-identical.
    m.db.cold_cache();
    let mut ex2 = Executor::new(&mut m.db, &idx, &methods).with_config(ExecConfig {
        memory_budget_pages: 1,
        ..ExecConfig::default()
    });
    let out2 = ex2.run(&plan).unwrap();
    assert_eq!(out.rows, out2.rows, "budget must not change the answer");
    let io2 = ex2.report().io;
    assert!(
        io2.page_reads > report.io.page_reads,
        "a 1-page budget must force re-reads ({} vs {})",
        io2.page_reads,
        report.io.page_reads
    );
}

/// The binder means what the name-resolving interpreter meant: every
/// expected `(value | error, evals, method_calls)` below was recorded
/// from `EvalCtx::eval(expr, cols, row)` at the commit before the binder
/// replaced it — the `stored …` cases, which compare one stored attribute
/// of one object with a literal where the value lies, from the commit
/// before they did, like the cases around them that decline to (a computed
/// attribute, a literal on the left, several objects, the account-less
/// pass every case gets).
#[test]
fn bound_expressions_evaluate_as_the_interpreter_did() {
    use crate::eval::{Counters, EvalCtx, Pred, RowRef};
    use oorq_query::Literal;

    let mut m = small_music();
    // Collections of no, one and three members (the store does not type
    // what a loader wires in), on composers no other case reads.
    let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
    let wired = [
        Value::Set(vec![]),
        Value::Set(ints(&[2])),
        Value::List(vec![Value::Set(ints(&[1, 2]))]),
        Value::Set(vec![Value::Null]),
        Value::Set(ints(&[1, 2, 3])),
        Value::List(ints(&[1, 2, 3])),
        Value::Set(vec![Value::Null, Value::Int(2), Value::Int(3)]),
    ];
    let holders: Vec<Value> = m.composers[4..].iter().map(|&c| Value::Oid(c)).collect();
    for (holder, works) in m.composers[4..].iter().zip(wired) {
        m.db.set_attr(*holder, m.works_attr, works).unwrap();
    }
    let [none, one, one_set, one_null, three, three_list, null_and_two] = &holders[..7] else {
        unreachable!("twelve composers")
    };
    let on = |x: &Value| vec![x.clone()];
    let head = Value::Oid(m.composers[0]);
    let bach = Value::Oid(m.bach);
    let gone = oorq_storage::Oid::new(m.composer, 999);
    let x = |attr: &str| Expr::path("x", &[attr]);
    let methods = MethodRegistry::with_music_methods(m.db.catalog());
    let works = m.db.read_attr_raw(m.bach, m.works_attr).unwrap();
    let work0 = works.members()[0].clone();
    let int = Value::Int;
    let set = |v: &[i64]| Value::Set(v.iter().map(|&i| Value::Int(i)).collect());
    let null = || Expr::Lit(Literal::Null);
    let v = Expr::var;
    let ok = |value: Value| Ok::<Value, String>(value);
    let err = |e: ExecError| Err::<Value, String>(e.to_string());
    let yes = || ok(Value::Bool(true));
    let no = || ok(Value::Bool(false));
    let s123 = || vec![set(&[1, 2, 3])];
    let st = || vec![set(&[1, 2]), set(&[2, 9])];
    let both = || vec![Value::Oid(m.bach), work0.clone()];
    let oid_text = || vec![Value::Oid(m.bach), Value::text("x")];
    let pair = || Value::Tuple(vec![int(1), Value::text("x")]);
    let nope_eq_1 = || v("nope").eq(Expr::int(1));
    /// (case, columns, row, expression, evaluated as a predicate,
    /// expected result, evals, method calls)
    type Case = (
        &'static str,
        Vec<&'static str>,
        Vec<Value>,
        Expr,
        bool,
        Result<Value, String>,
        u64,
        u64,
    );
    #[rustfmt::skip]
    let cases: Vec<Case> = vec![
        ("slot compare", vec!["a", "b"], vec![int(1), int(2)], v("a").lt(v("b")), false, yes(), 1, 0),
        ("<> null on a value", vec!["a"], vec![int(1)], v("a").ne(null()), false, yes(), 1, 0),
        ("<> null on null", vec!["a"], vec![Value::Null], v("a").ne(null()), false, no(), 1, 0),
        ("= null on null", vec!["a"], vec![Value::Null], v("a").eq(null()), false, yes(), 1, 0),
        ("= null on a set", vec!["a"], vec![set(&[1, 2])], v("a").eq(null()), false, no(), 1, 0),
        ("< null", vec!["a"], vec![int(1)], v("a").lt(null()), false, no(), 1, 0),
        // Existential compares stop at the first member pair that holds,
        // so the count depends on which side's members loop outermost.
        ("set = scalar", vec!["s"], s123(), v("s").eq(Expr::int(2)), false, yes(), 2, 0),
        ("scalar = set", vec!["s"], s123(), Expr::int(2).eq(v("s")), false, yes(), 2, 0),
        ("set = set", vec!["s", "t"], st(), v("s").eq(v("t")), false, yes(), 3, 0),
        ("set = set, swapped", vec!["s", "t"], st(), v("t").eq(v("s")), false, yes(), 2, 0),
        ("no member matches", vec!["s"], s123(), v("s").eq(Expr::int(7)), false, no(), 3, 0),
        ("null has no members", vec!["a", "b"], vec![Value::Null, int(1)], v("a").eq(v("b")), false, no(), 0, 0),
        ("add overflow", vec!["a"], vec![int(i64::MAX)], v("a").add(Expr::int(1)), false,
         err(ExecError::BadValue("integer overflow in 9223372036854775807 + 1".into())), 0, 0),
        ("add int + float", vec!["a"], vec![Value::Float(1.5)], v("a").add(Expr::int(1)), false, ok(Value::Float(2.5)), 0, 0),
        ("non-boolean predicate", vec!["a"], vec![int(3)], v("a"), true,
         err(ExecError::BadValue("predicate evaluated to non-boolean 3".into())), 0, 0),
        ("null predicate", vec!["a"], vec![int(3)], null(), true, no(), 0, 0),
        // An unknown column is an error only where evaluation reaches it.
        ("unknown column behind a false and", vec!["a"], vec![int(1)], v("a").eq(Expr::int(2)).and(nope_eq_1()), true, no(), 1, 0),
        ("unknown column behind a true or", vec!["a"], vec![int(1)], v("a").eq(Expr::int(1)).or(nope_eq_1()), true, yes(), 1, 0),
        ("unknown column in front", vec!["a"], vec![int(1)], nope_eq_1().and(v("a").eq(Expr::int(1))), true,
         err(ExecError::UnknownColumn("nope".into())), 0, 0),
        ("unknown path base", vec!["a"], vec![int(1)], Expr::path("nope", &["name"]).eq(Expr::int(1)), false,
         err(ExecError::UnknownColumn("nope".into())), 0, 0),
        ("not", vec!["a"], vec![int(1)], Expr::Not(Box::new(v("a").eq(Expr::int(1)))), false, no(), 1, 0),
        ("computed attribute", vec!["x"], vec![Value::Oid(m.bach)], Expr::path("x", &["age"]), false, ok(int(165)), 0, 1),
        ("path fan-out", vec!["x"], vec![Value::Oid(m.bach)],
         Expr::path("x", &["works", "instruments", "name"]).eq(Expr::text("harpsichord")), false, no(), 4, 0),
        // PR 13: with `i` and `i.master` both in scope, a path starts
        // from the qualified column.
        ("qualified column wins", vec!["i", "i.master"], both(), Expr::path("i", &["master", "title"]), false, ok(Value::text("op3-0")), 0, 0),
        ("qualified column, no steps left", vec!["i", "i.master"], both(), Expr::path("i", &["master"]), false, ok(work0.clone()), 0, 0),
        // Split after `a`, these are what a join's probe decides: `a` is
        // the key, `b` the inner slot, on either side of the operator.
        ("inner < outer", vec!["a", "b"], vec![int(1), int(2)], v("b").lt(v("a")), true, no(), 1, 0),
        ("inner >= outer", vec!["a", "b"], vec![int(1), int(2)], v("b").ge(v("a")), true, yes(), 1, 0),
        ("outer >= inner", vec!["a", "b"], vec![int(1), int(2)], v("a").ge(v("b")), true, no(), 1, 0),
        ("int < float", vec!["a", "b"], vec![int(2), Value::Float(2.5)], v("a").lt(v("b")), true, yes(), 1, 0),
        ("int = float", vec!["a", "b"], vec![int(2), Value::Float(2.0)], v("a").eq(v("b")), true, yes(), 1, 0),
        ("oid < text is rank order", vec!["a", "b"], oid_text(), v("a").lt(v("b")), true, no(), 1, 0),
        ("text < oid is rank order", vec!["a", "b"], oid_text(), v("b").lt(v("a")), true, yes(), 1, 0),
        ("oid = oid", vec!["a", "b"], vec![Value::Oid(m.bach), Value::Oid(m.bach)], v("a").eq(v("b")), true, yes(), 1, 0),
        ("null in the inner slot", vec!["a", "b"], vec![int(1), Value::Null], v("a").eq(v("b")), true, no(), 0, 0),
        ("set in the inner slot", vec!["a", "s"], vec![int(2), set(&[1, 2, 3])], v("a").eq(v("s")), true, yes(), 2, 0),
        ("set in the outer slot", vec!["s", "a"], vec![set(&[1, 2, 3]), int(2)], v("s").eq(v("a")), true, yes(), 2, 0),
        ("tuple = tuple", vec!["a", "b"], vec![pair(), pair()], v("a").eq(v("b")), true, yes(), 1, 0),
        ("unknown column behind a true and", vec!["a"], vec![int(1)], v("a").eq(Expr::int(1)).and(nope_eq_1()), true,
         err(ExecError::UnknownColumn("nope".into())), 1, 0),
        ("three conjuncts", vec!["a", "b"], vec![int(1), int(2)], v("a").lt(v("b")).and(v("b").eq(Expr::int(2))).and(v("a").ne(v("b"))), true, yes(), 3, 0),
        ("literal < slot", vec!["a"], vec![int(1)], Expr::int(0).lt(v("a")), true, yes(), 1, 0),
        // One stored step of one object against a literal.
        ("stored text = text", vec!["x"], on(&bach), x("name").eq(Expr::text("Bach")), true, yes(), 1, 0),
        ("stored text < text", vec!["x"], on(&bach), x("name").lt(Expr::text("A")), true, no(), 1, 0),
        ("stored text, as a value", vec!["x"], on(&bach), x("name").eq(Expr::text("Bach")), false, yes(), 1, 0),
        ("stored oid <> null", vec!["x"], on(&bach), x("master").ne(null()), true, yes(), 1, 0),
        ("stored oid = null", vec!["x"], on(&bach), x("master").eq(null()), true, no(), 1, 0),
        ("stored oid < null", vec!["x"], on(&bach), x("master").lt(null()), true, no(), 1, 0),
        ("stored oid = int is rank order", vec!["x"], on(&bach), x("master").eq(Expr::int(1)), true, no(), 1, 0),
        ("stored oid >= int is rank order", vec!["x"], on(&bach), x("master").ge(Expr::int(1)), true, yes(), 1, 0),
        ("stored null = null", vec!["x"], on(&head), x("master").eq(null()), true, yes(), 1, 0),
        ("stored null <> null", vec!["x"], on(&head), x("master").ne(null()), true, no(), 1, 0),
        ("stored null = int", vec!["x"], on(&head), x("master").eq(Expr::int(1)), true, no(), 0, 0),
        ("stored set of none = int", vec!["x"], on(none), x("works").eq(Expr::int(2)), true, no(), 0, 0),
        ("stored set of none = null", vec!["x"], on(none), x("works").eq(null()), true, yes(), 1, 0),
        ("stored set of none <> null", vec!["x"], on(none), x("works").ne(null()), true, no(), 1, 0),
        ("stored set of one = int", vec!["x"], on(one), x("works").eq(Expr::int(2)), true, yes(), 1, 0),
        ("stored set of one <> int", vec!["x"], on(one), x("works").ne(Expr::int(2)), true, no(), 1, 0),
        ("stored list of one set is its members", vec!["x"], on(one_set), x("works").eq(Expr::int(2)), true, yes(), 2, 0),
        ("stored set of one null = null", vec!["x"], on(one_null), x("works").eq(null()), true, yes(), 1, 0),
        ("stored set of one null = int", vec!["x"], on(one_null), x("works").eq(Expr::int(2)), true, no(), 0, 0),
        ("stored set of three = int", vec!["x"], on(three), x("works").eq(Expr::int(2)), true, yes(), 2, 0),
        ("stored set of three, no member", vec!["x"], on(three), x("works").eq(Expr::int(7)), true, no(), 3, 0),
        ("stored set of three >= int", vec!["x"], on(three), x("works").ge(Expr::int(3)), true, yes(), 3, 0),
        ("stored set of three <> null", vec!["x"], on(three), x("works").ne(null()), true, yes(), 1, 0),
        ("stored list of three < int", vec!["x"], on(three_list), x("works").lt(Expr::int(2)), true, yes(), 1, 0),
        ("stored set with a null member", vec!["x"], on(null_and_two), x("works").eq(Expr::int(2)), true, yes(), 2, 0),
        ("stored set with a null member = null", vec!["x"], on(null_and_two), x("works").eq(null()), true, no(), 1, 0),
        ("dangling oid", vec!["x"], vec![Value::Oid(gone)], x("name").eq(Expr::text("x")), true,
         err(oorq_storage::StorageError::DanglingOid(gone).into()), 0, 0),
        ("dangling oid <> null", vec!["x"], vec![Value::Oid(gone)], x("master").ne(null()), true,
         err(oorq_storage::StorageError::DanglingOid(gone).into()), 0, 0),
        ("unknown attribute", vec!["x"], on(&bach), x("nope").eq(Expr::int(1)), true,
         err(ExecError::UnknownAttribute("nope".into())), 0, 0),
        // The same shape, where the value cannot be compared in place.
        ("computed = int", vec!["x"], on(&bach), x("age").eq(Expr::int(165)), true, yes(), 1, 1),
        ("computed <> null", vec!["x"], on(&bach), x("age").ne(null()), true, yes(), 1, 1),
        ("literal = stored", vec!["x"], on(&bach), Expr::text("Bach").eq(x("name")), true, yes(), 1, 0),
        ("stored = stored", vec!["x"], on(&bach), x("name").eq(x("name")), true, yes(), 1, 0),
        ("two objects, one step", vec!["x"], vec![Value::Set(vec![bach.clone(), head.clone()])],
         x("name").eq(Expr::text("Bach")), true, yes(), 1, 0),
        ("a step from a null", vec!["x"], vec![Value::Null], x("name").eq(Expr::text("Bach")), true, no(), 0, 0),
        ("a step from a null = null", vec!["x"], vec![Value::Null], x("name").eq(null()), true, yes(), 1, 0),
    ];
    // The (case, split) pairs the probe takes; every other one it leaves
    // to `truthy`, which is then the same call as above.
    let mut probed = Vec::new();
    for (name, cols, row, expr, as_pred, expected, evals, method_calls) in cases {
        let (counters, io) = (Counters::default(), m.db.check_out());
        let cols: Vec<String> = cols.into_iter().map(String::from).collect();
        let pred = Pred::bind(&expr, &cols);
        // With the run's page account, then as the reference evaluator
        // reads: for free. Split the row in two, as a join reads it:
        // slots must not care.
        let passes = [true, false].into_iter();
        for (account, split) in passes.flat_map(|a| (0..=row.len()).map(move |s| (a, s))) {
            let ctx = EvalCtx {
                db: &m.db,
                methods: &methods,
                counters: &counters,
                io: account.then_some(&*io),
            };
            let charged = io.borrow().stats();
            counters.evals.set(0);
            counters.method_calls.set(0);
            let at = RowRef(&row[..split], &row[split..]);
            let got = if as_pred {
                pred.truthy(&ctx, at).map(Value::Bool)
            } else {
                pred.bound.eval(&ctx, at).map(|v| v.into_owned())
            };
            assert_eq!(got.map_err(|e| e.to_string()), expected, "{name}");
            let counted = (counters.evals.get(), counters.method_calls.get());
            assert_eq!(counted, (evals, method_calls), "{name}: (evals, methods)");
            if !account {
                assert_eq!(io.borrow().stats(), charged, "{name}: read for free");
                continue;
            }
            // The probe form: the outer row is known, the inner row is a
            // one-row chunk.
            let Some(probe) = pred.probe(at.0) else {
                continue;
            };
            probed.push((name, split));
            counters.evals.set(0);
            let mut hits = vec![7];
            let got = probe
                .matches(&ctx, at.0, &[at.1][..], &mut hits)
                .map(|()| Value::Bool(hits == [0]));
            assert_eq!(got.map_err(|e| e.to_string()), expected, "{name}: probe");
            assert_eq!(counters.evals.get(), evals, "{name}: probe evals");
        }
    }
    #[rustfmt::skip]
    let expected = [
        // Without an outer row a slot meets a literal (a filter).
        ("set = scalar", 0), ("scalar = set", 0), ("no member matches", 0),
        ("unknown column behind a false and", 0), ("unknown column behind a true and", 0), ("literal < slot", 0),
        // With `a` known, `b` is what is left.
        ("slot compare", 1), ("inner < outer", 1), ("inner >= outer", 1), ("outer >= inner", 1),
        ("int < float", 1), ("int = float", 1), ("oid < text is rank order", 1), ("text < oid is rank order", 1),
        ("oid = oid", 1), ("null in the inner slot", 1), ("set in the inner slot", 1), ("tuple = tuple", 1),
        ("three conjuncts", 1),
    ];
    probed.sort_by_key(|&(_, split)| split);
    assert_eq!(
        probed, expected,
        "which (case, split) pairs the probe takes"
    );
}

/// Chunking must not reorder page touches: under a 2-frame buffer and
/// under a 1-page breaker budget the LRU victim — hence every `IoStats`
/// field — depends on the exact order of fetches and writes. The
/// expected values were recorded from the row-at-a-time pipeline at the
/// commit before chunks replaced it.
#[test]
fn page_touch_order_is_pinned() {
    // The last argument, `page_evictions`, is what the
    // `storage.page_evictions` series read while the buffer still bumped
    // it inline (the commit before `IoStats` counted it).
    let io = |page_reads, page_hits, page_writes, index_reads, spill_evictions, temp_reads, e| {
        oorq_storage::IoStats {
            page_reads,
            page_hits,
            page_writes,
            index_reads,
            spill_evictions,
            temp_reads,
            page_evictions: e,
        }
    };
    // (composers per side, plan, buffer frames, breaker budget, rows, I/O)
    let cases = [
        (14, "fig3", 2, 0, 45, io(836, 1914, 0, 336, 0, 0, 834)),
        (14, "fig3", 32, 1, 45, io(24, 2726, 0, 336, 0, 0, 0)),
        (6, "mat", 2, 0, 1080, io(402, 93274, 8, 0, 0, 288, 408)),
        (6, "mat", 32, 1, 1080, io(290, 93386, 8, 0, 295, 288, 0)),
        // Re-recorded when the recursive leg's `IJ_master(scan y)` began
        // to replay: its derefs and extent pages are paid on the first
        // pass, and its two written pages read back on the later ones —
        // from the page store every pass under a one-page budget.
        (14, "fix", 2, 0, 1274, io(609, 3287, 29, 0, 0, 414, 619)),
        (14, "fix", 32, 1, 1274, io(1514, 2382, 29, 0, 1523, 1508, 0)),
        (14, "via", 2, 0, 1274, io(2454, 3083, 34, 0, 0, 1675, 2473)),
        (14, "via", 32, 1, 1274, io(2241, 3296, 34, 0, 2255, 2235, 0)),
        (14, "proj-ij", 2, 0, 168, io(6, 728, 0, 0, 0, 0, 4)),
        (14, "proj-ij", 32, 1, 168, io(6, 728, 0, 0, 0, 0, 0)),
    ];
    for (side, name, buffer_frames, memory_budget_pages, rows, expected) in cases {
        let mut m = MusicDb::generate(
            Arc::new(music_catalog()),
            MusicConfig {
                chains: side,
                chain_len: side,
                buffer_frames,
                ..Default::default()
            },
        );
        let mut idx = IndexSet::new();
        let pix = idx.add_path(PathIndex::build(
            &mut m.db,
            vec![
                (m.composer, m.works_attr),
                (m.composition, m.instruments_attr),
            ],
        ));
        let e = m.db.physical().class_entity(m.composer).unwrap();
        let ce = m.db.physical().class_entity(m.composition).unwrap();
        let ie = m.db.physical().class_entity(m.instrument).unwrap();
        let ij = |on: Expr, out: &str, input: Pt| Pt::IJ {
            on,
            step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composer, m.master_attr),
            out: out.into(),
            input: Box::new(input),
            target: Box::new(Pt::entity(e, "t")),
        };
        let plan = if ["fix", "via"].contains(&name) {
            // A fixpoint's recursive leg, `Proj ← EJ ← IJ`, is drained
            // whole before the sink writes: nothing above the join can
            // touch a page, and it hands up one chunk per pass — unless
            // (`via`) the projection dereferences, which puts a touch
            // after every row of the join.
            influencer_over_ij(&m, by_master(), None, name == "via")
        } else if name == "proj-ij" {
            // A root pipeline whose projection only copies slots: the
            // implicit join below it hands up every row in one chunk.
            Pt::proj(
                vec![("x".into(), Expr::var("x")), ("g".into(), Expr::var("g"))],
                ij(
                    Expr::path("m", &["master"]),
                    "g",
                    ij(Expr::path("x", &["master"]), "m", Pt::entity(e, "x")),
                ),
            )
        } else if name == "fig3" {
            // The Figure 3 shape, IJ → IJ → PIJ → Sel, with a predicate
            // that dereferences a scattered page and a shared one.
            Pt::sel(
                Expr::path("w", &["title"])
                    .ne(Expr::Lit(oorq_query::Literal::Null))
                    .and(Expr::path("ins", &["name"]).eq(Expr::text("harpsichord"))),
                Pt::PIJ {
                    index: pix,
                    on: Expr::var("g"),
                    outs: vec!["w".into(), "ins".into()],
                    input: Box::new(ij(
                        Expr::path("m", &["master"]),
                        "g",
                        ij(Expr::path("x", &["master"]), "m", Pt::entity(e, "x")),
                    )),
                    targets: vec![Pt::entity(ce, "ct"), Pt::entity(ie, "it")],
                },
            )
        } else {
            // A nested loop over a join: the inner is materialized
            // (`rescan_inner: false`) and re-read per outer row.
            Pt::ej(
                Expr::path("a", &["master"]).eq(Expr::path("b", &["master"])),
                Pt::entity(e, "a"),
                Pt::ej(
                    Expr::int(1).eq(Expr::int(1)),
                    Pt::entity(e, "b"),
                    Pt::entity(e, "c"),
                ),
            )
        };
        let methods = MethodRegistry::new();
        m.db.cold_cache();
        let mut ex = Executor::new(&mut m.db, &idx, &methods).with_config(ExecConfig {
            memory_budget_pages,
            ..ExecConfig::default()
        });
        let out = ex.run(&plan).unwrap();
        let case = format!("{name}, {buffer_frames} frames, budget {memory_budget_pages}");
        assert_eq!(out.len(), rows, "{case}");
        assert_eq!(ex.report().io, expected, "{case}");
    }
}

/// A join or filter that probes is charged what the per-pair interpreter
/// was: per-operator `(label, opens, rows_out, evals)` in operator order
/// and the whole query's `IoStats` under a 2-frame buffer, recorded from
/// the commit before the probe (`via`: from the commit before a touch-free
/// region stopped cutting chunks). The four fixpoints were re-recorded
/// when the recursive leg's `IJ_master(scan Composer)` began to replay:
/// the scan and the implicit join derive on the first pass only, and
/// every count of the join and the probe stays as it was. `mat-keyed-via`
/// and `mat-null-key` were recorded from the commit before a held inner
/// was looked up by key: the first reads a 40-page inner off its key
/// table, one page's matches per call, and the second keeps comparing.
/// `mat-via` was recorded from the commit before a held inner's pages
/// were borrowed from its hold: a join that hands up one match per call
/// goes on in the middle of the page it fetched last.
#[test]
fn probed_operators_keep_the_interpreters_counters() {
    // `page_evictions` as the `storage.page_evictions` series read at the
    // commit before `IoStats` counted it.
    let io =
        |page_reads, page_hits, page_writes, temp_reads, page_evictions| oorq_storage::IoStats {
            page_reads,
            page_hits,
            page_writes,
            temp_reads,
            page_evictions,
            ..Default::default()
        };
    type Ops = &'static [(&'static str, u64, u64, u64)];
    #[rustfmt::skip]
    let cases: [(&str, usize, Ops, oorq_storage::IoStats); 9] = [
        ("rescan", 40, &[("scan Composer", 1, 20, 0), ("Sel[x.master<>null]", 1, 16, 20), ("Proj", 1, 16, 0), ("scan Composer", 1, 20, 0), ("IJ_master", 4, 16, 0), ("scan temp Influencer", 64, 640, 0), ("EJ[i.disciple=ym]", 4, 24, 640), ("Proj", 4, 24, 0), ("Fix(Influencer)", 1, 40, 0)], io(82, 117, 13, 48, 87)),
        ("residual", 36, &[("scan Composer", 1, 20, 0), ("Sel[x.master<>null]", 1, 16, 20), ("Proj", 1, 16, 0), ("scan Composer", 1, 20, 0), ("IJ_master", 3, 16, 0), ("scan temp Influencer", 48, 576, 0), ("EJ[i.disciple=ym and i.gen<3]", 3, 20, 600), ("Proj", 3, 20, 0), ("Fix(Influencer)", 1, 36, 0)], io(80, 101, 12, 46, 85)),
        ("via", 40, &[("scan Composer", 1, 20, 0), ("Sel[x.master<>null]", 1, 16, 20), ("Proj", 1, 16, 0), ("scan Composer", 1, 20, 0), ("IJ_master", 4, 16, 0), ("scan temp Influencer", 64, 640, 0), ("EJ[i.disciple=ym]", 4, 24, 640), ("Proj", 4, 24, 0), ("Fix(Influencer)", 1, 40, 0)], io(143, 130, 17, 89, 154)),
        ("filters", 20, &[("scan Composer", 1, 20, 0), ("Sel[x.master<>null]", 1, 16, 20), ("Proj", 1, 16, 0), ("scan Composer", 1, 20, 0), ("IJ_master", 3, 16, 0), ("scan temp Influencer", 48, 576, 0), ("EJ[i.disciple=ym]", 3, 24, 576), ("Sel[i.gen<3]", 3, 20, 24), ("Proj", 3, 20, 0), ("Fix(Influencer)", 1, 36, 0), ("Sel[1<gen]", 1, 20, 36)], io(80, 101, 12, 46, 85)),
        ("mat", 320, &[("scan Composer", 1, 20, 0), ("scan Composer", 1, 20, 0), ("scan Composer", 20, 400, 0), ("EJ[1=1]", 1, 400, 400), ("EJ[a.master=b.master]", 1, 320, 5120)], io(2447, 14573, 40, 800, 2485)),
        ("mat-slots", 400, &[("scan Composer", 1, 20, 0), ("scan Composer", 1, 20, 0), ("scan Composer", 20, 400, 0), ("EJ[1=1]", 1, 400, 400), ("EJ[a=c]", 1, 400, 8000)], io(1017, 3, 40, 800, 1055)),
        ("mat-keyed-via", 400, &[("scan Composer", 1, 20, 0), ("scan Composer", 1, 20, 0), ("scan Composer", 20, 400, 0), ("EJ[1=1]", 1, 400, 400), ("EJ[a=c]", 1, 400, 8000), ("Proj", 1, 400, 0)], io(1412, 8, 40, 800, 1450)),
        ("mat-null-key", 16, &[("scan Composer", 1, 20, 0), ("scan Composer", 1, 20, 0), ("scan Composer", 20, 400, 0), ("EJ[1=1]", 1, 400, 400), ("Proj", 1, 20, 0), ("EJ[a=bm]", 1, 16, 320)], io(218, 442, 2, 20, 218)),
        ("mat-via", 16, &[("scan Composer", 1, 20, 0), ("scan Composer", 1, 20, 0), ("scan Composer", 20, 400, 0), ("EJ[1=1]", 1, 400, 400), ("EJ[a.master=b.master]", 1, 320, 5120), ("Proj", 1, 16, 0)], io(2447, 14893, 40, 800, 2485)),
    ];
    for (name, rows, expected_ops, expected_io) in cases {
        // Small pages: every scan is several chunks, and two frames do
        // not hold an operand.
        let mut m = MusicDb::generate_paged(
            Arc::new(music_catalog()),
            MusicConfig {
                chains: 4,
                chain_len: 5,
                buffer_frames: 2,
                ..Default::default()
            },
            oorq_storage::WidthModel {
                page_size: 256,
                ..Default::default()
            },
        );
        let e = m.db.physical().class_entity(m.composer).unwrap();
        let scan = |var: &str| Pt::entity(e, var);
        let influencer = |join, keep| influencer_over_ij(&m, join, keep, false);
        let cross = || Pt::ej(Expr::int(1).eq(Expr::int(1)), scan("b"), scan("c"));
        let plan = match name {
            "rescan" => influencer(by_master(), None),
            // The same under a projection that dereferences.
            "via" => influencer_over_ij(&m, by_master(), None, true),
            // The conjunct after the probe is evaluated on the survivors.
            "residual" => influencer(by_master().and(Expr::var("i.gen").lt(Expr::int(3))), None),
            // A filter over rows a join built, one over borrowed pages
            // (the fixpoint's read-back) with the literal on the left.
            "filters" => Pt::sel(
                Expr::int(1).lt(Expr::var("gen")),
                influencer(by_master(), Some(Expr::var("i.gen").lt(Expr::int(3)))),
            ),
            // `page_touch_order_is_pinned`'s plan: it dereferences, so it
            // stays with the interpreter.
            "mat" => Pt::ej(
                Expr::path("a", &["master"]).eq(Expr::path("b", &["master"])),
                scan("a"),
                cross(),
            ),
            // The same materialized inner under a slot comparison.
            "mat-slots" => Pt::ej(Expr::var("a").eq(Expr::var("c")), scan("a"), cross()),
            // The same under a projection that dereferences: the join hands
            // up one page's matches at a time and resumes at the next page
            // of the same outer row (a held inner of 40 pages, looked up
            // by key after the first outer row's pass).
            "mat-keyed-via" => Pt::proj(
                vec![
                    ("n".into(), Expr::path("a", &["name"])),
                    ("b".into(), Expr::var("b")),
                ],
                Pt::ej(Expr::var("a").eq(Expr::var("c")), scan("a"), cross()),
            ),
            // `mat` under a projection that dereferences: the join hands
            // up one match at a time and resumes in the middle of the
            // held inner's page.
            "mat-via" => Pt::proj(
                vec![
                    ("n".into(), Expr::path("a", &["name"])),
                    ("b".into(), Expr::var("b")),
                ],
                Pt::ej(
                    Expr::path("a", &["master"]).eq(Expr::path("b", &["master"])),
                    scan("a"),
                    cross(),
                ),
            ),
            // A held inner whose key is `Null` where a composer has no
            // master: every outer row compares.
            _ => Pt::ej(
                Expr::var("a").eq(Expr::var("bm")),
                scan("a"),
                Pt::proj(
                    vec![
                        ("b".into(), Expr::var("b")),
                        ("bm".into(), Expr::path("b", &["master"])),
                    ],
                    cross(),
                ),
            ),
        };
        let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
        m.db.cold_cache();
        let mut ex = Executor::new(&mut m.db, &idx, &methods);
        let out = ex.run(&plan).unwrap();
        let report = ex.report();
        let ops: Vec<_> = report
            .ops
            .iter()
            .map(|o| (o.label.as_str(), o.opens, o.rows_out, o.evals))
            .collect();
        assert_eq!(out.len(), rows, "{name}");
        assert_eq!(ops, expected_ops, "{name}");
        assert_eq!(report.io, expected_io, "{name}");
    }
}

/// A bracket is for a call that can do something. The `open` of a leaf
/// scan and the call that finds it run out take none, so a scan — however
/// often it is rescanned — closes one bracket per page it fetched; and a
/// recursive leg nothing above which can touch a page hands up one chunk
/// per pass instead of one per outer row. A pass that derives rows costs
/// its `Proj` and the `EJ` below each an open, the chunk and the `None`
/// after it (the projection asks the join again before it answers `None`
/// itself, and finds it run out: no bracket); the last pass derives
/// nothing: an open and one `None`.
#[test]
fn a_rescan_costs_its_page_fetches() {
    let paged = || {
        let width = oorq_storage::WidthModel {
            page_size: 256,
            ..Default::default()
        };
        let cfg = MusicConfig {
            chains: 4,
            chain_len: 5,
            ..Default::default()
        };
        MusicDb::generate_paged(Arc::new(music_catalog()), cfg, width)
    };
    for name in ["chain closure", "figure 3 shape"] {
        let mut m = paged();
        // (plan, the recursive leg's join, the operator id of its inner)
        let (plan, join, inner) = match name {
            "chain closure" => (influencer_fix(&m), "EJ[i.disciple=x.master]", 4),
            _ => {
                let plan = influencer_over_ij(&m, by_master(), None, false);
                (plan, "EJ[i.disciple=ym]", 5)
            }
        };
        let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
        let mut ex = Executor::new(&mut m.db, &idx, &methods);
        ex.run(&plan).unwrap();
        let ops = ex.report().ops;
        for scan in ops.iter().filter(|o| o.label.starts_with("scan")) {
            let fetched = scan.page_hits + scan.page_reads;
            assert_eq!(scan.calls, fetched, "{name}: {}", scan.label);
        }
        let join = ops.iter().position(|o| o.label == join).expect(name);
        let (ej, proj, rescanned) = (&ops[join], &ops[join + 1], &ops[inner]);
        let passes = ej.opens;
        assert!(passes > 2 && rescanned.opens > 4 * passes, "{name}");
        assert!(rescanned.calls > rescanned.opens, "{name}: several pages");
        assert_eq!(proj.label, "Proj", "{name}");
        assert_eq!((proj.opens, proj.calls), (passes, 3 * passes - 1), "{name}");
        assert_eq!((ej.opens, ej.calls), (passes, 3 * passes - 1), "{name}");
    }
}

/// A nested loop walks a bare relation or temporary inner, and the
/// temporary a materialized inner was written to, from one hold per
/// opening; a class extent is re-opened per outer row. Every kind charges
/// what a scan opened per outer row did: per operator `(label, opens,
/// calls, rows_out, page_reads, page_hits, page_writes, temp_reads,
/// spill_evictions)` and the query's `IoStats` under 2 frames, recorded
/// from the commit before the hold. Only `calls` moved since, where an
/// exhausted operator stopped taking a bracket: the temporary leaf's `EJ`
/// (3 deriving passes × its redundant `None`) and the `IJ_master` below
/// it (the two redundant `None`s the join asked it for in each). The
/// temporary leaf's fixpoint was re-recorded when that `IJ_master` began
/// to replay: it and its scan derive on the first pass, its two written
/// pages are read back on the other three, and the held delta's counts
/// move only with what the buffer still holds.
#[test]
fn every_nested_loop_inner_keeps_its_counters() {
    let io = |page_reads, page_hits, page_writes, page_evictions, spill_evictions, temp_reads| {
        oorq_storage::IoStats {
            page_reads,
            page_hits,
            page_writes,
            page_evictions,
            spill_evictions,
            temp_reads,
            ..Default::default()
        }
    };
    type Ops = &'static [(&'static str, u64, u64, u64, u64, u64, u64, u64, u64)];
    #[rustfmt::skip]
    let cases: [(&str, usize, &str, Ops, oorq_storage::IoStats); 4] = [
        ("relation leaf", 20, "scan Play", &[("scan Composer", 1, 10, 20, 10, 0, 0, 0, 0), ("scan Play", 20, 40, 400, 20, 20, 0, 0, 0), ("EJ[p.who=x]", 1, 3, 20, 0, 0, 0, 0, 0)], io(30, 20, 0, 28, 0, 0)),
        ("temporary leaf", 40, "scan temp Influencer", &[("scan Composer", 1, 10, 20, 10, 0, 0, 0, 0), ("Sel[x.master<>null]", 1, 18, 16, 0, 20, 0, 0, 0), ("Proj", 1, 18, 16, 0, 16, 0, 0, 0), ("scan Composer", 1, 10, 20, 10, 0, 0, 0, 0), ("IJ_master", 4, 24, 16, 20, 22, 2, 6, 0), ("scan temp Influencer", 64, 96, 640, 37, 59, 0, 37, 0), ("EJ[i.disciple=ym]", 4, 11, 24, 0, 0, 0, 0, 0), ("Proj", 4, 11, 24, 0, 0, 0, 0, 0), ("Fix(Influencer)", 1, 6, 40, 5, 0, 11, 5, 0)], io(82, 117, 13, 87, 0, 48)),
        ("materialized, budget 1", 400, "EJ[a=c]", &[("scan Composer", 1, 10, 20, 10, 0, 0, 0, 0), ("scan Composer", 1, 10, 20, 8, 2, 0, 0, 0), ("scan Composer", 20, 200, 400, 199, 1, 0, 0, 0), ("EJ[1=1]", 1, 202, 400, 0, 0, 0, 0, 0), ("EJ[a=c]", 1, 3, 400, 800, 0, 40, 800, 799)], io(1017, 3, 40, 256, 799, 800)),
        ("class extent", 16, "scan Composer", &[("scan Composer", 1, 10, 20, 9, 1, 0, 0, 0), ("scan Composer", 20, 200, 400, 179, 21, 0, 0, 0), ("EJ[x.master=y]", 1, 3, 16, 0, 400, 0, 0, 0)], io(188, 422, 0, 186, 0, 0)),
    ];
    for (name, rows, inner, expected_ops, expected_io) in cases {
        let mut m = MusicDb::generate_paged(
            Arc::new(music_catalog()),
            MusicConfig {
                chains: 4,
                chain_len: 5,
                buffer_frames: 2,
                ..Default::default()
            },
            oorq_storage::WidthModel {
                page_size: 256,
                ..Default::default()
            },
        );
        let e = m.db.physical().class_entity(m.composer).unwrap();
        let play = m.db.catalog().relation_by_name("Play").unwrap();
        let play = m.db.physical().relation_entity(play).unwrap();
        let scan = |var: &str| Pt::entity(e, var);
        let (plan, memory_budget_pages) = match name {
            "relation leaf" => {
                let who = Expr::var("p.who").eq(Expr::var("x"));
                (Pt::ej(who, scan("x"), Pt::entity(play, "p")), 0)
            }
            "temporary leaf" => (influencer_over_ij(&m, by_master(), None, false), 0),
            // A join inner is materialized, and under a one-page budget
            // every pass re-reads its spilled pages.
            "materialized, budget 1" => {
                let cross = Pt::ej(Expr::int(1).eq(Expr::int(1)), scan("b"), scan("c"));
                (
                    Pt::ej(Expr::var("a").eq(Expr::var("c")), scan("a"), cross),
                    1,
                )
            }
            _ => {
                let master = Expr::path("x", &["master"]).eq(Expr::var("y"));
                (Pt::ej(master, scan("x"), scan("y")), 0)
            }
        };
        let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
        m.db.cold_cache();
        let mut ex = Executor::new(&mut m.db, &idx, &methods).with_config(ExecConfig {
            memory_budget_pages,
            ..ExecConfig::default()
        });
        let out = ex.run(&plan).unwrap();
        let report = ex.report();
        let ops: Vec<_> = report
            .ops
            .iter()
            .map(|o| {
                let (label, opens, calls, rows_out) =
                    (o.label.as_str(), o.opens, o.calls, o.rows_out);
                let (reads, hits, writes) = (o.page_reads, o.page_hits, o.page_writes);
                (
                    label,
                    opens,
                    calls,
                    rows_out,
                    reads,
                    hits,
                    writes,
                    o.temp_reads,
                    o.spill_evictions,
                )
            })
            .collect();
        assert_eq!(out.len(), rows, "{name}");
        assert_eq!(ops, expected_ops, "{name}");
        assert_eq!(report.io, expected_io, "{name}");
        let held = report.ops.iter().rev().find(|o| o.label == inner).unwrap();
        assert!(held.wall_ns > 0, "{name}: {inner} is timed");
    }
}

/// The probe against the loop it replaces, on inputs nobody chose: random
/// rows over every kind of value, random predicates, a multi-row inner
/// chunk. The matches (indices, in order), the `evals` and the first error
/// are the per-pair `truthy` loop's. Three trials in ten are the shape the
/// probe decides in one straight loop — `=` between an `Int`/`Oid` key and
/// an inner slot, nothing else — over chunks some of which hold a `Null` or
/// a `Set` in that slot, which send the whole chunk back to the general loop.
#[test]
fn probe_is_the_per_pair_loop_on_random_rows_and_predicates() {
    use crate::eval::{Counters, EvalCtx, Flat, Pred, RowRef};
    use oorq_prng::Prng;
    use oorq_query::{CmpOp, Literal};

    fn scalar(rng: &mut Prng) -> Value {
        match rng.index(7) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(0.5)),
            2 | 3 => Value::Int(rng.range_i64(0, 3)),
            4 => Value::Float([0.0, 1.0, 1.5, 2.0][rng.index(4)]),
            5 => Value::text(["a", "b"][rng.index(2)]),
            _ => Value::Oid(oorq_storage::Oid::new(
                oorq_schema::ClassId(rng.range_u32(0, 2)),
                rng.range_u32(0, 3),
            )),
        }
    }
    fn value(rng: &mut Prng) -> Value {
        match rng.index(8) {
            0 => Value::Set((0..rng.index(4)).map(|_| scalar(rng)).collect()),
            1 => Value::Tuple(vec![scalar(rng), scalar(rng)]),
            _ => scalar(rng),
        }
    }
    fn operand(rng: &mut Prng) -> Expr {
        match rng.index(10) {
            0 => Expr::var("nope"),
            1 => Expr::Lit(Literal::Null),
            2 => Expr::int(rng.range_i64(0, 3)),
            3 => Expr::Lit(Literal::Float(1.5)),
            4 => Expr::text("a"),
            _ => Expr::var(["a", "b", "c", "d"][rng.index(4)]),
        }
    }
    fn pred(rng: &mut Prng, depth: u32) -> Expr {
        match if depth == 0 { 0 } else { rng.index(6) } {
            1 | 2 => pred(rng, depth - 1).and(pred(rng, depth - 1)),
            3 => pred(rng, depth - 1).or(pred(rng, depth - 1)),
            4 => Expr::Not(Box::new(pred(rng, depth - 1))),
            _ => Expr::Cmp {
                op: [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ][rng.index(6)],
                lhs: Box::new(operand(rng)),
                rhs: Box::new(operand(rng)),
            },
        }
    }

    let m = small_music();
    let methods = MethodRegistry::new();
    let counters = Counters::default();
    let io = m.db.check_out();
    let ctx = EvalCtx {
        db: &m.db,
        methods: &methods,
        counters: &counters,
        io: Some(&io),
    };
    let cols: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
    let mut rng = Prng::new(17);
    let (mut probed, mut failed, mut matched) = (0, 0, 0);
    let (mut straight, mut sent_back) = (0, 0);
    for trial in 0..4000 {
        // A join's split, or a filter's: no outer row at all.
        let split = if rng.chance(0.8) { 2 } else { 0 };
        let keyed = rng.chance(0.3);
        let expr = if keyed {
            let key = match split {
                0 => Expr::int(rng.range_i64(0, 3)),
                _ => Expr::var(["a", "b"][rng.index(2)]),
            };
            let slot = Expr::var(["c", "d"][rng.index(2)]);
            if rng.chance(0.5) {
                key.eq(slot)
            } else {
                slot.eq(key)
            }
        } else {
            pred(&mut rng, 2)
        };
        let pred = Pred::bind(&expr, &cols);
        // A keyed trial compares keys; one value in ten is a planted one.
        let draw = |rng: &mut Prng| match (keyed, rng.index(10)) {
            (false, _) => value(rng),
            (true, 0) => {
                [Value::Null, Value::Set(vec![Value::Int(1), Value::Int(2)])][rng.index(2)].clone()
            }
            (true, n) => [Value::Int(rng.range_i64(0, 3)), scalar(rng)][n % 2].clone(),
        };
        let outer: Vec<Value> = (0..split).map(|_| draw(&mut rng)).collect();
        let inner: Vec<Vec<Value>> = (0..rng.index(7))
            .map(|_| (split..4).map(|_| draw(&mut rng)).collect())
            .collect();
        let Some(probe) = pred.probe(&outer) else {
            continue;
        };
        probed += 1;
        if probe.equal_keys(&inner[..], &mut Vec::new()) {
            straight += 1;
        } else {
            sent_back += usize::from(keyed);
        }

        counters.evals.set(0);
        let mut hits = Vec::new();
        let mut looped = Ok(());
        for (i, row) in inner.iter().enumerate() {
            match pred.truthy(&ctx, RowRef(&outer, row)) {
                Ok(true) => hits.push(i),
                Ok(false) => {}
                Err(e) => {
                    looped = Err(e.to_string());
                    break;
                }
            }
        }
        let looped = (looped.map(|()| hits), counters.evals.get());

        // Through the flat rows a join hands up too, into a hit buffer
        // that still holds an earlier chunk's hits.
        let mut flat_hits = vec![9, 9];
        let width = 4 - split;
        let flat = Flat {
            values: &inner.concat(),
            width,
            len: inner.len(),
        };
        let flat = probe.matches(&ctx, &outer, &flat, &mut flat_hits);
        let flat = flat.map(|()| flat_hits).map_err(|e| e.to_string());

        counters.evals.set(0);
        let mut hits = vec![9];
        let got = probe.matches(&ctx, &outer, &inner[..], &mut hits);
        let got = (
            got.map(|()| hits).map_err(|e| e.to_string()),
            counters.evals.get(),
        );
        assert_eq!(flat, got.0, "trial {trial}: flat rows");
        assert_eq!(
            got, looped,
            "trial {trial}: {expr} on {outer:?} x {inner:?}"
        );
        failed += usize::from(got.0.is_err());
        matched += got.0.map_or(0, |hits| hits.len());
    }
    // The generator reaches what it is meant to: predicates the probe
    // takes, pairs that match, residuals that fail, chunks the straight
    // loop decides and chunks it hands back.
    assert!(
        probed > 400 && matched > 300 && failed > 20 && straight >= 200 && sent_back > 100,
        "{probed} {matched} {failed} {straight} {sent_back}"
    );
    println!("{probed} probed: {straight} by the straight loop, {sent_back} keyed ones sent back");
}

/// A held inner's key table against the probe it stands in for, on
/// openings nobody chose: random multi-page inners (keys repeated on
/// several pages, `Int` keys equal to `Float` values, texts, oids, and in
/// some openings a `Null`, a `Set` or a `List` that sends the whole opening
/// back to comparing), random outer keys, and now and then a predicate the
/// table does not serve. Page by page, every outer row's hits (in order),
/// error and `evals` are `Probe::matches`'s on that page, whether the
/// table filled, served or stood aside.
#[test]
fn a_held_inners_key_table_finds_what_the_probe_finds() {
    use std::cell::RefCell;

    use crate::eval::{Counters, EvalCtx, Pred};
    use crate::pipeline::Keys;
    use oorq_prng::Prng;

    fn key(rng: &mut Prng) -> Value {
        match rng.index(6) {
            0 | 1 => Value::Int(rng.range_i64(0, 3)),
            2 => Value::Float([0.0, 1.0, 1.5, 2.0][rng.index(4)]),
            3 => Value::text(["a", "b"][rng.index(2)]),
            _ => Value::Oid(oorq_storage::Oid::new(
                oorq_schema::ClassId(rng.range_u32(0, 2)),
                rng.range_u32(0, 3),
            )),
        }
    }
    fn unkeyed(rng: &mut Prng) -> Value {
        match rng.index(3) {
            0 => Value::Null,
            1 => Value::Set(vec![Value::Int(1), Value::Int(2)]),
            _ => Value::List(vec![Value::Int(rng.range_i64(0, 3))]),
        }
    }

    let m = small_music();
    let methods = MethodRegistry::new();
    let counters = Counters::default();
    let io = m.db.check_out();
    let ctx = EvalCtx {
        db: &m.db,
        methods: &methods,
        counters: &counters,
        io: Some(&io),
    };
    let cols: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
    let pool = RefCell::new(Vec::new());
    let mut rng = Prng::new(53);
    let (mut served, mut compared, mut fell_back, mut matched) = (0, 0, 0, 0);
    for opening in 0..1500 {
        let slot = Expr::var(["c", "d"][rng.index(2)]);
        let outer_key = Expr::var(["a", "b"][rng.index(2)]);
        let expr = match rng.index(10) {
            0 => outer_key.lt(slot),
            1 => outer_key.eq(slot).and(Expr::var("c").ne(Expr::var("d"))),
            2..=5 => slot.eq(outer_key),
            _ => outer_key.eq(slot),
        };
        let pred = Pred::bind(&expr, &cols);
        // One opening in four plants a value with no or several members.
        let planted = rng.chance(0.25);
        let mut pages: Vec<Vec<Vec<Value>>> = (0..1 + rng.index(4))
            .map(|_| {
                let rows = (0..rng.index(6)).map(|_| vec![key(&mut rng), key(&mut rng)]);
                rows.collect()
            })
            .collect();
        if planted {
            let page = rng.index(pages.len());
            let row = vec![unkeyed(&mut rng), unkeyed(&mut rng)];
            let at = rng.index(pages[page].len() + 1);
            pages[page].insert(at, row);
        }
        let mut keys = Keys::Unfilled;
        for _ in 0..1 + rng.index(8) {
            let outer = [key(&mut rng), key(&mut rng)];
            let Some(probe) = pred.probe(&outer) else {
                continue;
            };
            for (page, rows) in pages.iter().enumerate() {
                let full = matches!(keys, Keys::Full { .. });
                counters.evals.set(0);
                let mut hits = vec![9];
                let got = keys.matches(
                    &pool,
                    &ctx,
                    &probe,
                    &outer,
                    page as u32,
                    &rows[..],
                    &mut hits,
                );
                let got = (
                    got.map(|()| hits).map_err(|e| e.to_string()),
                    counters.evals.get(),
                );
                counters.evals.set(0);
                let mut hits = vec![9, 9];
                let want = probe.matches(&ctx, &outer, &rows[..], &mut hits);
                let want = (
                    want.map(|()| hits).map_err(|e| e.to_string()),
                    counters.evals.get(),
                );
                let case =
                    format!("opening {opening}: {expr} on {outer:?}, page {page} of {pages:?}");
                assert_eq!(got, want, "{case}");
                let served_here = full && probe.keyed().is_some();
                served += usize::from(served_here);
                compared += usize::from(!served_here);
                matched += want.0.map_or(0, |hits| hits.len());
            }
            keys.pass_done();
        }
        if planted && matches!(keys, Keys::Off) {
            fell_back += 1;
        }
        assert!(
            !(planted && matches!(keys, Keys::Full { .. })),
            "opening {opening}: a table over {pages:?}"
        );
        keys.let_go(&pool);
        assert!(pool.borrow().len() <= 1, "a table is given back once");
    }
    // The generator reaches what it is meant to: pages the table decides,
    // pages compared, matches, and openings a planted value sent back.
    assert!(
        served > 2_000 && compared > 2_000 && matched > 2_000 && fell_back > 100,
        "{served} served, {compared} compared, {matched} matched, {fell_back} fell back"
    );
}

/// Rows are deduplicated once, where they can first repeat. A stored
/// relation is a bag: a projection over it keeps its set of rows seen, and
/// a root that is not a projection — a selection — leaves the
/// duplicates to `Executor::run`. What a fixpoint hands up is a set: the
/// projections over it that keep every column skip theirs, and the root
/// projection's answer is not deduplicated again. Per-operator `(label,
/// opens, rows_out)` recorded at the commit before either shortcut, but
/// for the `closed` recursive leg's root projection: it asks the
/// fixpoint's own set, so its `rows_out` counts the rows new to the
/// fixpoint — none, where it counted the 12 its own set let through.
#[test]
fn a_bag_is_deduplicated_once_and_a_set_not_again() {
    let mut m = MusicDb::generate_paged(
        Arc::new(music_catalog()),
        MusicConfig {
            chains: 3,
            chain_len: 4,
            ..Default::default()
        },
        oorq_storage::WidthModel {
            page_size: 256,
            ..Default::default()
        },
    );
    // `Play` holds one row per composer; now every row twice, the second
    // copies on pages of their own.
    let play = m.db.catalog().relation_by_name("Play").unwrap();
    let e = m.db.physical().relation_entity(play).unwrap();
    for row in m.db.scan_raw(e) {
        m.db.insert_row(play, row.values).unwrap();
    }
    assert_eq!((m.db.entity_len(e), m.db.num_pages(e)), (24, 3));
    let cols = |var: &str| {
        let col = |field: &str| (field.to_string(), Expr::var(format!("{var}.{field}")));
        vec![col("who"), col("instrument")]
    };
    let projected = || Pt::proj(cols("p"), Pt::entity(e, "p"));
    let selected = || {
        Pt::sel(
            Expr::var("p.who").ne(Expr::Lit(oorq_query::Literal::Null)),
            Pt::entity(e, "p"),
        )
    };
    // The same rows through a fixpoint whose recursive side derives
    // nothing new, under an identity projection.
    let again = Pt::sel(
        Expr::var("t.who").ne(Expr::Lit(oorq_query::Literal::Null)),
        Pt::temp("Played", "t"),
    );
    let closed = Pt::proj(
        vec![
            ("who".into(), Expr::var("who")),
            ("instrument".into(), Expr::var("instrument")),
        ],
        Pt::fix("Played", Pt::union(projected(), Pt::proj(cols("t"), again))),
    );
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    type Ops = &'static [(&'static str, u64, u64)];
    #[rustfmt::skip]
    let cases: [(&str, Pt, &str, Ops); 3] = [
        ("projected", projected(), "Project", &[("scan Play", 1, 24), ("Proj", 1, 12)]),
        ("closed", closed, "Project", &[("scan Play", 1, 24), ("Proj", 1, 12), ("scan temp Played", 1, 12), ("Sel[t.who<>null]", 1, 12), ("Proj", 1, 0), ("Fix(Played)", 1, 12), ("Proj", 1, 12)]),
        ("selected", selected(), "Filter", &[("scan Play", 1, 24), ("Sel[p.who<>null]", 1, 24)]),
    ];
    for (name, plan, root, expected_ops) in cases {
        let mut ex = Executor::new(&mut m.db, &idx, &methods);
        let out = ex.run(&plan).unwrap();
        let distinct: std::collections::HashSet<_> = out.rows.iter().collect();
        assert_eq!(
            (out.len(), distinct.len()),
            (12, 12),
            "{name}: each row once"
        );
        let lowered = format!("{:?}", ex.last_plan().unwrap().root);
        assert!(lowered.starts_with(root), "{name}: the root is a {root}");
        let report = ex.report();
        let ops: Vec<_> = report
            .ops
            .iter()
            .map(|o| (o.label.as_str(), o.opens, o.rows_out))
            .collect();
        assert_eq!(ops, expected_ops, "{name}");
    }
}

/// The closure schema's `Edge` over a cycle and a diamond, 0→1→2→0 and
/// 0→3→2, two rows a page.
fn cycle_and_diamond() -> oorq_datagen::ClosureDb {
    let storage = oorq_storage::StorageConfig {
        width: oorq_storage::WidthModel {
            page_size: 48,
            ..Default::default()
        },
        ..Default::default()
    };
    let catalog = Arc::new(oorq_datagen::closure_catalog());
    let mut db = oorq_storage::Database::new(catalog, storage);
    let edge = db.catalog().relation_by_name("Edge").unwrap();
    for (a, b) in [(0, 1), (1, 2), (2, 0), (0, 3), (3, 2)] {
        db.insert_row(edge, vec![Value::Int(a), Value::Int(b)])
            .unwrap();
    }
    oorq_datagen::ClosureDb {
        db,
        config: oorq_datagen::ClosureConfig { nodes: 4 },
    }
}

/// The reference evaluator's closure of `c`, sorted.
fn sorted_closure(c: &oorq_datagen::ClosureDb) -> Vec<Vec<Value>> {
    let query = c.closure_query();
    let mut rows = eval_query_graph(&c.db, &MethodRegistry::new(), &query)
        .unwrap()
        .rows;
    rows.sort();
    rows
}

/// The extension of `c`'s `Edge`.
fn edge_entity(c: &oorq_datagen::ClosureDb) -> oorq_storage::EntityId {
    let edge = c.db.catalog().relation_by_name("Edge").unwrap();
    c.db.physical().relation_entity(edge).unwrap()
}

/// `[a: from.a, b: to.b]`.
fn ends(from: &str, to: &str) -> Vec<(String, Expr)> {
    vec![
        ("a".into(), Expr::var(format!("{from}.a"))),
        ("b".into(), Expr::var(format!("{to}.b"))),
    ]
}

/// A fixpoint whose passes derive rows it derived before. Over a cycle and
/// a diamond (0→1→2→0, 0→3→2) the recursive leg's projection is handed
/// the same row twice in one pass, and rows the accumulator already
/// holds; it asks the fixpoint's set and turns both away. What it keeps
/// is the reference answer, through `run` and `answer`, unbounded and
/// under an 8-page budget on two-row pages. The delta curve, the
/// per-operator `(label, opens, rows_out)`, the page I/O and the `evals`
/// were recorded from the commit before `RowSet`, but for that
/// projection's `rows_out`: it counted the 16 rows its own per-pass set
/// let through, and counts the 11 new to the fixpoint since it borrows
/// the fixpoint's.
#[test]
fn a_closure_over_a_cycle_and_a_diamond_keeps_each_row_once() {
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    let c = cycle_and_diamond();
    let reference = sorted_closure(&c);
    assert_eq!(reference.len(), 16, "every node reaches every node");

    let e = edge_entity(&c);
    let base = Pt::proj(ends("e", "e"), Pt::entity(e, "e"));
    let rec = Pt::proj(
        ends("p", "e"),
        Pt::ej(
            Expr::var("p.b").eq(Expr::var("e.a")),
            Pt::temp("Reach", "p"),
            Pt::entity(e, "e"),
        ),
    );
    let plan = Pt::fix("Reach", Pt::union(base, rec));

    let io = |page_reads, page_hits, spill_evictions, temp_reads| oorq_storage::IoStats {
        page_reads,
        page_hits,
        page_writes: 17,
        spill_evictions,
        temp_reads,
        ..Default::default()
    };
    // The recursive projection keeps 11 of the join's 20 rows over three
    // passes: the rows new to the fixpoint, which the sink appends.
    #[rustfmt::skip]
    let ops = [("scan Edge", 1, 5), ("Proj", 1, 5), ("scan temp Reach", 3, 16), ("scan Edge", 16, 80), ("EJ[p.b=e.a]", 3, 20), ("Proj", 3, 11), ("Fix(Reach)", 1, 16)];
    for (budget, expected_io) in [(0, io(3, 65, 0, 0)), (8, io(6, 62, 3, 3))] {
        let mut runs = Vec::new();
        for answer in [false, true] {
            let mut c = cycle_and_diamond();
            let io0 = c.db.io_stats();
            let mut ex = Executor::new(&mut c.db, &idx, &methods).with_config(ExecConfig {
                memory_budget_pages: budget,
                ..ExecConfig::default()
            });
            let out = if answer {
                let lowered = ex.prepare(&plan).unwrap();
                ex.answer(&lowered)
            } else {
                ex.run(&plan)
            }
            .unwrap();
            let report = ex.report();
            let case = format!("budget {budget}, answer {answer}");
            let mut sorted = out.rows.clone();
            sorted.sort();
            assert_eq!(sorted, reference, "{case}");
            assert_eq!((report.io - io0, report.evals), (expected_io, 80), "{case}");
            if !answer {
                let deltas: Vec<_> = report.fix_deltas.iter().map(|c| &c.deltas[..]).collect();
                assert_eq!(deltas, [[5, 5, 6, 0]], "{case}");
                let got: Vec<_> = report
                    .ops
                    .iter()
                    .map(|o| (o.label.as_str(), o.opens, o.rows_out))
                    .collect();
                assert_eq!(got, ops, "{case}");
            }
            runs.push(out.rows);
        }
        assert_eq!(
            runs[0], runs[1],
            "budget {budget}: `answer` is `run`, in order"
        );
    }
}

/// A fixpoint's temporaries are reused by name and record shape: a
/// record's width sets how many fit a page. A three-column `Reach` run
/// after a two-column one, over the executor state the first left, counts
/// what a fresh executor counts, on two-row pages, unbounded and under an
/// 8-page budget. (Reused by name alone, the two-column temporaries held
/// the three-column rows: 17 pages written instead of 32, and 3 spills
/// instead of 29 at budget 8.)
#[test]
fn a_fixpoints_temporaries_are_reused_only_for_its_record_shape() {
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    let e = edge_entity(&cycle_and_diamond());
    // `[a, b]`, or `[a, b, c]` with `c` a copy of `b`.
    let reach = |extra: bool| {
        let cols = |from: &str, to: &str| {
            let mut cols = ends(from, to);
            if extra {
                cols.push(("c".into(), Expr::var(format!("{to}.b"))));
            }
            cols
        };
        let base = Pt::proj(cols("e", "e"), Pt::entity(e, "e"));
        let rec = Pt::proj(
            cols("p", "e"),
            Pt::ej(
                Expr::var("p.b").eq(Expr::var("e.a")),
                Pt::temp("Reach", "p"),
                Pt::entity(e, "e"),
            ),
        );
        Pt::fix("Reach", Pt::union(base, rec))
    };
    let (two, three) = (reach(false), reach(true));
    for budget in [0, 8] {
        let config = ExecConfig {
            memory_budget_pages: budget,
            ..ExecConfig::default()
        };
        let run = |c: &mut oorq_datagen::ClosureDb, state: ExecState, pt: &Pt| {
            c.db.cold_cache();
            let mut ex = Executor::new(&mut c.db, &idx, &methods)
                .with_config(config.clone())
                .with_state(state);
            let rows = ex.run(pt).unwrap().rows.len();
            let report = ex.report();
            ((rows, report.io, report.evals), ex.into_state())
        };
        let (fresh, _) = run(&mut cycle_and_diamond(), ExecState::default(), &three);
        let mut c = cycle_and_diamond();
        let (_, state) = run(&mut c, ExecState::default(), &two);
        let (reused, _) = run(&mut c, state, &three);
        assert_eq!(reused, fresh, "budget {budget}");
        assert_eq!(fresh.1.page_writes, 32, "budget {budget}");
    }
}

/// The Figure 3 query at `gen >= 3` over the Influencer closure whose
/// recursive leg joins the delta with `IJ_master(scan Composer)`: an
/// operand that reads no temporary, so lowering marks it replayed.
fn fig3_over_ij(m: &MusicDb) -> Pt {
    Pt::proj(
        vec![("name".into(), Expr::path("i", &["disciple", "name"]))],
        Pt::sel(
            Expr::path("i", &["master", "works", "instruments", "name"])
                .eq(Expr::text("harpsichord"))
                .and(Expr::path("i", &["gen"]).ge(Expr::int(3))),
            Pt::proj(
                vec![
                    ("i.master".into(), Expr::var("master")),
                    ("i.disciple".into(), Expr::var("disciple")),
                    ("i.gen".into(), Expr::var("gen")),
                ],
                influencer_over_ij(m, by_master(), None, false),
            ),
        ),
    )
}

/// The recursive leg's `IJ_master(scan Composer)` derives its rows on the
/// first pass and replays them on every later one: its scan opens once a
/// run, it opens once a pass, and only the first pass's rows are its
/// `rows_out`. The answer, `evals` and delta curve are what they were
/// before the replay (recorded from the parent commit), at no budget and
/// at a one-page budget, where the replay temporary spills and is read
/// back from the page store; the answer is the reference evaluator's.
#[test]
fn a_replayed_operand_serves_every_pass_from_one_derivation() {
    let reference = {
        let m = fig3_music();
        let q = fig3_query_gen(&m.db.catalog_rc(), 3);
        let rows = eval_query_graph(&m.db, &MethodRegistry::new(), &q).unwrap();
        let mut rows = rows.rows;
        rows.sort();
        rows
    };
    assert!(!reference.is_empty());
    let mut answers = Vec::new();
    for memory_budget_pages in [0, 1] {
        let mut m = fig3_music();
        let plan = fig3_over_ij(&m);
        let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
        let mut ex = Executor::new(&mut m.db, &idx, &methods).with_config(ExecConfig {
            memory_budget_pages,
            ..ExecConfig::default()
        });
        let out = ex.run(&plan).unwrap();
        let report = ex.report();
        let case = format!("budget {memory_budget_pages}");
        let mut sorted = out.rows.clone();
        sorted.sort();
        assert_eq!(sorted, reference, "{case}");
        let deltas: Vec<_> = report.fix_deltas.iter().map(|c| &c.deltas[..]).collect();
        assert_eq!(deltas, [[14, 12, 10, 8, 6, 4, 2, 0]], "{case}");
        assert_eq!(report.evals, 992, "{case}");

        let label = |o: &OpReport| o.label.clone();
        let replayed: Vec<_> = report.ops.iter().filter(|o| o.replays > 0).collect();
        assert_eq!(
            replayed.iter().map(|o| label(o)).collect::<Vec<_>>(),
            ["IJ_master"]
        );
        let ij = replayed[0];
        let passes = report.fix_deltas[0].deltas.len() as u64 - 1;
        assert_eq!((ij.opens, ij.replays), (passes, passes - 1), "{case}");
        assert_eq!(ij.rows_out, 14, "{case}: one pass of masters");
        assert!(
            ij.page_writes > 0,
            "{case}: the first pass writes them down"
        );
        let scan = &report.ops[ij.id - 1];
        assert_eq!(
            (scan.label.as_str(), scan.opens),
            ("scan Composer", 1),
            "{case}"
        );
        let join = report
            .ops
            .iter()
            .find(|o| o.label.starts_with("EJ"))
            .unwrap();
        assert_eq!(join.rows_in, 882, "{case}: the replayed rows are pulled");
        if memory_budget_pages == 1 {
            assert!(ij.temp_reads > 0, "{case}: the spilled replay is re-read");
        } else {
            assert_eq!(ij.temp_reads, 0, "{case}: the replay stays resident");
        }
        answers.push(out.rows);
    }
    assert_eq!(answers[0], answers[1], "a spilled replay answers alike");
}

/// A recursive leg every operand of which reads the temporary — the
/// closure's `EJ(scan temp, scan Composer)` — replays nothing: its
/// operators' reports and the run's `IoStats` are the parent commit's.
#[test]
fn a_leg_that_reads_the_delta_throughout_replays_nothing() {
    let mut m = fig3_music();
    let plan = influencer_fix(&m);
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    m.db.cold_cache();
    let mut ex = Executor::new(&mut m.db, &idx, &methods);
    ex.run(&plan).unwrap();
    let report = ex.report();
    let ops: Vec<_> = report
        .ops
        .iter()
        .map(|o| {
            (
                o.label.as_str(),
                [o.opens, o.replays, o.calls, o.rows_in, o.rows_out],
                [o.page_reads, o.page_hits, o.page_writes, o.temp_reads],
                [o.spill_evictions, o.index_reads, o.evals, o.method_calls],
            )
        })
        .collect();
    #[rustfmt::skip]
    let expected = [
        ("scan Composer", [1, 0, 1, 0, 16], [1, 0, 0, 0], [0, 0, 0, 0]),
        ("Sel[x.master<>null]", [1, 0, 16, 16, 14], [0, 16, 0, 0], [0, 0, 16, 0]),
        ("Proj", [1, 0, 16, 14, 14], [0, 14, 0, 0], [0, 0, 0, 0]),
        ("scan temp Influencer", [7, 0, 7, 0, 56], [0, 7, 0, 0], [0, 0, 0, 0]),
        ("scan Composer", [56, 0, 56, 0, 896], [0, 56, 0, 0], [0, 0, 0, 0]),
        ("EJ[i.disciple=x.master]", [7, 0, 20, 952, 42], [0, 896, 0, 0], [0, 0, 784, 0]),
        ("Proj", [7, 0, 20, 42, 42], [0, 0, 0, 0], [0, 0, 0, 0]),
        ("Fix(Influencer)", [1, 0, 2, 56, 56], [0, 1, 8, 0], [0, 0, 0, 0]),
    ];
    assert_eq!(ops, expected);
    let io = oorq_storage::IoStats {
        page_reads: 1,
        page_hits: 990,
        page_writes: 8,
        ..Default::default()
    };
    assert_eq!(report.io, io);
}

/// [`small_music`] on 128-byte pages: the Influencer closure's
/// accumulator takes several.
fn small_music_paged() -> MusicDb {
    let small = small_music();
    let width = oorq_storage::WidthModel {
        page_size: 128,
        ..Default::default()
    };
    MusicDb::generate_paged(small.db.catalog_rc(), small.config, width)
}

/// `[n: n, …]` over `input`: its columns `names`, each kept as it is.
fn keep(names: &[&str], input: Pt) -> Pt {
    let cols = names.iter().map(|n| (n.to_string(), Expr::var(*n)));
    Pt::proj(cols.collect(), input)
}

/// An identity projection — every column kept in place, over an input
/// that cannot repeat a row — hands its input's chunks up as they are:
/// over a fixpoint's read-back (a scan of its accumulator) the pages the
/// store lends, over a selection of class objects the rows the selection
/// built. Its run reports what the projection that copied each row
/// reported: per operator `(label, [opens, rows_in, rows_out, calls],
/// [page_reads, page_hits, page_writes], evals)` and the run's `IoStats`
/// and `evals`, recorded from the commit before the hand-up, and its
/// input's answer. One figure moves: over the read-back the projection
/// closes a bracket per page it hands up (7), where the copying one
/// drained the five pages into one chunk (3). A projection that reorders
/// or drops a column builds its rows.
#[test]
fn an_identity_projection_hands_its_input_chunks_up() {
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    let m = small_music_paged();
    let fix = influencer_fix(&m);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let chosen = Pt::sel(
        Expr::path("x", &["master"]).ne(Expr::Lit(oorq_query::Literal::Null)),
        Pt::entity(e, "x"),
    );
    let chunks = |plan: &Pt| {
        let mut m = small_music_paged();
        let mut ex = Executor::new(&mut m.db, &idx, &methods);
        let lowered = ex.prepare(plan).unwrap();
        ex.root_chunks(&lowered).unwrap()
    };
    let run = |plan: &Pt| {
        let mut m = small_music_paged();
        m.db.cold_cache();
        let mut ex = Executor::new(&mut m.db, &idx, &methods);
        let out = ex.run(plan).unwrap();
        (out, ex.report())
    };
    let io = |page_reads, page_hits, page_writes| oorq_storage::IoStats {
        page_reads,
        page_hits,
        page_writes,
        ..Default::default()
    };
    type Ops = &'static [(&'static str, [u64; 4], [u64; 3], u64)];
    #[rustfmt::skip]
    let cases: [(Pt, &Pt, bool, Ops, _, u64); 2] = [
        (keep(&["master", "disciple", "gen"], fix.clone()), &fix, true, &[
            ("scan Composer", [1, 0, 12, 12], [12, 0, 0], 0),
            ("Sel[x.master<>null]", [1, 12, 9, 11], [0, 12, 0], 12),
            ("Proj", [1, 9, 9, 11], [0, 9, 0], 0),
            ("scan temp Influencer", [3, 0, 18, 6], [0, 6, 0], 0),
            ("scan Composer", [18, 0, 216, 216], [0, 216, 0], 0),
            ("EJ[i.disciple=x.master]", [3, 234, 9, 8], [0, 216, 0], 162),
            ("Proj", [3, 9, 9, 8], [0, 0, 0], 0),
            ("Fix(Influencer)", [1, 18, 18, 6], [0, 5, 11], 0),
            ("Proj", [1, 18, 18, 7], [0, 0, 0], 0),
        ], io(12, 464, 11), 174),
        (keep(&["x"], chosen.clone()), &chosen, false, &[
            ("scan Composer", [1, 0, 12, 12], [12, 0, 0], 0),
            ("Sel[x.master<>null]", [1, 12, 9, 3], [0, 12, 0], 12),
            ("Proj", [1, 9, 9, 3], [0, 0, 0], 0),
        ], io(12, 12, 0), 12),
    ];
    for (plan, input, lent, expected_ops, expected_io, expected_evals) in cases {
        let got = chunks(&plan);
        assert_eq!(got, chunks(input), "the input's chunks");
        assert!(!got.is_empty() && got.iter().all(|(l, _)| *l == lent));

        let (out, report) = run(&plan);
        let ops: Vec<_> = report
            .ops
            .iter()
            .map(|o| {
                (
                    o.label.as_str(),
                    [o.opens, o.rows_in, o.rows_out, o.calls],
                    [o.page_reads, o.page_hits, o.page_writes],
                    o.evals,
                )
            })
            .collect();
        assert_eq!(ops, expected_ops);
        assert_eq!((report.io, report.evals), (expected_io, expected_evals));
        assert_eq!(out.rows, run(input).0.rows);
    }

    // Reordered or narrowed, the projection builds its rows.
    let read_back = chunks(&fix);
    assert!(read_back.len() > 2, "{} pages", read_back.len());
    let rows = read_back.iter().flat_map(|(_, rows)| rows);
    let reordered: Vec<Vec<Value>> = rows
        .clone()
        .map(|r| vec![r[2].clone(), r[0].clone(), r[1].clone()])
        .collect();
    let mut masters: Vec<Vec<Value>> = Vec::new();
    for r in rows {
        if !masters.contains(&vec![r[0].clone()]) {
            masters.push(vec![r[0].clone()]);
        }
    }
    assert!(masters.len() < reordered.len());
    for (names, expected) in [
        (&["gen", "master", "disciple"][..], reordered),
        (&["master"], masters),
    ] {
        let got = chunks(&keep(names, fix.clone()));
        assert!(got.iter().all(|(lent, _)| !lent), "{names:?}: built rows");
        let got: Vec<_> = got.into_iter().flat_map(|(_, rows)| rows).collect();
        assert_eq!(got, expected, "{names:?}");
    }
}

/// A closure whose recursive leg builds `[b, a]` while the accumulator
/// holds `[a, b]`: lowering gives the fixpoint a `perm`, and the leg's
/// root asks the fixpoint's set in the accumulator's order. Over the
/// cycle and the diamond it answers the reference through `run` and
/// `answer`, unbounded and under an 8-page budget, with the curve and the
/// per-operator rows of the closure whose leg is in order.
#[test]
fn a_reordered_recursive_leg_asks_in_the_accumulators_order() {
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    let c = cycle_and_diamond();
    let reference = sorted_closure(&c);
    let e = edge_entity(&c);
    let base = Pt::proj(ends("e", "e"), Pt::entity(e, "e"));
    let rec = Pt::proj(
        vec![
            ("b".into(), Expr::var("e.b")),
            ("a".into(), Expr::var("p.a")),
        ],
        Pt::ej(
            Expr::var("p.b").eq(Expr::var("e.a")),
            Pt::temp("Reach", "p"),
            Pt::entity(e, "e"),
        ),
    );
    let plan = Pt::fix("Reach", Pt::union(base, rec));
    #[rustfmt::skip]
    let ops = [("scan Edge", 1, 5), ("Proj", 1, 5), ("scan temp Reach", 3, 16), ("scan Edge", 16, 80), ("EJ[p.b=e.a]", 3, 20), ("Proj", 3, 11), ("Fix(Reach)", 1, 16)];
    for budget in [0, 8] {
        for answer in [false, true] {
            let mut c = cycle_and_diamond();
            let mut ex = Executor::new(&mut c.db, &idx, &methods).with_config(ExecConfig {
                memory_budget_pages: budget,
                ..ExecConfig::default()
            });
            let lowered = ex.prepare(&plan).unwrap();
            let PhysOp::FixPoint { perm, .. } = &lowered.root else {
                panic!("a fixpoint at the root")
            };
            assert_eq!(perm.as_deref(), Some(&[1, 0][..]));
            let out = if answer {
                ex.answer(&lowered)
            } else {
                ex.run(&plan)
            }
            .unwrap();
            let case = format!("budget {budget}, answer {answer}");
            let mut sorted = out.rows.clone();
            sorted.sort();
            assert_eq!(sorted, reference, "{case}");
            if !answer {
                let report = ex.report();
                let deltas: Vec<_> = report.fix_deltas.iter().map(|c| &c.deltas[..]).collect();
                assert_eq!(deltas, [[5, 5, 6, 0]], "{case}");
                let got: Vec<_> = report
                    .ops
                    .iter()
                    .map(|o| (o.label.as_str(), o.opens, o.rows_out))
                    .collect();
                assert_eq!(got, ops, "{case}");
            }
        }
    }
}

/// A leg root that is a replayed operand does not borrow its fixpoint's
/// set: a later pass reads its rows back rather than projecting them, so
/// they reach the sink unasked, and the sink asks. Lowering makes no such
/// plan — a recursive leg reads its temporary, and only an operand that
/// reads none is replayed — so it is made from a lowered closure whose
/// leg is `[a: p.a, b: p.b]` over the temporary: the leg reads `Edge`
/// instead and its root is marked replayed. The base leg seeds the edges
/// out of node 0, the leg derives every edge: the first pass keeps the
/// three new ones, the second (a replay) none. Were the replayed rows not
/// asked, every pass would add them again until the iteration bound. The
/// answer, under a projection that does not deduplicate it again, is the
/// reference evaluator's, unbounded and under an 8-page budget.
#[test]
fn a_replayed_leg_root_leaves_the_check_to_the_sink() {
    let (idx, methods) = (IndexSet::new(), MethodRegistry::new());
    let c = cycle_and_diamond();
    let text = "view Path as
      select [a: e.a, b: e.b] from e in Edge where e.a = 0
      union
      select [a: p.a, b: p.b] from p in Edge;
    select [a: r.a, b: r.b] from r in Path";
    let query = oorq_query::parse_query(c.db.catalog(), text).unwrap();
    let mut reference = eval_query_graph(&c.db, &methods, &query).unwrap().rows;
    reference.sort();
    assert_eq!(reference.len(), 5, "every edge");

    let e = edge_entity(&c);
    let base = Pt::proj(
        ends("e", "e"),
        Pt::sel(Expr::var("e.a").eq(Expr::int(0)), Pt::entity(e, "e")),
    );
    let rec = Pt::proj(ends("p", "p"), Pt::temp("Reach", "p"));
    let plan = keep(&["a", "b"], Pt::fix("Reach", Pt::union(base, rec)));
    let env = oorq_pt::PtEnv::new(c.db.catalog(), c.db.physical());
    let mut lowered = oorq_pt::lower(&env, &plan).unwrap();
    let PhysOp::Project { input: fix, .. } = &mut lowered.root else {
        panic!("a projection at the root")
    };
    let PhysOp::FixPoint { rec, .. } = &mut **fix else {
        panic!("over the fixpoint")
    };
    let PhysOp::Project { meta, input, .. } = &mut **rec else {
        panic!("a projection at the leg's root")
    };
    let PhysOp::TempScan {
        meta: scan, cols, ..
    } = &**input
    else {
        panic!("over the temporary")
    };
    **input = PhysOp::EntityScan {
        meta: scan.clone(),
        entity: e,
        var: "p".into(),
        class: None,
        cols: cols.clone(),
    };
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    meta.replay = Some(vec![int.clone(), int]);

    for budget in [0, 8] {
        let mut c = cycle_and_diamond();
        let mut ex = Executor::new(&mut c.db, &idx, &methods).with_config(ExecConfig {
            memory_budget_pages: budget,
            ..ExecConfig::default()
        });
        let mut rows = ex.answer(&lowered).unwrap().rows;
        rows.sort();
        assert_eq!(rows, reference, "budget {budget}");
    }
}
