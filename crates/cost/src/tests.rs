//! Cost-model tests: each Figure 5 formula exercised on generated data.

use std::sync::Arc;

use oorq_datagen::{MusicConfig, MusicDb};
use oorq_pt::{Pt, PtError};
use oorq_query::paper::music_catalog;
use oorq_query::Expr;
use oorq_storage::DbStats;

use crate::*;

fn setup(cfg: MusicConfig) -> (MusicDb, DbStats) {
    let cat = Arc::new(music_catalog());
    let m = MusicDb::generate(cat, cfg);
    let stats = DbStats::collect(&m.db);
    (m, stats)
}

fn model<'a>(m: &'a MusicDb, stats: &'a DbStats) -> CostModel<'a> {
    CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        stats,
        CostParams::default(),
    )
}

#[test]
fn entity_scan_costs_its_pages() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let pc = cm.cost(&Pt::entity(e, "x")).unwrap();
    let s = stats.entity(e).unwrap();
    assert_eq!(pc.cost.io, s.pages as f64);
    assert_eq!(pc.rows, s.cardinality as f64);
    assert_eq!(pc.cost.cpu, 0.0);
}

#[test]
fn selection_reduces_cardinality_by_selectivity() {
    let (m, stats) = setup(MusicConfig {
        chains: 10,
        chain_len: 10,
        ..Default::default()
    });
    let cm = model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    // name is a key: equality selectivity 1/100.
    let sel = Pt::sel(
        Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        Pt::entity(e, "x"),
    );
    let pc = cm.cost(&sel).unwrap();
    assert!(
        (pc.rows - 1.0).abs() < 0.2,
        "expected ~1 row, got {}",
        pc.rows
    );
    // CPU: one evaluation per scanned row.
    assert!(pc.cost.cpu >= 100.0);
}

#[test]
fn deep_path_predicate_costs_dereferences() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let cheap = Pt::sel(
        Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        Pt::entity(e, "x"),
    );
    // The §2.3 expensive selection: works.instruments.name.
    let expensive = Pt::sel(
        Expr::path("x", &["works", "instruments", "name"]).eq(Expr::text("harpsichord")),
        Pt::entity(e, "x"),
    );
    let c1 = cm.cost(&cheap).unwrap();
    let c2 = cm.cost(&expensive).unwrap();
    assert!(
        c2.cost.io > c1.cost.io * 2.0,
        "path predicate must cost far more I/O: {} vs {}",
        c2.cost.io,
        c1.cost.io
    );
}

#[test]
fn computed_attribute_charges_method_cost() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let on_stored = Pt::sel(
        Expr::path("x", &["birth_year"]).ge(Expr::int(1700)),
        Pt::entity(e, "x"),
    );
    // `age` is computed with eval_cost 2.0 per invocation.
    let on_method = Pt::sel(
        Expr::path("x", &["age"]).ge(Expr::int(40)),
        Pt::entity(e, "x"),
    );
    let c1 = cm.cost(&on_stored).unwrap();
    let c2 = cm.cost(&on_method).unwrap();
    assert!(
        c2.cost.cpu > c1.cost.cpu,
        "{} vs {}",
        c2.cost.cpu,
        c1.cost.cpu
    );
}

#[test]
fn ij_cost_reflects_clustering() {
    let cat = Arc::new(music_catalog());
    let unclustered = MusicDb::generate(
        Arc::clone(&cat),
        MusicConfig {
            clustered: false,
            ..Default::default()
        },
    );
    let clustered = MusicDb::generate(
        cat,
        MusicConfig {
            clustered: true,
            ..Default::default()
        },
    );
    let su = DbStats::collect(&unclustered.db);
    let sc = DbStats::collect(&clustered.db);
    let build = |m: &MusicDb| {
        let e = m.db.physical().class_entity(m.composer).unwrap();
        let t = m.db.physical().class_entity(m.composition).unwrap();
        Pt::IJ {
            on: Expr::path("x", &["works"]),
            step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composer, m.works_attr),
            out: "w".into(),
            input: Box::new(Pt::entity(e, "x")),
            target: Box::new(Pt::entity(t, "wt")),
        }
    };
    let mu = model(&unclustered, &su);
    let mc = model(&clustered, &sc);
    let cu = mu.cost(&build(&unclustered)).unwrap();
    let cc = mc.cost(&build(&clustered)).unwrap();
    assert!(
        cc.cost.io < cu.cost.io,
        "clustered IJ must be cheaper: {} vs {}",
        cc.cost.io,
        cu.cost.io
    );
    // Cardinality: composers * works fan-out either way.
    assert!((cu.rows - cc.rows).abs() < 1e-6);
    assert!((cu.rows - (unclustered.composer_count() as f64 * 3.0)).abs() < 1.0);
}

#[test]
fn pij_probe_follows_figure5_formula() {
    let (mut m, _) = setup(MusicConfig::default());
    // Register a works.instruments path index descriptor.
    let composer = m.composer;
    let composition = m.composition;
    let idx = m.db.physical_mut().add_index(
        oorq_storage::IndexKindDesc::Path {
            path: vec![(composer, m.works_attr), (composition, m.instruments_attr)],
        },
        oorq_storage::IndexStats {
            nblevels: 3,
            nbleaves: 40,
        },
    );
    let stats = DbStats::collect(&m.db);
    let cm = model(&m, &stats);
    let e = m.db.physical().class_entity(composer).unwrap();
    let ce = m.db.physical().class_entity(composition).unwrap();
    let ie = m.db.physical().class_entity(m.instrument).unwrap();
    let pij = Pt::PIJ {
        index: idx,
        on: Expr::var("x"),
        outs: vec!["w".into(), "ins".into()],
        input: Box::new(Pt::entity(e, "x")),
        targets: vec![Pt::entity(ce, "ct"), Pt::entity(ie, "it")],
    };
    let pc = cm.cost(&pij).unwrap();
    let n = m.composer_count() as f64;
    let scan = stats.entity(e).unwrap().pages as f64;
    let expected = scan + n * (3.0 + 40.0 / n);
    assert!(
        (pc.cost.io - expected).abs() < 1e-6,
        "Figure 5 PIJ formula: got {}, want {}",
        pc.cost.io,
        expected
    );
    // Output: composers * works * instruments fan-outs.
    assert!((pc.rows - n * 3.0 * 2.0).abs() < 1.0);
}

#[test]
fn nested_loop_rescans_depend_on_buffer() {
    let (m, stats) = setup(MusicConfig {
        chains: 10,
        chain_len: 10,
        ..Default::default()
    });
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let join = Pt::ej(
        Expr::path("l", &["master"]).eq(Expr::var("r")),
        Pt::entity(e, "l"),
        Pt::entity(e, "r"),
    );
    let small = CostParams {
        buffer_frames: 0,
        ..CostParams::default()
    };
    let large = CostParams {
        buffer_frames: 10_000,
        ..CostParams::default()
    };
    let cm_small = CostModel::new(m.db.catalog(), m.db.physical(), &stats, small);
    let cm_large = CostModel::new(m.db.catalog(), m.db.physical(), &stats, large);
    let c_small = cm_small.cost(&join).unwrap();
    let c_large = cm_large.cost(&join).unwrap();
    assert!(
        c_small.cost.io > c_large.cost.io * 10.0,
        "tiny buffer must force rescans: {} vs {}",
        c_small.cost.io,
        c_large.cost.io
    );
}

#[test]
fn fix_cost_scales_with_chain_depth() {
    let shallow = setup(MusicConfig {
        chains: 16,
        chain_len: 2,
        ..Default::default()
    });
    let deep = setup(MusicConfig {
        chains: 2,
        chain_len: 16,
        ..Default::default()
    });
    let fix_plan = |m: &MusicDb| {
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
    };
    let cm_s = model(&shallow.0, &shallow.1);
    let cm_d = model(&deep.0, &deep.1);
    assert_eq!(cm_s.fix_iterations(), 1.0);
    assert_eq!(cm_d.fix_iterations(), 15.0);
    let cs = cm_s.cost(&fix_plan(&shallow.0)).unwrap();
    let cd = cm_d.cost(&fix_plan(&deep.0)).unwrap();
    // Same number of composers, but the deep DB iterates far more.
    assert!(
        cd.cost.io + cd.cost.cpu > 2.0 * (cs.cost.io + cs.cost.cpu),
        "deep: {:?} shallow: {:?}",
        cd.cost,
        cs.cost
    );
    // TC of chains: shallow = 16 pairs; deep = 2 * (15*16/2) = 240 pairs.
    assert!(cd.rows > cs.rows);
}

/// Figure 3 with the selection pushed through recursion — the plan the
/// cost-controlled optimizer chooses on the default music database
/// (Figure 4 (ii)) — down to its fixpoint, over the `works.instruments`
/// path index it probes.
fn fig3_pushed_fixpoint() -> (MusicDb, DbStats, Pt) {
    let (mut m, _) = setup(MusicConfig::default());
    let path = vec![
        (m.composer, m.works_attr),
        (m.composition, m.instruments_attr),
    ];
    let index = m.db.physical_mut().add_index(
        oorq_storage::IndexKindDesc::Path { path },
        oorq_storage::IndexStats {
            nblevels: 1,
            nbleaves: 1,
        },
    );
    let stats = DbStats::collect(&m.db);
    let entity = |c| m.db.physical().class_entity(c).unwrap();
    let (composers, works, instruments) = (
        entity(m.composer),
        entity(m.composition),
        entity(m.instrument),
    );
    let master = |out: &str| Pt::IJ {
        on: Expr::path("x", &["master"]),
        step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composer, m.master_attr),
        out: out.into(),
        input: Box::new(Pt::entity(composers, "x")),
        target: Box::new(Pt::entity(composers, format!("_t_{out}"))),
    };
    let harpsichord = |on: &str, input: Pt| {
        Pt::sel(
            Expr::path("_x2", &["name"]).eq(Expr::text("harpsichord")),
            Pt::PIJ {
                index,
                on: Expr::var(on),
                outs: vec!["_x1".into(), "_x2".into()],
                input: Box::new(input),
                targets: vec![Pt::entity(works, "_p0"), Pt::entity(instruments, "_p1")],
            },
        )
    };
    let keep = |cols: [&str; 3], input| {
        Pt::proj(cols.map(|c| (c.to_string(), Expr::var(c))).to_vec(), input)
    };
    let base = Pt::proj(
        vec![
            ("master".into(), Expr::var("_v4")),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::int(1)),
        ],
        Pt::sel(
            Expr::var("_v4").ne(Expr::Lit(oorq_query::Literal::Null)),
            master("_v4"),
        ),
    );
    let base = keep(["master", "disciple", "gen"], harpsichord("master", base));
    let pushed = harpsichord("i.master", Pt::temp("Influencer", "i"));
    let rec = Pt::proj(
        vec![
            ("master".into(), Expr::var("i.master")),
            ("disciple".into(), Expr::var("x")),
            ("gen".into(), Expr::var("i.gen").add(Expr::int(1))),
        ],
        Pt::ej(
            Expr::var("i.disciple").eq(Expr::var("_v6")),
            master("_v6"),
            keep(["i.master", "i.disciple", "i.gen"], pushed),
        ),
    );
    let plan = Pt::fix("Influencer", Pt::union(base, rec));
    (m, stats, plan)
}

/// Figure 5's `Σᵢ cost(Exp(Tᵢ))` over a flat curve: a fixpoint's
/// recursive-leg lines are the leg costed alone, with its temporary open
/// at the modeled delta (as the optimizer plans the leg), times the
/// modeled pass count — bit for bit.
#[test]
fn a_recursive_leg_is_its_one_estimate_times_the_passes() {
    let (m, stats, plan) = fig3_pushed_fixpoint();
    let Pt::Fix { body, .. } = &plan else {
        unreachable!("a fixpoint")
    };
    let Pt::Union {
        left: base,
        right: rec,
    } = &**body
    else {
        unreachable!("a recursive union")
    };
    let mut cm = model(&m, &stats);
    let base_cols = cm.resolve(base).unwrap().swap_remove(0).cols;
    let base = cm.cost(base).unwrap();
    let curve = cm.fix_delta_curve("Influencer", base.rows);
    assert_eq!(curve.iterations, 6.0, "{curve:?}");
    let whole = cm.cost(&plan).unwrap();
    assert_eq!(
        cm.cost(rec).unwrap_err(),
        CostError::Pt(PtError::UnknownTemp("Influencer".into())),
        "a leg alone scans a temporary no fixpoint defines"
    );
    cm.open_temp = Some(OpenTemp {
        name: "Influencer".into(),
        cols: base_cols,
        delta: curve.delta,
    });
    let alone = cm.cost(rec).unwrap();
    // Post-order: the base's lines, the leg's, then the fixpoint's.
    let leg = &whole.breakdown[base.breakdown.len()..whole.breakdown.len() - 1];
    assert_eq!(leg.len(), alone.breakdown.len());
    let n = curve.iterations;
    for (got, one) in leg.iter().zip(&alone.breakdown) {
        assert_eq!(got.label, one.label);
        let scaled = [
            one.cost.io * n,
            one.cost.cpu * n,
            one.rows * n,
            one.pages * n,
        ];
        let got_bits = [got.cost.io, got.cost.cpu, got.rows, got.pages].map(f64::to_bits);
        assert_eq!(got_bits, scaled.map(f64::to_bits), "{}", one.label);
    }
}

#[test]
fn fix_requires_recursive_union() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let bad = Pt::fix("Influencer", Pt::entity(e, "x"));
    assert_eq!(
        cm.cost(&bad).err(),
        Some(CostError::Pt(PtError::FixBodyNotUnion))
    );
    let not_rec = Pt::fix(
        "Influencer",
        Pt::union(Pt::entity(e, "x"), Pt::entity(e, "y")),
    );
    assert_eq!(
        cm.cost(&not_rec).err(),
        Some(CostError::Pt(PtError::FixNotRecursive("Influencer".into())))
    );
}

#[test]
fn unknown_temp_is_reported() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        &stats,
        CostParams::default(),
    );
    let pt = Pt::temp("Nope", "n");
    assert_eq!(
        cm.cost(&pt).unwrap_err(),
        CostError::Pt(PtError::UnknownTemp("Nope".into()))
    );
}

/// With a bare `i` and a qualified `i.master` column both in scope, a
/// path is costed from the qualified one, as the evaluator reads it:
/// one page per row to fetch the composition behind `i.master`. (From
/// the bare `i` — a composer in hand — the path dead-ends at
/// `Composer.master.title` and would fetch nothing.)
#[test]
fn path_is_costed_from_the_qualified_column_when_both_exist() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = model(&m, &stats);
    let composers = m.db.physical().class_entity(m.composer).unwrap();
    let works = m.db.physical().class_entity(m.composition).unwrap();
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
    let pc = cm.cost(&plan).unwrap();
    let sel = pc.breakdown.last().unwrap();
    assert_eq!(sel.kind, OpKind::Sel);
    let card = |e| stats.entity(e).unwrap().cardinality as f64;
    assert_eq!(sel.cost.io, card(composers) * card(works));
}

/// A join whose sides repeat a column name (lint PT010) is where a
/// per-name map and a column list differ. The estimate is the map's:
/// an expression above the join reaches the *inner* side's column, and
/// a materialized row is sized with the name counted once.
#[test]
fn a_join_repeating_a_column_name_is_costed_by_name() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = model(&m, &stats);
    let composers = m.db.physical().class_entity(m.composer).unwrap();
    let works = m.db.physical().class_entity(m.composition).unwrap();
    // The outer hands up `x` as a projected composition (not in hand,
    // and a composition has no `name`); the inner scans composers as `x`.
    let outer = Pt::proj(vec![("x".into(), Expr::var("w"))], Pt::entity(works, "w"));
    let join = Pt::ej(Expr::True, outer, Pt::entity(composers, "x"));
    let plan = Pt::sel(Expr::path("x", &["name"]).eq(Expr::text("Bach")), join);
    let pc = cm.cost(&plan).unwrap();
    let [.., ej, sel] = &pc.breakdown[..] else {
        panic!("scan, Proj, scan, EJ, Sel");
    };
    assert_eq!((ej.kind, sel.kind), (OpKind::Ej, OpKind::Sel));
    let card = |e| stats.entity(e).unwrap().cardinality;
    let pairs = card(works) * card(composers);
    assert_eq!(ej.rows, pairs as f64);
    let one_oid = [oorq_schema::ResolvedType::Object(m.composer)];
    assert_eq!(ej.pages, cm.width.pages_for(pairs, &one_oid) as f64);
    // `x.name` is read off the composer in hand: no page fetched, and
    // the key's selectivity applies.
    assert_eq!(sel.cost.io, 0.0);
    assert_eq!(sel.cost.cpu, pairs as f64);
    assert_eq!(sel.rows, pairs as f64 / card(composers) as f64);
}

#[test]
fn breakdown_covers_every_node() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let plan = Pt::sel(
        Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        Pt::entity(e, "x"),
    );
    let pc = cm.cost(&plan).unwrap();
    assert_eq!(pc.breakdown.len(), 2);
    assert!(pc.breakdown[0].label.starts_with("scan"));
    assert!(pc.breakdown[1].label.starts_with("Sel"));
    // Totals are weighted consistently.
    let params = CostParams::default();
    assert!(pc.total(&params) > 0.0);
}

#[test]
fn index_selection_beats_scan_for_selective_predicates() {
    let (mut m, _) = setup(MusicConfig {
        chains: 30,
        chain_len: 10,
        ..Default::default()
    });
    let idx = m.db.physical_mut().add_index(
        oorq_storage::IndexKindDesc::Selection {
            class: m.composer,
            attr: m.name_attr,
        },
        oorq_storage::IndexStats {
            nblevels: 2,
            nbleaves: 20,
        },
    );
    let stats = DbStats::collect(&m.db);
    let cm = model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let pred = Expr::path("x", &["name"]).eq(Expr::text("Bach"));
    let scan = Pt::sel(pred.clone(), Pt::entity(e, "x"));
    let indexed = Pt::Sel {
        pred,
        method: oorq_pt::AccessMethod::Index(idx),
        input: Box::new(Pt::entity(e, "x")),
    };
    let c_scan = cm.cost(&scan).unwrap();
    let c_idx = cm.cost(&indexed).unwrap();
    let p = CostParams::default();
    assert!(
        c_idx.total(&p) < c_scan.total(&p),
        "index probe must beat a 300-composer scan: {} vs {}",
        c_idx.total(&p),
        c_scan.total(&p)
    );
}

/// The benchmark's recursive scale — 200 composers × 4 works × 3
/// instruments, a quarter of the composers with one harpsichord slot —
/// under the `works.instruments` path index, and the path-index join of
/// every composer (`x`, then `w` and `ins` per step).
fn referenced_unevenly() -> (MusicDb, DbStats, Pt) {
    let (mut m, _) = setup(MusicConfig {
        chains: 20,
        chain_len: 10,
        works_per_composer: 4,
        instruments_per_work: 3,
        ..Default::default()
    });
    let path = vec![
        (m.composer, m.works_attr),
        (m.composition, m.instruments_attr),
    ];
    let idx = m.db.physical_mut().add_index(
        oorq_storage::IndexKindDesc::Path { path },
        oorq_storage::IndexStats {
            nblevels: 3,
            nbleaves: 40,
        },
    );
    let stats = DbStats::collect(&m.db);
    let entity = |c| m.db.physical().class_entity(c).unwrap();
    let pij = Pt::PIJ {
        index: idx,
        on: Expr::var("x"),
        outs: vec!["w".into(), "ins".into()],
        input: Box::new(Pt::entity(entity(m.composer), "x")),
        targets: vec![
            Pt::entity(entity(m.composition), "ct"),
            Pt::entity(entity(m.instrument), "it"),
        ],
    };
    (m, stats, pij)
}

/// `Instrument.name` is a key: what differs between instruments is how
/// often each is *referenced* from `Composition.instruments`, and that
/// is what a selection on the path-index join's output is estimated
/// from — not one in twelve for every name.
#[test]
fn a_dereferenced_column_is_estimated_from_how_often_its_objects_are_referenced() {
    let (m, stats, pij) = referenced_unevenly();
    let cm = model(&m, &stats);
    let rows = |name: &str| {
        let named = Expr::path("ins", &["name"]).eq(Expr::text(name));
        cm.cost(&Pt::sel(named, pij.clone())).unwrap().rows
    };
    // What the executor's filter lets through: one row per slot of
    // `Composition.instruments` holding the instrument.
    let slots = |i: usize| {
        let compositions = m.db.physical().class_entity(m.composition).unwrap();
        let works = m.db.scan_raw(compositions);
        let held = works
            .iter()
            .flat_map(|w| w.values[m.instruments_attr.0 as usize].members());
        held.filter(|v| **v == m.instruments[i].into()).count() as f64
    };
    let (harpsichord, flute) = (rows("harpsichord"), rows("flute"));
    assert!(
        harpsichord < slots(0) * 1.5 && harpsichord > slots(0) / 1.5,
        "harpsichord: estimated {harpsichord}, executed {}",
        slots(0)
    );
    assert!(
        flute < slots(1) * 1.5 && flute > slots(1) / 1.5,
        "flute: estimated {flute}, executed {}",
        slots(1)
    );
    assert!(flute > harpsichord * 3.0, "{flute} vs {harpsichord}");
    // A name no instrument has: one slot, never zero rows.
    let absent = rows("theremin");
    assert!(absent.is_finite() && absent >= 1.0, "{absent}");
    assert!(absent < harpsichord);
}

/// A scanned column reads the attribute's own table; a column nobody
/// knows the provenance of (a temporary's) reads `1/distinct`, as every
/// equality did before the tables were kept.
#[test]
fn a_scanned_column_reads_its_extent_and_an_unknown_one_the_distinct_count() {
    let (m, stats, _) = referenced_unevenly();
    let mut cm = model(&m, &stats);
    let composers = m.db.physical().class_entity(m.composer).unwrap();
    let (birth_year, _) = m.db.catalog().attr(m.composer, "birth_year").unwrap();
    let year_of = |row: &oorq_storage::Row| row.values[birth_year.0 as usize].clone();
    let extent = m.db.scan_raw(composers);
    // The year most composers share, so the two rules differ.
    let year = extent
        .iter()
        .map(year_of)
        .max_by_key(|y| extent.iter().filter(|r| year_of(r) == *y).count())
        .unwrap();
    let oorq_storage::Value::Int(y) = year else {
        panic!("birth_year is an integer");
    };
    let born = extent.iter().filter(|r| year_of(r) == year).count() as f64;
    let distinct = stats.entity(composers).unwrap().attrs[birth_year.0 as usize].distinct as f64;
    assert!(born > extent.len() as f64 / distinct + 1.0);

    let scanned = Pt::sel(
        Expr::path("x", &["birth_year"]).eq(Expr::int(y)),
        Pt::entity(composers, "x"),
    );
    assert!((cm.cost(&scanned).unwrap().rows - born).abs() < 1e-9);
    let by_name = Pt::sel(
        Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        Pt::entity(composers, "x"),
    );
    assert!((cm.cost(&by_name).unwrap().rows - 1.0).abs() < 1e-9);

    // The view's temporary, open at 120 rows.
    let view = m.db.catalog().relation_by_name("Influencer").unwrap();
    cm.open_temp = Some(OpenTemp {
        name: "Influencer".into(),
        cols: m.db.catalog().relation(view).fields.clone(),
        delta: 120.0,
    });
    let unknown = Pt::sel(
        Expr::path("i", &["master", "birth_year"]).eq(Expr::int(y)),
        Pt::temp("Influencer", "i"),
    );
    assert!((cm.cost(&unknown).unwrap().rows - 120.0 / distinct).abs() < 1e-9);
}
