//! Figure 5 fidelity tests: under [`CostParams::paper_mode`] (pr = ev
//! = 1, no buffer, no clustering discount) the estimator must
//! reproduce the paper's cost formulas verbatim — hand-computed examples
//! per operator, plus a seeded property test that costs are monotone in
//! input cardinality.

use std::sync::Arc;

use oorq_datagen::{MusicConfig, MusicDb};
use oorq_prng::Prng;
use oorq_pt::Pt;
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

fn paper_model<'a>(m: &'a MusicDb, stats: &'a DbStats) -> CostModel<'a> {
    CostModel::new(
        m.db.catalog(),
        m.db.physical(),
        stats,
        CostParams::paper_mode(),
    )
}

/// Figure 5 `Sel_selpred(C)` with sequential access: scan every page,
/// evaluate the predicate once per object — `|C| · pr + ‖C‖ · ev`.
#[test]
fn paper_mode_sel_is_pages_plus_one_eval_per_row() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = paper_model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let s = stats.entity(e).unwrap();
    let plan = Pt::sel(
        Expr::path("x", &["name"]).eq(Expr::text("Bach")),
        Pt::entity(e, "x"),
    );
    let pc = cm.cost(&plan).unwrap();
    assert_eq!(pc.cost.io, s.pages as f64, "io = |C| pages");
    assert_eq!(pc.cost.cpu, s.cardinality as f64, "cpu = ‖C‖ evals");
}

/// Figure 5 `EJ_pred` by nested loop with no buffer: the outer scans
/// once, the inner is rescanned per outer row, every pair is evaluated
/// — `|L| + ‖L‖ · |R|` pages and `‖L‖ · ‖R‖` evaluations.
#[test]
fn paper_mode_ej_nested_loop_rescans_inner_per_outer_row() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = paper_model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let s = stats.entity(e).unwrap();
    let (rows, pages) = (s.cardinality as f64, s.pages as f64);
    let join = Pt::ej(
        Expr::path("l", &["master"]).eq(Expr::var("r")),
        Pt::entity(e, "l"),
        Pt::entity(e, "r"),
    );
    let pc = cm.cost(&join).unwrap();
    let expected_io = pages + pages + (rows - 1.0) * pages;
    assert_eq!(pc.cost.io, expected_io, "outer + inner + rescans");
    assert_eq!(pc.cost.cpu, rows * rows, "one eval per pair");
}

/// Figure 5 `IJ_Ai(C)` without clustering: scan the operand, then one
/// dereference per fanned-out member — sub-objects are not clustered in
/// the §4.6 model, so every dereference pays a full page access.
#[test]
fn paper_mode_ij_charges_one_page_per_dereference() {
    let (m, stats) = setup(MusicConfig::default());
    let cm = paper_model(&m, &stats);
    let e = m.db.physical().class_entity(m.composer).unwrap();
    let t = m.db.physical().class_entity(m.composition).unwrap();
    let s = stats.entity(e).unwrap();
    let ij = Pt::IJ {
        on: Expr::path("x", &["works"]),
        step: oorq_pt::IjStep::class_attr(m.db.catalog(), m.composer, m.works_attr),
        out: "w".into(),
        input: Box::new(Pt::entity(e, "x")),
        target: Box::new(Pt::entity(t, "wt")),
    };
    let pc = cm.cost(&ij).unwrap();
    // Output cardinality is ‖C‖ · fanout(works); each output row cost
    // one dereference on top of the scan.
    assert_eq!(
        pc.cost.io,
        s.pages as f64 + pc.rows,
        "scan + one page per member"
    );
    assert_eq!(pc.cost.cpu, 0.0, "a pure traversal evaluates nothing");
}

/// Figure 5 `PIJ_pathInd(C)`: one index descent per operand object plus
/// the expected share of leaves — `‖C‖ · (nblevels + nbleaves / ‖C₁‖)`.
#[test]
fn paper_mode_pij_follows_probe_formula() {
    let (mut m, _) = setup(MusicConfig::default());
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
    let cm = paper_model(&m, &stats);
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
        "got {}, want {expected}",
        pc.cost.io
    );
    assert_eq!(pc.cost.cpu, 0.0, "probes evaluate no predicates");
}

fn influencer_fix_plan(m: &MusicDb) -> Pt {
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

/// Figure 5 `Fix(T, P)`: the plan total is exactly the sum of the
/// per-node breakdown (base + iteration-scaled recursive side +
/// materialization writes), and the fixpoint node itself charges only
/// the writes — no phantom dedup evaluations.
#[test]
fn paper_mode_fix_total_is_breakdown_sum_plus_writes() {
    let (m, stats) = setup(MusicConfig {
        chains: 2,
        chain_len: 8,
        ..Default::default()
    });
    let cm = paper_model(&m, &stats);
    let pc = cm.cost(&influencer_fix_plan(&m)).unwrap();
    let sum = pc
        .breakdown
        .iter()
        .fold(Cost::zero(), |acc, l| acc + l.cost);
    assert!(
        (pc.cost.io - sum.io).abs() < 1e-9 && (pc.cost.cpu - sum.cpu).abs() < 1e-9,
        "total {:?} must equal breakdown sum {:?}",
        pc.cost,
        sum
    );
    let fix = pc
        .breakdown
        .iter()
        .find(|l| l.kind == OpKind::Fix)
        .expect("breakdown has the Fix node");
    assert!(fix.cost.io > 0.0, "materialization writes charged");
    assert_eq!(fix.cost.cpu, 0.0, "no phantom dedup evaluations");
}

/// Seeded property: under the paper-mode formulas, the cost of a fixed
/// plan shape is monotone non-decreasing in the operand cardinality.
#[test]
fn paper_mode_cost_is_monotone_in_cardinality() {
    let mut rng = Prng::new(0x00f1_65f1_de11_7e57);
    for trial in 0..8 {
        let chains = rng.range_u32(2, 8);
        let grow = rng.range_u32(2, 6);
        let seed = rng.range_u32(1, 1 << 20) as u64;
        let small = setup(MusicConfig {
            chains,
            chain_len: 4,
            seed,
            ..Default::default()
        });
        let large = setup(MusicConfig {
            chains: chains + grow,
            chain_len: 4,
            seed,
            ..Default::default()
        });
        let plan = |m: &MusicDb| {
            let e = m.db.physical().class_entity(m.composer).unwrap();
            Pt::ej(
                Expr::path("l", &["master"]).eq(Expr::var("r")),
                Pt::sel(
                    Expr::path("l", &["master"]).ne(Expr::Lit(oorq_query::Literal::Null)),
                    Pt::entity(e, "l"),
                ),
                Pt::entity(e, "r"),
            )
        };
        let params = CostParams::paper_mode();
        let c_small = paper_model(&small.0, &small.1)
            .cost(&plan(&small.0))
            .unwrap();
        let c_large = paper_model(&large.0, &large.1)
            .cost(&plan(&large.0))
            .unwrap();
        assert!(
            c_large.cost.total(&params) >= c_small.cost.total(&params),
            "trial {trial}: cost must not shrink as the operand grows \
             ({} composers -> {}): {:?} vs {:?}",
            chains,
            chains + grow,
            c_small.cost,
            c_large.cost
        );
    }
}
