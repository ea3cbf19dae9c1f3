//! Chunk boundaries change nothing but page counters. A chunk is what an
//! operator produces between two possible page touches, so where the
//! chunks fall is decided by the page geometry — and the executor has no
//! batch-size knob to vary. Instead the same data is stored at three
//! page sizes (one row per page, the default, a whole entity per page)
//! and the same plan is run over each: the answer equals the reference
//! evaluator's, and every operator opens as often, reads and hands up
//! as many rows, and evaluates and probes as often, at all three. Two
//! hand-built fixpoints get the same treatment: a recursive leg nothing
//! above which can touch a page (it hands up one chunk per pass), and one
//! whose projection dereferences (it still cuts after every row).

use std::sync::Arc;

use oorq::datagen::{ChainConfig, ChainDb, MusicDb};
use oorq::exec::eval_query_graph;
use oorq::pt::{IjStep, Pt};
use oorq::query::paper::music_catalog;
use oorq::query::{Expr, Literal};
use oorq::storage::WidthModel;
use oorq_bench::scenarios::{env_budget, CORPUS};
use oorq_bench::{Knobs, Scenario};

/// Page sizes at which a page holds one record, the default number, and
/// a whole entity.
const PAGE_SIZES: [usize; 3] = [1, 4096, 1 << 30];
/// Index into [`PAGE_SIZES`] of the default, which plans are made on.
const DEFAULT: usize = 1;

/// Run every row of corpus entry `entry` over `build`'s fixture at each
/// page size.
fn check(entry: &str, build: impl Fn(WidthModel) -> Scenario) {
    let mut fixtures = PAGE_SIZES.map(|page_size| {
        build(WidthModel {
            page_size,
            ..WidthModel::default()
        })
    });
    let pages = |s: &Scenario| -> u32 {
        let entities = s.db.physical().entities();
        entities.iter().map(|e| s.db.num_pages(e.id)).sum()
    };
    assert!(
        pages(&fixtures[0]) > pages(&fixtures[1]) && pages(&fixtures[1]) > pages(&fixtures[2]),
        "{entry}: the three fixtures must differ in page geometry"
    );
    let rows = CORPUS.iter().find(|e| e.name == entry).expect("entry").rows;
    for (label, query, strategy) in rows {
        let name = format!("{entry}/{label}");
        let q = query(&fixtures[DEFAULT]);
        // One plan for all three: costs depend on page counts, so
        // planning per fixture would compare different plans.
        let optimized = fixtures[DEFAULT]
            .plan(&q, strategy(), &Knobs::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = &fixtures[DEFAULT];
        let mut reference = eval_query_graph(&s.db, &s.methods, &q)
            .unwrap_or_else(|e| panic!("{name}: reference failed: {e}"))
            .rows;
        reference.sort();
        let knobs = Knobs::resources(env_budget());
        let per_op = fixtures.each_mut().map(|s| {
            let (answer, report, _) = s
                .execute(&optimized.pt, &knobs)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut answer = answer.rows;
            answer.sort();
            assert_eq!(answer, reference, "{name}: answer differs from reference");
            report.ops.iter().map(op_counts).collect::<Vec<_>>()
        });
        assert_eq!(per_op[0], per_op[DEFAULT], "{name}: one record per page");
        assert_eq!(per_op[2], per_op[DEFAULT], "{name}: one page per entity");
    }
}

/// What of an operator's report the page geometry must not move.
fn op_counts(o: &oorq::exec::OpReport) -> (String, (u64, u64, u64, u64, u64)) {
    let counts = (o.opens, o.rows_in, o.rows_out, o.evals, o.index_reads);
    (o.label.clone(), counts)
}

/// The Influencer closure with the Figure 3 plan's recursive leg, `Proj ←
/// EJ(IJ_master(scan y), scan temp Influencer)`. With `via` both legs also
/// carry the disciple's direct master, which the recursive leg's projection
/// dereferences.
fn influencer_over_ij(m: &MusicDb, via: bool) -> Pt {
    let e = m.db.physical().class_entity(m.composer).unwrap();
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
            Expr::path("x", &["master"]).ne(Expr::Lit(Literal::Null)),
            Pt::entity(e, "x"),
        ),
    );
    let masters = Pt::IJ {
        on: Expr::path("y", &["master"]),
        step: IjStep::class_attr(m.db.catalog(), m.composer, m.master_attr),
        out: "ym".into(),
        input: Box::new(Pt::entity(e, "y")),
        target: Box::new(Pt::entity(e, "t")),
    };
    let rec = Pt::proj(
        cols(
            Expr::var("i.master"),
            "y",
            Expr::var("i.gen").add(Expr::int(1)),
        ),
        Pt::ej(
            Expr::var("i.disciple").eq(Expr::var("ym")),
            masters,
            Pt::temp("Influencer", "i"),
        ),
    );
    Pt::fix("Influencer", Pt::union(base, rec))
}

#[test]
fn fixpoint_leg_counts_are_independent_of_page_capacity() {
    for via in [false, true] {
        let per_op = PAGE_SIZES.map(|page_size| {
            let width = WidthModel {
                page_size,
                ..WidthModel::default()
            };
            let cfg = Scenario::paper_scale();
            let m = MusicDb::generate_paged(Arc::new(music_catalog()), cfg, width);
            let plan = influencer_over_ij(&m, via);
            let mut s = Scenario::music_from(m, false);
            let knobs = Knobs::resources(env_budget());
            let (answer, report, _) = s.execute(&plan, &knobs).unwrap();
            // Ten chains of ten: 45 (master, disciple) pairs each.
            assert_eq!(answer.len(), 450, "via {via}, page size {page_size}");
            report.ops.iter().map(op_counts).collect::<Vec<_>>()
        });
        assert_eq!(per_op[0], per_op[DEFAULT], "via {via}: one record per page");
        assert_eq!(per_op[2], per_op[DEFAULT], "via {via}: one page per entity");
    }
}

#[test]
fn music_counts_are_independent_of_page_capacity() {
    check("music", |width| {
        let cfg = Scenario::paper_scale();
        let m = MusicDb::generate_paged(Arc::new(music_catalog()), cfg, width);
        Scenario::music_from(m, true)
    });
}

#[test]
fn chain_counts_are_independent_of_page_capacity() {
    check("chain0", |width| {
        // 400 two-int rows are three default pages per relation.
        let cfg = ChainConfig {
            relations: 2,
            rows: 400,
            domain: 64,
            seed: 0x5eed,
        };
        Scenario::plain(ChainDb::generate_paged(cfg, width).db)
    });
}
