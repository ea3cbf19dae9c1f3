//! Chunk boundaries change nothing but page counters. A chunk is what an
//! operator produces between two possible page touches, so where the
//! chunks fall is decided by the page geometry — and the executor has no
//! batch-size knob to vary. Instead the same data is stored at three
//! page sizes (one row per page, the default, a whole entity per page)
//! and the same plan is run over each: the answer equals the reference
//! evaluator's, and every operator opens as often, reads and hands up
//! as many rows, and evaluates and probes as often, at all three.

use std::sync::Arc;

use oorq::datagen::{ChainConfig, ChainDb, MusicDb};
use oorq::exec::eval_query_graph;
use oorq::query::paper::music_catalog;
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
        let (optimized, _) = fixtures[DEFAULT]
            .plan(&q, strategy(), &Knobs::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = &fixtures[DEFAULT];
        let mut reference = eval_query_graph(&s.db, &s.methods, &q)
            .unwrap_or_else(|e| panic!("{name}: reference failed: {e}"))
            .rows;
        reference.sort();
        let knobs = Knobs::resources(0, env_budget());
        let per_op = fixtures.each_mut().map(|s| {
            let (answer, report, _) = s
                .execute(&optimized.pt, &optimized.parallel, &knobs)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut answer = answer.rows;
            answer.sort();
            assert_eq!(answer, reference, "{name}: answer differs from reference");
            let op = |o: &oorq::exec::OpReport| {
                let counts = (o.opens, o.rows_in, o.rows_out, o.evals, o.index_reads);
                (o.label.clone(), counts)
            };
            report.ops.iter().map(op).collect::<Vec<_>>()
        });
        assert_eq!(per_op[0], per_op[DEFAULT], "{name}: one record per page");
        assert_eq!(per_op[2], per_op[DEFAULT], "{name}: one page per entity");
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
