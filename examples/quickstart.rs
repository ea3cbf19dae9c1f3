//! Quickstart: define a schema, load objects, ask a recursive query,
//! optimize it cost-controlled, and execute the plan.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use oorq::cost::{CostModel, CostParams};
use oorq::datagen::{MusicConfig, MusicDb};
use oorq::exec::{Executor, MethodRegistry};
use oorq::index::{IndexSet, PathIndex, SelectionIndex};
use oorq::optimizer::{Optimizer, OptimizerConfig};
use oorq::query::paper::{fig3, music_catalog};
use oorq::query::parse_query;
use oorq::storage::DbStats;

fn main() {
    // 1. The conceptual schema (the paper's Figure 1): Person, Composer
    //    isa Person, Composition, Instrument, and the recursive
    //    Influencer view.
    let catalog = Arc::new(music_catalog());
    println!(
        "schema: {} classes, {} relations/views",
        catalog.classes().len(),
        catalog.relations().len()
    );

    // 2. A synthetic object base: 8 master-chains of 8 composers, with
    //    nested works and instruments, physically scattered (unclustered).
    let mut music = MusicDb::generate(
        Arc::clone(&catalog),
        MusicConfig {
            chains: 8,
            chain_len: 8,
            harpsichord_fraction: 0.3,
            ..Default::default()
        },
    );
    println!("loaded {} composers", music.composer_count());

    // 3. The physical design: a Maier–Stein path index on
    //    works.instruments and a B+-tree on Composer.name.
    let mut indexes = IndexSet::new();
    indexes.add_path(PathIndex::build(
        &mut music.db,
        vec![
            (music.composer, music.works_attr),
            (music.composition, music.instruments_attr),
        ],
    ));
    indexes.add_selection(SelectionIndex::build(
        &mut music.db,
        music.composer,
        music.name_attr,
    ));

    // 4. A recursive query: "names of composers influenced — over at
    //    least 3 generations — by composers for harpsichord".
    //    The query is OQL text: the paper's Influencer view, then the
    //    select over it.
    let text = fig3("harpsichord", 3);
    println!("\nquery text:\n{text}");
    let query = parse_query(&catalog, &text).expect("query parses");
    println!("\nquery graph:\n{}", query.display(&catalog));

    // 5. Optimize with the paper's cost-controlled strategy: the decision
    //    of pushing the harpsichord selection through the recursion is
    //    taken by comparing complete-plan costs, not by heuristic.
    let stats = DbStats::collect(&music.db);
    let model = CostModel::new(
        music.db.catalog(),
        music.db.physical(),
        &stats,
        CostParams::default(),
    );
    let mut optimizer = Optimizer::new(model, OptimizerConfig::cost_controlled());
    let plan = optimizer.optimize(&query).expect("query optimizes");
    drop(optimizer);
    println!(
        "\nchosen plan (estimated cost {:.0} io + {:.0} cpu):",
        plan.cost.cost.io, plan.cost.cost.cpu
    );
    let env = oorq::pt::PtEnv::new(music.db.catalog(), music.db.physical());
    println!("  {}", plan.pt.display(&env));
    println!(
        "\noptimization trace (the paper's Figure 6):\n{}",
        plan.trace.summary()
    );

    // 6. Execute with honest page-I/O accounting.
    let methods = MethodRegistry::with_music_methods(music.db.catalog());
    music.db.cold_cache();
    let mut executor = Executor::new(&mut music.db, &indexes, &methods);
    let answer = executor.run(&plan.pt).expect("plan executes");
    let report = executor.report();
    println!(
        "answer: {} composers; measured {} page reads, {} index reads, {} evaluations",
        answer.len(),
        report.io.page_reads,
        report.io.index_reads,
        report.evals
    );
    for row in answer.rows.iter().take(5) {
        println!("  {}", row[0]);
    }
}
