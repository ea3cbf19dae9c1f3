//! The paper's running example, end to end: the Figure 3 query and the
//! §4.5 push-join query, optimized under every strategy and executed —
//! showing when pushing through recursion wins and when it loses.
//!
//! Run with: `cargo run --release --example music_influencers`

use std::sync::Arc;

use oorq::cost::{CostModel, CostParams};
use oorq::datagen::{MusicConfig, MusicDb};
use oorq::exec::{Executor, MethodRegistry};
use oorq::index::{IndexSet, PathIndex, SelectionIndex};
use oorq::optimizer::{Optimizer, OptimizerConfig};
use oorq::query::paper::{fig3_query_gen, music_catalog, sec45_pushjoin_query};
use oorq::query::QueryGraph;
use oorq::storage::DbStats;

fn run_one(
    label: &str,
    music: &mut MusicDb,
    indexes: &IndexSet,
    q: &QueryGraph,
    config: OptimizerConfig,
) {
    let stats = DbStats::collect(&music.db);
    let model = CostModel::new(
        music.db.catalog(),
        music.db.physical(),
        &stats,
        CostParams::default(),
    );
    let plan = Optimizer::new(model, config)
        .optimize(q)
        .expect("optimizes");
    let methods = MethodRegistry::new();
    music.db.cold_cache();
    let mut ex = Executor::new(&mut music.db, indexes, &methods);
    let answer = ex.run(&plan.pt).expect("executes");
    let r = ex.report();
    println!(
        "  {label:<18} est {:>8.0}   measured {:>8.0}   ({} rows)",
        plan.cost.total(&CostParams::default()),
        r.total(1.0, 0.05),
        answer.len()
    );
}

fn main() {
    let catalog = Arc::new(music_catalog());
    let mut music = MusicDb::generate(
        Arc::clone(&catalog),
        MusicConfig {
            chains: 10,
            chain_len: 10,
            works_per_composer: 4,
            instruments_per_work: 3,
            harpsichord_fraction: 0.25,
            ..Default::default()
        },
    );
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

    println!("Figure 3 (selection on the master's instruments, gen >= 3):");
    let q = fig3_query_gen(&catalog, 3);
    run_one(
        "never push",
        &mut music,
        &indexes,
        &q,
        OptimizerConfig::never_push(),
    );
    run_one(
        "always push",
        &mut music,
        &indexes,
        &q,
        OptimizerConfig::deductive_heuristic(),
    );
    run_one(
        "cost-controlled",
        &mut music,
        &indexes,
        &q,
        OptimizerConfig::cost_controlled(),
    );

    println!("\n§4.5 (composers influenced by the masters of Bach — very selective join):");
    let qj = sec45_pushjoin_query(&catalog);
    run_one(
        "never push",
        &mut music,
        &indexes,
        &qj,
        OptimizerConfig::never_push(),
    );
    run_one(
        "always push",
        &mut music,
        &indexes,
        &qj,
        OptimizerConfig::deductive_heuristic(),
    );
    run_one(
        "cost-controlled",
        &mut music,
        &indexes,
        &qj,
        OptimizerConfig::cost_controlled(),
    );

    println!(
        "\nThe point of the paper: neither heuristic is right in general — \
         the cost-controlled strategy matches the better plan in both regimes."
    );
}
