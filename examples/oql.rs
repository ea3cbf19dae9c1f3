//! Textual query front-end: parse an OQL-style program, lint it (exit 1
//! on an error), optimize it cost-controlled, print the chosen plan,
//! execute it and print its EXPLAIN ANALYZE.
//!
//! Run with a program as the first argument, or without arguments to run
//! the built-in Figure 3 program:
//!
//! ```text
//! cargo run --release --example oql -- '
//!   select [name: c.name] from c in Composer where c.birth_year >= 1700'
//! ```

use std::sync::Arc;

use oorq::cost::{CostModel, CostParams};
use oorq::datagen::{MusicConfig, MusicDb};
use oorq::exec::{explain_analyze, Executor, MethodRegistry};
use oorq::index::{IndexSet, PathIndex, SelectionIndex};
use oorq::lint::lint_graph;
use oorq::optimizer::{Optimizer, OptimizerConfig};
use oorq::query::paper::{music_catalog, INFLUENCER_VIEW};
use oorq::query::parse::parse_query;
use oorq::storage::DbStats;

/// The paper's Figure 3 over its `Influencer` view, projecting the
/// generation too.
const DEFAULT_SELECT: &str = r#"
select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.master.works.instruments.name = "harpsichord" and i.gen >= 3
"#;

fn main() {
    let program = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("{INFLUENCER_VIEW}{DEFAULT_SELECT}"));
    let catalog = Arc::new(music_catalog());

    let query = match parse_query(&catalog, &program) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let lint = lint_graph(&catalog, &query);
    print!("lint report:\n{lint}\n");
    if !lint.is_clean() {
        std::process::exit(1);
    }
    println!("parsed query graph:\n{}\n", query.display(&catalog));

    let mut music = MusicDb::generate(
        Arc::clone(&catalog),
        MusicConfig {
            chains: 8,
            chain_len: 8,
            harpsichord_fraction: 0.3,
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
    let stats = DbStats::collect(&music.db);

    let model = CostModel::new(
        music.db.catalog(),
        music.db.physical(),
        &stats,
        CostParams::default(),
    );
    let plan = match Optimizer::new(model, OptimizerConfig::cost_controlled()).optimize(&query) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot optimize: {e}");
            std::process::exit(1);
        }
    };
    let env = oorq::pt::PtEnv::new(music.db.catalog(), music.db.physical());
    println!(
        "chosen plan (estimated {:.0}):",
        plan.cost.total(&CostParams::default())
    );
    println!("{}\n", plan.pt.display(&env));

    let methods = MethodRegistry::with_music_methods(music.db.catalog());
    music.db.cold_cache();
    let mut executor = Executor::new(&mut music.db, &indexes, &methods);
    match executor.run(&plan.pt) {
        Ok(answer) => {
            println!("{} row(s): {}", answer.len(), answer.cols.join(" | "));
            for row in answer.rows.iter().take(20) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("  {}", cells.join(" | "));
            }
            let r = executor.report();
            println!(
                "\nmeasured: {} page reads, {} index reads, {} evaluations, {} method calls",
                r.io.page_reads, r.io.index_reads, r.evals, r.method_calls
            );
            if let Some(phys) = executor.last_plan() {
                let breakdown = &plan.trace.final_breakdown;
                println!("\n{}", explain_analyze(phys, breakdown, None, &r));
            }
        }
        Err(e) => eprintln!("execution failed: {e}"),
    }
}
