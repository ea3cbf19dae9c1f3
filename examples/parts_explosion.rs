//! Engineering bill-of-materials (the paper's §1 motivation): compute
//! the transitive sub-parts of an assembly — "execute a method for each
//! subpart (recursively) connected to a given part object" — with a
//! recursive `Contains` view and a computed attribute (method) in the
//! final projection.
//!
//! Run with: `cargo run --release --example parts_explosion`

use std::sync::Arc;

use oorq::cost::{CostModel, CostParams};
use oorq::datagen::{parts_catalog, PartsConfig, PartsDb, CONTAINS_VIEW};
use oorq::exec::{eval_query_graph, Executor, MethodRegistry};
use oorq::index::IndexSet;
use oorq::optimizer::{Optimizer, OptimizerConfig};
use oorq::query::parse_query;
use oorq::storage::DbStats;

fn main() {
    let catalog = Arc::new(parts_catalog());
    let mut parts = PartsDb::generate(
        Arc::clone(&catalog),
        PartsConfig {
            roots: 3,
            fanout: 3,
            depth: 3,
            ..Default::default()
        },
    );
    println!(
        "bill of materials: {} parts in 3 assemblies",
        parts.part_count()
    );

    // "The name and unit test cost of every component of asm0 heavier
    //  than 40 units" — unit_test_cost is a *method* (computed
    //  attribute), so the optimizer must weigh its invocation cost.
    let text = format!(
        "{CONTAINS_VIEW}select [component: k.component.name, test_cost: k.component.unit_test_cost, depth: k.depth]
from k in Contains
where k.assembly.name = \"asm0\" and k.component.weight >= 40"
    );
    let query = parse_query(&catalog, &text).expect("query parses");
    println!("\nquery graph:\n{}", query.display(&catalog));

    let stats = DbStats::collect(&parts.db);
    let model = CostModel::new(
        parts.db.catalog(),
        parts.db.physical(),
        &stats,
        CostParams::default(),
    );
    let mut optimizer = Optimizer::new(model, OptimizerConfig::cost_controlled());
    let plan = optimizer.optimize(&query).expect("query optimizes");
    drop(optimizer);
    println!(
        "\nestimated cost: {:.0} io + {:.0} cpu",
        plan.cost.cost.io, plan.cost.cost.cpu
    );

    let methods = MethodRegistry::with_parts_methods(&catalog);
    // Cross-check against the naive reference evaluator.
    let reference = eval_query_graph(&parts.db, &methods, &query).expect("reference evaluates");
    let indexes = IndexSet::new();
    parts.db.cold_cache();
    let mut executor = Executor::new(&mut parts.db, &indexes, &methods);
    let answer = executor.run(&plan.pt).expect("plan executes");
    let report = executor.report();
    assert_eq!(
        answer.len(),
        reference.len(),
        "optimized plan matches the reference"
    );
    println!(
        "\n{} heavy components under asm0 ({} method calls, {} page reads):",
        answer.len(),
        report.method_calls,
        report.io.page_reads
    );
    let mut rows = answer.rows.clone();
    rows.sort();
    for row in rows.iter().take(8) {
        println!("  {} test_cost={} depth={}", row[0], row[1], row[2]);
    }
}
