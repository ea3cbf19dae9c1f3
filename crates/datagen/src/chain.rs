//! Synthetic join-chain databases for optimizer-scaling experiments.
//!
//! A schema of `k` stored relations `R0..R(k-1)`, each `[a: int, b:
//! int]`, joined pairwise `Ri.b = R(i+1).a` — the classic workload for
//! comparing join-enumeration strategies (exhaustive vs DP vs greedy vs
//! randomized), as in \[IC90\] and \[KZ88\].

use std::sync::Arc;

use oorq_prng::Prng;
use oorq_query::{parse_query, QueryGraph};
use oorq_schema::{Catalog, Field, RelationDef, SchemaBuilder, TypeExpr};
use oorq_storage::{Database, StorageConfig, Value, WidthModel};

/// Configuration of the chain generator.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Number of relations in the chain.
    pub relations: usize,
    /// Rows per relation.
    pub rows: u32,
    /// Domain of the join columns (smaller domain = larger joins).
    pub domain: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            relations: 4,
            rows: 200,
            domain: 50,
            seed: 11,
        }
    }
}

/// A generated chain database.
pub struct ChainDb {
    /// The store.
    pub db: Database,
    /// Relation names, in chain order.
    pub names: Vec<String>,
}

/// Build the chain catalog for `k` relations.
pub(crate) fn chain_catalog(k: usize) -> Catalog {
    let mut b = SchemaBuilder::new();
    for i in 0..k {
        b = b.relation(RelationDef::new(
            format!("R{i}"),
            TypeExpr::Tuple(vec![
                Field::new("a", TypeExpr::int()),
                Field::new("b", TypeExpr::int()),
            ]),
        ));
    }
    b.build().expect("chain schema must validate")
}

/// The chain join `Ri.b = R(i+1).a` over every relation of a
/// [`chain_catalog`], restricted by `bound` and selecting the fields
/// `select`, written as OQL text and parsed.
fn parsed_chain(catalog: &Catalog, bound: &str, select: &str) -> QueryGraph {
    let k = catalog.relations().len();
    let from: Vec<String> = (0..k).map(|i| format!("r{i} in R{i}")).collect();
    let mut pred = bound.to_string();
    for i in 1..k {
        pred += &format!(" and r{}.b = r{i}.a", i - 1);
    }
    let text = format!("select [{select}]\nfrom {}\nwhere {pred}", from.join(", "));
    parse_query(catalog, &text).expect("the chain queries parse over the chain schema")
}

/// The k-way chain-join query over a `chain_catalog`:
/// `select R0.a, R(k-1).b where Ri.b = R(i+1).a, R0.a < limit`.
pub fn chain_query(catalog: &Catalog, limit: i64) -> QueryGraph {
    let last = catalog.relations().len() - 1;
    parsed_chain(
        catalog,
        &format!("r0.a < {limit}"),
        &format!("first: r0.a, last: r{last}.b"),
    )
}

/// The chain-join query with the selective bound on the *last*
/// relation: a syntactic (query-order) translator joins the unfiltered
/// head relations first and drags huge intermediates down the chain,
/// while a cost-based optimizer starts from the filtered tail.
pub fn selective_tail_query(catalog: &Catalog, limit: i64) -> QueryGraph {
    let last = catalog.relations().len() - 1;
    parsed_chain(catalog, &format!("r{last}.b < {limit}"), "first: r0.a")
}

impl ChainDb {
    /// Generate a chain database.
    pub fn generate(config: ChainConfig) -> Self {
        Self::generate_paged(config, WidthModel::default())
    }

    /// [`ChainDb::generate`] with the store's page geometry given (the
    /// same rows in the same order, whatever the page size).
    pub fn generate_paged(config: ChainConfig, width: WidthModel) -> Self {
        let catalog = Arc::new(chain_catalog(config.relations));
        let storage = StorageConfig {
            width,
            ..StorageConfig::default()
        };
        let mut db = Database::new(Arc::clone(&catalog), storage);
        let mut rng = Prng::new(config.seed);
        let mut names = Vec::new();
        for i in 0..config.relations {
            let name = format!("R{i}");
            let rel = catalog.relation_by_name(&name).expect("just built");
            for _ in 0..config.rows {
                let a = rng.range_i64(0, config.domain);
                let b = rng.range_i64(0, config.domain);
                db.insert_row(rel, vec![Value::Int(a), Value::Int(b)])
                    .expect("insert");
            }
            names.push(name);
        }
        ChainDb { db, names }
    }
}

/// Build the transitive-closure schema: a stored `Edge [a, b]` relation
/// plus the recursive `Path` view declaration over it.
pub fn closure_catalog() -> Catalog {
    SchemaBuilder::new()
        .relation(RelationDef::new(
            "Edge",
            TypeExpr::Tuple(vec![
                Field::new("a", TypeExpr::int()),
                Field::new("b", TypeExpr::int()),
            ]),
        ))
        .view(RelationDef::new(
            "Path",
            TypeExpr::Tuple(vec![
                Field::new("a", TypeExpr::int()),
                Field::new("b", TypeExpr::int()),
            ]),
        ))
        .build()
        .expect("closure schema must validate")
}

/// The full transitive closure of a [`closure_catalog`] as OQL text:
/// `Path = Edge ∪ (Path ⋈ Edge on Path.b = Edge.a)`, answering every
/// path endpoint pair.
pub const CLOSURE_TEXT: &str = "view Path as
  select [a: e.a, b: e.b]
  from e in Edge
  union
  select [a: p.a, b: e.b]
  from p in Path, e in Edge
  where p.b = e.a;
select [a: t.a, b: t.b]
from t in Path";

/// Configuration of the transitive-closure generator.
#[derive(Debug, Clone)]
pub struct ClosureConfig {
    /// Number of chain nodes; edges are `(i, i+1)` for `i <
    /// nodes-1`, so the closure holds `nodes·(nodes-1)/2` paths and
    /// the fixpoint runs `nodes-1` semi-naive passes. Scaling `nodes`
    /// scales the accumulator footprint quadratically — the knob the
    /// spill harness sweeps across the memory-budget cliff.
    pub nodes: u32,
}

impl Default for ClosureConfig {
    fn default() -> Self {
        ClosureConfig { nodes: 32 }
    }
}

/// A generated linear-chain closure database (deterministic; no
/// randomness — the closure cardinality is exact by construction).
pub struct ClosureDb {
    /// The store.
    pub db: Database,
    /// The configuration used.
    pub config: ClosureConfig,
}

impl ClosureDb {
    /// Generate the chain-of-`nodes` edge relation.
    pub fn generate(config: ClosureConfig) -> Self {
        let catalog = Arc::new(closure_catalog());
        let mut db = Database::new(Arc::clone(&catalog), StorageConfig::default());
        let edge = catalog.relation_by_name("Edge").expect("just built");
        for i in 0..config.nodes.saturating_sub(1) {
            db.insert_row(edge, vec![Value::Int(i as i64), Value::Int(i as i64 + 1)])
                .expect("insert edge");
        }
        ClosureDb { db, config }
    }

    /// Exact closure cardinality: every `(i, j)` with `i < j`.
    pub fn closure_rows(&self) -> u64 {
        let n = self.config.nodes as u64;
        n * n.saturating_sub(1) / 2
    }

    /// The full transitive-closure query, [`CLOSURE_TEXT`] parsed with
    /// its view expanded.
    pub fn closure_query(&self) -> QueryGraph {
        parse_query(self.db.catalog(), CLOSURE_TEXT).expect("the closure parses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_db_generates_and_query_lints_clean() {
        let c = ClosureDb::generate(ClosureConfig { nodes: 8 });
        assert_eq!(c.closure_rows(), 28);
        let q = c.closure_query();
        assert!(oorq_lint::lint_graph(c.db.catalog(), &q).is_clean());
        let edge = c.db.catalog().relation_by_name("Edge").unwrap();
        let e =
            c.db.physical()
                .relation_entity(edge)
                .expect("one extension per stored relation");
        assert_eq!(c.db.entity_len(e), 7);
    }

    #[test]
    fn chain_db_generates_and_query_lints_clean() {
        let c = ChainDb::generate(ChainConfig {
            relations: 3,
            rows: 20,
            ..Default::default()
        });
        assert_eq!(c.names.len(), 3);
        let q = chain_query(c.db.catalog(), 10);
        assert!(oorq_lint::lint_graph(c.db.catalog(), &q).is_clean());
        let rel = c.db.catalog().relation_by_name("R1").unwrap();
        let e =
            c.db.physical()
                .relation_entity(rel)
                .expect("one extension per stored relation");
        assert_eq!(c.db.entity_len(e), 20);
    }
}
