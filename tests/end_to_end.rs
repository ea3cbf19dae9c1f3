//! Cross-crate integration tests: every plan the optimizer emits —
//! under every strategy — must produce exactly the reference evaluator's
//! answer, across schemas and physical designs.

use oorq::datagen::{ChainConfig, MusicConfig, PartsConfig};
use oorq::exec::{eval_query_graph, MethodRegistry};
use oorq::optimizer::OptimizerConfig;
use oorq::query::paper::fig2_query;
use oorq::query::{Expr, NameRef, QArc, QueryGraph, SpjNode};
use oorq_bench::{Knobs, Scenario};

fn all_configs() -> Vec<OptimizerConfig> {
    vec![
        OptimizerConfig::cost_controlled(),
        OptimizerConfig::deductive_heuristic(),
        OptimizerConfig::never_push(),
        OptimizerConfig::exhaustive(),
        OptimizerConfig {
            spj_strategy: oorq::optimizer::SpjStrategy::Greedy,
            ..OptimizerConfig::cost_controlled()
        },
    ]
}

fn check_equivalence(s: &mut Scenario, q: &QueryGraph, label: &str) {
    let mut reference = eval_query_graph(&s.db, &s.methods, q)
        .expect("reference evaluates")
        .rows;
    reference.sort();
    for config in all_configs() {
        let mut got = s
            .run(q, config.clone(), &Knobs::default())
            .unwrap_or_else(|e| panic!("{label}: {config:?}: {e}"))
            .answer
            .rows;
        got.sort();
        assert_eq!(
            reference, got,
            "{label}: {config:?} diverged from the reference"
        );
    }
}

#[test]
fn music_queries_all_strategies_match_reference() {
    let mut s = Scenario::music(MusicConfig {
        chains: 3,
        chain_len: 5,
        works_per_composer: 2,
        instruments_per_work: 2,
        harpsichord_fraction: 0.5,
        ..Default::default()
    });
    let (q2, q3, qj) = (fig2_query(s.db.catalog()), s.fig3_gen(2), s.pushjoin());
    check_equivalence(&mut s, &q2, "fig2");
    check_equivalence(&mut s, &q3, "fig3");
    check_equivalence(&mut s, &qj, "pushjoin");
}

#[test]
fn clustered_physical_design_matches_reference() {
    let mut s = Scenario::music(MusicConfig {
        chains: 2,
        chain_len: 6,
        clustered: true,
        harpsichord_fraction: 0.6,
        ..Default::default()
    });
    let q = s.fig3_gen(2);
    check_equivalence(&mut s, &q, "fig3-clustered");
}

#[test]
fn queries_with_methods_match_reference() {
    // A query whose predicate invokes the computed attribute `age`.
    let mut s = Scenario::music(MusicConfig {
        chains: 3,
        chain_len: 4,
        ..Default::default()
    });
    let cat = s.db.catalog_rc();
    let composer = cat.class_by_name("Composer").unwrap();
    let mut q = QueryGraph::new(NameRef::Derived("A".into()));
    q.add_spj(
        NameRef::Derived("A".into()),
        SpjNode {
            inputs: vec![QArc::new(NameRef::Class(composer), "x")],
            pred: Expr::path("x", &["age"]).ge(Expr::int(60)),
            out_proj: vec![("name".into(), Expr::path("x", &["name"]))],
        },
    );
    s.methods = MethodRegistry::with_music_methods(&cat);
    check_equivalence(&mut s, &q, "method-query");
}

#[test]
fn parts_bom_query_matches_reference() {
    let mut s = Scenario::parts(PartsConfig {
        roots: 2,
        fanout: 2,
        depth: 3,
        ..Default::default()
    });
    let q = s.parts_query();
    check_equivalence(&mut s, &q, "parts-bom");
    // Sanity: the answer is the set of heavy descendants of asm0.
    let reference = eval_query_graph(&s.db, &s.methods, &q).unwrap();
    assert!(!reference.is_empty());
}

#[test]
fn chain_joins_match_reference_across_strategies() {
    let mut s = Scenario::chain(ChainConfig {
        relations: 4,
        rows: 40,
        domain: 12,
        seed: 3,
    });
    let q = s.chain_query(6);
    check_equivalence(&mut s, &q, "chain-4");
}

/// The plans the `reproduce` figures print (Figure 3 and the §4.5
/// push-join at the paper's fan-outs) return the reference answer.
#[test]
fn reports_semantics_verified() {
    let mut s = Scenario::music(MusicConfig {
        chains: 3,
        chain_len: 5,
        harpsichord_fraction: 0.5,
        ..Scenario::paper_scale()
    });
    let (q3, qj) = (s.fig3_gen(2), s.pushjoin());
    check_equivalence(&mut s, &q3, "reports/fig3");
    check_equivalence(&mut s, &qj, "reports/pushjoin");
}
