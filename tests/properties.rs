//! Property-based integration tests: on randomized databases and query
//! parameters, every optimizer configuration produces plans that match
//! the reference evaluator, and the optimality ordering of the search
//! strategies holds.
//!
//! Cases are driven by the in-repo deterministic [`Prng`], so every run
//! explores the same parameter points and failures reproduce exactly.

use oorq::cost::CostParams;
use oorq::datagen::{ChainConfig, MusicConfig};
use oorq::exec::eval_query_graph;
use oorq::optimizer::{OptimizerConfig, SpjStrategy};
use oorq::query::paper::INFLUENCER_VIEW;
use oorq::query::{parse_query, QueryGraph};
use oorq_bench::{Knobs, Scenario};
use oorq_prng::Prng;

fn music(chains: u32, len: u32, works: u32, fraction: f64, seed: u64) -> Scenario {
    Scenario::music(MusicConfig {
        chains,
        chain_len: len,
        works_per_composer: works,
        instruments_per_work: 2,
        harpsichord_fraction: fraction,
        seed,
        ..Default::default()
    })
}

/// Figure 3 over `instrument` at `gen >= gen`, projecting the
/// generation too.
fn influenced(cat: &oorq::schema::Catalog, gen: i64, instrument: &str) -> QueryGraph {
    let text = format!(
        "{INFLUENCER_VIEW}select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.master.works.instruments.name = \"{instrument}\" and i.gen >= {gen}"
    );
    parse_query(cat, &text).unwrap()
}

/// Optimized plans preserve query semantics on random databases and
/// filter parameters, pushed or not.
#[test]
fn optimizer_preserves_semantics() {
    let mut rng = Prng::new(0x0011_aa01);
    for case in 0..8 {
        let chains = rng.range_u32(1, 4);
        let len = rng.range_u32(2, 6);
        let works = rng.range_u32(1, 3);
        let fraction = rng.f64();
        let seed = rng.below(1000);
        let gen = rng.range_i64(1, 4);
        let instrument = ["harpsichord", "flute", "instrument2"][rng.index(3)];
        let mut m = music(chains, len, works, fraction, seed);
        let q = influenced(m.db.catalog(), gen, instrument);
        let reference = eval_query_graph(&m.db, &m.methods, &q).unwrap();
        for config in [
            OptimizerConfig::cost_controlled(),
            OptimizerConfig::deductive_heuristic(),
            OptimizerConfig::never_push(),
        ] {
            let got = m.run(&q, config.clone(), &Knobs::default()).unwrap().answer;
            let mut a = reference.rows.clone();
            let mut b = got.rows;
            a.sort();
            b.sort();
            assert_eq!(a, b, "case {case}: {config:?} diverged");
        }
    }
}

/// Exhaustive enumeration never loses to DP or greedy (estimated
/// cost), and all three agree with the reference on answers.
#[test]
fn strategy_optimality_ordering() {
    let mut rng = Prng::new(0x0011_aa02);
    for case in 0..8 {
        let relations = 2 + rng.index(2);
        let rows = rng.range_u32(10, 25);
        let domain = rng.range_i64(5, 20);
        let seed = rng.below(1000);
        let limit = rng.range_i64(1, 10);
        let mut chain = Scenario::chain(ChainConfig {
            relations,
            rows,
            domain,
            seed,
        });
        let q = chain.chain_query(limit);
        let mut costs = Vec::new();
        let reference = eval_query_graph(&chain.db, &chain.methods, &q).unwrap();
        for strategy in [
            SpjStrategy::Exhaustive,
            SpjStrategy::Dp,
            SpjStrategy::Greedy,
        ] {
            let config = OptimizerConfig {
                spj_strategy: strategy,
                rand: None,
                ..Default::default()
            };
            let run = chain.run(&q, config, &Knobs::default()).unwrap();
            costs.push(run.estimated());
            let got = run.answer;
            let mut a = reference.rows.clone();
            let mut b = got.rows.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "case {case}: {strategy:?} diverged");
        }
        assert!(
            costs[0] <= costs[1] + 1e-6,
            "case {case}: exhaustive {} > dp {}",
            costs[0],
            costs[1]
        );
        assert!(
            costs[0] <= costs[2] + 1e-6,
            "case {case}: exhaustive {} > greedy {}",
            costs[0],
            costs[2]
        );
    }
}

/// Cost estimates are finite, non-negative, and monotone in database
/// cardinality for the fixpoint query.
#[test]
fn cost_is_sane_and_monotone() {
    let mut rng = Prng::new(0x0011_aa03);
    for case in 0..8 {
        let seed = rng.below(500);
        let small = music(2, 3, 2, 0.5, seed);
        let large = music(6, 6, 2, 0.5, seed);
        let q = influenced(small.db.catalog(), 2, "harpsichord");
        let mut totals = Vec::new();
        for m in [&small, &large] {
            let plan = m
                .plan(&q, OptimizerConfig::never_push(), &Knobs::default())
                .unwrap();
            let t = plan.cost.total(&CostParams::default());
            assert!(t.is_finite() && t >= 0.0, "case {case}");
            totals.push(t);
        }
        assert!(
            totals[1] > totals[0],
            "case {case}: larger database must cost more: {} vs {}",
            totals[1],
            totals[0]
        );
    }
}
