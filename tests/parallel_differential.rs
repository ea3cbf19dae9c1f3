//! Parallel-execution differential tests: every scenario (music chains,
//! parts BOM, relational chain joins) under both push strategies must
//! produce *byte-identical* answers — same rows, same order — whether
//! the plan's parallel operators drain inline (1 worker) or fork onto a
//! pool of 2 or 4 workers. This is the exchange operators' determinism
//! contract: page-granular partitioning plus worker-order concatenation
//! reproduces the exact serial row order, so even order-sensitive
//! consumers cannot observe the degree of parallelism.

use oorq::cost::ParallelParams;
use oorq::datagen::{ChainConfig, MusicConfig, PartsConfig};
use oorq::optimizer::OptimizerConfig;
use oorq::query::QueryGraph;
use oorq_bench::scenarios::env_budget;
use oorq_bench::{Knobs, Scenario};
use oorq_prng::Prng;

/// Optimize once with a 4-worker budget, take the serial answer as the
/// reference, then replay the *same* parallel spec under pools of 1, 2
/// and 4 workers and demand row-for-row, in-order identity. Every run
/// is under the `OORQ_MEMORY_BUDGET` breaker budget (CI re-runs this
/// suite under a low one: the determinism contract must survive
/// spilling breakers on every lane). Returns whether the optimizer
/// placed any parallel operator at all, so callers can assert the suite
/// is not vacuously serial.
fn parallel_identity(
    s: &mut Scenario,
    q: &QueryGraph,
    config: OptimizerConfig,
    label: &str,
) -> bool {
    let config = OptimizerConfig {
        threads: 4,
        ..config
    };
    let (plan, _) = s
        .plan(q, config, &Knobs::default())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut rows = |workers: u32| {
        s.execute(
            &plan.pt,
            &plan.parallel,
            &Knobs::resources(workers, env_budget()),
        )
        .unwrap_or_else(|e| panic!("{label}/{workers}w: {e}"))
        .0
        .rows
    };
    // 0 workers runs the plain plan: no parallel operators at all.
    let reference = rows(0);
    for workers in [1u32, 2, 4] {
        assert_eq!(
            reference,
            rows(workers),
            "{label}/{workers}w: parallel answer deviated from the serial one"
        );
    }
    !plan.parallel.is_empty()
}

/// Run the identity check under both push strategies with zero-overhead
/// parallel cost parameters (so placement is limited only by
/// eligibility, maximizing the exercised exchange/merge shapes).
fn parallel_identity_both(s: &mut Scenario, q: &QueryGraph, label: &str) -> bool {
    let free = ParallelParams {
        startup: 0.0,
        merge_per_row: 0.0,
        efficiency: 1.0,
    };
    let mut placed = false;
    for (cname, config) in [
        ("cost-controlled", OptimizerConfig::cost_controlled()),
        ("always-push", OptimizerConfig::deductive_heuristic()),
    ] {
        placed |= parallel_identity(
            s,
            q,
            OptimizerConfig {
                parallel: free,
                ..config
            },
            &format!("{label}/{cname}"),
        );
    }
    placed
}

#[test]
fn music_parallel_identical_to_serial() {
    let mut placed = false;
    for (seed, chains, chain_len) in [(1u64, 3u32, 5u32), (42, 4, 6)] {
        let mut s = Scenario::music(MusicConfig {
            chains,
            chain_len,
            works_per_composer: 2,
            instruments_per_work: 2,
            harpsichord_fraction: 0.5,
            seed,
            ..Default::default()
        });
        let q = s.fig3_gen(2);
        placed |= parallel_identity_both(
            &mut s,
            &q,
            &format!("music(seed={seed},chains={chains}x{chain_len})"),
        );
    }
    assert!(
        placed,
        "music: no plan placed a parallel operator — suite is vacuous"
    );
}

#[test]
fn parts_parallel_identical_to_serial() {
    let mut placed = false;
    for (seed, roots, fanout, depth) in [(9u64, 3u32, 2u32, 4u32), (23, 2, 3, 3)] {
        let mut s = Scenario::parts(PartsConfig {
            roots,
            fanout,
            depth,
            seed,
            ..Default::default()
        });
        let q = s.parts_query();
        placed |= parallel_identity_both(
            &mut s,
            &q,
            &format!("parts(seed={seed},{roots}x{fanout}^{depth})"),
        );
    }
    assert!(
        placed,
        "parts: no plan placed a parallel operator — suite is vacuous"
    );
}

#[test]
fn chain_parallel_identical_to_serial() {
    let mut placed = false;
    for (seed, relations, rows, domain) in [(3u64, 2usize, 120u32, 16i64), (13, 3, 40, 10)] {
        let mut s = Scenario::chain(ChainConfig {
            relations,
            rows,
            domain,
            seed,
        });
        let q = s.chain_query(domain / 2);
        placed |= parallel_identity_both(&mut s, &q, &format!("chain(seed={seed},k={relations})"));
    }
    assert!(
        placed,
        "chain: no plan placed a parallel operator — suite is vacuous"
    );
}

/// Seeded stress: random database shapes, random worker budgets, both
/// strategies — a cheap fuzz of the determinism contract over plan
/// shapes no hand-picked scenario covers. The PRNG is the repo's own
/// seeded generator, so a failure reproduces from the printed label.
#[test]
fn seeded_parallel_stress() {
    let mut rng = Prng::new(0x9a7a_11e1);
    for round in 0..6 {
        if rng.chance(0.5) {
            let chains = rng.range_u32(2, 5);
            let chain_len = rng.range_u32(3, 6);
            let seed = rng.next_u64();
            let mut s = Scenario::music(MusicConfig {
                chains,
                chain_len,
                works_per_composer: rng.range_u32(1, 3),
                instruments_per_work: rng.range_u32(1, 3),
                harpsichord_fraction: rng.f64(),
                seed,
                ..Default::default()
            });
            let q = s.fig3_gen(rng.range_i64(1, 3));
            parallel_identity_both(
                &mut s,
                &q,
                &format!("stress[{round}]/music(seed={seed:#x},{chains}x{chain_len})"),
            );
        } else {
            let relations = rng.index(2) + 2;
            let rows = rng.range_u32(20, 90);
            let domain = rng.range_i64(6, 20);
            let seed = rng.next_u64();
            let mut s = Scenario::chain(ChainConfig {
                relations,
                rows,
                domain,
                seed,
            });
            let q = s.chain_query(rng.range_i64(2, domain));
            parallel_identity_both(
                &mut s,
                &q,
                &format!("stress[{round}]/chain(seed={seed:#x},k={relations},n={rows})"),
            );
        }
    }
}
