//! Plan-fingerprint distinctness over the optimizer corpus.
//!
//! `Pt::fingerprint` keys the serving layer's plan cache, so it must be
//! injective in practice: two structurally different plans must never
//! share a fingerprint, and one plan must always hash the same. This
//! suite optimizes every corpus row under its own and under the two
//! enumeration-heavy strategies, collects the chosen plans *and every
//! subtree of them* (each subtree is a plan the optimizer's bottom-up
//! enumeration considered), and checks fingerprint ↔ canonical-text
//! injectivity pairwise across the whole pool.

use std::collections::HashMap;

use oorq_bench::scenarios::for_each_row;
use oorq_bench::Knobs;
use oorq_core::OptimizerConfig;

/// Every chosen plan and all of its subtrees as (fingerprint, canonical
/// text) pairs.
fn corpus() -> Vec<(u64, String)> {
    let mut pool: Vec<(u64, String)> = Vec::new();
    for_each_row(
        |_, _| true,
        |name, s, q, config| {
            for config in [
                config,
                OptimizerConfig::cost_controlled(),
                OptimizerConfig::exhaustive(),
            ] {
                let (plan, _) = s
                    .plan(q, config, &Knobs::default())
                    .map_err(|e| format!("{name}: {e}"))?;
                plan.pt
                    .visit(&mut |n| pool.push((n.fingerprint(), format!("{n:?}"))));
            }
            Ok::<(), String>(())
        },
    )
    .expect("the corpus optimizes");
    pool
}

#[test]
fn fingerprints_are_injective_across_the_optimizer_corpus() {
    let pool = corpus();
    assert!(
        pool.len() >= 100,
        "corpus too small to be meaningful: {} subtrees",
        pool.len()
    );

    // fingerprint → canonical text: one fingerprint must never cover
    // two different plans (a collision would let the plan cache serve
    // the wrong plan but for its text re-verification).
    let mut by_fp: HashMap<u64, &String> = HashMap::new();
    // canonical text → fingerprint: one plan must always hash the same.
    let mut by_text: HashMap<&String, u64> = HashMap::new();
    let mut distinct = 0usize;
    for (fp, text) in &pool {
        match by_fp.get(fp) {
            None => {
                by_fp.insert(*fp, text);
                distinct += 1;
            }
            Some(prev) => assert_eq!(
                *prev, text,
                "fingerprint collision: {fp:#018x} covers two distinct plans"
            ),
        }
        match by_text.get(text) {
            None => {
                by_text.insert(text, *fp);
            }
            Some(prev) => assert_eq!(*prev, *fp, "unstable fingerprint: one plan hashed two ways"),
        }
    }
    assert!(
        distinct >= 30,
        "corpus collapsed to too few distinct subtrees: {distinct}"
    );
}
