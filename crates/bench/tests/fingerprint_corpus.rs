//! Whole-corpus plan checks: fingerprint distinctness, and the node
//! resolver against what lowering builds.
//!
//! `Pt::fingerprint` keys the serving layer's plan cache, so it must be
//! injective in practice: two structurally different plans must never
//! share a fingerprint, and one plan must always hash the same. This
//! suite optimizes every corpus row under its own and under the two
//! enumeration-heavy strategies, collects the chosen plans *and every
//! subtree of them* (each subtree is a plan the optimizer's bottom-up
//! enumeration considered), and checks fingerprint ↔ canonical-text
//! injectivity pairwise across the whole pool.

use std::collections::{HashMap, HashSet};

use oorq_bench::scenarios::{for_each_row, Scenario, TempFields};
use oorq_bench::Knobs;
use oorq_core::OptimizerConfig;
use oorq_pt::{fix_recursive_nodes, lower, rescannable, subtrees, PhysOp, Pt};

/// Every plan the corpus rows choose, each under its own and under the
/// two enumeration-heavy strategies.
fn for_each_plan(mut f: impl FnMut(&str, &Scenario, &Pt, TempFields)) {
    for_each_row(
        |_, _| true,
        |name, s, q, config| {
            for config in [
                config,
                OptimizerConfig::cost_controlled(),
                OptimizerConfig::exhaustive(),
            ] {
                let (plan, temps) = s
                    .plan(q, config, &Knobs::default())
                    .map_err(|e| format!("{name}: {e}"))?;
                f(name, s, &plan.pt, temps);
            }
            Ok::<(), String>(())
        },
    )
    .expect("the corpus optimizes");
}

/// Every chosen plan and all of its subtrees as (fingerprint, canonical
/// text) pairs.
fn corpus() -> Vec<(u64, String)> {
    let mut pool: Vec<(u64, String)> = Vec::new();
    for_each_plan(|_, _, pt, _| {
        pt.visit(&mut |n| pool.push((n.fingerprint(), format!("{n:?}"))));
    });
    pool
}

/// What the PT-level helpers say matches what lowering builds:
/// `rescannable` is the lowered operator's, and `fix_recursive_nodes` is
/// the `Fix` nodes plus exactly the operators under a lowered
/// `FixPoint::rec`.
#[test]
fn pt_helpers_agree_with_lowering_across_the_optimizer_corpus() {
    let mut checked = 0usize;
    for_each_plan(|name, s, pt, temps| {
        let (catalog, physical) = (s.db.catalog(), s.db.physical());
        // Pre-order, the numbering of `OpMeta::pt_node`.
        let nodes = subtrees(pt);
        let plan = lower(&s.env(temps), pt).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut lowered: HashSet<usize> = HashSet::new();
        let mut under_rec: HashSet<usize> = HashSet::new();
        plan.root.visit(&mut |op| {
            let node = nodes[op.meta().pt_node].1;
            assert_eq!(
                op.rescannable(),
                rescannable(catalog, physical, node),
                "{name}: {}",
                op.meta().label
            );
            lowered.insert(op.meta().pt_node);
            if let PhysOp::FixPoint { rec, .. } = op {
                under_rec.insert(op.meta().pt_node);
                rec.visit(&mut |r| {
                    under_rec.insert(r.meta().pt_node);
                });
            }
            checked += 1;
        });
        let recursive = fix_recursive_nodes(pt);
        assert!(under_rec.is_subset(&recursive), "{name}");
        assert_eq!(
            recursive.intersection(&lowered).count(),
            under_rec.len(),
            "{name}: a node outside every lowered recursive leg is marked recursive"
        );
    });
    assert!(checked >= 100, "corpus too small: {checked} operators");
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
