//! Whole-corpus plan checks: fingerprint distinctness, the node
//! resolver against what lowering builds, and the randomized walk's
//! result against a table recorded before it skipped revisited plans.
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
use oorq_core::{neighbours, rand_optimize_with, Decisions, Move, OptimizerConfig, RandConfig};
use oorq_cost::{CostModel, CostParams};
use oorq_prng::Prng;
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
        // Pre-order, the numbering of `OpMeta::pt_node`.
        let nodes = subtrees(pt);
        let plan = lower(&s.env(temps), pt).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut lowered: HashSet<usize> = HashSet::new();
        let mut under_rec: HashSet<usize> = HashSet::new();
        plan.root.visit(&mut |op| {
            let node = nodes[op.meta().pt_node].1;
            assert_eq!(
                op.rescannable(),
                rescannable(node),
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

/// Seeds × move budgets [`WALK_OUTCOMES`] covers, seed-major. (The
/// budgets were recorded as walks of 30 moves restarted thrice and of 5
/// moves: a restart resumed from the incumbent, so they are one walk of
/// 90 moves and one of 5.)
const WALK_SEEDS: [u64; 3] = [0xC0FFEE, 1, 2];
const WALK_BUDGETS: [usize; 2] = [90, 5];

/// What the unverified walk (`rand_optimize_with` over `neighbours`)
/// returned for every corpus row, from the row's plan without a
/// randomized phase, as `(fingerprint, cost bits)`:
/// **recorded at the commit before the walk remembered what it had
/// turned down** (2b7c032), when every draw was verified, analyzed and
/// costed again. One pair when all six seed × budget runs agree, else
/// the six in [`WALK_SEEDS`] × [`WALK_BUDGETS`] order. The ten
/// `*/fig3/*` rows compare against a literal, whose estimate moved when
/// equalities began to read the value-count tables: they are re-recorded
/// from that commit, whose estimates no build of the re-examining walk
/// has — so every row is also run through [`re_examining_walk`], that
/// walk's loop kept here, and the two must agree on today's estimates.
/// The walk leaves its start on `music1/fig3/push` and
/// `music/pushjoin/push` only (`music/fig3/push` in place of the former,
/// before the re-recording).
#[rustfmt::skip]
const WALK_OUTCOMES: &[(&str, &[(u64, u64)])] = &[
    ("music0/fig3/nopush", &[(0xa40460eb91ff879e, 0x4039a4a9670837a1)]),
    ("music0/fig3/push", &[(0xd66819c1d878c0b4, 0x4043577e75720d09)]),
    ("music0/pushjoin/nopush", &[(0x1e8ab997a0a03954, 0x4038ba4fa4fa4fa6)]),
    ("music1/fig3/nopush", &[(0xa40460eb91ff879e, 0x405d999999999999)]),
    ("music1/fig3/push", &[(0x1dd1efffd20cf3cc, 0x4060303ee9bef0cc)]),
    ("music1/pushjoin/nopush", &[(0x1e8ab997a0a03954, 0x405f5d2f1a9fbe77)]),
    ("music2/fig3/nopush", &[(0xe969995211246430, 0x40822d8085bf3762)]),
    ("music2/fig3/push", &[(0xd66819c1d878c0b4, 0x40892363f97950b8)]),
    ("music2/pushjoin/nopush", &[(0xeca26391a5faaf3e, 0x40792fe4d528c044)]),
    ("parts0/nopush", &[(0xa327cfb1d718b68c, 0x4071f131d5acb6f5)]),
    ("parts0/push", &[(0x530c57f651afd442, 0x405bc7aba71a0467)]),
    ("parts1/nopush", &[(0xa327cfb1d718b68c, 0x40a30149374bc6a9)]),
    ("parts1/push", &[(0x530c57f651afd442, 0x408ae4ab17e4b17e)]),
    ("chain0/chain", &[(0x6453461fb578e0ef, 0x408e37ffffffffff)]),
    ("chain0/tail", &[(0x49cc7b808b254295, 0x408e37ffffffffff)]),
    ("chain1/chain", &[(0x1078a3c582d8b974, 0x409448aaaaaaaaab)]),
    ("chain1/tail", &[(0xcc4cf70e1c2fcb2a, 0x409448aaaaaaaaab)]),
    ("music/fig3/nopush", &[(0xec5f428f0155f814, 0x40b207bf5c28f5c2)]),
    ("music/fig3/push", &[(0x5e33dadf64bde648, 0x40af321a2c15e19d)]),
    ("music/pushjoin/nopush", &[(0xeca26391a5faaf3e, 0x40a680bc49ba5e36)]),
    ("music/pushjoin/push", &[
        (0x44eb51c9881cf619, 0x408c337187c6327f),
        (0x375cd3026d113ed1, 0x408c5a0b215fcc18),
        (0x44eb51c9881cf619, 0x408c337187c6327f),
        (0x44eb51c9881cf619, 0x408c337187c6327f),
        (0x44eb51c9881cf619, 0x408c337187c6327f),
        (0x44eb51c9881cf619, 0x408c337187c6327f),
    ]),
    ("fig7/fig3/nopush", &[(0xec5f428f0155f814, 0x40b6b7ecac083126)]),
    ("fig7/fig3/push", &[(0x5e33dadf64bde648, 0x40c10b4c7f9594aa)]),
    ("fig7/pushjoin/nopush", &[(0xeca26391a5faaf3e, 0x40a680bc49ba5e36)]),
    ("parts/nopush", &[(0xa327cfb1d718b68c, 0x40daaa9eccd22be3)]),
    ("parts/push", &[(0x530c57f651afd442, 0x40bcaa45b744cfa0)]),
    ("bigjoin/chain", &[(0xb71ee70273903fb1, 0x40dffcaaaaaaaaaa)]),
];

/// Skipping a draw that was already turned down changes no accept
/// decision: same draws, same moves, same plan and cost, bit for bit.
/// The randomized walk as it was before it remembered what it had
/// turned down (2b7c032, unverified, as the test runs
/// `rand_optimize_with`): every draw is costed again, whatever became of
/// the plan the last time it was drawn.
fn re_examining_walk(model: &CostModel<'_>, start: Pt, config: &RandConfig) -> Pt {
    let total = |pt: &Pt| model.cost(pt).ok().map(|pc| pc.total(&model.params));
    let Some(mut current_cost) = total(&start) else {
        return start;
    };
    let mut current = start;
    let mut rng = Prng::new(config.seed);
    for _ in 0..config.moves {
        let ns = neighbours(model, &current);
        if ns.is_empty() {
            break;
        }
        let pick = ns[rng.index(ns.len())].plan.clone();
        let Some(c) = total(&pick) else { continue };
        if c < current_cost {
            current = pick;
            current_cost = c;
        }
    }
    current
}

#[test]
fn walk_outcomes_equal_the_re_examining_walks() {
    let mut expected = WALK_OUTCOMES.iter();
    for_each_row(
        |_, _| true,
        |name, s, q, config| {
            let config = OptimizerConfig {
                rand: None,
                ..config
            };
            let (start, temps) = s.plan(q, config, &Knobs::default())?;
            let model = s.model(CostParams::default(), temps);
            assert!(!neighbours(&model, &start.pt).is_empty(), "{name}");
            let (row, outcomes) = expected.next().expect("a recorded row");
            assert_eq!(*row, name);
            let runs = WALK_SEEDS
                .iter()
                .flat_map(|seed| WALK_BUDGETS.iter().map(move |budget| (*seed, *budget)));
            for (i, (seed, moves)) in runs.enumerate() {
                let rc = RandConfig { moves, seed };
                let sink = &mut Decisions::default();
                let pt =
                    rand_optimize_with(&model, start.pt.clone(), &rc, &neighbours, false, sink).pt;
                assert_eq!(
                    pt.fingerprint(),
                    re_examining_walk(&model, start.pt.clone(), &rc).fingerprint(),
                    "{name}: seed {seed:#x}, {moves} moves"
                );
                let cost = model.cost(&pt).map_err(|e| format!("{name}: {e}"))?;
                assert_eq!(
                    (pt.fingerprint(), cost.total(&model.params).to_bits()),
                    outcomes[i % outcomes.len()],
                    "{name}: seed {seed:#x}, {moves} moves"
                );
            }
            Ok::<(), String>(())
        },
    )
    .expect("the corpus optimizes");
    assert!(expected.next().is_none(), "a recorded row was not run");
}

/// The move contract: a move rewrites only the node it names, so putting
/// the source's subtree back there gives the source.
#[test]
fn every_move_rewrites_only_the_node_it_names() {
    let mut moves = 0;
    for_each_plan(|name, s, pt, temps| {
        let model = s.model(CostParams::default(), temps);
        for Move { plan, node } in neighbours(&model, pt) {
            let mut back = plan.clone();
            let path = subtrees(&plan)[node].0.clone();
            back.replace_at(&path, pt.preorder().pt(node).clone())
                .unwrap_or_else(|e| panic!("{name}: node {node}: {e}"));
            assert_eq!(&back, pt, "{name}: a move at node {node}");
            moves += 1;
        }
    });
    assert!(moves >= 50, "too few moves: {moves}");
}
