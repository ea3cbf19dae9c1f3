//! Every pass over a plan agrees on which node is which and on what it
//! hands up.
//!
//! The reproduction's checks — Figure 5's per-node cost lines, the
//! predicted-vs-observed tables, the AB001–AB003 interval contract, the
//! drift join — are joins on the pre-order id of a PT node. This suite
//! holds every consumer of `oorq_pt::resolve` (the cost model, the
//! analyzer, lowering, the plan lint's `resolve_each`), the positional
//! helpers (`node_ids`, `subtrees`, `fix_recursive_nodes`) and
//! `Pt::output_columns` / `CostModel::resolve` to one numbering and one
//! shape, over every plan the randomized walk can reach from every corpus
//! row's plan under three strategies and over the plan-mutation fuzzer's
//! mutants.

use std::collections::HashSet;

use oorq_bench::fuzz::{for_each_mutant, SMOKE_SEED};
use oorq_bench::scenarios::{for_each_row, neighbour_closure, Scenario};
use oorq_core::{Optimizer, OptimizerConfig};
use oorq_cost::{CostParams, OpenTemp};
use oorq_lint::verify_pt;
use oorq_pt::{fix_recursive_nodes, lower, node_ids, resolve, resolve_each, subtrees, NodeOp, Pt};
use oorq_query::Expr;

/// Check one plan; returns how many lowered operators it compared.
fn check(name: &str, s: &Scenario, pt: &Pt) -> usize {
    let (catalog, physical) = (s.db.catalog(), s.db.physical());
    let plan = resolve(catalog, physical, None, pt).unwrap_or_else(|e| panic!("{name}: {e}"));
    let order = pt.preorder();
    assert_eq!((plan.len(), order.len()), (pt.size(), pt.size()), "{name}");
    // The walk the plan lint reads, past failures, is the same walk.
    let each = resolve_each(catalog, physical, None, &order);
    let each: Vec<_> = each.into_iter().map(|n| n.and_then(Result::ok)).collect();
    assert!(
        each.into_iter().eq(plan.iter().cloned().map(Some)),
        "{name}"
    );

    // The positional helpers: `node_ids`, `subtrees` (what the walk's
    // moves and the fuzzer's mutations rewrite at) and
    // `fix_recursive_nodes`.
    let ids = node_ids(pt);
    let listed = subtrees(pt);
    let mut recursive = HashSet::new();
    // Per node, the innermost fixpoint whose recursive leg holds it.
    let mut leg_of = vec![None; plan.len()];
    for (id, node) in plan.iter().enumerate() {
        assert_eq!(ids[&(order.pt(id) as *const Pt)], id, "{name}: node_ids");
        assert!(std::ptr::eq(listed[id].1, order.pt(id)), "{name}: subtrees");
        assert_eq!(node.size, order.pt(id).size(), "{name}: node {id} size");
        if let NodeOp::FixPoint {
            temp, base, rec, ..
        } = node.op
        {
            recursive.insert(id);
            recursive.extend(rec..rec + plan[rec].size);
            leg_of[rec..rec + plan[rec].size].fill(Some((temp, base)));
            // A fixpoint hands up its base leg's output.
            assert_eq!(node.cols, plan[base].cols, "{name}: Fix({temp})");
        }
    }
    assert_eq!(fix_recursive_nodes(pt), recursive, "{name}");

    // The cost model: one line per estimated node, under its id.
    let cost = s.model(CostParams::default()).cost(pt);
    let cost = cost.unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut costed = HashSet::new();
    for line in &cost.breakdown {
        let id = line
            .node
            .unwrap_or_else(|| panic!("{name}: line `{}`", line.label));
        assert!(
            id < pt.size() && costed.insert(id),
            "{name}: line `{}`",
            line.label
        );
        assert_eq!(
            line.kind,
            plan[id].op.kind(),
            "{name}: line `{}`",
            line.label
        );
        let label = plan[id].op.label(catalog, physical);
        assert!(
            line.label.starts_with(&label),
            "{name}: {} vs {label}",
            line.label
        );
    }

    // The analyzer: bounds indexed by id, sized like the subtree.
    let analysis = s.analyze(pt).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(analysis.nodes.len(), pt.size(), "{name}");
    for (id, b) in analysis.nodes.iter().enumerate() {
        assert_eq!(
            (b.pt_node, b.size),
            (id, plan[id].size),
            "{name}: bounds of {id}"
        );
    }

    // Lowering: every operator names a node the analyzer bounded as
    // lowered, under the same label and with the columns the node hands
    // up resolved on its own: `Pt::output_columns`, or inside a recursive
    // leg `CostModel::resolve` with the fixpoint's temporary open, as the
    // optimizer plans the leg.
    let env = s.env();
    let phys = lower(&env, pt).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut named = HashSet::new();
    let mut lowered = 0;
    phys.root.visit(&mut |op| {
        let (id, label) = (op.meta().pt_node, &op.meta().label);
        named.insert(id);
        assert_eq!(&analysis.nodes[id].label, label, "{name}: node {id}");
        assert!(costed.contains(&id), "{name}: {label} has no cost line");
        let handed_up = match leg_of[id] {
            None => order.pt(id).output_columns(&env),
            Some((temp, base)) => {
                let mut model = s.model(CostParams::default());
                model.open_temp = Some(OpenTemp {
                    name: temp.to_string(),
                    cols: plan[base].cols.clone(),
                    delta: 0.0,
                });
                model
                    .resolve(order.pt(id))
                    .map(|mut n| n.swap_remove(0).cols)
            }
        };
        let handed_up = handed_up.unwrap_or_else(|e| panic!("{name}: {label}: {e}"));
        assert_eq!(handed_up, plan[id].cols, "{name}: {label}");
        let names: Vec<&String> = handed_up.iter().map(|(n, _)| n).collect();
        assert_eq!(
            op.cols().iter().collect::<Vec<_>>(),
            names,
            "{name}: {label}"
        );
        lowered += 1;
    });
    assert_eq!(lowered, phys.ops, "{name}: operator ids are dense");
    for (id, b) in analysis.nodes.iter().enumerate() {
        assert_eq!(
            b.lowered,
            named.contains(&id),
            "{name}: node {id} ({})",
            b.label
        );
    }
    lowered
}

#[test]
fn every_pass_numbers_and_shapes_the_corpus_plans_alike() {
    let mut lowered = 0;
    for_each_row(
        |_, _| true,
        |name, s, q, config| {
            for config in [
                config,
                OptimizerConfig::cost_controlled(),
                OptimizerConfig::exhaustive(),
            ] {
                // A fixpoint's temporary is open only while its
                // recursive leg is planned: none outlives `optimize`.
                let mut opt = Optimizer::new(s.model(CostParams::default()), config);
                let plan = opt.optimize(q).map_err(|e| format!("{name}: {e}"))?;
                assert_eq!(opt.model.open_temp, None, "{name}");
                // Every plan the walk can reach, the chosen one first.
                let model = s.model(CostParams::default());
                for pt in neighbour_closure(&model, &plan.pt) {
                    lowered += check(name, s, &pt);
                }
                // The plan under two more projections, the inner one
                // computing a column nothing reads.
                let pass = |c: &String| (c.clone(), Expr::var(c.clone()));
                let outer: Vec<(String, Expr)> = plan.out_cols.iter().map(pass).collect();
                let mut inner = outer.clone();
                let first = Expr::var(plan.out_cols[0].clone());
                inner.push(("unread".into(), first.clone().eq(first)));
                let wrapped = Pt::proj(outer, Pt::proj(inner, plan.pt.clone()));
                check(name, s, &wrapped);
            }
            Ok::<(), String>(())
        },
    )
    .expect("the corpus optimizes");
    assert!(lowered >= 100, "corpus too small: {lowered} operators");
}

#[test]
fn every_pass_numbers_and_shapes_the_fuzzers_mutants_alike() {
    let (mut resolved, mut rejected) = (0, 0);
    for_each_mutant(150, SMOKE_SEED, |s, m| {
        let name = format!("mutant {} (kind {} at {})", m.iteration, m.kind, m.target);
        // A mutant the walk rejects is rejected by every pass built on it.
        if resolve(s.db.catalog(), s.db.physical(), None, &m.pt).is_err() {
            assert!(s.analyze(&m.pt).is_err(), "{name}");
            assert!(!verify_pt(&s.env(), &m.pt).is_clean(), "{name}");
            assert!(lower(&s.env(), &m.pt).is_err(), "{name}");
            rejected += 1;
        } else if lower(&s.env(), &m.pt).is_ok() {
            // (A union whose legs the mutation misaligned resolves but
            // does not lower: the permutation is lowering's own.)
            check(&name, s, &m.pt);
            resolved += 1;
        }
        Ok(())
    })
    .expect("the fig7 rows optimize");
    assert!(
        resolved >= 50 && rejected >= 1,
        "{resolved} resolved, {rejected} rejected"
    );
}
