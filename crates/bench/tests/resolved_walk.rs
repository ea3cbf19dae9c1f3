//! Every pass over a plan agrees on which node is which and on what it
//! hands up.
//!
//! The reproduction's checks — Figure 5's per-node cost lines, the
//! predicted-vs-observed tables, the AB001–AB003 interval contract, the
//! drift join — are joins on the pre-order id of a PT node. This suite
//! holds every consumer of `oorq_pt::resolve` (the cost model, the
//! analyzer, lowering, the plan lint's `resolve_each`), the positional
//! helpers (`node_ids`, `subtrees`, `fix_recursive_nodes`,
//! `dead_columns`) and `Pt::output_columns` to one numbering and one
//! shape, over every corpus row under three strategies and over the
//! plan-mutation fuzzer's mutants.

use std::collections::HashSet;

use oorq_analysis::dead_columns;
use oorq_bench::fuzz::{for_each_mutant, SMOKE_SEED};
use oorq_bench::scenarios::{for_each_row, Scenario, TempFields};
use oorq_bench::Knobs;
use oorq_core::OptimizerConfig;
use oorq_cost::CostParams;
use oorq_lint::verify_pt;
use oorq_pt::{fix_recursive_nodes, lower, node_ids, resolve, resolve_each, subtrees, NodeOp, Pt};
use oorq_query::Expr;

/// Check one plan; returns how many lowered operators it compared.
fn check(name: &str, s: &Scenario, pt: &Pt, temps: &TempFields) -> usize {
    let (catalog, physical) = (s.db.catalog(), s.db.physical());
    let plan = resolve(catalog, physical, temps, pt).unwrap_or_else(|e| panic!("{name}: {e}"));
    let order = pt.preorder();
    assert_eq!((plan.len(), order.len()), (pt.size(), pt.size()), "{name}");
    // The walk the plan lint reads, past failures, is the same walk.
    let each = resolve_each(catalog, physical, temps, &order);
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
            // A fixpoint hands up its base leg's output, and where the
            // temporary's shape is also registered the two are one.
            assert_eq!(node.cols, plan[base].cols, "{name}: Fix({temp})");
            if let Some(registered) = temps.get(temp) {
                assert_eq!(registered, &plan[base].cols, "{name}: temporary {temp}");
            }
        }
    }
    assert_eq!(fix_recursive_nodes(pt), recursive, "{name}");
    for d in dead_columns(pt).diagnostics {
        let id = d
            .location
            .strip_prefix("node ")
            .and_then(|l| l.split(' ').next());
        let id: usize = id.and_then(|n| n.parse().ok()).expect("`node <id> (Proj)`");
        assert!(matches!(order.pt(id), Pt::Proj { .. }), "{name}: {d}");
    }

    // The cost model: one line per estimated node, under its id.
    let cost = s.model(CostParams::default(), temps.clone()).cost(pt);
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
    let analysis = s
        .analyze(pt, temps.clone())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(analysis.nodes.len(), pt.size(), "{name}");
    for (id, b) in analysis.nodes.iter().enumerate() {
        assert_eq!(
            (b.pt_node, b.size),
            (id, plan[id].size),
            "{name}: bounds of {id}"
        );
    }

    // Lowering: every operator names a node the analyzer bounded as
    // lowered, under the same label and with
    // the columns `Pt::output_columns` gives for that node — asked with
    // every fixpoint's temporary registered, so a recursive leg types on
    // its own.
    let mut scoped = temps.clone();
    for node in &plan {
        if let NodeOp::FixPoint { temp, .. } = node.op {
            scoped.insert(temp.to_string(), node.cols.clone());
        }
    }
    let env = s.env(scoped);
    let phys = lower(&env, pt).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut named = HashSet::new();
    let mut lowered = 0;
    phys.root.visit(&mut |op| {
        let (id, label) = (op.meta().pt_node, &op.meta().label);
        named.insert(id);
        assert_eq!(&analysis.nodes[id].label, label, "{name}: node {id}");
        assert!(costed.contains(&id), "{name}: {label} has no cost line");
        let handed_up = order.pt(id).output_columns(&env);
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
                let knobs = Knobs::default();
                let (plan, temps) = s
                    .plan(q, config, &knobs)
                    .map_err(|e| format!("{name}: {e}"))?;
                lowered += check(name, s, &plan.pt, &temps);
                // A computed column nothing reads, one level down: flagged
                // under the id of the projection that computes it.
                let pass = |c: &String| (c.clone(), Expr::var(c.clone()));
                let outer: Vec<(String, Expr)> = plan.out_cols.iter().map(pass).collect();
                let mut inner = outer.clone();
                let first = Expr::var(plan.out_cols[0].clone());
                inner.push(("unread".into(), first.clone().eq(first)));
                let wrapped = Pt::proj(outer, Pt::proj(inner, plan.pt.clone()));
                check(name, s, &wrapped, &temps);
                let flagged = dead_columns(&wrapped).diagnostics;
                let at: Vec<&str> = flagged.iter().map(|d| d.location.as_str()).collect();
                assert_eq!(at, ["node 1 (Proj)"], "{name}");
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
        let temps = TempFields::new();
        if resolve(s.db.catalog(), s.db.physical(), &temps, &m.pt).is_err() {
            assert!(s.analyze(&m.pt, temps.clone()).is_err(), "{name}");
            assert!(
                !verify_pt(&s.env(temps.clone()), &m.pt).is_clean(),
                "{name}"
            );
            assert!(lower(&s.env(temps), &m.pt).is_err(), "{name}");
            rejected += 1;
        } else if lower(&s.env(temps.clone()), &m.pt).is_ok() {
            // (A union whose legs the mutation misaligned resolves but
            // does not lower: the permutation is lowering's own.)
            check(&name, s, &m.pt, &temps);
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
