//! The query-graph lint pass: binding discipline, name resolution,
//! recursion classification and reachability over `Q = {(Name ← p)}`.

use std::collections::{BTreeSet, HashMap, HashSet};

use oorq_query::{expr_type, Expr, GraphTerm, Literal, NameRef, QueryGraph, SpjNode};
use oorq_schema::{AtomicType, Catalog, ResolvedType};

use crate::diag::{LintCode, LintReport};

/// Lint a query graph against the catalog: the one check that admits a
/// graph to the optimizer (`Optimizer::optimize` runs it after
/// `normalize` in every build). Tolerant: it keeps going after the
/// first problem and reports everything it can see.
pub fn lint_graph(catalog: &Catalog, graph: &QueryGraph) -> LintReport {
    let mut report = LintReport::new();

    if graph.producers(&graph.answer).is_empty() {
        report.push(
            LintCode::UnknownName,
            format!("{}", graph.answer.display(catalog)),
            "the answer name has no producer",
        );
    }

    for (name, term) in &graph.nodes {
        let loc = format!("{}", name.display(catalog));
        for spj in term.spjs() {
            lint_spj(catalog, graph, &loc, spj, &mut report);
        }
    }

    // The alternatives of a name are the legs of one union: they produce
    // the same fields.
    let mut shapes: HashMap<&NameRef, BTreeSet<&str>> = HashMap::new();
    for (name, term) in &graph.nodes {
        for spj in term.spjs() {
            let fields: BTreeSet<&str> = spj.out_proj.iter().map(|(f, _)| f.as_str()).collect();
            let first = shapes.entry(name).or_insert_with(|| fields.clone());
            if *first != fields {
                let loc = format!("{}", name.display(catalog));
                let msg = format!("alternatives produce {first:?} and {fields:?}");
                report.push(LintCode::UnionShapeMismatch, loc, msg);
            }
        }
    }

    lint_recursion(catalog, graph, &mut report);
    lint_reachability(catalog, graph, &mut report);
    report
}

/// Per-node checks: labels resolve, variables are bound exactly once,
/// every used variable is bound, inputs are connected.
fn lint_spj(
    catalog: &Catalog,
    graph: &QueryGraph,
    loc: &str,
    spj: &SpjNode,
    report: &mut LintReport,
) {
    let mut bound: BTreeSet<String> = BTreeSet::new();
    // Variable → index of the arc that bound it (for the product check).
    let mut arc_of: HashMap<String, usize> = HashMap::new();
    // The root variables of arcs over relations: rows, not values.
    let mut rows: BTreeSet<&str> = BTreeSet::new();

    for (i, arc) in spj.inputs.iter().enumerate() {
        let ty = match graph.type_of(catalog, &arc.name) {
            Ok(ty) => Some(ty),
            Err(e) => {
                report.push(LintCode::UnknownName, loc, format!("{e}"));
                None
            }
        };
        if let Some(ty) = &ty {
            if let Err(e) = arc.label.validate(catalog, ty) {
                report.push(LintCode::BadLabel, loc, format!("{e}"));
            }
        }
        if let (Some(v), Some(ResolvedType::Tuple(_))) = (&arc.var, &ty) {
            rows.insert(v);
        }
        let mut arc_vars: Vec<String> = arc.var.iter().cloned().collect();
        arc_vars.extend(arc.label.vars());
        for v in arc_vars {
            if !bound.insert(v.clone()) {
                report.push(
                    LintCode::DuplicateVariable,
                    loc,
                    format!("variable `{v}` bound more than once"),
                );
            }
            arc_of.insert(v, i);
        }
    }

    let mut used: BTreeSet<String> = spj.pred.vars();
    for (_, e) in &spj.out_proj {
        used.extend(e.vars());
    }
    for v in &used {
        if !bound.contains(v) {
            report.push(
                LintCode::UnboundVariable,
                loc,
                format!("variable `{v}` is unbound"),
            );
        }
    }
    for v in &bound {
        if !used.contains(v) {
            report.push(
                LintCode::UnusedVariable,
                loc,
                format!("variable `{v}` is never used"),
            );
        }
    }

    // A predicate is a truth value in every part: one that cannot be
    // would reach the plan as a selection the executor cannot decide (an
    // arc's root variable, its whole row, is no column of any operator).
    // The node is typed only if some part is not a condition.
    let mut env = None;
    for c in spj.pred.conjuncts() {
        typed_parts(c, &mut |what| {
            let env = env.get_or_insert_with(|| graph.binding_env(catalog, spj));
            match env.as_ref().map(|env| expr_type(catalog, what, env)) {
                Ok(Ok(ty)) if ty != ResolvedType::Atomic(AtomicType::Bool) => {
                    let msg = format!("conjunct `{c}` is no truth value: `{what}` is a {ty:?}");
                    report.push(LintCode::IllTypedPredicate, loc, msg);
                }
                _ => {}
            }
        });
    }

    // A relation arc's row is read through its fields (`i.master`): a
    // plan binds those, never the row itself, so a row used as a value —
    // compared, or projected — could not be served (ROADMAP item 14).
    let mut misused: BTreeSet<&str> = BTreeSet::new();
    let exprs = std::iter::once(&spj.pred).chain(spj.out_proj.iter().map(|(_, e)| e));
    for e in exprs {
        bare_vars(e, &mut |v| {
            if rows.contains(v) {
                misused.insert(v);
            }
        });
    }
    for v in misused {
        let msg = format!("`{v}` is a relation's row, used as a value: only its fields are");
        report.push(LintCode::IllTypedPredicate, loc, msg);
    }

    // Cartesian product: ≥2 inputs and no conjunct (nor projection
    // expression) mentions variables from two different arcs.
    if spj.inputs.len() >= 2 {
        let connects = |e: &Expr| {
            let arcs: HashSet<usize> = e
                .vars()
                .iter()
                .filter_map(|v| arc_of.get(v))
                .copied()
                .collect();
            arcs.len() >= 2
        };
        let connected = spj.pred.conjuncts().iter().any(|c| connects(c))
            || spj.out_proj.iter().any(|(_, e)| connects(e));
        if !connected {
            report.push(
                LintCode::CartesianProduct,
                loc,
                format!("{} inputs with no connecting condition", spj.inputs.len()),
            );
        }
    }
}

/// Hand `out` each part of predicate `e` that is a truth value only if its
/// type is boolean: a comparison, `true`, `false` or `null` is one, and a
/// conjunction, disjunction or negation is one if its operands are.
fn typed_parts<'e>(e: &'e Expr, out: &mut impl FnMut(&'e Expr)) {
    match e {
        Expr::And(l, r) | Expr::Or(l, r) => {
            typed_parts(l, out);
            typed_parts(r, out);
        }
        Expr::Not(e) => typed_parts(e, out),
        Expr::True | Expr::Cmp { .. } | Expr::Lit(Literal::Bool(_) | Literal::Null) => {}
        _ => out(e),
    }
}

/// Hand `out` each variable `e` reads as a value, not as a path's base.
fn bare_vars<'e>(e: &'e Expr, out: &mut impl FnMut(&'e str)) {
    match e {
        Expr::Var(v) => out(v),
        Expr::Cmp { lhs, rhs, .. }
        | Expr::And(lhs, rhs)
        | Expr::Or(lhs, rhs)
        | Expr::Add(lhs, rhs) => {
            bare_vars(lhs, out);
            bare_vars(rhs, out);
        }
        Expr::Not(e) => bare_vars(e, out),
        Expr::True | Expr::Lit(_) | Expr::Path { .. } => {}
    }
}

/// Classify recursion per produced name: unsafe (no base case),
/// non-linear (an alternative consumes its own name twice), or linear.
/// Mutual recursion between distinct names is flagged separately.
fn lint_recursion(catalog: &Catalog, graph: &QueryGraph, report: &mut LintReport) {
    let produced: Vec<&NameRef> = {
        let mut seen = Vec::new();
        for (name, _) in &graph.nodes {
            if !seen.contains(&name) {
                seen.push(name);
            }
        }
        seen
    };

    for name in &produced {
        let loc = format!("{}", name.display(catalog));
        // Every union alternative across every producer of the name.
        let alts: Vec<&GraphTerm> = graph
            .producers(name)
            .iter()
            .flat_map(|t| t.alternatives())
            .collect();
        let self_counts: Vec<usize> = alts.iter().map(|alt| alt.self_references(name)).collect();
        let recursive = self_counts.iter().any(|&c| c > 0);
        if !recursive {
            continue;
        }
        if !self_counts.contains(&0) {
            report.push(
                LintCode::UnsafeRecursion,
                &loc,
                "recursive with no non-recursive alternative (empty fixpoint)",
            );
        }
        if self_counts.iter().any(|&c| c >= 2) {
            report.push(
                LintCode::NonLinearRecursion,
                &loc,
                "an alternative consumes the name more than once",
            );
        } else {
            report.push(LintCode::LinearRecursion, &loc, "linearly recursive");
        }
    }

    // Mutual recursion / dead cycles: transitive dependencies among
    // produced names, ignoring direct self-loops (those are the linear
    // recursion handled above).
    let reachable = reachable_from_answer(graph);
    let mut flagged: HashSet<(usize, usize)> = HashSet::new();
    for (i, a) in produced.iter().enumerate() {
        let a_reaches = transitive_deps(graph, a);
        for (j, b) in produced.iter().enumerate() {
            if i >= j || !a_reaches.contains(*b) {
                continue;
            }
            if transitive_deps(graph, b).contains(*a) && flagged.insert((i, j)) {
                let code = if reachable.contains(*a) || reachable.contains(*b) {
                    LintCode::MutualRecursion
                } else {
                    LintCode::DeadViewCycle
                };
                report.push(
                    code,
                    format!("{}", a.display(catalog)),
                    format!(
                        "cycle with `{}` (each consumes the other)",
                        b.display(catalog)
                    ),
                );
            }
        }
    }
}

/// Names transitively consumed by the producers of `start`, excluding
/// the trivial `start → start` self-edge.
fn transitive_deps<'g>(graph: &'g QueryGraph, start: &NameRef) -> HashSet<&'g NameRef> {
    let producers = graph.producers(start).into_iter();
    let first = producers
        .flat_map(|t| t.consumed_names())
        .filter(|n| *n != start);
    consumed_closure(graph, first.collect())
}

/// Names reachable from the answer through producer → consumed edges.
fn reachable_from_answer(graph: &QueryGraph) -> HashSet<&NameRef> {
    consumed_closure(graph, vec![&graph.answer])
}

/// `work` and every name their producers transitively consume.
fn consumed_closure<'g>(graph: &'g QueryGraph, mut work: Vec<&'g NameRef>) -> HashSet<&'g NameRef> {
    let mut seen: HashSet<&NameRef> = work.iter().copied().collect();
    while let Some(n) = work.pop() {
        for t in graph.producers(n) {
            for m in t.consumed_names() {
                if seen.insert(m) {
                    work.push(m);
                }
            }
        }
    }
    seen
}

/// Produced names the answer can never consume.
fn lint_reachability(catalog: &Catalog, graph: &QueryGraph, report: &mut LintReport) {
    let reachable = reachable_from_answer(graph);
    let mut flagged: HashSet<&NameRef> = HashSet::new();
    for (name, _) in &graph.nodes {
        if !reachable.contains(name) && flagged.insert(name) {
            report.push(
                LintCode::UnreachableNode,
                format!("{}", name.display(catalog)),
                "produced but unreachable from the answer",
            );
        }
    }
}
