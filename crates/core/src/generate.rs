//! The `generatePT` step (§4.4): optimizing predicate nodes (spj's).
//!
//! A *generative* strategy builds PTs bottom-up from the atomic entities
//! \[Se79\] and keeps the least costly. The `sel` action is applied before
//! the `join` action, so `Sel` nodes are generated as soon as possible
//! (the relational heuristic of pushing selection through join), and the
//! `join` action requires a connecting predicate, avoiding Cartesian
//! products whenever possible.

use std::collections::HashMap;

use oorq_cost::CostModel;
use oorq_pt::{applicable_sel_index, AccessMethod, Pt};
use oorq_query::{Expr, SpjNode};

use crate::decisions::{Decisions, Examined, Outcome};
use crate::error::OptError;
use crate::translate::ArcChain;

/// Join-enumeration strategy for predicate nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpjStrategy {
    /// Selinger-style dynamic programming over arc subsets (left-deep).
    Dp,
    /// Exhaustive enumeration of join permutations \[KZ88\].
    Exhaustive,
    /// Greedy: repeatedly take the cheapest extension.
    Greedy,
    /// No enumeration at all: join in the query's textual order (the
    /// "unoptimized" baseline showing what cost-based search buys).
    Syntactic,
}

/// A priced candidate plan.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The plan.
    pub pt: Pt,
    /// Columns it produces.
    pub cols: Vec<String>,
    /// Weighted total cost.
    pub cost: f64,
}

/// How many access-plan alternatives are kept per arc.
const KEEP_PER_ARC: usize = 4;

/// Rewrite an expression's variables through the translation
/// substitution (query-graph variables → column expressions).
pub(crate) fn rewrite_expr(expr: &Expr, subst: &HashMap<String, Expr>) -> Expr {
    expr.map_leaves(&mut |leaf| match leaf {
        Expr::Var(v) => subst.get(v).cloned(),
        Expr::Path { base, steps } => subst.get(base).map(|repl| match repl {
            Expr::Var(col) => Expr::Path {
                base: col.clone(),
                steps: steps.clone(),
            },
            Expr::Path {
                base: b2,
                steps: s2,
            } => {
                let mut s = s2.clone();
                s.extend(steps.iter().cloned());
                Expr::Path {
                    base: b2.clone(),
                    steps: s,
                }
            }
            other => other.clone(),
        }),
        _ => None,
    })
}

/// Generate the locally optimal PT for one predicate node, given the
/// translated alternatives of each arc.
///
/// Returns the chosen plan and its output column names (the `out_proj`
/// field names).
pub(crate) fn generate_pt(
    model: &CostModel<'_>,
    spj: &SpjNode,
    arc_chains: &[Vec<ArcChain>],
    strategy: SpjStrategy,
    sink: &Decisions,
) -> Result<(Pt, Vec<String>, f64), OptError> {
    // Combined substitution (alternatives of one arc share theirs).
    let mut subst: HashMap<String, Expr> = HashMap::new();
    for alts in arc_chains {
        if let Some(first) = alts.first() {
            for (k, v) in &first.subst {
                subst.insert(k.clone(), v.clone());
            }
        }
    }
    // Rewrite predicate and projection onto columns.
    let conjuncts: Vec<Expr> = spj
        .pred
        .conjuncts()
        .into_iter()
        .map(|c| rewrite_expr(c, &subst))
        .collect();
    let out_proj: Vec<(String, Expr)> = spj
        .out_proj
        .iter()
        .map(|(n, e)| (n.clone(), rewrite_expr(e, &subst)))
        .collect();

    // Partition conjuncts: per-arc vs join.
    let arc_cols: Vec<Vec<String>> = arc_chains
        .iter()
        .map(|alts| alts.first().map(|a| a.all_cols()).unwrap_or_default())
        .collect();
    let mut per_arc: Vec<Vec<Expr>> = vec![Vec::new(); arc_chains.len()];
    let mut join_conjuncts: Vec<Expr> = Vec::new();
    'conj: for c in conjuncts {
        let vars = c.vars();
        for (i, cols) in arc_cols.iter().enumerate() {
            if vars.iter().all(|v| cols.contains(v)) {
                per_arc[i].push(c);
                continue 'conj;
            }
        }
        join_conjuncts.push(c);
    }

    // Per-arc candidates: chain alternatives × access methods, selections
    // applied as early as possible, priced and pruned.
    let mut candidates: Vec<Vec<Candidate>> = Vec::new();
    for (i, alts) in arc_chains.iter().enumerate() {
        let mut cands = Vec::new();
        for chain in alts {
            for pt in assemble_arc(model, chain, &per_arc[i]) {
                let cols = chain.all_cols();
                match model.cost(&pt) {
                    Ok(pc) => cands.push(Candidate {
                        pt,
                        cols: cols.clone(),
                        cost: pc.total(&model.params),
                    }),
                    Err(_) => continue,
                }
            }
        }
        if cands.is_empty() {
            return Err(OptError::Unplannable(format!("arc {i}")));
        }
        cands.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        for (rank, c) in cands.iter().enumerate() {
            let seen = Examined {
                arc: Some(i),
                cost: Some(c.cost),
                incumbent: Some(&cands[0].pt),
                incumbent_cost: Some(cands[0].cost),
                ..Examined::at("generatePT", &c.pt)
            };
            if rank < KEEP_PER_ARC {
                let reason = format_args!("kept in arc beam (rank {rank})");
                sink.candidate(seen, Outcome::Accept, reason);
            } else {
                let reason = format_args!("beyond keep-per-arc beam of {KEEP_PER_ARC}");
                sink.candidate(seen, Outcome::Prune, reason);
            }
        }
        cands.truncate(KEEP_PER_ARC);
        candidates.push(cands);
    }

    // Join enumeration.
    let joined = match candidates.len() {
        1 => candidates[0][0].clone(),
        _ => match strategy {
            SpjStrategy::Exhaustive => enumerate_exhaustive(model, &candidates, &join_conjuncts)?,
            SpjStrategy::Dp => enumerate_dp(model, &candidates, &join_conjuncts)?,
            SpjStrategy::Greedy => enumerate_greedy(model, &candidates, &join_conjuncts)?,
            SpjStrategy::Syntactic => enumerate_syntactic(model, &candidates, &join_conjuncts)?,
        },
    };

    // Any conjunct never applied becomes a final selection.
    let applied = applied_in(&joined.pt);
    let residual: Vec<Expr> = join_conjuncts
        .iter()
        .filter(|c| !applied.iter().any(|a| a == *c))
        .cloned()
        .collect();
    let mut pt = joined.pt;
    if !residual.is_empty() {
        pt = Pt::sel(Expr::conjoin(residual), pt);
    }
    // Final projection.
    let out_names: Vec<String> = out_proj.iter().map(|(n, _)| n.clone()).collect();
    pt = Pt::proj(out_proj, pt);
    let cost = model
        .cost(&pt)
        .map_err(OptError::Cost)?
        .total(&model.params);
    let winner = Examined {
        cost: Some(cost),
        ..Examined::at("generatePT", &pt)
    };
    let reason = format_args!("{strategy:?} join-enumeration winner for the predicate node");
    sink.candidate(winner, Outcome::Accept, reason);
    Ok((pt, out_names, cost))
}

/// Every predicate already present in `Sel`/`EJ` nodes of the plan.
fn applied_in(pt: &Pt) -> Vec<Expr> {
    let mut out = Vec::new();
    pt.visit(&mut |n| match n {
        Pt::Sel { pred, .. } | Pt::EJ { pred, .. } => {
            out.extend(pred.conjuncts().into_iter().cloned())
        }
        _ => {}
    });
    out
}

/// Assemble one arc chain into concrete plans — the scan variant first,
/// then index access where it applies — applying its selections as soon
/// as their columns are available.
pub(crate) fn assemble_arc(model: &CostModel<'_>, chain: &ArcChain, sels: &[Expr]) -> Vec<Pt> {
    let mut variants: Vec<Pt> = Vec::new();
    // Selections applicable directly on the base.
    let base_ready: Vec<&Expr> = sels
        .iter()
        .filter(|c| c.vars().iter().all(|v| chain.base_cols.contains(v)))
        .collect();

    // Scan variant base, and the index variant when an equality
    // conjunct sits on an indexed attribute of a bare class leaf.
    if base_ready.is_empty() {
        variants.push(chain.base.clone());
    } else {
        let pred = Expr::conjoin(base_ready.iter().map(|c| (*c).clone()));
        variants.push(Pt::sel(pred.clone(), chain.base.clone()));
        if let Some(idx) = applicable_sel_index(model.catalog, model.physical, &pred, &chain.base) {
            variants.push(Pt::Sel {
                pred,
                method: AccessMethod::Index(idx),
                input: Box::new(chain.base.clone()),
            });
        }
    }

    // Apply the op chain on each base variant, inserting remaining
    // selections as soon as possible.
    let mut out = Vec::new();
    for base in variants {
        let mut pt = base;
        let mut available = chain.base_cols.clone();
        let mut remaining: Vec<&Expr> = sels
            .iter()
            .filter(|c| !c.vars().iter().all(|v| chain.base_cols.contains(v)))
            .collect();
        for op in &chain.ops {
            pt = op.apply(pt);
            available.extend(op.produces());
            let (ready, later): (Vec<&Expr>, Vec<&Expr>) = remaining
                .into_iter()
                .partition(|c| c.vars().iter().all(|v| available.contains(v)));
            if !ready.is_empty() {
                pt = Pt::sel(Expr::conjoin(ready.into_iter().cloned()), pt);
            }
            remaining = later;
        }
        if !remaining.is_empty() {
            pt = Pt::sel(Expr::conjoin(remaining.into_iter().cloned()), pt);
        }
        out.push(pt);
    }
    out
}

/// The `join` action: combine two candidates with a nested-loop join.
/// `disjoint` holds by construction (candidates cover disjoint arc
/// sets). Requires a connecting predicate unless `force`.
fn join_pair(
    model: &CostModel<'_>,
    left: &Candidate,
    right: &Candidate,
    join_conjuncts: &[Expr],
    force: bool,
) -> Option<Candidate> {
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());
    let applicable: Vec<Expr> = join_conjuncts
        .iter()
        .filter(|c| {
            let vars = c.vars();
            let crosses = vars.iter().any(|v| left.cols.contains(v))
                && vars.iter().any(|v| right.cols.contains(v));
            crosses && vars.iter().all(|v| cols.contains(v))
        })
        .cloned()
        .collect();
    if applicable.is_empty() && !force {
        return None;
    }
    let pt = Pt::ej(Expr::conjoin(applicable), left.pt.clone(), right.pt.clone());
    let cost = model.cost(&pt).ok()?.total(&model.params);
    Some(Candidate { pt, cols, cost })
}

fn best(cands: Vec<Candidate>) -> Option<Candidate> {
    cands.into_iter().min_by(|a, b| a.cost.total_cmp(&b.cost))
}

/// Exhaustive enumeration of left-deep join orders (every permutation,
/// every access-plan alternative) — the \[KZ88\]
/// baseline. Exponential; used for small queries and as the optimality
/// oracle.
fn enumerate_exhaustive(
    model: &CostModel<'_>,
    candidates: &[Vec<Candidate>],
    join_conjuncts: &[Expr],
) -> Result<Candidate, OptError> {
    fn recurse(
        model: &CostModel<'_>,
        candidates: &[Vec<Candidate>],
        join_conjuncts: &[Expr],
        current: &Candidate,
        used: &mut Vec<bool>,
        best_so_far: &mut Option<Candidate>,
    ) {
        if used.iter().all(|&u| u) {
            match best_so_far {
                Some(b) if b.cost <= current.cost => {}
                _ => *best_so_far = Some(current.clone()),
            }
            return;
        }
        // Prefer connected extensions; fall back to cross products only
        // when nothing connects.
        let mut extended_any = false;
        for pass in 0..2 {
            let force = pass == 1;
            if force && extended_any {
                break;
            }
            #[allow(clippy::needless_range_loop)]
            for i in 0..candidates.len() {
                if used[i] {
                    continue;
                }
                for cand in &candidates[i] {
                    if let Some(joined) = join_pair(model, current, cand, join_conjuncts, force) {
                        extended_any = true;
                        used[i] = true;
                        recurse(
                            model,
                            candidates,
                            join_conjuncts,
                            &joined,
                            used,
                            best_so_far,
                        );
                        used[i] = false;
                    }
                }
            }
        }
    }
    let mut best_so_far = None;
    for (i, cands) in candidates.iter().enumerate() {
        for start in cands {
            let mut used = vec![false; candidates.len()];
            used[i] = true;
            recurse(
                model,
                candidates,
                join_conjuncts,
                start,
                &mut used,
                &mut best_so_far,
            );
        }
    }
    best_so_far.ok_or_else(|| OptError::Unplannable("exhaustive join enumeration".into()))
}

/// Selinger-style dynamic programming over arc subsets (left-deep).
fn enumerate_dp(
    model: &CostModel<'_>,
    candidates: &[Vec<Candidate>],
    join_conjuncts: &[Expr],
) -> Result<Candidate, OptError> {
    let n = candidates.len();
    let full = (1usize << n) - 1;
    let mut table: HashMap<usize, Candidate> = HashMap::new();
    for (i, cands) in candidates.iter().enumerate() {
        if let Some(b) = best(cands.clone()) {
            table.insert(1 << i, b);
        }
    }
    #[allow(clippy::needless_range_loop)]
    for size in 2..=n {
        for subset in 1..=full {
            if (subset as u32).count_ones() as usize != size {
                continue;
            }
            let mut best_plan: Option<Candidate> = None;
            for i in 0..n {
                let bit = 1 << i;
                if subset & bit == 0 {
                    continue;
                }
                let rest = subset & !bit;
                let Some(left) = table.get(&rest) else {
                    continue;
                };
                for pass in 0..2 {
                    let force = pass == 1;
                    let mut found = false;
                    for cand in &candidates[i] {
                        if let Some(joined) = join_pair(model, left, cand, join_conjuncts, force) {
                            found = true;
                            match &best_plan {
                                Some(b) if b.cost <= joined.cost => {}
                                _ => best_plan = Some(joined),
                            }
                        }
                    }
                    if found {
                        break;
                    }
                }
            }
            if let Some(b) = best_plan {
                match table.get(&subset) {
                    Some(existing) if existing.cost <= b.cost => {}
                    _ => {
                        table.insert(subset, b);
                    }
                }
            }
        }
    }
    table
        .remove(&full)
        .ok_or_else(|| OptError::Unplannable("dp join enumeration".into()))
}

/// Syntactic: join the arcs in their textual order, each arc's first
/// access plan — what a non-optimizing translator would emit.
fn enumerate_syntactic(
    model: &CostModel<'_>,
    candidates: &[Vec<Candidate>],
    join_conjuncts: &[Expr],
) -> Result<Candidate, OptError> {
    let mut current = candidates[0]
        .first()
        .cloned()
        .ok_or_else(|| OptError::Unplannable("syntactic join enumeration".into()))?;
    for cands in &candidates[1..] {
        let cand = cands
            .first()
            .ok_or_else(|| OptError::Unplannable("syntactic join enumeration".into()))?;
        let joined = join_pair(model, &current, cand, join_conjuncts, true)
            .ok_or_else(|| OptError::Unplannable("syntactic join enumeration".into()))?;
        current = joined;
    }
    Ok(current)
}

/// Greedy: start from the cheapest arc and repeatedly apply the
/// cheapest applicable join.
fn enumerate_greedy(
    model: &CostModel<'_>,
    candidates: &[Vec<Candidate>],
    join_conjuncts: &[Expr],
) -> Result<Candidate, OptError> {
    let mut used = vec![false; candidates.len()];
    let (start_i, start) = candidates
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.first().map(|b| (i, b.clone())))
        .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
        .ok_or_else(|| OptError::Unplannable("greedy join enumeration".into()))?;
    used[start_i] = true;
    let mut current = start;
    while used.iter().any(|&u| !u) {
        let mut best_ext: Option<(usize, Candidate)> = None;
        for pass in 0..2 {
            let force = pass == 1;
            for i in 0..candidates.len() {
                if used[i] {
                    continue;
                }
                for cand in &candidates[i] {
                    if let Some(joined) = join_pair(model, &current, cand, join_conjuncts, force) {
                        match &best_ext {
                            Some((_, b)) if b.cost <= joined.cost => {}
                            _ => best_ext = Some((i, joined)),
                        }
                    }
                }
            }
            if best_ext.is_some() {
                break;
            }
        }
        let Some((i, joined)) = best_ext else {
            return Err(OptError::Unplannable("greedy cannot extend".into()));
        };
        used[i] = true;
        current = joined;
    }
    Ok(current)
}
