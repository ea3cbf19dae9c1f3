//! The `transformPT` step (§4.5): pushing selective operations through
//! recursion, then randomized re-optimization.
//!
//! Unlike deductive-DB rewriters, pushing happens *after* a complete PT
//! exists, so the effect of the transformation is measured by the cost
//! model before it is committed (the paper's central claim). The
//! `filter` action pushes selections through the fixpoint following
//! \[KL86\]; a similar action pushes **joins** — the novel case §4.5
//! highlights. The randomized strategy (Iterative Improvement, per
//! \[IC90\]) then tries to further improve the transformed plan (e.g.
//! by using an applicable index after a portion of the PT was shifted),
//! drawing its moves from [`neighbours`].
//!
//! Every action is a plain function over [`Pt`] whose doc comment states
//! its §4.1 rule `action: F | constraint → G`. The walk's moves are the
//! arms of [`neighbours`], one match arm per node kind they rewrite; a
//! new class of move is one more arm there.

use std::collections::HashSet;

use oorq_cost::{CostModel, PlanCost};
use oorq_prng::Prng;
use oorq_pt::{applicable_sel_index, AccessMethod, IjStep, Pt};
use oorq_query::{bind_path, Expr};
use oorq_schema::{ClassId, ResolvedType};

use crate::decisions::{Decisions, Examined, Outcome};
use crate::error::OptError;
use crate::translate::{collapse_alternatives, ChainOp};

/// How pushing through recursion is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushStrategy {
    /// The paper: build both plans, keep the cheaper (cost-controlled).
    CostControlled,
    /// The deductive-DB heuristic: always push when legal.
    AlwaysPush,
    /// Never push (selection stays above the fixpoint).
    NeverPush,
}

/// Facts about a planned fixpoint needed by the push actions.
#[derive(Debug, Clone)]
pub struct FixInfo {
    /// The temporary's fields, typed: the fixpoint's output columns.
    pub fields: Vec<(String, ResolvedType)>,
    /// Columns *propagated unchanged* by the recursive side (copied from
    /// the temporary input) — the \[KL86\] `canPush` condition: a
    /// selection on these columns commutes with the fixpoint.
    pub propagated: Vec<String>,
}

/// The `canPush` constraint for one conjunct expressed over the
/// fixpoint's output columns: every column it references must be
/// propagated.
pub(crate) fn can_push(conjunct: &Expr, info: &FixInfo) -> bool {
    let vars = conjunct.vars();
    !vars.is_empty()
        && vars.iter().all(|v| info.propagated.contains(v))
        // Linearity is guaranteed by construction (one temp occurrence).
        && !matches!(conjunct, Expr::True)
}

/// The `filter` action: push a selection (over fix-output columns)
/// through the recursion:
///
/// ```text
/// filter: Sel_pred(pt(Fix(Rec, Union(Base, pt'(Rec)))))
///         | canPush(pred, Rec)
///         → Fix(Rec, Union(Sel_pred(pt(Base)), pt'(Sel_pred(pt(Rec)))))
/// ```
///
/// The base side gets the selection over its output columns; in the
/// recursive side the selection wraps the recursive occurrence (the
/// temporary leaf, with the predicate re-qualified to its columns).
/// When the predicate embeds a path expression, the selection is
/// *expanded* into an IJ chain (and collapsed into a `PIJ` if an index
/// applies) so the shifted portion is re-optimized — this is what puts
/// "additional implicit joins inside the computation of the fixpoint"
/// (§2.3) and makes the push a genuine cost trade-off.
pub(crate) fn filter_action(
    model: &CostModel<'_>,
    fix: &Pt,
    info: &FixInfo,
    pred: &Expr,
) -> Result<Pt, OptError> {
    let (temp, base, rec) = fix.fix_sides().map_err(OptError::Pt)?;

    // Base side: selection over the base's output columns, expanded.
    let out_cols: Vec<String> = info.fields.iter().map(|(n, _)| n.clone()).collect();
    let base_sel = best_selection(model, pred.clone(), base.clone(), &out_cols)?;

    // Recursive side: wrap the temporary occurrence. Re-qualify the
    // predicate to the temp leaf's columns.
    let mut temp_var = None;
    rec.visit(&mut |n| {
        if let Pt::Temp { name, var } = n {
            if name == temp && temp_var.is_none() {
                temp_var = Some(var.clone());
            }
        }
    });
    let tv = temp_var.ok_or_else(|| OptError::Unplannable("no temp occurrence".into()))?;
    let qualified = pred.map_leaves(&mut |leaf| match leaf {
        Expr::Var(v) if info.propagated.contains(v) => Some(Expr::Var(format!("{tv}.{v}"))),
        Expr::Path { base, steps } if info.propagated.contains(base) => Some(Expr::Path {
            base: format!("{tv}.{base}"),
            steps: steps.clone(),
        }),
        _ => None,
    });
    let temp_cols: Vec<String> = info
        .fields
        .iter()
        .map(|(n, _)| format!("{tv}.{n}"))
        .collect();
    let rec_pushed = replace_temp_with(rec, temp, &|leaf| {
        // Defer the expansion choice to `best_selection` on a clone.
        Pt::sel(qualified.clone(), leaf)
    });
    // Expand the selection we just wrapped around the temp leaf.
    let rec_pushed = expand_sels_over_temp(model, rec_pushed, temp, &temp_cols)?;

    Ok(Pt::fix(temp, Pt::union(base_sel, rec_pushed)))
}

/// The push-join action (§4.5): restrict the fixpoint's base by a very
/// selective explicit join (a semi-join, projected back to the
/// temporary's fields):
///
/// ```text
/// pushJoin: Fix(Rec, Union(Base, Step))
///           | canPush(pred, Rec)
///           → Fix(Rec, Union(Proj_Rec(EJ_pred(Base, Inner)), Step))
/// ```
///
/// The join predicate must reference only propagated columns on the
/// fixpoint side, so every derived tuple of a surviving base tuple still
/// joins — and every derived tuple of a dropped one would not. The join
/// itself stays above the fixpoint, in the consumer's predicate.
pub(crate) fn push_join_action(
    fix: &Pt,
    info: &FixInfo,
    join_pred_over_fix_cols: &Expr,
    inner: &Pt,
) -> Result<Pt, OptError> {
    let (temp, base, rec) = fix.fix_sides().map_err(OptError::Pt)?;
    // Semi-join: EJ then project back to the temporary's fields (the
    // projection deduplicates).
    let semi = Pt::proj(
        info.fields
            .iter()
            .map(|(c, _)| (c.clone(), Expr::Var(c.clone())))
            .collect(),
        Pt::ej(join_pred_over_fix_cols.clone(), base.clone(), inner.clone()),
    );
    Ok(Pt::fix(temp, Pt::union(semi, rec.clone())))
}

/// Build the cheapest realization of `Sel_pred(input)` where `pred` may
/// contain long path expressions over `cols`: either the plain selection
/// (paths evaluated by dereference) or the expansion into an IJ chain
/// (optionally collapsed into a `PIJ`), projected back to `cols`.
pub(crate) fn best_selection(
    model: &CostModel<'_>,
    pred: Expr,
    input: Pt,
    cols: &[String],
) -> Result<Pt, OptError> {
    let mut candidates = vec![Pt::sel(pred.clone(), input.clone())];
    if let Some(expanded) = expand_path_selection(model, &pred, &input, cols)? {
        candidates.extend(expanded);
    }
    pick_cheapest(model, candidates)
}

fn pick_cheapest(model: &CostModel<'_>, candidates: Vec<Pt>) -> Result<Pt, OptError> {
    let mut best: Option<(f64, Pt)> = None;
    for pt in candidates {
        // An uncostable alternative is dropped unannounced: these are
        // alternatives inside one candidate, not candidates.
        let Ok(pc) = model.cost(&pt) else { continue };
        let total = pc.total(&model.params);
        match &best {
            Some((c, _)) if *c <= total => {}
            _ => best = Some((total, pt)),
        }
    }
    best.map(|(_, pt)| pt)
        .ok_or_else(|| OptError::Unplannable("selection".into()))
}

/// Expand each long-path conjunct of `pred` into an IJ chain plus a
/// short selection, projecting back to `cols` afterwards. Returns all
/// collapse alternatives (`None` if no conjunct has a long path).
fn expand_path_selection(
    model: &CostModel<'_>,
    pred: &Expr,
    input: &Pt,
    cols: &[String],
) -> Result<Option<Vec<Pt>>, OptError> {
    // Resolve column classes from the input plan.
    let env = oorq_pt::PtEnv {
        catalog: model.catalog,
        physical: model.physical,
        temp_fields: model.temp_fields.clone(),
    };
    let col_types: std::collections::HashMap<String, ResolvedType> = input
        .output_columns(&env)
        .map_err(OptError::Pt)?
        .into_iter()
        .collect();
    let mut ops: Vec<ChainOp> = Vec::new();
    let mut fresh = 0usize;
    let mut any_long = false;
    let rewritten = try_rewrite(pred, &col_types, model, &mut ops, &mut fresh, &mut any_long)?;
    if !any_long {
        return Ok(None);
    }
    let mut out = Vec::new();
    for alt in collapse_alternatives(model.catalog, model.physical, &ops) {
        let mut pt = input.clone();
        for op in &alt {
            pt = op.apply(pt);
        }
        pt = Pt::sel(rewritten.clone(), pt);
        // Project back to the original columns.
        pt = Pt::proj(
            cols.iter()
                .map(|c| (c.clone(), Expr::Var(c.clone())))
                .collect(),
            pt,
        );
        out.push(pt);
    }
    Ok(Some(out))
}

/// Rewrite long paths in the predicate into references to fresh IJ
/// output columns, accumulating the chain ops.
fn try_rewrite(
    pred: &Expr,
    col_types: &std::collections::HashMap<String, ResolvedType>,
    model: &CostModel<'_>,
    ops: &mut Vec<ChainOp>,
    fresh: &mut usize,
    any_long: &mut bool,
) -> Result<Expr, OptError> {
    let mut failure = None;
    let result = pred.map_leaves(&mut |leaf| {
        let Expr::Path { base, steps } = leaf else {
            return None;
        };
        if steps.len() < 2 {
            return None;
        }
        // One implicit join into `class`; yields its fresh output column.
        let mut emit = |on: Expr, step: IjStep, class: ClassId| {
            let Some(target) = model.physical.class_entity(class) else {
                failure = Some(OptError::NoEntity(format!("{class:?}")));
                return None;
            };
            *fresh += 1;
            let out = format!("_x{fresh}");
            ops.push(ChainOp::Ij {
                on,
                step,
                out: out.clone(),
                target,
            });
            Some(out)
        };
        let ((name, ty), rest) = bind_path(base, steps, |c| col_types.get_key_value(c))?;
        let mut class = ty.referenced_class()?;
        let mut col = name.clone();
        let mut consumed = steps.len() - rest.len();
        let mut emitted = false;
        if consumed == 1 {
            // Qualified column `base.step0`: an oid-valued field of a
            // row. Its dereference is itself an implicit join (e.g.
            // `IJ_master(Influencer, Composer)`).
            col = emit(Expr::Var(col), IjStep::field(steps[0].clone()), class)?;
            emitted = true;
        }
        while consumed + 1 < steps.len() {
            let step = &steps[consumed];
            let Some((aid, attr)) = model.catalog.attr(class, step) else {
                break;
            };
            let Some(next) = attr.ty.referenced_class() else {
                break;
            };
            let on = Expr::Path {
                base: col,
                steps: vec![step.clone()],
            };
            col = emit(on, IjStep::class_attr(model.catalog, class, aid), next)?;
            emitted = true;
            class = next;
            consumed += 1;
        }
        if !emitted {
            return None;
        }
        *any_long = true;
        let rest: Vec<String> = steps[consumed..].to_vec();
        Some(if rest.is_empty() {
            Expr::Var(col)
        } else {
            Expr::Path {
                base: col,
                steps: rest,
            }
        })
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(result),
    }
}

/// Replace every `Temp(temp)` leaf by `wrap(leaf)`.
fn replace_temp_with(pt: &Pt, temp: &str, wrap: &impl Fn(Pt) -> Pt) -> Pt {
    match pt {
        Pt::Temp { name, .. } if name == temp => wrap(pt.clone()),
        other => {
            let mut out = other.clone();
            let originals: Vec<Pt> = other.children().into_iter().cloned().collect();
            for (i, child) in out.children_mut().into_iter().enumerate() {
                *child = replace_temp_with(&originals[i], temp, wrap);
            }
            out
        }
    }
}

/// Expand any `Sel` sitting directly on a `Temp(temp)` leaf (inserted by
/// the filter action) into its cheapest realization.
fn expand_sels_over_temp(
    model: &CostModel<'_>,
    pt: Pt,
    temp: &str,
    temp_cols: &[String],
) -> Result<Pt, OptError> {
    match &pt {
        Pt::Sel { pred, input, .. } if matches!(input.as_ref(), Pt::Temp { name, .. } if name == temp) => {
            best_selection(model, pred.clone(), input.as_ref().clone(), temp_cols)
        }
        _ => {
            let mut out = pt.clone();
            let originals: Vec<Pt> = pt.children().into_iter().cloned().collect();
            for (i, child) in out.children_mut().into_iter().enumerate() {
                *child = expand_sels_over_temp(model, originals[i].clone(), temp, temp_cols)?;
            }
            Ok(out)
        }
    }
}

// ---------------------------------------------------------------------
// Randomized re-optimization (Iterative Improvement, per [IC90]).
// ---------------------------------------------------------------------

/// Configuration of the randomized phase: Iterative Improvement, one
/// random downhill walk.
#[derive(Debug, Clone)]
pub struct RandConfig {
    /// Moves attempted.
    pub moves: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandConfig {
    fn default() -> Self {
        RandConfig {
            moves: 90,
            seed: 0xC0FFEE,
        }
    }
}

/// One transformation move: the plan it leads to and the pre-order id
/// of the node it rewrote. Everything outside that node's subtree is
/// the source plan's: putting the source's subtree back at `node` gives
/// the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Move {
    /// The plan one move away.
    pub plan: Pt,
    /// Pre-order id of the rewritten node.
    pub node: usize,
}

/// All neighbour plans reachable by one transformation move, each an
/// action applied at one node of `pt`:
///
/// ```text
/// swap:       EJ_pred(A, C)             → EJ_pred(C, A)
/// selAccess:  Sel^idx_pred(A)           → Sel_pred(A)
///             Sel_pred(A)               | idx ∈ selIndexes(pred, A) → Sel^idx_pred(A)
/// distribute: EJ_pred(Union(A, B), C)   → Union(EJ_pred(A, C), EJ_pred(B, C))
/// ```
///
/// `distribute` is §5's "open problem" transformation (join over
/// union). The walk draws an index into this list, so its order is
/// behaviour: the local moves in pre-order of the node they rewrite,
/// then every distribution, again in pre-order.
pub fn neighbours(model: &CostModel<'_>, pt: &Pt) -> Vec<Move> {
    let mut out = Vec::new();
    let mut distributed = Vec::new();
    for (node, (path, sub)) in oorq_pt::subtrees(pt).into_iter().enumerate() {
        let push = |replacement: Pt, out: &mut Vec<Move>| {
            let mut plan = pt.clone();
            if plan.replace_at(&path, replacement).is_ok() {
                out.push(Move { plan, node });
            }
        };
        match sub {
            Pt::EJ { pred, left, right } => {
                // Swap operands.
                let swapped = Pt::EJ {
                    pred: pred.clone(),
                    left: right.clone(),
                    right: left.clone(),
                };
                push(swapped, &mut out);
                // Distribute over a union on the left, after every local move.
                if let Pt::Union { left: a, right: b } = left.as_ref() {
                    let join = |side: &Pt| Pt::EJ {
                        pred: pred.clone(),
                        left: Box::new(side.clone()),
                        right: right.clone(),
                    };
                    push(Pt::union(join(a), join(b)), &mut distributed);
                }
            }
            Pt::Sel {
                pred,
                method,
                input,
            } => match method {
                AccessMethod::Index(_) => {
                    let scan = Pt::sel(pred.clone(), input.as_ref().clone());
                    push(scan, &mut out);
                }
                AccessMethod::Scan => {
                    if let Some(idx) =
                        applicable_sel_index(model.catalog, model.physical, pred, input)
                    {
                        let isel = Pt::Sel {
                            pred: pred.clone(),
                            method: AccessMethod::Index(idx),
                            input: input.clone(),
                        };
                        push(isel, &mut out);
                    }
                }
            },
            _ => {}
        }
    }
    out.append(&mut distributed);
    out
}

/// A neighbour generator for the randomized walk: every move from the
/// current plan. The optimizer passes [`neighbours`]; the walk takes it
/// as a parameter so tests can script the moves it draws.
pub type MoveFn<'f> = dyn Fn(&CostModel<'_>, &Pt) -> Vec<Move> + 'f;

/// What a randomized walk produced.
#[derive(Debug, Clone)]
pub struct RandOutcome {
    /// The plan the walk ended on (never worse than the start).
    pub pt: Pt,
    /// The cost the walk computed for `pt`; `None` when the start plan
    /// could not be costed (the walk then returns it untouched).
    pub cost: Option<PlanCost>,
}

/// Run a randomized strategy from a starting plan and return the plan
/// it ends on (never worse than the start), drawing its moves from
/// `moves`. A move is judged by its cost alone, as §4's `transformPT`
/// judges it, in every build: the walk lints no candidate. That every
/// plan [`neighbours`] reaches from a corpus plan is well formed and
/// answers like the reference is held by `tests/plan_closure.rs`; the
/// optimizer lints the plan the walk returns.
///
/// The walk is Iterative Improvement's downhill walk: it accepts only a
/// cheaper plan, so the incumbent is always the best plan seen. It
/// examines each plan once. Draws are with replacement over a
/// neighbourhood of a handful of plans, so most moves land on a plan
/// already turned down; such a move still consumes its draw (the
/// sequence of draws, every accept decision and the result are those of
/// a walk that re-examined it) but is only counted, as
/// `optimizer.candidates.revisited`.
pub fn rand_optimize_with(
    model: &CostModel<'_>,
    start: Pt,
    config: &RandConfig,
    moves: &MoveFn<'_>,
    sink: &mut Decisions,
) -> RandOutcome {
    let Ok(start_cost) = model.cost(&start) else {
        return RandOutcome {
            pt: start,
            cost: None,
        };
    };
    // Plans turned down for good, by `Pt::fingerprint`: the cost model
    // failed on the plan (a function of the plan alone), or it was
    // costed at `c >= current_cost` — the incumbent's cost only ever
    // falls, so that holds for every later incumbent.
    let mut turned_down: HashSet<u64> = HashSet::new();
    let mut current = start;
    let mut current_cost = start_cost.total(&model.params);
    let mut current_plan_cost = start_cost;
    let mut rng = Prng::new(config.seed);
    for _ in 0..config.moves {
        let mut ns = moves(model, &current);
        if ns.is_empty() {
            break;
        }
        let pick = ns.swap_remove(rng.index(ns.len())).plan;
        let fp = pick.fingerprint();
        if turned_down.contains(&fp) {
            sink.revisited();
            continue;
        }
        // The pick as announced: costed or not, always against the
        // incumbent's cost.
        let seen = |cost: Option<f64>| Examined {
            cost,
            incumbent_cost: Some(current_cost),
            ..Examined::at("transformPT", &pick)
        };
        let pc = match model.cost(&pick) {
            Ok(pc) => pc,
            Err(e) => {
                turned_down.insert(fp);
                let reason = format_args!("cost model error: {e}");
                sink.candidate(seen(None), Outcome::Reject, reason);
                continue;
            }
        };
        let c = pc.total(&model.params);
        if c < current_cost {
            sink.candidate(seen(Some(c)), Outcome::Accept, "downhill move");
            current = pick;
            current_cost = c;
            current_plan_cost = pc;
        } else {
            let reason = "uphill move (iterative improvement accepts only downhill)";
            sink.candidate(seen(Some(c)), Outcome::Reject, reason);
            turned_down.insert(fp);
        }
    }
    RandOutcome {
        pt: current,
        cost: Some(current_plan_cost),
    }
}
