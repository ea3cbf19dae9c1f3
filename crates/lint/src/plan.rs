//! The plan pass: structural verification of processing trees.
//!
//! Walks the PT once, tracking (a) the temporaries in scope — a `Fix`
//! introduces its temporary for its recursive leg only — and (b) the
//! columns each enclosing operator still needs, so a projection that
//! drops a column consumed upstream is caught where it happens. Shape
//! errors surfaced by [`Pt::output_columns`] are attributed to the
//! shallowest node whose children are themselves well-formed.

use std::collections::{BTreeSet, HashMap};

use oorq_pt::{
    node_op, propagated_columns, type_of_column_expr, AccessMethod, JoinAlgo, Pt, PtEnv,
};
use oorq_query::{bind_path, Expr};
use oorq_schema::ResolvedType;
use oorq_storage::IndexKindDesc;

use crate::diag::{LintCode, LintReport};

type Cols = Vec<(String, ResolvedType)>;
type Scope = HashMap<String, Cols>;

/// Verify a processing tree against its environment. The environment's
/// `temp_fields` seed the temporary scope (temporaries defined by an
/// enclosing context, e.g. while linting a fixpoint leg in isolation).
pub fn verify_pt(env: &PtEnv, pt: &Pt) -> LintReport {
    let mut report = LintReport::new();
    check(
        env,
        &env.temp_fields.clone(),
        pt,
        "plan",
        &BTreeSet::new(),
        &mut report,
    );
    report
}

fn env_with<'a>(base: &PtEnv<'a>, scope: &Scope) -> PtEnv<'a> {
    PtEnv {
        catalog: base.catalog,
        physical: base.physical,
        temp_fields: scope.clone(),
    }
}

/// True when every `Entity` and `PIJ` id in the subtree is in range —
/// the precondition for calling `output_columns` without panicking.
fn ids_ok(base: &PtEnv, pt: &Pt) -> bool {
    let n_entities = base.physical.entities().len();
    let n_indexes = base.physical.indexes().len();
    let mut ok = true;
    pt.visit(&mut |node| match node {
        Pt::Entity { id, .. } if id.0 as usize >= n_entities => ok = false,
        Pt::PIJ { index, .. } if index.0 as usize >= n_indexes => ok = false,
        _ => {}
    });
    ok
}

/// Output columns of a subtree, or `None` when they cannot be derived.
fn cols_of(base: &PtEnv, scope: &Scope, pt: &Pt) -> Option<Cols> {
    if !ids_ok(base, pt) {
        return None;
    }
    pt.output_columns(&env_with(base, scope)).ok()
}

/// Column references of an expression, resolved against `cols`
/// ([`bind_path`]: a path means the qualified `base.step` column when
/// there is one, else its base column). The first set is every demanded
/// name (unresolvable references kept
/// verbatim, so the demand still reaches the projection that dropped
/// them); the second is just the unresolvable ones.
pub(crate) fn expr_refs(e: &Expr, cols: &BTreeSet<String>) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut used = BTreeSet::new();
    let mut unresolved = BTreeSet::new();
    let mut path_bases: BTreeSet<&str> = BTreeSet::new();
    for (bs, steps) in e.paths() {
        path_bases.insert(bs);
        match bind_path(bs, steps, |c| cols.get(c)) {
            Some((col, _)) => {
                used.insert(col.clone());
            }
            None => {
                used.insert(bs.to_string());
                unresolved.insert(bs.to_string());
            }
        }
    }
    for v in e.vars() {
        if !path_bases.contains(v.as_str()) {
            if !cols.contains(&v) {
                unresolved.insert(v.clone());
            }
            used.insert(v);
        }
    }
    (used, unresolved)
}

fn used_cols(e: &Expr, cols: &BTreeSet<String>) -> BTreeSet<String> {
    expr_refs(e, cols).0
}

fn names(cols: &Cols) -> BTreeSet<String> {
    cols.iter().map(|(n, _)| n.clone()).collect()
}

fn colmap(cols: &Cols) -> HashMap<String, ResolvedType> {
    cols.iter().cloned().collect()
}

fn map_pt_error(e: &oorq_pt::PtError) -> LintCode {
    use oorq_pt::PtError::*;
    match e {
        FixBodyNotUnion => LintCode::FixBodyNotUnion,
        FixNotRecursive(_) => LintCode::FixNoRecursiveLeg,
        UnionShapeMismatch => LintCode::UnionShapeMismatch,
        TempAsEntity(_) | UnknownTemp(_) => LintCode::UndefinedTemp,
        NotAReference(_) => LintCode::BadIjStep,
        NotAPathIndex => LintCode::BadIndex,
        PathIndexArity { .. } => LintCode::BadIjStep,
        Typing(_) | BadPath { .. } | UnboundPatternVar(_) => LintCode::IllTypedPredicate,
    }
}

/// Report references of `e` that no column of `cols` satisfies, and any
/// type-check failure. (The typing pass alone is not enough: boolean
/// connectives type as `Bool` without visiting their operands, so a
/// predicate over a missing column would slip through.)
fn check_expr(
    base: &PtEnv,
    code: LintCode,
    e: &Expr,
    cols: &Cols,
    loc: &str,
    what: &str,
    report: &mut LintReport,
) {
    let (_, unresolved) = expr_refs(e, &names(cols));
    for name in unresolved {
        report.push(
            code,
            loc,
            format!("{what} references `{name}`, which the input does not produce"),
        );
    }
    if let Err(err) = type_of_column_expr(base.catalog, e, &colmap(cols)) {
        report.push(code, loc, format!("{what} does not type-check: {err}"));
    }
}

/// Check an index reference: in range and of the kind its operator
/// probes (a path index for `PIJ`, a selection index otherwise).
fn check_index(
    base: &PtEnv,
    id: oorq_storage::IndexId,
    path: bool,
    loc: &str,
    report: &mut LintReport,
) {
    match base.physical.indexes().get(id.0 as usize) {
        None => report.push(
            LintCode::BadIndex,
            loc,
            format!("index #{} does not exist", id.0),
        ),
        Some(d) if matches!(d.kind, IndexKindDesc::Path { .. }) != path => report.push(
            LintCode::BadIndex,
            loc,
            if path {
                "PIJ requires a path index, got a selection index"
            } else {
                "a path index cannot serve a selection probe"
            },
        ),
        Some(_) => {}
    }
}

fn check(
    base: &PtEnv,
    scope: &Scope,
    pt: &Pt,
    path: &str,
    needed: &BTreeSet<String>,
    report: &mut LintReport,
) {
    // A node is located by the kind it executes as; only a malformed
    // `Fix` fails to resolve.
    let kind = node_op(base.catalog, base.physical, pt).map_or("Fix", |op| op.kind().name());
    let loc = format!("{path}/{kind}");
    // Tracks whether every child derived its columns; shape errors of
    // this node are only attributed here when they did (otherwise the
    // deeper recursion reports the root cause).
    let mut children_ok = true;

    match pt {
        Pt::Entity { id, .. } => {
            if id.0 as usize >= base.physical.entities().len() {
                report.push(
                    LintCode::UndefinedTemp,
                    &loc,
                    format!("entity id #{} is not in the physical schema", id.0),
                );
                return;
            }
        }
        Pt::Temp { name, .. } => {
            if !scope.contains_key(name) {
                report.push(
                    LintCode::UndefinedTemp,
                    &loc,
                    format!("temporary `{name}` is not defined in this scope"),
                );
                return;
            }
        }
        Pt::Sel {
            pred,
            method,
            input,
        } => {
            if let AccessMethod::Index(ix) = method {
                check_index(base, *ix, false, &loc, report);
            }
            let in_cols = cols_of(base, scope, input);
            let child_needed = match &in_cols {
                Some(cols) => {
                    check_expr(
                        base,
                        LintCode::IllTypedPredicate,
                        pred,
                        cols,
                        &loc,
                        "selection predicate",
                        report,
                    );
                    // Selection passes every input column through, so
                    // upstream demands propagate unchanged.
                    let mut n = needed.clone();
                    n.extend(used_cols(pred, &names(cols)));
                    n
                }
                None => {
                    children_ok = false;
                    BTreeSet::new()
                }
            };
            check(base, scope, input, &loc, &child_needed, report);
        }
        Pt::Proj { cols, input } => {
            if cols.is_empty() {
                report.push(
                    LintCode::EmptyProjection,
                    &loc,
                    "projection onto zero columns",
                );
            }
            let out_names: BTreeSet<String> = cols.iter().map(|(n, _)| n.clone()).collect();
            let missing: Vec<&String> = needed.difference(&out_names).collect();
            if !missing.is_empty() {
                let list = missing
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ");
                report.push(
                    LintCode::ProjDropsNeeded,
                    &loc,
                    format!("drops column(s) an enclosing operator consumes: {list}"),
                );
            }
            let in_cols = cols_of(base, scope, input);
            let child_needed = match &in_cols {
                Some(icols) => {
                    let nm = names(icols);
                    let mut n = BTreeSet::new();
                    for (name, e) in cols {
                        check_expr(
                            base,
                            LintCode::IllTypedPredicate,
                            e,
                            icols,
                            &loc,
                            &format!("projection of `{name}`"),
                            report,
                        );
                        n.extend(used_cols(e, &nm));
                    }
                    n
                }
                None => {
                    children_ok = false;
                    BTreeSet::new()
                }
            };
            check(base, scope, input, &loc, &child_needed, report);
        }
        Pt::IJ {
            on,
            out,
            input,
            target,
            ..
        } => {
            let in_cols = cols_of(base, scope, input);
            let child_needed = match &in_cols {
                Some(cols) => {
                    check_expr(
                        base,
                        LintCode::BadIjStep,
                        on,
                        cols,
                        &loc,
                        "IJ on-expression",
                        report,
                    );
                    let mut n = needed.clone();
                    n.remove(out);
                    n.extend(used_cols(on, &names(cols)));
                    n
                }
                None => {
                    children_ok = false;
                    BTreeSet::new()
                }
            };
            check(base, scope, input, &loc, &child_needed, report);
            children_ok &= cols_of(base, scope, target).is_some();
            check(base, scope, target, &loc, &BTreeSet::new(), report);
        }
        Pt::PIJ {
            index,
            on,
            outs,
            input,
            targets,
            ..
        } => {
            check_index(base, *index, true, &loc, report);
            let in_cols = cols_of(base, scope, input);
            let child_needed = match &in_cols {
                Some(cols) => {
                    check_expr(
                        base,
                        LintCode::BadIjStep,
                        on,
                        cols,
                        &loc,
                        "PIJ head-oid expression",
                        report,
                    );
                    let mut n = needed.clone();
                    for o in outs {
                        n.remove(o);
                    }
                    n.extend(used_cols(on, &names(cols)));
                    n
                }
                None => {
                    children_ok = false;
                    BTreeSet::new()
                }
            };
            check(base, scope, input, &loc, &child_needed, report);
            for t in targets {
                children_ok &= cols_of(base, scope, t).is_some();
                check(base, scope, t, &loc, &BTreeSet::new(), report);
            }
        }
        Pt::EJ {
            pred,
            algo,
            left,
            right,
        } => {
            if let JoinAlgo::IndexJoin(ix) = algo {
                check_index(base, *ix, false, &loc, report);
            }
            let lcols = cols_of(base, scope, left);
            let rcols = cols_of(base, scope, right);
            let (mut lneeded, mut rneeded) = (BTreeSet::new(), BTreeSet::new());
            if let (Some(lc), Some(rc)) = (&lcols, &rcols) {
                let lnames = names(lc);
                let rnames = names(rc);
                for dup in lnames.intersection(&rnames) {
                    report.push(
                        LintCode::DuplicateColumn,
                        &loc,
                        format!("both sides produce column `{dup}`"),
                    );
                }
                let mut both = lc.clone();
                both.extend(rc.iter().cloned());
                check_expr(
                    base,
                    LintCode::IllTypedPredicate,
                    pred,
                    &both,
                    &loc,
                    "join predicate",
                    report,
                );
                let all_names: BTreeSet<String> = lnames.union(&rnames).cloned().collect();
                let mut all: BTreeSet<String> = needed.intersection(&all_names).cloned().collect();
                all.extend(used_cols(pred, &all_names));
                lneeded = all.intersection(&lnames).cloned().collect();
                rneeded = all.intersection(&rnames).cloned().collect();
            } else {
                children_ok = false;
            }
            check(base, scope, left, &loc, &lneeded, report);
            check(base, scope, right, &loc, &rneeded, report);
        }
        Pt::Union { left, right } => {
            let lcols = cols_of(base, scope, left);
            let rcols = cols_of(base, scope, right);
            if let (Some(lc), Some(rc)) = (&lcols, &rcols) {
                if names(lc) != names(rc) {
                    report.push(
                        LintCode::UnionShapeMismatch,
                        &loc,
                        format!(
                            "legs produce different columns: {:?} vs {:?}",
                            names(lc),
                            names(rc)
                        ),
                    );
                }
            } else {
                children_ok = false;
            }
            let lneeded = lcols.as_ref().map(names).unwrap_or_default();
            let rneeded = rcols.as_ref().map(names).unwrap_or_default();
            check(base, scope, left, &loc, &lneeded, report);
            check(base, scope, right, &loc, &rneeded, report);
        }
        Pt::Fix { temp, body } => {
            let Pt::Union { left, right } = body.as_ref() else {
                report.push(
                    LintCode::FixBodyNotUnion,
                    &loc,
                    "fixpoint body must be Union(base, recursive)",
                );
                check(base, scope, body, &loc, &BTreeSet::new(), report);
                return;
            };
            let l_rec = left.references_temp(temp);
            let r_rec = right.references_temp(temp);
            if !l_rec && !r_rec {
                report.push(
                    LintCode::FixNoRecursiveLeg,
                    &loc,
                    format!("no leg references the temporary `{temp}`"),
                );
            }
            if l_rec && r_rec {
                report.push(
                    LintCode::FixNoBaseLeg,
                    &loc,
                    format!("every leg references `{temp}`: no base case seeds the fixpoint"),
                );
            }
            let (base_leg, rec_leg) = if l_rec {
                (right.as_ref(), left.as_ref())
            } else {
                (left.as_ref(), right.as_ref())
            };
            let bcols = cols_of(base, scope, base_leg);
            let bneeded = bcols.as_ref().map(names).unwrap_or_default();
            check(base, scope, base_leg, &loc, &bneeded, report);

            // The recursive leg sees the temporary, shaped like the base
            // leg's output (unqualified field names, as the executor and
            // cost model register it).
            let fields: Cols = bcols
                .as_ref()
                .map(|c| {
                    c.iter()
                        .map(|(n, ty)| {
                            let short = n.rsplit('.').next().unwrap_or(n).to_string();
                            (short, ty.clone())
                        })
                        .collect()
                })
                .unwrap_or_default();
            let mut inner = scope.clone();
            inner.insert(temp.clone(), fields);
            let rcols = cols_of(base, &inner, rec_leg);
            let rneeded = rcols.as_ref().map(names).unwrap_or_default();
            check(base, &inner, rec_leg, &loc, &rneeded, report);

            if let (Some(bc), Some(rc)) = (&bcols, &rcols) {
                if names(bc) != names(rc) {
                    report.push(
                        LintCode::UnionShapeMismatch,
                        &loc,
                        format!(
                            "base and recursive legs differ: {:?} vs {:?}",
                            names(bc),
                            names(rc)
                        ),
                    );
                }
                if (l_rec ^ r_rec) && propagated_columns(pt).is_empty() {
                    report.push(
                        LintCode::NoPropagatedColumns,
                        &loc,
                        "no temporary column is propagated verbatim; nothing is pushable",
                    );
                }
            } else {
                children_ok = false;
            }
            // Shape errors of the Fix itself (e.g. base leg unable to
            // provide columns, no recursive leg) were attributed above;
            // done.
            if children_ok && (l_rec || r_rec) {
                if let Err(e) = pt.output_columns(&env_with(base, scope)) {
                    report.push(map_pt_error(&e), &loc, format!("{e}"));
                }
            }
            return;
        }
    }

    // Attribute this node's own shape error (children were fine).
    if children_ok && ids_ok(base, pt) {
        if let Err(e) = pt.output_columns(&env_with(base, scope)) {
            report.push(map_pt_error(&e), &loc, format!("{e}"));
        }
    }
}
