//! The plan pass: structural verification of processing trees.
//!
//! Reads one resolution of the plan ([`resolve_each`]) — what every node
//! hands up, typed, with fixpoint temporaries scoped as lowering and the
//! cost model scope them — and walks it from the root, checking each node
//! against its operands' columns and tracking the columns each enclosing
//! operator still needs, so a projection that drops a column consumed
//! upstream is caught where it happens. A node that fails to resolve is
//! reported where it failed; its ancestors, left unresolved, skip the
//! checks that read its columns.

use std::collections::{BTreeSet, HashMap};

use oorq_pt::{
    node_op, propagated_columns, resolve_each, type_of_column_expr, Cols, Node, OpKind, Preorder,
    Pt, PtEnv, PtError,
};
use oorq_query::{bind_path, Expr};
use oorq_storage::IndexKindDesc;

use crate::diag::{LintCode, LintReport};

/// Verify a processing tree against its environment. A temporary is in
/// scope only in its fixpoint's recursive leg ([`oorq_pt::resolve`]), so
/// a recursive leg is verified inside its fixpoint.
pub fn verify_pt(env: &PtEnv, pt: &Pt) -> LintReport {
    let order = pt.preorder();
    let nodes = resolve_each(env.catalog, env.physical, None, &order);
    let mut report = LintReport::new();
    let plan = Plan { env, order, nodes };
    plan.check(0, "plan", &BTreeSet::new(), &mut report);
    report
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

fn names(cols: &Cols) -> BTreeSet<String> {
    cols.iter().map(|(n, _)| n.clone()).collect()
}

fn map_pt_error(e: &PtError) -> LintCode {
    use oorq_pt::PtError::*;
    match e {
        FixBodyNotUnion => LintCode::FixBodyNotUnion,
        FixNotRecursive(_) => LintCode::FixNoRecursiveLeg,
        UnionShapeMismatch => LintCode::UnionShapeMismatch,
        UnknownEntity(_) | TempAsEntity(_) | UnknownTemp(_) => LintCode::UndefinedTemp,
        NotAReference(_) => LintCode::BadIjStep,
        NoProbe { .. } | NotAPathIndex => LintCode::BadIndex,
        PathIndexArity { .. } => LintCode::BadIjStep,
        Typing(_) | BadPath { .. } => LintCode::IllTypedPredicate,
    }
}

/// Report references of `e` that no column of `cols` satisfies, and any
/// type-check failure; returns the column names `e` demands. (The typing
/// pass alone is not enough: boolean connectives type as `Bool` without
/// visiting their operands, so a predicate over a missing column would
/// slip through.)
fn check_expr(
    env: &PtEnv,
    code: LintCode,
    e: &Expr,
    cols: &Cols,
    loc: &str,
    what: &str,
    report: &mut LintReport,
) -> BTreeSet<String> {
    let (used, unresolved) = expr_refs(e, &names(cols));
    for name in unresolved {
        report.push(
            code,
            loc,
            format!("{what} references `{name}`, which the input does not produce"),
        );
    }
    let types: HashMap<String, _> = cols.iter().cloned().collect();
    if let Err(err) = type_of_column_expr(env.catalog, e, &types) {
        report.push(code, loc, format!("{what} does not type-check: {err}"));
    }
    used
}

/// Report two legs of a union that hand up different column sets.
fn check_legs(left: &Cols, right: &Cols, loc: &str, what: &str, report: &mut LintReport) {
    let (left, right) = (names(left), names(right));
    if left != right {
        let msg = format!("{what}: {left:?} vs {right:?}");
        report.push(LintCode::UnionShapeMismatch, loc, msg);
    }
}

/// Check a `PIJ`'s index reference: in range and a path index. (A
/// `Sel^idx` whose index cannot probe fails to resolve, and is reported
/// where it failed.)
fn check_path_index(env: &PtEnv, id: oorq_storage::IndexId, loc: &str, report: &mut LintReport) {
    match env.physical.indexes().get(id.0 as usize).map(|d| &d.kind) {
        None => report.push(
            LintCode::BadIndex,
            loc,
            format!("index #{} does not exist", id.0),
        ),
        Some(IndexKindDesc::Path { .. }) => {}
        Some(_) => report.push(
            LintCode::BadIndex,
            loc,
            "PIJ requires a path index, got a selection index",
        ),
    }
}

/// The plan and what the walk made of each of its nodes.
struct Plan<'e, 'p> {
    env: &'e PtEnv<'e>,
    order: Preorder<'p>,
    nodes: Vec<Option<Result<Node<'p>, PtError>>>,
}

impl Plan<'_, '_> {
    /// The columns node `id` hands up, when it resolved.
    fn cols(&self, id: usize) -> Option<&Cols> {
        match &self.nodes[id] {
            Some(Ok(node)) => Some(&node.cols),
            _ => None,
        }
    }

    /// Check the subtree at `id`, whose enclosing operators consume the
    /// columns `needed`.
    fn check(&self, id: usize, path: &str, needed: &BTreeSet<String>, report: &mut LintReport) {
        let (env, pt) = (self.env, self.order.pt(id));
        // A node is located by the kind it executes as; only a malformed
        // `Fix` and an unprobeable `Sel^idx` fail to say.
        let kind = match &self.nodes[id] {
            Some(Ok(node)) => node.op.kind(),
            _ => match node_op(env.catalog, env.physical, pt) {
                Ok(op) => op.kind(),
                Err(_) if matches!(pt, Pt::Sel { .. }) => OpKind::SelIdx,
                Err(_) => OpKind::Fix,
            },
        };
        let loc = format!("{path}/{}", kind.name());
        let kids: Vec<usize> = self.order.kids(id).collect();
        let empty = BTreeSet::new();

        match pt {
            Pt::Entity { .. } | Pt::Temp { .. } => {}
            Pt::Sel { pred, .. } => {
                let child_needed = self.cols(kids[0]).map(|cols| {
                    let what = "selection predicate";
                    let code = LintCode::IllTypedPredicate;
                    // Selection passes every input column through, so
                    // upstream demands propagate unchanged.
                    let used = check_expr(env, code, pred, cols, &loc, what, report);
                    needed.union(&used).cloned().collect()
                });
                self.check(kids[0], &loc, &child_needed.unwrap_or_default(), report);
            }
            Pt::Proj { cols, .. } => {
                if cols.is_empty() {
                    report.push(
                        LintCode::EmptyProjection,
                        &loc,
                        "projection onto zero columns",
                    );
                }
                let out_names: BTreeSet<String> = cols.iter().map(|(n, _)| n.clone()).collect();
                let missing: Vec<&str> =
                    needed.difference(&out_names).map(|s| s.as_str()).collect();
                if !missing.is_empty() {
                    report.push(
                        LintCode::ProjDropsNeeded,
                        &loc,
                        format!(
                            "drops column(s) an enclosing operator consumes: {}",
                            missing.join(", ")
                        ),
                    );
                }
                let child_needed = self.cols(kids[0]).map(|icols| {
                    let mut n = BTreeSet::new();
                    for (name, e) in cols {
                        let what = format!("projection of `{name}`");
                        let code = LintCode::IllTypedPredicate;
                        n.extend(check_expr(env, code, e, icols, &loc, &what, report));
                    }
                    n
                });
                self.check(kids[0], &loc, &child_needed.unwrap_or_default(), report);
            }
            Pt::IJ { on, out, .. } => {
                let child_needed = self.cols(kids[0]).map(|cols| {
                    let what = "IJ on-expression";
                    let used = check_expr(env, LintCode::BadIjStep, on, cols, &loc, what, report);
                    let mut n = needed.clone();
                    n.remove(out);
                    n.extend(used);
                    n
                });
                self.check(kids[0], &loc, &child_needed.unwrap_or_default(), report);
                self.check(kids[1], &loc, &empty, report);
            }
            Pt::PIJ {
                index, on, outs, ..
            } => {
                check_path_index(env, *index, &loc, report);
                let child_needed = self.cols(kids[0]).map(|cols| {
                    let what = "PIJ head-oid expression";
                    let used = check_expr(env, LintCode::BadIjStep, on, cols, &loc, what, report);
                    let mut n = needed.clone();
                    for o in outs {
                        n.remove(o);
                    }
                    n.extend(used);
                    n
                });
                self.check(kids[0], &loc, &child_needed.unwrap_or_default(), report);
                for &t in &kids[1..] {
                    self.check(t, &loc, &empty, report);
                }
            }
            Pt::EJ { pred, .. } => {
                let (left, right) = (kids[0], kids[1]);
                let (mut lneeded, mut rneeded) = (BTreeSet::new(), BTreeSet::new());
                if let (Some(lc), Some(rc)) = (self.cols(left), self.cols(right)) {
                    let lnames = names(lc);
                    let rnames = names(rc);
                    for dup in lnames.intersection(&rnames) {
                        report.push(
                            LintCode::DuplicateColumn,
                            &loc,
                            format!("both sides produce column `{dup}`"),
                        );
                    }
                    let both = [lc.as_slice(), rc].concat();
                    let what = "join predicate";
                    let code = LintCode::IllTypedPredicate;
                    let used = check_expr(env, code, pred, &both, &loc, what, report);
                    let mut all: BTreeSet<String> = needed
                        .iter()
                        .filter(|n| lnames.contains(*n) || rnames.contains(*n))
                        .cloned()
                        .collect();
                    all.extend(used);
                    lneeded = all.intersection(&lnames).cloned().collect();
                    rneeded = all.intersection(&rnames).cloned().collect();
                }
                self.check(left, &loc, &lneeded, report);
                self.check(right, &loc, &rneeded, report);
            }
            Pt::Union { .. } => {
                let (lcols, rcols) = (self.cols(kids[0]), self.cols(kids[1]));
                if let (Some(lc), Some(rc)) = (lcols, rcols) {
                    let what = "legs produce different columns";
                    check_legs(lc, rc, &loc, what, report);
                }
                let lneeded = lcols.map(names).unwrap_or_default();
                let rneeded = rcols.map(names).unwrap_or_default();
                self.check(kids[0], &loc, &lneeded, report);
                self.check(kids[1], &loc, &rneeded, report);
            }
            // The fixpoint states its own shape errors.
            Pt::Fix { temp, body } => return self.check_fix(id, temp, body, &loc, report),
        }

        // A node that failed to resolve is reported where it failed (an
        // operand's failure leaves it unresolved instead).
        if let Some(Err(e)) = &self.nodes[id] {
            report.push(map_pt_error(e), &loc, e.to_string());
        }
    }

    /// Check the fixpoint at `id`: its body's shape, then each leg.
    fn check_fix(&self, id: usize, temp: &str, body: &Pt, loc: &str, report: &mut LintReport) {
        let Pt::Union { left, right } = body else {
            report.push(
                LintCode::FixBodyNotUnion,
                loc,
                "fixpoint body must be Union(base, recursive)",
            );
            return self.check(id + 1, loc, &BTreeSet::new(), report);
        };
        let l_rec = left.references_temp(temp);
        let r_rec = right.references_temp(temp);
        if !l_rec && !r_rec {
            report.push(
                LintCode::FixNoRecursiveLeg,
                loc,
                format!("no leg references the temporary `{temp}`"),
            );
        }
        if l_rec && r_rec {
            report.push(
                LintCode::FixNoBaseLeg,
                loc,
                format!("every leg references `{temp}`: no base case seeds the fixpoint"),
            );
        }
        // The body union's legs sit directly under the fixpoint.
        let legs: Vec<usize> = self.order.kids(id + 1).collect();
        let (base, rec) = if l_rec {
            (legs[1], legs[0])
        } else {
            (legs[0], legs[1])
        };
        let (bcols, rcols) = (self.cols(base), self.cols(rec));
        self.check(base, loc, &bcols.map(names).unwrap_or_default(), report);
        self.check(rec, loc, &rcols.map(names).unwrap_or_default(), report);
        if let (Some(bc), Some(rc)) = (bcols, rcols) {
            check_legs(bc, rc, loc, "base and recursive legs differ", report);
            if (l_rec ^ r_rec) && propagated_columns(self.order.pt(id)).is_empty() {
                report.push(
                    LintCode::NoPropagatedColumns,
                    loc,
                    "no temporary column is propagated verbatim; nothing is pushable",
                );
            }
        }
    }
}
