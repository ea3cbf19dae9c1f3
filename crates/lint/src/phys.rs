//! The physical-plan pass: well-formedness of lowered plans.
//!
//! Lowering ([`oorq_pt::lower`]) resolves access methods, column
//! layouts and permutations once; the executor then trusts them on the
//! hot path. This pass re-derives every resolved fact and checks it
//! (`PX*` codes), the same trust boundary the PT pass guards for the
//! optimizer: operator ids dense and unique, per-operator output
//! columns consistent with the operands, union/fixpoint permutations
//! actually permutations of the operand columns, index kinds matching
//! the operators that probe them, temporaries scanned only in the
//! recursive leg of their fixpoint, and nested-loop rescans only over
//! rescannable inners.

use std::collections::BTreeSet;

use oorq_pt::{PhysOp, PhysPlan, PtEnv};
use oorq_storage::IndexKindDesc;

use crate::diag::{LintCode, LintReport};

/// Verify a lowered physical plan against its environment's catalog and
/// physical schema. A lowered plan is complete: each temporary is in
/// scope only in the recursive leg of the `FixPoint` that defines it.
pub fn verify_phys(env: &PtEnv, plan: &PhysPlan) -> LintReport {
    let mut report = LintReport::new();

    // Operator ids: dense and unique over 0..plan.ops.
    let mut seen = vec![false; plan.ops];
    let mut count = 0usize;
    plan.root.visit(&mut |op| {
        count += 1;
        let id = op.meta().id;
        match seen.get_mut(id) {
            Some(s) if !*s => *s = true,
            _ => report.push(
                LintCode::PhysOpIds,
                format!("#{id}"),
                format!(
                    "operator id {id} duplicate or out of range (ops={})",
                    plan.ops
                ),
            ),
        }
    });
    if count != plan.ops {
        report.push(
            LintCode::PhysOpIds,
            "plan",
            format!("plan declares {} operators but contains {count}", plan.ops),
        );
    }

    check(env, &BTreeSet::new(), &plan.root, &mut report);
    report
}

fn loc(op: &PhysOp) -> String {
    format!("#{} {}", op.meta().id, op.meta().label)
}

fn cols_mismatch(op: &PhysOp, expect: &[String], report: &mut LintReport) {
    if op.cols() != expect {
        report.push(
            LintCode::PhysColsMismatch,
            loc(op),
            format!(
                "output columns [{}] inconsistent with operands (expected [{}])",
                op.cols().join(", "),
                expect.join(", ")
            ),
        );
    }
}

/// Check that `perm` (or the identity, when absent) maps `from` onto
/// `to` name-for-name.
fn check_perm(
    op: &PhysOp,
    perm: &Option<Vec<usize>>,
    to: &[String],
    from: &[String],
    report: &mut LintReport,
) {
    let aligned = match perm {
        None => to == from,
        Some(p) => {
            p.len() == to.len()
                && p.iter()
                    .zip(to)
                    .all(|(&i, want)| from.get(i).is_some_and(|have| have == want))
        }
    };
    if !aligned {
        report.push(
            LintCode::PhysBadPerm,
            loc(op),
            format!(
                "permutation does not map [{}] onto [{}]",
                from.join(", "),
                to.join(", ")
            ),
        );
    }
}

fn check(env: &PtEnv, scope: &BTreeSet<String>, op: &PhysOp, report: &mut LintReport) {
    match op {
        PhysOp::EntityScan { entity, .. } => {
            if entity.0 as usize >= env.physical.entities().len() {
                report.push(
                    LintCode::PhysBadEntity,
                    loc(op),
                    format!("entity {} out of range", entity.0),
                );
            }
        }
        PhysOp::TempScan { name, .. } => {
            if !scope.contains(name) {
                report.push(
                    LintCode::PhysUndefinedTemp,
                    loc(op),
                    format!("temp `{name}` scanned outside a defining fixpoint"),
                );
            }
        }
        PhysOp::IndexSelect { index, var, .. } => {
            match env
                .physical
                .indexes()
                .get(index.0 as usize)
                .map(|d| &d.kind)
            {
                Some(IndexKindDesc::Selection { .. }) => {}
                Some(_) => report.push(
                    LintCode::PhysBadIndex,
                    loc(op),
                    format!("index {} is not a selection index", index.0),
                ),
                None => report.push(
                    LintCode::PhysBadIndex,
                    loc(op),
                    format!("index {} does not exist", index.0),
                ),
            }
            cols_mismatch(op, std::slice::from_ref(var), report);
        }
        PhysOp::Filter { input, .. } => cols_mismatch(op, input.cols(), report),
        PhysOp::Project { exprs, .. } => {
            let expect: Vec<String> = exprs.iter().map(|(n, _)| n.clone()).collect();
            cols_mismatch(op, &expect, report);
        }
        PhysOp::IjDeref { out, input, .. } => {
            let mut expect = input.cols().to_vec();
            expect.push(out.clone());
            cols_mismatch(op, &expect, report);
        }
        PhysOp::PijLookup {
            index, outs, input, ..
        } => {
            match env
                .physical
                .indexes()
                .get(index.0 as usize)
                .map(|d| &d.kind)
            {
                Some(IndexKindDesc::Path { path }) => {
                    if outs.len() > path.len() {
                        report.push(
                            LintCode::PhysBadIndex,
                            loc(op),
                            format!(
                                "path index {} has {} steps but {} outputs bound",
                                index.0,
                                path.len(),
                                outs.len()
                            ),
                        );
                    }
                }
                Some(_) => report.push(
                    LintCode::PhysBadIndex,
                    loc(op),
                    format!("index {} is not a path index", index.0),
                ),
                None => report.push(
                    LintCode::PhysBadIndex,
                    loc(op),
                    format!("index {} does not exist", index.0),
                ),
            }
            let mut expect = input.cols().to_vec();
            expect.extend(outs.iter().cloned());
            cols_mismatch(op, &expect, report);
        }
        PhysOp::NlJoin {
            rescan_inner,
            left,
            right,
            ..
        } => {
            if *rescan_inner && !right.rescannable() {
                report.push(
                    LintCode::PhysBadRescan,
                    loc(op),
                    "rescan_inner set over a non-rescannable inner".to_string(),
                );
            }
            let mut expect = left.cols().to_vec();
            expect.extend(right.cols().iter().cloned());
            cols_mismatch(op, &expect, report);
        }
        PhysOp::UnionAll {
            perm, left, right, ..
        } => {
            cols_mismatch(op, left.cols(), report);
            check_perm(op, perm, op.cols(), right.cols(), report);
        }
        PhysOp::FixPoint {
            temp,
            fields,
            perm,
            base,
            rec,
            ..
        } => {
            let expect: Vec<String> = fields.iter().map(|(n, _)| n.clone()).collect();
            cols_mismatch(op, &expect, report);
            if base.cols() != expect.as_slice() {
                report.push(
                    LintCode::PhysColsMismatch,
                    loc(op),
                    format!(
                        "fixpoint fields [{}] differ from base columns [{}]",
                        expect.join(", "),
                        base.cols().join(", ")
                    ),
                );
            }
            check_perm(op, perm, &expect, rec.cols(), report);
            let mut inner = scope.clone();
            inner.insert(temp.clone());
            check(env, scope, base, report);
            check(env, &inner, rec, report);
            return; // the recursive leg is checked with the extended scope
        }
    }
    for c in op.children() {
        check(env, scope, c, report);
    }
}
