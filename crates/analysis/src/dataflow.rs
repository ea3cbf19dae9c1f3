//! Column def-use dataflow over the PT: a top-down demand (liveness)
//! pass flagging projection columns that are *computed* (not a bare
//! column pass-through) yet never read by any ancestor — dead work the
//! plan author can drop (`AB004`).
//!
//! The pass is deliberately conservative toward liveness: variable
//! shadowing and qualified-column aliasing only ever *add* demanded
//! names, so a column is flagged only when provably unread. Fixpoint
//! bodies are fully live — every column of a recursive temporary feeds
//! the accumulator's distinctness check.

use std::collections::BTreeSet;

use oorq_lint::{LintCode, LintReport};
use oorq_pt::{Preorder, Pt};
use oorq_query::Expr;

/// The demand set flowing down the tree.
#[derive(Debug, Clone)]
struct Live {
    /// Everything is demanded (root, fixpoint bodies).
    all: bool,
    names: BTreeSet<String>,
}

impl Live {
    fn all() -> Live {
        Live {
            all: true,
            names: BTreeSet::new(),
        }
    }

    fn is_live(&self, name: &str) -> bool {
        if self.all || self.names.contains(name) {
            return true;
        }
        // A demand for `v` (e.g. a path rooted at `v`) reaches the
        // qualified column `v.field`, and a demand for `v.field`
        // reaches the column `v` it projects from.
        if let Some(base) = name.split('.').next() {
            if base != name && self.names.contains(base) {
                return true;
            }
        }
        self.names.iter().any(|n| n.split('.').next() == Some(name))
    }

    fn extend_from(&mut self, e: &Expr) {
        if !self.all {
            self.names.extend(e.vars());
        }
    }
}

/// Flag provably-dead computed projection columns (`AB004`).
pub fn dead_columns(pt: &Pt) -> LintReport {
    let mut report = LintReport::new();
    walk(&pt.preorder(), 0, Live::all(), &mut report);
    report
}

/// Demand `live` of node `id`; its children are `order.kids(id)`, in
/// operand order.
fn walk(order: &Preorder<'_>, id: usize, live: Live, report: &mut LintReport) {
    let mut kids = order.kids(id);
    // Hand the next child its demand; false once there is none left.
    let mut below = |live: Live, report: &mut LintReport| {
        let kid = kids.next();
        kid.inspect(|&k| walk(order, k, live, report)).is_some()
    };
    match order.pt(id) {
        Pt::Entity { .. } | Pt::Temp { .. } => {}
        Pt::Sel { pred, .. } => {
            let mut l = live;
            l.extend_from(pred);
            below(l, report);
        }
        Pt::Proj { cols, .. } => {
            let mut demand = Live {
                all: false,
                names: BTreeSet::new(),
            };
            for (name, expr) in cols {
                let used = live.is_live(name);
                if used || live.all {
                    demand.names.extend(expr.vars());
                }
                if !used && !matches!(expr, Expr::Var(_)) {
                    report.push(
                        LintCode::DeadComputedColumn,
                        format!("node {id} (Proj)"),
                        format!(
                            "computed column `{name}` is never read by any ancestor; \
                             its per-row evaluation is dead work"
                        ),
                    );
                }
            }
            below(demand, report);
        }
        Pt::IJ { on, .. } | Pt::PIJ { on, .. } => {
            let mut l = live;
            l.extend_from(on);
            below(l, report);
            // The targets.
            while below(Live::all(), report) {}
        }
        Pt::EJ { pred, .. } => {
            let mut l = live;
            l.extend_from(pred);
            below(l.clone(), report);
            below(l, report);
        }
        Pt::Union { .. } => {
            below(live.clone(), report);
            below(live, report);
        }
        // Every column of the body participates in the accumulator's
        // row-distinctness check: all live.
        Pt::Fix { .. } => {
            below(Live::all(), report);
        }
    }
}
