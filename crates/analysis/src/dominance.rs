//! Provable candidate pruning: when two plans differ by exactly one
//! *result-preserving* local change (a selection's access-method
//! toggle), their executions agree everywhere outside the toggled
//! subtree — so if the candidate subtree's cost *lower* bound strictly
//! exceeds the incumbent subtree's *upper* bound, the candidate is
//! provably worse and can be discarded without estimation error.

use oorq_pt::{node_op, NodeOp, Pt, PtEnv};
use oorq_schema::ClassId;

use crate::bounds::Analysis;

/// If `a` and `b` differ by exactly one safe, result-preserving toggle,
/// return the pre-order id of the diverging node; otherwise `None`.
///
/// The one recognized toggle is a `Sel`'s access method (sequential vs.
/// index), provided a resolving index probe targets a *non-collection*
/// attribute — a collection index lists an oid once per member, which
/// would change the emitted multiset versus the scan's single
/// existential emission. An `EJ` has one algorithm, the nested loop, so
/// two explicit joins differ only by their predicates or operands.
///
/// The toggle may sit inside a fixpoint body: each semi-naive pass fully
/// drains the recursive leg before the next delta forms, so per-pass
/// delta *sets* — and hence pass counts — are order-independent.
pub fn equivalent_local_change(env: &PtEnv, a: &Pt, b: &Pt) -> Option<usize> {
    let mut state = Diff {
        env,
        next_id: 0,
        diverged: None,
    };
    if state.walk(a, b) {
        state.diverged
    } else {
        None
    }
}

struct Diff<'a, 'b> {
    env: &'b PtEnv<'a>,
    next_id: usize,
    diverged: Option<usize>,
}

impl Diff<'_, '_> {
    fn walk(&mut self, a: &Pt, b: &Pt) -> bool {
        let my_id = self.next_id;
        self.next_id += 1;
        if same_shape_here(a, b) {
            let (ca, cb) = (a.children(), b.children());
            return ca.len() == cb.len() && ca.iter().zip(cb.iter()).all(|(x, y)| self.walk(x, y));
        }
        // The nodes differ: admissible once, as an access-method toggle
        // over identical operands.
        let toggle = match (a, b) {
            (Pt::Sel { pred: p1, .. }, Pt::Sel { pred: p2, .. }) => {
                p1 == p2 && a.children() == b.children()
            }
            _ => false,
        };
        if !toggle || self.diverged.is_some() || !self.toggle_safe(a) || !self.toggle_safe(b) {
            return false;
        }
        self.diverged = Some(my_id);
        self.next_id += a.size() - 1;
        true
    }

    /// One side of a toggle is safe when it executes as a plain filter
    /// (trivially equivalent to the other side) or as an index probe on
    /// a non-collection attribute.
    fn toggle_safe(&self, pt: &Pt) -> bool {
        match node_op(self.env.catalog, self.env.physical, pt) {
            Ok(NodeOp::IndexSelect { probe, .. }) => {
                self.attr_non_collection(probe.class, probe.attr)
            }
            Ok(_) => true,
            Err(_) => false,
        }
    }

    fn attr_non_collection(&self, class: ClassId, name: &str) -> bool {
        match self.env.catalog.attr(class, name) {
            Some((_, attr)) => !attr.ty.is_collection(),
            None => false,
        }
    }
}

/// Structural equality of two nodes' own (non-child) content.
fn same_shape_here(a: &Pt, b: &Pt) -> bool {
    match (a, b) {
        (Pt::Entity { id: i1, var: v1 }, Pt::Entity { id: i2, var: v2 }) => i1 == i2 && v1 == v2,
        (Pt::Temp { name: n1, var: v1 }, Pt::Temp { name: n2, var: v2 }) => n1 == n2 && v1 == v2,
        (
            Pt::Sel {
                pred: p1,
                method: m1,
                ..
            },
            Pt::Sel {
                pred: p2,
                method: m2,
                ..
            },
        ) => p1 == p2 && m1 == m2,
        (Pt::Proj { cols: c1, .. }, Pt::Proj { cols: c2, .. }) => c1 == c2,
        (
            Pt::IJ {
                on: o1,
                step: s1,
                out: u1,
                ..
            },
            Pt::IJ {
                on: o2,
                step: s2,
                out: u2,
                ..
            },
        ) => o1 == o2 && s1 == s2 && u1 == u2,
        (
            Pt::PIJ {
                index: i1,
                on: o1,
                outs: u1,
                ..
            },
            Pt::PIJ {
                index: i2,
                on: o2,
                outs: u2,
                ..
            },
        ) => i1 == i2 && o1 == o2 && u1 == u2,
        (Pt::EJ { pred: p1, .. }, Pt::EJ { pred: p2, .. }) => p1 == p2,
        (Pt::Union { .. }, Pt::Union { .. }) => true,
        (Pt::Fix { temp: t1, .. }, Pt::Fix { temp: t2, .. }) => t1 == t2,
        _ => false,
    }
}

/// Is the candidate *provably* worse than the incumbent at the diverged
/// subtree? Returns `(candidate subtree cost lower bound, incumbent
/// subtree cost upper bound)` when the intervals do not overlap —
/// outside the subtree the two plans run identically, so the subtree
/// comparison decides the whole plan.
pub fn proven_worse(
    candidate: &Analysis,
    incumbent: &Analysis,
    diverged: usize,
) -> Option<(f64, f64)> {
    let c = candidate.subtree_cost(diverged)?;
    let i = incumbent.subtree_cost(diverged)?;
    if c.is_degenerate() || i.is_degenerate() {
        return None;
    }
    if c.strictly_above(&i) {
        Some((c.lo, i.hi))
    } else {
        None
    }
}
