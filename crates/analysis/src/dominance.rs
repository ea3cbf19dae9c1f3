//! Provable candidate pruning: when a move rewrites one node by a
//! *result-preserving* local change (a selection's access-method
//! toggle), the two plans' executions agree everywhere outside the
//! toggled subtree — so if the candidate subtree's cost *lower* bound strictly
//! exceeds the incumbent subtree's *upper* bound, the candidate is
//! provably worse and can be discarded without estimation error.

use oorq_pt::{node_op, NodeOp, Pt, PtEnv};

use crate::bounds::Analysis;

/// Whether the two subtrees a move swapped at one node are a safe,
/// result-preserving toggle: a `Sel`'s access method (sequential vs.
/// index) over the same predicate and input, where each side runs as a
/// plain filter or as an index probe on a *non-collection* attribute —
/// a collection index lists an oid once per member, which would change
/// the emitted multiset versus the scan's single existential emission.
///
/// The toggle may sit inside a fixpoint body: each semi-naive pass fully
/// drains the recursive leg before the next delta forms, so per-pass
/// delta *sets* — and hence pass counts — are order-independent.
pub fn equivalent_toggle(env: &PtEnv, a: &Pt, b: &Pt) -> bool {
    let safe = |pt| match node_op(env.catalog, env.physical, pt) {
        Ok(NodeOp::IndexSelect { probe, .. }) => env
            .catalog
            .attr(probe.class, probe.attr)
            .is_some_and(|(_, attr)| !attr.ty.is_collection()),
        Ok(_) => true,
        Err(_) => false,
    };
    match (a, b) {
        (
            Pt::Sel {
                pred: p1,
                method: m1,
                input: i1,
            },
            Pt::Sel {
                pred: p2,
                method: m2,
                input: i2,
            },
        ) => p1 == p2 && m1 != m2 && i1 == i2 && safe(a) && safe(b),
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
