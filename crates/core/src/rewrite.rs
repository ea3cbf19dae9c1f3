//! The `rewrite` step (§4.2): make `Union` and `Fix` explicit.
//!
//! ```text
//! rewrite(Q) { repeat union(Q); fixpoint(Q) until saturation }
//! ```
//!
//! Both actions are *irrevocable* — applied to saturation with no choices
//! involved, like in classic query rewriters.

use oorq_query::{GraphTerm, NameRef, QueryGraph};

use crate::decisions::Decisions;
use crate::trace::{Step, StrategyKind};

/// Apply the `union` action once: two producers of the same name are
/// merged into one `Union` term. Returns whether anything changed.
///
/// ```text
/// union: Q | (Name ← p1) ∈ Q ∧ (Name ← p2) ∈ Q
///        → Q − {(Name ← p1), (Name ← p2)} ∪ {(Name ← Union(p1, p2))}
/// ```
pub(crate) fn union_action(graph: &mut QueryGraph) -> bool {
    for i in 0..graph.nodes.len() {
        for j in (i + 1)..graph.nodes.len() {
            if graph.nodes[i].0 == graph.nodes[j].0 {
                let (_, p2) = graph.nodes.remove(j);
                let (name, p1) = graph.nodes.remove(i);
                graph
                    .nodes
                    .insert(i, (name, GraphTerm::Union(Box::new(p1), Box::new(p2))));
                return true;
            }
        }
    }
    false
}

/// True when `Name = p(Name)` is computable as a fixpoint: the term's
/// SPJ inputs reference `name` itself. Admission (`oorq_lint::lint_graph`,
/// QG006) guarantees each alternative's [`GraphTerm::self_references`]
/// is at most 1 — the linear recursion both the semi-naive evaluator and
/// the Kifer–Lozinskii push conditions assume.
pub(crate) fn fixpoint_recursion(name: &NameRef, term: &GraphTerm) -> bool {
    // A `Fix` is already rewritten.
    !matches!(term, GraphTerm::Fix(..)) && term.self_references(name) > 0
}

/// Apply the `fixpoint` action once.
///
/// ```text
/// fixpoint: Name | (Name ← p) ∈ Q ∧ fixpointRecursion(Name)
///           → Fix(Name, p)
/// ```
pub(crate) fn fixpoint_action(graph: &mut QueryGraph) -> bool {
    for i in 0..graph.nodes.len() {
        let (name, term) = &graph.nodes[i];
        if fixpoint_recursion(name, term) {
            let (name, term) = graph.nodes.remove(i);
            graph
                .nodes
                .insert(i, (name.clone(), GraphTerm::Fix(name, Box::new(term))));
            return true;
        }
    }
    false
}

/// The full `rewrite` procedure: both actions to saturation.
pub fn rewrite(graph: &mut QueryGraph, sink: &mut Decisions) {
    sink.step(
        Step::Rewrite,
        "the entire query (graph)",
        StrategyKind::Irrevocable,
    );
    loop {
        let mut changed = false;
        while union_action(graph) {
            sink.generated("Union");
            changed = true;
        }
        while fixpoint_action(graph) {
            sink.generated("Fix");
            changed = true;
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oorq_query::paper::{fig3_query, music_catalog};

    #[test]
    fn rewrite_makes_union_and_fix_explicit() {
        let cat = music_catalog();
        let mut q = fig3_query(&cat);
        assert_eq!(q.nodes.len(), 3);
        let mut sink = Decisions::default();
        rewrite(&mut q, &mut sink);
        // P1 and P2 merged into Union, wrapped in Fix.
        assert_eq!(q.nodes.len(), 2);
        let influencer = cat.relation_by_name("Influencer").unwrap();
        let producers = q.producers(&NameRef::Relation(influencer));
        assert_eq!(producers.len(), 1);
        match producers[0] {
            GraphTerm::Fix(n, body) => {
                assert_eq!(*n, NameRef::Relation(influencer));
                assert!(matches!(body.as_ref(), GraphTerm::Union(..)));
            }
            other => panic!("expected Fix, got {other:?}"),
        }
        // Trace recorded both node kinds.
        let s = sink.trace().summary();
        assert!(s.contains("rewrite"), "{s}");
        assert!(s.contains("Fix, Union"), "{s}");
        // Saturation: rewriting again changes nothing.
        let before = q.clone();
        rewrite(&mut q, &mut Decisions::default());
        assert_eq!(q, before);
    }

    #[test]
    fn non_recursive_graph_untouched() {
        let cat = music_catalog();
        let mut q = oorq_query::paper::fig2_query(&cat);
        let before = q.clone();
        rewrite(&mut q, &mut Decisions::default());
        assert_eq!(q, before);
    }
}
