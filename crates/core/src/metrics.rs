//! The optimizer's aggregated metric series: pre-resolved handles into
//! a [`oorq_obs::MetricsRegistry`], interned once at attach time so the
//! per-candidate cost is one branch (detached) or one relaxed atomic
//! add.
//!
//! Candidate accounting uses the same outcome vocabulary as the trace's
//! structured `candidate` events, and every enumerated candidate lands
//! in exactly one bucket — accepted, rejected (by cost or by the
//! verifier), pruned (beam/heuristic), or pruned-proven (discarded by
//! non-overlapping §11 cost intervals) — so
//! `optimizer.candidates.enumerated` always equals the bucket sum. A
//! randomized-walk move whose draw lands on a plan already turned down
//! is not a candidate: it only counts as `revisited`, so the walk's move
//! budget spent = its candidates + `revisited`.

use oorq_obs::{CounterHandle, HistogramHandle, MetricsRegistry};

/// Candidate-outcome counters shared by the `generatePT` beam, the
/// push decision and the `transformPT` randomized walk.
#[derive(Debug, Clone, Default)]
pub struct CandidateMetrics {
    enumerated: CounterHandle,
    accepted: CounterHandle,
    rejected: CounterHandle,
    pruned: CounterHandle,
    pruned_proven: CounterHandle,
    revisited: CounterHandle,
}

impl CandidateMetrics {
    /// Intern the candidate series in a registry.
    pub fn resolve(registry: &MetricsRegistry) -> Self {
        CandidateMetrics {
            enumerated: registry.counter("optimizer.candidates.enumerated"),
            accepted: registry.counter("optimizer.candidates.accepted"),
            rejected: registry.counter("optimizer.candidates.rejected"),
            pruned: registry.counter("optimizer.candidates.pruned"),
            pruned_proven: registry.counter("optimizer.candidates.pruned_proven"),
            revisited: registry.counter("optimizer.candidates.revisited"),
        }
    }

    /// Count one candidate, bucketed by the trace-event outcome
    /// (`accept`/`reject`/`prune`; a prune whose reason starts with
    /// `pruned-proven` was discarded by proof, not estimate).
    pub fn outcome(&self, outcome: &str, reason: &str) {
        self.enumerated.inc();
        match outcome {
            "accept" => self.accepted.inc(),
            "reject" => self.rejected.inc(),
            _ if reason.starts_with("pruned-proven") => self.pruned_proven.inc(),
            _ => self.pruned.inc(),
        }
    }

    /// Count one walk move that drew a plan already turned down.
    pub fn revisited(&self) {
        self.revisited.inc();
    }
}

/// Every series the optimizer itself publishes (resolved in
/// `Optimizer::with_metrics`; `Default` is fully detached).
#[derive(Debug, Clone, Default)]
pub(crate) struct OptimizerMetrics {
    pub(crate) queries: CounterHandle,
    pub(crate) optimize_ns: HistogramHandle,
    pub(crate) candidates: CandidateMetrics,
    pub(crate) push_decisions: CounterHandle,
    pub(crate) parallel_choices: CounterHandle,
}

impl OptimizerMetrics {
    pub(crate) fn resolve(registry: &MetricsRegistry) -> Self {
        OptimizerMetrics {
            queries: registry.counter("optimizer.queries"),
            optimize_ns: registry.histogram("optimizer.optimize_ns"),
            candidates: CandidateMetrics::resolve(registry),
            push_decisions: registry.counter("optimizer.push_decisions"),
            parallel_choices: registry.counter("optimizer.parallel_choices"),
        }
    }
}
