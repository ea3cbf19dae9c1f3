//! The optimizer's one decision sink. A choice point announces what it
//! decided here, once; the `optimizer.candidates.*` counters, the
//! `candidate` trace events and the Figure 6 notes are what the sink
//! makes of the announcement.
//!
//! Every candidate lands in exactly one bucket — accepted, rejected (by
//! cost or by the verifier) or pruned (beam/heuristic) — and in one
//! event, both made by [`Decisions::candidate`], so
//! `optimizer.candidates.enumerated` = the bucket sum = the `candidate`
//! events. A randomized-walk move whose draw lands on a plan already
//! turned down is not a candidate: it only counts as `revisited`, so the
//! walk's move budget spent = its candidates + `revisited`.

use std::fmt;

use oorq_cost::FixCurve;
use oorq_obs::{CounterHandle, Fields, HistogramHandle, MetricsRegistry, Recorder};
use oorq_pt::Pt;

use crate::trace::{OptTrace, Step, StepTrace, StrategyKind};

/// What became of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Kept: in a beam, as a winner, or as the walk's next incumbent.
    Accept,
    /// Turned down by a cost comparison, the cost model or the verifier.
    Reject,
    /// Cut by a beam or heuristic, on an estimate.
    Prune,
}

/// A plan examined at a choice point: the fields of its `candidate`
/// event. The fingerprints are only computed when a recorder listens.
#[derive(Debug, Clone, Copy)]
pub struct Examined<'a> {
    /// The deciding step: `generatePT`, `push-decision`, `transformPT`.
    pub step: &'static str,
    /// The transformation action that produced the plan, if one did.
    pub action: Option<&'static str>,
    /// The arc whose beam the plan competes in.
    pub arc: Option<usize>,
    /// The plan.
    pub plan: &'a Pt,
    /// Its weighted total cost, when it was costed.
    pub cost: Option<f64>,
    /// The plan it was compared against.
    pub incumbent: Option<&'a Pt>,
    /// That plan's cost.
    pub incumbent_cost: Option<f64>,
}

impl<'a> Examined<'a> {
    /// A plan examined at `step`, with nothing else known about it.
    pub fn at(step: &'static str, plan: &'a Pt) -> Self {
        Examined {
            step,
            action: None,
            arc: None,
            plan,
            cost: None,
            incumbent: None,
            incumbent_cost: None,
        }
    }
}

/// Every series the optimizer publishes, interned once at attach time
/// so a bump is one branch (detached, the `Default`) or one relaxed
/// atomic add.
#[derive(Debug, Clone, Default)]
pub(crate) struct OptimizerMetrics {
    pub(crate) queries: CounterHandle,
    pub(crate) optimize_ns: HistogramHandle,
    pub(crate) push_decisions: CounterHandle,
    enumerated: CounterHandle,
    accepted: CounterHandle,
    rejected: CounterHandle,
    pruned: CounterHandle,
    revisited: CounterHandle,
}

impl OptimizerMetrics {
    pub(crate) fn resolve(registry: &MetricsRegistry) -> Self {
        // Never bumped: registered, at 0, only because the benchmark
        // still declares the series (ROADMAP item 1a).
        registry.counter("optimizer.candidates.pruned_proven");
        OptimizerMetrics {
            queries: registry.counter("optimizer.queries"),
            optimize_ns: registry.histogram("optimizer.optimize_ns"),
            push_decisions: registry.counter("optimizer.push_decisions"),
            enumerated: registry.counter("optimizer.candidates.enumerated"),
            accepted: registry.counter("optimizer.candidates.accepted"),
            rejected: registry.counter("optimizer.candidates.rejected"),
            pruned: registry.counter("optimizer.candidates.pruned"),
            revisited: registry.counter("optimizer.candidates.revisited"),
        }
    }

    /// One draw at a choice point: a candidate with its outcome, or
    /// (`None`) a walk move that landed on a plan already turned down.
    fn tally(&self, outcome: Option<Outcome>) {
        let bucket = match outcome {
            None => return self.revisited.inc(),
            Some(Outcome::Accept) => &self.accepted,
            Some(Outcome::Reject) => &self.rejected,
            Some(Outcome::Prune) => &self.pruned,
        };
        self.enumerated.inc();
        bucket.inc();
    }
}

/// The sink: the [`OptTrace`] being built, the structured-tracing
/// recorder and the resolved metric series. `Default` is detached — it
/// records nothing anywhere but in its own trace.
#[derive(Debug, Default)]
pub struct Decisions {
    pub(crate) trace: OptTrace,
    pub(crate) obs: Recorder,
    pub(crate) metrics: OptimizerMetrics,
}

impl Decisions {
    /// A sink announcing to a recorder and a metrics registry.
    pub fn new(obs: Recorder, registry: &MetricsRegistry) -> Self {
        Decisions {
            trace: OptTrace::default(),
            obs,
            metrics: OptimizerMetrics::resolve(registry),
        }
    }

    /// The trace built so far.
    pub fn trace(&self) -> &OptTrace {
        &self.trace
    }

    /// Start the record of one §4 step; [`Decisions::generated`] and
    /// [`Decisions::note`] add to the step started last.
    pub fn step(&mut self, step: Step, granularity: impl Into<String>, strategy: StrategyKind) {
        self.trace.steps.push(StepTrace {
            step,
            granularity: granularity.into(),
            strategy,
            nodes_generated: Vec::new(),
            notes: Vec::new(),
        });
    }

    /// A PT node kind the current step generated.
    pub fn generated(&mut self, kind: &str) {
        let step = self.trace.steps.last_mut().expect("a step was started");
        step.nodes_generated.push(kind.to_string());
    }

    /// A Figure 6 note on the current step.
    pub fn note(&mut self, note: impl Into<String>) {
        let step = self.trace.steps.last_mut().expect("a step was started");
        step.notes.push(note.into());
    }

    /// One candidate and what became of it: one bucket, one event.
    pub fn candidate(&self, c: Examined<'_>, outcome: Outcome, reason: impl fmt::Display) {
        self.metrics.tally(Some(outcome));
        if !self.obs.enabled() {
            return;
        }
        let fingerprint = |pt: &Pt| format!("{:016x}", pt.fingerprint());
        let mut fields: Fields = vec![("step".into(), c.step.into())];
        if let Some(action) = c.action {
            fields.push(("action".into(), action.into()));
        }
        if let Some(arc) = c.arc {
            fields.push(("arc".into(), arc.into()));
        }
        fields.push(("fingerprint".into(), fingerprint(c.plan).into()));
        if let Some(cost) = c.cost {
            fields.push(("cost".into(), cost.into()));
        }
        if let Some(incumbent) = c.incumbent {
            fields.push(("incumbent".into(), fingerprint(incumbent).into()));
        }
        if let Some(cost) = c.incumbent_cost {
            fields.push(("incumbent_cost".into(), cost.into()));
        }
        let outcome = match outcome {
            Outcome::Accept => "accept",
            Outcome::Reject => "reject",
            Outcome::Prune => "prune",
        };
        fields.push(("outcome".into(), outcome.into()));
        fields.push(("reason".into(), reason.to_string().into()));
        self.obs.event("optimizer", "candidate", fields);
    }

    /// A randomized-walk move that drew a plan already turned down.
    pub fn revisited(&self) {
        self.metrics.tally(None);
    }

    /// The delta curve a fixpoint was costed under, and the cardinality
    /// hint its temporary got from it.
    pub(crate) fn fix_curve(&self, curve: &FixCurve, delta_hint: f64) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.event(
            "optimizer",
            "fix-curve",
            vec![
                ("temp".into(), curve.temp.as_str().into()),
                ("iterations".into(), curve.iterations.into()),
                (
                    "seed_delta".into(),
                    curve.deltas.first().copied().unwrap_or(0.0).into(),
                ),
                ("total_rows".into(), curve.total_rows.into()),
                ("delta_hint".into(), delta_hint.into()),
            ],
        );
    }
}
