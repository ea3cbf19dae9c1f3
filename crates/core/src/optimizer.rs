//! The optimizer pipeline of §4.1:
//!
//! ```text
//! optimize(Q) {
//!   rewrite(Q);
//!   for each (N, tree) of Q              translate(N, tree);
//!   for each SPJ(In, pred, out) of Q
//!     | (∀ N ∈ In) isaPT(N)             Q := ... ∪ {N ← generatePT(...)};
//!   repeat transformPT(Q) until saturation;
//! }
//! ```
//!
//! The condition `(∀ N ∈ In) isaPT(N)` forces bottom-up processing of
//! the query graph (so every cost is computable); `transformPT` is
//! postponed until a complete solution PT exists — a two-pass search
//! strategy \[IC90\] — so the decision of pushing selective operations
//! through recursion is taken in the presence of the cost model.

use std::collections::HashMap;

use oorq_cost::{CostModel, OpenTemp, PlanCost};
use oorq_pt::{propagated_columns, ParallelSpec, Pt, PtEnv};
use oorq_query::{Expr, GraphTerm, NameRef, QArc, QueryGraph, SpjNode, TreeLabel};
use oorq_schema::{ResolvedType, ViewKind};

use crate::decisions::{Decisions, Examined, Outcome};
use crate::error::OptError;
use crate::generate::{assemble_arc, generate_pt, rewrite_expr, SpjStrategy};
use crate::rewrite::rewrite;
use crate::trace::{OptTrace, Step, StrategyKind};
use crate::transform::{
    can_push, filter_action, neighbours, push_join_action, rand_optimize_with, FixInfo,
    PushStrategy, RandConfig,
};
use crate::translate::{translate_arc, ArcChain, BasePlan};

/// Cap on translated alternatives per arc.
const MAX_ARC_ALTERNATIVES: usize = 12;

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Join-enumeration strategy for predicate nodes.
    pub spj_strategy: SpjStrategy,
    /// How pushing through recursion is decided.
    pub push: PushStrategy,
    /// Randomized re-optimization of the final plan, if any.
    pub rand: Option<RandConfig>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            spj_strategy: SpjStrategy::Dp,
            push: PushStrategy::CostControlled,
            rand: Some(RandConfig::default()),
        }
    }
}

impl OptimizerConfig {
    /// The paper's configuration (cost-controlled pushing, DP spj's,
    /// iterative-improvement re-optimization). The randomized phase
    /// runs with the explicitly seeded [`RandConfig::default`], so the
    /// strategy is deterministic.
    pub fn cost_controlled() -> Self {
        Self::default()
    }

    /// The deductive-DB baseline: always push when legal (rewriting
    /// heuristic, no cost comparison). No randomized phase — the
    /// baseline measures the heuristic alone, deterministically.
    pub fn deductive_heuristic() -> Self {
        OptimizerConfig {
            push: PushStrategy::AlwaysPush,
            rand: None,
            ..Self::default()
        }
    }

    /// Never push through recursion. No randomized phase.
    pub fn never_push() -> Self {
        OptimizerConfig {
            push: PushStrategy::NeverPush,
            rand: None,
            ..Self::default()
        }
    }

    /// The exhaustive \[KZ88\] baseline. No randomized phase.
    pub fn exhaustive() -> Self {
        OptimizerConfig {
            spj_strategy: SpjStrategy::Exhaustive,
            rand: None,
            ..Self::default()
        }
    }
}

/// The result of an optimization.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen execution plan.
    pub pt: Pt,
    /// Its output column names.
    pub out_cols: Vec<String>,
    /// Its estimated cost (with per-node breakdown).
    pub cost: PlanCost,
    /// Kept for `benchmark/src/traced.rs` until a `benchmark` PR drops
    /// it: always the empty [`ParallelSpec`].
    pub parallel: ParallelSpec,
    /// The optimization trace (Figure 6 material).
    pub trace: OptTrace,
}

/// Arc-index → pushed replacement plan (with its typed output columns).
type PluggedOverrides = HashMap<usize, (Pt, Vec<(String, ResolvedType)>)>;

/// A planned name node.
#[derive(Debug, Clone)]
struct Planned {
    pt: Pt,
    out_cols: Vec<(String, ResolvedType)>,
    /// For a fixpoint: the temporary its recursive leg was planned
    /// against, which a selection pushed into that leg is planned against
    /// too.
    open: Option<OpenTemp>,
}

/// The cost-controlled optimizer.
pub struct Optimizer<'a> {
    /// The cost model (owned so a fixpoint's temporary can be opened on
    /// it while the fixpoint's recursive leg is planned).
    pub model: CostModel<'a>,
    /// Configuration.
    pub config: OptimizerConfig,
    /// Where every choice point announces what it decided: the trace of
    /// the optimization under way, the structured-tracing recorder and
    /// the metric series (both detached by default: every probe and
    /// every bump is one branch).
    sink: Decisions,
    fresh: usize,
}

impl<'a> Optimizer<'a> {
    /// New optimizer over a cost model.
    pub fn new(model: CostModel<'a>, config: OptimizerConfig) -> Self {
        Optimizer {
            model,
            config,
            sink: Decisions::default(),
            fresh: 0,
        }
    }

    /// Attach a structured-tracing recorder: spans per §4 step, one
    /// `candidate` event per enumerated plan, lint violations as events.
    pub fn with_recorder(mut self, obs: oorq_obs::Recorder) -> Self {
        self.sink.obs = obs;
        self
    }

    /// Attach a metrics registry: every optimization publishes its wall
    /// time (`optimizer.optimize_ns`), and each enumerated candidate —
    /// arc beam, push decision, randomized-walk move — lands in one
    /// `optimizer.candidates.*` outcome bucket.
    pub fn with_metrics(mut self, registry: &oorq_obs::MetricsRegistry) -> Self {
        self.sink.metrics = crate::decisions::OptimizerMetrics::resolve(registry);
        self
    }

    /// Optimize a query graph into an execution plan.
    pub fn optimize(&mut self, graph: &QueryGraph) -> Result<Optimized, OptError> {
        let sp_opt = self.sink.obs.begin("optimizer", "optimize");
        let wall0 = std::time::Instant::now();
        let result = self.optimize_inner(graph);
        if result.is_ok() {
            let metrics = &self.sink.metrics;
            metrics.queries.inc();
            metrics
                .optimize_ns
                .record(wall0.elapsed().as_nanos() as u64);
        }
        if let Ok(plan) = &result {
            self.sink.obs.span_fields(
                sp_opt,
                vec![
                    (
                        "fingerprint".into(),
                        format!("{:016x}", plan.pt.fingerprint()).into(),
                    ),
                    ("cost".into(), plan.cost.total(&self.model.params).into()),
                ],
            );
        }
        self.sink.obs.end(sp_opt);
        result
    }

    fn optimize_inner(&mut self, graph: &QueryGraph) -> Result<Optimized, OptError> {
        let catalog = self.model.catalog;
        let mut g = graph.clone();
        g.normalize(catalog)?;
        self.sink.trace = OptTrace::default();
        self.verify_graph(&g, "normalize (query graph)")?;

        // Step 1: rewrite (irrevocable).
        let sp = self.sink.obs.begin("optimizer", "rewrite");
        rewrite(&mut g, &mut self.sink);
        self.sink.obs.end(sp);
        if cfg!(debug_assertions) {
            self.verify_graph(&g, "rewrite (query graph)")?;
        }

        // Steps 2+3: translate + generatePT, bottom-up over the graph.
        let mut planned: HashMap<NameRef, Planned> = HashMap::new();
        let mut remaining: Vec<(NameRef, GraphTerm)> = g.nodes.clone();
        while !remaining.is_empty() {
            let idx = remaining
                .iter()
                .position(|(name, term)| self.ready(name, term, &planned))
                .ok_or(OptError::CyclicGraph)?;
            let (name, term) = remaining.remove(idx);
            let p = self.plan_term(&g, &term, &planned)?;
            self.verify_stage(&p.pt, &format!("generatePT({})", name.display(catalog)))?;
            planned.insert(name, p);
        }

        let answer = planned
            .get(&g.answer)
            .ok_or_else(|| OptError::Unplannable("answer".into()))?
            .clone();

        // Step 4: transformPT — randomized re-optimization of the final
        // plan (the push decisions were taken, cost-compared, while
        // assembling consumers of fixpoints; see `plan_spj`). The walk
        // judges each move by cost alone; the plan it returns is verified
        // below.
        let (final_pt, walk_cost) = match &self.config.rand {
            Some(rc) => {
                self.sink.step(
                    Step::TransformPt,
                    "the entire query (PT)",
                    StrategyKind::CostBasedTransformational,
                );
                self.sink.note("randomized strategy: IterativeImprovement");
                let sp = self.sink.obs.begin("optimizer", "transformPT");
                let phase = "randomized IterativeImprovement";
                self.sink
                    .obs
                    .span_fields(sp, vec![("phase".into(), phase.into())]);
                let outcome = rand_optimize_with(
                    &self.model,
                    answer.pt.clone(),
                    rc,
                    &neighbours,
                    &mut self.sink,
                );
                self.sink.obs.end(sp);
                (outcome.pt, outcome.cost)
            }
            None => (answer.pt.clone(), None),
        };
        self.verify_stage(&final_pt, "transformPT (final plan)")?;

        // The walk costed the plan it returns; without a walk (or when
        // its start could not be costed) this is the one costing.
        let cost = match walk_cost {
            Some(cost) => cost,
            None => self.model.cost(&final_pt)?,
        };
        self.sink.trace.final_breakdown = cost.breakdown.clone();

        let out_cols = answer.out_cols.iter().map(|(n, _)| n.clone()).collect();
        Ok(Optimized {
            pt: final_pt,
            out_cols,
            cost,
            parallel: ParallelSpec,
            trace: std::mem::take(&mut self.sink.trace),
        })
    }

    /// Run the plan verifier on an intermediate PT (in debug builds):
    /// errors abort the optimization and are recorded in the trace.
    fn verify_stage(&mut self, pt: &Pt, stage: &str) -> Result<(), OptError> {
        if !cfg!(debug_assertions) {
            return Ok(());
        }
        let env = PtEnv::new(self.model.catalog, self.model.physical);
        let report = oorq_lint::verify_pt(&env, pt);
        oorq_lint::record_report(&self.sink.obs, stage, &report);
        if report.is_clean() {
            return Ok(());
        }
        let errors: String = report.errors().map(|d| format!("{d}\n")).collect();
        self.sink.step(
            Step::TransformPt,
            format!("verification after {stage}"),
            StrategyKind::Irrevocable,
        );
        for d in report.errors() {
            self.sink.note(format!("{d}"));
        }
        Err(OptError::Lint {
            stage: stage.into(),
            errors,
        })
    }

    /// Run the graph lint pass: errors abort. On the normalized graph it
    /// is the admission check, in every build; after `rewrite` it is a
    /// debug assertion, as `verify_stage` is for plans.
    fn verify_graph(&self, g: &QueryGraph, stage: &str) -> Result<(), OptError> {
        let report = oorq_lint::lint_graph(self.model.catalog, g);
        oorq_lint::record_report(&self.sink.obs, stage, &report);
        if report.is_clean() {
            return Ok(());
        }
        let errors: String = report.errors().map(|d| format!("{d}\n")).collect();
        Err(OptError::Lint {
            stage: stage.into(),
            errors,
        })
    }

    fn ready(
        &self,
        self_name: &NameRef,
        term: &GraphTerm,
        planned: &HashMap<NameRef, Planned>,
    ) -> bool {
        let catalog = self.model.catalog;
        term.consumed_names().iter().all(|n| {
            if *n == self_name {
                return true; // recursive occurrence, resolved as a temp
            }
            match n {
                NameRef::Class(_) => true,
                NameRef::Relation(r) => {
                    catalog.relation(*r).kind == ViewKind::Stored || planned.contains_key(n)
                }
                NameRef::Derived(_) => planned.contains_key(n),
            }
        })
    }

    fn plan_term(
        &mut self,
        g: &QueryGraph,
        term: &GraphTerm,
        planned: &HashMap<NameRef, Planned>,
    ) -> Result<Planned, OptError> {
        match term {
            GraphTerm::Spj(spj) => {
                let (pt, out_cols, _) = self.plan_spj(g, spj, None, planned, None)?;
                let open = None;
                Ok(Planned { pt, out_cols, open })
            }
            GraphTerm::Union(l, r) => {
                let lp = self.plan_term(g, l, planned)?;
                let rp = self.plan_term(g, r, planned)?;
                Ok(Planned {
                    pt: Pt::union(lp.pt, rp.pt),
                    out_cols: lp.out_cols,
                    open: None,
                })
            }
            GraphTerm::Fix(fname, body) => self.plan_fix(g, fname, body, planned),
        }
    }

    fn plan_fix(
        &mut self,
        g: &QueryGraph,
        fname: &NameRef,
        body: &GraphTerm,
        planned: &HashMap<NameRef, Planned>,
    ) -> Result<Planned, OptError> {
        let catalog = self.model.catalog;
        let GraphTerm::Union(l, r) = body else {
            // A fixpoint over a single SPJ (no base): not computable.
            return Err(OptError::Unplannable("Fix body must be a Union".into()));
        };
        let references = |t: &GraphTerm| {
            t.spjs()
                .iter()
                .any(|s| s.inputs.iter().any(|a| a.name == *fname))
        };
        let (base_term, rec_term) = if references(l) {
            (r.as_ref(), l.as_ref())
        } else {
            (l.as_ref(), r.as_ref())
        };
        let GraphTerm::Spj(base_spj) = base_term else {
            return Err(OptError::Unplannable("nested non-spj fix base".into()));
        };
        let GraphTerm::Spj(rec_spj) = rec_term else {
            return Err(OptError::Unplannable("nested non-spj fix recursion".into()));
        };

        // Plan the base, then model the fixpoint's per-iteration delta
        // curve. The temporary, named after the view/derived name, is
        // open while the recursive side is planned: it has what the
        // resolved base leg hands up — the shape `resolve` gives it inside
        // the fixpoint — and the curve's delta as its rows.
        let temp = format!("{}", fname.display(catalog));
        let (base_pt, _, _) = self.plan_spj(g, base_spj, None, planned, None)?;
        let base_cols = base_pt.output_columns(&PtEnv::new(catalog, self.model.physical))?;
        let base_rows = self.model.cost(&base_pt)?.rows;
        let curve = self.model.fix_delta_curve(&temp, base_rows);
        self.sink.fix_curve(&curve);
        let open = OpenTemp {
            name: temp.clone(),
            cols: base_cols.clone(),
            delta: curve.delta,
        };
        let outer = self.model.open_temp.replace(open.clone());
        let rec = self.plan_spj(g, rec_spj, Some(fname), planned, None);
        self.model.open_temp = outer;
        let (rec_pt, _, _) = rec?;

        Ok(Planned {
            pt: Pt::fix(temp, Pt::union(base_pt, rec_pt)),
            out_cols: base_cols,
            open: Some(open),
        })
    }

    /// Plan one predicate node. `self_fix` marks the name whose arcs are
    /// the recursive occurrence (bound to the model's open temporary).
    /// `pred_override` replaces the node's predicate (used by the push
    /// replanning).
    #[allow(clippy::type_complexity)]
    fn plan_spj(
        &mut self,
        g: &QueryGraph,
        spj: &SpjNode,
        self_fix: Option<&NameRef>,
        planned: &HashMap<NameRef, Planned>,
        pred_override: Option<(&Expr, &PluggedOverrides)>,
    ) -> Result<(Pt, Vec<(String, ResolvedType)>, f64), OptError> {
        let catalog = self.model.catalog;
        let physical = self.model.physical;
        // Effective predicate node: on a push replanning, the pushed
        // conjuncts are removed and tree-label branches that no longer
        // bind any used variable are pruned (their implicit joins moved
        // inside the fixpoint).
        let effective_spj = match pred_override {
            Some((pred, _)) => {
                let mut s = spj.clone();
                s.pred = pred.clone();
                let mut used: std::collections::BTreeSet<String> = s.pred.vars();
                for (_, e) in &s.out_proj {
                    used.extend(e.vars());
                }
                for arc in &mut s.inputs {
                    arc.label = prune_label(&arc.label, &used);
                }
                s
            }
            None => spj.clone(),
        };
        // Translate every arc.
        let mut chains: Vec<Vec<ArcChain>> = Vec::new();
        {
            let sp = self.sink.obs.begin("optimizer", "translate");
            self.sink
                .step(Step::Translate, "one arc", StrategyKind::CostBased);
            for (i, arc) in effective_spj.inputs.iter().enumerate() {
                let base = self.base_plan(arc, self_fix, planned, pred_override, i)?;
                let mut counter = self.fresh;
                let mut fresh = || {
                    counter += 1;
                    format!("_o{counter}")
                };
                let alts = translate_arc(
                    catalog,
                    physical,
                    arc,
                    base,
                    &mut fresh,
                    MAX_ARC_ALTERNATIVES,
                )?;
                self.fresh = counter;
                for a in &alts {
                    for op in &a.ops {
                        self.sink.generated(match op {
                            crate::translate::ChainOp::Ij { .. } => "IJ",
                            crate::translate::ChainOp::Pij { .. } => "PIJ",
                        });
                    }
                }
                chains.push(alts);
            }
            let arcs = effective_spj.inputs.len();
            self.sink
                .obs
                .span_fields(sp, vec![("arcs".into(), arcs.into())]);
            self.sink.obs.end(sp);
        }

        // generatePT for the predicate node.
        let (pt, out_cols, cost) = {
            let sp = self.sink.obs.begin("optimizer", "generatePT");
            self.sink.step(
                Step::GeneratePt,
                "one predicate node",
                StrategyKind::CostBasedGenerative,
            );
            let strategy = self.config.spj_strategy;
            let r = generate_pt(&self.model, &effective_spj, &chains, strategy, &self.sink);
            self.sink.obs.end(sp);
            let r = r?;
            self.sink.generated("Sel");
            if spj.inputs.len() > 1 {
                self.sink.generated("EJ");
            }
            r
        };
        // Typed output columns from the (normalized) projection.
        let out_types: Vec<(String, ResolvedType)> = match g.spj_out_type(catalog, spj) {
            Ok(ResolvedType::Tuple(fs)) => fs,
            _ => out_cols
                .iter()
                .map(|n| {
                    (
                        n.clone(),
                        ResolvedType::Atomic(oorq_schema::AtomicType::Int),
                    )
                })
                .collect(),
        };
        debug_assert_eq!(
            out_types.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            out_cols
        );

        // transformPT consideration: the node consumes a fixpoint —
        // decide the position of selective operations w.r.t. recursion.
        // Under the never-push (deductive) strategy the decision is made
        // without costing an alternative, but it is still a transformPT
        // decision and is recorded as such.
        let consumes_fix = pred_override.is_none()
            && spj.inputs.iter().any(|arc| {
                planned
                    .get(&arc.name)
                    .is_some_and(|p| matches!(p.pt, Pt::Fix { .. }))
            });
        if consumes_fix && self.config.push == PushStrategy::NeverPush {
            self.sink.step(
                Step::TransformPt,
                "the entire query (PT)",
                StrategyKind::Irrevocable,
            );
            self.sink
                .note("never-push strategy: selective operations stay outside the fixpoint");
        }
        if pred_override.is_none() && self.config.push != PushStrategy::NeverPush {
            let sp = self.sink.obs.begin("optimizer", "transformPT");
            self.sink
                .obs
                .span_fields(sp, vec![("phase".into(), "push-decision".into())]);
            let pushed = self.try_push(g, spj, self_fix, planned);
            let keep_pushed = match &pushed {
                Ok(Some((pushed_pt, _, pushed_cost))) => {
                    self.decide_push(pushed_pt, *pushed_cost, &pt, cost)
                }
                _ => false,
            };
            self.sink.obs.end(sp);
            if let Some(pushed) = pushed? {
                if keep_pushed {
                    // The push actions rewrote a complete plan; verify
                    // the result before committing to it.
                    self.verify_stage(&pushed.0, "transformPT (filter/push-join actions)")?;
                    return Ok(pushed);
                }
            }
        }
        Ok((pt, out_types, cost))
    }

    /// The push decision: keep the pushed plan or the unpushed one. The
    /// strategy decides — by the one cost comparison when it is
    /// cost-controlled — and both plans are announced with what became
    /// of them. Returns whether the pushed plan is kept.
    fn decide_push(&mut self, pushed: &Pt, pushed_cost: f64, unpushed: &Pt, cost: f64) -> bool {
        let always = self.config.push == PushStrategy::AlwaysPush;
        let keep_pushed = always || pushed_cost < cost;
        let candidate = Examined {
            action: Some("filter/push-join"),
            cost: Some(pushed_cost),
            incumbent: Some(unpushed),
            incumbent_cost: Some(cost),
            ..Examined::at("push-decision", pushed)
        };
        let (outcome, reason) = match (always, keep_pushed) {
            (true, _) => (
                Outcome::Accept,
                "always-push heuristic (no cost comparison)",
            ),
            (_, true) => (
                Outcome::Accept,
                "pushed plan cheaper than unpushed incumbent",
            ),
            (_, false) => (
                Outcome::Reject,
                "pushing selective operations into the fixpoint costs more \
                 than evaluating them outside",
            ),
        };
        self.sink.candidate(candidate, outcome, reason);
        if keep_pushed {
            // The displaced incumbent is itself a rejected candidate of
            // this decision.
            let displaced = Examined {
                action: Some("keep-unpushed"),
                cost: Some(cost),
                incumbent: Some(pushed),
                incumbent_cost: Some(pushed_cost),
                ..Examined::at("push-decision", unpushed)
            };
            let reason = "displaced by the pushed plan at lower cost";
            self.sink.candidate(displaced, Outcome::Reject, reason);
        }
        self.sink.metrics.push_decisions.inc();
        self.sink.step(
            Step::TransformPt,
            "the entire query (PT)",
            StrategyKind::CostBasedTransformational,
        );
        self.sink.note(format!(
            "filter/push-join candidate: pushed cost {pushed_cost:.1} vs \
             unpushed {cost:.1} -> {}",
            if keep_pushed { "pushed" } else { "unpushed" }
        ));
        keep_pushed
    }

    fn base_plan(
        &mut self,
        arc: &QArc,
        self_fix: Option<&NameRef>,
        planned: &HashMap<NameRef, Planned>,
        pred_override: Option<(&Expr, &PluggedOverrides)>,
        arc_index: usize,
    ) -> Result<BasePlan, OptError> {
        let catalog = self.model.catalog;
        // Plugged override (push replanning substitutes the pushed fix).
        if let Some((_, overrides)) = pred_override {
            if let Some((pt, cols)) = overrides.get(&arc_index) {
                return Ok(BasePlan::Plugged(pt.clone(), cols.clone()));
            }
        }
        if let Some(open) = self.model.open_temp.as_ref() {
            if self_fix == Some(&arc.name) {
                return Ok(BasePlan::Temp(open.name.clone(), open.cols.clone()));
            }
        }
        match &arc.name {
            NameRef::Class(c) => {
                let e = self.model.physical.class_entity(*c);
                let e = e.ok_or_else(|| OptError::NoEntity(catalog.class(*c).name.clone()))?;
                Ok(BasePlan::Class(e, *c))
            }
            NameRef::Relation(r) if catalog.relation(*r).kind == ViewKind::Stored => {
                let e = self.model.physical.relation_entity(*r);
                let e = e.ok_or_else(|| OptError::NoEntity(catalog.relation(*r).name.clone()))?;
                Ok(BasePlan::Relation(e, catalog.relation(*r).fields.clone()))
            }
            name => {
                let p = planned
                    .get(name)
                    .ok_or_else(|| OptError::Unplannable(format!("{}", name.display(catalog))))?;
                Ok(BasePlan::Plugged(p.pt.clone(), p.out_cols.clone()))
            }
        }
    }

    /// Build the pushed variant of a consumer of a fixpoint: pushable
    /// selection conjuncts move inside via the `filter` action, and a
    /// selective explicit join is pushed as a semi-join (§4.5). Returns
    /// `None` when nothing is pushable.
    #[allow(clippy::type_complexity)]
    fn try_push(
        &mut self,
        g: &QueryGraph,
        spj: &SpjNode,
        self_fix: Option<&NameRef>,
        planned: &HashMap<NameRef, Planned>,
    ) -> Result<Option<(Pt, Vec<(String, ResolvedType)>, f64)>, OptError> {
        // Find a fix-backed arc.
        let fix_arc = spj.inputs.iter().enumerate().find_map(|(i, arc)| {
            let p = planned.get(&arc.name)?;
            Some((i, p, p.open.clone()?))
        });
        let Some((arc_i, fix_planned, open)) = fix_arc else {
            return Ok(None);
        };
        let info = FixInfo {
            fields: fix_planned.out_cols.clone(),
            propagated: propagated_columns(&fix_planned.pt),
        };
        let arc = &spj.inputs[arc_i];
        if arc.var.is_none() {
            return Ok(None);
        }

        // Map the arc's label variables to their field paths.
        let var_paths = label_var_paths(&arc.label);

        // Translate each conjunct of the (normalized) predicate into an
        // expression over the fixpoint's output columns, when possible.
        let over_fix = |c: &Expr| -> Option<Expr> {
            let mut ok = true;
            let rewritten = c.map_leaves(&mut |leaf| match leaf {
                Expr::Var(v) => match var_paths.get(v) {
                    Some((field, steps)) if steps.is_empty() => Some(Expr::Var(field.clone())),
                    Some((field, steps)) => Some(Expr::Path {
                        base: field.clone(),
                        steps: steps.clone(),
                    }),
                    // The arc's own variable, or one of another arc:
                    // not a pure selection on the fixpoint's columns.
                    None => {
                        ok = false;
                        None
                    }
                },
                Expr::Path { .. } => {
                    ok = false;
                    None
                }
                _ => None,
            });
            ok.then_some(rewritten)
        };

        let mut pushed_sel: Vec<Expr> = Vec::new();
        let mut remaining: Vec<Expr> = Vec::new();
        for c in spj.pred.conjuncts() {
            match over_fix(c) {
                Some(fixed) if can_push(&fixed, &info) => pushed_sel.push(fixed),
                _ => remaining.push(c.clone()),
            }
        }

        // Join-push candidate: an equality conjunct between a propagated
        // fix column and another single arc (the §4.5 pattern), pushed as
        // a semi-join. Only attempted when the *other* side of the query
        // restricts that arc (e.g. `c.name = "Bach"`).
        let mut pushed_join: Option<(Expr, Pt)> = None;
        if spj.inputs.len() == 2 {
            let other_i = 1 - arc_i;
            let other_arc = &spj.inputs[other_i];
            if let Some(other_var) = other_arc.var.clone() {
                let other_paths = label_var_paths(&other_arc.label);
                let mut join_expr: Option<Expr> = None;
                let mut other_sels: Vec<Expr> = Vec::new();
                for c in &remaining {
                    let vars = c.vars();
                    let fix_side: Vec<&String> =
                        vars.iter().filter(|v| var_paths.contains_key(*v)).collect();
                    let other_side: Vec<&String> = vars
                        .iter()
                        .filter(|v| other_paths.contains_key(*v) || **v == other_var)
                        .collect();
                    if !fix_side.is_empty() && !other_side.is_empty() {
                        // Crossing conjunct: the join itself.
                        let fixed_ok = fix_side.iter().all(|v| {
                            var_paths
                                .get(*v)
                                .map(|(f, _)| info.propagated.contains(f))
                                .unwrap_or(false)
                        });
                        if fixed_ok && join_expr.is_none() {
                            join_expr = Some(c.clone());
                        }
                    } else if !other_side.is_empty() && fix_side.is_empty() {
                        other_sels.push(c.clone());
                    }
                }
                if let Some(je) = join_expr {
                    // Build the inner plan: the other arc with its own
                    // selections applied.
                    let inner = self.plan_single_arc(other_arc, planned, &other_sels)?;
                    // Rewrite the join conjunct: fix-side vars over fix
                    // columns; other-side vars via the inner's subst.
                    let rewritten = je.map_leaves(&mut |leaf| match leaf {
                        Expr::Var(v) => {
                            if let Some((f, steps)) = var_paths.get(v) {
                                Some(if steps.is_empty() {
                                    Expr::Var(f.clone())
                                } else {
                                    Expr::Path {
                                        base: f.clone(),
                                        steps: steps.clone(),
                                    }
                                })
                            } else {
                                inner.1.get(v).cloned()
                            }
                        }
                        _ => None,
                    });
                    pushed_join = Some((rewritten, inner.0));
                }
            }
        }

        if pushed_sel.is_empty() && pushed_join.is_none() {
            return Ok(None);
        }

        // Build the pushed fixpoint.
        let mut pushed_fix = fix_planned.pt.clone();
        if let Some((jpred, inner)) = &pushed_join {
            pushed_fix = push_join_action(&pushed_fix, &info, jpred, inner)?;
        }
        if !pushed_sel.is_empty() {
            let pred = Expr::conjoin(pushed_sel.clone());
            let outer = self.model.open_temp.replace(open);
            let filtered = filter_action(&self.model, &pushed_fix, &info, &pred);
            self.model.open_temp = outer;
            pushed_fix = filtered?;
        }

        // Replan the consumer with the pushed fix and the reduced
        // predicate.
        let reduced = Expr::conjoin(remaining);
        let mut overrides = HashMap::new();
        overrides.insert(arc_i, (pushed_fix, info.fields));
        let result = self.plan_spj(g, spj, self_fix, planned, Some((&reduced, &overrides)))?;
        Ok(Some(result))
    }

    /// Plan a single arc in isolation (used as the inner of a pushed
    /// semi-join), applying the given selections. Returns the plan and
    /// the variable substitution.
    fn plan_single_arc(
        &mut self,
        arc: &QArc,
        planned: &HashMap<NameRef, Planned>,
        sels: &[Expr],
    ) -> Result<(Pt, HashMap<String, Expr>), OptError> {
        let base = self.base_plan(arc, None, planned, None, usize::MAX)?;
        let mut counter = self.fresh;
        let mut fresh = || {
            counter += 1;
            format!("_o{counter}")
        };
        let alts = translate_arc(
            self.model.catalog,
            self.model.physical,
            arc,
            base,
            &mut fresh,
            MAX_ARC_ALTERNATIVES,
        )?;
        self.fresh = counter;
        let mut best: Option<(f64, Pt, HashMap<String, Expr>)> = None;
        for chain in &alts {
            let subst = chain.subst.clone();
            let rewritten: Vec<Expr> = sels.iter().map(|c| rewrite_expr(c, &subst)).collect();
            // The scan variant (always the first) only: probing an index
            // here would change the §4.5 plans (ROADMAP, PR 23).
            let pt = assemble_arc(&self.model, chain, &rewritten).swap_remove(0);
            if let Ok(pc) = self.model.cost(&pt) {
                let total = pc.total(&self.model.params);
                match &best {
                    Some((c, _, _)) if *c <= total => {}
                    _ => best = Some((total, pt, subst)),
                }
            }
        }
        best.map(|(_, pt, subst)| (pt, subst))
            .ok_or_else(|| OptError::Unplannable("semi-join inner".into()))
    }
}

/// Map each variable bound in a (row-rooted) tree label to its
/// `(field, attribute-steps)` path.
fn label_var_paths(label: &TreeLabel) -> HashMap<String, (String, Vec<String>)> {
    let mut out = HashMap::new();
    for child in &label.children {
        let Some(field) = &child.attr else { continue };
        if let Some(v) = &child.var {
            out.insert(v.clone(), (field.clone(), Vec::new()));
        }
        collect_deep(&child.tree, field, &mut Vec::new(), &mut out);
    }
    out
}

fn collect_deep(
    tree: &TreeLabel,
    field: &str,
    steps: &mut Vec<String>,
    out: &mut HashMap<String, (String, Vec<String>)>,
) {
    for child in &tree.children {
        let pushed = if let Some(a) = &child.attr {
            steps.push(a.clone());
            true
        } else {
            false
        };
        if let Some(v) = &child.var {
            out.insert(v.clone(), (field.to_string(), steps.clone()));
        }
        collect_deep(&child.tree, field, steps, out);
        if pushed {
            steps.pop();
        }
    }
}

/// Drop tree-label branches that bind no used variable (their implicit
/// joins have moved inside a pushed fixpoint).
fn prune_label(label: &TreeLabel, used: &std::collections::BTreeSet<String>) -> TreeLabel {
    TreeLabel {
        children: label
            .children
            .iter()
            .filter_map(|c| {
                let pruned = prune_label(&c.tree, used);
                let keep_var = c.var.as_ref().map(|v| used.contains(v)).unwrap_or(false);
                if keep_var || !pruned.children.is_empty() {
                    Some(oorq_query::TreeChild {
                        attr: c.attr.clone(),
                        var: c.var.clone(),
                        tree: pruned,
                    })
                } else {
                    None
                }
            })
            .collect(),
    }
}
