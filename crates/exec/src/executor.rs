//! The PT executor: lowers a verified plan to a physical-operator
//! pipeline ([`oorq_pt::phys`]) and streams it with honest page-I/O
//! accounting against the store's page account, which each run checks
//! out ([`Database::check_out`]) and parks again when it ends. A plan
//! already lowered (a served plan-cache hit) is streamed as it is
//! ([`Executor::answer`]).

use std::collections::HashMap;

use oorq_analysis::{AnalyzerConfig, ObservedFix, ObservedOp};
use oorq_index::IndexSet;
use oorq_pt::{PhysOp, PhysPlan, Pt, PtEnv, PtError};
use oorq_schema::ResolvedType;
use oorq_storage::{Database, EntityId, IoStats};

use crate::error::ExecError;
use crate::eval::{Batch, Counters};
use crate::methods::MethodRegistry;
use crate::pipeline::{self, FixDeltaCurve, FixTemps, OpReport};
use crate::rowset::KeyTable;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Safety bound on semi-naive iterations; [`AnalyzerConfig`]'s by default.
    pub max_fix_iterations: u32,
    /// Breaker memory budget: maximum resident pages of pipeline-breaker
    /// temporaries (fixpoint accumulator/delta, materialized nested-loop
    /// inners). `0` (the default) is unbounded; a positive budget spills
    /// the least recently used breaker page and re-fetches it on the
    /// next pass, so answers are identical but page I/O reflects the
    /// budget.
    pub memory_budget_pages: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_fix_iterations: AnalyzerConfig::default().max_fix_iterations as u32,
            memory_budget_pages: 0,
        }
    }
}

/// The durable part of an executor: the breaker temporaries it has
/// created in its database, and the buffers a run would otherwise
/// allocate anew.
///
/// An [`Executor`] borrows the database mutably, so a serving session
/// that holds a database across many queries cannot keep one executor
/// alive between them. Instead it carries this state: build each
/// per-query executor with [`Executor::with_state`], and take the state
/// back with [`Executor::into_state`] when the query completes. Temps
/// and the pool of materialization temporaries are then reused by
/// name/shape instead of growing the physical schema by a fresh set of
/// temporary entities per query.
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    /// Per fixpoint name: the accumulator and delta entities made for
    /// each record shape it has had.
    pub(crate) temps: pipeline::Temps,
    /// Always empty: a complete plan scopes its own temporaries. Kept
    /// for `benchmark/src/traced.rs` until a `benchmark` change drops it.
    pub temp_fields: HashMap<String, Vec<(String, ResolvedType)>>,
    /// Pool of page-store temporaries backing materialized nested-loop
    /// inners and replayed operands, keyed by row shape.
    pub mat_pool: HashMap<Vec<ResolvedType>, Vec<EntityId>>,
    /// Pool of the key tables nested loops find their held inners' rows
    /// in, emptied, their memory kept for the next run.
    key_tables: Vec<KeyTable>,
}

/// A report of the resources the executor's last run consumed, whether
/// it completed or failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Page I/O the run charged the store's page account (the account's
    /// counters after the run less those before it).
    pub io: IoStats,
    /// Pairs the run's predicates decided (Figure 5's `ev`s): every
    /// comparison made, and every pair a nested loop's held inner decided
    /// by looking its key up, counted as the comparison it replaces.
    pub evals: u64,
    /// Method invocations the run performed.
    pub method_calls: u64,
    /// Per-operator observed counters of the last run (empty if it
    /// failed or was [`Executor::answer`]ed).
    pub ops: Vec<OpReport>,
    /// Per-fixpoint delta curves of the last run, if it completed through
    /// [`Executor::run`]: one entry
    /// per fixpoint *opening* (keyed by pipeline operator id and PT
    /// node), each holding its delta sizes in iteration order (the seed
    /// delta first, then one entry per semi-naive iteration; the final
    /// entry is 0 when the fixpoint converged).
    pub fix_deltas: Vec<FixDeltaCurve>,
}

impl ExecReport {
    /// Weighted total comparable with the cost model's units: pages at
    /// `pr`, and both comparisons and method invocations at `ev` (the
    /// cost model prices method calls as CPU work too).
    pub fn total(&self, pr: f64, ev: f64) -> f64 {
        (self.io.page_reads + self.io.index_reads + self.io.page_writes) as f64 * pr
            + (self.evals + self.method_calls) as f64 * ev
    }

    /// The run as [`oorq_analysis::check_observed`] consumes it: every
    /// operator's exclusive counters and every fixpoint opening's
    /// semi-naive pass count, keyed by pre-order PT node.
    pub fn observed(&self) -> (Vec<ObservedOp>, Vec<ObservedFix>) {
        let ops = self
            .ops
            .iter()
            .map(|o| ObservedOp {
                pt_node: o.pt_node,
                label: o.label.clone(),
                rows_out: o.rows_out,
                page_reads: o.page_reads,
                page_hits: o.page_hits,
                index_reads: o.index_reads,
                page_writes: o.page_writes,
            })
            .collect();
        let fixes = self
            .fix_deltas
            .iter()
            .map(|c| ObservedFix {
                pt_node: c.pt_node,
                iterations: (c.deltas.len() as u64).saturating_sub(1),
            })
            .collect();
        (ops, fixes)
    }
}

/// The PT executor.
pub struct Executor<'a> {
    db: &'a mut Database,
    indexes: &'a IndexSet,
    methods: &'a MethodRegistry,
    /// Evaluations and method calls of the last run.
    counters: Counters,
    /// Page I/O of the last run.
    last_io: IoStats,
    config: ExecConfig,
    /// What outlives a run: fixpoint temporaries, their shapes, and the
    /// pool of materialized-inner temporaries (reused across runs; a run
    /// assigns distinct pool entries to distinct operators).
    state: ExecState,
    /// This run's assignment: materializing `NlJoin` or replayed operand
    /// (by operator id) → its backing temporary.
    mats: HashMap<usize, EntityId>,
    /// Per-operator reports of the last run (empty if it failed or was
    /// answered).
    last_ops: Vec<OpReport>,
    /// Per-fixpoint delta curves of the last run.
    last_fix_deltas: Vec<FixDeltaCurve>,
    /// Trace recorder (disabled by default).
    obs: oorq_obs::Recorder,
    /// Aggregated metric series (disabled by default; every run then
    /// costs one branch at publish time).
    metrics: oorq_obs::MetricsRegistry,
    /// The lowered physical plan of the last run, if it completed (joined
    /// with `last_ops` by EXPLAIN ANALYZE renderers).
    last_plan: Option<PhysPlan>,
}

impl<'a> Executor<'a> {
    /// New executor over a store, built indexes and method registry.
    pub fn new(db: &'a mut Database, indexes: &'a IndexSet, methods: &'a MethodRegistry) -> Self {
        Executor {
            db,
            indexes,
            methods,
            counters: Counters::default(),
            last_io: IoStats::default(),
            config: ExecConfig::default(),
            state: ExecState::default(),
            mats: HashMap::new(),
            last_ops: Vec::new(),
            last_fix_deltas: Vec::new(),
            obs: oorq_obs::Recorder::disabled(),
            metrics: oorq_obs::MetricsRegistry::disabled(),
            last_plan: None,
        }
    }

    /// Override the configuration.
    pub fn with_config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// Adopt the durable state of a previous executor over the *same*
    /// database (see [`ExecState`]): temporaries it created are reused
    /// rather than recreated.
    pub fn with_state(mut self, state: ExecState) -> Self {
        self.state = state;
        self
    }

    /// Surrender the durable state for the next executor over this
    /// database.
    pub fn into_state(self) -> ExecState {
        self.state
    }

    /// Kept for `benchmark/src/traced.rs` until a `benchmark` PR drops
    /// it: the executor is serial, so there is no placement to apply.
    pub fn with_parallel(self, _: oorq_pt::ParallelSpec) -> Self {
        self
    }

    /// Attach a trace recorder: the executor records one span per run
    /// and one synthesized span per physical operator, the pipeline
    /// fires per-fixpoint-iteration events, and the store's page account
    /// reports page hits/misses/evictions to the same trace.
    pub fn with_recorder(mut self, obs: oorq_obs::Recorder) -> Self {
        self.db.set_recorder(obs.clone());
        self.obs = obs;
        self
    }

    /// Attach a metrics registry: every completed run publishes its
    /// per-query wall/rows/evals, per-operator-kind and fixpoint series
    /// (`exec.*`) from its operator reports, and every
    /// run, completed or not, brings the `storage.*` counters up to the
    /// page account's when it checks the account back in.
    pub fn with_metrics(mut self, metrics: oorq_obs::MetricsRegistry) -> Self {
        self.db.set_metrics(&metrics);
        self.metrics = metrics;
        self
    }

    /// The lowered physical plan of the last run, if it completed through
    /// [`Executor::run`].
    pub fn last_plan(&self) -> Option<&PhysPlan> {
        self.last_plan.as_ref()
    }

    /// Drop what describes the last run: `report()` and `last_plan()`
    /// must never pair one run's operators and plan with another's totals.
    fn forget_last_run(&mut self) {
        self.last_ops.clear();
        self.last_fix_deltas.clear();
        self.last_plan = None;
    }

    /// The resources the last run consumed (its per-operator counters
    /// and delta curves are empty if it failed or was
    /// [`Executor::answer`]ed).
    pub fn report(&self) -> ExecReport {
        ExecReport {
            io: self.last_io,
            evals: self.counters.evals.get(),
            method_calls: self.counters.method_calls.get(),
            ops: self.last_ops.clone(),
            fix_deltas: self.last_fix_deltas.clone(),
        }
    }

    /// Execute a plan and return its (deduplicated) answer.
    ///
    /// The plan is lowered to a physical-operator pipeline
    /// ([`Executor::prepare`]) and streamed. Every operator is profiled:
    /// `report()` then holds the run's per-operator counters and wall
    /// time and its delta curves, and `last_plan()` its lowering. Debug
    /// builds check the observed counters against the static bounds.
    pub fn run(&mut self, pt: &Pt) -> Result<Batch, ExecError> {
        self.timed(|ex| {
            ex.forget_last_run();
            let plan = ex.prepare(pt)?;
            let rows = ex.execute(&plan, true)?;
            ex.last_plan = Some(plan);
            #[cfg(debug_assertions)]
            ex.assert_bounds(pt);
            Ok(rows)
        })
    }

    /// Execute a lowered plan for its answer alone: [`Executor::run`]
    /// without the lowering and the per-operator profile, which nobody
    /// reads — unless this executor has an enabled recorder or metrics
    /// registry, whose operator spans and `exec.op.*` series it then
    /// feeds as `run` does. The answer, page I/O, `evals` and method
    /// calls are `run`'s; afterwards the last-run parts of `report()` and
    /// `last_plan()` are empty, as after a failed run. The plan is not
    /// verified again: [`Executor::prepare`] (or the `run` whose
    /// `last_plan()` it is) did that when it was lowered.
    pub fn answer(&mut self, plan: &PhysPlan) -> Result<Batch, ExecError> {
        let profile = self.obs.enabled() || self.metrics.enabled();
        let res = self.timed(|ex| {
            ex.forget_last_run();
            ex.execute(plan, profile)
        });
        self.forget_last_run();
        res
    }

    /// Lower a plan for [`Executor::answer`]. In debug builds both the
    /// plan and its lowering are first checked against the static
    /// verifier: an ill-formed plan is rejected with
    /// [`ExecError::PlanLint`] before it can touch the store.
    pub fn prepare(&self, pt: &Pt) -> Result<PhysPlan, ExecError> {
        #[cfg(debug_assertions)]
        self.verify(pt)?;
        self.lower(pt)
    }

    /// One run, spanned, timed and accounted: `report()`'s totals are
    /// what `run` did to the counters and the page account.
    fn timed(
        &mut self,
        run: impl FnOnce(&mut Self) -> Result<Batch, ExecError>,
    ) -> Result<Batch, ExecError> {
        let span = self.obs.begin("exec", "run");
        let wall0 = std::time::Instant::now();
        self.counters = Counters::default();
        let io0 = self.db.io_stats();
        let res = run(self);
        self.last_io = self.db.io_stats() - io0;
        if let Ok(batch) = &res {
            self.obs
                .span_fields(span, vec![("rows".into(), batch.rows.len().into())]);
            self.publish_metrics(
                wall0.elapsed().as_nanos() as u64,
                batch.rows.len() as u64,
                self.counters.evals.get(),
            );
        }
        self.obs.end(span);
        res
    }

    /// Publish one completed run into the metrics registry: the
    /// per-query series, one histogram pair per operator *kind*
    /// (aggregating e.g. every entity scan in the plan), and the fixpoint
    /// convergence series.
    fn publish_metrics(&self, wall_ns: u64, rows: u64, evals: u64) {
        if !self.metrics.enabled() {
            return;
        }
        self.metrics.counter("exec.queries").inc();
        self.metrics.histogram("exec.query.wall_ns").record(wall_ns);
        self.metrics.histogram("exec.query.rows").record(rows);
        self.metrics.histogram("exec.query.evals").record(evals);
        for op in &self.last_ops {
            let kind = op_kind(&op.label);
            self.metrics
                .histogram(&format!("exec.op.{kind}.wall_ns"))
                .record(op.wall_ns);
            self.metrics
                .histogram(&format!("exec.op.{kind}.rows"))
                .record(op.rows_out);
        }
        for curve in &self.last_fix_deltas {
            self.metrics
                .histogram("exec.fix.iterations")
                .record((curve.deltas.len() as u64).saturating_sub(1));
            self.metrics
                .histogram("exec.fix.delta_mass")
                .record(curve.deltas.iter().sum());
        }
    }

    /// Stream a lowered plan over this executor's store; keeps the
    /// operator reports and delta curves as the last run's.
    fn execute(&mut self, plan: &PhysPlan, profile: bool) -> Result<Batch, ExecError> {
        self.prepare_temps(plan);
        self.db
            .set_temp_budget(self.config.memory_budget_pages as usize);
        // The run owns the store's page account until `io` is dropped, which
        // parks it again: on `Ok`, on `Err`, and when the pipeline unwinds.
        let io = self.db.check_out();
        let mut tables = std::mem::take(&mut self.state.key_tables);
        let out = pipeline::execute(plan, self.shared(profile), &io, &self.counters, &mut tables);
        self.state.key_tables = tables;
        drop(io);
        let (rows, ops, fix_deltas) = out?;
        // A projection hands up no row twice; any other root may.
        let deduplicated = matches!(plan.root, PhysOp::Project { .. });
        let mut rows = Batch {
            cols: plan.root.cols().to_vec(),
            rows,
        };
        self.last_ops = ops;
        self.last_fix_deltas = fix_deltas;
        if !deduplicated {
            rows.dedup();
        }
        Ok(rows)
    }

    /// What this executor lends one run of a plan its temporaries were
    /// prepared for.
    fn shared(&self, profile: bool) -> pipeline::Shared<'_> {
        pipeline::Shared {
            db: self.db,
            indexes: self.indexes,
            methods: self.methods,
            temps: &self.state.temps,
            mats: &self.mats,
            max_fix_iterations: self.config.max_fix_iterations,
            obs: &self.obs,
            profile,
        }
    }

    /// The chunks the root of `plan` hands up in one unprofiled run, each
    /// as whether it is a page lent by the store, and its rows.
    #[cfg(test)]
    pub(crate) fn root_chunks(&mut self, plan: &PhysPlan) -> pipeline::RootChunks {
        self.prepare_temps(plan);
        self.db
            .set_temp_budget(self.config.memory_budget_pages as usize);
        let io = self.db.check_out();
        pipeline::root_chunks(plan, self.shared(false), &io, &self.counters)
    }

    /// Debug-build soundness assertion: after every run, each observed
    /// per-operator counter must lie inside the static analyzer's
    /// interval (`AB001`–`AB003`). A violation is an analyzer bug or an
    /// analysis/lowering divergence, never acceptable noise.
    #[cfg(debug_assertions)]
    fn assert_bounds(&self, pt: &Pt) {
        let stats = oorq_storage::DbStats::collect(self.db);
        let analyzer = oorq_analysis::Analyzer {
            config: AnalyzerConfig {
                max_fix_iterations: self.config.max_fix_iterations as u64,
            },
            ..oorq_analysis::Analyzer::new(self.db.catalog(), self.db.physical(), &stats)
        };
        // A plan the analyzer cannot type was already vetted by the
        // verifier; bounds are simply unavailable for it.
        let Ok(analysis) = analyzer.analyze(pt) else {
            return;
        };
        let (ops, fixes) = self.report().observed();
        let report = oorq_analysis::check_observed(&analysis, &ops, &fixes);
        debug_assert!(
            report.is_clean(),
            "static bounds violated:\n{}",
            report.render()
        );
    }

    /// Lower the PT to a physical plan; in debug builds, verify the
    /// lowering with the physical-plan lint pass.
    fn lower(&self, pt: &Pt) -> Result<PhysPlan, ExecError> {
        let env = PtEnv::new(self.db.catalog(), self.db.physical());
        let plan = oorq_pt::lower(&env, pt).map_err(lower_err)?;
        #[cfg(debug_assertions)]
        {
            let report = oorq_lint::verify_phys(&env, &plan);
            if !report.is_clean() {
                let rendered: String = report.errors().map(|d| format!("{d}\n")).collect();
                return Err(ExecError::PlanLint(rendered));
            }
        }
        Ok(plan)
    }

    /// Run the plan verifier at the executor boundary.
    #[cfg(debug_assertions)]
    fn verify(&self, pt: &Pt) -> Result<(), ExecError> {
        let env = PtEnv::new(self.db.catalog(), self.db.physical());
        let report = oorq_lint::verify_pt(&env, pt);
        if report.is_clean() {
            return Ok(());
        }
        let rendered: String = report.errors().map(|d| format!("{d}\n")).collect();
        Err(ExecError::PlanLint(rendered))
    }

    /// Create (or reuse) the accumulator/delta temporaries of every
    /// fixpoint in the plan; assign every materializing nested loop and
    /// replayed operand a page-store temporary. Creation needs `&mut Database`;
    /// the streaming pipeline itself runs over `&Database`.
    fn prepare_temps(&mut self, plan: &PhysPlan) {
        let mut fixes: Vec<(&String, &Vec<(String, ResolvedType)>)> = Vec::new();
        let mut mats: Vec<(usize, &Vec<ResolvedType>)> = Vec::new();
        plan.root.visit(&mut |op| {
            match op {
                PhysOp::FixPoint { temp, fields, .. } => fixes.push((temp, fields)),
                PhysOp::NlJoin {
                    meta,
                    rescan_inner: false,
                    mat_types,
                    ..
                } => mats.push((meta.id, mat_types)),
                _ => {}
            }
            if let Some(types) = &op.meta().replay {
                mats.push((op.meta().id, types));
            }
        });
        for (temp, fields) in fixes {
            // A record's width sets a page's capacity: reuse only the
            // temporaries made for this shape, and put them first.
            let fits = |made: &FixTemps| fields.iter().map(|(_, t)| t).eq(&made.types);
            if let Some(made) = self.state.temps.get_mut(temp) {
                if let Some(at) = made.iter().position(fits) {
                    made.swap(0, at);
                    continue;
                }
            }
            let types: Vec<ResolvedType> = fields.iter().map(|(_, t)| t.clone()).collect();
            let acc = self.db.create_temp(temp.clone(), types.clone());
            let delta = self.db.create_temp(format!("{temp}#delta"), types.clone());
            let made = self.state.temps.entry(temp.clone()).or_default();
            made.insert(0, FixTemps { types, acc, delta });
        }
        // Draw each from the per-shape pool (growing it as needed), so two
        // operators of one plan never share a temporary.
        self.mats.clear();
        let mut used: HashMap<&Vec<ResolvedType>, usize> = HashMap::new();
        for (op_id, types) in mats {
            let n = used.entry(types).or_insert(0);
            if !self.state.mat_pool.contains_key(types) {
                self.state.mat_pool.insert(types.clone(), Vec::new());
            }
            let pool = self.state.mat_pool.get_mut(types).expect("inserted");
            if *n == pool.len() {
                let name = format!("#mat{}", pool.len());
                pool.push(self.db.create_temp(name, types.clone()));
            }
            self.mats.insert(op_id, pool[*n]);
            *n += 1;
        }
    }
}

/// Operator *kind* of a physical-operator label: its leading
/// alphanumeric run (`scan Composer` → `scan`, `Sel^idx[…]` → `Sel`,
/// `Fix(Influencer)` → `Fix`) — the grouping key of the
/// `exec.op.<kind>.*` metric series.
pub fn op_kind(label: &str) -> &str {
    let end = label
        .find(|c: char| !c.is_ascii_alphanumeric())
        .unwrap_or(label.len());
    &label[..end]
}

/// Map lowering failures onto the executor's error vocabulary (the
/// errors the tree-walking interpreter raised at runtime for the same
/// plans).
fn lower_err(e: PtError) -> ExecError {
    match e {
        PtError::FixBodyNotUnion => ExecError::BadFixpoint("Fix body must be a Union".into()),
        PtError::FixNotRecursive(t) => {
            ExecError::BadFixpoint(format!("neither union side references `{t}`"))
        }
        PtError::UnknownTemp(n) => ExecError::BadFixpoint(format!("temp `{n}` not built")),
        PtError::TempAsEntity(n) => {
            ExecError::BadFixpoint(format!("temporary `{n}` used as entity"))
        }
        PtError::UnionShapeMismatch => ExecError::UnionMismatch,
        PtError::NotAPathIndex => ExecError::MissingIndex,
        other => ExecError::BadPlan(other.to_string()),
    }
}
