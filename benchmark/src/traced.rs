//! The traced and counted pass: the benchmark's own copy of the served
//! request path, one call per layer, with a span around each call.
//!
//! `Session::execute_text` is opaque from outside, so the pass replays a
//! fixed request sequence through the same public functions the session
//! calls, in the same order — `parse_query`, `canonical_text` /
//! `query_key`, `PlanCache::get`, `Optimizer::optimize`,
//! `PlanCache::insert`, `Executor::run` / `report`, `lint_drift` — on a
//! private snapshot with a private plan cache. The caller checks that
//! every text gets the plan fingerprint and the answer the server gave
//! it, so the traced path is the served path. Counts taken here are
//! exact and repeat for a seed; times feed the per-layer metrics only.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use oorq::analysis::{check_observed, Analyzer, AnalyzerConfig, ObservedFix};
use oorq::cost::{CostModel, CostParams, NodeCost, OpKind};
use oorq::exec::{op_kind, ExecReport, ExecState, Executor, MethodRegistry};
use oorq::lint::{lint_drift, verify_phys, verify_pt, DriftTolerance, LintCode, ObservedOp};
use oorq::obs::{FieldValue, MetricsRegistry, Recorder, SpanId, Trace};
use oorq::optimizer::{Optimizer, OptimizerConfig};
use oorq::pt::{lower_with, node_ids, Pt, PtEnv};
use oorq::query::parse_query;
use oorq::serve::{canonical_text, query_key, CachedPlan, PlanCache, ServerConfig};
use oorq::storage::{Database, DbStats};

use crate::check::{render, Digest};
use crate::inputs::{Built, Inputs};
use crate::stats::median;

/// The layers request time is attributed to (the span categories).
pub const LAYERS: [&str; 5] = ["query", "serve", "optimizer", "pt", "exec"];

/// What one traced request measured, keyed by per-layer metric name.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// After the prelude that fills the plan cache: counts and shares
    /// are taken over these requests only.
    pub steady: bool,
    pub miss: bool,
    /// Durations in ns.
    pub ns: BTreeMap<String, u64>,
    /// Counts.
    pub count: BTreeMap<String, f64>,
}

/// Where one request's traced time went (derived from the spans).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanProfile {
    pub wall_ns: u64,
    /// Self time per layer, in [`LAYERS`] order. The root span's own
    /// self time is in `root_self_ns`, not here.
    pub layer_self_ns: [u64; 5],
    /// Time of the request no child span covers.
    pub root_self_ns: u64,
    /// Summed duration of the request's spans, by `category.name`.
    pub spans: BTreeMap<String, u64>,
    /// Optimizer `candidate` events that carry a cost.
    pub costed_candidates: u64,
}

/// The request path, one layer call at a time.
pub struct Tracer<'a> {
    inputs: &'a Inputs,
    data: &'a Built,
    rec: Recorder,
    db: Database,
    methods: MethodRegistry,
    stats: DbStats,
    params: CostParams,
    optimizer_config: OptimizerConfig,
    drift: DriftTolerance,
    cache: PlanCache,
    state: ExecState,
    /// `storage.*` counters of `db`'s buffer manager.
    storage: MetricsRegistry,
    /// `optimizer.*` counters.
    optimizer: MetricsRegistry,
    bytes: Vec<u8>,
    pub profiles: Vec<Profile>,
    /// `DbStats::collect` and `Database::snapshot` durations.
    pub stats_collect_ns: u64,
    pub snapshot_ns: u64,
}

fn counters(registry: &MetricsRegistry) -> BTreeMap<String, u64> {
    registry.snapshot().counters
}

impl<'a> Tracer<'a> {
    /// A tracer over a private snapshot of `data`.
    pub fn new(inputs: &'a Inputs, data: &'a Built, rec: Recorder) -> Tracer<'a> {
        let config = ServerConfig::default();
        let t0 = Instant::now();
        let stats = DbStats::collect(&data.db);
        let stats_collect_ns = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let db = data.db.snapshot();
        let snapshot_ns = t0.elapsed().as_nanos() as u64;
        let storage = MetricsRegistry::new();
        db.set_metrics(&storage);
        Tracer {
            inputs,
            data,
            rec,
            db,
            methods: MethodRegistry::new(),
            stats,
            params: config.cost_params,
            optimizer_config: config.optimizer,
            drift: config.drift,
            cache: PlanCache::new(config.plan_cache_capacity),
            state: ExecState::default(),
            storage,
            optimizer: MetricsRegistry::new(),
            bytes: Vec::new(),
            profiles: Vec::new(),
            stats_collect_ns,
            snapshot_ns,
        }
    }

    fn env(&self) -> PtEnv<'_> {
        PtEnv {
            catalog: self.db.catalog(),
            physical: self.db.physical(),
            temp_fields: self.state.temp_fields.clone(),
        }
    }

    /// Serve one text; returns its answer digest and plan fingerprint.
    pub fn request(&mut self, text: &str, steady: bool) -> Result<(Digest, u64), String> {
        let id = self.profiles.len();
        let rec = self.rec.clone();
        let begin = |cat: &str, name: &str| {
            let span = rec.begin(cat, name);
            rec.span_fields(span, vec![("request".into(), id.into())]);
            span
        };
        let mut p = Profile {
            steady,
            ..Profile::default()
        };
        p.count.insert("query.text_bytes".into(), text.len() as f64);

        let root = begin("serve", "request");
        let span = begin("query", "parse");
        let graph = parse_query(self.db.catalog(), text);
        rec.end(span);
        let graph = graph.map_err(|e| format!("traced parse: {e}"))?;
        let span = begin("query", "canonicalize");
        let canonical = canonical_text(&graph);
        let key = query_key(&canonical);
        rec.end(span);
        let span = begin("serve", "cache.lookup");
        let hit = self.cache.get(key, &canonical);
        rec.end(span);

        let mut predicted = None;
        let plan = match hit {
            Some(plan) => plan,
            None => {
                p.miss = true;
                let before = counters(&self.optimizer);
                let model = CostModel::new(
                    self.db.catalog(),
                    self.db.physical(),
                    &self.stats,
                    self.params.clone(),
                );
                // The optimizer opens its own `optimize` span and one per
                // §4 step into the recorder it is handed.
                let optimized = Optimizer::new(model, self.optimizer_config.clone())
                    .with_recorder(rec.clone())
                    .with_metrics(&self.optimizer)
                    .optimize(&graph)
                    .map_err(|e| format!("traced optimize: {e}"))?;
                let plan_fingerprint = optimized.pt.fingerprint();
                predicted = Some(optimized.cost.total(&self.params));
                let plan = Arc::new(CachedPlan {
                    pt: optimized.pt,
                    out_cols: optimized.out_cols,
                    parallel: optimized.parallel,
                    breakdown: optimized.trace.final_breakdown,
                    plan_fingerprint,
                });
                let span = begin("serve", "cache.insert");
                self.cache.insert(key, canonical.clone(), Arc::clone(&plan));
                rec.end(span);
                let after = counters(&self.optimizer);
                for (name, v) in &after {
                    if name.starts_with("optimizer.candidates.")
                        || name == "optimizer.push_decisions"
                    {
                        let delta = v - before.get(name).copied().unwrap_or(0);
                        p.count.insert(name.clone(), delta as f64);
                    }
                }
                p.count
                    .insert("optimizer.plan_nodes".into(), plan.pt.size() as f64);
                plan
            }
        };

        let state = std::mem::take(&mut self.state);
        let run = begin("exec", "run");
        // Read inside the span, so its synthesized children fit in it.
        let run_start = rec.now_ns();
        let mut ex = Executor::new(&mut self.db, &self.data.indexes, &self.methods)
            .with_config(self.inputs.exec.clone())
            .with_parallel(plan.parallel.clone())
            .with_state(state);
        let result = ex.run(&plan.pt);
        let run_end = rec.now_ns();
        rec.end(run);
        let span = begin("exec", "report");
        let report = ex.report();
        self.state = ex.into_state();
        rec.end(span);
        let batch = result.map_err(|e| format!("traced execute: {e}"))?;

        if p.miss {
            let span = begin("serve", "drift_check");
            let drifted = drifted(&plan, &report, self.drift);
            rec.end(span);
            if drifted {
                // As the server does: evict, recalibrate, re-optimize on
                // the next request.
                self.cache.invalidate(key);
                self.stats = DbStats::collect(&self.data.db);
            }
        }
        let span = begin("exec", "render");
        render(&batch, &mut self.bytes);
        rec.end(span);
        rec.end(root);
        let digest = Digest::of_bytes(&self.bytes);

        // Probes: the same layer calls once more, outside the request, for
        // the layers the executor and optimizer call internally.
        let t0 = Instant::now();
        let env = self.env();
        let lowered = lower_with(&env, &plan.pt, &plan.parallel);
        let lower_ns = t0.elapsed().as_nanos() as u64;
        let lowered = lowered.map_err(|e| format!("traced lower: {e}"))?;
        p.ns.insert("pt.lower_ns".into(), lower_ns);
        p.count.insert("pt.phys_ops".into(), lowered.ops as f64);
        if p.miss {
            let t0 = Instant::now();
            std::hint::black_box(plan.pt.fingerprint());
            p.ns.insert("pt.fingerprint_ns".into(), t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            let verified = verify_pt(&env, &plan.pt);
            p.ns.insert("lint.verify_plan_ns".into(), t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            let verified_phys = verify_phys(&env, &lowered);
            p.ns.insert("lint.verify_phys_ns".into(), t0.elapsed().as_nanos() as u64);
            if !verified.is_clean() || !verified_phys.is_clean() {
                return Err(format!("plan of `{text}` fails the static verifier"));
            }
            let mut model = CostModel::new(
                self.db.catalog(),
                self.db.physical(),
                &self.stats,
                self.params.clone(),
            );
            for (temp, fields) in &self.state.temp_fields {
                model = model.with_temp(temp.clone(), fields.clone());
            }
            let t0 = Instant::now();
            let cost = model.cost(&plan.pt);
            p.ns.insert("cost.plan_cost_ns".into(), t0.elapsed().as_nanos() as u64);
            cost.map_err(|e| format!("traced cost: {e}"))?;
            let observed = report.total(self.params.pr, self.params.ev);
            if let (Some(predicted), true) = (predicted, observed > 0.0) {
                p.count
                    .insert("cost.predicted_over_observed".into(), predicted / observed);
            }
            let (bounds_ns, violations) = self.bounds(&plan.pt, &report)?;
            p.ns.insert("analysis.bounds_ns".into(), bounds_ns);
            p.count
                .insert("analysis.bound_violations".into(), violations as f64);
        }

        // Children of the `run` span, synthesized from what the executor
        // reports: its (replayed) lowering, then each operator's exclusive
        // wall time, laid end to end and clamped to the run.
        let mut at = run_start;
        let mut child = |cat: &str, name: &str, track: String, ns: u64, rows: Option<u64>| {
            let end = (at + ns).min(run_end);
            let mut fields = vec![
                ("track".to_string(), FieldValue::Str(track)),
                ("request".to_string(), id.into()),
            ];
            if let Some(rows) = rows {
                fields.push(("rows".to_string(), rows.into()));
            }
            rec.add_span(cat, name, run, at, end, fields);
            at = end;
        };
        child("pt", "lower", "pt.lower".into(), lower_ns, None);
        let mut rows_in = 0;
        for op in &report.ops {
            let kind = op_kind(&op.label);
            child(
                "exec",
                kind,
                format!("exec.op.{kind}"),
                op.wall_ns,
                Some(op.rows_out),
            );
            *p.ns.entry(format!("exec.op.{kind}.wall_ns")).or_default() += op.wall_ns;
            *p.count.entry(format!("exec.op.{kind}.rows")).or_default() += op.rows_out as f64;
            rows_in += op.rows_in;
        }
        let rows = batch.rows.len() as f64;
        p.count.insert("exec.query.rows".into(), rows);
        p.count
            .insert("exec.query.evals".into(), report.evals as f64);
        p.count.insert(
            "exec.rows_examined_per_result".into(),
            rows_in as f64 / rows.max(1.0),
        );
        if !report.fix_deltas.is_empty() {
            let iterations: u64 = report
                .fix_deltas
                .iter()
                .map(|c| (c.deltas.len() as u64).saturating_sub(1))
                .sum();
            let mass: u64 = report.fix_deltas.iter().flat_map(|c| &c.deltas).sum();
            p.count
                .insert("exec.fix.iterations".into(), iterations as f64);
            p.count.insert("exec.fix.delta_mass".into(), mass as f64);
        }
        p.count
            .insert("query.canonical_bytes".into(), canonical.len() as f64);
        self.profiles.push(p);
        Ok((digest, plan.plan_fingerprint))
    }

    /// Time the static analyzer on a plan and count the observed counters
    /// that escape its bounds (AB001–AB003; expected none).
    fn bounds(&self, pt: &Pt, report: &ExecReport) -> Result<(u64, usize), String> {
        let analyzer = Analyzer {
            catalog: self.db.catalog(),
            physical: self.db.physical(),
            stats: &self.stats,
            params: self.params.clone(),
            config: AnalyzerConfig {
                max_fix_iterations: u64::from(self.inputs.exec.max_fix_iterations),
            },
        };
        let t0 = Instant::now();
        let analysis = analyzer.analyze_with_temps(pt, self.state.temp_fields.clone());
        let ns = t0.elapsed().as_nanos() as u64;
        let analysis = analysis.map_err(|e| format!("traced analysis: {e}"))?;
        let ops: Vec<oorq::analysis::ObservedOp> = report
            .ops
            .iter()
            .filter(|o| !matches!(op_kind(&o.label), "Exchange" | "Merge"))
            .map(|o| oorq::analysis::ObservedOp {
                pt_node: o.pt_node,
                label: o.label.clone(),
                rows_out: o.rows_out,
                page_reads: o.page_reads,
                page_hits: o.page_hits,
                index_reads: o.index_reads,
                page_writes: o.page_writes,
            })
            .collect();
        let fixes: Vec<ObservedFix> = report
            .fix_deltas
            .iter()
            .map(|c| ObservedFix {
                pt_node: c.pt_node,
                iterations: (c.deltas.len() as u64).saturating_sub(1),
            })
            .collect();
        let escaped = check_observed(&analysis, &ops, &fixes)
            .diagnostics
            .iter()
            .filter(|d| {
                matches!(
                    d.code,
                    LintCode::BoundRowsViolated
                        | LintCode::BoundPagesViolated
                        | LintCode::BoundPassesViolated
                )
            })
            .count();
        Ok((ns, escaped))
    }

    /// The `storage.*` counters of the pass's buffer manager and its
    /// index reads, so far.
    pub fn storage_counters(&self) -> BTreeMap<String, u64> {
        let mut c = counters(&self.storage);
        c.insert("index.reads".into(), self.db.io_stats().index_reads);
        c
    }

    /// Pages of the base data, and the frames that buffer them.
    pub fn working_set(&self) -> (u64, u64) {
        let pages = self
            .data
            .db
            .physical()
            .entities()
            .iter()
            .map(|e| u64::from(self.data.db.num_pages(e.id)))
            .sum();
        (pages, self.db.buffer_frames() as u64)
    }

    /// Close the recorder and hand out the trace.
    pub fn finish(&self) -> Trace {
        self.rec.finish()
    }
}

/// The server's drift check (`Session::run`): base-relation scan lines
/// outside fix recursion, judged drifted only when predicted and
/// observed rows disagree both per open and in total.
fn drifted(plan: &CachedPlan, report: &ExecReport, tol: DriftTolerance) -> bool {
    let ids = node_ids(&plan.pt);
    let mut recursive: HashSet<usize> = HashSet::new();
    plan.pt.visit(&mut |n| {
        if let Pt::Fix { temp, body } = n {
            recursive.extend(ids.get(&(n as *const Pt)));
            if let Pt::Union { left, right } = body.as_ref() {
                let rec = if left.references_temp(temp) {
                    left
                } else {
                    right
                };
                rec.visit(&mut |r| recursive.extend(ids.get(&(r as *const Pt))));
            }
        }
    });
    let scans: Vec<NodeCost> = plan
        .breakdown
        .iter()
        .filter(|n| n.kind == OpKind::Scan && n.node.is_some_and(|id| !recursive.contains(&id)))
        .cloned()
        .collect();
    let mut per_node: BTreeMap<usize, (String, u64, u64, u64, u64)> = BTreeMap::new();
    for o in &report.ops {
        let e = per_node
            .entry(o.pt_node)
            .or_insert_with(|| (o.label.clone(), 0, 0, 0, 0));
        e.1 += o.rows_out;
        e.2 += o.opens;
        e.3 += o.page_reads + o.index_reads + o.page_writes;
        e.4 += o.evals + o.method_calls;
    }
    let observe = |per_open: bool| -> Vec<ObservedOp> {
        per_node
            .iter()
            .map(|(&pt_node, (label, rows, opens, io, cpu))| ObservedOp {
                pt_node,
                label: label.clone(),
                io: *io as f64,
                cpu: *cpu as f64,
                rows: *rows as f64
                    / if per_open {
                        (*opens).max(1) as f64
                    } else {
                        1.0
                    },
            })
            .collect()
    };
    lint_drift(&scans, &observe(true), tol).has(LintCode::RowsDrift)
        && lint_drift(&scans, &observe(false), tol).has(LintCode::RowsDrift)
}

/// Attribute every request's traced time to layers. A span's self time
/// is its duration minus what its children cover; requests come back in
/// the order their root spans were opened.
pub fn span_profiles(trace: &Trace) -> Vec<SpanProfile> {
    let n = trace.spans.len();
    let index = |id: SpanId| id.0 as usize - 1;
    let mut covered = vec![0u64; n];
    let mut root_of: Vec<usize> = (0..n).collect();
    for (i, s) in trace.spans.iter().enumerate() {
        if let Some(parent) = s.parent {
            // Parents are recorded before their children.
            covered[index(parent)] += s.dur_ns();
            root_of[i] = root_of[index(parent)];
        }
    }
    let mut slot = vec![usize::MAX; n];
    let mut out: Vec<SpanProfile> = Vec::new();
    for (i, s) in trace.spans.iter().enumerate() {
        let root = root_of[i];
        if trace.spans[root].name != "request" {
            continue;
        }
        if i == root {
            slot[i] = out.len();
            out.push(SpanProfile {
                wall_ns: s.dur_ns(),
                root_self_ns: s.dur_ns().saturating_sub(covered[i]),
                ..SpanProfile::default()
            });
            continue;
        }
        let profile = &mut out[slot[root]];
        let layer = LAYERS
            .iter()
            .position(|l| *l == s.cat)
            .unwrap_or_else(|| panic!("span category `{}` is not a layer", s.cat));
        profile.layer_self_ns[layer] += s.dur_ns().saturating_sub(covered[i]);
        *profile
            .spans
            .entry(format!("{}.{}", s.cat, s.name))
            .or_default() += s.dur_ns();
    }
    for e in trace.events_named("candidate") {
        let costed = e.field("cost").and_then(FieldValue::as_num).is_some();
        if let (true, Some(span)) = (costed, e.span) {
            let root = root_of[index(span)];
            if slot[root] != usize::MAX {
                out[slot[root]].costed_candidates += 1;
            }
        }
    }
    out
}

/// Executed cost of the cost-controlled plan over the cheapest of the
/// three push strategies' plans, as a geometric mean over `texts`. Costs
/// are `ExecReport::total` at the default weights, from exact counters
/// on a cold snapshot; every strategy's answer must equal `expected`.
pub fn plan_regret(
    inputs: &Inputs,
    data: &Built,
    texts: &[(String, Digest)],
) -> Result<f64, String> {
    let params = CostParams::default();
    let stats = DbStats::collect(&data.db);
    let methods = MethodRegistry::new();
    let mut bytes = Vec::new();
    let mut log_sum = 0.0;
    for (text, expected) in texts {
        let graph = parse_query(data.db.catalog(), text).map_err(|e| format!("regret: {e}"))?;
        let mut executed: BTreeMap<u64, f64> = BTreeMap::new();
        let mut costs = Vec::new();
        for config in [
            OptimizerConfig::cost_controlled(),
            OptimizerConfig::deductive_heuristic(),
            OptimizerConfig::never_push(),
        ] {
            let model = CostModel::new(
                data.db.catalog(),
                data.db.physical(),
                &stats,
                params.clone(),
            );
            let plan = Optimizer::new(model, config)
                .optimize(&graph)
                .map_err(|e| format!("regret optimize: {e}"))?;
            let fingerprint = plan.pt.fingerprint();
            if let Some(&cost) = executed.get(&fingerprint) {
                costs.push(cost);
                continue;
            }
            let mut db = data.db.snapshot();
            let mut ex = Executor::new(&mut db, &data.indexes, &methods)
                .with_config(inputs.exec.clone())
                .with_parallel(plan.parallel.clone());
            let batch = ex
                .run(&plan.pt)
                .map_err(|e| format!("regret execute: {e}"))?;
            render(&batch, &mut bytes);
            if Digest::of_bytes(&bytes) != *expected {
                return Err(format!(
                    "plan {fingerprint:016x} of `{text}` returns a wrong answer"
                ));
            }
            let cost = ex.report().total(params.pr, params.ev);
            executed.insert(fingerprint, cost);
            costs.push(cost);
        }
        let cheapest = costs.iter().copied().fold(f64::INFINITY, f64::min);
        if cheapest <= 0.0 {
            return Err(format!("`{text}` executed at no cost"));
        }
        log_sum += (costs[0] / cheapest).ln();
    }
    Ok((log_sum / texts.len().max(1) as f64).exp())
}

/// Median over the requests that carry `name`, `0.0` when none does.
pub fn median_ns(profiles: &[Profile], name: &str) -> f64 {
    let v: Vec<f64> = profiles
        .iter()
        .filter_map(|p| p.ns.get(name).map(|&ns| ns as f64))
        .collect();
    median(&v)
}

/// Mean over the requests that carry `name` (steady ones only when
/// `steady`), `0.0` when none does.
pub fn mean_count(profiles: &[Profile], name: &str, steady: bool) -> f64 {
    let v: Vec<f64> = profiles
        .iter()
        .filter(|p| p.steady || !steady)
        .filter_map(|p| p.count.get(name).copied())
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Request, Schedule, Workload};

    /// Replay the first `n` requests of the cold-adhoc pass.
    fn replay(seed: u64, n: usize, rec: Recorder) -> (Vec<Profile>, BTreeMap<String, u64>, Trace) {
        let inputs = Inputs::new(Workload::ColdAdhoc, seed);
        let data = inputs.build();
        let mut schedule = Schedule::new(&inputs, data.vocabulary.as_ref(), 1, 2);
        let mut tracer = Tracer::new(&inputs, &data, rec);
        for _ in 0..n {
            let Request::Adhoc(text) = schedule.next_request() else {
                panic!("cold-adhoc sends only ad-hoc texts");
            };
            tracer.request(&text, true).expect("traced request");
        }
        let trace = tracer.finish();
        (tracer.profiles.clone(), tracer.storage_counters(), trace)
    }

    #[test]
    fn self_times_of_a_hand_built_trace() {
        let rec = Recorder::new();
        let synth = |track: &str| vec![("track".to_string(), FieldValue::Str(track.into()))];
        let root = rec.add_span("serve", "request", None, 0, 100, Vec::new());
        rec.add_span("query", "parse", root, 0, 10, Vec::new());
        let run = rec.add_span("exec", "run", root, 20, 90, Vec::new());
        rec.add_span("pt", "lower", run, 20, 30, synth("pt.lower"));
        rec.add_span("exec", "scan", run, 30, 60, synth("exec.op.scan"));
        let profiles = span_profiles(&rec.finish());
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!((p.wall_ns, p.root_self_ns), (100, 20));
        // query, serve, optimizer, pt, exec
        assert_eq!(p.layer_self_ns, [10, 0, 0, 10, 60]);
        assert_eq!(p.spans["exec.run"], 70);
    }

    #[test]
    fn span_self_times_sum_to_the_root_span() {
        let (profiles, _, trace) = replay(3, 12, Recorder::new());
        let spans = span_profiles(&trace);
        assert_eq!(spans.len(), profiles.len());
        for s in &spans {
            let layers: u64 = s.layer_self_ns.iter().sum();
            assert_eq!(layers + s.root_self_ns, s.wall_ns);
            // Named spans, not the request's own gaps, hold the time.
            assert!(s.root_self_ns * 10 < s.wall_ns, "{s:?}");
            assert!(s.costed_candidates > 0);
        }
        oorq::obs::check_chrome_trace(&trace.to_chrome()).expect("valid trace");
    }

    #[test]
    fn counted_passes_repeat_exactly_for_a_seed() {
        let (a, storage_a, _) = replay(8, 12, Recorder::disabled());
        let (b, storage_b, _) = replay(8, 12, Recorder::disabled());
        assert_eq!(storage_a, storage_b);
        assert!(storage_a["storage.page_hits"] > 0);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.miss && y.miss);
            assert_eq!(x.count, y.count);
        }
    }
}
