//! The cost estimator: Figure 5's formulas generalized to arbitrary PTs
//! over the statistics of §3.2.
//!
//! The estimator predicts the behaviour of the pipelined executor in
//! `oorq-exec`: page I/O of scans, implicit-join dereferences
//! (clustering aware), path-index probes
//! (`‖C‖ · (nblevels + nbleaves/‖C₁‖)`), nested-loop rescans (free
//! while the inner fits [`CostParams::buffer_frames`]), and semi-naive
//! fixpoints (`Σᵢ cost(Exp(Tᵢ))` with the iteration count bounded by the
//! chain-depth statistics).
//!
//! Every node's own estimate is one [`Cost`] — the page accesses and
//! evaluations the optimizer compares — exported per node
//! ([`NodeCost::cost`]). A node's estimate depends only on its subtree
//! and, inside a fixpoint's recursive leg, on the delta the fixpoint
//! assumes for its temporary. Every modeled pass reads the same delta,
//! so the leg is estimated once and its lines scaled by the pass count.

use std::collections::HashMap;

use oorq_pt::{lit_value, resolve, Node, NodeOp, OpKind, Pt};
use oorq_query::{bind_path, CmpOp, Expr, Literal};
use oorq_schema::{AttrId, AttributeKind, Catalog, ClassId, ResolvedType};
use oorq_storage::{AttrStats, DbStats, EntitySource, IndexKindDesc, PhysicalSchema, WidthModel};

use crate::error::CostError;
use crate::guard::sane_rows;
use crate::params::{Cost, CostParams, DEFAULT_FIX_ITERATIONS, DEFAULT_SELECTIVITY};

/// The modeled per-iteration delta curve of one fixpoint: what the
/// estimator assumed about the semi-naive iteration structure when it
/// costed the recursive side as `Σᵢ cost(Exp(Tᵢ))` (Figure 5): a flat
/// curve, the base case grown by the average chain depth and split
/// evenly over the passes.
#[derive(Debug, Clone, PartialEq)]
pub struct FixCurve {
    /// The fixpoint's temporary.
    pub temp: String,
    /// Modeled recursive-side pass count (the executor's observed
    /// equivalent is the delta-curve length minus the seed entry).
    pub iterations: f64,
    /// Modeled input delta cardinality of every pass.
    pub delta: f64,
    /// Modeled accumulator cardinality (the fixpoint's output rows).
    pub total_rows: f64,
}

/// Per-node cost line of a plan-cost breakdown.
#[derive(Debug, Clone)]
pub struct NodeCost {
    /// Short label of the node (operator + key detail).
    pub label: String,
    /// Operator kind (the residual-report grouping key).
    pub kind: OpKind,
    /// Pre-order id of the PT node this line estimates
    /// (`oorq_pt::Preorder`, shared with the physical plan's
    /// `OpMeta::pt_node`) — the join key for predicted-vs-observed
    /// per-operator reporting.
    pub node: Option<usize>,
    /// The node's own cost (excluding children). For nodes on the
    /// recursive side of a fixpoint it (like `rows` and `pages`) is
    /// already multiplied by the modeled pass count, matching the
    /// executor's per-operator counters which accumulate across
    /// iterations.
    pub cost: Cost,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output pages if materialized.
    pub pages: f64,
    /// For `Fix` lines: the modeled recursive-side pass count behind
    /// the estimate. `None` for every other operator.
    pub passes: Option<f64>,
}

/// The cost estimate of a whole plan.
#[derive(Debug, Clone)]
pub struct PlanCost {
    /// Total cost.
    pub cost: Cost,
    /// Estimated answer cardinality.
    pub rows: f64,
    /// Post-order per-node breakdown.
    pub breakdown: Vec<NodeCost>,
}

impl PlanCost {
    /// Weighted total.
    pub fn total(&self, params: &CostParams) -> f64 {
        self.cost.total(params)
    }
}

/// How the objects of a column were reached: which value-count table of
/// the statistics says how often an attribute read off the column holds
/// a given literal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reached {
    /// Scanned from the extent: each object once, so the attribute's own
    /// table answers.
    Extent,
    /// Dereferenced through this reference attribute: an object as often
    /// as it is referenced, so the table seen through the reference
    /// answers.
    Via(ClassId, AttrId),
    /// Computed, or read back from a temporary: no table answers.
    Unknown,
}

/// What the estimator keeps per output column of a node.
#[derive(Debug, Clone, Copy)]
struct ColEst {
    /// Direct attribute reads on the column cost no I/O (the object's
    /// page is in hand at that point of the pipeline).
    resident: bool,
    reached: Reached,
}

impl ColEst {
    /// A column of values or of objects whose page is not in hand,
    /// reached nobody knows how.
    const OPAQUE: ColEst = ColEst {
        resident: false,
        reached: Reached::Unknown,
    };
}

/// A node's output as an expression over it sees it: the plan's names
/// and types beside the estimator's own per-column record. A later
/// column shadows an earlier one of the same name (the join lint PT010
/// flags).
#[derive(Clone, Copy)]
struct Cols<'c> {
    cols: &'c [(String, ResolvedType)],
    est: &'c [ColEst],
}

impl<'c> Cols<'c> {
    fn get(&self, name: &str) -> Option<(&'c ResolvedType, ColEst)> {
        let i = self.cols.iter().rposition(|(n, _)| n == name)?;
        Some((&self.cols[i].1, self.est[i]))
    }
}

/// The field types of a temporary shaped like `cols`.
fn field_types(cols: &[(String, ResolvedType)]) -> Vec<ResolvedType> {
    cols.iter().map(|(_, t)| t.clone()).collect()
}

/// The field types a materialized row of `cols` is estimated to hold:
/// one per column a name still reaches.
fn reachable_types(cols: &[(String, ResolvedType)]) -> Vec<ResolvedType> {
    let shadowed = |i: usize| cols[i + 1..].iter().any(|(n, _)| *n == cols[i].0);
    let reachable = (0..cols.len()).filter(|&i| !shadowed(i));
    reachable.map(|i| cols[i].1.clone()).collect()
}

/// Snapshot taken when a fan-out operator (IJ/PIJ) multiplies the row
/// count: remembers the pre-fanout node and cardinality so a later
/// projection back onto that node's columns can estimate the
/// *existential* row count (`rows_before * (1 - (1 - sel)^mult)`,
/// independence assumption) instead of keeping the multiplied one.
#[derive(Debug, Clone)]
struct FanoutBase {
    node: usize,
    rows: f64,
    mult: f64,
    sel: f64,
}

#[derive(Debug, Clone)]
struct NodeEst {
    rows: f64,
    pages: f64,
    /// Per output column of the estimated node (see [`Cols`]).
    cols: Vec<ColEst>,
    cost: Cost,
    fanout_base: Option<FanoutBase>,
}

impl NodeEst {
    fn new(rows: f64, pages: f64, cols: Vec<ColEst>, cost: Cost) -> NodeEst {
        NodeEst {
            rows,
            pages,
            cols,
            cost,
            fanout_base: None,
        }
    }

    /// What an expression over this estimate's node — whose columns are
    /// `cols` — sees.
    fn over<'c>(&'c self, cols: &'c [(String, ResolvedType)]) -> Cols<'c> {
        Cols {
            cols,
            est: &self.cols,
        }
    }

    /// The estimate above a fan-out operator (IJ/PIJ) over `self`, the
    /// estimate of node `input`, that multiplies each row by `fan` and
    /// appends `outs` columns.
    fn fanned_out(
        mut self,
        input: usize,
        fan: f64,
        rows: f64,
        pages: f64,
        outs: impl IntoIterator<Item = ColEst>,
    ) -> NodeEst {
        let fanout_base = Some(match self.fanout_base {
            Some(fb) => FanoutBase {
                mult: fb.mult * fan.max(1.0),
                ..fb
            },
            None => FanoutBase {
                node: input,
                rows: self.rows,
                mult: fan.max(1.0),
                sel: 1.0,
            },
        });
        self.cols.extend(outs);
        NodeEst {
            fanout_base,
            ..NodeEst::new(rows, pages, self.cols, self.cost)
        }
    }
}

/// Per-row access cost of evaluating an expression. Evaluations stay
/// apart from method units because a nested-loop join charges at least
/// one evaluation per pair.
#[derive(Debug, Clone, Copy, Default)]
struct ExprCost {
    /// Object pages fetched dereferencing paths.
    io: f64,
    /// Predicate comparisons.
    evals: f64,
    /// Method cost units (declared `eval_cost` per invocation).
    method_units: f64,
}

impl ExprCost {
    fn absorb(&mut self, other: ExprCost) {
        self.io += other.io;
        self.evals += other.evals;
        self.method_units += other.method_units;
    }
}

/// The cost of evaluating an expression on `self` rows.
impl std::ops::Mul<ExprCost> for f64 {
    type Output = Cost;
    fn mul(self, ec: ExprCost) -> Cost {
        Cost::new(self * ec.io, self * ec.evals + self * ec.method_units)
    }
}

/// The cost model: catalog + physical schema + statistics + parameters.
pub struct CostModel<'a> {
    /// Conceptual catalog.
    pub catalog: &'a Catalog,
    /// Physical schema (entities, clustering, indexes).
    pub physical: &'a PhysicalSchema,
    /// Database statistics.
    pub stats: &'a DbStats,
    /// Model parameters.
    pub params: CostParams,
    /// Width model for page estimates of intermediate results.
    pub width: WidthModel,
    /// Shapes of temporaries (qualified by PT `Temp` names).
    pub temp_fields: HashMap<String, Vec<(String, ResolvedType)>>,
    /// Assumed cardinality of temporaries referenced *outside* a `Fix`
    /// that builds them (e.g. while planning the recursive side of a
    /// fixpoint in isolation).
    pub temp_rows_hint: HashMap<String, f64>,
}

impl<'a> CostModel<'a> {
    /// New model with default width.
    pub fn new(
        catalog: &'a Catalog,
        physical: &'a PhysicalSchema,
        stats: &'a DbStats,
        params: CostParams,
    ) -> Self {
        CostModel {
            catalog,
            physical,
            stats,
            params,
            width: WidthModel::default(),
            temp_fields: HashMap::new(),
            temp_rows_hint: HashMap::new(),
        }
    }

    /// Assume a cardinality for a temporary when no fixpoint context
    /// provides one.
    pub fn hint_temp_rows(&mut self, name: impl Into<String>, rows: f64) {
        self.temp_rows_hint.insert(name.into(), rows);
    }

    /// Register a temporary's shape.
    pub fn with_temp(
        mut self,
        name: impl Into<String>,
        fields: Vec<(String, ResolvedType)>,
    ) -> Self {
        self.temp_fields.insert(name.into(), fields);
        self
    }

    /// Estimate the cost of a whole plan.
    pub fn cost(&self, pt: &Pt) -> Result<PlanCost, CostError> {
        let plan = resolve(self.catalog, self.physical, &self.temp_fields, pt)?;
        let mut ctx = EstCtx {
            model: self,
            plan: &plan,
            temp_rows: HashMap::new(),
            breakdown: Vec::new(),
        };
        let est = ctx.est(0, true)?;
        // Lines are labelled once, here: estimating needs no text.
        let mut breakdown = ctx.breakdown;
        for line in &mut breakdown {
            let node = line.node.expect("every line estimates a node");
            line.label = plan[node].op.label(self.catalog, self.physical);
            if let Some(passes) = line.passes {
                line.label = format!("{} x{passes:.0}", line.label);
            }
        }
        Ok(PlanCost {
            cost: est.cost,
            rows: est.rows,
            breakdown,
        })
    }

    /// Estimated iteration count for fixpoints: the deepest chain in the
    /// statistics, or the configured default.
    pub fn fix_iterations(&self) -> f64 {
        self.stats
            .max_chain_depth()
            .map(|d| (d as f64).max(1.0))
            .unwrap_or(DEFAULT_FIX_ITERATIONS)
    }

    /// Model the per-iteration delta curve of a fixpoint over `temp`
    /// whose base case is estimated at `base_rows`: a flat curve, total
    /// = base × avg chain depth, split evenly over the iterations.
    pub fn fix_delta_curve(&self, temp: &str, base_rows: f64) -> FixCurve {
        let n = self.fix_iterations().max(1.0);
        let growth = self.stats.avg_chain_depth().unwrap_or(2.0).max(1.0);
        let total_rows = sane_rows(base_rows * growth);
        let delta = (total_rows / n).max(1.0);
        FixCurve {
            temp: temp.to_string(),
            iterations: (n - 1.0).max(1.0).round(),
            delta,
            total_rows,
        }
    }

    fn entity_rows_pages(&self, id: oorq_storage::EntityId) -> (f64, f64) {
        match self.stats.entity(id) {
            Some(s) => (s.cardinality as f64, s.pages as f64),
            None => (0.0, 0.0),
        }
    }

    /// Statistics of an attribute: those of its field in the class's
    /// extension.
    fn attr_stats(&self, class: ClassId, attr: AttrId) -> Option<&AttrStats> {
        let entity = self.physical.class_entity(class)?;
        self.stats.entity(entity)?.attrs.get(attr.0 as usize)
    }

    /// Fan-out (average members, discounted by nulls) of an attribute.
    fn attr_fanout(&self, class: ClassId, attr: AttrId) -> f64 {
        match self.attr_stats(class, attr) {
            Some(a) => (a.avg_fanout * (1.0 - a.null_fraction)).max(0.0),
            None => 1.0,
        }
    }

    /// Distinct values of an attribute (for equality selectivity).
    fn attr_distinct(&self, class: ClassId, attr: AttrId) -> f64 {
        match self.attr_stats(class, attr) {
            Some(a) if a.distinct > 0 => a.distinct as f64,
            _ => 10.0,
        }
    }

    fn is_clustered(&self, class: ClassId, attr: AttrId) -> bool {
        self.physical
            .class_entity(class)
            .map(|e| self.physical.entity(e).is_clustered(attr))
            .unwrap_or(false)
    }
}

struct EstCtx<'m, 'a> {
    model: &'m CostModel<'a>,
    /// The plan being estimated, resolved: ids, operators and typed
    /// output columns come with each node.
    plan: &'m [Node<'m>],
    /// Cardinality assumed for each temporary (set while estimating the
    /// recursive side of a fixpoint: the delta size).
    temp_rows: HashMap<String, f64>,
    breakdown: Vec<NodeCost>,
}

impl EstCtx<'_, '_> {
    /// Page estimate of `rows` records of the given shape, guarded: a
    /// zero-row estimate occupies zero pages, a non-empty one at least
    /// one — no downstream division can see a spurious zero or a
    /// sub-row NaN.
    fn pages_est(&self, rows: f64, types: &[ResolvedType]) -> f64 {
        let rows = sane_rows(rows);
        if rows.ceil() as u64 == 0 {
            return 0.0;
        }
        (self.model.width.pages_for(rows.ceil() as u64, types) as f64).max(1.0)
    }

    /// Estimate node `id` of the resolved plan as the operator it
    /// executes as. `charge_scan` is false for the leaf an index probe
    /// absorbs (its sequential scan is replaced by probes; the line keeps
    /// the leaf's shape and cardinality).
    fn est(&mut self, id: usize, charge_scan: bool) -> Result<NodeEst, CostError> {
        let m = self.model;
        let p = &m.params;
        let plan = self.plan;
        let node = &plan[id];
        let mut passes = None;
        // Each arm yields the node's own cost and its estimate with the
        // children's cost; the node's own cost is added below.
        let (own, mut est) = match &node.op {
            &NodeOp::EntityScan { entity: id, .. } => {
                let (rows, pages) = m.entity_rows_pages(id);
                // An object column has its page in hand and each object
                // once; a relation's fields are values.
                let col = match m.physical.entity(id).source {
                    EntitySource::Class(_) => ColEst {
                        resident: true,
                        reached: Reached::Extent,
                    },
                    _ => ColEst::OPAQUE,
                };
                let own = Cost::new(if charge_scan { pages } else { 0.0 }, 0.0);
                let cols = vec![col; node.cols.len()];
                (own, NodeEst::new(rows, pages, cols, Cost::zero()))
            }
            &NodeOp::TempScan { name, .. } => {
                let rows = sane_rows(
                    self.temp_rows
                        .get(name)
                        .or_else(|| m.temp_rows_hint.get(name))
                        .copied()
                        .unwrap_or(0.0),
                );
                let pages = self.pages_est(rows, &field_types(&node.cols));
                let own = Cost::new(if charge_scan { pages } else { 0.0 }, 0.0);
                let cols = vec![ColEst::OPAQUE; node.cols.len()];
                (own, NodeEst::new(rows, pages, cols, Cost::zero()))
            }
            &NodeOp::Filter { pred, input, .. } => {
                let mut child = self.est(input, true)?;
                let ec = self.expr_access_cost(pred, child.over(&plan[input].cols));
                let sel = self.selectivity(pred, child.over(&plan[input].cols));
                let own = child.rows * ec;
                child.rows = sane_rows(child.rows * sel);
                child.pages = (child.pages * sel).max(child.rows.min(1.0));
                if let Some(fb) = &mut child.fanout_base {
                    fb.sel *= sel;
                }
                (own, child)
            }
            NodeOp::IndexSelect { pred, probe, leaf } => {
                // Index access replaces the scan of the entity leaf.
                let mut child = self.est(*leaf, false)?;
                let sel = self.selectivity(pred, child.over(&plan[*leaf].cols));
                let matches = sane_rows(child.rows * sel);
                // Fetch the matched objects' pages, then descend the
                // levels and read the leaves.
                let leaves = (matches / 8.0).max(0.0);
                let own = Cost::new(matches + probe.nblevels as f64 + leaves, matches);
                child.rows = matches;
                child.pages = (child.pages * sel).max(child.rows.min(1.0));
                (own, child)
            }
            &NodeOp::Project { exprs, input } => {
                let child = self.est(input, true)?;
                // No per-column copy surcharge: the executor counts
                // evaluations only for comparisons and methods.
                let mut ec_total = ExprCost::default();
                for (_, e) in exprs {
                    ec_total.absorb(self.expr_access_cost(e, child.over(&plan[input].cols)));
                }
                let own = child.rows * ec_total;
                // Existential dedup: projecting back onto columns that
                // existed before a fan-out collapses the multiplied rows
                // (independence assumption over the fanned-out members).
                let mut out_rows = child.rows;
                if let Some(fb) = &child.fanout_base {
                    let before = &plan[fb.node].cols;
                    let mut sources = exprs.iter().flat_map(|(_, e)| e.vars());
                    if sources.all(|v| before.iter().any(|(n, _)| *n == v)) {
                        let pass = 1.0 - (1.0 - fb.sel.clamp(0.0, 1.0)).powf(fb.mult.max(1.0));
                        out_rows = out_rows.min(fb.rows * pass.clamp(0.0, 1.0));
                    }
                }
                let out_rows = sane_rows(out_rows);
                let pages = self.pages_est(out_rows, &reachable_types(&node.cols));
                // A bare column is handed up as it was reached (its page
                // is not: the projected row is a copy).
                let input_cols = child.over(&plan[input].cols);
                let handed_up = |(_, e): &(String, Expr)| ColEst {
                    reached: whole_column(e, input_cols).map_or(Reached::Unknown, |c| c.reached),
                    ..ColEst::OPAQUE
                };
                let cols = exprs.iter().map(handed_up).collect();
                (own, NodeEst::new(out_rows, pages, cols, child.cost))
            }
            &NodeOp::IjDeref {
                on, step, input, ..
            } => {
                let child = self.est(input, true)?;
                let ec = self.expr_access_cost(on, child.over(&plan[input].cols));
                let (fanout, clustered) = match step.class_attr {
                    Some((c, a)) => (m.attr_fanout(c, a).max(0.0), m.is_clustered(c, a)),
                    // Oid-valued relation/temporary field: scalar, never
                    // clustered with the consuming temporary.
                    None => (1.0, false),
                };
                let rows = sane_rows(child.rows * fanout.max(f64::MIN_POSITIVE));
                let per_deref = if clustered { p.clustered_access } else { 1.0 };
                let own = child.rows * ec + Cost::new(rows * per_deref, 0.0);
                let pages = self.pages_est(rows, &reachable_types(&node.cols));
                let out = ColEst {
                    resident: true,
                    reached: step
                        .class_attr
                        .map_or(Reached::Unknown, |(c, a)| Reached::Via(c, a)),
                };
                (own, child.fanned_out(input, fanout, rows, pages, [out]))
            }
            &NodeOp::PijLookup {
                index,
                on,
                outs,
                input,
                ..
            } => {
                let child = self.est(input, true)?;
                let desc = m.physical.index(index);
                let IndexKindDesc::Path { path } = &desc.kind else {
                    return Err(CostError::Pt(oorq_pt::PtError::NotAPathIndex));
                };
                let head_class = path[0].0;
                let head_entity = m
                    .physical
                    .class_entity(head_class)
                    .ok_or(CostError::MissingStats)?;
                let head_card = m
                    .stats
                    .entity(head_entity)
                    .map(|s| s.cardinality as f64)
                    .unwrap_or(1.0)
                    .max(1.0);
                let ec = self.expr_access_cost(on, child.over(&plan[input].cols));
                let mut fan = 1.0;
                for (c, a) in path {
                    fan *= m.attr_fanout(*c, *a).max(f64::MIN_POSITIVE);
                }
                let rows = sane_rows(child.rows * fan);
                // Figure 5: ‖C‖ * (nblevels + nbleaves / ‖C₁‖).
                let eval = child.rows * ec;
                let levels = child.rows * desc.stats.nblevels as f64;
                let leaves = child.rows * desc.stats.nbleaves as f64 / head_card;
                let own = Cost::new(eval.io + levels + leaves, eval.cpu);
                let pages = self.pages_est(rows, &reachable_types(&node.cols));
                // Index-only: the objects' pages are NOT read. Output `i`
                // holds what step `i` of the path references.
                let outs = path.iter().take(outs.len()).map(|&(c, a)| ColEst {
                    resident: false,
                    reached: Reached::Via(c, a),
                });
                (own, child.fanned_out(input, fan, rows, pages, outs))
            }
            &NodeOp::NlJoin {
                pred, left, right, ..
            } => {
                let l = self.est(left, true)?;
                let r = self.est(right, true)?;
                let joined = [l.cols, r.cols].concat();
                let cols = Cols {
                    cols: &node.cols,
                    est: &joined,
                };
                let sel = self.selectivity(pred, cols);
                let rows = sane_rows(l.rows * r.rows * sel);
                // Inner rescans: free while the inner fits the buffer, a
                // full rescan per outer row after the first past it.
                let rescan_io = if r.pages <= p.buffer_frames as f64 {
                    0.0
                } else {
                    (l.rows - 1.0).max(0.0) * r.pages
                };
                let ec = self.expr_access_cost(pred, cols);
                let pairs = l.rows * r.rows;
                let evals = ec.evals.max(1.0);
                let own = Cost::new(rescan_io, 0.0) + pairs * ExprCost { evals, ..ec };
                let pages = self.pages_est(rows, &reachable_types(&node.cols));
                (own, NodeEst::new(rows, pages, joined, l.cost + r.cost))
            }
            &NodeOp::UnionAll { left, right } => {
                let l = self.est(left, true)?;
                let r = self.est(right, true)?;
                let (rows, pages) = (l.rows + r.rows, l.pages + r.pages);
                let est = NodeEst::new(rows, pages, l.cols, l.cost + r.cost);
                (Cost::zero(), est)
            }
            &NodeOp::FixPoint {
                temp, base, rec, ..
            } => {
                let base_est = self.est(base, true)?;
                // Figure 5's Σᵢ cost(Exp(Tᵢ)) under the modeled curve:
                // every pass reads the same delta, so the recursive side
                // is estimated once with it as the temp's cardinality and
                // its lines are scaled by the pass count (the executor's
                // per-operator counters accumulate across passes).
                let curve = m.fix_delta_curve(temp, base_est.rows);
                let saved = self.temp_rows.insert(temp.to_string(), curve.delta);
                let rec_mark = self.breakdown.len();
                self.est(rec, true)?;
                match saved {
                    Some(s) => {
                        self.temp_rows.insert(temp.to_string(), s);
                    }
                    None => {
                        self.temp_rows.remove(temp);
                    }
                }
                let n = curve.iterations;
                let mut iter_cost = Cost::zero();
                for line in &mut self.breakdown[rec_mark..] {
                    line.cost = Cost::new(line.cost.io * n, line.cost.cpu * n);
                    line.rows *= n;
                    line.pages *= n;
                    iter_cost += line.cost;
                }
                // Materialization writes of the accumulated temporary,
                // whose shape the fixpoint hands up.
                let total_pages = self.pages_est(curve.total_rows, &field_types(&node.cols));
                passes = Some(n);
                let children = base_est.cost + iter_cost;
                let cols = vec![ColEst::OPAQUE; node.cols.len()];
                let est = NodeEst::new(curve.total_rows, total_pages, cols, children);
                // The dedup bookkeeping stays uncharged: the executor
                // counts comparisons and method calls, not hash probes.
                (Cost::new(total_pages, 0.0), est)
            }
        };
        est.cost += own;
        self.breakdown.push(NodeCost {
            label: String::new(),
            kind: node.op.kind(),
            node: Some(id),
            cost: own,
            rows: est.rows,
            pages: est.pages,
            passes,
        });
        Ok(est)
    }

    /// Per-row access cost of evaluating an expression: page fetches
    /// for dereferences along paths (fanning out over collections),
    /// method-invocation costs for computed attributes, and one
    /// evaluation per comparison.
    fn expr_access_cost(&self, expr: &Expr, cols: Cols<'_>) -> ExprCost {
        let m = self.model;
        let mut out = ExprCost::default();
        match expr {
            Expr::True | Expr::Lit(_) | Expr::Var(_) => {}
            Expr::Path { base, steps } => {
                let Some(((mut ty, col), rest)) = bind_path(base, steps, |c| cols.get(c)) else {
                    return out;
                };
                let mut in_hand = col.resident;
                let mut mult = 1.0f64;
                for step in rest {
                    let Some(class) = ty.referenced_class() else {
                        break;
                    };
                    if !in_hand {
                        out.io += mult; // fetch the object's page
                    }
                    let Some((aid, attr)) = m.catalog.attr(class, step) else {
                        break;
                    };
                    if let AttributeKind::Computed { eval_cost } = attr.kind {
                        out.method_units += mult * eval_cost;
                    }
                    if attr.ty.is_collection() {
                        mult *= m.attr_fanout(class, aid).max(f64::MIN_POSITIVE);
                    }
                    ty = &attr.ty;
                    in_hand = false; // referenced objects not yet fetched
                }
                // The leaf read itself is free; comparison adds cpu.
            }
            Expr::Cmp { lhs, rhs, .. } => {
                out.absorb(self.expr_access_cost(lhs, cols));
                out.absorb(self.expr_access_cost(rhs, cols));
                out.evals += 1.0; // one evaluation per comparison
            }
            Expr::And(l, r) | Expr::Or(l, r) | Expr::Add(l, r) => {
                out.absorb(self.expr_access_cost(l, cols));
                out.absorb(self.expr_access_cost(r, cols));
            }
            Expr::Not(e) => {
                out.absorb(self.expr_access_cost(e, cols));
            }
        }
        out
    }

    /// Selectivity of a predicate, guaranteed finite and in `[0, 1]`:
    /// every composite is clamped and a degenerate (NaN) leaf estimate
    /// falls back to the configured default, so a selection provably
    /// never grows its input.
    fn selectivity(&self, expr: &Expr, cols: Cols<'_>) -> f64 {
        let s = self.selectivity_raw(expr, cols);
        if s.is_finite() {
            s.clamp(0.0, 1.0)
        } else {
            DEFAULT_SELECTIVITY
        }
    }

    fn selectivity_raw(&self, expr: &Expr, cols: Cols<'_>) -> f64 {
        match expr {
            Expr::True => 1.0,
            Expr::And(l, r) => {
                (self.selectivity(l, cols) * self.selectivity(r, cols)).clamp(0.0, 1.0)
            }
            Expr::Or(l, r) => {
                let a = self.selectivity(l, cols);
                let b = self.selectivity(r, cols);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            Expr::Not(e) => (1.0 - self.selectivity(e, cols)).clamp(0.0, 1.0),
            Expr::Cmp {
                op: op @ (CmpOp::Eq | CmpOp::Ne),
                lhs,
                rhs,
            } => {
                // How often one member equals the other side: what a
                // value-count table says of a literal, else one in the
                // distinct values.
                let counted = match (&**lhs, &**rhs) {
                    (e, Expr::Lit(l)) | (Expr::Lit(l), e) => self.literal_frequency(e, l, cols),
                    _ => None,
                };
                let per_member = counted.unwrap_or_else(|| {
                    let dl = self.expr_distinct(lhs, cols);
                    let dr = self.expr_distinct(rhs, cols);
                    let distinct = match (op, dl, dr) {
                        (CmpOp::Eq, Some(a), Some(b)) => Some(a.max(b)),
                        _ => dl.or(dr),
                    };
                    distinct.map_or(DEFAULT_SELECTIVITY, |d| 1.0 / d.max(1.0))
                });
                if *op == CmpOp::Ne {
                    return 1.0 - per_member;
                }
                // Existential semantics: a path fanning out over
                // collections succeeds when *any* member matches
                // (independence assumption) — keeps the plain
                // path-selection estimate consistent with its
                // IJ/PIJ-expanded form.
                let fan = self.expr_fanout(lhs, cols) * self.expr_fanout(rhs, cols);
                if fan > 1.0 {
                    1.0 - (1.0 - per_member.clamp(0.0, 1.0)).powf(fan)
                } else {
                    per_member.clamp(0.0, 1.0)
                }
            }
            Expr::Cmp { .. } => 1.0 / 3.0,
            _ => DEFAULT_SELECTIVITY,
        }
    }

    /// Total collection fan-out of a path expression (product of the
    /// average member counts of its collection-valued steps); 1.0 for
    /// non-paths.
    fn expr_fanout(&self, expr: &Expr, cols: Cols<'_>) -> f64 {
        let m = self.model;
        let Expr::Path { base, steps } = expr else {
            return 1.0;
        };
        let Some(((mut ty, _), rest)) = bind_path(base, steps, |c| cols.get(c)) else {
            return 1.0;
        };
        let mut fan = 1.0f64;
        for step in rest {
            let Some(class) = ty.referenced_class() else {
                break;
            };
            let Some((aid, attr)) = m.catalog.attr(class, step) else {
                break;
            };
            if attr.ty.is_collection() {
                fan *= self.model.attr_fanout(class, aid).max(1.0);
            }
            ty = &attr.ty;
        }
        fan
    }

    /// Where a column or path expression ends: at the column itself, or
    /// at the last attribute the walk could read with how the objects
    /// holding it were reached. `None` for constants, computed values
    /// and columns of values.
    fn path_end(&self, expr: &Expr, cols: Cols<'_>) -> Option<PathEnd> {
        let ((mut ty, col), rest) = match expr {
            Expr::Var(v) => (cols.get(v)?, &[][..]),
            Expr::Path { base, steps } => bind_path(base, steps, |c| cols.get(c))?,
            _ => return None,
        };
        let mut reached = col.reached;
        let mut end = PathEnd::Column(ty.referenced_class()?);
        for step in rest {
            let Some(class) = ty.referenced_class() else {
                break;
            };
            let (attr, a) = self.model.catalog.attr(class, step)?;
            end = PathEnd::Attr {
                class,
                attr,
                reached,
            };
            reached = Reached::Via(class, attr);
            ty = &a.ty;
        }
        Some(end)
    }

    /// Distinct-value count of an expression when it resolves to an
    /// attribute or a column; `None` for constants and computed values.
    fn expr_distinct(&self, expr: &Expr, cols: Cols<'_>) -> Option<f64> {
        let m = self.model;
        match self.path_end(expr, cols)? {
            PathEnd::Column(class) => {
                let e = m.physical.class_entity(class)?;
                Some(m.stats.entity(e)?.cardinality as f64)
            }
            PathEnd::Attr { class, attr, .. } => Some(m.attr_distinct(class, attr)),
        }
    }

    /// The probability that one member `expr` reads equals `lit`, from
    /// the value-count table matching how the objects the attribute is
    /// read off were reached: the table seen through the reference for a
    /// dereferenced column or the last reference step of a path, the
    /// attribute's own for a scanned column. `None` where no table
    /// answers (a null literal, no attribute read, unknown provenance).
    fn literal_frequency(&self, expr: &Expr, lit: &Literal, cols: Cols<'_>) -> Option<f64> {
        let m = self.model;
        if *lit == Literal::Null {
            return None;
        }
        let PathEnd::Attr {
            class,
            attr,
            reached,
        } = self.path_end(expr, cols)?
        else {
            return None;
        };
        let table = match reached {
            Reached::Extent => &m.attr_stats(class, attr)?.counts,
            Reached::Via(owner, reference) => m.attr_stats(owner, reference)?.through(attr)?,
            Reached::Unknown => return None,
        };
        table.frequency(&lit_value(lit))
    }
}

/// See [`EstCtx::path_end`].
enum PathEnd {
    /// A column of objects of this class; no attribute is read.
    Column(ClassId),
    /// This attribute, read off objects of `class` reached so.
    Attr {
        class: ClassId,
        attr: AttrId,
        reached: Reached,
    },
}

/// The input column a projection expression hands up unchanged: a bare
/// variable, or a path that is wholly one (qualified) column's name.
fn whole_column(expr: &Expr, cols: Cols<'_>) -> Option<ColEst> {
    match expr {
        Expr::Var(v) => cols.get(v).map(|(_, col)| col),
        Expr::Path { base, steps } => match bind_path(base, steps, |c| cols.get(c))? {
            ((_, col), []) => Some(col),
            _ => None,
        },
        _ => None,
    }
}
