//! The cost estimator: Figure 5's formulas generalized to arbitrary PTs
//! over the statistics of §3.2.
//!
//! The estimator predicts the behaviour of the pipelined executor in
//! `oorq-exec`: page I/O of scans, implicit-join dereferences (clustering
//! and buffer aware: a dereference stream whose target working set fits
//! in the buffer pays only its cold reads), path-index probes
//! (`‖C‖ · (nblevels + nbleaves/‖C₁‖)`), nested-loop rescans (buffer
//! aware), index-join probes, and semi-naive fixpoints
//! (`Σᵢ cost(Exp(Tᵢ))` with the iteration count bounded by the
//! chain-depth statistics; pages re-touched by iterations 2..n of a
//! buffer-resident recursive side are charged hot). The residency
//! discounts are gated on [`CostParams::residency`] — off in
//! [`CostParams::default`] and [`CostParams::paper_mode`] (Figure 5
//! verbatim), on in the calibrated snapshot where the observed
//! counters show buffer hits dominating the dereference residuals.
//!
//! Every per-node estimate is assembled as a [`CostFeatures`] vector
//! (sequential pages, dereference pages, index level/leaf accesses,
//! temporary writes, evaluations, method units) dotted with the
//! calibratable [`CostParams::weights`]; identity weights reproduce the
//! uncalibrated Figure 5 formulas exactly, and the feature vectors are
//! exported per node (`NodeCost::feat`) so the calibration harness can
//! fit the weights against observed counters without re-running the
//! estimator.

use std::collections::HashMap;

use oorq_pt::{node_op, pij_out_classes, NodeOp, OpKind, Pt};
use oorq_query::{bind_path, CmpOp, Expr};
use oorq_schema::{AttrId, AttributeKind, Catalog, ClassId, ResolvedType};
use oorq_storage::{DbStats, EntityId, EntitySource, IndexKindDesc, PhysicalSchema, WidthModel};

use crate::error::CostError;
use crate::features::CostFeatures;
use crate::guard::sane_rows;
use crate::params::{Cost, CostParams};

/// The modeled per-iteration delta curve of one fixpoint: what the
/// estimator assumed about the semi-naive iteration structure when it
/// costed the recursive side as `Σᵢ cost(Exp(Tᵢ))` (Figure 5). Either
/// derived from a fitted [`crate::FixProfile`] (`profiled`) or the
/// flat-delta fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct FixCurve {
    /// The fixpoint's temporary.
    pub temp: String,
    /// The base case's estimated cardinality the curve was seeded from.
    pub base_rows: f64,
    /// Modeled recursive-side pass count (the executor's observed
    /// equivalent is the delta-curve length minus the seed entry).
    pub iterations: f64,
    /// Modeled per-pass input delta cardinalities, seed first.
    pub deltas: Vec<f64>,
    /// Modeled accumulator cardinality (the fixpoint's output rows).
    pub total_rows: f64,
    /// True when a fitted profile produced the curve; false for the
    /// flat-delta default.
    pub profiled: bool,
}

impl FixCurve {
    /// Total modeled delta mass (sum over the curve).
    pub fn mass(&self) -> f64 {
        self.deltas.iter().sum()
    }
}

/// Per-node cost line of a plan-cost breakdown.
#[derive(Debug, Clone)]
pub struct NodeCost {
    /// Short label of the node (operator + key detail).
    pub label: String,
    /// Operator kind (the residual-report grouping key).
    pub kind: OpKind,
    /// Pre-order index of the PT node this line estimates (the
    /// numbering of `oorq_pt::node_ids`, shared with the physical
    /// plan's `OpMeta::pt_node`) — the join key for predicted-vs-
    /// observed per-operator reporting.
    pub node: Option<usize>,
    /// The node's own cost (excluding children).
    pub cost: Cost,
    /// The node's own feature vector (`cost` is `feat` dotted with the
    /// model's weights). For nodes on the recursive side of a fixpoint
    /// the features are already multiplied by the estimated iteration
    /// count, matching the executor's per-operator counters which
    /// accumulate across iterations.
    pub feat: CostFeatures,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output pages if materialized.
    pub pages: f64,
    /// For `Fix` lines: the modeled delta curve behind the estimate
    /// (feedback harness and drift lints join it against the observed
    /// curve). `None` for every other operator.
    pub fix: Option<FixCurve>,
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

/// Column provenance tracked during estimation.
#[derive(Debug, Clone)]
struct ColInfo {
    ty: ResolvedType,
    /// True when direct attribute reads on this column cost no I/O (the
    /// object's page is in hand at that point of the pipeline).
    resident: bool,
}

/// Snapshot taken when a fan-out operator (IJ/PIJ) multiplies the row
/// count: remembers the pre-fanout columns and cardinality so a later
/// projection back onto those columns can estimate the *existential*
/// row count (`rows_before * (1 - (1 - sel)^mult)`, independence
/// assumption) instead of keeping the multiplied one.
#[derive(Debug, Clone)]
struct FanoutBase {
    cols: Vec<String>,
    rows: f64,
    mult: f64,
    sel: f64,
}

#[derive(Debug, Clone)]
struct NodeEst {
    rows: f64,
    pages: f64,
    cols: HashMap<String, ColInfo>,
    cost: Cost,
    fanout_base: Option<FanoutBase>,
}

impl NodeEst {
    fn new(rows: f64, pages: f64, cols: HashMap<String, ColInfo>, cost: Cost) -> NodeEst {
        NodeEst {
            rows,
            pages,
            cols,
            cost,
            fanout_base: None,
        }
    }

    /// The estimate above a fan-out operator (IJ/PIJ) over `self` that
    /// multiplies each row by `fan`.
    fn fanned_out(
        self,
        fan: f64,
        rows: f64,
        pages: f64,
        cols: HashMap<String, ColInfo>,
    ) -> NodeEst {
        let fanout_base = Some(match self.fanout_base {
            Some(fb) => FanoutBase {
                mult: fb.mult * fan.max(1.0),
                ..fb
            },
            None => FanoutBase {
                cols: self.cols.keys().cloned().collect(),
                rows: self.rows,
                mult: fan.max(1.0),
                sel: 1.0,
            },
        });
        NodeEst {
            fanout_base,
            ..NodeEst::new(rows, pages, cols, self.cost)
        }
    }
}

/// Per-row access cost of evaluating an expression, split by component
/// so each lands in its own calibratable feature.
#[derive(Debug, Clone, Default)]
struct ExprCost {
    /// Object pages fetched dereferencing paths.
    io: f64,
    /// Predicate comparisons.
    evals: f64,
    /// Method cost units (declared `eval_cost` per invocation).
    method_units: f64,
    /// Cold pages of the entities dereferenced along paths — the
    /// working set a stream of such dereferences touches, with entities
    /// already resident from earlier in the plan contributing nothing.
    /// When it fits in the buffer, repeated fetches hit: the
    /// operator-level I/O is capped at the footprint (cold reads)
    /// instead of one page per dereference.
    footprint: f64,
    /// Entities whose objects the expression dereferences (so a stream
    /// that visits the whole working set can mark them resident).
    touched: Vec<oorq_storage::EntityId>,
}

impl ExprCost {
    fn absorb(&mut self, other: ExprCost) {
        self.io += other.io;
        self.evals += other.evals;
        self.method_units += other.method_units;
        self.footprint += other.footprint;
        self.touched.extend(other.touched);
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
        // Under residency modeling, an entity the plan names as a leaf
        // (and that fits in the buffer) is resident for every *other*
        // access: its scan pays the cold reads — a canonical attribution
        // independent of operator order, matching the executor's buffer
        // whichever branch runs first. The extent an index selection
        // probes is not scanned. (Implicit-join targets and index-join
        // inners still count: the calibrated snapshot was fitted with
        // them in.)
        let mut scan_resident = std::collections::HashSet::new();
        if self.params.residency && self.params.buffer_frames > 0 {
            self.resident_leaves(pt, &mut scan_resident)?;
        }
        let mut ctx = EstCtx {
            model: self,
            temp_rows: HashMap::new(),
            breakdown: Vec::new(),
            node_ids: oorq_pt::node_ids(pt),
            hot: std::collections::HashSet::new(),
            scan_resident,
            folding: false,
        };
        let est = ctx.est(pt, true)?;
        Ok(PlanCost {
            cost: est.cost,
            rows: est.rows,
            breakdown: ctx.breakdown,
        })
    }

    /// Every buffer-fitting entity leaf of the plan, except the extents
    /// index selections probe.
    fn resident_leaves(
        &self,
        pt: &Pt,
        out: &mut std::collections::HashSet<EntityId>,
    ) -> Result<(), CostError> {
        match node_op(self.catalog, self.physical, pt)? {
            NodeOp::EntityScan { entity, .. } => {
                let (_, pages) = self.entity_rows_pages(entity);
                if pages > 0.0 && pages <= self.params.buffer_frames as f64 {
                    out.insert(entity);
                }
            }
            NodeOp::IndexSelect { .. } => {}
            _ => {
                for c in pt.children() {
                    self.resident_leaves(c, out)?;
                }
            }
        }
        Ok(())
    }

    /// Estimated iteration count for fixpoints: the deepest chain in the
    /// statistics, or the configured default.
    pub fn fix_iterations(&self) -> f64 {
        self.stats
            .max_chain_depth()
            .map(|d| (d as f64).max(1.0))
            .unwrap_or(self.params.default_fix_iterations)
    }

    /// Model the per-iteration delta curve of a fixpoint over `temp`
    /// whose base case is estimated at `base_rows`. With a fitted
    /// profile ([`crate::FixProfiles::lookup`]) the curve is
    /// geometric — seed scaled off the base estimate, per-pass decay,
    /// pass count extrapolated from the chain-depth statistic;
    /// without one it falls back to the flat-delta default (total =
    /// base × avg chain depth, split evenly over the iterations).
    pub fn fix_delta_curve(&self, temp: &str, base_rows: f64) -> FixCurve {
        if let Some(prof) = self
            .params
            .fix_profiles
            .lookup(&self.params.profile_scope, temp)
        {
            let depth = self.fix_iterations();
            let passes = ((prof.iters_per_depth * depth).round().max(1.0)) as usize;
            let d0 = (base_rows * prof.seed_scale).max(1.0);
            let mut deltas = Vec::with_capacity(passes);
            let mut d = d0;
            for _ in 0..passes {
                deltas.push(d.max(1.0));
                d *= prof.decay;
            }
            // The geometric endpoints-fit matches the curve's extremes
            // but not necessarily its area: a linearly decaying frontier
            // sums to far more than its geometric interpolation. When
            // the profile recorded its mass-over-seed ratio, rescale the
            // reconstruction so the total transfers exactly — the
            // accumulator footprint (hence the spill-cliff side) rides
            // on the total, not the endpoints.
            if prof.mass_scale > 0.0 {
                let sum: f64 = deltas.iter().sum();
                let target = d0 * prof.mass_scale;
                if sum > 0.0 && target > 0.0 {
                    let f = target / sum;
                    for d in &mut deltas {
                        *d *= f;
                    }
                }
            }
            let total_rows = sane_rows(deltas.iter().sum()).max(1.0);
            FixCurve {
                temp: temp.to_string(),
                base_rows,
                iterations: passes as f64,
                deltas,
                total_rows,
                profiled: true,
            }
        } else {
            let n = self.fix_iterations().max(1.0);
            let growth = self.stats.avg_chain_depth().unwrap_or(2.0).max(1.0);
            let total_rows = sane_rows(base_rows * growth);
            let delta = (total_rows / n).max(1.0);
            let passes = ((n - 1.0).max(1.0).round()) as usize;
            FixCurve {
                temp: temp.to_string(),
                base_rows,
                iterations: passes as f64,
                deltas: vec![delta; passes],
                total_rows,
                profiled: false,
            }
        }
    }

    fn entity_rows_pages(&self, id: oorq_storage::EntityId) -> (f64, f64) {
        match self.stats.entity(id) {
            Some(s) => (s.cardinality as f64, s.pages as f64),
            None => (0.0, 0.0),
        }
    }

    /// Fan-out (average members, discounted by nulls) of an attribute.
    fn attr_fanout(&self, class: ClassId, attr: AttrId) -> f64 {
        let Some(&entity) = self.physical.entities_of_class(class).first() else {
            return 1.0;
        };
        match self
            .stats
            .entity(entity)
            .and_then(|s| s.attrs.get(attr.0 as usize))
        {
            Some(a) => (a.avg_fanout * (1.0 - a.null_fraction)).max(0.0),
            None => 1.0,
        }
    }

    /// Distinct values of an attribute (for equality selectivity).
    fn attr_distinct(&self, class: ClassId, attr: AttrId) -> f64 {
        let Some(&entity) = self.physical.entities_of_class(class).first() else {
            return 10.0;
        };
        match self
            .stats
            .entity(entity)
            .and_then(|s| s.attrs.get(attr.0 as usize))
        {
            Some(a) if a.distinct > 0 => a.distinct as f64,
            _ => 10.0,
        }
    }

    /// Pages of the (first) entity extending a class; `+∞` when unknown
    /// so buffer-residency caps never apply to unsized targets.
    fn class_pages(&self, class: ClassId) -> f64 {
        self.physical
            .entities_of_class(class)
            .first()
            .and_then(|&e| self.stats.entity(e))
            .map(|s| s.pages as f64)
            .unwrap_or(f64::INFINITY)
    }

    fn is_clustered(&self, class: ClassId, attr: AttrId) -> bool {
        self.physical
            .entities_of_class(class)
            .first()
            .map(|&e| self.physical.entity(e).is_clustered(attr))
            .unwrap_or(false)
    }
}

struct EstCtx<'m, 'a> {
    model: &'m CostModel<'a>,
    /// Cardinality assumed for each temporary (set while estimating the
    /// recursive side of a fixpoint: the delta size).
    temp_rows: HashMap<String, f64>,
    breakdown: Vec<NodeCost>,
    /// Pre-order indices of the estimated plan's nodes (join key shared
    /// with physical-plan lowering).
    node_ids: HashMap<*const Pt, usize>,
    /// Entities whose whole working set an earlier access of this plan
    /// already paged in (populated only under residency modeling):
    /// later scans and dereference streams into them are charged hot.
    /// Estimation visits operators in execution order, so the set
    /// mirrors the executor's buffer state.
    hot: std::collections::HashSet<oorq_storage::EntityId>,
    /// Entities some operator of this plan scans in full and that fit
    /// in the buffer (see [`CostModel::cost`]): the scan pays their
    /// cold reads, every other access is a buffer hit.
    scan_resident: std::collections::HashSet<oorq_storage::EntityId>,
    /// True while re-estimating a recursive leg for passes 2..n: those
    /// lines are folded into the first pass's and dropped, so they carry
    /// no label.
    folding: bool,
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

    /// Page cost of a stream of `total` random dereferences whose
    /// distinct target pages span `footprint` pages. Under residency
    /// modeling ([`CostParams::residency`]) a working set that fits in
    /// the buffer stays resident: only the cold reads pay — at most the
    /// footprint — and every further access hits. A working set larger
    /// than the buffer thrashes and every dereference pays, which is
    /// also the paper's §4.6 simplification (residency off).
    fn deref_stream(&self, total: f64, footprint: f64) -> f64 {
        let p = &self.model.params;
        let b = p.buffer_frames as f64;
        if p.residency && b > 0.0 && footprint <= b {
            total.min(footprint)
        } else {
            total
        }
    }

    /// Cold-read pages of `accesses` page accesses into entity `id`
    /// (`pages` total). Under residency modeling an already-hot entity
    /// costs nothing, and an access stream that visits the whole
    /// working set of a buffer-fitting entity marks it hot for the rest
    /// of the plan.
    fn entity_stream(&mut self, id: oorq_storage::EntityId, pages: f64, accesses: f64) -> f64 {
        let p = &self.model.params;
        let b = p.buffer_frames as f64;
        if !p.residency || b <= 0.0 || pages > b {
            return accesses;
        }
        if self.hot.contains(&id) {
            return 0.0;
        }
        let cold = accesses.min(pages);
        if cold >= pages {
            self.hot.insert(id);
        }
        cold
    }

    /// Page cost of fetching `accesses` objects of entity `id` by oid —
    /// an index-match fetch or an implicit-join target fetch. Free when
    /// the plan scans the entity in full anyway (the scan pays the cold
    /// reads, whichever branch the executor happens to run first);
    /// otherwise the ordinary cold-read accounting of
    /// [`EstCtx::entity_stream`].
    fn fetch_stream(&mut self, id: oorq_storage::EntityId, pages: f64, accesses: f64) -> f64 {
        if self.scan_resident.contains(&id) {
            return 0.0;
        }
        self.entity_stream(id, pages, accesses)
    }

    /// Operator-level page cost of evaluating `ec` once per each of `n`
    /// rows: the dereference stream is capped at its cold footprint,
    /// and a stream that visits every touched entity's working set
    /// marks them hot for the rest of the plan.
    fn expr_stream(&mut self, n: f64, ec: &ExprCost) -> f64 {
        let total = n * ec.io;
        let cold = self.deref_stream(total, ec.footprint);
        let p = &self.model.params;
        let b = p.buffer_frames as f64;
        if p.residency && b > 0.0 && ec.footprint <= b && total >= ec.footprint {
            self.hot.extend(ec.touched.iter().copied());
        }
        cold
    }

    /// Estimate a node as the operator [`node_op`] resolves it to.
    /// `charge_scan` is false for the leaf an index probe absorbs (its
    /// sequential scan is replaced by probes; the line keeps the leaf's
    /// shape and cardinality).
    fn est(&mut self, pt: &Pt, charge_scan: bool) -> Result<NodeEst, CostError> {
        let m = self.model;
        let p = &m.params;
        let w = &p.weights;
        let op = node_op(m.catalog, m.physical, pt)?;
        let kind = op.kind();
        let mut label = if self.folding {
            String::new()
        } else {
            op.label(m.catalog, m.physical)
        };
        let mut fix = None;
        // Each arm yields the node's own features and its estimate with
        // the children's cost; the node's own cost is added below.
        let (feat, mut est) = match op {
            NodeOp::EntityScan { entity: id, var } => {
                let (rows, pages) = m.entity_rows_pages(id);
                let desc = m.physical.entity(id);
                let mut cols = HashMap::new();
                match &desc.source {
                    EntitySource::Class(c) => {
                        cols.insert(
                            var.to_string(),
                            ColInfo {
                                ty: ResolvedType::Object(*c),
                                resident: true,
                            },
                        );
                    }
                    EntitySource::Relation(r) => {
                        for (n, t) in &m.catalog.relation(*r).fields {
                            cols.insert(
                                format!("{var}.{n}"),
                                ColInfo {
                                    ty: t.clone(),
                                    resident: false,
                                },
                            );
                        }
                    }
                    EntitySource::Temporary => {
                        return Err(CostError::TempAsEntity(desc.name.clone()))
                    }
                }
                let feat = CostFeatures {
                    seq_pages: if charge_scan {
                        self.entity_stream(id, pages, pages)
                    } else {
                        0.0
                    },
                    ..CostFeatures::default()
                };
                (feat, NodeEst::new(rows, pages, cols, Cost::zero()))
            }
            NodeOp::TempScan { name, var } => {
                let fields = m
                    .temp_fields
                    .get(name)
                    .ok_or_else(|| CostError::UnknownTemp(name.to_string()))?;
                let rows = sane_rows(
                    self.temp_rows
                        .get(name)
                        .or_else(|| m.temp_rows_hint.get(name))
                        .copied()
                        .unwrap_or(0.0),
                );
                let types: Vec<ResolvedType> = fields.iter().map(|(_, t)| t.clone()).collect();
                let pages = self.pages_est(rows, &types);
                let mut cols = HashMap::new();
                for (n, t) in fields {
                    cols.insert(
                        format!("{var}.{n}"),
                        ColInfo {
                            ty: t.clone(),
                            resident: false,
                        },
                    );
                }
                // Under residency modeling a buffer-fitting temporary is
                // read hot: its pages are resident because this very plan
                // materialized them. Temporaries live under the breaker
                // memory budget, so the capacity is the budget-capped one.
                let bt = p.breaker_frames();
                let hot_temp = p.residency && bt > 0.0 && pages <= bt;
                let feat = CostFeatures {
                    seq_pages: if charge_scan && !hot_temp { pages } else { 0.0 },
                    ..CostFeatures::default()
                };
                (feat, NodeEst::new(rows, pages, cols, Cost::zero()))
            }
            NodeOp::Filter { pred, input, .. } => {
                let mut child = self.est(input, true)?;
                let ec = self.expr_access_cost(pred, &child.cols);
                let sel = self.selectivity(pred, &child.cols);
                let feat = CostFeatures {
                    deref_pages: self.expr_stream(child.rows, &ec),
                    evals: child.rows * ec.evals,
                    method_units: child.rows * ec.method_units,
                    ..CostFeatures::default()
                };
                child.rows = sane_rows(child.rows * sel);
                child.pages = (child.pages * sel).max(child.rows.min(1.0));
                if let Some(fb) = &mut child.fanout_base {
                    fb.sel *= sel;
                }
                (feat, child)
            }
            NodeOp::IndexSelect { pred, probe, leaf } => {
                // Index access replaces the scan of the entity leaf.
                let mut child = self.est(leaf, false)?;
                let sel = self.selectivity(pred, &child.cols);
                let matches = sane_rows(child.rows * sel);
                let feat = CostFeatures {
                    index_level_ios: probe.nblevels as f64,
                    index_leaf_ios: (matches / 8.0).max(0.0),
                    // Fetch the matched objects' pages (free when the
                    // plan scans the entity anyway, else at most its
                    // pages when it fits in the buffer).
                    deref_pages: self.fetch_stream(probe.entity, child.pages, matches),
                    evals: matches,
                    ..CostFeatures::default()
                };
                child.rows = matches;
                child.pages = (child.pages * sel).max(child.rows.min(1.0));
                (feat, child)
            }
            NodeOp::Project { exprs: cols, input } => {
                let child = self.est(input, true)?;
                // No per-column copy surcharge: the executor counts
                // evaluations only for comparisons and methods, and the
                // calibration residuals showed the old copy floor as a
                // pure phantom (predicted cpu, observed none).
                let mut ec_total = ExprCost::default();
                for (_, e) in cols {
                    ec_total.absorb(self.expr_access_cost(e, &child.cols));
                }
                let feat = CostFeatures {
                    deref_pages: self.expr_stream(child.rows, &ec_total),
                    evals: child.rows * ec_total.evals,
                    method_units: child.rows * ec_total.method_units,
                    ..CostFeatures::default()
                };
                // Existential dedup: projecting back onto columns that
                // existed before a fan-out collapses the multiplied rows
                // (independence assumption over the fanned-out members).
                let mut out_rows = child.rows;
                if let Some(fb) = &child.fanout_base {
                    let mut sources: Vec<String> = Vec::new();
                    for (_, e) in cols {
                        for v in e.vars() {
                            sources.push(v);
                        }
                    }
                    if sources.iter().all(|v| fb.cols.contains(v)) {
                        let pass = 1.0 - (1.0 - fb.sel.clamp(0.0, 1.0)).powf(fb.mult.max(1.0));
                        out_rows = out_rows.min(fb.rows * pass.clamp(0.0, 1.0));
                    }
                }
                let out_rows = sane_rows(out_rows);
                let mut out_cols = HashMap::new();
                for (n, e) in cols {
                    let ty = self.expr_out_type(e, &child.cols);
                    out_cols.insert(
                        n.clone(),
                        ColInfo {
                            ty,
                            resident: false,
                        },
                    );
                }
                let types: Vec<ResolvedType> = out_cols.values().map(|c| c.ty.clone()).collect();
                let pages = self.pages_est(out_rows, &types);
                (feat, NodeEst::new(out_rows, pages, out_cols, child.cost))
            }
            NodeOp::IjDeref {
                on,
                step,
                out,
                input,
                target,
            } => {
                let child = self.est(input, true)?;
                let ec = self.expr_access_cost(on, &child.cols);
                let (fanout, clustered) = match step.class_attr {
                    Some((c, a)) => (m.attr_fanout(c, a).max(0.0), m.is_clustered(c, a)),
                    // Oid-valued relation/temporary field: scalar, never
                    // clustered with the consuming temporary.
                    None => (1.0, false),
                };
                let rows = sane_rows(child.rows * fanout.max(f64::MIN_POSITIVE));
                let per_deref = if clustered { p.clustered_access } else { 1.0 };
                let target_class = step.target_class(m.catalog, m.physical, target)?;
                // Target dereferences are capped at the target entity's
                // cold pages when it fits in the buffer.
                let target_fetch = match m.physical.entities_of_class(target_class).first() {
                    Some(&e) => self.fetch_stream(e, m.class_pages(target_class), rows),
                    None => rows,
                };
                let feat = CostFeatures {
                    deref_pages: self.expr_stream(child.rows, &ec) + target_fetch * per_deref,
                    evals: child.rows * ec.evals,
                    method_units: child.rows * ec.method_units,
                    ..CostFeatures::default()
                };
                let mut cols = child.cols.clone();
                cols.insert(
                    out.to_string(),
                    ColInfo {
                        ty: ResolvedType::Object(target_class),
                        resident: true,
                    },
                );
                let types: Vec<ResolvedType> = cols.values().map(|c| c.ty.clone()).collect();
                let pages = self.pages_est(rows, &types);
                (feat, child.fanned_out(fanout, rows, pages, cols))
            }
            NodeOp::PijLookup {
                index,
                on,
                outs,
                input,
                ..
            } => {
                let child = self.est(input, true)?;
                let desc = m.physical.index(index);
                let IndexKindDesc::Path { path } = desc.kind.clone() else {
                    return Err(CostError::Pt(oorq_pt::PtError::NotAPathIndex));
                };
                let head_class = path[0].0;
                let head_entity = m
                    .physical
                    .entities_of_class(head_class)
                    .first()
                    .copied()
                    .ok_or(CostError::MissingStats)?;
                let head_card = m
                    .stats
                    .entity(head_entity)
                    .map(|s| s.cardinality as f64)
                    .unwrap_or(1.0)
                    .max(1.0);
                let ec = self.expr_access_cost(on, &child.cols);
                let mut fan = 1.0;
                for (c, a) in &path {
                    fan *= m.attr_fanout(*c, *a).max(f64::MIN_POSITIVE);
                }
                let rows = sane_rows(child.rows * fan);
                // Figure 5: ‖C‖ * (nblevels + nbleaves / ‖C₁‖).
                let feat = CostFeatures {
                    deref_pages: self.expr_stream(child.rows, &ec),
                    index_level_ios: child.rows * desc.stats.nblevels as f64,
                    index_leaf_ios: child.rows * desc.stats.nbleaves as f64 / head_card,
                    evals: child.rows * ec.evals,
                    method_units: child.rows * ec.method_units,
                    ..CostFeatures::default()
                };
                let mut cols = child.cols.clone();
                let classes = pij_out_classes(m.catalog, m.physical, index, outs)?;
                for (outn, tc) in outs.iter().zip(classes) {
                    // Index-only: the objects' pages are NOT read.
                    let (ty, resident) = (ResolvedType::Object(tc), false);
                    cols.insert(outn.clone(), ColInfo { ty, resident });
                }
                let types: Vec<ResolvedType> = cols.values().map(|c| c.ty.clone()).collect();
                let pages = self.pages_est(rows, &types);
                (feat, child.fanned_out(fan, rows, pages, cols))
            }
            NodeOp::NlJoin {
                pred,
                rescan_inner,
                left,
                right,
                ..
            } => {
                let l = self.est(left, true)?;
                let r = self.est(right, true)?;
                let mut cols = l.cols.clone();
                for (k, v) in &r.cols {
                    cols.insert(k.clone(), v.clone());
                }
                let sel = self.selectivity(pred, &cols);
                let rows = sane_rows(l.rows * r.rows * sel);
                // Inner rescans. A rescannable (leaf-ish) inner is
                // re-opened through the buffer: free when it fits
                // the buffer, a full rescan per outer row past it.
                // A non-rescannable inner is materialized into a
                // page-store temporary under the breaker memory
                // budget: the build writes its pages once, and
                // every outer row rescans the temporary — hot
                // while it fits the budget-capped capacity, full
                // page re-reads once spilled. The materialization
                // terms are residency-gated so the symbolic §4.6
                // model keeps its shape.
                let bt = p.breaker_frames();
                let mat = p.residency && !rescan_inner;
                let mat_writes = if mat { r.pages } else { 0.0 };
                let cap = if mat { bt } else { p.buffer_frames as f64 };
                let rescan_io = if r.pages <= cap {
                    0.0
                } else if mat {
                    l.rows * r.pages
                } else {
                    (l.rows - 1.0).max(0.0) * r.pages
                };
                let ec = self.expr_access_cost(pred, &cols);
                let pairs = l.rows * r.rows;
                let feat = CostFeatures {
                    seq_pages: rescan_io,
                    deref_pages: self.expr_stream(pairs, &ec),
                    write_pages: mat_writes,
                    evals: pairs * ec.evals.max(1.0),
                    method_units: pairs * ec.method_units,
                    ..CostFeatures::default()
                };
                let types: Vec<ResolvedType> = cols.values().map(|c| c.ty.clone()).collect();
                let pages = self.pages_est(rows, &types);
                (feat, NodeEst::new(rows, pages, cols, l.cost + r.cost))
            }
            NodeOp::IndexJoin {
                pred,
                probe,
                left,
                inner,
            } => {
                let l = self.est(left, true)?;
                let r = self.est(inner, false)?;
                let mut cols = l.cols.clone();
                for (k, v) in &r.cols {
                    cols.insert(k.clone(), v.clone());
                }
                let sel = self.selectivity(pred, &cols);
                let rows = sane_rows(l.rows * r.rows * sel);
                let matches_per_probe = (r.rows * sel * l.rows).max(0.0) / l.rows.max(1.0);
                let feat = CostFeatures {
                    index_level_ios: l.rows * probe.nblevels as f64,
                    index_leaf_ios: l.rows * matches_per_probe,
                    evals: rows.max(l.rows),
                    ..CostFeatures::default()
                };
                let types: Vec<ResolvedType> = cols.values().map(|c| c.ty.clone()).collect();
                let pages = self.pages_est(rows, &types);
                (feat, NodeEst::new(rows, pages, cols, l.cost + r.cost))
            }
            NodeOp::UnionAll { left, right } => {
                let l = self.est(left, true)?;
                let r = self.est(right, true)?;
                let (rows, pages) = (l.rows + r.rows, l.pages + r.pages);
                let est = NodeEst::new(rows, pages, l.cols, l.cost + r.cost);
                (CostFeatures::default(), est)
            }
            NodeOp::FixPoint {
                temp, base, rec, ..
            } => {
                let base_est = self.est(base, true)?;
                // Model the per-iteration delta curve — a fitted profile
                // when one exists, the flat-delta fallback otherwise —
                // and estimate the recursive side once per modeled pass
                // with that pass's delta as the temp's cardinality
                // (Figure 5's Σᵢ cost(Exp(Tᵢ)), per-iteration volumes
                // and all).
                let curve = m.fix_delta_curve(temp, base_est.rows);
                let total_rows = curve.total_rows;
                let saved = self.temp_rows.insert(
                    temp.to_string(),
                    curve.deltas.first().copied().unwrap_or(1.0),
                );
                let rec_mark = self.breakdown.len();
                self.est(rec, true)?;
                let first_len = self.breakdown.len() - rec_mark;
                // The executor's per-operator counters accumulate across
                // iterations, so later passes fold into the first pass's
                // breakdown lines (positional: the same subtree produces
                // the same line sequence each pass). Under residency
                // modeling the page features are buffer aware: a per-pass
                // page footprint that fits in the buffer is re-touched
                // hot on passes 2..n, so only the first pass pays cold
                // reads; CPU work and index probes repeat in full.
                // Sequential pages of temp-backed lines (delta scans,
                // materialized join inners, nested fixpoints) live under
                // the breaker memory budget, so their hot/cold cut is the
                // budget-capped capacity; base-entity pages use the full
                // buffer.
                let (b_base, b_temp) = if p.residency {
                    (p.buffer_frames as f64, p.breaker_frames())
                } else {
                    (0.0, 0.0)
                };
                let first_pages: Vec<(f64, f64, f64)> = self.breakdown[rec_mark..]
                    .iter()
                    .map(|l| {
                        let b_seq = match l.kind {
                            OpKind::TempScan | OpKind::Ej | OpKind::Fix => b_temp,
                            _ => b_base,
                        };
                        (l.feat.seq_pages, l.feat.deref_pages, b_seq)
                    })
                    .collect();
                for d in &curve.deltas[1..] {
                    self.temp_rows.insert(temp.to_string(), *d);
                    let pass_mark = self.breakdown.len();
                    let outer = std::mem::replace(&mut self.folding, true);
                    self.est(rec, true)?;
                    self.folding = outer;
                    debug_assert_eq!(
                        self.breakdown.len() - pass_mark,
                        first_len,
                        "recursive side must produce the same line sequence each pass"
                    );
                    for (i, &(first_seq, first_deref, b_seq)) in first_pages.iter().enumerate() {
                        let src = self.breakdown[pass_mark + i].clone();
                        let mut add = src.feat;
                        if b_seq > 0.0 && first_seq <= b_seq {
                            add.seq_pages = 0.0;
                        }
                        if b_base > 0.0 && first_deref <= b_base {
                            add.deref_pages = 0.0;
                        }
                        let dst = &mut self.breakdown[rec_mark + i];
                        dst.feat += add;
                        dst.rows += src.rows;
                        dst.pages += src.pages;
                    }
                    self.breakdown.truncate(pass_mark);
                }
                match saved {
                    Some(s) => {
                        self.temp_rows.insert(temp.to_string(), s);
                    }
                    None => {
                        self.temp_rows.remove(temp);
                    }
                }
                for line in &mut self.breakdown[rec_mark..] {
                    line.cost = Cost::new(line.feat.io(w), line.feat.cpu(w));
                }
                let iter_cost = self.breakdown[rec_mark..]
                    .iter()
                    .fold(Cost::zero(), |acc, l| acc + l.cost);
                // Materialization writes of the accumulated temporary.
                let fields = m
                    .temp_fields
                    .get(temp)
                    .ok_or_else(|| CostError::UnknownTemp(temp.to_string()))?;
                let types: Vec<ResolvedType> = fields.iter().map(|(_, t)| t.clone()).collect();
                let total_pages = self.pages_est(total_rows, &types);
                // The materialization writes, plus the readback: the
                // breaker streams the accumulated temporary back out of
                // the page store after convergence — all buffer hits
                // while it fits the breaker memory budget, one full
                // sequential re-read once spilled. (Residency-gated so
                // the symbolic §4.6 model keeps its shape.) The dedup
                // bookkeeping stays uncharged: the executor counts
                // comparisons and method calls, not hash probes, so
                // charging it as `evals` was a phantom the calibration
                // residuals flagged.
                let bt = p.breaker_frames();
                let readback = if p.residency && (bt <= 0.0 || total_pages > bt) {
                    total_pages
                } else {
                    0.0
                };
                let own_feat = CostFeatures {
                    seq_pages: readback,
                    write_pages: total_pages,
                    ..CostFeatures::default()
                };
                let mut cols = HashMap::new();
                for (nf, t) in fields {
                    cols.insert(
                        nf.clone(),
                        ColInfo {
                            ty: t.clone(),
                            resident: false,
                        },
                    );
                }
                label = format!("{label} x{:.0}", curve.iterations);
                fix = Some(curve);
                let children = base_est.cost + iter_cost;
                let est = NodeEst::new(total_rows, total_pages, cols, children);
                (own_feat, est)
            }
        };
        let own = Cost::new(feat.io(w), feat.cpu(w));
        est.cost += own;
        self.breakdown.push(NodeCost {
            label,
            kind,
            node: self.node_ids.get(&(pt as *const Pt)).copied(),
            cost: own,
            feat,
            rows: est.rows,
            pages: est.pages,
            fix,
        });
        Ok(est)
    }

    /// Per-row access cost of evaluating an expression: page fetches
    /// for dereferences along paths (fanning out over collections),
    /// method-invocation costs for computed attributes, and one
    /// evaluation per comparison.
    fn expr_access_cost(&self, expr: &Expr, cols: &HashMap<String, ColInfo>) -> ExprCost {
        let m = self.model;
        let mut out = ExprCost::default();
        match expr {
            Expr::True | Expr::Lit(_) | Expr::Var(_) => {}
            Expr::Path { base, steps } => {
                let Some((info, rest)) = bind_path(base, steps, |c| cols.get(c)) else {
                    return out;
                };
                let mut mult = 1.0f64;
                let mut in_hand = info.resident;
                let mut ty = &info.ty;
                for step in rest {
                    let Some(class) = ty.referenced_class() else {
                        break;
                    };
                    if !in_hand {
                        out.io += mult; // fetch the object's page
                        match m.physical.entities_of_class(class).first() {
                            Some(&e) => {
                                if !self.hot.contains(&e) && !self.scan_resident.contains(&e) {
                                    out.footprint += m
                                        .stats
                                        .entity(e)
                                        .map(|s| s.pages as f64)
                                        .unwrap_or(f64::INFINITY);
                                }
                                out.touched.push(e);
                            }
                            None => out.footprint += f64::INFINITY,
                        }
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

    /// Output type of a projection expression (best effort).
    fn expr_out_type(&self, expr: &Expr, cols: &HashMap<String, ColInfo>) -> ResolvedType {
        let env: HashMap<String, ResolvedType> = cols
            .iter()
            .map(|(k, v)| (k.clone(), v.ty.clone()))
            .collect();
        oorq_pt::type_of_column_expr(self.model.catalog, expr, &env)
            .unwrap_or(ResolvedType::Atomic(oorq_schema::AtomicType::Int))
    }

    /// Selectivity of a predicate, guaranteed finite and in `[0, 1]`:
    /// every composite is clamped and a degenerate (NaN) leaf estimate
    /// falls back to the configured default, so a selection provably
    /// never grows its input (CM003 by construction).
    fn selectivity(&self, expr: &Expr, cols: &HashMap<String, ColInfo>) -> f64 {
        let s = self.selectivity_raw(expr, cols);
        if s.is_finite() {
            s.clamp(0.0, 1.0)
        } else {
            self.model.params.default_selectivity
        }
    }

    fn selectivity_raw(&self, expr: &Expr, cols: &HashMap<String, ColInfo>) -> f64 {
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
            Expr::Cmp { op, lhs, rhs } => {
                let dl = self.expr_distinct(lhs, cols);
                let dr = self.expr_distinct(rhs, cols);
                match op {
                    CmpOp::Eq => {
                        let per_member = match (dl, dr) {
                            (Some(a), Some(b)) => 1.0 / a.max(b).max(1.0),
                            (Some(d), None) | (None, Some(d)) => 1.0 / d.max(1.0),
                            (None, None) => self.model.params.default_selectivity,
                        };
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
                    CmpOp::Ne => match dl.or(dr) {
                        Some(d) => 1.0 - 1.0 / d.max(1.0),
                        None => 1.0 - self.model.params.default_selectivity,
                    },
                    _ => 1.0 / 3.0,
                }
            }
            _ => self.model.params.default_selectivity,
        }
    }

    /// Total collection fan-out of a path expression (product of the
    /// average member counts of its collection-valued steps); 1.0 for
    /// non-paths.
    fn expr_fanout(&self, expr: &Expr, cols: &HashMap<String, ColInfo>) -> f64 {
        let m = self.model;
        let Expr::Path { base, steps } = expr else {
            return 1.0;
        };
        let Some((info, rest)) = bind_path(base, steps, |c| cols.get(c)) else {
            return 1.0;
        };
        let mut ty = &info.ty;
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

    /// Distinct-value count of an expression when it resolves to an
    /// attribute or a column; `None` for constants and computed values.
    fn expr_distinct(&self, expr: &Expr, cols: &HashMap<String, ColInfo>) -> Option<f64> {
        let m = self.model;
        let (info, rest) = match expr {
            Expr::Var(v) => (cols.get(v)?, &[][..]),
            Expr::Path { base, steps } => bind_path(base, steps, |c| cols.get(c))?,
            _ => return None,
        };
        let mut ty = &info.ty;
        if rest.is_empty() {
            let e = m
                .physical
                .entities_of_class(ty.referenced_class()?)
                .first()?;
            return Some(m.stats.entity(*e)?.cardinality as f64);
        }
        let mut last: Option<f64> = None;
        for step in rest {
            let Some(class) = ty.referenced_class() else {
                return last;
            };
            let (aid, attr) = m.catalog.attr(class, step)?;
            last = Some(m.attr_distinct(class, aid));
            ty = &attr.ty;
        }
        last
    }
}
