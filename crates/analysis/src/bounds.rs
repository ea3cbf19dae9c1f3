//! Abstract interpretation of processing trees: sound per-node interval
//! bounds on what the executor counts — cardinality, page accesses,
//! writes and fixpoint passes. It prices nothing; plans are costed by
//! `oorq_cost` alone.
//!
//! The analyzer walks the resolved plan ([`oorq_pt::resolve`]) — the
//! ids, operators and output columns lowering itself builds from — and
//! for every node that executes as an operator derives intervals guaranteed
//! to contain the executor's *exclusive* per-operator counters:
//!
//! - `rows_total` ⊇ observed `rows_out`;
//! - `data()` (sequential + dereference pages) ⊇ observed
//!   `page_reads + page_hits`;
//! - `index()` ⊇ observed `index_reads`;
//! - `writes()` ⊇ observed `page_writes`;
//! - `passes` (fixpoints only) ⊇ the observed semi-naive iteration
//!   count of every delta curve.
//!
//! A replayed operand ([`oorq_pt::replayed`]) derives its rows on the
//! first pass of a run and reads them back on every later one, so its
//! children do less than these intervals allow and it does a little
//! more: its page bounds also admit one write per row and one read-back
//! per row per opening.
//!
//! Violations of this contract are surfaced by [`crate::check_observed`]
//! as `AB001`–`AB003` lints and (in debug builds) break the executor's
//! soundness assertion.
//!
//! Termination of fixpoints is bounded by the *finite key space*
//! argument: the accumulator holds distinct rows, so when every field of
//! the temporary ranges over a finite domain (object fields range over
//! the class extent plus `Null`, booleans over `{true, false, Null}`),
//! the number of distinct rows — and hence the number of non-empty
//! deltas, and hence the semi-naive pass count — is bounded by the
//! product of the field domains. An unbounded field degrades the pass
//! bound to the executor's iteration cap (`AB005`).
//!
//! Every bound is built with directed rounding (see [`Interval`]), so
//! float arithmetic never rounds a true count out of its interval.

use std::collections::HashMap;

use oorq_cost::CostParams;
use oorq_lint::{LintCode, LintReport};
use oorq_pt::{replayed, resolve, IndexProbe, Node, NodeOp, Pt, PtError};
use oorq_query::{bind_path, Expr, Literal};
use oorq_schema::{AtomicType, AttrId, AttributeKind, Catalog, ClassId, ResolvedType};
use oorq_storage::{DbStats, EntityId, EntitySource, IndexKindDesc, PhysicalSchema};

use crate::interval::{next_up, Interval};

/// Analyzer knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerConfig {
    /// The executor's fixpoint iteration cap: a run exceeding it aborts
    /// with `FixpointDiverged`, so the cap is a sound pass bound for
    /// every *completed* run. Must match the executing
    /// `ExecConfig::max_fix_iterations` for the soundness contract to
    /// hold; the default is stated here, and `ExecConfig::default`
    /// takes it.
    pub max_fix_iterations: u64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            max_fix_iterations: 10_000,
        }
    }
}

/// Interval bounds on one operator's exclusive feature counters
/// (totals over the whole query, all opens included).
#[derive(Debug, Clone, Copy)]
pub struct FeatBounds {
    /// Sequentially scanned data pages.
    pub seq: Interval,
    /// Randomly fetched data pages (object dereference, predicate path
    /// traversal, fetching index matches).
    pub deref: Interval,
    /// Index page accesses (levels and leaves combined — the executor
    /// counts them as one `index_reads` counter).
    pub index: Interval,
    /// Temporary pages written.
    pub writes: Interval,
}

impl FeatBounds {
    /// All-zero features (an operator with no own work).
    pub fn zero() -> FeatBounds {
        FeatBounds {
            seq: Interval::zero(),
            deref: Interval::zero(),
            index: Interval::zero(),
            writes: Interval::zero(),
        }
    }
}

/// The static bounds of one PT node.
#[derive(Debug, Clone)]
pub struct NodeBounds {
    /// Pre-order index of the node (the join key against
    /// `OpMeta::pt_node`).
    pub pt_node: usize,
    /// Display label ([`NodeOp::label`]; parenthesized when not
    /// `lowered`).
    pub label: String,
    /// False for nodes that do not execute as operators
    /// (absorbed by their parent: the entity replaced by an index probe, an
    /// implicit join's target, a fixpoint body's union) — their bounds
    /// are all zero.
    pub lowered: bool,
    /// Subtree size in nodes (pre-order ids `pt_node..pt_node+size`).
    pub size: usize,
    /// How many times the operator is opened over the whole query.
    pub opens: Interval,
    /// Rows emitted per open.
    pub rows_once: Interval,
    /// Rows emitted over the whole query (all opens).
    pub rows_total: Interval,
    /// Exclusive feature totals.
    pub feats: FeatBounds,
    /// Fixpoints only: bound on the semi-naive pass count *per open*.
    pub passes: Option<Interval>,
}

impl NodeBounds {
    /// Bound on observed data-page accesses (`page_reads + page_hits`).
    pub fn data(&self) -> Interval {
        self.feats.seq.add(self.feats.deref)
    }

    /// Bound on observed `index_reads`.
    pub fn index(&self) -> Interval {
        self.feats.index
    }

    /// Bound on observed `page_writes`.
    pub fn writes(&self) -> Interval {
        self.feats.writes
    }

    fn zero(pt_node: usize, label: String, size: usize) -> NodeBounds {
        NodeBounds {
            pt_node,
            label,
            lowered: false,
            size,
            opens: Interval::zero(),
            rows_once: Interval::zero(),
            rows_total: Interval::zero(),
            feats: FeatBounds::zero(),
            passes: None,
        }
    }
}

/// The result of analyzing one PT.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-node bounds, indexed by pre-order id.
    pub nodes: Vec<NodeBounds>,
    /// Diagnostics raised during analysis (`AB005`–`AB007`).
    pub report: LintReport,
}

impl Analysis {
    /// The bounds of the node with the given pre-order id.
    pub fn node(&self, pt_node: usize) -> Option<&NodeBounds> {
        self.nodes.get(pt_node)
    }
}

/// The static plan analyzer. Borrowed context: catalog, physical schema,
/// measured statistics.
pub struct Analyzer<'a> {
    /// Conceptual catalog.
    pub catalog: &'a Catalog,
    /// Physical schema.
    pub physical: &'a PhysicalSchema,
    /// Measured database statistics (the `max_fanout`/`max_dup` columns
    /// are what makes the upper bounds finite).
    pub stats: &'a DbStats,
    /// Kept for `benchmark/src/traced.rs` until a `benchmark` PR drops
    /// it: its struct literal names the field, which nothing reads (the
    /// analyzer prices nothing).
    pub params: CostParams,
    /// Knobs.
    pub config: AnalyzerConfig,
}

impl<'a> Analyzer<'a> {
    /// New analyzer with default knobs.
    pub fn new(catalog: &'a Catalog, physical: &'a PhysicalSchema, stats: &'a DbStats) -> Self {
        Analyzer {
            catalog,
            physical,
            stats,
            params: CostParams::default(),
            config: AnalyzerConfig::default(),
        }
    }

    /// Kept for `benchmark/src/traced.rs` until a `benchmark` change drops
    /// it (it passes an always-empty map): [`Analyzer::analyze`].
    pub fn analyze_with_temps(
        &self,
        pt: &Pt,
        _temp_fields: HashMap<String, Vec<(String, ResolvedType)>>,
    ) -> Result<Analysis, PtError> {
        self.analyze(pt)
    }

    /// Analyze a plan. Each fixpoint scopes its own temporary.
    pub fn analyze(&self, pt: &Pt) -> Result<Analysis, PtError> {
        let plan = resolve(self.catalog, self.physical, None, pt)?;
        let mut walk = Walk {
            az: self,
            plan: &plan,
            replayed: replayed(&plan),
            temp_info: HashMap::new(),
            nodes: vec![None; plan.len()],
            report: LintReport::new(),
        };
        walk.go(0, Interval::exact(1.0))?;
        let mut report = walk.report;
        // A node nothing executed is absorbed by its parent: zero
        // bounds, label parenthesized.
        let absorbed = |id: usize| {
            let label = plan[id].op.label(self.catalog, self.physical);
            NodeBounds::zero(id, format!("({label})"), plan[id].size)
        };
        let nodes = walk.nodes.into_iter().enumerate();
        let nodes: Vec<NodeBounds> = nodes
            .map(|(id, n)| n.unwrap_or_else(|| absorbed(id)))
            .collect();
        for n in &nodes {
            let degenerate = n.rows_once.is_degenerate()
                || n.rows_total.is_degenerate()
                || n.opens.is_degenerate()
                || n.data().is_degenerate()
                || n.index().is_degenerate()
                || n.writes().is_degenerate()
                || n.passes.is_some_and(|p| p.is_degenerate());
            if degenerate {
                report.push(
                    LintCode::DegenerateInterval,
                    format!("node {} ({})", n.pt_node, n.label),
                    "analysis derived lo > hi or NaN; the bound is unusable".to_string(),
                );
            }
        }
        Ok(Analysis { nodes, report })
    }
}

/// Upper bounds on what evaluating one expression on one row touches —
/// every field is a sound `hi` (the matching lower bounds are all zero:
/// `And`/`Or` short-circuit and comparisons stop at the first true
/// member pair, so nothing below the top-level count is guaranteed).
#[derive(Debug, Clone, Copy)]
struct ExprCost {
    /// Data pages fetched by path traversal (`attr_ref`).
    fetches: f64,
    /// Members of the result value (fan-out under existential
    /// semantics).
    members: f64,
}

impl ExprCost {
    fn leaf(members: f64) -> ExprCost {
        ExprCost {
            fetches: 0.0,
            members,
        }
    }

    fn top() -> ExprCost {
        ExprCost {
            fetches: f64::INFINITY,
            members: f64::INFINITY,
        }
    }

    fn merge(self, o: ExprCost, members: f64) -> ExprCost {
        ExprCost {
            fetches: add_up(self.fetches, o.fetches),
            members,
        }
    }
}

/// Data-page fetches of one `touch_object`: the page of the object's
/// record in its class's extension.
const TOUCH_PAGES: f64 = 1.0;

/// `a + b` rounded toward `+∞`.
fn add_up(a: f64, b: f64) -> f64 {
    next_up(a + b)
}

/// `a · b` rounded toward `+∞`, with `0 · ∞ = 0` (an unbounded factor
/// of a quantity that never occurs contributes nothing).
fn mul_up(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        next_up(a * b)
    }
}

/// A node's output as an expression over it sees it: the plan's names
/// and types beside the analyzer's own per-column bound, `members` — an
/// upper bound on the members of one row's value.
#[derive(Clone, Copy)]
struct Cols<'c> {
    cols: &'c [(String, ResolvedType)],
    members: &'c [f64],
}

impl<'c> Cols<'c> {
    fn get(&self, name: &str) -> Option<(&'c ResolvedType, f64)> {
        let i = self.cols.iter().position(|(n, _)| n == name)?;
        Some((&self.cols[i].1, self.members[i]))
    }
}

/// What a subtree feeds its parent.
struct Out {
    /// Per output column of the node (see [`Cols`]).
    members: Vec<f64>,
    rows_once: Interval,
    rows_total: Interval,
}

/// What the analyzer knows about a fixpoint temporary in scope.
struct TempInfo {
    /// Bound on the distinct rows ever accumulated per fixpoint open
    /// (the finite-key-space bound; `∞` when unbounded).
    k_hi: f64,
    /// While analyzing the recursive leg: bound on the *total* rows all
    /// delta scans of this temporary stream over the whole query —
    /// every distinct row enters the delta exactly once, so the sum of
    /// delta sizes over all passes is at most `k_hi` per fixpoint open.
    total_cap: Option<f64>,
}

struct Walk<'a, 'b> {
    az: &'b Analyzer<'a>,
    /// The plan being analyzed, resolved: ids, operators and typed output
    /// columns come with each node.
    plan: &'b [Node<'b>],
    /// [`replayed`] of `plan`.
    replayed: Vec<bool>,
    temp_info: HashMap<String, TempInfo>,
    nodes: Vec<Option<NodeBounds>>,
    report: LintReport,
}

impl Walk<'_, '_> {
    fn label(&self, id: usize) -> String {
        self.plan[id].op.label(self.az.catalog, self.az.physical)
    }

    /// Record a lowered node's bounds and hand its parent what it feeds
    /// it.
    #[allow(clippy::too_many_arguments)]
    fn lowered(
        &mut self,
        id: usize,
        opens: Interval,
        members: Vec<f64>,
        rows_once: Interval,
        rows_total: Interval,
        mut feats: FeatBounds,
        passes: Option<Interval>,
    ) -> Out {
        if self.replayed[id] {
            // At most one page per row an opening hands up: written by an
            // opening that derives them, read back by one that replays.
            let replay = Interval::up_to(mul_up(rows_once.hi, opens.hi));
            feats.seq = feats.seq.add(replay);
            feats.writes = feats.writes.add(replay);
        }
        self.nodes[id] = Some(NodeBounds {
            pt_node: id,
            label: self.label(id),
            lowered: true,
            size: self.plan[id].size,
            opens,
            rows_once,
            rows_total,
            feats,
            passes,
        });
        Out {
            members,
            rows_once,
            rows_total,
        }
    }

    // ------------------------------------------------------------------
    // Statistics helpers (all upper bounds unless noted)
    // ------------------------------------------------------------------

    /// Upper bound on the rows whose oid has *exactly* class `c`: its
    /// extension's cardinality.
    fn class_rows_hi(&self, c: ClassId) -> f64 {
        let Some(e) = self.az.physical.class_entity(c) else {
            return 0.0;
        };
        match self.az.stats.entity(e) {
            Some(s) => add_up(0.0, s.cardinality as f64),
            None => f64::INFINITY,
        }
    }

    /// Size of the key space of an `Object(c)` field: any oid of `c` or
    /// a subclass, plus `Null`.
    fn key_space_rows(&self, c: ClassId) -> f64 {
        let mut total = 1.0; // Null
        for sub in self.az.catalog.subclasses_of(c) {
            total = add_up(total, self.class_rows_hi(sub));
        }
        total
    }

    /// Upper bound on the records of class `c` (exactly) sharing one
    /// value of `attr` — bounds the hits of an equality index probe
    /// after the executor's exact-class filter.
    fn attr_max_dup(&self, c: ClassId, attr: AttrId) -> f64 {
        let Some(e) = self.az.physical.class_entity(c) else {
            return 0.0;
        };
        let stats = self.az.stats.entity(e);
        match stats.and_then(|s| s.attrs.get(attr.0 as usize)) {
            Some(a) => add_up(0.0, a.max_dup as f64),
            None => f64::INFINITY,
        }
    }

    /// Upper bound on the hits of one index probe. They are filtered to
    /// the exact class before any page is touched, so object fetches are
    /// bounded by the worst per-key duplication of the attribute within
    /// that class.
    fn probe_hits_hi(&self, probe: &IndexProbe) -> f64 {
        let dup = match self.az.catalog.attr(probe.class, probe.attr) {
            Some((aid, _)) => self.attr_max_dup(probe.class, aid),
            None => f64::INFINITY,
        };
        dup.min(self.class_rows_hi(probe.class))
    }

    /// Upper bound on the members of one row's `attr` value, over `c`
    /// and its subclasses (a column statically typed `Object(c)` holds
    /// subclass oids too). Computed attributes are bounded by their
    /// type; stored attributes by the measured `max_fanout`.
    fn attr_fanout_hi(&self, c: ClassId, name: &str) -> f64 {
        let mut best = 0.0f64;
        let mut found = false;
        for sub in self.az.catalog.subclasses_of(c) {
            let Some((aid, attr)) = self.az.catalog.attr(sub, name) else {
                continue;
            };
            found = true;
            let fallback = if attr.ty.is_collection() {
                f64::INFINITY
            } else {
                1.0
            };
            if matches!(attr.kind, AttributeKind::Computed { .. }) {
                best = best.max(fallback);
                continue;
            }
            let stats = self.az.physical.class_entity(sub);
            let stats = stats.and_then(|e| self.az.stats.entity(e)?.attrs.get(aid.0 as usize));
            best = best.max(stats.map_or(fallback, |a| a.max_fanout as f64));
        }
        if found {
            best
        } else {
            f64::INFINITY
        }
    }

    // ------------------------------------------------------------------
    // Expression bounds
    // ------------------------------------------------------------------

    /// Per-evaluation upper bounds of an expression over the given
    /// columns (follows the executor's `Bound::eval` step for step).
    fn expr_bounds(&self, e: &Expr, cols: Cols<'_>) -> ExprCost {
        match e {
            Expr::True => ExprCost::leaf(1.0),
            Expr::Lit(Literal::Null) => ExprCost::leaf(0.0),
            Expr::Lit(_) => ExprCost::leaf(1.0),
            Expr::Var(v) => match cols.get(v) {
                Some((_, members)) => ExprCost::leaf(members),
                None => ExprCost::top(),
            },
            Expr::Path { base, steps } => self.path_bounds(base, steps, cols),
            Expr::Cmp { lhs: l, rhs: r, .. }
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Add(l, r) => {
                let a = self.expr_bounds(l, cols);
                let b = self.expr_bounds(r, cols);
                a.merge(b, 1.0)
            }
            Expr::Not(inner) => {
                let mut c = self.expr_bounds(inner, cols);
                c.members = 1.0;
                c
            }
        }
    }

    fn path_bounds(&self, base: &str, steps: &[String], cols: Cols<'_>) -> ExprCost {
        let Some(((start, members), rest)) = bind_path(base, steps, |c| cols.get(c)) else {
            return ExprCost::top();
        };
        let mut cost = ExprCost::leaf(members);
        let mut ty = start.clone();
        for step in rest {
            let Some(class) = ty.referenced_class() else {
                // Non-oid members are skipped by the evaluator: the
                // traversal dead-ends with no further work.
                cost.members = 0.0;
                return cost;
            };
            // The runtime class of a member may be any subclass; take
            // the worst case over all of them.
            let mut any_stored = false;
            let mut next_ty = None;
            let mut found = false;
            for sub in self.az.catalog.subclasses_of(class) {
                let Some((_aid, attr)) = self.az.catalog.attr(sub, step) else {
                    continue;
                };
                found = true;
                any_stored |= matches!(attr.kind, AttributeKind::Stored);
                next_ty = Some(attr.ty.clone());
            }
            if !found {
                return ExprCost::top();
            }
            if any_stored {
                cost.fetches = add_up(cost.fetches, cost.members);
            }
            cost.members = mul_up(cost.members, self.attr_fanout_hi(class, step));
            ty = next_ty.expect("found implies type");
        }
        cost
    }

    fn members_of_field(ty: &ResolvedType) -> f64 {
        if ty.is_collection() {
            f64::INFINITY
        } else {
            1.0
        }
    }

    // ------------------------------------------------------------------
    // The transfer functions
    // ------------------------------------------------------------------

    /// Bound node `id` of the resolved plan, opened `opens` times.
    fn go(&mut self, id: usize, opens: Interval) -> Result<Out, PtError> {
        let plan = self.plan;
        let op = &plan[id].op;
        match op {
            &NodeOp::EntityScan { entity, .. } => Ok(self.go_entity(id, entity, opens)),
            NodeOp::TempScan { name, .. } => Ok(self.go_temp(id, name, opens)),
            &NodeOp::Filter { pred, input, .. } => self.go_filter(id, input, pred, opens),
            NodeOp::IndexSelect { pred, probe, .. } => {
                Ok(self.go_index_select(id, pred, probe, opens))
            }
            &NodeOp::Project { exprs, input } => self.go_proj(id, exprs, input, opens),
            &NodeOp::IjDeref { on, input, .. } => self.go_ij(id, on, input, opens),
            &NodeOp::PijLookup {
                index,
                on,
                outs,
                input,
                ..
            } => self.go_pij(id, index, on, outs.len(), input, opens),
            &NodeOp::NlJoin {
                pred,
                rescan_inner,
                left,
                right,
                ..
            } => self.go_nl(id, pred, rescan_inner, left, right, opens),
            &NodeOp::UnionAll { left, right } => self.go_union(id, left, right, opens),
            &NodeOp::FixPoint {
                temp, base, rec, ..
            } => self.go_fix(id, temp, base, rec, opens),
        }
    }

    fn go_entity(&mut self, id: usize, entity: EntityId, opens: Interval) -> Out {
        let stats = self.az.stats.entity(entity);
        let (card, pages) = match stats {
            Some(s) => (
                Interval::exact_u64(s.cardinality),
                Interval::exact_u64(s.pages),
            ),
            None => (Interval::top(), Interval::top()),
        };
        // An object column holds one oid; a relation's field as many
        // members as the widest value measured.
        let members = match self.az.physical.entity(entity).source {
            EntitySource::Class(_) => vec![1.0],
            _ => {
                let field = |(i, (_, t)): (usize, &(String, ResolvedType))| match stats
                    .and_then(|s| s.attrs.get(i))
                {
                    Some(a) => a.max_fanout as f64,
                    None => Self::members_of_field(t),
                };
                self.plan[id].cols.iter().enumerate().map(field).collect()
            }
        };
        // Full-drain property: every open sequentially reads the whole
        // extent, so pages and rows per open are exact.
        let rows_once = card;
        let rows_total = rows_once.mul(opens);
        let feats = FeatBounds {
            seq: pages.mul(opens),
            ..FeatBounds::zero()
        };
        self.lowered(id, opens, members, rows_once, rows_total, feats, None)
    }

    /// One member per scalar field of a temporary's shape.
    fn members_of_fields(&self, id: usize) -> Vec<f64> {
        let cols = self.plan[id].cols.iter();
        cols.map(|(_, t)| Self::members_of_field(t)).collect()
    }

    fn go_temp(&mut self, id: usize, name: &str, opens: Interval) -> Out {
        let info = self.temp_info.get(name);
        let k_hi = info.map(|i| i.k_hi).unwrap_or(f64::INFINITY);
        let total_cap = info.and_then(|i| i.total_cap);
        let rows_once = Interval::up_to(k_hi);
        let mut rows_total = rows_once.mul(opens);
        if let Some(cap) = total_cap {
            // Semi-naive tightening: summed over all passes, the delta
            // scans stream each distinct row once per fixpoint open.
            rows_total = rows_total.cap_hi(cap);
        }
        // Every temp page holds at least one row, so page reads are
        // bounded by rows.
        let feats = FeatBounds {
            seq: Interval::up_to(rows_total.hi),
            ..FeatBounds::zero()
        };
        let members = self.members_of_fields(id);
        self.lowered(id, opens, members, rows_once, rows_total, feats, None)
    }

    fn go_index_select(
        &mut self,
        id: usize,
        pred: &Expr,
        probe: &IndexProbe,
        opens: Interval,
    ) -> Out {
        let nblevels = probe.nblevels as f64;
        let members = vec![1.0];
        let cols = Cols {
            cols: &self.plan[id].cols,
            members: &members,
        };
        let pc = self.expr_bounds(pred, cols);
        let hits = self.probe_hits_hi(probe);
        let rows_once = Interval::up_to(hits);
        let rows_total = rows_once.mul(opens);
        let feats = FeatBounds {
            // The B+-tree descent runs unconditionally at every open.
            index: Interval::exact(nblevels).mul(opens),
            deref: Interval::up_to(mul_up(hits, add_up(TOUCH_PAGES, pc.fetches))).mul(opens),
            ..FeatBounds::zero()
        };
        self.lowered(id, opens, members, rows_once, rows_total, feats, None)
    }

    /// What an expression over the output of node `of`, bounded as
    /// `out`, sees.
    fn over<'c>(&'c self, of: usize, out: &'c Out) -> Cols<'c> {
        Cols {
            cols: &self.plan[of].cols,
            members: &out.members,
        }
    }

    fn go_filter(
        &mut self,
        id: usize,
        input: usize,
        pred: &Expr,
        opens: Interval,
    ) -> Result<Out, PtError> {
        let child = self.go(input, opens)?;
        let pc = self.expr_bounds(pred, self.over(input, &child));
        let rows_once = Interval::up_to(child.rows_once.hi);
        let rows_total = Interval::up_to(child.rows_total.hi);
        let feats = FeatBounds {
            deref: Interval::up_to(mul_up(child.rows_total.hi, pc.fetches)),
            ..FeatBounds::zero()
        };
        Ok(self.lowered(id, opens, child.members, rows_once, rows_total, feats, None))
    }

    fn go_proj(
        &mut self,
        id: usize,
        exprs: &[(String, Expr)],
        input: usize,
        opens: Interval,
    ) -> Result<Out, PtError> {
        let child = self.go(input, opens)?;
        let mut members = Vec::with_capacity(exprs.len());
        let mut fetches = 0.0;
        for (_, e) in exprs {
            let ec = self.expr_bounds(e, self.over(input, &child));
            fetches = add_up(fetches, ec.fetches);
            members.push(ec.members);
        }
        // Streaming dedup: at least one distinct row per non-empty open,
        // at most the input cardinality.
        let lo = if child.rows_once.lo >= 1.0 { 1.0 } else { 0.0 };
        let rows_once = Interval::make(lo, child.rows_once.hi);
        let rows_total = rows_once.mul(opens).cap_hi(child.rows_total.hi);
        let feats = FeatBounds {
            deref: Interval::up_to(mul_up(child.rows_total.hi, fetches)),
            ..FeatBounds::zero()
        };
        Ok(self.lowered(id, opens, members, rows_once, rows_total, feats, None))
    }

    fn go_ij(
        &mut self,
        id: usize,
        on: &Expr,
        input: usize,
        opens: Interval,
    ) -> Result<Out, PtError> {
        let mut child = self.go(input, opens)?;
        let oc = self.expr_bounds(on, self.over(input, &child));
        let m = oc.members;
        let rows_once = Interval::up_to(mul_up(child.rows_once.hi, m));
        let rows_total = Interval::up_to(mul_up(child.rows_total.hi, m));
        let feats = FeatBounds {
            deref: Interval::up_to(mul_up(
                child.rows_total.hi,
                add_up(oc.fetches, mul_up(m, TOUCH_PAGES)),
            )),
            ..FeatBounds::zero()
        };
        child.members.push(1.0);
        Ok(self.lowered(id, opens, child.members, rows_once, rows_total, feats, None))
    }

    fn go_pij(
        &mut self,
        id: usize,
        index: oorq_storage::IndexId,
        on: &Expr,
        outs: usize,
        input: usize,
        opens: Interval,
    ) -> Result<Out, PtError> {
        let mut child = self.go(input, opens)?;
        let desc = self
            .az
            .physical
            .indexes()
            .get(index.0 as usize)
            .ok_or(PtError::NotAPathIndex)?;
        let IndexKindDesc::Path { path } = &desc.kind else {
            return Err(PtError::NotAPathIndex);
        };
        let nbl = desc.stats.nblevels as f64;
        // Path tuples reachable from one head oid: product of the step
        // fan-outs.
        let mut tails = 1.0f64;
        for (cls, attr) in path {
            let name = &self.az.catalog.attribute(*cls, *attr).name;
            tails = mul_up(tails, self.attr_fanout_hi(*cls, name));
        }
        let oc = self.expr_bounds(on, self.over(input, &child));
        let m = oc.members;
        let rows_once = Interval::up_to(mul_up(child.rows_once.hi, mul_up(m, tails)));
        let rows_total = Interval::up_to(mul_up(child.rows_total.hi, mul_up(m, tails)));
        // One probe per head oid: nblevels descent plus extra leaf pages
        // for long result lists (`ceil(hits/8) - 1 <= hits/8`).
        let probe = add_up(nbl, mul_up(tails, 0.125));
        let feats = FeatBounds {
            index: Interval::up_to(mul_up(child.rows_total.hi, mul_up(m, probe))),
            deref: Interval::up_to(mul_up(child.rows_total.hi, oc.fetches)),
            ..FeatBounds::zero()
        };
        child.members.extend(std::iter::repeat_n(1.0, outs));
        Ok(self.lowered(id, opens, child.members, rows_once, rows_total, feats, None))
    }

    fn go_nl(
        &mut self,
        id: usize,
        pred: &Expr,
        rescan: bool,
        left: usize,
        right: usize,
        opens: Interval,
    ) -> Result<Out, PtError> {
        let mut l = self.go(left, opens)?;
        // Honest rescan re-opens the inner per outer row; a
        // non-rescannable inner is materialized once per own open.
        let r_opens = if rescan { l.rows_total } else { opens };
        let r = self.go(right, r_opens)?;
        let pairs = l.rows_total.mul(r.rows_once);
        l.members.extend(r.members);
        let pc = self.expr_bounds(pred, self.over(id, &l));
        let rows_once = Interval::up_to(mul_up(l.rows_once.hi, r.rows_once.hi));
        let rows_total = Interval::up_to(pairs.hi);
        // A materialized (non-rescannable) inner is the join's own work:
        // it is written once per open into a page-store temporary (at
        // most one page per row), then re-scanned once per outer row —
        // page hits while resident, physical reads once the memory
        // budget spills it; `data()` bounds reads+hits so both regimes
        // sit under the same interval. Lower bounds stay 0 (a one-page
        // inner may stay resident and an empty one writes nothing):
        // spilling widens intervals, never inverts them.
        let (mat_writes, mat_rescans) = if rescan {
            (Interval::zero(), Interval::zero())
        } else {
            (
                Interval::up_to(mul_up(r.rows_once.hi, opens.hi)),
                Interval::up_to(pairs.hi),
            )
        };
        let feats = FeatBounds {
            seq: mat_rescans,
            writes: mat_writes,
            deref: Interval::up_to(mul_up(pairs.hi, pc.fetches)),
            ..FeatBounds::zero()
        };
        Ok(self.lowered(id, opens, l.members, rows_once, rows_total, feats, None))
    }

    fn go_union(
        &mut self,
        id: usize,
        left: usize,
        right: usize,
        opens: Interval,
    ) -> Result<Out, PtError> {
        // Both legs are fully drained per open (the right leg is opened
        // when the left exhausts); the union itself does no own work.
        let l = self.go(left, opens)?;
        let r = self.go(right, opens)?;
        let rows_once = l.rows_once.add(r.rows_once);
        let rows_total = l.rows_total.add(r.rows_total);
        let feats = FeatBounds::zero();
        Ok(self.lowered(id, opens, l.members, rows_once, rows_total, feats, None))
    }

    /// Size of the key space of one temporary field (`∞` = unbounded).
    fn field_key_space(&self, ty: &ResolvedType) -> f64 {
        match ty {
            ResolvedType::Object(c) => self.key_space_rows(*c),
            ResolvedType::Atomic(AtomicType::Bool) => 3.0, // true, false, Null
            _ => f64::INFINITY,
        }
    }

    fn go_fix(
        &mut self,
        id: usize,
        temp: &str,
        base: usize,
        rec: usize,
        opens: Interval,
    ) -> Result<Out, PtError> {
        let label = self.label(id);
        // Finite key space: the accumulator holds *distinct* rows, so
        // its size — and the pass count — is bounded by the product of
        // the field domains of the shape the fixpoint hands up.
        let mut kspace = 1.0f64;
        let mut unbounded: Option<&str> = None;
        for (n, ty) in &self.plan[id].cols {
            let s = self.field_key_space(ty);
            if s.is_infinite() && unbounded.is_none() {
                unbounded = Some(n);
            }
            kspace = mul_up(kspace, s);
        }
        if let Some(f) = unbounded {
            self.report.push(
                LintCode::FixKeySpaceUnbounded,
                label.clone(),
                format!(
                    "field `{f}` ranges over an unbounded domain; the pass bound \
                     falls back to the iteration cap ({})",
                    self.az.config.max_fix_iterations
                ),
            );
        }

        let base_out = self.go(base, opens)?;
        if base_out.rows_total.hi == 0.0 {
            self.report.push(
                LintCode::FixProvablyEmpty,
                label,
                "the base leg provably produces no rows; the fixpoint is empty".to_string(),
            );
        }
        let k_lo = if base_out.rows_once.lo >= 1.0 {
            1.0
        } else {
            0.0
        };
        let k_hi = kspace;
        // Every pass consumes a non-empty delta, and each distinct row
        // enters the delta exactly once — so passes <= k_hi. The
        // executor aborts past its cap, bounding completed runs.
        let cap = self.az.config.max_fix_iterations as f64;
        let passes = Interval::make(k_lo, cap.min(k_hi));
        self.temp_info.insert(
            temp.to_string(),
            TempInfo {
                k_hi,
                total_cap: Some(mul_up(k_hi, opens.hi)),
            },
        );
        let rec_opens = opens.mul(passes);
        let _rec_out = self.go(rec, rec_opens)?;
        if let Some(info) = self.temp_info.get_mut(temp) {
            // Outside the recursive leg the temporary scans the full
            // accumulator; the per-pass delta cap no longer applies.
            info.total_cap = None;
        }

        let rows_once = Interval::make(k_lo, k_hi);
        let rows_total = rows_once.mul(opens);
        // Each distinct row is appended to the accumulator and the delta
        // (two appends, each writing at most one page); a non-empty seed
        // writes the first page of both.
        let writes_once = Interval::make(2.0 * k_lo, mul_up(2.0, k_hi));
        // After convergence the answer streams back out of the
        // accumulator temporary: at most one fetch per distinct row per
        // open — page hits while the accumulator stayed resident,
        // physical reads once the memory budget spilled it (`data()`
        // bounds reads+hits, so both regimes sit under one interval;
        // the lower bound stays 0, so spilling widens, never inverts).
        let feats = FeatBounds {
            seq: Interval::up_to(mul_up(k_hi, opens.hi)),
            writes: writes_once.mul(opens),
            ..FeatBounds::zero()
        };
        let members = self.members_of_fields(id);
        let passes = Some(passes);
        Ok(self.lowered(id, opens, members, rows_once, rows_total, feats, passes))
    }
}
