//! Physical plans: the lowered, execution-ready form of a PT.
//!
//! [`lower`] compiles a verified [`Pt`] into a [`PhysPlan`] — a tree of
//! physical operators with *resolved* access methods (the `attr = lit`
//! key of an index selection), *resolved* column layouts (every operator knows its output columns
//! statically), and explicit pipeline-breaker placement (the semi-naive
//! fixpoint accumulator/delta and the materialize-once inner of a
//! nested-loop join over a non-rescannable subtree).
//!
//! What each node executes as is decided by one resolver, [`node_op`]:
//! lowering builds the operator it names, and the cost model, the
//! analyzer and the lint passes read the same [`NodeOp`] instead of
//! re-deriving it from the PT's annotations.
//!
//! Every operator carries an [`OpMeta`] with a dense operator id (for
//! per-operator runtime counters) and the pre-order id of the `Pt` node
//! it was lowered from ([`crate::Preorder`]), which is how observed
//! counters are joined against the cost model's per-node predictions.
//! Lowering also marks the operands of a fixpoint's recursive leg that
//! every pass would derive alike ([`replayed`]): the executor derives
//! their rows once per run and replays them on every later pass.

use std::collections::{HashMap, HashSet};

use oorq_query::{CmpOp, Expr, Literal};
use oorq_schema::{Catalog, ClassId, ResolvedType};
use oorq_storage::{EntityId, EntitySource, IndexId, IndexKindDesc, PhysicalSchema, Value};

use crate::error::PtError;
use crate::node::{AccessMethod, IjStep, Pt, PtEnv};
use crate::resolved::{resolve, Node};

/// Identity of a physical operator within its plan.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMeta {
    /// Dense operator id (`0..PhysPlan::ops`), assigned in lowering
    /// order. Indexes the executor's per-operator counter table.
    pub id: usize,
    /// Pre-order id of the source `Pt` node; the join key against the
    /// cost model's per-node breakdown.
    pub pt_node: usize,
    /// Display label ([`NodeOp::label`]).
    pub label: String,
    /// The field types of the operator's rows when it is a replayed
    /// operand of a fixpoint's recursive leg ([`replayed`]): the first
    /// pass of a run writes its rows to a page-store temporary of this
    /// shape, and every later pass reads them back.
    pub replay: Option<Vec<ResolvedType>>,
}

/// A physical operator. Every variant stores its output column names
/// (`cols`), resolved at lowering time.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// Stream an atomic entity (class extents bind oids to `var`,
    /// relation extents bind one column per field).
    EntityScan {
        /// Operator identity.
        meta: OpMeta,
        /// The entity scanned.
        entity: EntityId,
        /// Binding variable.
        var: String,
        /// The extent's class, when the source is a class.
        class: Option<ClassId>,
        /// Output columns.
        cols: Vec<String>,
    },
    /// Stream the last pass's delta of the fixpoint whose recursive leg
    /// this scan is in (the only place a temporary is in scope).
    TempScan {
        /// Operator identity.
        meta: OpMeta,
        /// Temporary name.
        name: String,
        /// Output columns (`var.field`).
        cols: Vec<String>,
    },
    /// Probe a selection index with a resolved literal key, fetch the
    /// matching objects' pages, then apply the full predicate as a
    /// residual filter.
    IndexSelect {
        /// Operator identity.
        meta: OpMeta,
        /// The selection index probed.
        index: IndexId,
        /// Class of the selected entity (probe results are filtered to
        /// it).
        class: ClassId,
        /// Binding variable of the replaced entity scan.
        var: String,
        /// The resolved probe key.
        key: Literal,
        /// The full predicate (residual filter after the probe).
        pred: Expr,
        /// Output columns.
        cols: Vec<String>,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Operator identity.
        meta: OpMeta,
        /// The predicate.
        pred: Expr,
        /// Input operator.
        input: Box<PhysOp>,
        /// Output columns (same as the input's).
        cols: Vec<String>,
    },
    /// Project each row through expressions, deduplicating output rows
    /// (set semantics) in streaming fashion.
    Project {
        /// Operator identity.
        meta: OpMeta,
        /// Output columns and their defining expressions.
        exprs: Vec<(String, Expr)>,
        /// Input operator.
        input: Box<PhysOp>,
        /// Output columns.
        cols: Vec<String>,
    },
    /// Implicit join: dereference the oid-valued `on` expression of each
    /// input row and emit one row per referenced sub-object.
    IjDeref {
        /// Operator identity.
        meta: OpMeta,
        /// Expression producing the oid(s) to dereference.
        on: Expr,
        /// Output column bound to the sub-object oid.
        out: String,
        /// Input operator.
        input: Box<PhysOp>,
        /// Output columns.
        cols: Vec<String>,
    },
    /// Path-index join: probe a path index with the head oid and emit
    /// the oids along the path (index-only; no object pages fetched).
    PijLookup {
        /// Operator identity.
        meta: OpMeta,
        /// The path index probed.
        index: IndexId,
        /// Head-oid expression.
        on: Expr,
        /// Output columns, one per path step.
        outs: Vec<String>,
        /// Input operator.
        input: Box<PhysOp>,
        /// Output columns.
        cols: Vec<String>,
    },
    /// Nested-loop explicit join. When `rescan_inner` the inner subtree
    /// is re-opened (through the buffer manager) for every outer row;
    /// otherwise it is materialized once — a pipeline breaker.
    NlJoin {
        /// Operator identity.
        meta: OpMeta,
        /// Join predicate.
        pred: Expr,
        /// Honest rescan (leaf-ish inner) vs materialize-once breaker.
        rescan_inner: bool,
        /// Field types of the materialized inner's rows, resolved at
        /// lowering so the executor can back the breaker with a
        /// page-store temporary (empty when `rescan_inner`).
        mat_types: Vec<ResolvedType>,
        /// Outer operand.
        left: Box<PhysOp>,
        /// Inner operand.
        right: Box<PhysOp>,
        /// Output columns.
        cols: Vec<String>,
    },
    /// Bag union; the right side's columns are permuted into the left's
    /// order with the lowering-resolved permutation.
    UnionAll {
        /// Operator identity.
        meta: OpMeta,
        /// `right`-column index for each output column, when the orders
        /// differ.
        perm: Option<Vec<usize>>,
        /// Left operand.
        left: Box<PhysOp>,
        /// Right operand.
        right: Box<PhysOp>,
        /// Output columns (the left side's).
        cols: Vec<String>,
    },
    /// Semi-naive fixpoint — the canonical pipeline breaker: the base
    /// feeds the accumulator and delta temporaries, the recursive side
    /// is re-opened per iteration over the delta, and the accumulated
    /// result streams out.
    FixPoint {
        /// Operator identity.
        meta: OpMeta,
        /// Temporary name.
        temp: String,
        /// Field names and types of the temporary (from the base side).
        fields: Vec<(String, ResolvedType)>,
        /// `rec`-column index for each field, when the recursive side's
        /// column order differs from the base's.
        perm: Option<Vec<usize>>,
        /// Base (non-recursive) operand.
        base: Box<PhysOp>,
        /// Recursive operand (re-opened per iteration).
        rec: Box<PhysOp>,
        /// Output columns (the field names).
        cols: Vec<String>,
    },
}

impl PhysOp {
    /// The operator's identity.
    pub fn meta(&self) -> &OpMeta {
        match self {
            PhysOp::EntityScan { meta, .. }
            | PhysOp::TempScan { meta, .. }
            | PhysOp::IndexSelect { meta, .. }
            | PhysOp::Filter { meta, .. }
            | PhysOp::Project { meta, .. }
            | PhysOp::IjDeref { meta, .. }
            | PhysOp::PijLookup { meta, .. }
            | PhysOp::NlJoin { meta, .. }
            | PhysOp::UnionAll { meta, .. }
            | PhysOp::FixPoint { meta, .. } => meta,
        }
    }

    /// The operator's output columns.
    pub fn cols(&self) -> &[String] {
        match self {
            PhysOp::EntityScan { cols, .. }
            | PhysOp::TempScan { cols, .. }
            | PhysOp::IndexSelect { cols, .. }
            | PhysOp::Filter { cols, .. }
            | PhysOp::Project { cols, .. }
            | PhysOp::IjDeref { cols, .. }
            | PhysOp::PijLookup { cols, .. }
            | PhysOp::NlJoin { cols, .. }
            | PhysOp::UnionAll { cols, .. }
            | PhysOp::FixPoint { cols, .. } => cols,
        }
    }

    /// Children in operand order.
    pub fn children(&self) -> Vec<&PhysOp> {
        match self {
            PhysOp::EntityScan { .. } | PhysOp::TempScan { .. } | PhysOp::IndexSelect { .. } => {
                vec![]
            }
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::IjDeref { input, .. }
            | PhysOp::PijLookup { input, .. } => vec![input],
            PhysOp::NlJoin { left, right, .. } | PhysOp::UnionAll { left, right, .. } => {
                vec![left, right]
            }
            PhysOp::FixPoint { base, rec, .. } => vec![base, rec],
        }
    }

    /// Depth-first pre-order visit of every operator.
    pub fn visit<'s>(&'s self, f: &mut impl FnMut(&'s PhysOp)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// True when re-opening this subtree per outer row is cheap honest
    /// nested-loop behaviour (leaf-ish pipelines without breakers).
    pub fn rescannable(&self) -> bool {
        match self {
            PhysOp::EntityScan { .. } | PhysOp::TempScan { .. } => true,
            PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => input.rescannable(),
            _ => false,
        }
    }
}

/// A lowered physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysPlan {
    /// The root operator.
    pub root: PhysOp,
    /// Number of operators in the plan (`meta.id` ranges over `0..ops`).
    pub ops: usize,
}

/// Pre-order ids of every node of a PT ([`crate::Preorder`]), keyed by
/// node address, for callers that hold `&Pt`s rather than ids.
pub fn node_ids(root: &Pt) -> HashMap<*const Pt, usize> {
    let order = root.preorder();
    (0..order.len())
        .map(|id| (order.pt(id) as *const Pt, id))
        .collect()
}

/// Lower a PT into a physical plan: every node becomes the operator
/// [`node_op`] resolves it to. Union and fixpoint column permutations
/// are resolved statically; a shape mismatch fails the lowering.
pub fn lower(env: &PtEnv<'_>, pt: &Pt) -> Result<PhysPlan, PtError> {
    let plan = resolve(env.catalog, env.physical, None, pt)?;
    let mut lw = Lowering {
        env,
        plan: &plan,
        replayed: replayed(&plan),
        next_id: 0,
    };
    let root = lw.lower(0)?;
    Ok(PhysPlan {
        root,
        ops: lw.next_id,
    })
}

/// Kept for `benchmark/src/traced.rs` until a `benchmark` PR drops it:
/// the executor is serial, so a plan carries no parallel placement and
/// this type has nothing to hold.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelSpec;

/// Kept for `benchmark/src/traced.rs` until a `benchmark` PR drops it:
/// [`lower`].
pub fn lower_with(env: &PtEnv<'_>, pt: &Pt, _: &ParallelSpec) -> Result<PhysPlan, PtError> {
    lower(env, pt)
}

/// Builds the operator each resolved node names; its own are operator
/// ids, column permutations and the row shapes of a materialized inner
/// and a replayed operand.
struct Lowering<'e, 'p> {
    env: &'e PtEnv<'e>,
    plan: &'e [Node<'p>],
    /// [`replayed`] of `plan`.
    replayed: Vec<bool>,
    next_id: usize,
}

impl Lowering<'_, '_> {
    fn meta(&mut self, pt_node: usize, label: String) -> OpMeta {
        let id = self.next_id;
        self.next_id += 1;
        let replay = self.replayed[pt_node].then(|| {
            let cols = &self.plan[pt_node].cols;
            cols.iter().map(|(_, t)| t.clone()).collect()
        });
        OpMeta {
            id,
            pt_node,
            label,
            replay,
        }
    }

    /// Lower node `id` to the operator it names.
    fn lower(&mut self, id: usize) -> Result<PhysOp, PtError> {
        let (plan, physical) = (self.plan, self.env.physical);
        let node = &plan[id];
        let label = node.op.label(self.env.catalog, physical);
        let cols: Vec<String> = node.cols.iter().map(|(n, _)| n.clone()).collect();
        Ok(match &node.op {
            &NodeOp::EntityScan { entity, var } => PhysOp::EntityScan {
                meta: self.meta(id, label),
                entity,
                var: var.to_string(),
                class: match physical.entity(entity).source {
                    EntitySource::Class(c) => Some(c),
                    _ => None,
                },
                cols,
            },
            &NodeOp::TempScan { name, .. } => PhysOp::TempScan {
                meta: self.meta(id, label),
                name: name.to_string(),
                cols,
            },
            &NodeOp::Filter { pred, input } => {
                let child = self.lower(input)?;
                PhysOp::Filter {
                    meta: self.meta(id, label),
                    pred: pred.clone(),
                    input: Box::new(child),
                    cols,
                }
            }
            NodeOp::IndexSelect { pred, probe, .. } => PhysOp::IndexSelect {
                meta: self.meta(id, label),
                index: probe.index,
                class: probe.class,
                var: probe.var.to_string(),
                key: probe.key.clone(),
                pred: (*pred).clone(),
                cols,
            },
            &NodeOp::Project { exprs, input } => {
                let child = self.lower(input)?;
                PhysOp::Project {
                    meta: self.meta(id, label),
                    exprs: exprs.to_vec(),
                    input: Box::new(child),
                    cols,
                }
            }
            &NodeOp::IjDeref { on, out, input, .. } => {
                let child = self.lower(input)?;
                PhysOp::IjDeref {
                    meta: self.meta(id, label),
                    on: on.clone(),
                    out: out.to_string(),
                    input: Box::new(child),
                    cols,
                }
            }
            &NodeOp::PijLookup {
                index,
                on,
                outs,
                input,
                ..
            } => {
                let child = self.lower(input)?;
                PhysOp::PijLookup {
                    meta: self.meta(id, label),
                    index,
                    on: on.clone(),
                    outs: outs.to_vec(),
                    input: Box::new(child),
                    cols,
                }
            }
            &NodeOp::NlJoin {
                pred,
                rescan_inner,
                left,
                right,
            } => {
                let l = self.lower(left)?;
                let r = self.lower(right)?;
                // A materialized inner becomes a page-store temporary at
                // execution, shaped like the rows the inner hands up.
                let mat_types = if rescan_inner {
                    Vec::new()
                } else {
                    plan[right].cols.iter().map(|(_, t)| t.clone()).collect()
                };
                PhysOp::NlJoin {
                    meta: self.meta(id, label),
                    pred: pred.clone(),
                    rescan_inner,
                    mat_types,
                    left: Box::new(l),
                    right: Box::new(r),
                    cols,
                }
            }
            &NodeOp::UnionAll { left, right } => {
                let l = self.lower(left)?;
                let r = self.lower(right)?;
                PhysOp::UnionAll {
                    meta: self.meta(id, label),
                    perm: align_perm(&cols, r.cols())?,
                    left: Box::new(l),
                    right: Box::new(r),
                    cols,
                }
            }
            &NodeOp::FixPoint {
                temp, base, rec, ..
            } => {
                let base_op = self.lower(base)?;
                let rec_op = self.lower(rec)?;
                PhysOp::FixPoint {
                    meta: self.meta(id, label),
                    temp: temp.to_string(),
                    fields: node.cols.clone(),
                    perm: align_perm(&cols, rec_op.cols())?,
                    base: Box::new(base_op),
                    rec: Box::new(rec_op),
                    cols,
                }
            }
        })
    }
}

/// The kind of operator a PT node executes as: the grouping key of
/// residual and drift reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Entity (class/relation extension) sequential scan.
    Scan,
    /// Scan of a fixpoint's delta.
    TempScan,
    /// Predicate selection by scan.
    Sel,
    /// Predicate selection through a selection index.
    SelIdx,
    /// Projection (with streaming dedup).
    Proj,
    /// Implicit join (attribute dereference).
    Ij,
    /// Path-index join.
    Pij,
    /// Explicit nested-loop join.
    Ej,
    /// Union of two legs.
    Union,
    /// Semi-naive fixpoint.
    Fix,
}

impl OpKind {
    /// Stable short name.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Scan => "Scan",
            OpKind::TempScan => "TempScan",
            OpKind::Sel => "Sel",
            OpKind::SelIdx => "Sel^idx",
            OpKind::Proj => "Proj",
            OpKind::Ij => "IJ",
            OpKind::Pij => "PIJ",
            OpKind::Ej => "EJ",
            OpKind::Union => "Union",
            OpKind::Fix => "Fix",
        }
    }
}

/// What one PT node executes as, resolved from the node alone (plus the
/// schemas): the operator, its operands that execute as operators of
/// their own (`input`, `left`, `right`, `base`, `rec`) and the children
/// it absorbs, which do not (`leaf`, `target`, `targets`, `inner`,
/// `body`). Lowering builds the [`PhysOp`]
/// from it; the cost model, the analyzer and the lint pass read the
/// same value, so none of them can disagree with the executor about what
/// a node is. `C` names a child: the subtree itself
/// as [`node_op`] resolves one node, its pre-order id in a resolved plan
/// ([`resolve`]).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOp<'p, C = &'p Pt> {
    /// Stream an atomic entity.
    EntityScan {
        /// The entity scanned.
        entity: EntityId,
        /// Binding variable.
        var: &'p str,
    },
    /// Stream its fixpoint's delta (see [`PhysOp::TempScan`]).
    TempScan {
        /// Temporary name.
        name: &'p str,
        /// Binding variable prefix.
        var: &'p str,
    },
    /// Filter rows by a predicate.
    Filter {
        /// The predicate.
        pred: &'p Expr,
        /// Input.
        input: C,
    },
    /// Probe a selection index, then apply `pred` as a residual filter.
    IndexSelect {
        /// The full predicate.
        pred: &'p Expr,
        /// The resolved probe.
        probe: IndexProbe<'p>,
        /// The class-extension leaf the probe replaces (absorbed).
        leaf: C,
    },
    /// Project (with streaming dedup).
    Project {
        /// Output columns and their defining expressions.
        exprs: &'p [(String, Expr)],
        /// Input.
        input: C,
    },
    /// Implicit join: dereference `on` and bind each sub-object to `out`.
    IjDeref {
        /// Expression producing the oid(s) to dereference.
        on: &'p Expr,
        /// The attribute or field traversed.
        step: &'p IjStep,
        /// Output column.
        out: &'p str,
        /// Input.
        input: C,
        /// The entity holding the sub-objects (absorbed).
        target: C,
    },
    /// Path-index join.
    PijLookup {
        /// The path index probed.
        index: IndexId,
        /// Head-oid expression.
        on: &'p Expr,
        /// Output columns, one per path step.
        outs: &'p [String],
        /// Input.
        input: C,
        /// The entities spanned (absorbed).
        targets: Vec<C>,
    },
    /// Nested-loop explicit join.
    NlJoin {
        /// Join predicate.
        pred: &'p Expr,
        /// Whether the inner is re-opened per outer row
        /// ([`rescannable`]) or materialized once.
        rescan_inner: bool,
        /// Outer operand.
        left: C,
        /// Inner operand.
        right: C,
    },
    /// Bag union.
    UnionAll {
        /// Left operand.
        left: C,
        /// Right operand.
        right: C,
    },
    /// Semi-naive fixpoint.
    FixPoint {
        /// Temporary name.
        temp: &'p str,
        /// Base (non-recursive) leg.
        base: C,
        /// Recursive leg.
        rec: C,
        /// The body `Union`, folded into this operator (absorbed; its
        /// two legs are `base` and `rec`, which do execute).
        body: C,
    },
}

impl<C: Copy> NodeOp<'_, C> {
    /// The operator's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            NodeOp::EntityScan { .. } => OpKind::Scan,
            NodeOp::TempScan { .. } => OpKind::TempScan,
            NodeOp::Filter { .. } => OpKind::Sel,
            NodeOp::IndexSelect { .. } => OpKind::SelIdx,
            NodeOp::Project { .. } => OpKind::Proj,
            NodeOp::IjDeref { .. } => OpKind::Ij,
            NodeOp::PijLookup { .. } => OpKind::Pij,
            NodeOp::NlJoin { .. } => OpKind::Ej,
            NodeOp::UnionAll { .. } => OpKind::Union,
            NodeOp::FixPoint { .. } => OpKind::Fix,
        }
    }

    /// The operator's display label: [`OpMeta::label`] of the lowered
    /// operator, and the label of the node's cost line and bounds.
    pub fn label(&self, catalog: &Catalog, physical: &PhysicalSchema) -> String {
        match self {
            NodeOp::EntityScan { entity, .. } => format!("scan {}", physical.entity(*entity).name),
            NodeOp::TempScan { name, .. } => format!("scan temp {name}"),
            NodeOp::Filter { pred, .. } => format!("Sel[{pred}]"),
            NodeOp::IndexSelect { pred, .. } => format!("Sel^idx[{pred}]"),
            NodeOp::Project { .. } => "Proj".to_string(),
            NodeOp::IjDeref { step, .. } => format!("IJ_{}", step.name),
            NodeOp::PijLookup { index, .. } => match physical.indexes().get(index.0 as usize) {
                Some(desc) => format!("PIJ_{}", desc.display_name(catalog)),
                None => "PIJ".to_string(),
            },
            NodeOp::NlJoin { pred, .. } => format!("EJ[{pred}]"),
            NodeOp::UnionAll { .. } => "Union".to_string(),
            NodeOp::FixPoint { temp, .. } => format!("Fix({temp})"),
        }
    }
}

/// Resolve what a PT node executes as. Access methods are resolved
/// here: an index selection is a probe, or fails with
/// [`PtError::NoProbe`] when its index cannot serve its predicate and
/// input.
pub fn node_op<'p>(
    catalog: &'p Catalog,
    physical: &'p PhysicalSchema,
    pt: &'p Pt,
) -> Result<NodeOp<'p>, PtError> {
    let at = |path: &[usize]| pt.at_path(path).expect("the path of an operand");
    node_op_at(catalog, physical, pt, at)
}

/// [`node_op`] with each operand named by `at`, given its child-index
/// path from `pt`.
pub(crate) fn node_op_at<'p, C>(
    catalog: &'p Catalog,
    physical: &'p PhysicalSchema,
    pt: &'p Pt,
    at: impl Fn(&[usize]) -> C,
) -> Result<NodeOp<'p, C>, PtError> {
    Ok(match pt {
        Pt::Entity { id, var } => NodeOp::EntityScan { entity: *id, var },
        Pt::Temp { name, var } => NodeOp::TempScan { name, var },
        Pt::Sel {
            pred,
            method,
            input,
        } => match method {
            AccessMethod::Scan => NodeOp::Filter {
                pred,
                input: at(&[0]),
            },
            &AccessMethod::Index(idx) => NodeOp::IndexSelect {
                pred,
                probe: resolve_index_select(catalog, physical, idx, pred, input)?,
                leaf: at(&[0]),
            },
        },
        Pt::Proj { cols, .. } => NodeOp::Project {
            exprs: cols,
            input: at(&[0]),
        },
        Pt::IJ { on, step, out, .. } => NodeOp::IjDeref {
            on,
            step,
            out,
            input: at(&[0]),
            target: at(&[1]),
        },
        Pt::PIJ {
            index,
            on,
            outs,
            targets,
            ..
        } => NodeOp::PijLookup {
            index: *index,
            on,
            outs,
            input: at(&[0]),
            targets: (1..=targets.len()).map(|i| at(&[i])).collect(),
        },
        Pt::EJ { pred, right, .. } => NodeOp::NlJoin {
            pred,
            rescan_inner: rescannable(right),
            left: at(&[0]),
            right: at(&[1]),
        },
        Pt::Union { .. } => NodeOp::UnionAll {
            left: at(&[0]),
            right: at(&[1]),
        },
        Pt::Fix { .. } => {
            let (temp, _, rec) = pt.fix_legs()?;
            NodeOp::FixPoint {
                temp,
                base: at(&[0, 1 - rec]),
                rec: at(&[0, rec]),
                body: at(&[0]),
            }
        }
    })
}

/// True when the subtree lowers to something the executor can honestly
/// re-open per outer row of a nested loop — a leaf scan under filters
/// and projections ([`PhysOp::rescannable`] of the lowered subtree) —
/// rather than a materialize-once breaker.
pub fn rescannable(pt: &Pt) -> bool {
    match pt {
        Pt::Entity { .. } | Pt::Temp { .. } => true,
        // A filter passes rescans through; an index probe does not.
        Pt::Proj { input, .. }
        | Pt::Sel {
            method: AccessMethod::Scan,
            input,
            ..
        } => rescannable(input),
        _ => false,
    }
}

/// Pre-order ids of the nodes inside fix recursion: each `Fix` node plus
/// every node of its recursive leg. Cost lines of these nodes
/// accumulate the model's *predicted* iteration count, so their
/// cardinalities cannot be joined against observed counters without
/// re-deriving that multiplier.
pub fn fix_recursive_nodes(root: &Pt) -> HashSet<usize> {
    let order = root.preorder();
    let mut out = HashSet::new();
    for id in 0..order.len() {
        if let Ok((_, _, rec)) = order.pt(id).fix_sides() {
            out.insert(id);
            // The body union follows its fixpoint; the legs are its kids.
            for leg in order.kids(id + 1) {
                if std::ptr::eq(order.pt(leg), rec) {
                    out.extend(leg..leg + order.size(leg));
                }
            }
        }
    }
    out
}

/// The replayed operands of a resolved plan, by pre-order id. In a
/// fixpoint's recursive leg, an operand that reads no temporary derives
/// the same rows on every pass: only the delta changes from one pass to
/// the next. Each maximal such operand is replayed, unless it is a bare
/// entity scan (re-reading the extent costs what re-reading a copy
/// would) or a nested loop's inner (the join already re-opens it per
/// outer row, or holds it materialized).
pub fn replayed(plan: &[Node<'_>]) -> Vec<bool> {
    let reads_temp = |id: usize| {
        let subtree = &plan[id..id + plan[id].size];
        subtree
            .iter()
            .any(|n| matches!(n.op, NodeOp::TempScan { .. }))
    };
    let mut out = vec![false; plan.len()];
    // (node, whether it lies in a recursive leg)
    let mut stack = vec![(0, false)];
    while let Some((id, in_rec)) = stack.pop() {
        let operands: Vec<(usize, bool)> = match plan[id].op {
            NodeOp::EntityScan { .. } | NodeOp::TempScan { .. } | NodeOp::IndexSelect { .. } => {
                vec![]
            }
            NodeOp::Filter { input, .. }
            | NodeOp::Project { input, .. }
            | NodeOp::IjDeref { input, .. }
            | NodeOp::PijLookup { input, .. } => vec![(input, in_rec)],
            NodeOp::UnionAll { left, right } => vec![(left, in_rec), (right, in_rec)],
            NodeOp::NlJoin { left, right, .. } => {
                if in_rec && !reads_temp(right) {
                    vec![(left, in_rec)]
                } else {
                    vec![(left, in_rec), (right, in_rec)]
                }
            }
            NodeOp::FixPoint { base, rec, .. } => vec![(base, in_rec), (rec, true)],
        };
        for (kid, in_rec) in operands {
            if !in_rec || reads_temp(kid) {
                stack.push((kid, in_rec));
            } else if !matches!(plan[kid].op, NodeOp::EntityScan { .. }) {
                out[kid] = true;
            }
        }
    }
    out
}

/// A selection-index probe resolved against the physical schema: the
/// one answer to "can this predicate use this index".
#[derive(Debug, Clone, PartialEq)]
pub struct IndexProbe<'p> {
    /// The selection index probed.
    pub index: IndexId,
    /// The probed class-extension entity.
    pub entity: EntityId,
    /// Its exact class.
    pub class: ClassId,
    /// The leaf's tuple variable.
    pub var: &'p str,
    /// Name of the indexed attribute.
    pub attr: &'p str,
    /// Height of the index's B+-tree.
    pub nblevels: u32,
    /// The literal looked up.
    pub key: &'p Literal,
}

/// `(entity, var, exact class)` of a bare class-extension leaf, the only
/// input shape a selection index can probe.
fn class_leaf<'p>(physical: &PhysicalSchema, pt: &'p Pt) -> Option<(EntityId, &'p str, ClassId)> {
    let Pt::Entity { id, var } = pt else {
        return None;
    };
    match physical.entities().get(id.0 as usize)?.source {
        EntitySource::Class(class) => Some((*id, var, class)),
        _ => None,
    }
}

/// The stored value a literal of a query denotes: what the executor
/// compares a row against and what the statistics count.
pub fn lit_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Text(s) => Value::Text(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

/// `(attr, literal)` of every `var.attr = literal` (or mirrored)
/// conjunct, in conjunct order.
fn eq_literal_attrs<'p>(
    pred: &'p Expr,
    var: &'p str,
) -> impl Iterator<Item = (&'p str, &'p Literal)> {
    pred.conjuncts().into_iter().filter_map(move |c| {
        let Expr::Cmp {
            op: CmpOp::Eq,
            lhs,
            rhs,
        } = c
        else {
            return None;
        };
        match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Path { base, steps }, Expr::Lit(l))
            | (Expr::Lit(l), Expr::Path { base, steps })
                if base == var && steps.len() == 1 =>
            {
                Some((steps[0].as_str(), l))
            }
            _ => None,
        }
    })
}

/// The probe `Sel_pred^idx(input)` executes as: `idx` must be a
/// selection index, `input` a class-extension entity, and the predicate
/// must carry a `var.attr = literal` conjunct on the indexed attribute.
fn resolve_index_select<'p>(
    catalog: &'p Catalog,
    physical: &'p PhysicalSchema,
    idx: IndexId,
    pred: &'p Expr,
    input: &'p Pt,
) -> Result<IndexProbe<'p>, PtError> {
    let no_probe = |why| PtError::NoProbe { index: idx, why };
    let desc = physical.indexes().get(idx.0 as usize);
    let desc = desc.ok_or(no_probe("no such index"))?;
    let IndexKindDesc::Selection { class, attr } = desc.kind else {
        return Err(no_probe("a path index cannot serve a selection probe"));
    };
    let leaf = class_leaf(physical, input);
    let (entity, var, entity_class) = leaf.ok_or(no_probe("the input is not a class extension"))?;
    let attr = catalog.attribute(class, attr).name.as_str();
    let key = eq_literal_attrs(pred, var).find(|(a, _)| *a == attr);
    let key = key
        .ok_or(no_probe(
            "no `var.attr = literal` conjunct on the indexed attribute",
        ))?
        .1;
    Ok(IndexProbe {
        index: idx,
        entity,
        class: entity_class,
        var,
        attr,
        nblevels: desc.stats.nblevels,
        key,
    })
}

/// The selection index a scanning `Sel_pred(input)` could probe
/// instead: the first, in conjunct order, that [`node_op`] resolves to
/// an [`NodeOp::IndexSelect`].
pub fn applicable_sel_index(
    catalog: &Catalog,
    physical: &PhysicalSchema,
    pred: &Expr,
    input: &Pt,
) -> Option<IndexId> {
    let (_, var, class) = class_leaf(physical, input)?;
    eq_literal_attrs(pred, var).find_map(|(a, _)| {
        let (aid, _) = catalog.attr(class, a)?;
        physical.selection_index(class, aid).map(|d| d.id)
    })
}

/// Permutation aligning `from` columns onto the `to` order; `None` when
/// already aligned.
fn align_perm(to: &[String], from: &[String]) -> Result<Option<Vec<usize>>, PtError> {
    if to == from {
        return Ok(None);
    }
    if to.len() != from.len() {
        return Err(PtError::UnionShapeMismatch);
    }
    let perm: Option<Vec<usize>> = to
        .iter()
        .map(|c| from.iter().position(|f| f == c))
        .collect();
    perm.map(Some).ok_or(PtError::UnionShapeMismatch)
}
