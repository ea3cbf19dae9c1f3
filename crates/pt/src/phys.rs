//! Physical plans: the lowered, execution-ready form of a PT.
//!
//! [`lower`] compiles a verified [`Pt`] into a [`PhysPlan`] — a tree of
//! physical operators with *resolved* access methods (the `attr = lit`
//! key of an index selection, the outer expression of an index join),
//! *resolved* column layouts (every operator knows its output columns
//! statically), and explicit pipeline-breaker placement (the semi-naive
//! fixpoint accumulator/delta and the materialize-once inner of a
//! nested-loop join over a non-rescannable subtree). Everything the
//! tree-walking interpreter used to re-derive per row is decided here,
//! once, so execution can stream.
//!
//! Every operator carries an [`OpMeta`] with a dense operator id (for
//! per-operator runtime counters) and the pre-order index of the `Pt`
//! node it was lowered from ([`node_ids`]), which is how observed
//! counters are joined against the cost model's per-node predictions.

use std::collections::HashMap;

use oorq_query::{CmpOp, Expr, Literal};
use oorq_schema::{Catalog, ClassId, ResolvedType};
use oorq_storage::{EntityId, EntitySource, IndexId, IndexKindDesc, PhysicalSchema};

use crate::error::PtError;
use crate::node::{AccessMethod, JoinAlgo, Pt, PtEnv};

/// Identity of a physical operator within its plan.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMeta {
    /// Dense operator id (`0..PhysPlan::ops`), assigned in lowering
    /// order. Indexes the executor's per-operator counter table.
    pub id: usize,
    /// Pre-order index of the source `Pt` node (see [`node_ids`]); the
    /// join key against the cost model's per-node breakdown.
    pub pt_node: usize,
    /// Display label, aligned with the cost model's breakdown labels.
    pub label: String,
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
    /// Stream a fixpoint temporary (the accumulator, or the delta while
    /// a fixpoint iteration has the name delta-bound).
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
        /// An index the original plan named but the lowering could not
        /// use (no usable conjunct, or a non-entity input): the built
        /// structure must still exist at runtime, mirroring the
        /// interpreter's access-method resolution order.
        require_index: Option<IndexId>,
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
        /// See [`PhysOp::Filter::require_index`]: set when an index join
        /// degraded to a nested loop at lowering.
        require_index: Option<IndexId>,
        /// Outer operand.
        left: Box<PhysOp>,
        /// Inner operand.
        right: Box<PhysOp>,
        /// Output columns.
        cols: Vec<String>,
    },
    /// Index join: per outer row, evaluate the resolved outer expression
    /// and probe the inner's selection index; the inner is never
    /// scanned.
    IndexJoin {
        /// Operator identity.
        meta: OpMeta,
        /// The selection index probed.
        index: IndexId,
        /// Class of the inner entity.
        class: ClassId,
        /// The resolved outer key expression (over outer columns).
        outer: Expr,
        /// Binding variable of the inner entity.
        var: String,
        /// The full join predicate (residual filter).
        pred: Expr,
        /// Outer operand.
        left: Box<PhysOp>,
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
    /// Partition-parallel execution of an eligible pipeline subtree:
    /// `workers` threads each run a copy of `input` whose driver leaf
    /// scan is restricted to a disjoint page range, and the partition
    /// outputs are concatenated in partition order — byte-identical to
    /// the serial scan order. Exchange is an *execution* wrapper: it has
    /// its own operator id but shares its input's `pt_node`, so cost
    /// predictions still join against the underlying operator.
    Exchange {
        /// Operator identity (`pt_node` = the input root's).
        meta: OpMeta,
        /// Degree of parallelism (>= 2; 1 would be a no-op wrapper).
        workers: usize,
        /// The partitioned subtree.
        input: Box<PhysOp>,
        /// Output columns (same as the input's).
        cols: Vec<String>,
    },
    /// Leg-parallel n-ary union: each child subtree runs on its own
    /// worker and the results are concatenated in child order (the
    /// serial `UnionAll` order). Column permutations per child mirror
    /// [`PhysOp::UnionAll::perm`] (entry 0 is always `None`).
    Merge {
        /// Operator identity.
        meta: OpMeta,
        /// Per-child output-column permutation into `cols` order.
        perms: Vec<Option<Vec<usize>>>,
        /// Child subtrees, one worker each.
        children: Vec<PhysOp>,
        /// Output columns (the first child's).
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
            | PhysOp::IndexJoin { meta, .. }
            | PhysOp::UnionAll { meta, .. }
            | PhysOp::FixPoint { meta, .. }
            | PhysOp::Exchange { meta, .. }
            | PhysOp::Merge { meta, .. } => meta,
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
            | PhysOp::IndexJoin { cols, .. }
            | PhysOp::UnionAll { cols, .. }
            | PhysOp::FixPoint { cols, .. }
            | PhysOp::Exchange { cols, .. }
            | PhysOp::Merge { cols, .. } => cols,
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
            PhysOp::IndexJoin { left, .. } => vec![left],
            PhysOp::NlJoin { left, right, .. } | PhysOp::UnionAll { left, right, .. } => {
                vec![left, right]
            }
            PhysOp::FixPoint { base, rec, .. } => vec![base, rec],
            PhysOp::Exchange { input, .. } => vec![input],
            PhysOp::Merge { children, .. } => children.iter().collect(),
        }
    }

    /// Depth-first pre-order visit of every operator.
    pub fn visit(&self, f: &mut impl FnMut(&PhysOp)) {
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

impl PhysPlan {
    /// Render the plan as an indented operator tree.
    pub fn explain(&self) -> String {
        fn go(op: &PhysOp, depth: usize, out: &mut String) {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{}#{} {}",
                "  ".repeat(depth),
                op.meta().id,
                op.meta().label
            );
            for c in op.children() {
                go(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        go(&self.root, 0, &mut out);
        out
    }
}

/// Pre-order indices of every node of a PT, keyed by node address. The
/// same numbering is used by the cost model's per-node breakdown and by
/// [`lower`]'s `OpMeta::pt_node`, so predictions and observations can be
/// joined per node.
pub fn node_ids(root: &Pt) -> HashMap<*const Pt, usize> {
    let mut ids = HashMap::new();
    let mut next = 0usize;
    root.visit(&mut |pt| {
        ids.insert(pt as *const Pt, next);
        next += 1;
    });
    ids
}

/// Lower a PT into a physical plan.
///
/// Access methods are resolved here (mirroring the interpreter's runtime
/// resolution, including its fallbacks): an index selection without a
/// usable `var.attr = literal` conjunct or over a non-class input lowers
/// to a filter, an index join without a usable equality conjunct lowers
/// to a nested loop — in both cases remembering the named index so the
/// runtime still demands the built structure. Union and fixpoint column
/// permutations are resolved statically; a shape mismatch fails the
/// lowering.
pub fn lower(env: &PtEnv<'_>, pt: &Pt) -> Result<PhysPlan, PtError> {
    lower_with(env, pt, &ParallelSpec::new())
}

/// Degree of parallelism chosen per PT node (pre-order id, as in
/// [`node_ids`]), produced by the optimizer's parallel-placement pass.
/// Nodes absent from the spec run serially. A `Union` entry turns the
/// `UnionAll` into a leg-parallel [`PhysOp::Merge`]; any other entry
/// wraps the lowered subtree in a [`PhysOp::Exchange`] when
/// [`exchange_eligible`] admits it (ineligible entries are ignored, so a
/// stale spec can never produce an unsound plan).
pub type ParallelSpec = HashMap<usize, usize>;

/// Lower a PT, wrapping the subtrees named by `spec` in parallel
/// operators. `spec` is advisory: entries on ineligible nodes are
/// dropped silently, and an empty spec reproduces [`lower`] exactly.
pub fn lower_with(env: &PtEnv<'_>, pt: &Pt, spec: &ParallelSpec) -> Result<PhysPlan, PtError> {
    let mut lw = Lowering {
        env,
        temp_fields: env.temp_fields.clone(),
        ids: node_ids(pt),
        next_id: 0,
        spec,
    };
    let root = lw.lower(pt)?;
    Ok(PhysPlan {
        root,
        ops: lw.next_id,
    })
}

struct Lowering<'e, 'a> {
    env: &'e PtEnv<'a>,
    /// Temporary shapes in scope (grows while descending fixpoints).
    temp_fields: HashMap<String, Vec<(String, ResolvedType)>>,
    ids: HashMap<*const Pt, usize>,
    next_id: usize,
    spec: &'e ParallelSpec,
}

impl Lowering<'_, '_> {
    fn scoped_env(&self) -> PtEnv<'_> {
        PtEnv {
            catalog: self.env.catalog,
            physical: self.env.physical,
            temp_fields: self.temp_fields.clone(),
        }
    }

    fn col_names(&self, pt: &Pt) -> Result<Vec<String>, PtError> {
        Ok(pt
            .output_columns(&self.scoped_env())?
            .into_iter()
            .map(|(n, _)| n)
            .collect())
    }

    fn meta(&mut self, pt: &Pt, label: String) -> OpMeta {
        let id = self.next_id;
        self.next_id += 1;
        OpMeta {
            id,
            pt_node: self.ids.get(&(pt as *const Pt)).copied().unwrap_or(0),
            label,
        }
    }

    fn lower(&mut self, pt: &Pt) -> Result<PhysOp, PtError> {
        let op = self.lower_inner(pt)?;
        Ok(self.maybe_parallel(pt, op))
    }

    /// Apply the parallel spec's choice for this PT node, if any: turn a
    /// `UnionAll` into a `Merge`, or wrap an eligible pipeline subtree in
    /// an `Exchange`. Ineligible or sub-2 choices leave the plan serial.
    fn maybe_parallel(&mut self, pt: &Pt, op: PhysOp) -> PhysOp {
        let node = self.ids.get(&(pt as *const Pt)).copied().unwrap_or(0);
        let Some(&dop) = self.spec.get(&node) else {
            return op;
        };
        if dop < 2 {
            return op;
        }
        match op {
            PhysOp::UnionAll {
                meta,
                perm,
                left,
                right,
                cols,
            } => {
                if merge_leg_ok(&left) && merge_leg_ok(&right) {
                    PhysOp::Merge {
                        meta: OpMeta {
                            label: "Merge".to_string(),
                            ..meta
                        },
                        perms: vec![None, perm],
                        children: vec![*left, *right],
                        cols,
                    }
                } else {
                    PhysOp::UnionAll {
                        meta,
                        perm,
                        left,
                        right,
                        cols,
                    }
                }
            }
            op if exchange_eligible(&op) => {
                let cols = op.cols().to_vec();
                let meta = self.meta(pt, format!("Exchange(x{dop})"));
                PhysOp::Exchange {
                    meta,
                    workers: dop,
                    input: Box::new(op),
                    cols,
                }
            }
            op => op,
        }
    }

    fn lower_inner(&mut self, pt: &Pt) -> Result<PhysOp, PtError> {
        match pt {
            Pt::Entity { id, var } => {
                let cols = self.col_names(pt)?;
                let desc = self.env.physical.entity(*id);
                let class = match desc.source {
                    EntitySource::Class(c) => Some(c),
                    _ => None,
                };
                let meta = self.meta(pt, format!("scan {}", desc.name));
                Ok(PhysOp::EntityScan {
                    meta,
                    entity: *id,
                    var: var.clone(),
                    class,
                    cols,
                })
            }
            Pt::Temp { name, .. } => {
                let cols = self.col_names(pt)?;
                let meta = self.meta(pt, format!("scan temp {name}"));
                Ok(PhysOp::TempScan {
                    meta,
                    name: name.clone(),
                    cols,
                })
            }
            Pt::Sel {
                pred,
                method,
                input,
            } => match method {
                AccessMethod::Scan => {
                    let child = self.lower(input)?;
                    let cols = child.cols().to_vec();
                    let meta = self.meta(pt, format!("Sel[{pred}]"));
                    Ok(PhysOp::Filter {
                        meta,
                        pred: pred.clone(),
                        require_index: None,
                        input: Box::new(child),
                        cols,
                    })
                }
                AccessMethod::Index(idx) => self.lower_index_select(pt, *idx, pred, input),
            },
            Pt::Proj { cols, input } => {
                let child = self.lower(input)?;
                let out_cols = self.col_names(pt)?;
                let meta = self.meta(pt, "Proj".to_string());
                Ok(PhysOp::Project {
                    meta,
                    exprs: cols.clone(),
                    input: Box::new(child),
                    cols: out_cols,
                })
            }
            Pt::IJ {
                on,
                step,
                out,
                input,
                ..
            } => {
                let child = self.lower(input)?;
                let mut cols = child.cols().to_vec();
                cols.push(out.clone());
                let meta = self.meta(pt, format!("IJ_{}", step.name));
                Ok(PhysOp::IjDeref {
                    meta,
                    on: on.clone(),
                    out: out.clone(),
                    input: Box::new(child),
                    cols,
                })
            }
            Pt::PIJ {
                index,
                on,
                outs,
                input,
                ..
            } => {
                let child = self.lower(input)?;
                let mut cols = child.cols().to_vec();
                cols.extend(outs.iter().cloned());
                let label = match self.env.physical.indexes().get(index.0 as usize) {
                    Some(desc) => format!("PIJ_{}", desc.display_name(self.env.catalog)),
                    None => "PIJ".to_string(),
                };
                let meta = self.meta(pt, label);
                Ok(PhysOp::PijLookup {
                    meta,
                    index: *index,
                    on: on.clone(),
                    outs: outs.clone(),
                    input: Box::new(child),
                    cols,
                })
            }
            Pt::EJ {
                pred,
                algo,
                left,
                right,
            } => match algo {
                JoinAlgo::NestedLoop => self.lower_nested_loop(pt, pred, left, right, None),
                JoinAlgo::IndexJoin(idx) => self.lower_index_join(pt, *idx, pred, left, right),
            },
            Pt::Union { left, right } => {
                let l = self.lower(left)?;
                let r = self.lower(right)?;
                let cols = l.cols().to_vec();
                let perm = align_perm(&cols, r.cols())?;
                let meta = self.meta(pt, "Union".to_string());
                Ok(PhysOp::UnionAll {
                    meta,
                    perm,
                    left: Box::new(l),
                    right: Box::new(r),
                    cols,
                })
            }
            Pt::Fix { temp, body } => self.lower_fix(pt, temp, body),
        }
    }

    fn lower_index_select(
        &mut self,
        pt: &Pt,
        idx: IndexId,
        pred: &Expr,
        input: &Pt,
    ) -> Result<PhysOp, PtError> {
        // Resolve the indexed attribute from the physical schema; fall
        // back to a filter when the plan's entity/predicate cannot use
        // the probe (the runtime still demands the built structure).
        let fallback = |lw: &mut Self| -> Result<PhysOp, PtError> {
            let child = lw.lower(input)?;
            let cols = child.cols().to_vec();
            let meta = lw.meta(pt, format!("Sel[{pred}]"));
            Ok(PhysOp::Filter {
                meta,
                pred: pred.clone(),
                require_index: Some(idx),
                input: Box::new(child),
                cols,
            })
        };
        let Some(probe) =
            resolve_index_select(self.env.catalog, self.env.physical, idx, pred, input)
        else {
            return fallback(self);
        };
        let meta = self.meta(pt, format!("Sel^idx[{pred}]"));
        Ok(PhysOp::IndexSelect {
            meta,
            index: idx,
            class: probe.class,
            var: probe.var.clone(),
            key: probe.key,
            pred: pred.clone(),
            cols: vec![probe.var],
        })
    }

    fn lower_nested_loop(
        &mut self,
        pt: &Pt,
        pred: &Expr,
        left: &Pt,
        right: &Pt,
        require_index: Option<IndexId>,
    ) -> Result<PhysOp, PtError> {
        let l = self.lower(left)?;
        let r = self.lower(right)?;
        let mut cols = l.cols().to_vec();
        cols.extend(r.cols().iter().cloned());
        let rescan_inner = r.rescannable();
        // A materialized inner becomes a page-store temporary at
        // execution; resolve its row shape here, where the typing
        // environment is in scope.
        let mat_types = if rescan_inner {
            Vec::new()
        } else {
            right
                .output_columns(&self.scoped_env())?
                .into_iter()
                .map(|(_, t)| t)
                .collect()
        };
        let meta = self.meta(pt, format!("EJ[{pred}]"));
        Ok(PhysOp::NlJoin {
            meta,
            pred: pred.clone(),
            rescan_inner,
            mat_types,
            require_index,
            left: Box::new(l),
            right: Box::new(r),
            cols,
        })
    }

    fn lower_index_join(
        &mut self,
        pt: &Pt,
        idx: IndexId,
        pred: &Expr,
        left: &Pt,
        right: &Pt,
    ) -> Result<PhysOp, PtError> {
        let Some(probe) = resolve_index_join(self.env.catalog, self.env.physical, idx, pred, right)
        else {
            return self.lower_nested_loop(pt, pred, left, right, Some(idx));
        };
        let l = self.lower(left)?;
        let mut cols = l.cols().to_vec();
        cols.push(probe.var.clone());
        let meta = self.meta(pt, format!("EJ^idx[{pred}]"));
        Ok(PhysOp::IndexJoin {
            meta,
            index: idx,
            class: probe.class,
            outer: probe.key,
            var: probe.var,
            pred: pred.clone(),
            left: Box::new(l),
            cols,
        })
    }

    fn lower_fix(&mut self, pt: &Pt, temp: &str, body: &Pt) -> Result<PhysOp, PtError> {
        let Pt::Union { left, right } = body else {
            return Err(PtError::FixBodyNotUnion);
        };
        let (base, rec) = if left.references_temp(temp) {
            (right.as_ref(), left.as_ref())
        } else {
            (left.as_ref(), right.as_ref())
        };
        if !rec.references_temp(temp) {
            return Err(PtError::FixNotRecursive(temp.to_string()));
        }
        // Shape of the temporary, from the base side (names verbatim).
        let fields = base.output_columns(&self.scoped_env())?;
        let field_names: Vec<String> = fields.iter().map(|(n, _)| n.clone()).collect();
        self.temp_fields.insert(temp.to_string(), fields.clone());
        let base_op = self.lower(base)?;
        let rec_op = self.lower(rec)?;
        let perm = align_perm(&field_names, rec_op.cols())?;
        let meta = self.meta(pt, format!("Fix({temp})"));
        Ok(PhysOp::FixPoint {
            meta,
            temp: temp.to_string(),
            fields,
            perm,
            base: Box::new(base_op),
            rec: Box::new(rec_op),
            cols: field_names,
        })
    }
}

/// True when an [`PhysOp::Exchange`] over this subtree preserves serial
/// semantics under page-range partitioning of its driver leaf: the
/// subtree must be a streaming pipeline whose leftmost (driver) leaf is
/// a page-partitionable scan, with no operator whose output depends on
/// rows from *other* partitions. Excluded:
///
/// - `Project` (streaming set-dedup is global; per-partition dedup could
///   emit duplicates across partitions),
/// - `IndexSelect` (driven by an index probe, not a partitionable scan),
/// - materializing `NlJoin` (the once-materialized inner is a breaker;
///   partitioning the outer around it buys nothing — lint PX008),
/// - `UnionAll`, `FixPoint`, and nested `Exchange`/`Merge`.
pub fn exchange_eligible(op: &PhysOp) -> bool {
    match op {
        PhysOp::EntityScan { .. } | PhysOp::TempScan { .. } => true,
        PhysOp::Filter { input, .. }
        | PhysOp::IjDeref { input, .. }
        | PhysOp::PijLookup { input, .. } => exchange_eligible(input),
        PhysOp::IndexJoin { left, .. } => exchange_eligible(left),
        PhysOp::NlJoin {
            rescan_inner, left, ..
        } => *rescan_inner && exchange_eligible(left),
        _ => false,
    }
}

/// True when a subtree may run as a [`PhysOp::Merge`] leg on its own
/// worker: no pipeline breaker that writes shared temporaries (a
/// `FixPoint` leg would race on the accumulator/delta entities) and no
/// already-parallel operator (nested parallelism would corrupt the
/// per-worker buffer accounting).
pub fn merge_leg_ok(op: &PhysOp) -> bool {
    let mut ok = true;
    op.visit(&mut |o| {
        if matches!(
            o,
            PhysOp::FixPoint { .. } | PhysOp::Exchange { .. } | PhysOp::Merge { .. }
        ) {
            ok = false;
        }
    });
    ok
}

/// A selection-index probe resolved against the physical schema: the
/// one answer to "can this predicate use this index" shared by
/// lowering, static analysis and the optimizer's move generators.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexProbe<K> {
    /// Exact class of the probed class-extension leaf.
    pub class: ClassId,
    /// The leaf's tuple variable.
    pub var: String,
    /// Name of the indexed attribute.
    pub attr: String,
    /// Height of the index's B+-tree.
    pub nblevels: u32,
    /// What is looked up: the literal of an index selection, the outer
    /// expression of an index join.
    pub key: K,
}

/// `(var, exact class)` of a bare class-extension leaf, the only input
/// shape a selection index can probe.
fn class_leaf<'p>(physical: &PhysicalSchema, pt: &'p Pt) -> Option<(&'p str, ClassId)> {
    let Pt::Entity { id, var } = pt else {
        return None;
    };
    match physical.entity(*id).source {
        EntitySource::Class(class) => Some((var, class)),
        _ => None,
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

/// `(attr, outer)` of every `outer = var.attr` (or mirrored) conjunct
/// whose outer side does not mention `var`, in conjunct order.
fn eq_outer_attrs<'p>(pred: &'p Expr, var: &'p str) -> impl Iterator<Item = (&'p str, &'p Expr)> {
    pred.conjuncts().into_iter().filter_map(move |c| {
        let Expr::Cmp {
            op: CmpOp::Eq,
            lhs,
            rhs,
        } = c
        else {
            return None;
        };
        [(rhs, lhs), (lhs, rhs)]
            .into_iter()
            .find_map(|(inner, outer)| match inner.as_ref() {
                Expr::Path { base, steps }
                    if base == var && steps.len() == 1 && !outer.vars().contains(var) =>
                {
                    Some((steps[0].as_str(), outer.as_ref()))
                }
                _ => None,
            })
    })
}

/// Find an `var.attr = literal` (or mirrored) conjunct of the predicate.
pub fn eq_literal_conjunct(pred: &Expr, var: &str, attr_name: &str) -> Option<Literal> {
    eq_literal_attrs(pred, var)
        .find(|(a, _)| *a == attr_name)
        .map(|(_, l)| l.clone())
}

/// Resolve `idx` as the probe of a `Sel` or `EJ` over `leaf`: it must be
/// a selection index and `leaf` a class-extension entity; `key` then
/// finds what the predicate looks up under the indexed attribute.
fn resolve_probe<K>(
    catalog: &Catalog,
    physical: &PhysicalSchema,
    idx: IndexId,
    leaf: &Pt,
    key: impl FnOnce(&str, &str) -> Option<K>,
) -> Option<IndexProbe<K>> {
    let desc = physical.indexes().get(idx.0 as usize)?;
    let IndexKindDesc::Selection { class, attr } = desc.kind else {
        return None;
    };
    let (var, entity_class) = class_leaf(physical, leaf)?;
    let attr = &catalog.attribute(class, attr).name;
    Some(IndexProbe {
        class: entity_class,
        var: var.to_string(),
        attr: attr.clone(),
        nblevels: desc.stats.nblevels,
        key: key(var, attr)?,
    })
}

/// Whether `Sel_pred^idx(input)` lowers to an index probe: the
/// predicate must carry a `var.attr = literal` conjunct on the indexed
/// attribute of a class-extension `input`.
pub fn resolve_index_select(
    catalog: &Catalog,
    physical: &PhysicalSchema,
    idx: IndexId,
    pred: &Expr,
    input: &Pt,
) -> Option<IndexProbe<Literal>> {
    resolve_probe(catalog, physical, idx, input, |var, attr| {
        eq_literal_conjunct(pred, var, attr)
    })
}

/// Whether `EJ_pred^idx(_, right)` lowers to an index join: the
/// predicate must carry an `outer = var.attr` conjunct on the indexed
/// attribute of a class-extension `right`, with `outer` free of `var`.
pub fn resolve_index_join(
    catalog: &Catalog,
    physical: &PhysicalSchema,
    idx: IndexId,
    pred: &Expr,
    right: &Pt,
) -> Option<IndexProbe<Expr>> {
    resolve_probe(catalog, physical, idx, right, |var, attr| {
        eq_outer_attrs(pred, var)
            .find(|(a, _)| *a == attr)
            .map(|(_, outer)| outer.clone())
    })
}

/// Selection indexes on `class` over the given attribute names, in
/// order.
fn indexes_on<'a>(
    catalog: &'a Catalog,
    physical: &'a PhysicalSchema,
    class: ClassId,
    attrs: impl Iterator<Item = &'a str> + 'a,
) -> impl Iterator<Item = IndexId> + 'a {
    attrs.filter_map(move |a| {
        let (aid, _) = catalog.attr(class, a)?;
        physical.selection_index(class, aid).map(|d| d.id)
    })
}

/// The selection index a scanning `Sel_pred(input)` could probe
/// instead: the first, in conjunct order, that
/// [`resolve_index_select`] accepts.
pub fn applicable_sel_index(
    catalog: &Catalog,
    physical: &PhysicalSchema,
    pred: &Expr,
    input: &Pt,
) -> Option<IndexId> {
    let (var, class) = class_leaf(physical, input)?;
    let attrs = eq_literal_attrs(pred, var).map(|(a, _)| a);
    indexes_on(catalog, physical, class, attrs).next()
}

/// Every selection index a nested-loop `EJ_pred(_, right)` could probe
/// instead, in conjunct order ([`resolve_index_join`] accepts each).
pub fn applicable_join_indexes<'a>(
    catalog: &'a Catalog,
    physical: &'a PhysicalSchema,
    pred: &'a Expr,
    right: &'a Pt,
) -> impl Iterator<Item = IndexId> + 'a {
    class_leaf(physical, right)
        .into_iter()
        .flat_map(move |(var, class)| {
            let attrs = eq_outer_attrs(pred, var).map(|(a, _)| a);
            indexes_on(catalog, physical, class, attrs)
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
