//! The `translate` step (§4.3): from the conceptual query graph onto the
//! physical schema.
//!
//! Each arc `(N, tree)` is translated into a sequence of `IJ` nodes
//! implementing its tree label (the `translateArc` action applied to
//! saturation), and consecutive `IJ`s are `collapse`d into a `PIJ` when
//! an applicable path index exists. There may be several valid sequences
//! (sibling branches of the tree can be ordered freely, and each
//! collapsible run can be collapsed or not); the choice among them is
//! cost-based, so this module *enumerates* the alternatives and
//! `generatePT` prices them.

use std::collections::HashMap;

use oorq_pt::{IjStep, Pt};
use oorq_query::{Expr, QArc, TreeChild};
use oorq_schema::{AttrId, Catalog, ClassId, ResolvedType};
use oorq_storage::{EntityId, IndexId, PhysicalSchema};

use crate::error::OptError;

/// One implicit-join (or path-index) operation of a translated arc.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainOp {
    /// Dereference `on` through the named attribute into `out`.
    Ij {
        /// Source expression.
        on: Expr,
        /// The step descriptor.
        step: IjStep,
        /// Output column.
        out: String,
        /// Entity holding the sub-objects.
        target: EntityId,
    },
    /// Probe a path index with `on`, binding `outs`.
    Pij {
        /// The index.
        index: IndexId,
        /// Head-oid expression.
        on: Expr,
        /// Output columns.
        outs: Vec<String>,
        /// Entities spanned.
        targets: Vec<EntityId>,
    },
}

impl ChainOp {
    /// Columns the op produces.
    pub fn produces(&self) -> Vec<String> {
        match self {
            ChainOp::Ij { out, .. } => vec![out.clone()],
            ChainOp::Pij { outs, .. } => outs.clone(),
        }
    }

    /// Wrap a plan with this op.
    pub fn apply(&self, input: Pt) -> Pt {
        match self {
            ChainOp::Ij {
                on,
                step,
                out,
                target,
            } => Pt::IJ {
                on: on.clone(),
                step: step.clone(),
                out: out.clone(),
                input: Box::new(input),
                target: Box::new(Pt::entity(*target, format!("_t_{out}"))),
            },
            ChainOp::Pij {
                index,
                on,
                outs,
                targets,
            } => Pt::PIJ {
                index: *index,
                on: on.clone(),
                outs: outs.clone(),
                input: Box::new(input),
                targets: targets
                    .iter()
                    .enumerate()
                    .map(|(i, t)| Pt::entity(*t, format!("_p{i}")))
                    .collect(),
            },
        }
    }
}

/// A translated arc: a base plan (leaf or plugged subtree) plus a chain
/// of implicit joins, with the variable substitution mapping query-graph
/// variables to column expressions.
#[derive(Debug, Clone)]
pub struct ArcChain {
    /// The base plan (entity leaf, temporary leaf, or a plugged PT for a
    /// previously planned derived name).
    pub base: Pt,
    /// Columns produced by the base.
    pub base_cols: Vec<String>,
    /// The implicit-join chain, in order.
    pub ops: Vec<ChainOp>,
    /// Query variable → column expression.
    pub subst: HashMap<String, Expr>,
}

impl ArcChain {
    /// All columns available after the whole chain.
    pub(crate) fn all_cols(&self) -> Vec<String> {
        let mut cols = self.base_cols.clone();
        for op in &self.ops {
            cols.extend(op.produces());
        }
        cols
    }
}

/// What a name node bottoms out to.
pub enum BasePlan {
    /// A class extension, with the entity holding it.
    Class(EntityId, ClassId),
    /// A stored relation entity, with its typed fields.
    Relation(EntityId, Vec<(String, ResolvedType)>),
    /// The recursive occurrence of a fixpoint: a temporary.
    Temp(String, Vec<(String, ResolvedType)>),
    /// A previously planned derived/view producer, with its typed output
    /// columns.
    Plugged(Pt, Vec<(String, ResolvedType)>),
}

/// Translate an arc against its base plan, enumerating cost-relevant
/// alternatives (root-branch orderings × collapse choices). At least one
/// alternative is always returned.
pub(crate) fn translate_arc(
    catalog: &Catalog,
    physical: &PhysicalSchema,
    arc: &QArc,
    base: BasePlan,
    fresh: &mut impl FnMut() -> String,
    max_alternatives: usize,
) -> Result<Vec<ArcChain>, OptError> {
    let root_var = arc.var.clone().unwrap_or_else(&mut *fresh);
    let mut subst: HashMap<String, Expr> = HashMap::new();
    let (base_pt, base_cols, root_kind) = match base {
        BasePlan::Class(e, c) => {
            subst.insert(root_var.clone(), Expr::Var(root_var.clone()));
            let pt = Pt::entity(e, root_var.clone());
            (pt, vec![root_var.clone()], RootKind::Object(c))
        }
        BasePlan::Relation(e, fields) => {
            let cols: Vec<String> = fields
                .iter()
                .map(|(f, _)| format!("{root_var}.{f}"))
                .collect();
            (Pt::entity(e, root_var.clone()), cols, RootKind::Row(fields))
        }
        BasePlan::Temp(name, fields) => {
            let cols: Vec<String> = fields
                .iter()
                .map(|(f, _)| format!("{root_var}.{f}"))
                .collect();
            (
                Pt::temp(name, root_var.clone()),
                cols,
                RootKind::Row(fields),
            )
        }
        BasePlan::Plugged(pt, out_cols) => {
            // Rename the producer's columns to `rootvar.col`.
            let cols: Vec<String> = out_cols
                .iter()
                .map(|(c, _)| format!("{root_var}.{c}"))
                .collect();
            let proj = Pt::proj(
                out_cols
                    .iter()
                    .map(|(c, _)| (format!("{root_var}.{c}"), Expr::Var(c.clone())))
                    .collect(),
                pt,
            );
            (proj, cols, RootKind::Row(out_cols))
        }
    };

    // Collect the IJ branches implied by the tree label, one per root
    // child (sibling order is a cost-based choice).
    let mut branches: Vec<Vec<ChainOp>> = Vec::new();
    let mut walk = LabelWalk {
        catalog,
        physical,
        subst: &mut subst,
        fresh,
    };
    for child in &arc.label.children {
        let mut ops = Vec::new();
        match &root_kind {
            RootKind::Object(class) => {
                walk.object_child(*class, &Expr::Var(root_var.clone()), child, &mut ops)?
            }
            RootKind::Row(fields) => walk.row_child(fields, &root_var, child, &mut ops)?,
        }
        if !ops.is_empty() {
            branches.push(ops);
        }
    }

    // Enumerate branch orderings (all permutations for few branches).
    let orderings: Vec<Vec<usize>> = if branches.len() <= 4 {
        permutations(branches.len())
    } else {
        vec![(0..branches.len()).collect()]
    };
    let mut out = Vec::new();
    for order in orderings {
        let ops: Vec<ChainOp> = order
            .iter()
            .flat_map(|&i| branches[i].iter().cloned())
            .collect();
        // Collapse alternatives: every way of collapsing collapsible runs.
        for collapsed in collapse_alternatives(catalog, physical, &ops) {
            out.push(ArcChain {
                base: base_pt.clone(),
                base_cols: base_cols.clone(),
                ops: collapsed,
                subst: subst.clone(),
            });
            if out.len() >= max_alternatives {
                return Ok(dedup_chains(out));
            }
        }
    }
    Ok(dedup_chains(out))
}

enum RootKind {
    Object(ClassId),
    Row(Vec<(String, ResolvedType)>),
}

fn dedup_chains(mut chains: Vec<ArcChain>) -> Vec<ArcChain> {
    let mut seen: Vec<Vec<ChainOp>> = Vec::new();
    chains.retain(|c| {
        if seen.contains(&c.ops) {
            false
        } else {
            seen.push(c.ops.clone());
            true
        }
    });
    chains
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let rest = permutations(n - 1);
    for perm in rest {
        for pos in 0..=perm.len() {
            let mut p = perm.clone();
            p.insert(pos, n - 1);
            out.push(p);
        }
    }
    out
}

fn home_entity(physical: &PhysicalSchema, class: ClassId) -> Result<EntityId, OptError> {
    physical
        .class_entity(class)
        .ok_or_else(|| OptError::NoEntity(format!("class {class:?}")))
}

/// What translating a tree label threads through every child: the
/// schemas it resolves against, the variable substitution it extends and
/// the source of fresh column names.
struct LabelWalk<'a, F: FnMut() -> String> {
    catalog: &'a Catalog,
    physical: &'a PhysicalSchema,
    subst: &'a mut HashMap<String, Expr>,
    fresh: &'a mut F,
}

impl<F: FnMut() -> String> LabelWalk<'_, F> {
    /// Translate one child of an object-typed node. `parent` is the column
    /// expression of the owning object.
    fn object_child(
        &mut self,
        class: ClassId,
        parent: &Expr,
        child: &TreeChild,
        ops: &mut Vec<ChainOp>,
    ) -> Result<(), OptError> {
        let (catalog, physical) = (self.catalog, self.physical);
        let Some(attr_name) = &child.attr else {
            // An element step directly under an object node is invalid; the
            // query validator rejects it earlier.
            return Err(OptError::Query(oorq_query::QueryError::BadLabelStep {
                step: "NIL".into(),
                ty: "object".into(),
            }));
        };
        let (aid, attr) = catalog.attr(class, attr_name).ok_or_else(|| {
            OptError::Query(oorq_query::QueryError::UnknownAttribute {
                class: catalog.class(class).name.clone(),
                attr: attr_name.clone(),
            })
        })?;
        let attr_expr = path_extend(parent, attr_name);
        match attr.ty.referenced_class() {
            Some(target_class) if attr.ty.is_collection() => {
                // Collection of objects: one IJ per element child
                // (independent member choices).
                if let Some(v) = &child.var {
                    self.subst.insert(v.clone(), attr_expr.clone());
                }
                for elem in &child.tree.children {
                    if elem.attr.is_some() {
                        return Err(OptError::Query(oorq_query::QueryError::BadLabelStep {
                            step: elem.attr.clone().unwrap_or_default(),
                            ty: "collection".into(),
                        }));
                    }
                    let out = elem.var.clone().unwrap_or_else(&mut *self.fresh);
                    ops.push(ChainOp::Ij {
                        on: attr_expr.clone(),
                        step: IjStep::class_attr(catalog, class, aid),
                        out: out.clone(),
                        target: home_entity(physical, target_class)?,
                    });
                    self.subst.insert(out.clone(), Expr::Var(out.clone()));
                    for grand in &elem.tree.children {
                        self.object_child(target_class, &Expr::Var(out.clone()), grand, ops)?;
                    }
                }
                Ok(())
            }
            Some(target_class) => {
                // Scalar object reference: one IJ.
                let out = child.var.clone().unwrap_or_else(&mut *self.fresh);
                ops.push(ChainOp::Ij {
                    on: attr_expr,
                    step: IjStep::class_attr(catalog, class, aid),
                    out: out.clone(),
                    target: home_entity(physical, target_class)?,
                });
                self.subst.insert(out.clone(), Expr::Var(out.clone()));
                for grand in &child.tree.children {
                    self.object_child(target_class, &Expr::Var(out.clone()), grand, ops)?;
                }
                Ok(())
            }
            None => {
                // Atomic (or atomic-collection) attribute: a short path on
                // the parent column — no implicit join needed. This is why
                // pushing the projection on `name` costs nothing (§2.3).
                if let Some(v) = &child.var {
                    self.subst.insert(v.clone(), attr_expr);
                }
                Ok(())
            }
        }
    }

    /// Translate one child of a row-typed (relation/temporary) node.
    fn row_child(
        &mut self,
        fields: &[(String, ResolvedType)],
        root_var: &str,
        child: &TreeChild,
        ops: &mut Vec<ChainOp>,
    ) -> Result<(), OptError> {
        let Some(field) = &child.attr else {
            return Err(OptError::Query(oorq_query::QueryError::BadLabelStep {
                step: "NIL".into(),
                ty: "row".into(),
            }));
        };
        let Some((_, field_ty)) = fields.iter().find(|(f, _)| f == field) else {
            return Err(OptError::Query(oorq_query::QueryError::UnknownField(
                field.clone(),
            )));
        };
        let field_expr = Expr::Var(format!("{root_var}.{field}"));
        // We need an IJ only when the child has sub-structure (atomic fields
        // and bare oid bindings are read directly from the row).
        if child.tree.is_leaf() {
            if let Some(v) = &child.var {
                self.subst.insert(v.clone(), field_expr);
            }
            return Ok(());
        }
        // Sub-structure: the field must reference a class.
        let target_class = field_ty
            .referenced_class()
            .ok_or_else(|| OptError::Query(oorq_query::QueryError::UnknownField(field.clone())))?;
        let out = child.var.clone().unwrap_or_else(&mut *self.fresh);
        ops.push(ChainOp::Ij {
            on: field_expr,
            step: IjStep::field(field.clone()),
            out: out.clone(),
            target: home_entity(self.physical, target_class)?,
        });
        self.subst.insert(out.clone(), Expr::Var(out.clone()));
        for grand in &child.tree.children {
            self.object_child(target_class, &Expr::Var(out.clone()), grand, ops)?;
        }
        Ok(())
    }
}

fn path_extend(parent: &Expr, step: &str) -> Expr {
    match parent {
        Expr::Var(v) => Expr::Path {
            base: v.clone(),
            steps: vec![step.to_string()],
        },
        Expr::Path { base, steps } => {
            let mut s = steps.clone();
            s.push(step.to_string());
            Expr::Path {
                base: base.clone(),
                steps: s,
            }
        }
        other => other.clone(),
    }
}

/// The `collapse` action (§4.3): all ways of replacing runs of
/// consecutive `IJ`s (linked output→input, stepping through class
/// attributes) by a `PIJ` when the physical schema has a matching path
/// index. The uncollapsed chain is always included; the choice is
/// cost-based downstream.
pub(crate) fn collapse_alternatives(
    _catalog: &Catalog,
    physical: &PhysicalSchema,
    ops: &[ChainOp],
) -> Vec<Vec<ChainOp>> {
    let mut out = vec![ops.to_vec()];
    // Find maximal collapsible runs [i, j): each op an Ij with
    // class_attr, each next op's `on` is exactly the previous `out`.
    for i in 0..ops.len() {
        for j in (i + 2)..=ops.len() {
            if !is_linked_run(ops, i, j) {
                continue;
            }
            let path: Option<Vec<(ClassId, AttrId)>> = ops[i..j]
                .iter()
                .map(|op| match op {
                    ChainOp::Ij { step, .. } => step.class_attr,
                    _ => None,
                })
                .collect();
            let Some(path) = path else { continue };
            let Some(desc) = physical.path_index(&path) else {
                continue;
            };
            // The PIJ is keyed by the *head* oid: the column the first
            // IJ dereferences. `Path(head, [attr])` gives head = the
            // index's head-class column; anything else cannot use the
            // index.
            let ChainOp::Ij { on: first_on, .. } = &ops[i] else {
                continue;
            };
            let Expr::Path { base: head, steps } = first_on else {
                continue;
            };
            if steps.len() != 1 {
                continue;
            }
            let on = Expr::Var(head.clone());
            let mut outs = Vec::new();
            let mut targets = Vec::new();
            for op in &ops[i..j] {
                let ChainOp::Ij { out, target, .. } = op else {
                    continue;
                };
                outs.push(out.clone());
                targets.push(*target);
            }
            let mut collapsed = ops[..i].to_vec();
            collapsed.push(ChainOp::Pij {
                index: desc.id,
                on,
                outs,
                targets,
            });
            collapsed.extend(ops[j..].iter().cloned());
            out.push(collapsed);
        }
    }
    out
}

fn is_linked_run(ops: &[ChainOp], i: usize, j: usize) -> bool {
    for k in i..j {
        let ChainOp::Ij { on, .. } = &ops[k] else {
            return false;
        };
        if k > i {
            let ChainOp::Ij { out: prev_out, .. } = &ops[k - 1] else {
                return false;
            };
            // The next step must dereference exactly the previous output
            // through one attribute: `Path(prev_out, [attr])`.
            match on {
                Expr::Path { base, steps } if base == prev_out && steps.len() == 1 => {}
                _ => return false,
            }
        }
    }
    true
}
