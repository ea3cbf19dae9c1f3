//! Processing-tree nodes (§3.1 of the paper).
//!
//! A PT is an algebra over *physical* entities: interior nodes are
//! operators (`Sel`, `Proj`, `IJ`, `PIJ`, `EJ`, `Union`, `Fix`) and leaf
//! nodes are atomic entities of the physical schema or temporary files.
//! PTs are functional terms — e.g. Figure 4.(i)'s root is
//! `IJ_disc(Sel_name="harpsichord"(...), Composer)` — and model a
//! bottom-up execution consuming operands left to right.
//!
//! Operationally every node produces a stream of *binding rows* with
//! named, typed columns: an `Entity` leaf binds its instances to the
//! leaf's variable (class extents bind oids; relation extents bind one
//! column per field, qualified `var.field`), `IJ` dereferences an
//! oid-valued expression and binds each referenced sub-object, `PIJ`
//! probes a path index, `EJ`/`Sel`/`Proj`/`Union`/`Fix` behave as usual.

use std::collections::HashMap;
use std::fmt;

use oorq_query::{bind_path, expr_type, Expr};
use oorq_schema::{AttrId, Catalog, ClassId, ResolvedType};
use oorq_storage::{EntityDesc, EntityId, EntitySource, IndexId, IndexKindDesc, PhysicalSchema};

use crate::error::PtError;
use crate::fingerprint::Fnv64;
use crate::resolved::resolve;

/// Access method of a selection over an entity leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMethod {
    /// Sequential scan.
    Scan,
    /// Probe of a selection index.
    Index(IndexId),
}

/// The attribute (or relation/temporary field) an implicit join
/// traverses. Class attributes carry their `(class, attr)` ids so the
/// cost model can consult fan-out and clustering statistics; oid-valued
/// relation/temporary fields (e.g. `Influencer.disc`) carry only a name.
#[derive(Debug, Clone, PartialEq)]
pub struct IjStep {
    /// Attribute/field name, as displayed (`IJ_<name>`).
    pub name: String,
    /// The declaring class and attribute id, when traversing a class
    /// attribute.
    pub class_attr: Option<(ClassId, AttrId)>,
}

impl IjStep {
    /// Step through a class attribute.
    pub fn class_attr(catalog: &Catalog, class: ClassId, attr: AttrId) -> Self {
        IjStep {
            name: catalog.attribute(class, attr).name.clone(),
            class_attr: Some((class, attr)),
        }
    }

    /// Step through an oid-valued relation/temporary field.
    pub fn field(name: impl Into<String>) -> Self {
        IjStep {
            name: name.into(),
            class_attr: None,
        }
    }

    /// Class of the sub-objects an `IJ` over this step binds: that of
    /// the `target` entity leaf, falling back to the class the traversed
    /// attribute references.
    pub fn target_class(
        &self,
        catalog: &Catalog,
        physical: &PhysicalSchema,
        target: &Pt,
    ) -> Result<ClassId, PtError> {
        let of_leaf = match target {
            Pt::Entity { id, .. } => match entity_desc(physical, *id)?.source {
                EntitySource::Class(c) => Some(c),
                _ => None,
            },
            _ => None,
        };
        of_leaf
            .or_else(|| {
                let (c, a) = self.class_attr?;
                catalog.attribute(c, a).ty.referenced_class()
            })
            .ok_or_else(|| PtError::NotAReference(self.name.clone()))
    }
}

/// The physical schema's entry for an entity leaf's id.
pub(crate) fn entity_desc(physical: &PhysicalSchema, id: EntityId) -> Result<&EntityDesc, PtError> {
    let desc = physical.entities().get(id.0 as usize);
    desc.ok_or(PtError::UnknownEntity(id))
}

/// Classes bound by the outputs of a `PIJ` over `index`: output `i`
/// holds the objects step `i` of the index's path references.
pub(crate) fn pij_out_classes(
    catalog: &Catalog,
    physical: &PhysicalSchema,
    index: IndexId,
    outs: &[String],
) -> Result<Vec<ClassId>, PtError> {
    let Some(IndexKindDesc::Path { path }) =
        physical.indexes().get(index.0 as usize).map(|d| &d.kind)
    else {
        return Err(PtError::NotAPathIndex);
    };
    (0..outs.len())
        .map(|i| {
            let (cls, attr) = path
                .get(i)
                .ok_or(PtError::PathIndexArity { wanted: outs.len() })?;
            let a = catalog.attribute(*cls, *attr);
            a.ty.referenced_class()
                .ok_or_else(|| PtError::NotAReference(a.name.clone()))
        })
        .collect()
}

/// A processing-tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Pt {
    /// Atomic entity of the physical schema, binding `var`.
    Entity {
        /// The entity scanned.
        id: EntityId,
        /// Binding variable (class extents: the oid; relations: the
        /// prefix of `var.field` columns).
        var: String,
    },
    /// A temporary file (intermediate result), e.g. the recursive
    /// occurrence inside a fixpoint.
    Temp {
        /// Temporary name (e.g. `Influencer`).
        name: String,
        /// Binding variable prefix.
        var: String,
    },
    /// Selection.
    Sel {
        /// The predicate (an expression over input columns; short
        /// attribute paths on oid columns are allowed and account their
        /// page fetches at execution).
        pred: Expr,
        /// Access method (only meaningful over an `Entity` leaf).
        method: AccessMethod,
        /// Input.
        input: Box<Pt>,
    },
    /// Projection (with set semantics: duplicate output rows removed).
    Proj {
        /// Output columns.
        cols: Vec<(String, Expr)>,
        /// Input.
        input: Box<Pt>,
    },
    /// Implicit join: dereference the oid-valued `on` expression of each
    /// input row and bind each referenced sub-object to `out`.
    IJ {
        /// Expression producing the oid(s) to dereference (fans out over
        /// collection values).
        on: Expr,
        /// The attribute or field traversed (display, fan-out and
        /// clustering lookup).
        step: IjStep,
        /// Output column (holds the sub-object oid).
        out: String,
        /// Input.
        input: Box<Pt>,
        /// The atomic entity holding the sub-objects.
        target: Box<Pt>,
    },
    /// Path implicit join: probe a path index with the head oid and bind
    /// the oids along the path.
    PIJ {
        /// The path index used.
        index: IndexId,
        /// Head-oid expression.
        on: Expr,
        /// Output columns, one per path step.
        outs: Vec<String>,
        /// Input.
        input: Box<Pt>,
        /// The atomic entities spanned (display only; the probe itself
        /// touches only index pages).
        targets: Vec<Pt>,
    },
    /// Explicit (nested-loop) join.
    EJ {
        /// Join predicate.
        pred: Expr,
        /// Outer operand.
        left: Box<Pt>,
        /// Inner operand.
        right: Box<Pt>,
    },
    /// Union (bag union; `Fix` and `Proj` deduplicate).
    Union {
        /// Left operand.
        left: Box<Pt>,
        /// Right operand.
        right: Box<Pt>,
    },
    /// Fixpoint of `temp = body(temp)`, computed semi-naively. The body
    /// must be a `Union` whose one side (the base) does not reference
    /// `Temp(temp)` and whose other side (the recursive part) does.
    Fix {
        /// The temporary holding the accumulated result.
        temp: String,
        /// The fixpoint equation.
        body: Box<Pt>,
    },
}

impl Pt {
    /// Entity leaf.
    pub fn entity(id: EntityId, var: impl Into<String>) -> Pt {
        Pt::Entity {
            id,
            var: var.into(),
        }
    }

    /// Temporary leaf.
    pub fn temp(name: impl Into<String>, var: impl Into<String>) -> Pt {
        Pt::Temp {
            name: name.into(),
            var: var.into(),
        }
    }

    /// Selection with sequential access.
    pub fn sel(pred: Expr, input: Pt) -> Pt {
        Pt::Sel {
            pred,
            method: AccessMethod::Scan,
            input: Box::new(input),
        }
    }

    /// Projection.
    pub fn proj(cols: Vec<(String, Expr)>, input: Pt) -> Pt {
        Pt::Proj {
            cols,
            input: Box::new(input),
        }
    }

    /// Nested-loop explicit join.
    pub fn ej(pred: Expr, left: Pt, right: Pt) -> Pt {
        Pt::EJ {
            pred,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Union.
    pub fn union(left: Pt, right: Pt) -> Pt {
        Pt::Union {
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Fixpoint.
    pub fn fix(temp: impl Into<String>, body: Pt) -> Pt {
        Pt::Fix {
            temp: temp.into(),
            body: Box::new(body),
        }
    }

    /// Structural fingerprint: framed FNV-1a over the tree's full
    /// structure (operators, predicates, access methods, entities). Two
    /// PTs have equal fingerprints iff they are structurally equal
    /// (modulo hash collisions), so candidate plans can be identified
    /// across a trace — and, since the serving layer's plan cache keys
    /// on it, aliasing is not acceptable: every variant writes a
    /// discriminant tag and every variable-length field is
    /// length-prefixed through [`Fnv64`], so no two distinct trees feed
    /// the hash the same byte stream. Render as hex for transport — a
    /// JSON `f64` cannot carry all 64 bits.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        self.hash_into(&mut h);
        h.finish()
    }

    /// Walk the tree into a framed hasher (see [`Pt::fingerprint`]).
    fn hash_into(&self, h: &mut Fnv64) {
        match self {
            Pt::Entity { id, var } => {
                h.write_tag(0);
                h.write_u64(id.0 as u64);
                h.write_str(var);
            }
            Pt::Temp { name, var } => {
                h.write_tag(1);
                h.write_str(name);
                h.write_str(var);
            }
            Pt::Sel {
                pred,
                method,
                input,
            } => {
                h.write_tag(2);
                h.write_debug(pred);
                h.write_debug(method);
                input.hash_into(h);
            }
            Pt::Proj { cols, input } => {
                h.write_tag(3);
                h.write_u64(cols.len() as u64);
                for (name, expr) in cols {
                    h.write_str(name);
                    h.write_debug(expr);
                }
                input.hash_into(h);
            }
            Pt::IJ {
                on,
                step,
                out,
                input,
                target,
            } => {
                h.write_tag(4);
                h.write_debug(on);
                h.write_str(&step.name);
                h.write_debug(&step.class_attr);
                h.write_str(out);
                input.hash_into(h);
                target.hash_into(h);
            }
            Pt::PIJ {
                index,
                on,
                outs,
                input,
                targets,
            } => {
                h.write_tag(5);
                h.write_u64(index.0 as u64);
                h.write_debug(on);
                h.write_u64(outs.len() as u64);
                for o in outs {
                    h.write_str(o);
                }
                input.hash_into(h);
                h.write_u64(targets.len() as u64);
                for t in targets {
                    t.hash_into(h);
                }
            }
            Pt::EJ { pred, left, right } => {
                h.write_tag(6);
                h.write_debug(pred);
                // The bytes the join-algorithm field hashed when an `EJ`
                // could also be an index join: every fingerprint pinned
                // before that variant was deleted stays valid.
                h.write_str("NestedLoop");
                left.hash_into(h);
                right.hash_into(h);
            }
            Pt::Union { left, right } => {
                h.write_tag(7);
                left.hash_into(h);
                right.hash_into(h);
            }
            Pt::Fix { temp, body } => {
                h.write_tag(8);
                h.write_str(temp);
                body.hash_into(h);
            }
        }
    }

    /// Children in operand order.
    pub fn children(&self) -> Vec<&Pt> {
        match self {
            Pt::Entity { .. } | Pt::Temp { .. } => vec![],
            Pt::Sel { input, .. } | Pt::Proj { input, .. } | Pt::Fix { body: input, .. } => {
                vec![input]
            }
            Pt::IJ { input, target, .. } => vec![input, target],
            Pt::PIJ { input, targets, .. } => {
                let mut v = vec![input.as_ref()];
                v.extend(targets.iter());
                v
            }
            Pt::EJ { left, right, .. } | Pt::Union { left, right } => vec![left, right],
        }
    }

    /// Mutable children in operand order.
    pub fn children_mut(&mut self) -> Vec<&mut Pt> {
        match self {
            Pt::Entity { .. } | Pt::Temp { .. } => vec![],
            Pt::Sel { input, .. } | Pt::Proj { input, .. } | Pt::Fix { body: input, .. } => {
                vec![input]
            }
            Pt::IJ { input, target, .. } => vec![input, target],
            Pt::PIJ { input, targets, .. } => {
                let mut v = vec![input.as_mut()];
                v.extend(targets.iter_mut());
                v
            }
            Pt::EJ { left, right, .. } | Pt::Union { left, right } => vec![left, right],
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// True when the tree contains a `Temp` leaf with the given name.
    pub fn references_temp(&self, name: &str) -> bool {
        match self {
            Pt::Temp { name: n, .. } => n == name,
            other => other.children().iter().any(|c| c.references_temp(name)),
        }
    }

    /// The temporary of a fixpoint, the legs of its body and which of
    /// them recurses (0 = left): the body must be a `Union` with the
    /// recursive leg — the one referencing `Temp(temp)` — on either side.
    /// The one place that splits a `Fix` body.
    pub(crate) fn fix_legs(&self) -> Result<(&str, [&Pt; 2], usize), PtError> {
        let Pt::Fix { temp, body } = self else {
            return Err(PtError::FixBodyNotUnion);
        };
        let Pt::Union { left, right } = body.as_ref() else {
            return Err(PtError::FixBodyNotUnion);
        };
        let rec = if left.references_temp(temp) { 0 } else { 1 };
        if rec == 1 && !right.references_temp(temp) {
            return Err(PtError::FixNotRecursive(temp.clone()));
        }
        Ok((temp, [left, right], rec))
    }

    /// `(temp, base, rec)` of a fixpoint (see `Pt::fix_legs`).
    pub fn fix_sides(&self) -> Result<(&str, &Pt, &Pt), PtError> {
        let (temp, legs, rec) = self.fix_legs()?;
        Ok((temp, legs[1 - rec], legs[rec]))
    }

    /// Depth-first pre-order visit of every subtree.
    pub fn visit(&self, f: &mut impl FnMut(&Pt)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// The subtree at a child-index path (empty path = self).
    pub(crate) fn at_path(&self, path: &[usize]) -> Option<&Pt> {
        let mut cur = self;
        for &i in path {
            cur = *cur.children().get(i)?;
        }
        Some(cur)
    }

    /// Replace the subtree at a child-index path, returning the old one.
    pub fn replace_at(&mut self, path: &[usize], new: Pt) -> Result<Pt, PtError> {
        if path.is_empty() {
            return Ok(std::mem::replace(self, new));
        }
        let mut cur = self;
        for &i in &path[..path.len() - 1] {
            let n = cur.children_mut().len();
            cur = cur
                .children_mut()
                .into_iter()
                .nth(i)
                .ok_or(PtError::BadPath { index: i, arity: n })?;
        }
        let last = *path.last().expect("non-empty");
        let n = cur.children_mut().len();
        let slot = cur
            .children_mut()
            .into_iter()
            .nth(last)
            .ok_or(PtError::BadPath {
                index: last,
                arity: n,
            })?;
        Ok(std::mem::replace(slot, new))
    }

    /// Every subtree in pre-order (see [`Preorder`]).
    pub fn preorder(&self) -> Preorder<'_> {
        fn push<'p>(pt: &'p Pt, nodes: &mut Vec<(&'p Pt, usize)>) {
            let at = nodes.len();
            nodes.push((pt, 0));
            for c in pt.children() {
                push(c, nodes);
            }
            nodes[at].1 = nodes.len() - at;
        }
        let mut nodes = Vec::new();
        push(self, &mut nodes);
        Preorder { nodes }
    }

    /// Output columns of the node, given the environment (catalog,
    /// physical schema, temporary shapes): what the root of the resolved
    /// plan ([`resolve`]) hands up.
    pub fn output_columns(&self, env: &PtEnv) -> Result<Vec<(String, ResolvedType)>, PtError> {
        let mut plan = resolve(env.catalog, env.physical, &env.temp_fields, self)?;
        Ok(plan.swap_remove(0).cols)
    }

    /// Render the PT as a functional term using catalog/physical names.
    pub fn display<'a>(&'a self, env: &'a PtEnv<'a>) -> PtDisplay<'a> {
        PtDisplay { pt: self, env }
    }
}

/// Shared naming/typing environment for PTs.
pub struct PtEnv<'a> {
    /// Conceptual catalog.
    pub catalog: &'a Catalog,
    /// Physical schema.
    pub physical: &'a PhysicalSchema,
    /// Field shapes of temporaries defined outside the plan, by name: a
    /// complete plan needs none (each fixpoint scopes its own), a
    /// recursive leg typed before its fixpoint exists needs its own.
    pub temp_fields: HashMap<String, Vec<(String, ResolvedType)>>,
}

impl<'a> PtEnv<'a> {
    /// New environment with no temporaries.
    pub fn new(catalog: &'a Catalog, physical: &'a PhysicalSchema) -> Self {
        PtEnv {
            catalog,
            physical,
            temp_fields: HashMap::new(),
        }
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
}

/// The subtrees of a PT in pre-order: the one numbering of PT nodes. A
/// node's id is its index here, its subtree is `id..id + size(id)` — the
/// ids of a resolved plan ([`resolve`]), `OpMeta::pt_node`, the cost
/// model's per-node lines and the analyzer's bounds.
pub struct Preorder<'p> {
    nodes: Vec<(&'p Pt, usize)>,
}

impl<'p> Preorder<'p> {
    /// Number of nodes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The node with the given id.
    pub fn pt(&self, id: usize) -> &'p Pt {
        self.nodes[id].0
    }

    /// Size of the subtree rooted at `id`.
    pub fn size(&self, id: usize) -> usize {
        self.nodes[id].1
    }

    /// The id a child-index path leads to from `id` ([`Pt::at_path`]).
    pub(crate) fn at_path(&self, id: usize, path: &[usize]) -> usize {
        let step = |at, &i| {
            self.kids(at)
                .nth(i)
                .expect("a child index within the arity")
        };
        path.iter().fold(id, step)
    }

    /// Ids of the children of `id`, in operand order ([`Pt::children`]).
    pub fn kids(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        let end = id + self.size(id);
        let within = move |k: usize| (k < end).then_some(k);
        std::iter::successors(within(id + 1), move |k| within(k + self.size(*k)))
    }
}

/// All subtrees with their child-index paths, indexed by pre-order id
/// ([`Pt::preorder`]; the root has the empty path).
pub fn subtrees(pt: &Pt) -> Vec<(Vec<usize>, &Pt)> {
    let order = pt.preorder();
    let mut paths = vec![Vec::new(); order.len()];
    // A parent's id precedes its children's, so its path is known first.
    for id in 0..order.len() {
        for (i, kid) in order.kids(id).enumerate() {
            paths[kid] = [paths[id].as_slice(), &[i]].concat();
        }
    }
    let nodes = (0..order.len()).map(|id| order.pt(id));
    paths.into_iter().zip(nodes).collect()
}

/// Type an expression over column names. Unlike [`expr_type`]'s variable
/// environment, columns of the form `var.field` may be referenced either
/// directly or as `Path { base: var, steps: [field, ...] }`.
pub fn type_of_column_expr(
    catalog: &Catalog,
    expr: &Expr,
    cols: &HashMap<String, ResolvedType>,
) -> Result<ResolvedType, PtError> {
    // Rewrite `var.field...` paths that bind to a qualified column.
    let rewritten = expr.map_leaves(&mut |leaf| {
        let Expr::Path { base, steps } = leaf else {
            return None;
        };
        let (col, rest) = bind_path(base, steps, |c| cols.get_key_value(c).map(|(k, _)| k))?;
        (rest.len() < steps.len()).then(|| {
            if rest.is_empty() {
                Expr::Var(col.clone())
            } else {
                Expr::Path {
                    base: col.clone(),
                    steps: rest.to_vec(),
                }
            }
        })
    });
    expr_type(catalog, &rewritten, cols).map_err(PtError::Typing)
}

/// Helper rendering a [`Pt`] as a functional term.
pub struct PtDisplay<'a> {
    pt: &'a Pt,
    env: &'a PtEnv<'a>,
}

impl fmt::Display for PtDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_pt(self.pt, self.env, f)
    }
}

fn write_pt(pt: &Pt, env: &PtEnv<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match pt {
        Pt::Entity { id, .. } => write!(f, "{}", env.physical.entity(*id).name),
        Pt::Temp { name, .. } => write!(f, "{name}"),
        Pt::Sel {
            pred,
            input,
            method,
        } => {
            match method {
                AccessMethod::Scan => write!(f, "Sel_{{{pred}}}(")?,
                AccessMethod::Index(_) => write!(f, "Sel^idx_{{{pred}}}(")?,
            }
            write_pt(input, env, f)?;
            write!(f, ")")
        }
        Pt::Proj { cols, input } => {
            write!(f, "Proj_[")?;
            for (i, (n, e)) in cols.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if matches!(e, Expr::Var(v) if v == n) {
                    write!(f, "{n}")?;
                } else {
                    write!(f, "{n}: {e}")?;
                }
            }
            write!(f, "](")?;
            write_pt(input, env, f)?;
            write!(f, ")")
        }
        Pt::IJ {
            step,
            input,
            target,
            ..
        } => {
            write!(f, "IJ_{}(", step.name)?;
            write_pt(input, env, f)?;
            write!(f, ", ")?;
            write_pt(target, env, f)?;
            write!(f, ")")
        }
        Pt::PIJ {
            index,
            input,
            targets,
            ..
        } => {
            let desc = env.physical.index(*index);
            write!(f, "PIJ_{}(", desc.display_name(env.catalog))?;
            write_pt(input, env, f)?;
            for t in targets {
                write!(f, ", ")?;
                write_pt(t, env, f)?;
            }
            write!(f, ")")
        }
        Pt::EJ { pred, left, right } => {
            write!(f, "EJ_{{{pred}}}(")?;
            write_pt(left, env, f)?;
            write!(f, ", ")?;
            write_pt(right, env, f)?;
            write!(f, ")")
        }
        Pt::Union { left, right } => {
            write!(f, "Union(")?;
            write_pt(left, env, f)?;
            write!(f, ", ")?;
            write_pt(right, env, f)?;
            write!(f, ")")
        }
        Pt::Fix { temp, body } => {
            write!(f, "Fix({temp}, ")?;
            write_pt(body, env, f)?;
            write!(f, ")")
        }
    }
}
