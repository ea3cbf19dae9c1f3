//! Query graphs (§2.2–2.3 of the paper).
//!
//! A query graph is a set `Q = {(Name ← p)}` where each `p` is a
//! predicate node `SPJ(In, pred, outproj)` — and, after the optimizer's
//! `rewrite` step, possibly a `Union` or `Fix` term. Incoming arcs carry
//! [`TreeLabel`]s binding variables to the needed sub-objects.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use oorq_schema::{AtomicType, Catalog, ClassId, RelationId, ResolvedType, ViewKind};

use crate::error::QueryError;
use crate::expr::{Expr, Literal};
use crate::label::TreeLabel;

/// A name node of the query graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NameRef {
    /// A class extension.
    Class(ClassId),
    /// A stored relation or a declared view (e.g. `Influencer`).
    Relation(RelationId),
    /// A derived name produced by a predicate node (e.g. `Answer`).
    Derived(String),
}

impl NameRef {
    /// Render with catalog names.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> NameDisplay<'a> {
        NameDisplay {
            name: self,
            catalog,
        }
    }

    /// The row/object type this name denotes. Derived names are resolved
    /// by the owning [`QueryGraph`].
    pub(crate) fn base_type(&self, catalog: &Catalog) -> Option<ResolvedType> {
        match self {
            NameRef::Class(c) => Some(ResolvedType::Object(*c)),
            NameRef::Relation(r) => Some(ResolvedType::Tuple(catalog.relation(*r).fields.clone())),
            NameRef::Derived(_) => None,
        }
    }
}

/// Helper rendering a [`NameRef`] with catalog names.
pub struct NameDisplay<'a> {
    name: &'a NameRef,
    catalog: &'a Catalog,
}

impl fmt::Display for NameDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name {
            NameRef::Class(c) => write!(f, "{}", self.catalog.class(*c).name),
            NameRef::Relation(r) => write!(f, "{}", self.catalog.relation(*r).name),
            NameRef::Derived(n) => write!(f, "{n}"),
        }
    }
}

/// An incoming arc of a predicate node: `(Name, tree)` plus a root
/// variable denoting the input instance itself.
#[derive(Debug, Clone, PartialEq)]
pub struct QArc {
    /// The name node the arc originates at.
    pub name: NameRef,
    /// Variable bound to the input instance (e.g. `x in Composer`).
    pub var: Option<String>,
    /// The tree label.
    pub label: TreeLabel,
}

impl QArc {
    /// Arc with a root variable and an (initially) leaf label.
    pub fn new(name: NameRef, var: impl Into<String>) -> Self {
        QArc {
            name,
            var: Some(var.into()),
            label: TreeLabel::leaf(),
        }
    }
}

/// A predicate node `SPJ(In, pred, outproj)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpjNode {
    /// Incoming arcs.
    pub inputs: Vec<QArc>,
    /// The Boolean predicate.
    pub pred: Expr,
    /// The output projection: a tuple of named expressions (the paper's
    /// outgoing-arc tree label, which references input variables).
    pub out_proj: Vec<(String, Expr)>,
}

/// A term producing a name node. Original query graphs contain only
/// `Spj`; the optimizer's `rewrite` step introduces `Union` and `Fix`.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphTerm {
    /// A select-project-join.
    Spj(SpjNode),
    /// Union of two terms (same output type).
    Union(Box<GraphTerm>, Box<GraphTerm>),
    /// Fixpoint: `Fix(Name, p)` computes the least fixpoint of the
    /// equation `Name = p(Name)`.
    Fix(NameRef, Box<GraphTerm>),
}

impl GraphTerm {
    /// All SPJ nodes in the term (in evaluation order).
    pub fn spjs(&self) -> Vec<&SpjNode> {
        let mut out = Vec::new();
        self.collect_spjs(&mut out);
        out
    }

    fn collect_spjs<'a>(&'a self, out: &mut Vec<&'a SpjNode>) {
        match self {
            GraphTerm::Spj(s) => out.push(s),
            GraphTerm::Union(l, r) => {
                l.collect_spjs(out);
                r.collect_spjs(out);
            }
            GraphTerm::Fix(_, p) => p.collect_spjs(out),
        }
    }

    /// Mutable variant of [`GraphTerm::spjs`].
    pub(crate) fn spjs_mut(&mut self) -> Vec<&mut SpjNode> {
        let mut out = Vec::new();
        fn walk<'a>(t: &'a mut GraphTerm, out: &mut Vec<&'a mut SpjNode>) {
            match t {
                GraphTerm::Spj(s) => out.push(s),
                GraphTerm::Union(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                GraphTerm::Fix(_, p) => walk(p, out),
            }
        }
        walk(self, &mut out);
        out
    }

    /// How many of the term's SPJ inputs read `name`. Of one union
    /// alternative (see [`GraphTerm::alternatives`]) producing `name`,
    /// this is its self-reference count: 0 is a base case, 1 a linear
    /// recursive step, 2 or more non-linear recursion.
    pub fn self_references(&self, name: &NameRef) -> usize {
        let inputs = self.spjs().into_iter().flat_map(|s| &s.inputs);
        inputs.filter(|arc| arc.name == *name).count()
    }

    /// Names consumed by the term's SPJ inputs.
    pub fn consumed_names(&self) -> Vec<&NameRef> {
        self.spjs()
            .iter()
            .flat_map(|s| s.inputs.iter().map(|a| &a.name))
            .collect()
    }

    /// The union alternatives of the term, looking through a fixpoint
    /// wrapper: `Union(a, b)` flattens to the alternatives of both
    /// sides, `Fix(_, p)` to the alternatives of `p`. Used to classify
    /// recursion (each alternative is one "rule" producing the name).
    pub fn alternatives(&self) -> Vec<&GraphTerm> {
        match self {
            GraphTerm::Union(l, r) => {
                let mut out = l.alternatives();
                out.extend(r.alternatives());
                out
            }
            GraphTerm::Fix(_, p) => p.alternatives(),
            t => vec![t],
        }
    }

    /// Render with catalog names.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> TermDisplay<'a> {
        TermDisplay {
            term: self,
            catalog,
        }
    }
}

/// Helper rendering a [`GraphTerm`] in the paper's notation.
pub struct TermDisplay<'a> {
    term: &'a GraphTerm,
    catalog: &'a Catalog,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            GraphTerm::Spj(s) => {
                write!(f, "SPJ({{")?;
                for (i, arc) in s.inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "({}, {})", arc.name.display(self.catalog), arc.label)?;
                }
                write!(f, "}}, {}, [", s.pred)?;
                for (i, (n, e)) in s.out_proj.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {e}")?;
                }
                write!(f, "])")
            }
            GraphTerm::Union(l, r) => write!(
                f,
                "Union({}, {})",
                l.display(self.catalog),
                r.display(self.catalog)
            ),
            GraphTerm::Fix(n, p) => write!(
                f,
                "Fix({}, {})",
                n.display(self.catalog),
                p.display(self.catalog)
            ),
        }
    }
}

/// A query graph: `Q = {(Name ← p)}` with a distinguished answer name.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGraph {
    /// The `(Name ← term)` pairs.
    pub nodes: Vec<(NameRef, GraphTerm)>,
    /// The distinguished answer name.
    pub answer: NameRef,
}

impl QueryGraph {
    /// New query graph with the given answer name.
    pub fn new(answer: NameRef) -> Self {
        QueryGraph {
            nodes: Vec::new(),
            answer,
        }
    }

    /// Add `(name ← Spj(node))`.
    pub fn add_spj(&mut self, name: NameRef, node: SpjNode) -> &mut Self {
        self.nodes.push((name, GraphTerm::Spj(node)));
        self
    }

    /// The terms producing a name.
    pub fn producers(&self, name: &NameRef) -> Vec<&GraphTerm> {
        self.nodes
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// The row type of a name node: base types for classes/relations, the
    /// inferred projection type for derived names.
    pub fn type_of(&self, catalog: &Catalog, name: &NameRef) -> Result<ResolvedType, QueryError> {
        self.type_of_in(catalog, name, &mut Vec::new())
    }

    /// [`QueryGraph::type_of`] with a stack of the derived names whose
    /// types are currently being inferred: recursion through derived
    /// names is a typing cycle (only declared view relations may be
    /// recursive — their declaration fixes the type).
    fn type_of_in(
        &self,
        catalog: &Catalog,
        name: &NameRef,
        visiting: &mut Vec<NameRef>,
    ) -> Result<ResolvedType, QueryError> {
        if let Some(t) = name.base_type(catalog) {
            return Ok(t);
        }
        let NameRef::Derived(dname) = name else {
            unreachable!("base covered")
        };
        if visiting.contains(name) {
            return Err(QueryError::CyclicTyping(dname.clone()));
        }
        let term = self
            .producers(name)
            .into_iter()
            .next()
            .ok_or_else(|| QueryError::UndefinedDerived(dname.clone()))?;
        let spj = term
            .spjs()
            .into_iter()
            .next()
            .ok_or_else(|| QueryError::UndefinedDerived(dname.clone()))?;
        visiting.push(name.clone());
        let out = self.spj_out_type_in(catalog, spj, visiting);
        visiting.pop();
        out
    }

    /// The output tuple type of an SPJ node.
    pub fn spj_out_type(
        &self,
        catalog: &Catalog,
        spj: &SpjNode,
    ) -> Result<ResolvedType, QueryError> {
        self.spj_out_type_in(catalog, spj, &mut Vec::new())
    }

    fn spj_out_type_in(
        &self,
        catalog: &Catalog,
        spj: &SpjNode,
        visiting: &mut Vec<NameRef>,
    ) -> Result<ResolvedType, QueryError> {
        let env = self.binding_env_in(catalog, spj, visiting)?;
        let fields = spj
            .out_proj
            .iter()
            .map(|(n, e)| Ok((n.clone(), expr_type(catalog, e, &env)?)))
            .collect::<Result<Vec<_>, QueryError>>()?;
        Ok(ResolvedType::Tuple(fields))
    }

    /// The variable typing environment of an SPJ node: root variables plus
    /// every variable bound in its tree labels.
    pub fn binding_env(
        &self,
        catalog: &Catalog,
        spj: &SpjNode,
    ) -> Result<HashMap<String, ResolvedType>, QueryError> {
        self.binding_env_in(catalog, spj, &mut Vec::new())
    }

    fn binding_env_in(
        &self,
        catalog: &Catalog,
        spj: &SpjNode,
        visiting: &mut Vec<NameRef>,
    ) -> Result<HashMap<String, ResolvedType>, QueryError> {
        let mut env = HashMap::new();
        for arc in &spj.inputs {
            let ty = self.type_of_in(catalog, &arc.name, visiting)?;
            if let Some(v) = &arc.var {
                if env.insert(v.clone(), ty.clone()).is_some() {
                    return Err(QueryError::DuplicateVariable(v.clone()));
                }
            }
            collect_label_types(catalog, &arc.label, &ty, &mut env)?;
        }
        Ok(env)
    }

    /// Normalize the graph: every path expression in predicates and
    /// output projections is grafted onto the tree label of its base
    /// arc (sharing attribute prefixes — the factorization of
    /// overlapping paths the paper's §5 highlights) and replaced by the
    /// variable bound at its end. After normalization, predicates
    /// reference only variables.
    pub fn normalize(&mut self, catalog: &Catalog) -> Result<(), QueryError> {
        let snapshot = self.clone();
        let mut counter = 0usize;
        for (_, term) in &mut self.nodes {
            for spj in term.spjs_mut() {
                normalize_spj(&snapshot, catalog, spj, &mut counter)?;
            }
        }
        Ok(())
    }

    /// Paper-style denotation of the whole graph.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> GraphDisplay<'a> {
        GraphDisplay {
            graph: self,
            catalog,
        }
    }
}

/// Helper rendering a [`QueryGraph`] in the paper's notation.
pub struct GraphDisplay<'a> {
    graph: &'a QueryGraph,
    catalog: &'a Catalog,
}

impl fmt::Display for GraphDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Q = {{")?;
        for (name, term) in &self.graph.nodes {
            writeln!(
                f,
                "  ({} <- {})",
                name.display(self.catalog),
                term.display(self.catalog)
            )?;
        }
        write!(f, "}}")
    }
}

fn collect_label_types(
    catalog: &Catalog,
    label: &TreeLabel,
    ty: &ResolvedType,
    env: &mut HashMap<String, ResolvedType>,
) -> Result<(), QueryError> {
    for c in &label.children {
        let child_ty = match (&c.attr, ty) {
            (Some(attr), ResolvedType::Object(class)) => catalog
                .attr(*class, attr)
                .map(|(_, a)| a.ty.clone())
                .ok_or_else(|| QueryError::UnknownAttribute {
                    class: catalog.class(*class).name.clone(),
                    attr: attr.clone(),
                })?,
            (Some(attr), ResolvedType::Tuple(fields)) => fields
                .iter()
                .find(|(n, _)| n == attr)
                .map(|(_, t)| t.clone())
                .ok_or_else(|| QueryError::UnknownField(attr.clone()))?,
            (None, ResolvedType::Set(e)) | (None, ResolvedType::List(e)) => (**e).clone(),
            (step, other) => {
                return Err(QueryError::BadLabelStep {
                    step: step.clone().unwrap_or_else(|| "NIL".into()),
                    ty: format!("{other:?}"),
                })
            }
        };
        if let Some(v) = &c.var {
            if env.insert(v.clone(), child_ty.clone()).is_some() {
                return Err(QueryError::DuplicateVariable(v.clone()));
            }
        }
        collect_label_types(catalog, &c.tree, &child_ty, env)?;
    }
    Ok(())
}

/// Infer the type of an expression under a variable environment.
/// Collection constructors are stripped along paths (a path through a
/// collection denotes its members, one per embedding).
pub fn expr_type(
    catalog: &Catalog,
    expr: &Expr,
    env: &HashMap<String, ResolvedType>,
) -> Result<ResolvedType, QueryError> {
    match expr {
        Expr::True => Ok(ResolvedType::Atomic(AtomicType::Bool)),
        Expr::Lit(l) => Ok(ResolvedType::Atomic(match l {
            Literal::Int(_) => AtomicType::Int,
            Literal::Float(_) => AtomicType::Float,
            Literal::Text(_) => AtomicType::Text,
            Literal::Bool(_) => AtomicType::Bool,
            Literal::Null => AtomicType::Bool, // typeless; placeholder
        })),
        Expr::Var(v) => {
            let t = env
                .get(v)
                .ok_or_else(|| QueryError::UnboundVariable(v.clone()))?;
            Ok(strip_collections(t.clone()))
        }
        Expr::Path { base, steps } => {
            let mut ty = env
                .get(base)
                .cloned()
                .ok_or_else(|| QueryError::UnboundVariable(base.clone()))?;
            for step in steps {
                ty = strip_collections(ty);
                ty = match &ty {
                    ResolvedType::Object(class) => catalog
                        .attr(*class, step)
                        .map(|(_, a)| a.ty.clone())
                        .ok_or_else(|| QueryError::UnknownAttribute {
                            class: catalog.class(*class).name.clone(),
                            attr: step.clone(),
                        })?,
                    ResolvedType::Tuple(fields) => fields
                        .iter()
                        .find(|(n, _)| n == step)
                        .map(|(_, t)| t.clone())
                        .ok_or_else(|| QueryError::UnknownField(step.clone()))?,
                    other => {
                        return Err(QueryError::BadLabelStep {
                            step: step.clone(),
                            ty: format!("{other:?}"),
                        })
                    }
                };
            }
            Ok(strip_collections(ty))
        }
        Expr::Cmp { .. } | Expr::And(..) | Expr::Or(..) | Expr::Not(_) => {
            Ok(ResolvedType::Atomic(AtomicType::Bool))
        }
        Expr::Add(l, r) => {
            let lt = expr_type(catalog, l, env)?;
            let _ = expr_type(catalog, r, env)?;
            Ok(lt)
        }
    }
}

fn strip_collections(ty: ResolvedType) -> ResolvedType {
    match ty {
        ResolvedType::Set(e) | ResolvedType::List(e) => strip_collections(*e),
        other => other,
    }
}

/// Graft every path of `spj`'s predicate and projection onto the arcs'
/// tree labels and rewrite the expressions to reference the bound
/// variables.
fn normalize_spj(
    graph: &QueryGraph,
    catalog: &Catalog,
    spj: &mut SpjNode,
    counter: &mut usize,
) -> Result<(), QueryError> {
    // Root variables and pre-bound label variables.
    let pre_bound: BTreeSet<String> = {
        let mut s = BTreeSet::new();
        for arc in &spj.inputs {
            if let Some(v) = &arc.var {
                s.insert(v.clone());
            }
            for v in arc.label.vars() {
                s.insert(v);
            }
        }
        s
    };
    // Memoize grafted paths so identical occurrences share one variable.
    let mut grafted: HashMap<(String, Vec<String>), String> = HashMap::new();
    // Collect paths first (immutable walk), then graft.
    let mut all_paths: Vec<(String, Vec<String>)> = Vec::new();
    for e in std::iter::once(&spj.pred).chain(spj.out_proj.iter().map(|(_, e)| e)) {
        for (base, steps) in e.paths() {
            if steps.is_empty() {
                continue;
            }
            all_paths.push((base.to_string(), steps.to_vec()));
        }
    }
    for (base, steps) in all_paths {
        if grafted.contains_key(&(base.clone(), steps.clone())) {
            continue;
        }
        if !pre_bound.contains(&base) {
            return Err(QueryError::UnboundVariable(base.clone()));
        }
        let arc = spj
            .inputs
            .iter_mut()
            .find(|a| a.var.as_deref() == Some(base.as_str()))
            .ok_or_else(|| QueryError::UnboundVariable(base.clone()))?;
        let ty = graph.type_of(catalog, &arc.name)?;
        let mut fresh = || {
            *counter += 1;
            format!("_v{counter}")
        };
        let var = arc.label.graft_path(catalog, &ty, &steps, &mut fresh)?;
        grafted.insert((base, steps), var);
    }
    // Rewrite expressions.
    let rewrite = |e: &Expr| -> Expr {
        e.map_leaves(&mut |leaf| match leaf {
            Expr::Path { base, steps } if !steps.is_empty() => grafted
                .get(&(base.clone(), steps.clone()))
                .map(|v| Expr::Var(v.clone())),
            _ => None,
        })
    };
    spj.pred = rewrite(&spj.pred);
    for (_, e) in &mut spj.out_proj {
        *e = rewrite(e);
    }
    Ok(())
}

/// Registry of view definitions: the predicate nodes whose output is the
/// view's relation name (e.g. the two select blocks of `Influencer`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ViewRegistry {
    defs: HashMap<RelationId, Vec<SpjNode>>,
}

impl ViewRegistry {
    /// New empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register the defining predicate nodes of a view.
    pub(crate) fn define(&mut self, view: RelationId, nodes: Vec<SpjNode>) {
        self.defs.insert(view, nodes);
    }

    /// Splice the definitions of every referenced view into the graph
    /// (transitively). Each view's nodes are added once, producing the
    /// view's relation name.
    pub(crate) fn expand(
        &self,
        graph: &mut QueryGraph,
        catalog: &Catalog,
    ) -> Result<(), QueryError> {
        let mut done: BTreeSet<RelationId> = BTreeSet::new();
        loop {
            let mut todo: Vec<RelationId> = Vec::new();
            for (_, term) in &graph.nodes {
                for name in term.consumed_names() {
                    if let NameRef::Relation(r) = name {
                        if catalog.relation(*r).kind == ViewKind::View
                            && !done.contains(r)
                            && graph.producers(&NameRef::Relation(*r)).is_empty()
                        {
                            todo.push(*r);
                        }
                    }
                }
            }
            todo.sort();
            todo.dedup();
            if todo.is_empty() {
                return Ok(());
            }
            for r in todo {
                let nodes = self
                    .defs
                    .get(&r)
                    .ok_or_else(|| QueryError::UnknownView(catalog.relation(r).name.clone()))?;
                for n in nodes {
                    graph
                        .nodes
                        .push((NameRef::Relation(r), GraphTerm::Spj(n.clone())));
                }
                done.insert(r);
            }
        }
    }
}
