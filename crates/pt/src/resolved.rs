//! The resolved plan: everything the passes over a PT used to derive for
//! themselves, derived once.
//!
//! [`resolve`] visits every node of a [`Pt`] and records, under the
//! node's pre-order id ([`Preorder`]), what it executes as ([`node_op`],
//! with operands named by id) and the columns it hands up, typed —
//! scoping fixpoint temporaries as it descends. A pass (lowering, the
//! cost model, the analyzer) walks that value: ids, operators,
//! temporaries in scope and output columns come with the node. Absorbed
//! children (the leaf an index probe replaces, an implicit join's target,
//! a fixpoint's body union) are nodes like any other, so a pass can mark
//! or skip them. The walk goes on past a node that fails: the plan lint
//! reads every failure where it happened ([`resolve_each`]), every other
//! pass the first one.

use std::collections::HashMap;

use oorq_schema::{Catalog, ResolvedType};
use oorq_storage::{EntitySource, PhysicalSchema};

use crate::error::PtError;
use crate::node::{entity_desc, pij_out_classes, type_of_column_expr, Preorder, Pt};
use crate::phys::{node_op_at, NodeOp};

/// Named, typed columns: what a node hands up, or a temporary's shape.
pub type Cols = Vec<(String, ResolvedType)>;

/// One resolved PT node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node<'p> {
    /// Subtree size in nodes (the subtree's ids are `id..id + size`).
    pub size: usize,
    /// What the node executes as; operands are pre-order ids.
    pub op: NodeOp<'p, usize>,
    /// The columns the node hands up, in order. A fixpoint hands up its
    /// temporary's shape: the base leg's output, names verbatim.
    pub cols: Cols,
}

/// Resolve every node of `pt`, indexed by pre-order id. A fixpoint's
/// temporary has its base leg's shape and is in scope only in that
/// fixpoint's recursive leg, where every scan of it reads the last pass's
/// delta; a scan anywhere else is [`PtError::UnknownTemp`]. `open` is the
/// one temporary defined outside the plan, by name and shape: the
/// optimizer's, while it plans a recursive leg apart from its fixpoint;
/// every other caller passes `None`. All or nothing: the first failure of
/// the walk ([`resolve_each`]) is the error.
pub fn resolve<'p>(
    catalog: &'p Catalog,
    physical: &'p PhysicalSchema,
    open: Option<(&str, &Cols)>,
    pt: &'p Pt,
) -> Result<Vec<Node<'p>>, PtError> {
    let order = pt.preorder();
    let mut walk = Walk::new(catalog, physical, open, &order);
    walk.go(0)?;
    let resolved = |n: Option<Result<_, _>>| n.and_then(Result::ok).expect("no node failed");
    Ok(walk.nodes.into_iter().map(resolved).collect())
}

/// [`resolve`]'s walk over every node of `order`, each temporary in scope
/// only in its fixpoint's recursive leg, carried on past failures: a node
/// that fails holds its error, its ancestors are left unresolved
/// (`None`), and every other subtree is still resolved — a fixpoint's
/// recursive leg too when its base leg failed (a scan of the temporary,
/// which then has no shape, is left unresolved like an ancestor of the
/// failure), and the children of a fixpoint whose body is malformed.
pub fn resolve_each<'p>(
    catalog: &'p Catalog,
    physical: &'p PhysicalSchema,
    open: Option<(&str, &Cols)>,
    order: &Preorder<'p>,
) -> Vec<Option<Result<Node<'p>, PtError>>> {
    let mut walk = Walk::new(catalog, physical, open, order);
    // Every failure stays under the node that failed.
    let _ = walk.go(0);
    walk.nodes
}

/// `fields` as the columns of a relation extent or temporary bound to
/// `var`: one `var.field` column each.
fn qualified(var: &str, fields: &[(String, ResolvedType)]) -> Cols {
    let col = |(n, t): &(String, ResolvedType)| (format!("{var}.{n}"), t.clone());
    fields.iter().map(col).collect()
}

struct Walk<'e, 'p> {
    catalog: &'p Catalog,
    physical: &'p PhysicalSchema,
    open: Option<(&'e str, &'e Cols)>,
    order: &'e Preorder<'p>,
    /// Temporaries of the fixpoints whose recursive leg is being walked,
    /// innermost last: the name, and the base leg whose output is its
    /// shape — or that leg's failure.
    defined: Vec<(&'p str, Result<usize, PtError>)>,
    nodes: Vec<Option<Result<Node<'p>, PtError>>>,
}

impl<'e, 'p> Walk<'e, 'p> {
    fn new(
        catalog: &'p Catalog,
        physical: &'p PhysicalSchema,
        open: Option<(&'e str, &'e Cols)>,
        order: &'e Preorder<'p>,
    ) -> Self {
        Walk {
            catalog,
            physical,
            open,
            order,
            defined: Vec::new(),
            nodes: vec![None; order.len()],
        }
    }

    fn cols(&self, id: usize) -> &Cols {
        match &self.nodes[id] {
            Some(Ok(node)) => &node.cols,
            _ => unreachable!("a node's operands resolve before it"),
        }
    }

    /// What node `id` executes as, its operands named by id.
    fn op(&self, id: usize) -> Result<NodeOp<'p, usize>, PtError> {
        let at = |path: &[usize]| self.order.at_path(id, path);
        node_op_at(self.catalog, self.physical, self.order.pt(id), at)
    }

    /// Resolve the subtree at `id`, children first; returns the first
    /// failure in walk order. A node whose operand failed is left
    /// unresolved, but its other operands are still walked.
    fn go(&mut self, id: usize) -> Result<(), PtError> {
        let op = self.op(id);
        let kids = if let Ok(NodeOp::FixPoint {
            temp,
            base,
            rec,
            body,
        }) = op
        {
            // The base leg first, whichever side it is on: the recursive
            // leg reads the shape it hands up. The body union is absorbed
            // — resolved, but its legs are walked from here.
            let base_walked = self.go(base);
            self.defined
                .push((temp, base_walked.clone().map(|()| base)));
            let legs = base_walked.and(self.go(rec));
            self.defined.pop();
            legs.and_then(|()| self.op(body))
                .and_then(|op| self.put(body, op))
        } else if let Ok(NodeOp::TempScan { name, .. }) = op {
            // A temporary whose base leg failed has no shape to hand up.
            match self.defined.iter().rev().find(|(n, _)| *n == name) {
                Some((_, Err(e))) => Err(e.clone()),
                _ => Ok(()),
            }
        } else {
            let mut walked = Ok(());
            for kid in self.order.kids(id) {
                walked = walked.and(self.go(kid));
            }
            walked
        };
        match op {
            // A malformed fixpoint fails before its children do.
            Err(e) => self.record(id, Err(e)),
            Ok(op) => kids.and_then(|()| self.put(id, op)),
        }
    }

    /// Record what the walk made of node `id`.
    fn record(&mut self, id: usize, node: Result<Node<'p>, PtError>) -> Result<(), PtError> {
        let walked = node.as_ref().map(|_| ()).map_err(Clone::clone);
        self.nodes[id] = Some(node);
        walked
    }

    /// Record node `id`, whose operands are resolved.
    fn put(&mut self, id: usize, op: NodeOp<'p, usize>) -> Result<(), PtError> {
        let node = self.output(&op).map(|cols| Node {
            size: self.order.size(id),
            op,
            cols,
        });
        self.record(id, node)
    }

    /// The columns a node whose operands are resolved hands up: the one
    /// statement of what each operator outputs.
    fn output(&self, op: &NodeOp<'p, usize>) -> Result<Cols, PtError> {
        let (catalog, physical) = (self.catalog, self.physical);
        Ok(match op {
            NodeOp::EntityScan { entity, var } => {
                let desc = entity_desc(physical, *entity)?;
                match desc.source {
                    EntitySource::Class(c) => vec![(var.to_string(), ResolvedType::Object(c))],
                    EntitySource::Relation(r) => qualified(var, &catalog.relation(r).fields),
                    EntitySource::Temporary => {
                        return Err(PtError::TempAsEntity(desc.name.clone()))
                    }
                }
            }
            NodeOp::TempScan { name, var } => {
                let fields = match self.defined.iter().rev().find(|(n, _)| n == name) {
                    Some((_, Ok(base))) => self.cols(*base).as_slice(),
                    Some((_, Err(_))) => unreachable!("`go` leaves this scan unresolved"),
                    None => match self.open {
                        Some((open, cols)) if open == *name => cols,
                        _ => return Err(PtError::UnknownTemp(name.to_string())),
                    },
                };
                qualified(var, fields)
            }
            NodeOp::Filter { input: from, .. }
            | NodeOp::IndexSelect { leaf: from, .. }
            | NodeOp::UnionAll { left: from, .. }
            | NodeOp::FixPoint { base: from, .. } => self.cols(*from).clone(),
            NodeOp::Project { exprs, input } => {
                let cenv: HashMap<String, ResolvedType> =
                    self.cols(*input).iter().cloned().collect();
                let typed =
                    |(n, e): &(String, _)| Ok((n.clone(), type_of_column_expr(catalog, e, &cenv)?));
                exprs.iter().map(typed).collect::<Result<_, PtError>>()?
            }
            NodeOp::IjDeref {
                step,
                out,
                input,
                target,
                ..
            } => {
                let class = step.target_class(catalog, physical, self.order.pt(*target))?;
                let mut cols = self.cols(*input).clone();
                cols.push((out.to_string(), ResolvedType::Object(class)));
                cols
            }
            NodeOp::PijLookup {
                index, outs, input, ..
            } => {
                let classes = pij_out_classes(catalog, physical, *index, outs)?;
                let bound = classes.into_iter().map(ResolvedType::Object);
                let mut cols = self.cols(*input).clone();
                cols.extend(outs.iter().cloned().zip(bound));
                cols
            }
            NodeOp::NlJoin { left, right, .. } => {
                [self.cols(*left).as_slice(), self.cols(*right)].concat()
            }
        })
    }
}
