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
//! or skip them.

use std::collections::HashMap;

use oorq_schema::{Catalog, ResolvedType};
use oorq_storage::{EntitySource, PhysicalSchema};

use crate::error::PtError;
use crate::node::{pij_out_classes, type_of_column_expr, Preorder, Pt};
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

/// Resolve every node of `pt`, indexed by pre-order id. `temps` holds
/// the shapes of temporaries defined outside the plan; a fixpoint's own
/// temporary has its base leg's shape and is in scope for the recursive
/// leg and everything walked after it (the accumulator stays
/// materialized).
pub fn resolve<'p>(
    catalog: &'p Catalog,
    physical: &'p PhysicalSchema,
    temps: &HashMap<String, Cols>,
    pt: &'p Pt,
) -> Result<Vec<Node<'p>>, PtError> {
    let order = pt.preorder();
    let mut walk = Walk {
        catalog,
        physical,
        temps,
        order: &order,
        defined: Vec::new(),
        nodes: vec![None; order.len()],
    };
    walk.go(0)?;
    let nodes = walk.nodes.into_iter();
    Ok(nodes.map(|n| n.expect("every child is walked")).collect())
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
    temps: &'e HashMap<String, Cols>,
    order: &'e Preorder<'p>,
    /// Temporaries of the fixpoints entered so far, innermost last: the
    /// name, and the base leg whose output is its shape.
    defined: Vec<(&'p str, usize)>,
    nodes: Vec<Option<Node<'p>>>,
}

impl<'p> Walk<'_, 'p> {
    fn cols(&self, id: usize) -> &Cols {
        let node = self.nodes[id].as_ref();
        &node.expect("walked before it is read").cols
    }

    /// What node `id` executes as, its operands named by id.
    fn op(&self, id: usize) -> Result<NodeOp<'p, usize>, PtError> {
        let at = |path: &[usize]| self.order.at_path(id, path);
        node_op_at(self.catalog, self.physical, self.order.pt(id), at)
    }

    /// Resolve the subtree at `id`, children first.
    fn go(&mut self, id: usize) -> Result<(), PtError> {
        let op = self.op(id)?;
        if let NodeOp::FixPoint {
            temp,
            base,
            rec,
            body,
        } = op
        {
            // The base leg first, whichever side it is on: the recursive
            // leg reads the shape it hands up. The body union is absorbed
            // — resolved, but its legs are walked from here.
            self.go(base)?;
            self.defined.push((temp, base));
            self.go(rec)?;
            self.put(body, self.op(body)?)?;
        } else {
            for kid in self.order.kids(id) {
                self.go(kid)?;
            }
        }
        self.put(id, op)
    }

    /// Record node `id`, whose children are resolved, with the columns it
    /// hands up: the one statement of what each operator outputs.
    fn put(&mut self, id: usize, op: NodeOp<'p, usize>) -> Result<(), PtError> {
        let (catalog, physical) = (self.catalog, self.physical);
        let cols = match &op {
            NodeOp::EntityScan { entity, var } => {
                let desc = physical.entity(*entity);
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
                    Some(&(_, base)) => self.cols(base),
                    None => self
                        .temps
                        .get(*name)
                        .ok_or_else(|| PtError::UnknownTemp(name.to_string()))?,
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
            NodeOp::NlJoin { left, right, .. }
            | NodeOp::IndexJoin {
                left, inner: right, ..
            } => [self.cols(*left).as_slice(), self.cols(*right)].concat(),
        };
        let size = self.order.size(id);
        self.nodes[id] = Some(Node { size, op, cols });
        Ok(())
    }
}
