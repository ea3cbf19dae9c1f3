//! Tree labels: the tree-shaped adornments on query-graph arcs.
//!
//! §2.2 of the paper: incoming arcs of predicate nodes are labelled by
//! trees which indicate, through variables, the sub-objects needed by the
//! predicate or the output projection. "These trees can be viewed as
//! tree-shaped adornments \[BR86\] ... in an object-oriented model they are
//! trees" (footnote 1). Overlapping path expressions share tree prefixes,
//! which is what lets the optimizer factorize them without rewriting.

use std::fmt;

use oorq_schema::{Catalog, ResolvedType};

use crate::error::QueryError;

/// A tree label: a set of child entries `(Att, tree, variable)`.
///
/// `attr` is `None` for a subtree that does not implement a named
/// attribute (the element step under a set- or list-typed node, printed
/// `NIL` by the paper). `var` is `None` when no variable is bound at the
/// child node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeLabel {
    /// Child entries.
    pub children: Vec<TreeChild>,
}

/// One child entry of a tree label.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeChild {
    /// Attribute implemented by the subtree; `None` for element steps.
    pub attr: Option<String>,
    /// Variable bound at the child node.
    pub var: Option<String>,
    /// The subtree.
    pub tree: TreeLabel,
}

impl TreeLabel {
    /// An empty (leaf) tree label — denoted `{}` by the paper.
    pub fn leaf() -> Self {
        TreeLabel::default()
    }

    /// True when the label requests no sub-objects.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Add an attribute child binding a variable at a leaf:
    /// `(attr, {}, var)`.
    pub fn attr_var(mut self, attr: impl Into<String>, var: impl Into<String>) -> Self {
        self.children.push(TreeChild {
            attr: Some(attr.into()),
            var: Some(var.into()),
            tree: TreeLabel::leaf(),
        });
        self
    }

    /// Add an attribute child with a subtree (no variable).
    pub(crate) fn attr_tree(mut self, attr: impl Into<String>, tree: TreeLabel) -> Self {
        self.children.push(TreeChild {
            attr: Some(attr.into()),
            var: None,
            tree,
        });
        self
    }

    /// Add an element step (`NIL` attribute) with a subtree.
    pub fn elem(mut self, tree: TreeLabel) -> Self {
        self.children.push(TreeChild {
            attr: None,
            var: None,
            tree,
        });
        self
    }

    /// All variables bound anywhere in the tree.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        for c in &self.children {
            if let Some(v) = &c.var {
                out.push(v.clone());
            }
            c.tree.collect_vars(out);
        }
    }

    /// Validate the tree label against the type of the labelled node.
    /// Attribute steps require an object (or tuple) type possessing the
    /// attribute; element steps require a collection type.
    pub fn validate(&self, catalog: &Catalog, ty: &ResolvedType) -> Result<(), QueryError> {
        for c in &self.children {
            match (&c.attr, ty) {
                (Some(attr), ResolvedType::Object(class)) => {
                    let (_, a) =
                        catalog
                            .attr(*class, attr)
                            .ok_or_else(|| QueryError::UnknownAttribute {
                                class: catalog.class(*class).name.clone(),
                                attr: attr.clone(),
                            })?;
                    c.tree.validate(catalog, &a.ty)?;
                }
                (Some(attr), ResolvedType::Tuple(fields)) => {
                    let (_, fty) = fields
                        .iter()
                        .find(|(n, _)| n == attr)
                        .ok_or_else(|| QueryError::UnknownField(attr.clone()))?;
                    c.tree.validate(catalog, fty)?;
                }
                (None, ResolvedType::Set(elem)) | (None, ResolvedType::List(elem)) => {
                    c.tree.validate(catalog, elem)?;
                }
                (Some(attr), other) => {
                    return Err(QueryError::BadLabelStep {
                        step: attr.clone(),
                        ty: format!("{other:?}"),
                    })
                }
                (None, other) => {
                    return Err(QueryError::BadLabelStep {
                        step: "NIL".into(),
                        ty: format!("{other:?}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Graft a path expression onto the tree, returning the variable bound
    /// at its end. Attribute prefixes are shared with existing branches;
    /// element steps (inserted automatically at collection types) always
    /// open a fresh branch, so independently grafted paths make
    /// independent member choices. Identical full paths should be grafted
    /// once and their variable reused by the caller.
    pub(crate) fn graft_path(
        &mut self,
        catalog: &Catalog,
        ty: &ResolvedType,
        steps: &[String],
        fresh: &mut impl FnMut() -> String,
    ) -> Result<String, QueryError> {
        // Descend through collection constructors with a fresh element
        // branch before consuming an attribute step.
        if let ResolvedType::Set(elem) | ResolvedType::List(elem) = ty {
            self.children.push(TreeChild {
                attr: None,
                var: None,
                tree: TreeLabel::leaf(),
            });
            let child = self.children.last_mut().expect("just pushed");
            let v = child.tree.graft_path(catalog, elem, steps, fresh)?;
            if steps.is_empty() {
                child.var = Some(v.clone());
            }
            return Ok(v);
        }
        let Some((step, rest)) = steps.split_first() else {
            // Path ends here: bind a variable at this node. The caller
            // (arc) handles binding at the root; for subtrees this case is
            // reached through the collection arm above.
            let v = fresh();
            return Ok(v);
        };
        let child_ty = match ty {
            ResolvedType::Object(class) => {
                let (_, a) =
                    catalog
                        .attr(*class, step)
                        .ok_or_else(|| QueryError::UnknownAttribute {
                            class: catalog.class(*class).name.clone(),
                            attr: step.clone(),
                        })?;
                a.ty.clone()
            }
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
        // Share an existing attribute branch when present.
        let idx = match self
            .children
            .iter()
            .position(|c| c.attr.as_deref() == Some(step.as_str()))
        {
            Some(i) => i,
            None => {
                self.children.push(TreeChild {
                    attr: Some(step.clone()),
                    var: None,
                    tree: TreeLabel::leaf(),
                });
                self.children.len() - 1
            }
        };
        let child = &mut self.children[idx];
        if rest.is_empty() && !matches!(child_ty, ResolvedType::Set(_) | ResolvedType::List(_)) {
            // Bind (or reuse) the variable at the attribute node itself.
            if let Some(v) = &child.var {
                return Ok(v.clone());
            }
            let v = fresh();
            child.var = Some(v.clone());
            return Ok(v);
        }
        child.tree.graft_path(catalog, &child_ty, rest, fresh)
    }
}

impl fmt::Display for TreeLabel {
    /// The paper's denotation: `{(Att, tree, var)}` with `NIL` for absent
    /// attributes/variables and `{}` for leaves.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "({}, {}, {})",
                c.attr.as_deref().unwrap_or("NIL"),
                c.tree,
                c.var.as_deref().unwrap_or("NIL")
            )?;
        }
        write!(f, "}}")
    }
}
