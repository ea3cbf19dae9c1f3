//! The declarative transformation-action engine (§4.1 of the paper).
//!
//! Optimizer actions have the form `action: F | constraint → G`: when the
//! pattern `F` matches some part of the tree and `constraint` holds on
//! the captured bindings, the matched part is replaced by `G`.
//!
//! Patterns mirror PT constructors and add two special forms: `Bind`
//! (match anything, capture it) and `Context` — the paper's `pt(X)`,
//! matching any tree that *contains* a subtree matching the inner
//! pattern, and capturing the surrounding context so the rewrite can
//! plug a transformed subtree back into the same place. This is what
//! lets the `filter` rule be stated as
//! `Sel_pred(pt(Fix(Rec, Union(Base, pt'(Rec)))))` even when implicit
//! joins sit between the selection and the fixpoint.

use std::collections::HashMap;

use crate::error::PtError;
use crate::node::Pt;

/// A pattern over processing trees.
#[derive(Debug, Clone)]
pub struct Pattern {
    kind: PatKind,
    bind: Option<String>,
}

#[derive(Debug, Clone)]
enum PatKind {
    /// Matches any subtree.
    Any,
    /// Matches an `Entity` leaf.
    Entity,
    /// Matches a `Temp` leaf.
    Temp,
    /// Matches `Sel(input)`.
    Sel(Box<Pattern>),
    /// Matches `Proj(input)`.
    Proj(Box<Pattern>),
    /// Matches `IJ(input, target)`.
    IJ(Box<Pattern>, Box<Pattern>),
    /// Matches `PIJ(input, ...)` (targets not inspected).
    Pij(Box<Pattern>),
    /// Matches `EJ(left, right)`.
    Ej(Box<Pattern>, Box<Pattern>),
    /// Matches `Union(left, right)`.
    Union(Box<Pattern>, Box<Pattern>),
    /// Matches `Fix(body)`.
    Fix(Box<Pattern>),
    /// `pt(X)`: matches any tree containing a subtree that matches the
    /// inner pattern; binds the context under the given name.
    Context(String, Box<Pattern>),
}

impl Pattern {
    /// Match anything.
    pub fn any() -> Pattern {
        Pattern {
            kind: PatKind::Any,
            bind: None,
        }
    }
    /// Match anything and bind it.
    pub fn bind(name: impl Into<String>) -> Pattern {
        Pattern {
            kind: PatKind::Any,
            bind: Some(name.into()),
        }
    }
    /// Match an entity leaf.
    pub fn entity() -> Pattern {
        Pattern {
            kind: PatKind::Entity,
            bind: None,
        }
    }
    /// Match a temporary leaf.
    pub fn temp() -> Pattern {
        Pattern {
            kind: PatKind::Temp,
            bind: None,
        }
    }
    /// Match a selection.
    pub fn sel(input: Pattern) -> Pattern {
        Pattern {
            kind: PatKind::Sel(Box::new(input)),
            bind: None,
        }
    }
    /// Match a projection.
    pub fn proj(input: Pattern) -> Pattern {
        Pattern {
            kind: PatKind::Proj(Box::new(input)),
            bind: None,
        }
    }
    /// Match an implicit join.
    pub fn ij(input: Pattern, target: Pattern) -> Pattern {
        Pattern {
            kind: PatKind::IJ(Box::new(input), Box::new(target)),
            bind: None,
        }
    }
    /// Match a path implicit join.
    pub fn pij(input: Pattern) -> Pattern {
        Pattern {
            kind: PatKind::Pij(Box::new(input)),
            bind: None,
        }
    }
    /// Match an explicit join.
    pub fn ej(left: Pattern, right: Pattern) -> Pattern {
        Pattern {
            kind: PatKind::Ej(Box::new(left), Box::new(right)),
            bind: None,
        }
    }
    /// Match a union.
    pub fn union(left: Pattern, right: Pattern) -> Pattern {
        Pattern {
            kind: PatKind::Union(Box::new(left), Box::new(right)),
            bind: None,
        }
    }
    /// Match a fixpoint.
    pub fn fix(body: Pattern) -> Pattern {
        Pattern {
            kind: PatKind::Fix(Box::new(body)),
            bind: None,
        }
    }
    /// The paper's `pt(X)` context pattern.
    pub fn context(name: impl Into<String>, inner: Pattern) -> Pattern {
        Pattern {
            kind: PatKind::Context(name.into(), Box::new(inner)),
            bind: None,
        }
    }
    /// Also bind the whole subtree matched by this pattern.
    pub fn named(mut self, name: impl Into<String>) -> Pattern {
        self.bind = Some(name.into());
        self
    }
}

/// A captured binding: a whole subtree or a context (a tree with a hole).
#[derive(Debug, Clone)]
pub enum Binding {
    /// A matched subtree.
    Tree(Pt),
    /// A matched context: the tree and the child-index path of the hole.
    Ctx {
        /// The whole context tree (hole contents still in place).
        tree: Pt,
        /// Path to the hole.
        hole: Vec<usize>,
    },
}

/// The bindings captured by one successful match.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    map: HashMap<String, Binding>,
}

impl Bindings {
    /// The subtree bound to `name`.
    pub fn tree(&self, name: &str) -> Result<&Pt, PtError> {
        match self.map.get(name) {
            Some(Binding::Tree(t)) => Ok(t),
            _ => Err(PtError::UnboundPatternVar(name.to_string())),
        }
    }

    /// The subtree currently filling the hole of the context bound to
    /// `name`.
    pub fn hole_of(&self, name: &str) -> Result<&Pt, PtError> {
        match self.map.get(name) {
            Some(Binding::Ctx { tree, hole }) => tree
                .at_path(hole)
                .ok_or_else(|| PtError::UnboundPatternVar(name.to_string())),
            _ => Err(PtError::UnboundPatternVar(name.to_string())),
        }
    }

    /// Rebuild the context bound to `name` with its hole replaced by
    /// `filling` — the paper's `pt(G)` on the right-hand side of a rule.
    pub fn plug(&self, name: &str, filling: Pt) -> Result<Pt, PtError> {
        match self.map.get(name) {
            Some(Binding::Ctx { tree, hole }) => {
                let mut t = tree.clone();
                t.replace_at(hole, filling)?;
                Ok(t)
            }
            _ => Err(PtError::UnboundPatternVar(name.to_string())),
        }
    }

    /// True when the context bound to `name` is trivial (hole at the
    /// root, i.e. `pt(X) = X`).
    pub fn is_trivial_ctx(&self, name: &str) -> bool {
        matches!(self.map.get(name), Some(Binding::Ctx { hole, .. }) if hole.is_empty())
    }

    fn insert(&mut self, name: String, b: Binding) {
        self.map.insert(name, b);
    }

    fn merged(mut self, other: &Bindings) -> Bindings {
        for (k, v) in &other.map {
            self.map.insert(k.clone(), v.clone());
        }
        self
    }
}

/// All ways `pattern` matches the tree `pt` (at its root).
pub fn match_pattern(pt: &Pt, pattern: &Pattern) -> Vec<Bindings> {
    let mut out: Vec<Bindings> = match &pattern.kind {
        PatKind::Any => vec![Bindings::default()],
        PatKind::Entity => match pt {
            Pt::Entity { .. } => vec![Bindings::default()],
            _ => vec![],
        },
        PatKind::Temp => match pt {
            Pt::Temp { .. } => vec![Bindings::default()],
            _ => vec![],
        },
        PatKind::Sel(inner) => match pt {
            Pt::Sel { input, .. } => match_pattern(input, inner),
            _ => vec![],
        },
        PatKind::Proj(inner) => match pt {
            Pt::Proj { input, .. } => match_pattern(input, inner),
            _ => vec![],
        },
        PatKind::IJ(pi, pt_) => match pt {
            Pt::IJ { input, target, .. } => {
                combine(match_pattern(input, pi), match_pattern(target, pt_))
            }
            _ => vec![],
        },
        PatKind::Pij(pi) => match pt {
            Pt::PIJ { input, .. } => match_pattern(input, pi),
            _ => vec![],
        },
        PatKind::Ej(pl, pr) => match pt {
            Pt::EJ { left, right, .. } => {
                combine(match_pattern(left, pl), match_pattern(right, pr))
            }
            _ => vec![],
        },
        PatKind::Union(pl, pr) => match pt {
            Pt::Union { left, right } => combine(match_pattern(left, pl), match_pattern(right, pr)),
            _ => vec![],
        },
        PatKind::Fix(pb) => match pt {
            Pt::Fix { body, .. } => match_pattern(body, pb),
            _ => vec![],
        },
        PatKind::Context(name, inner) => {
            let mut results = Vec::new();
            for (path, sub) in subtrees(pt) {
                for m in match_pattern(sub, inner) {
                    let mut b = m;
                    b.insert(
                        name.clone(),
                        Binding::Ctx {
                            tree: pt.clone(),
                            hole: path.clone(),
                        },
                    );
                    results.push(b);
                }
            }
            results
        }
    };
    if let Some(bind) = &pattern.bind {
        for m in &mut out {
            m.insert(bind.clone(), Binding::Tree(pt.clone()));
        }
    }
    out
}

fn combine(a: Vec<Bindings>, b: Vec<Bindings>) -> Vec<Bindings> {
    let mut out = Vec::new();
    for x in &a {
        for y in &b {
            out.push(x.clone().merged(y));
        }
    }
    out
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

/// The applicability constraint of a [`TransformAction`].
pub type ConstraintFn<'a> = Box<dyn Fn(&Bindings) -> bool + 'a>;
/// The right-hand-side builder of a [`TransformAction`].
pub type BuildFn<'a> = Box<dyn Fn(&Bindings) -> Option<Pt> + 'a>;

/// A transformation action `name: F | constraint → G`.
pub struct TransformAction<'a> {
    /// Action label.
    pub name: String,
    /// The pattern `F`.
    pub pattern: Pattern,
    /// The applicability constraint over captured bindings.
    pub constraint: ConstraintFn<'a>,
    /// Builds the replacement `G` from the bindings. Returning `None`
    /// vetoes this particular match (e.g. a malformed capture).
    pub build: BuildFn<'a>,
}

impl<'a> TransformAction<'a> {
    /// New action with a trivially-true constraint.
    pub fn new(
        name: impl Into<String>,
        pattern: Pattern,
        build: impl Fn(&Bindings) -> Option<Pt> + 'a,
    ) -> Self {
        TransformAction {
            name: name.into(),
            pattern,
            constraint: Box::new(|_| true),
            build: Box::new(build),
        }
    }

    /// Attach a constraint.
    pub fn with_constraint(mut self, c: impl Fn(&Bindings) -> bool + 'a) -> Self {
        self.constraint = Box::new(c);
        self
    }

    /// Apply the action at the first position (pre-order) where the
    /// pattern matches and the constraint holds. Returns the transformed
    /// tree, or `None` when no applicable match exists.
    pub fn apply(&self, pt: &Pt) -> Option<Pt> {
        for (path, sub) in subtrees(pt) {
            for m in match_pattern(sub, &self.pattern) {
                if !(self.constraint)(&m) {
                    continue;
                }
                if let Some(replacement) = (self.build)(&m) {
                    let mut out = pt.clone();
                    out.replace_at(&path, replacement).ok()?;
                    return Some(out);
                }
            }
        }
        None
    }

    /// Every tree obtainable by one application of the action (one per
    /// applicable match position) — used by randomized strategies to
    /// enumerate neighbour moves.
    pub fn apply_all(&self, pt: &Pt) -> Vec<Pt> {
        let mut out = Vec::new();
        for (path, sub) in subtrees(pt) {
            for m in match_pattern(sub, &self.pattern) {
                if !(self.constraint)(&m) {
                    continue;
                }
                if let Some(replacement) = (self.build)(&m) {
                    let mut t = pt.clone();
                    if t.replace_at(&path, replacement).is_ok() {
                        out.push(t);
                    }
                }
            }
        }
        out
    }

    /// Apply the action up to saturation (bounded by `max` applications —
    /// the paper's irrevocable strategies are all finite).
    pub fn saturate(&self, mut pt: Pt, max: usize) -> Pt {
        for _ in 0..max {
            match self.apply(&pt) {
                Some(next) => pt = next,
                None => break,
            }
        }
        pt
    }
}
