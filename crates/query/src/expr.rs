//! Predicate and projection expressions of query graphs.

use std::collections::BTreeSet;
use std::fmt;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Text(s) => write!(f, "\"{s}\""),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Null => write!(f, "null"),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// An expression over the variables bound by the tree labels of a
/// predicate node's incoming arcs.
///
/// A [`Expr::Path`] digs into an object graph from a variable through a
/// sequence of attribute names (the paper's *path expressions*, e.g.
/// `master.works.instruments.name`); collection-valued steps give a path
/// *existential* semantics in comparisons. Method (computed-attribute)
/// steps are written like ordinary attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Always-true predicate.
    True,
    /// A constant.
    Lit(Literal),
    /// A variable bound by a tree label (or an arc's root variable).
    Var(String),
    /// A path expression rooted at a variable.
    Path {
        /// Root variable.
        base: String,
        /// Attribute steps.
        steps: Vec<String>,
    },
    /// Comparison. If either side evaluates to a collection the semantics
    /// is existential (some member satisfies it).
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic addition (covers the paper's `add1gen(i.gen)`).
    Add(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Literal::Int(v))
    }
    /// Text literal.
    pub fn text(v: impl Into<String>) -> Expr {
        Expr::Lit(Literal::Text(v.into()))
    }
    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }
    /// Path expression `base.step1.step2...`.
    pub fn path(base: impl Into<String>, steps: &[&str]) -> Expr {
        Expr::Path {
            base: base.into(),
            steps: steps.iter().map(|s| s.to_string()).collect(),
        }
    }
    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }
    /// `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Ne,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }
    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Ge,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }
    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }
    /// `self and rhs` (absorbs `True`).
    pub fn and(self, rhs: Expr) -> Expr {
        match (self, rhs) {
            (Expr::True, r) => r,
            (l, Expr::True) => l,
            (l, r) => Expr::And(Box::new(l), Box::new(r)),
        }
    }
    /// `self or rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }
    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// Top-level conjuncts (flattening nested `And`s).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                Expr::True => {}
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Rebuild a conjunction from conjuncts.
    pub fn conjoin(parts: impl IntoIterator<Item = Expr>) -> Expr {
        parts.into_iter().fold(Expr::True, Expr::and)
    }

    /// All variables referenced (including path bases).
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::True | Expr::Lit(_) => {}
            Expr::Var(v) => {
                out.insert(v.clone());
            }
            Expr::Path { base, .. } => {
                out.insert(base.clone());
            }
            Expr::Cmp { lhs, rhs, .. }
            | Expr::And(lhs, rhs)
            | Expr::Or(lhs, rhs)
            | Expr::Add(lhs, rhs) => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            Expr::Not(e) => e.collect_vars(out),
        }
    }

    /// All path expressions occurring in the expression.
    pub fn paths(&self) -> Vec<(&str, &[String])> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<(&'a str, &'a [String])>) {
            match e {
                Expr::Path { base, steps } => out.push((base.as_str(), steps.as_slice())),
                Expr::Cmp { lhs, rhs, .. }
                | Expr::And(lhs, rhs)
                | Expr::Or(lhs, rhs)
                | Expr::Add(lhs, rhs) => {
                    walk(lhs, out);
                    walk(rhs, out);
                }
                Expr::Not(e) => walk(e, out),
                _ => {}
            }
        }
        walk(self, &mut out);
        out
    }

    /// Replace every occurrence of path/var expressions per the mapping
    /// returned by `subst` (used by normalization to rewrite paths into
    /// tree-label variables).
    pub fn map_leaves(&self, subst: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
        if let Some(replacement) = subst(self) {
            return replacement;
        }
        match self {
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(lhs.map_leaves(subst)),
                rhs: Box::new(rhs.map_leaves(subst)),
            },
            Expr::And(l, r) => {
                Expr::And(Box::new(l.map_leaves(subst)), Box::new(r.map_leaves(subst)))
            }
            Expr::Or(l, r) => {
                Expr::Or(Box::new(l.map_leaves(subst)), Box::new(r.map_leaves(subst)))
            }
            Expr::Add(l, r) => {
                Expr::Add(Box::new(l.map_leaves(subst)), Box::new(r.map_leaves(subst)))
            }
            Expr::Not(e) => Expr::Not(Box::new(e.map_leaves(subst))),
            other => other.clone(),
        }
    }
}

/// Bind the path `base.steps` to a column: the one answer to "which
/// column does this path start from" shared by the evaluator, the typer,
/// the lint pass, the cost model, the analyzer and the optimizer.
///
/// A qualified `base.step0` column takes precedence over a bare `base`
/// column: tuple roots are flattened into qualified columns, and the bare
/// column — if present — holds an opaque tuple that paths cannot
/// traverse. `col` looks a column name up; the result is what it found
/// plus the steps still to traverse from there.
///
/// The evaluator binds per row and the cost model per candidate plan,
/// so the usual short qualified name is spelled on the stack, not the
/// heap.
pub fn bind_path<'s, T>(
    base: &str,
    steps: &'s [String],
    col: impl Fn(&str) -> Option<T>,
) -> Option<(T, &'s [String])> {
    if !steps.is_empty() {
        let (b, f) = (base.as_bytes(), steps[0].as_bytes());
        let mut buf = [0u8; 64];
        let found = match buf.get_mut(..b.len() + 1 + f.len()) {
            Some(name) => {
                name[..b.len()].copy_from_slice(b);
                name[b.len()] = b'.';
                name[b.len() + 1..].copy_from_slice(f);
                std::str::from_utf8(name).ok().and_then(&col)
            }
            None => col(&format!("{base}.{}", steps[0])),
        };
        if let Some(found) = found {
            return Some((found, &steps[1..]));
        }
    }
    col(base).map(|found| (found, steps))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::True => write!(f, "true"),
            Expr::Lit(l) => write!(f, "{l}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Path { base, steps } => {
                write!(f, "{base}")?;
                for s in steps {
                    write!(f, ".{s}")?;
                }
                Ok(())
            }
            Expr::Cmp { op, lhs, rhs } => write!(f, "{lhs}{op}{rhs}"),
            Expr::And(l, r) => write!(f, "{l} and {r}"),
            Expr::Or(l, r) => write!(f, "({l} or {r})"),
            Expr::Not(e) => write!(f, "not({e})"),
            Expr::Add(l, r) => write!(f, "{l}+{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_and_absorb_true() {
        let e = Expr::var("n")
            .eq(Expr::text("Bach"))
            .and(Expr::True)
            .and(Expr::var("i1").eq(Expr::text("harpsichord")));
        assert_eq!(e.conjuncts().len(), 2);
        let rebuilt = Expr::conjoin(e.conjuncts().into_iter().cloned());
        assert_eq!(rebuilt.conjuncts().len(), 2);
    }

    #[test]
    fn vars_include_path_bases() {
        let e = Expr::path("i", &["master", "works"]).eq(Expr::var("x"));
        let vars = e.vars();
        assert!(vars.contains("i") && vars.contains("x"));
    }

    #[test]
    fn display_matches_paper_style() {
        let e = Expr::var("n")
            .eq(Expr::text("Bach"))
            .and(Expr::path("i", &["gen"]).ge(Expr::int(6)));
        assert_eq!(e.to_string(), "n=\"Bach\" and i.gen>=6");
        assert_eq!(
            Expr::path("i", &["gen"]).add(Expr::int(1)).to_string(),
            "i.gen+1"
        );
    }

    #[test]
    fn map_leaves_rewrites_paths() {
        let e = Expr::path("i", &["gen"]).ge(Expr::int(6));
        let rewritten = e.map_leaves(&mut |leaf| match leaf {
            Expr::Path { .. } => Some(Expr::var("g")),
            _ => None,
        });
        assert_eq!(rewritten.to_string(), "g>=6");
    }

    #[test]
    fn bind_path_prefers_the_qualified_column() {
        let steps = ["master".to_string(), "name".to_string()];
        let lookup =
            |cols: &'static [&'static str]| move |c: &str| cols.iter().copied().find(|x| *x == c);
        let both = bind_path("i", &steps, lookup(&["i", "i.master"]));
        assert_eq!(both, Some(("i.master", &steps[1..])));
        let bare = bind_path("i", &steps, lookup(&["i"]));
        assert_eq!(bare, Some(("i", &steps[..])));
        assert_eq!(bind_path("i", &steps, lookup(&["x"])), None);
        assert_eq!(
            bind_path("i", &[], lookup(&["i"])),
            Some(("i", &steps[..0]))
        );
    }

    #[test]
    fn paths_collected() {
        let e = Expr::path("i", &["a"]).eq(Expr::path("x", &["b", "c"]));
        let ps = e.paths();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[1].1.len(), 2);
    }
}
