//! Row batches and expression evaluation.

use std::cell::Cell;
use std::collections::HashSet;

use oorq_query::{bind_path, CmpOp, Expr, Literal};
use oorq_schema::AttributeKind;
use oorq_storage::{Database, Oid, Value};

use crate::error::ExecError;
use crate::methods::MethodRegistry;

/// A materialized stream of binding rows with named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Column names.
    pub cols: Vec<String>,
    /// Rows (each aligned with `cols`).
    pub rows: Vec<Vec<Value>>,
}

impl Batch {
    /// Empty batch with the given columns.
    pub fn new(cols: Vec<String>) -> Self {
        Batch {
            cols,
            rows: Vec::new(),
        }
    }

    /// Index of a column.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Remove duplicate rows, preserving first occurrence order.
    pub fn dedup(&mut self) {
        let mut seen = HashSet::new();
        self.rows.retain(|r| seen.insert(r.clone()));
    }

    /// Reorder the columns of `other` to match `self`'s column order.
    pub fn aligned(&self, other: Batch) -> Result<Batch, ExecError> {
        if self.cols == other.cols {
            return Ok(other);
        }
        let perm: Option<Vec<usize>> = self.cols.iter().map(|c| other.col_index(c)).collect();
        let Some(perm) = perm else {
            return Err(ExecError::UnionMismatch);
        };
        if perm.len() != other.cols.len() {
            return Err(ExecError::UnionMismatch);
        }
        let rows = other
            .rows
            .into_iter()
            .map(|r| perm.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Ok(Batch {
            cols: self.cols.clone(),
            rows,
        })
    }
}

/// CPU-side counters of the executor (interior mutability so evaluation
/// can thread shared references).
#[derive(Debug, Default)]
pub struct Counters {
    /// Predicate evaluations (comparisons actually performed).
    pub evals: Cell<u64>,
    /// Method (computed-attribute) invocations.
    pub method_calls: Cell<u64>,
}

impl Counters {
    fn bump_evals(&self) {
        self.evals.set(self.evals.get() + 1);
    }
    fn bump_methods(&self) {
        self.method_calls.set(self.method_calls.get() + 1);
    }
}

/// Evaluation context: the store, the method implementations, counters,
/// and whether attribute reads account page I/O (the reference evaluator
/// turns accounting off).
pub struct EvalCtx<'a> {
    /// The store.
    pub db: &'a Database,
    /// Method implementations.
    pub methods: &'a MethodRegistry,
    /// CPU counters.
    pub counters: &'a Counters,
    /// Account page I/O on attribute reads.
    pub account_io: bool,
}

impl EvalCtx<'_> {
    /// Read an attribute of an object, dispatching computed attributes to
    /// the method registry.
    pub fn attr_of(&self, oid: Oid, attr_name: &str) -> Result<Value, ExecError> {
        let (aid, attr) = self
            .db
            .catalog()
            .attr(oid.class, attr_name)
            .ok_or_else(|| ExecError::UnknownAttribute(attr_name.to_string()))?;
        match attr.kind {
            AttributeKind::Stored => {
                let v = if self.account_io {
                    self.db.read_attr(oid, aid)?
                } else {
                    self.db.read_attr_raw(oid, aid)?
                };
                Ok(v)
            }
            AttributeKind::Computed { .. } => {
                self.counters.bump_methods();
                self.methods.call(self.db, oid, aid).ok_or_else(|| {
                    ExecError::MissingMethod(format!(
                        "{}.{}",
                        self.db.catalog().class(oid.class).name,
                        attr_name
                    ))
                })
            }
        }
    }

    /// Evaluate an expression to its *member set* (existential
    /// semantics): a scalar yields one member, a collection yields each
    /// member, `Null` yields none. Paths fan out over collections.
    pub fn eval_members(
        &self,
        expr: &Expr,
        cols: &[String],
        row: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        let v = self.eval(expr, cols, row)?;
        Ok(v.members().to_vec())
    }

    /// Evaluate an expression to a single value. Collections evaluate to
    /// themselves; comparisons use existential member semantics.
    pub fn eval(&self, expr: &Expr, cols: &[String], row: &[Value]) -> Result<Value, ExecError> {
        match expr {
            Expr::True => Ok(Value::Bool(true)),
            Expr::Lit(l) => Ok(lit_value(l)),
            Expr::Var(v) => {
                let i = cols
                    .iter()
                    .position(|c| c == v)
                    .ok_or_else(|| ExecError::UnknownColumn(v.clone()))?;
                Ok(row[i].clone())
            }
            Expr::Path { base, steps } => {
                let (start, rest) =
                    bind_path(base, steps, |name| cols.iter().position(|c| c == name))
                        .ok_or_else(|| ExecError::UnknownColumn(base.clone()))?;
                let mut vals = vec![row[start].clone()];
                for step in rest {
                    let mut next = Vec::new();
                    for v in vals {
                        for m in v.members() {
                            if let Value::Oid(o) = m {
                                let av = self.attr_of(*o, step)?;
                                next.extend(av.members().iter().cloned());
                            }
                        }
                    }
                    vals = next;
                }
                Ok(match vals.len() {
                    0 => Value::Null,
                    1 => vals.pop().expect("len 1"),
                    _ => Value::Set(vals),
                })
            }
            Expr::Cmp { op, lhs, rhs } => {
                let lv = self.eval_members(lhs, cols, row)?;
                let rv = self.eval_members(rhs, cols, row)?;
                // Existential semantics with explicit null handling: a
                // `<> null` test succeeds iff some member exists.
                if matches!(rhs.as_ref(), Expr::Lit(Literal::Null)) {
                    self.counters.bump_evals();
                    return Ok(Value::Bool(match op {
                        CmpOp::Ne => !lv.is_empty(),
                        CmpOp::Eq => lv.is_empty(),
                        _ => false,
                    }));
                }
                for l in &lv {
                    for r in &rv {
                        self.counters.bump_evals();
                        let ok = match op {
                            CmpOp::Eq => l == r,
                            CmpOp::Ne => l != r,
                            CmpOp::Lt => l < r,
                            CmpOp::Le => l <= r,
                            CmpOp::Gt => l > r,
                            CmpOp::Ge => l >= r,
                        };
                        if ok {
                            return Ok(Value::Bool(true));
                        }
                    }
                }
                Ok(Value::Bool(false))
            }
            Expr::And(l, r) => {
                let lv = self.truthy(l, cols, row)?;
                if !lv {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(self.truthy(r, cols, row)?))
            }
            Expr::Or(l, r) => {
                let lv = self.truthy(l, cols, row)?;
                if lv {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(self.truthy(r, cols, row)?))
            }
            Expr::Not(e) => Ok(Value::Bool(!self.truthy(e, cols, row)?)),
            Expr::Add(l, r) => {
                let lv = self.eval(l, cols, row)?;
                let rv = self.eval(r, cols, row)?;
                match (&lv, &rv) {
                    (Value::Int(a), Value::Int(b)) => {
                        a.checked_add(*b).map(Value::Int).ok_or_else(|| {
                            ExecError::BadValue(format!("integer overflow in {a} + {b}"))
                        })
                    }
                    (Value::Float(a), Value::Float(b)) => Ok(Value::Float(a + b)),
                    (Value::Int(a), Value::Float(b)) => Ok(Value::Float(*a as f64 + b)),
                    (Value::Float(a), Value::Int(b)) => Ok(Value::Float(a + *b as f64)),
                    _ => Err(ExecError::BadValue(format!("cannot add {lv} + {rv}"))),
                }
            }
        }
    }

    /// Evaluate a predicate to a boolean. `Null` is three-valued-logic
    /// false (an unknown comparand filters the row out); any other
    /// non-`Bool` result is a type error, not a silent rejection.
    pub fn truthy(&self, expr: &Expr, cols: &[String], row: &[Value]) -> Result<bool, ExecError> {
        match self.eval(expr, cols, row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(ExecError::BadValue(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }
}

/// Convert a literal to a runtime value.
pub fn lit_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Text(s) => Value::Text(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}
