//! Row batches and expression evaluation.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;

use oorq_pt::lit_value;
use oorq_query::{bind_path, CmpOp, Expr};
use oorq_schema::{AttrId, AttributeKind, ClassId};
use oorq_storage::{Account, Database, Oid, Value};

use crate::error::ExecError;
use crate::methods::MethodRegistry;
use crate::rowset::RowSet;

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
    pub(crate) fn col_index(&self, name: &str) -> Option<usize> {
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
        let mut seen = RowSet::default();
        self.rows.retain(|r| seen.insert(r));
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
pub(crate) struct Counters {
    /// Predicate evaluations (comparisons actually performed).
    pub evals: Cell<u64>,
    /// Method (computed-attribute) invocations.
    pub method_calls: Cell<u64>,
}

impl Counters {
    pub(crate) fn add_evals(&self, n: u64) {
        self.evals.set(self.evals.get() + n);
    }
    fn bump_methods(&self) {
        self.method_calls.set(self.method_calls.get() + 1);
    }
}

/// Evaluation context: the store, the method implementations, counters,
/// and the page account attribute reads charge (the reference evaluator
/// has none and reads for free).
pub(crate) struct EvalCtx<'a> {
    /// The store.
    pub db: &'a Database,
    /// Method implementations.
    pub methods: &'a MethodRegistry,
    /// CPU counters.
    pub counters: &'a Counters,
    /// The page account of the run, if the reads are part of one.
    pub io: Option<&'a Account>,
}

impl EvalCtx<'_> {
    /// `attr_name` of `class`: its id, and whether it is computed.
    fn resolve(&self, class: ClassId, attr_name: &str) -> Result<(AttrId, bool), ExecError> {
        let (aid, attr) = self
            .db
            .catalog()
            .attr(class, attr_name)
            .ok_or_else(|| ExecError::UnknownAttribute(attr_name.to_string()))?;
        Ok((aid, matches!(attr.kind, AttributeKind::Computed { .. })))
    }

    /// Read a resolved attribute of an object, dispatching computed
    /// attributes to the method registry.
    fn read(&self, oid: Oid, aid: AttrId, computed: bool, name: &str) -> Result<Value, ExecError> {
        if computed {
            self.counters.bump_methods();
            self.methods.call(self.db, oid, aid).ok_or_else(|| {
                let class = &self.db.catalog().class(oid.class).name;
                ExecError::MissingMethod(format!("{class}.{name}"))
            })
        } else if let Some(io) = self.io {
            Ok(self.db.attr_ref(io, oid, aid)?.clone())
        } else {
            Ok(self.db.read_attr_raw(oid, aid)?)
        }
    }

    /// Read an attribute of an object by name.
    pub(crate) fn attr_of(&self, oid: Oid, attr_name: &str) -> Result<Value, ExecError> {
        let (aid, computed) = self.resolve(oid.class, attr_name)?;
        self.read(oid, aid, computed, attr_name)
    }
}

/// A row as an expression reads it: two slices end to end, so a join
/// evaluates its predicate over (outer row, borrowed inner row) and
/// builds the combined row only on a match.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRef<'a>(pub &'a [Value], pub &'a [Value]);

impl<'a> RowRef<'a> {
    fn get(self, slot: usize) -> &'a Value {
        match slot.checked_sub(self.0.len()) {
            None => &self.0[slot],
            Some(i) => &self.1[i],
        }
    }
}

impl<'a> From<&'a [Value]> for RowRef<'a> {
    fn from(row: &'a [Value]) -> Self {
        RowRef(row, &[])
    }
}

/// One attribute step of a bound path. Which attribute id the name is,
/// and whether it is computed, depends on the class of the object the
/// step lands on; each class is looked up in the catalog once.
#[derive(Debug)]
pub(crate) struct Step {
    name: String,
    memo: RefCell<Vec<(ClassId, AttrId, bool)>>,
}

impl Step {
    /// The attribute this step names in `class`, and whether it is
    /// computed.
    fn resolve(&self, ctx: &EvalCtx<'_>, class: ClassId) -> Result<(AttrId, bool), ExecError> {
        let known = self.memo.borrow().iter().find(|m| m.0 == class).copied();
        if let Some((_, aid, computed)) = known {
            return Ok((aid, computed));
        }
        let (aid, computed) = ctx.resolve(class, &self.name)?;
        self.memo.borrow_mut().push((class, aid, computed));
        Ok((aid, computed))
    }

    fn read(&self, ctx: &EvalCtx<'_>, oid: Oid) -> Result<Value, ExecError> {
        let (aid, computed) = self.resolve(ctx, oid.class)?;
        ctx.read(oid, aid, computed, &self.name)
    }
}

/// An expression bound to the columns of the rows it will read: built
/// once per operator, evaluated once per row.
#[derive(Debug)]
pub(crate) enum Bound {
    /// `true` or a literal.
    Const(Value),
    /// A variable, or a path a (qualified) column carries whole.
    Slot(usize),
    /// A name no column carries. Evaluating it is the error, binding it
    /// is not: a short-circuited `and`/`or` still hides it.
    Unknown(String),
    /// A path with attribute steps left to dereference from a column.
    Path {
        slot: usize,
        steps: Vec<Step>,
    },
    /// Comparison (existential over collection members).
    Cmp {
        op: CmpOp,
        lhs: Box<Bound>,
        rhs: Box<Bound>,
    },
    And(Box<Bound>, Box<Bound>),
    Or(Box<Bound>, Box<Bound>),
    Not(Box<Bound>),
    Add(Box<Bound>, Box<Bound>),
}

impl Bound {
    /// Bind `expr` to rows laid out as `cols`.
    pub fn bind(expr: &Expr, cols: &[String]) -> Bound {
        let col = |name: &str| cols.iter().position(|c| c == name);
        let bind = |e: &Expr| Box::new(Bound::bind(e, cols));
        match expr {
            Expr::True => Bound::Const(Value::Bool(true)),
            Expr::Lit(l) => Bound::Const(lit_value(l)),
            Expr::Var(v) => col(v).map_or_else(|| Bound::Unknown(v.clone()), Bound::Slot),
            Expr::Path { base, steps } => match bind_path(base, steps, col) {
                None => Bound::Unknown(base.clone()),
                Some((slot, [])) => Bound::Slot(slot),
                Some((slot, rest)) => Bound::Path {
                    slot,
                    steps: rest
                        .iter()
                        .map(|name| Step {
                            name: name.clone(),
                            memo: RefCell::default(),
                        })
                        .collect(),
                },
            },
            Expr::Cmp { op, lhs, rhs } => Bound::Cmp {
                op: *op,
                lhs: bind(lhs),
                rhs: bind(rhs),
            },
            Expr::And(l, r) => Bound::And(bind(l), bind(r)),
            Expr::Or(l, r) => Bound::Or(bind(l), bind(r)),
            Expr::Not(e) => Bound::Not(bind(e)),
            Expr::Add(l, r) => Bound::Add(bind(l), bind(r)),
        }
    }

    /// Whether evaluating can touch a page or call a method: some path
    /// still has a step to dereference.
    pub(crate) fn derefs(&self) -> bool {
        match self {
            Bound::Const(_) | Bound::Slot(_) | Bound::Unknown(_) => false,
            Bound::Path { .. } => true,
            Bound::Not(e) => e.derefs(),
            Bound::Cmp { lhs: l, rhs: r, .. }
            | Bound::And(l, r)
            | Bound::Or(l, r)
            | Bound::Add(l, r) => l.derefs() || r.derefs(),
        }
    }

    /// Evaluate to a single value. Collections evaluate to themselves;
    /// paths fan out over collections.
    pub fn eval<'r>(
        &'r self,
        ctx: &EvalCtx<'_>,
        row: RowRef<'r>,
    ) -> Result<Cow<'r, Value>, ExecError> {
        match self {
            Bound::Const(v) => Ok(Cow::Borrowed(v)),
            Bound::Slot(slot) => Ok(Cow::Borrowed(row.get(*slot))),
            Bound::Unknown(name) => Err(ExecError::UnknownColumn(name.clone())),
            Bound::Path { slot, steps } => {
                // One object, one step left: no member lists to build.
                if let (Value::Oid(o), [step]) = (row.get(*slot), steps.as_slice()) {
                    return Ok(Cow::Owned(match step.read(ctx, *o)? {
                        Value::Set(ms) | Value::List(ms) => collapse(ms),
                        scalar => scalar,
                    }));
                }
                let mut vals = vec![row.get(*slot).clone()];
                for step in steps {
                    let mut next = Vec::new();
                    for v in &vals {
                        for m in v.members() {
                            if let Value::Oid(o) = m {
                                match step.read(ctx, *o)? {
                                    Value::Set(ms) | Value::List(ms) => next.extend(ms),
                                    Value::Null => {}
                                    scalar => next.push(scalar),
                                }
                            }
                        }
                    }
                    vals = next;
                }
                Ok(Cow::Owned(collapse(vals)))
            }
            Bound::Add(l, r) => {
                let lv = l.eval(ctx, row)?;
                let rv = r.eval(ctx, row)?;
                let sum = match (&*lv, &*rv) {
                    (Value::Int(a), Value::Int(b)) => {
                        Value::Int(a.checked_add(*b).ok_or_else(|| {
                            ExecError::BadValue(format!("integer overflow in {a} + {b}"))
                        })?)
                    }
                    (Value::Float(a), Value::Float(b)) => Value::Float(a + b),
                    (Value::Int(a), Value::Float(b)) => Value::Float(*a as f64 + b),
                    (Value::Float(a), Value::Int(b)) => Value::Float(a + *b as f64),
                    _ => return Err(ExecError::BadValue(format!("cannot add {lv} + {rv}"))),
                };
                Ok(Cow::Owned(sum))
            }
            Bound::Cmp { .. } | Bound::And(..) | Bound::Or(..) | Bound::Not(_) => {
                Ok(Cow::Owned(Value::Bool(self.truthy(ctx, row)?)))
            }
        }
    }

    /// Evaluate a predicate to a boolean. Comparisons use existential
    /// member semantics (a scalar is one member, `Null` is none). A
    /// `Null` value is three-valued-logic false (an unknown comparand
    /// filters the row out); any other non-`Bool` value is a type error,
    /// not a silent rejection.
    pub(crate) fn truthy(&self, ctx: &EvalCtx<'_>, row: RowRef<'_>) -> Result<bool, ExecError> {
        match self {
            Bound::Cmp { op, lhs, rhs } => {
                // Explicit null handling: a `<> null` test succeeds iff
                // some member exists.
                let null_test = matches!(**rhs, Bound::Const(Value::Null));
                if let Some((ls, lit)) = stored_step_vs_literal(ctx, row, lhs, rhs)? {
                    return Ok(compare(ctx, *op, null_test, ls, lit.members()));
                }
                let lv = lhs.eval(ctx, row)?;
                let rv = rhs.eval(ctx, row)?;
                Ok(compare(ctx, *op, null_test, lv.members(), rv.members()))
            }
            Bound::And(l, r) => Ok(l.truthy(ctx, row)? && r.truthy(ctx, row)?),
            Bound::Or(l, r) => Ok(l.truthy(ctx, row)? || r.truthy(ctx, row)?),
            Bound::Not(e) => Ok(!e.truthy(ctx, row)?),
            value => match &*value.eval(ctx, row)? {
                Value::Bool(b) => Ok(*b),
                Value::Null => Ok(false),
                other => Err(ExecError::BadValue(format!(
                    "predicate evaluated to non-boolean {other}"
                ))),
            },
        }
    }

    /// [`Pred::probe`] for a predicate that does not dereference.
    fn probe<'a>(&'a self, outer: &'a [Value]) -> Option<Probe<'a>> {
        let (mut first, mut rest) = (self, Vec::new());
        while let Bound::And(l, r) = first {
            rest.push(&**r);
            first = l;
        }
        rest.reverse();
        let Bound::Cmp { op, lhs, rhs } = first else {
            return None;
        };
        let inner = |slot: &usize| slot.checked_sub(outer.len());
        let sides = |key: &'a Bound, slot: &Bound| match (key, slot) {
            (Bound::Const(key), Bound::Slot(slot)) => Some((key, inner(slot)?)),
            (Bound::Slot(key), Bound::Slot(slot)) => Some((outer.get(*key)?, inner(slot)?)),
            _ => None,
        };
        let ((key, slot), key_left) = match (sides(lhs, rhs), sides(rhs, lhs)) {
            (Some(sides), _) => (sides, true),
            (_, Some(sides)) => (sides, false),
            _ => return None,
        };
        let scalar = !matches!(key, Value::Null | Value::Set(_) | Value::List(_));
        scalar.then_some(Probe {
            first,
            op: *op,
            key,
            key_left,
            slot,
            rest,
        })
    }
}

/// A filter's or a join's predicate, bound once, with whether it
/// dereferences decided then instead of per chunk or per outer row.
#[derive(Debug)]
pub(crate) struct Pred {
    pub bound: Bound,
    /// [`Bound::derefs`] of `bound`.
    pub derefs: bool,
}

impl Pred {
    /// Bind `expr` to rows laid out as `cols`.
    pub fn bind(expr: &Expr, cols: &[String]) -> Pred {
        let bound = Bound::bind(expr, cols);
        let derefs = bound.derefs();
        Pred { bound, derefs }
    }

    /// [`Bound::truthy`].
    pub(crate) fn truthy(&self, ctx: &EvalCtx<'_>, row: RowRef<'_>) -> Result<bool, ExecError> {
        self.bound.truthy(ctx, row)
    }

    /// What is left of this predicate to decide per inner row once the
    /// `outer` row is known (a filter has no outer row). `None` — the
    /// caller runs `truthy` per pair — unless nothing dereferences and
    /// the conjunct evaluated first compares an inner slot with an outer
    /// slot or a literal holding one scalar.
    pub fn probe<'a>(&'a self, outer: &'a [Value]) -> Option<Probe<'a>> {
        if self.derefs {
            return None;
        }
        self.bound.probe(outer)
    }
}

/// Whether some member of `ls` stands in `op` to some member of `rs`,
/// counting an `eval` per pair tried; a test against the `null` literal
/// asks instead whether `ls` has a member at all.
fn compare(ctx: &EvalCtx<'_>, op: CmpOp, null_test: bool, ls: &[Value], rs: &[Value]) -> bool {
    if null_test {
        ctx.counters.add_evals(1);
        return match op {
            CmpOp::Ne => !ls.is_empty(),
            CmpOp::Eq => ls.is_empty(),
            _ => false,
        };
    }
    for l in ls {
        for r in rs {
            ctx.counters.add_evals(1);
            if holds(op, l.cmp(r)) {
                return true;
            }
        }
    }
    false
}

/// `object.attr op literal` for a stored attribute of one object, read
/// where the value lies in the store instead of off a copy of it: the
/// literal, and the members `lhs.eval` would hand `truthy` after the same
/// page touch or the same error. `None` — `truthy` evaluates both sides —
/// for anything else: another shape, a slot holding no single oid, a
/// computed attribute (a method call), or no page account to charge (the
/// reference evaluator).
fn stored_step_vs_literal<'a>(
    ctx: &EvalCtx<'a>,
    row: RowRef<'_>,
    lhs: &Bound,
    rhs: &'a Bound,
) -> Result<Option<(&'a [Value], &'a Value)>, ExecError> {
    let (Bound::Path { slot, steps }, Bound::Const(lit), Some(io)) = (lhs, rhs, ctx.io) else {
        return Ok(None);
    };
    let (Value::Oid(oid), [step]) = (row.get(*slot), steps.as_slice()) else {
        return Ok(None);
    };
    let (aid, computed) = step.resolve(ctx, oid.class)?;
    if computed {
        return Ok(None);
    }
    // What `collapse` makes of a collection, as members: none of no
    // member, that member's own of one, the members as they are of several.
    let members = match ctx.db.attr_ref(io, *oid, aid)? {
        Value::Set(ms) | Value::List(ms) => match ms.as_slice() {
            [one] => one.members(),
            ms => ms,
        },
        scalar => scalar.members(),
    };
    Ok(Some((members, lit)))
}

/// A predicate partially evaluated against an outer row: comparing `key`
/// with `inner[slot]` decides an inner row, then `rest` (the conjuncts
/// `truthy` would reach next) decides the ones that pass.
pub(crate) struct Probe<'a> {
    /// The comparison as bound, for the pairs only `truthy` can count.
    first: &'a Bound,
    op: CmpOp,
    key: &'a Value,
    /// Which side of `op` the key stands on.
    key_left: bool,
    slot: usize,
    rest: Vec<&'a Bound>,
}

/// Rows a probe walks, by index: a page's records where they lie, or rows
/// an operator built end to end.
pub(crate) trait Rows {
    /// Number of rows.
    fn len(&self) -> usize;
    /// Row `i`.
    fn row(&self, i: usize) -> &[Value];
}

impl<R: AsRef<[Value]>> Rows for [R] {
    fn len(&self) -> usize {
        <[R]>::len(self)
    }

    fn row(&self, i: usize) -> &[Value] {
        self[i].as_ref()
    }
}

/// Rows laid end to end, `width` values each: row `i` is
/// `values[i * width..(i + 1) * width]`.
pub(crate) struct Flat<'a> {
    pub values: &'a [Value],
    pub width: usize,
    pub len: usize,
}

impl Rows for Flat<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.width..][..self.width]
    }
}

impl Probe<'_> {
    /// The rows of `inner` that `outer` joins with, by index, in order,
    /// into `hits` (emptied first; the caller keeps it from one chunk to
    /// the next): pair for pair the answer, the error and the `evals` of
    /// `truthy`, the evals added to the counters once.
    pub fn matches<R: Rows + ?Sized>(
        &self,
        ctx: &EvalCtx<'_>,
        outer: &[Value],
        inner: &R,
        hits: &mut Vec<usize>,
    ) -> Result<(), ExecError> {
        if self.equal_keys(inner, hits) {
            ctx.counters.add_evals(inner.len() as u64);
            return Ok(());
        }
        hits.clear();
        let mut evals = 0;
        let scanned = (0..inner.len()).try_for_each(|i| {
            let at = RowRef(outer, inner.row(i));
            let ord = match (&at.1[self.slot], self.key) {
                (Value::Oid(value), Value::Oid(key)) => Some(value.cmp(key)),
                (Value::Int(value), Value::Int(key)) => Some(value.cmp(key)),
                (Value::Null | Value::Set(_) | Value::List(_), _) => None,
                (value, key) => Some(value.cmp(key)),
            };
            let mut joins = match ord {
                Some(ord) => {
                    evals += 1;
                    holds(self.op, if self.key_left { ord.reverse() } else { ord })
                }
                // No member, or several: `truthy` counts the member pairs.
                None => self.first.truthy(ctx, at)?,
            };
            for conjunct in &self.rest {
                joins = joins && conjunct.truthy(ctx, at)?;
            }
            if joins {
                hits.push(i);
            }
            Ok(())
        });
        ctx.counters.add_evals(evals);
        scanned
    }

    /// The loop that matters, straight: `=` on an `Oid` or `Int` key with
    /// no conjunct left ([`Probe::keyed`]) decides every row by one
    /// comparison ([`same_key`]), so the rows are the `evals`, and the
    /// matches go into `hits` (emptied first). `false` — `matches` runs its
    /// general loop over the whole chunk — for any other probe, and when
    /// some inner value has no or several members (`truthy` counts those
    /// pairs).
    pub(crate) fn equal_keys<R: Rows + ?Sized>(&self, inner: &R, hits: &mut Vec<usize>) -> bool {
        let Some((key, slot)) = self.keyed() else {
            return false;
        };
        // Equality, not an ordering: that is what makes this loop cheaper
        // than the general one (measured, ≈ 1.5 ns a pair).
        hits.clear();
        for i in 0..inner.len() {
            match same_key(&inner.row(i)[slot], key) {
                Some(true) => hits.push(i),
                Some(false) => {}
                None => return false,
            }
        }
        true
    }

    /// The key and the inner slot of a probe [`Probe::equal_keys`] decides:
    /// `=` on an `Oid` or `Int` key with no conjunct left. `None` for any
    /// other probe.
    pub(crate) fn keyed(&self) -> Option<(&Value, usize)> {
        let keyed = matches!(self.key, Value::Oid(_) | Value::Int(_));
        (keyed && self.op == CmpOp::Eq && self.rest.is_empty()).then_some((self.key, self.slot))
    }
}

/// Whether the inner value `value` equals the `Oid` or `Int` `key` of a
/// [`Probe::keyed`] probe, as [`Probe::equal_keys`] decides it; `None`
/// when `value` has no member or several (`Null`, a `Set`, a `List`).
pub(crate) fn same_key(value: &Value, key: &Value) -> Option<bool> {
    match (value, key) {
        (Value::Oid(value), Value::Oid(key)) => Some(value == key),
        (Value::Int(value), Value::Int(key)) => Some(value == key),
        (Value::Null | Value::Set(_) | Value::List(_), _) => None,
        (value, key) => Some(value == key),
    }
}

/// Whether `l op r` holds, given `l.cmp(r)`: the one place a comparison
/// is decided, for `truthy` and the probe alike.
fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// The members a path reached, as one value: none is `Null`, one is
/// itself, several are a set.
fn collapse(mut members: Vec<Value>) -> Value {
    match members.len() {
        0 => Value::Null,
        1 => members.pop().expect("len 1"),
        _ => Value::Set(members),
    }
}
