//! A naive reference evaluator for query graphs.
//!
//! This evaluator implements the *semantics* of query graphs directly —
//! tree-label embeddings, predicate filtering, output projection, and a
//! naive (non-semi-naive) fixpoint over the whole graph — with no
//! optimizer and no I/O accounting. It is deliberately independent of
//! the PT executor so the two can check each other: every plan the
//! optimizer emits must produce exactly this evaluator's answer.

use std::collections::HashSet;

use oorq_query::{GraphTerm, NameRef, QueryGraph, SpjNode, TreeLabel};
use oorq_schema::ResolvedType;
use oorq_storage::{Database, Oid, Value};

use crate::error::ExecError;
use crate::eval::{Batch, Bound, Counters, EvalCtx, RowRef};
use crate::methods::MethodRegistry;

/// Iteration bound for the naive fixpoint (defence against
/// non-converging graphs).
const MAX_ROUNDS: usize = 10_000;

/// Accumulated rows per produced name: `(name, columns, rows)`.
type NameState = (NameRef, Vec<String>, Vec<Vec<Value>>);

/// Evaluate a query graph naively and return the (deduplicated) answer.
pub fn eval_query_graph(
    db: &Database,
    methods: &MethodRegistry,
    graph: &QueryGraph,
) -> Result<Batch, ExecError> {
    let counters = Counters::default();
    let ctx = EvalCtx {
        db,
        methods,
        counters: &counters,
        io: None,
    };
    // State: rows produced so far for every derived/view name.
    let mut state: Vec<NameState> = Vec::new();
    let name_cols = |graph: &QueryGraph, name: &NameRef| -> Result<Vec<String>, ExecError> {
        let ty = graph.type_of(db.catalog(), name)?;
        match ty {
            ResolvedType::Tuple(fields) => Ok(fields.into_iter().map(|(n, _)| n).collect()),
            _ => Ok(vec!["value".to_string()]),
        }
    };
    // Initialize state slots for every produced name.
    for (name, _) in &graph.nodes {
        if !state.iter().any(|(n, _, _)| n == name) {
            state.push((name.clone(), name_cols(graph, name)?, Vec::new()));
        }
    }
    // Naive iteration to fixpoint.
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for (name, term) in &graph.nodes {
            let produced = eval_term(&ctx, graph, term, &state)?;
            let slot = state
                .iter_mut()
                .find(|(n, _, _)| n == name)
                .expect("slot initialized above");
            let existing: HashSet<&Vec<Value>> = slot.2.iter().collect();
            let mut fresh: Vec<Vec<Value>> = Vec::new();
            for row in produced {
                if !existing.contains(&row) && !fresh.contains(&row) {
                    fresh.push(row);
                }
            }
            if !fresh.is_empty() {
                changed = true;
                slot.2.extend(fresh);
            }
        }
        if !changed {
            break;
        }
    }
    let (_, cols, mut rows) = state
        .into_iter()
        .find(|(n, _, _)| *n == graph.answer)
        .ok_or_else(|| ExecError::Query(oorq_query::QueryError::NoAnswer("answer".into())))?;
    // Deduplicated here with a plain set, not `Batch::dedup`: the oracle
    // shares no code with the executor it checks.
    let mut seen = HashSet::new();
    rows.retain(|r| seen.insert(r.clone()));
    Ok(Batch { cols, rows })
}

fn eval_term(
    ctx: &EvalCtx<'_>,
    graph: &QueryGraph,
    term: &GraphTerm,
    state: &[NameState],
) -> Result<Vec<Vec<Value>>, ExecError> {
    match term {
        GraphTerm::Spj(spj) => eval_spj(ctx, graph, spj, state),
        GraphTerm::Union(l, r) => {
            let mut rows = eval_term(ctx, graph, l, state)?;
            rows.extend(eval_term(ctx, graph, r, state)?);
            Ok(rows)
        }
        // The reference evaluator's outer loop *is* the fixpoint.
        GraphTerm::Fix(_, p) => eval_term(ctx, graph, p, state),
    }
}

/// The instances of a name node: objects for classes, rows for stored
/// relations, current derived rows for views/derived names.
fn instances(
    ctx: &EvalCtx<'_>,
    name: &NameRef,
    state: &[NameState],
) -> Result<Vec<Vec<Value>>, ExecError> {
    // Derived state first (views shadow their empty stored extension).
    if let Some((_, _, rows)) = state.iter().find(|(n, _, _)| n == name) {
        return Ok(rows.clone());
    }
    match name {
        NameRef::Class(c) => {
            let n = ctx.db.object_count(*c);
            Ok((0..n).map(|i| vec![Value::Oid(Oid::new(*c, i))]).collect())
        }
        NameRef::Relation(r) => {
            let rows = ctx
                .db
                .physical()
                .relation_entity(*r)
                .map(|e| ctx.db.scan_raw(e));
            Ok(rows
                .unwrap_or_default()
                .into_iter()
                .map(|row| row.values)
                .collect())
        }
        NameRef::Derived(d) => Err(ExecError::Query(oorq_query::QueryError::UndefinedDerived(
            d.clone(),
        ))),
    }
}

fn eval_spj(
    ctx: &EvalCtx<'_>,
    graph: &QueryGraph,
    spj: &SpjNode,
    state: &[NameState],
) -> Result<Vec<Vec<Value>>, ExecError> {
    // Per arc: the names its instances bind (the same for every
    // instance — the label fixes them) and each instance's values.
    let mut cols: Vec<String> = Vec::new();
    let mut arc_rows: Vec<Vec<Vec<Value>>> = Vec::new();
    for arc in &spj.inputs {
        let ty = graph.type_of(ctx.db.catalog(), &arc.name)?;
        let rows = instances(ctx, &arc.name, state)?;
        let mut names: Option<Vec<String>> = None;
        let mut per_instance = Vec::new();
        for row in rows {
            // Root bindings for the instance.
            let mut roots: Vec<(String, Value)> = Vec::new();
            let root_value = match (&ty, row.as_slice()) {
                (ResolvedType::Tuple(fields), vals) => {
                    if let Some(v) = &arc.var {
                        for ((fname, _), val) in fields.iter().zip(vals.iter()) {
                            roots.push((format!("{v}.{fname}"), val.clone()));
                        }
                    }
                    Value::Tuple(vals.to_vec())
                }
                (_, [single]) => single.clone(),
                (_, vals) => Value::Tuple(vals.to_vec()),
            };
            if let Some(v) = &arc.var {
                roots.push((v.clone(), root_value.clone()));
            }
            // Tree-label embeddings; an instance without one cannot
            // satisfy the label (e.g. an empty collection on the
            // requested path).
            for emb in embed(ctx, &root_value, &ty, &arc.label)? {
                let (n, vals): (Vec<String>, Vec<Value>) = roots.iter().cloned().chain(emb).unzip();
                debug_assert!(names.as_ref().is_none_or(|known| *known == n));
                names.get_or_insert(n);
                per_instance.push(vals);
            }
        }
        cols.extend(names.unwrap_or_default());
        arc_rows.push(per_instance);
    }

    // Cartesian product over arcs.
    let mut out = Vec::new();
    let mut idx = vec![0usize; arc_rows.len()];
    if arc_rows.iter().any(|a| a.is_empty()) {
        return Ok(out);
    }
    let pred = Bound::bind(&spj.pred, &cols);
    let out_proj: Vec<Bound> = spj
        .out_proj
        .iter()
        .map(|(_, e)| Bound::bind(e, &cols))
        .collect();
    loop {
        // Assemble the environment.
        let row: Vec<Value> = arc_rows
            .iter()
            .zip(idx.iter())
            .flat_map(|(a, &i)| a[i].iter().cloned())
            .collect();
        let row = RowRef::from(row.as_slice());
        if pred.truthy(ctx, row)? {
            let mut out_row = Vec::with_capacity(out_proj.len());
            for e in &out_proj {
                out_row.push(e.eval(ctx, row)?.into_owned());
            }
            out.push(out_row);
        }
        // Advance the product counter.
        let mut k = 0;
        loop {
            if k == idx.len() {
                let mut seen = HashSet::new();
                out.retain(|r| seen.insert(r.clone()));
                return Ok(out);
            }
            idx[k] += 1;
            if idx[k] < arc_rows[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// All embeddings of a tree label into a value of the given type. Each
/// embedding is a list of `(variable, value)` bindings. Children combine
/// by cartesian product; element steps choose one member each.
fn embed(
    ctx: &EvalCtx<'_>,
    value: &Value,
    ty: &ResolvedType,
    label: &TreeLabel,
) -> Result<Vec<Vec<(String, Value)>>, ExecError> {
    let mut result: Vec<Vec<(String, Value)>> = vec![Vec::new()];
    for child in &label.children {
        // The alternative (value, type) pairs this child can bind to.
        let branches: Vec<(Value, ResolvedType)> = match &child.attr {
            Some(attr) => match (value, ty) {
                (Value::Oid(o), ResolvedType::Object(_)) => {
                    let v = ctx.attr_of(*o, attr)?;
                    let (_, a) = ctx
                        .db
                        .catalog()
                        .attr(o.class, attr)
                        .ok_or_else(|| ExecError::UnknownAttribute(attr.clone()))?;
                    vec![(v, a.ty.clone())]
                }
                (Value::Tuple(vals), ResolvedType::Tuple(fields)) => {
                    let i = fields
                        .iter()
                        .position(|(n, _)| n == attr)
                        .ok_or_else(|| ExecError::UnknownAttribute(attr.clone()))?;
                    vec![(vals[i].clone(), fields[i].1.clone())]
                }
                (Value::Null, _) => vec![],
                _ => {
                    return Err(ExecError::BadValue(format!(
                        "attribute step `{attr}` on {value}"
                    )))
                }
            },
            None => match ty {
                ResolvedType::Set(e) | ResolvedType::List(e) => value
                    .members()
                    .iter()
                    .map(|m| (m.clone(), (**e).clone()))
                    .collect(),
                _ => return Err(ExecError::BadValue("element step on scalar".into())),
            },
        };
        let mut combined = Vec::new();
        for prefix in &result {
            for (bval, bty) in &branches {
                for sub in embed(ctx, bval, bty, &child.tree)? {
                    let mut b = prefix.clone();
                    if let Some(v) = &child.var {
                        b.push((v.clone(), bval.clone()));
                    }
                    b.extend(sub);
                    combined.push(b);
                }
            }
        }
        result = combined;
        if result.is_empty() {
            return Ok(result);
        }
    }
    Ok(result)
}
