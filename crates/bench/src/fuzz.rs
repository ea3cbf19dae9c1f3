//! A seeded plan-mutation soundness fuzzer.
//!
//! Starting from the optimizer's chosen plans for the music corpus, the
//! fuzzer applies random local mutations that change or break a plan's
//! meaning (an index the predicate cannot probe, predicate rewrites,
//! projection edits, wrapper insertion) and demands, for every mutant,
//! one of exactly two outcomes:
//!
//! - the static verifier or the analyzer *rejects* the plan
//!   (lint errors, or a typing error from [`oorq_analysis::Analyzer`]);
//! - the plan executes without panicking, and every observed counter
//!   lies inside the analyzer's static interval.
//!
//! Anything else — a panic, or an observed counter escaping its bound —
//! is a soundness bug and fails the run. The walk is [`Prng`]-seeded
//! and fully deterministic: a failing `(seed, iteration)` pair is a
//! reproducible bug report. `reproduce all` runs a fixed smoke, which
//! the golden pins; longer sweeps are one argument away (`reproduce fuzz
//! 2000 <seed>`).
//!
//! The moves that keep a plan's meaning (operand swaps, access-method
//! toggles) are not here: they are `oorq_core::neighbours`, and every
//! plan they reach from a corpus plan is executed and compared with the
//! reference by `tests/plan_closure.rs`.

use std::fmt::Write as _;

use oorq_analysis::check_observed;
use oorq_prng::Prng;
use oorq_pt::{applicable_sel_index, subtrees, AccessMethod, Pt};
use oorq_query::{Expr, Literal};
use oorq_storage::IndexId;

use crate::scenarios::{Knobs, Scenario, CORPUS};
use crate::sections::Args;

/// Default CI smoke parameters.
pub(crate) const SMOKE_ITERS: u64 = 200;
/// See `SMOKE_ITERS`.
pub const SMOKE_SEED: u64 = 0x0f52_a11d_0000_0007;

/// One seeded mutant of a `fig7` row's chosen plan.
pub struct Mutant {
    /// Iteration that drew it.
    pub iteration: u64,
    /// Entry of the mutation menu applied (one that does not apply at
    /// `target` leaves the plan unmutated).
    pub kind: u32,
    /// Pre-order id of the mutated node.
    pub target: usize,
    /// The mutated plan.
    pub pt: Pt,
}

/// Drive `f` over `iters` seeded mutants of the plans the `fig7` corpus
/// rows choose (an unselective filter, so both push strategies and the
/// push-join run sizeable fixpoints), with the scenario they run on.
pub fn for_each_mutant(
    iters: u64,
    seed: u64,
    mut f: impl FnMut(&mut Scenario, Mutant) -> Result<(), String>,
) -> Result<(), String> {
    let fig7 = CORPUS
        .iter()
        .find(|e| e.name == "fig7")
        .expect("corpus entry");
    let mut s = (fig7.build)();
    let mut base: Vec<Pt> = Vec::new();
    for (_, query, strategy) in fig7.rows {
        base.push(s.plan(&query(&s), strategy(), &Knobs::default())?.pt);
    }
    let index_ids: Vec<IndexId> = s.db.physical().indexes().iter().map(|d| d.id).collect();
    let mut rng = Prng::new(seed);
    for iteration in 0..iters {
        let pt = &base[rng.index(base.len())];
        let target = rng.index(pt.size());
        let kind = rng.range_u32(0, 6);
        // Apply mutation `kind` at pre-order node `target`; a kind that
        // does not apply there leaves the plan unmutated, which must
        // also stay inside its bounds.
        let mut mutant = pt.clone();
        let (path, node) = &subtrees(pt)[target];
        if let Some(m) = mutate_here(&s, node, kind, &mut rng, &index_ids) {
            mutant.replace_at(path, m).expect("path of an own subtree");
        }
        let mutant = Mutant {
            iteration,
            kind,
            target,
            pt: mutant,
        };
        f(&mut s, mutant)?;
    }
    Ok(())
}

/// Run `iters` seeded mutations; returns the report, or an error
/// describing the first soundness violation.
pub(crate) fn fuzz_report(args: &Args) -> Result<String, String> {
    let (iters, seed) = (args.num(0, SMOKE_ITERS)?, args.num(1, SMOKE_SEED)?);
    // Outcome tally: rejected by the static verifier; untypable by the
    // analyzer; executed within every bound; failed at runtime with a
    // clean error (e.g. a diverging fixpoint hitting its iteration cap).
    let (mut rejected_lint, mut rejected_analysis, mut executed_ok, mut exec_error) = (0, 0, 0, 0);
    let mut out =
        format!("=== Plan-mutation soundness fuzz ({iters} iterations, seed {seed:#x}) ===\n");

    for_each_mutant(iters, seed, |s, m| {
        if !oorq_lint::verify_pt(&s.env(), &m.pt).is_clean() {
            rejected_lint += 1;
            return Ok(());
        }
        let Ok(analysis) = s.analyze(&m.pt) else {
            rejected_analysis += 1;
            return Ok(());
        };
        let Ok((_, report, _)) = s.execute(&m.pt, &Knobs::default()) else {
            exec_error += 1;
            return Ok(());
        };
        let (ops, fixes) = report.observed();
        let check = check_observed(&analysis, &ops, &fixes);
        if check.is_clean() {
            executed_ok += 1;
            return Ok(());
        }
        // A violation aborts the run; the tally stays at zero in every
        // report the caller ever prints.
        Err(format!(
            "{out}\nsoundness violation at iteration {} (seed {seed:#x}, mutation kind {}, \
             node {}):\n{}",
            m.iteration,
            m.kind,
            m.target,
            check.render()
        ))
    })?;

    let _ = writeln!(
        out,
        "rejected by lint: {rejected_lint}\nrejected by analysis: {rejected_analysis}\nexecuted \
         within bounds: {executed_ok}\nclean runtime errors: {exec_error}\nsoundness violations: 0",
    );
    let _ = writeln!(
        out,
        "(longer sweeps: `reproduce fuzz <iterations> <seed>`; a failure reports its \
         reproducible seed/iteration pair)"
    );
    Ok(out)
}

/// The mutation menu; `None` when the kind does not apply to this node.
fn mutate_here(
    s: &Scenario,
    pt: &Pt,
    kind: u32,
    rng: &mut Prng,
    index_ids: &[IndexId],
) -> Option<Pt> {
    match (kind, pt) {
        // Give a scanning selection an index its predicate cannot probe
        // (which the verifier refuses).
        (
            0,
            Pt::Sel {
                pred,
                method: AccessMethod::Scan,
                input,
            },
        ) if !index_ids.is_empty()
            && applicable_sel_index(s.db.catalog(), s.db.physical(), pred, input).is_none() =>
        {
            Some(Pt::Sel {
                pred: pred.clone(),
                method: AccessMethod::Index(index_ids[rng.index(index_ids.len())]),
                input: input.clone(),
            })
        }
        // Drop a selection's predicate.
        (1, Pt::Sel { method, input, .. }) => Some(Pt::Sel {
            pred: Expr::True,
            method: *method,
            input: input.clone(),
        }),
        // Drop a projection column.
        (2, Pt::Proj { cols, input }) if cols.len() > 1 => {
            let mut cols = cols.clone();
            cols.remove(rng.index(cols.len()));
            Some(Pt::Proj {
                cols,
                input: input.clone(),
            })
        }
        // Rename a projection column (breaks consumers; lint's job).
        (3, Pt::Proj { cols, input }) if !cols.is_empty() => {
            let mut cols = cols.clone();
            let i = rng.index(cols.len());
            cols[i].0 = format!("fz_{}", rng.range_u32(0, 1 << 16));
            Some(Pt::Proj {
                cols,
                input: input.clone(),
            })
        }
        // Wrap the node in a pass-through selection.
        (4, _) => Some(Pt::Sel {
            pred: Expr::True,
            method: AccessMethod::Scan,
            input: Box::new(pt.clone()),
        }),
        // Perturb the integer literals of a selection predicate.
        (
            5,
            Pt::Sel {
                pred,
                method,
                input,
            },
        ) => {
            let delta = rng.range_i64(-3, 4);
            let pred = pred.map_leaves(&mut |e| match e {
                Expr::Lit(Literal::Int(v)) => Some(Expr::Lit(Literal::Int(v + delta))),
                _ => None,
            });
            Some(Pt::Sel {
                pred,
                method: *method,
                input: input.clone(),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short seeded run must complete with zero soundness violations
    /// and classify every iteration. (`reproduce all` runs the longer
    /// smoke.)
    #[test]
    fn fuzz_short_run_is_sound() {
        let args = Args {
            rest: vec!["25".into()],
            ..Args::default()
        };
        let out = fuzz_report(&args).expect("no soundness violations");
        assert!(out.contains("soundness violations: 0"), "{out}");
        // Every iteration lands in exactly one bucket.
        let count = |prefix: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("missing `{prefix}` in:\n{out}"))
        };
        assert_eq!(
            count("rejected by lint:")
                + count("rejected by analysis:")
                + count("executed within bounds:")
                + count("clean runtime errors:"),
            25
        );
    }
}
