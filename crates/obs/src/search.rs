//! The quantitative search-space table: aggregates the optimizer's
//! `candidate` events into per-step counts (enumerated / pruned /
//! costed / accepted / rejected) and lists the rejected candidate plans
//! with their estimated costs and rejection reasons — Figure 6 of the
//! paper, but quantitative.
//!
//! Candidate-event convention (cat `optimizer`, name `candidate`):
//! - `step`: which §4 step enumerated it (`generatePT`, `transformPT`,
//!   `push-decision`, …)
//! - `fingerprint`: hex structural fingerprint of the candidate PT
//! - `cost`: estimated total cost of the candidate
//! - `incumbent` / `incumbent_cost`: what it was compared against
//! - `outcome`: `accept` | `reject` | `prune`
//! - `reason`: why (e.g. `cheaper than incumbent`, `uphill move`,
//!   `beyond keep-per-arc beam`, `cost model error`).

use crate::recorder::{FieldValue, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Default)]
struct StepAgg {
    enumerated: usize,
    pruned: usize,
    costed: usize,
    accepted: usize,
    rejected: usize,
}

/// Render the search-space table from a trace's `candidate` events.
/// Returns a markdown-style table plus a rejected-candidates listing;
/// empty string when the trace carries no candidate events.
pub fn search_space_table(trace: &Trace) -> String {
    let mut steps: BTreeMap<String, StepAgg> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    struct Rejected {
        step: String,
        fingerprint: String,
        cost: Option<f64>,
        incumbent_cost: Option<f64>,
        reason: String,
    }
    let mut rejected: Vec<Rejected> = Vec::new();

    for e in trace.events_named("candidate") {
        let step = e
            .field("step")
            .and_then(FieldValue::as_str)
            .unwrap_or("?")
            .to_string();
        if !steps.contains_key(&step) {
            order.push(step.clone());
        }
        let agg = steps.entry(step.clone()).or_default();
        agg.enumerated += 1;
        if e.field("cost").and_then(FieldValue::as_num).is_some() {
            agg.costed += 1;
        }
        let outcome = e
            .field("outcome")
            .and_then(FieldValue::as_str)
            .unwrap_or("?");
        match outcome {
            "accept" => agg.accepted += 1,
            "prune" => agg.pruned += 1,
            "reject" => {
                agg.rejected += 1;
                rejected.push(Rejected {
                    step,
                    fingerprint: e
                        .field("fingerprint")
                        .and_then(FieldValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    cost: e.field("cost").and_then(FieldValue::as_num),
                    incumbent_cost: e.field("incumbent_cost").and_then(FieldValue::as_num),
                    reason: e
                        .field("reason")
                        .and_then(FieldValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                });
            }
            _ => {}
        }
    }

    if steps.is_empty() {
        return String::new();
    }

    let mut out = String::new();
    out.push_str("## Search space\n\n");
    out.push_str("| step | enumerated | costed | pruned | rejected | accepted |\n");
    out.push_str("|------|-----------:|-------:|-------:|---------:|---------:|\n");
    let mut totals = StepAgg::default();
    for step in &order {
        let a = &steps[step];
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            step, a.enumerated, a.costed, a.pruned, a.rejected, a.accepted
        );
        totals.enumerated += a.enumerated;
        totals.costed += a.costed;
        totals.pruned += a.pruned;
        totals.rejected += a.rejected;
        totals.accepted += a.accepted;
    }
    let _ = writeln!(
        out,
        "| total | {} | {} | {} | {} | {} |",
        totals.enumerated, totals.costed, totals.pruned, totals.rejected, totals.accepted
    );

    if !rejected.is_empty() {
        // A randomized walk can reject the same move many times; list
        // each distinct (step, plan, reason) once with a ×N count.
        out.push_str("\n### Rejected candidates\n\n");
        let mut lines: Vec<String> = Vec::new();
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for r in &rejected {
            let cost = r
                .cost
                .map(|c| format!("{c:.1}"))
                .unwrap_or_else(|| "?".into());
            let vs = r
                .incumbent_cost
                .map(|c| format!(" vs incumbent {c:.1}"))
                .unwrap_or_default();
            let line = format!(
                "- [{}] pt {} cost {}{} — {}",
                r.step, r.fingerprint, cost, vs, r.reason
            );
            match counts.entry(line.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(1);
                    lines.push(line);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => *e.get_mut() += 1,
            }
        }
        for line in &lines {
            let n = counts[line];
            if n > 1 {
                let _ = writeln!(out, "{line} (×{n})");
            } else {
                let _ = writeln!(out, "{line}");
            }
        }
    }
    out
}
