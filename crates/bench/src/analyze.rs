//! The static-analysis reproduction section: per-node interval bounds
//! versus observed counters.
//!
//! Every corpus row is optimized, statically analyzed with
//! [`oorq_analysis::Analyzer`], executed cold-cache, and every observed
//! per-operator counter checked against its static interval
//! ([`oorq_analysis::check_observed`]). The section fails when any
//! counter escapes its bound — the analyzer's soundness contract,
//! enforced by `reproduce all` on top of the executor's per-run debug
//! assertion.

use std::fmt::Write as _;

use oorq_analysis::check_observed;

use crate::scenarios::{for_each_row, Knobs};
use crate::sections::Args;

/// One analyzed-and-executed run.
pub struct RunCheck {
    /// Rendered per-node bounds-vs-observed table.
    pub table: String,
    /// Bound violations (`AB001`–`AB003`/`AB007` errors).
    pub errors: usize,
}

/// Analyze and run every corpus row whose name starts with `prefix`.
pub(crate) fn corpus_runs(prefix: &str) -> Result<Vec<RunCheck>, String> {
    let mut runs = Vec::new();
    for_each_row(
        |_, name| name.starts_with(prefix),
        |name, s, q, config| {
            let run = s
                .run(q, config, &Knobs::default())
                .map_err(|e| format!("{name}: {e}"))?;
            let analysis = s
                .analyze(&run.optimized.pt)
                .map_err(|e| format!("{name}: analysis failed: {e:?}"))?;
            let (ops, fixes) = run.report.observed();
            let check = check_observed(&analysis, &ops, &fixes);

            let mut table = String::new();
            let _ = writeln!(table, "-- {name} --");
            let _ = writeln!(
                table,
                "| node | op | rows obs ∈ bound | pages obs ∈ bound | index obs ∈ bound | writes obs ∈ bound |"
            );
            let _ = writeln!(table, "|---|---|---|---|---|---|");
            for o in &ops {
                let Some(n) = analysis.node(o.pt_node) else {
                    continue;
                };
                let cell = |v: u64, b: oorq_analysis::Interval| {
                    format!(
                        "{} ∈ {} {}",
                        v,
                        b,
                        if b.contains_count(v) { "✓" } else { "✗" }
                    )
                };
                let _ = writeln!(
                    table,
                    "| {} | {} | {} | {} | {} | {} |",
                    o.pt_node,
                    o.label,
                    cell(o.rows_out, n.rows_total),
                    cell(o.page_reads + o.page_hits, n.data()),
                    cell(o.index_reads, n.index()),
                    cell(o.page_writes, n.writes()),
                );
            }
            for f in &fixes {
                if let Some(p) = analysis.node(f.pt_node).and_then(|n| n.passes) {
                    let ok = f.iterations as f64 <= p.hi;
                    let _ = writeln!(
                        table,
                        "fixpoint at node {}: {} semi-naive passes ≤ bound {} {}",
                        f.pt_node,
                        f.iterations,
                        p,
                        if ok { "✓" } else { "✗" }
                    );
                }
            }
            for d in analysis
                .report
                .render()
                .lines()
                .chain(check.render().lines())
            {
                let _ = writeln!(table, "{d}");
            }
            let errors = check.errors().count();
            let _ = writeln!(
                table,
                "{} operators, {} fixpoint openings checked; {} violations",
                ops.len(),
                fixes.len(),
                errors
            );
            runs.push(RunCheck { table, errors });
            Ok::<(), String>(())
        },
    )?;
    if runs.is_empty() {
        return Err(format!("no corpus row is named `{prefix}…`"));
    }
    Ok(runs)
}

/// `reproduce analyze [prefix]`: the per-node bounds-vs-observed report
/// of the matching corpus rows (all of them by default); `Err` when any
/// observed counter escapes its static interval.
pub(crate) fn analyze_report(args: &Args) -> Result<String, String> {
    let runs = corpus_runs(args.arg(0, ""))?;
    let mut out =
        String::from("=== Static bounds vs observed counters (abstract interpretation) ===\n");
    for r in &runs {
        let _ = writeln!(out, "\n{}", r.table.trim_end());
    }
    let bad: usize = runs.iter().map(|r| r.errors).sum();
    if bad > 0 {
        let _ = writeln!(out, "\n{bad} observed counters escape their static bounds");
        return Err(out);
    }
    Ok(out)
}
