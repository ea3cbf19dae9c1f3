//! The section table behind the `reproduce` binary — its only registry.
//!
//! Every row is `{name, kind, run, doc}`; `reproduce <name>` runs one,
//! `reproduce all` runs the figures in table order, and `reproduce list`
//! prints the table. A gate reports `Err` when its invariant breaks
//! (exit 1, `FAIL: <name>`); any other row reports `Err` on unusable
//! arguments (exit 2). A figure that can fail is a [`Kind::FigureGate`]:
//! the numbers it checks are the ones the golden pins, so `all` is where
//! it runs.
//!
//! Rule: a row that prints wall time is never in `all`, so the
//! checked-in `reproduce_output.txt` can be diffed byte for byte.

use std::fmt::Write as _;

use crate::{analyze, fuzz, metrics, reports, tracing};

/// Command-line arguments of one `reproduce` invocation, after the
/// section name.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments, in order.
    pub rest: Vec<String>,
    /// `--memory-budget N`, else `OORQ_MEMORY_BUDGET`, else 0
    /// (unbounded): the cap on resident pipeline-breaker pages.
    pub memory_budget: u64,
}

impl Args {
    /// The `n`-th positional argument, or `default`.
    pub fn arg<'a>(&'a self, n: usize, default: &'a str) -> &'a str {
        self.rest.get(n).map_or(default, String::as_str)
    }

    /// The `n`-th positional argument as a number, or `default`.
    pub(crate) fn num(&self, n: usize, default: u64) -> Result<u64, String> {
        match self.rest.get(n) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("expected an unsigned integer, got `{s}`")),
        }
    }
}

/// What `reproduce all` does with a section, and what its `Err` means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Deterministic output, no arguments needed: part of `all`.
    Figure,
    /// Takes arguments, prints wall time, or emits a file to check in.
    Tool,
    /// A check that measures wall time, so never in `all`; `Err` means
    /// FAIL.
    Gate,
    /// A figure whose invariant is checked where it is printed: part of
    /// `all`; `Err` means FAIL.
    FigureGate,
}
use Kind::{Figure, FigureGate, Gate, Tool};

/// One `reproduce` section.
pub struct Section {
    /// The name on the command line.
    pub name: &'static str,
    /// Membership in `all`, and whether `Err` means FAIL.
    pub kind: Kind,
    /// One line for `reproduce list`: arguments, then what it prints.
    pub doc: &'static str,
    /// Produce the report.
    pub run: fn(&Args) -> Result<String, String>,
}

impl Section {
    /// Part of `reproduce all`.
    pub fn in_all(&self) -> bool {
        matches!(self.kind, Figure | FigureGate)
    }

    /// Its `Err` is a failed check (exit 1), not a usage error.
    pub fn is_gate(&self) -> bool {
        matches!(self.kind, Gate | FigureGate)
    }
}

const fn row(
    name: &'static str,
    kind: Kind,
    run: fn(&Args) -> Result<String, String>,
    doc: &'static str,
) -> Section {
    Section {
        name,
        kind,
        doc,
        run,
    }
}

/// The table.
#[rustfmt::skip]
pub const SECTIONS: &[Section] = &[
    row("fig1", Figure, reports::fig1_report, "Figure 1: the conceptual schema"),
    row("fig2", Figure, reports::fig2_report, "Figure 2: a query graph"),
    row("fig3", Figure, reports::fig3_report, "Figure 3: the recursive query"),
    row("fig4", Figure, reports::fig4_report, "Figure 4: both processing trees, from the optimizer"),
    row("fig5", Figure, reports::fig5_report, "Figure 5: the cost-formula table"),
    row("fig6", Figure, reports::fig6_report, "Figure 6: optimization steps, traced from a run"),
    row("fig7", Figure, reports::fig7_report,
        "Figure 7 / §4.6: symbolic costs, estimates, measured execution, predicted vs observed"),
    row("pushjoin", Figure, reports::pushjoin_report, "§4.5: pushing a selective join through recursion"),
    row("crossover", Figure, reports::crossover_report, "E9: push/no-push crossover sweep"),
    row("strategies", Figure, reports::strategies_report,
        "E10b: plan quality of exhaustive / DP / greedy / syntactic"),
    row("strategies-time", Tool, reports::strategies_time_report,
        "E10a: optimization time per strategy (wall clock)"),
    row("ablation", Figure, reports::ablation_report, "E12: physical-design ablations"),
    row("lint", FigureGate, reports::lint_report,
        "[--explain CODE] lint-code table and a worked pass; fails on a real lint error"),
    row("analyze", FigureGate, analyze::analyze_report,
        "[row-prefix] static bounds vs observed counters per corpus row; fails when one escapes"),
    row("trace", Figure, trace,
        "[scenario [out-dir]] traced run: search-space summary; with out-dir also writes the \
         Chrome trace trace-<scenario>.json (scenarios: music-pushjoin music-fig7 music-paper)"),
    row("validate", Figure, reports::validation_report, "E11: cost model vs measured execution"),
    row("fuzz", FigureGate, fuzz::fuzz_report,
        "[iterations [seed]] plan-mutation soundness fuzzer (default: the CI smoke)"),
    row("metrics", Tool, metrics::metrics_report,
        "[corpus-row] five metered replays: series table, EXPLAIN ANALYZE, Prometheus text \
         (wall clock; honours --memory-budget)"),
    row("trace-check", Tool, trace_check,
        "<trace.json> validate a Chrome trace file with the in-repo checker"),
    row("metrics-gate", Gate, metrics::metrics_gate, "recorder overhead caps (wall clock)"),
];

/// `reproduce trace [scenario [out-dir]]`: run the scenario under an
/// enabled recorder; with an out-dir, also write its Chrome trace.
fn trace(args: &Args) -> Result<String, String> {
    let scenario = args.arg(0, "music-pushjoin");
    let art = tracing::trace_scenario(scenario)?;
    let mut out = art.summary;
    if let Some(dir) = args.rest.get(1) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
        let path = format!("{dir}/trace-{scenario}.json");
        std::fs::write(&path, art.trace.to_chrome())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        let _ = writeln!(out, "wrote {path} (Perfetto-loadable)");
    }
    Ok(out)
}

/// `reproduce trace-check <file>`: `Err` on an unreadable file, any
/// violation or schema drift.
fn trace_check(args: &Args) -> Result<String, String> {
    let [path] = args.rest.as_slice() else {
        return Err("usage: reproduce trace-check <trace.json>".into());
    };
    let contents =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let s =
        oorq_obs::check_chrome_trace(&contents).map_err(|e| format!("{path}: INVALID — {e}"))?;
    Ok(format!(
        "{path}: OK — {} events ({} duration pairs, {} complete, {} counter samples, {} instants)",
        s.total_events, s.duration_pairs, s.complete_events, s.counter_samples, s.instant_events
    ))
}

/// Median of a sample (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_and_odd_sample_medians() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
