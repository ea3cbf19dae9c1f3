//! The parallel-execution reproduction section (`reproduce parallel`):
//! serial versus parallel wall time across the scenario corpus, with
//! the optimizer's predicted per-subtree speedup joined against the
//! observed one.
//!
//! For every corpus row the harness optimizes with a worker budget
//! ([`oorq_core::OptimizerConfig::threads`]), so the optimizer chooses
//! a degree of parallelism per subtree; executes the plan twice over a
//! cold cache — once fully serial (no parallel spec) and once under the
//! chosen spec with the worker pool enabled — and verifies the two
//! answers are identical row-for-row and in order (the exchange
//! operators' determinism contract). The report ends `PASS` only when
//! every row's parallel answer is byte-identical to its serial one;
//! wall-clock speedups are reported but not gated (they are machine
//! facts).

use std::fmt::Write as _;
use std::time::Instant;

use oorq_core::OptimizerConfig;
use oorq_query::QueryGraph;

use crate::scenarios::{for_each_row, Knobs, Scenario};
use crate::sections::Args;

/// One scenario's serial-vs-parallel comparison.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Scenario/strategy label.
    pub name: String,
    /// Answer rows (identical in both runs when `identical`).
    pub rows: usize,
    /// True when the parallel answer matched the serial one
    /// row-for-row, in order.
    pub identical: bool,
    /// Serial wall time, milliseconds.
    pub serial_ms: f64,
    /// Parallel wall time, milliseconds.
    pub parallel_ms: f64,
    /// Worker lanes the parallel run forked (0 = the optimizer kept the
    /// whole plan serial).
    pub lanes: usize,
    /// Per-subtree placement decisions, rendered: node, label, degree,
    /// the optimizer's predicted speedup (serial over parallel cost) and
    /// the observed one (the subtree's inclusive wall in the serial run
    /// over the parallel operator's in the parallel run; `n/a` when
    /// either run carries no wall sample for the node).
    pub subtrees: Vec<String>,
}

impl ParallelRun {
    /// End-to-end observed speedup of this scenario.
    pub fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            1.0
        }
    }
}

/// Optimize with a worker budget, execute serial and parallel, compare.
/// The breaker memory budget applies to both runs, so a differential
/// pass under a low budget compares spilling against spilling.
fn run_one(
    s: &mut Scenario,
    q: &QueryGraph,
    config: OptimizerConfig,
    threads: u32,
    budget: u64,
    name: &str,
) -> Result<ParallelRun, String> {
    let parallel = Knobs::resources(threads, budget);
    let (plan, _) = s.plan(q, OptimizerConfig { threads, ..config }, &parallel)?;
    let timed = |s: &mut Scenario, knobs: &Knobs| {
        let t0 = Instant::now();
        let (out, report, _) = s.execute(&plan.pt, &plan.parallel, knobs)?;
        Ok::<_, String>((out.rows, t0.elapsed().as_secs_f64() * 1e3, report))
    };
    let (serial_rows, serial_ms, serial_report) = timed(s, &Knobs::resources(0, budget))?;
    let (par_rows, parallel_ms, par_report) = timed(s, &parallel)?;
    let serial_ops = serial_report.ops;

    // Join predicted speedups against observed inclusive walls: in the
    // serial run the subtree root's op carries the node's wall; in the
    // parallel run the Exchange/Merge wrapper (same PT node) brackets
    // the fork-to-join interval.
    let serial_wall = |node: usize| -> Option<u64> {
        serial_ops
            .iter()
            .filter(|o| o.pt_node == node)
            .map(|o| o.wall_inclusive_ns)
            .max()
    };
    let parallel_wall = |node: usize| -> Option<u64> {
        par_report
            .ops
            .iter()
            .filter(|o| o.pt_node == node && oorq_exec::is_parallel_wrapper(&o.label))
            .map(|o| o.wall_inclusive_ns)
            .max()
    };
    let subtrees = plan
        .parallel_choices
        .iter()
        .map(|c| {
            let observed = match (serial_wall(c.pt_node), parallel_wall(c.pt_node)) {
                (Some(s), Some(p)) if p > 0 => format!("{:.2}x", s as f64 / p as f64),
                _ => "n/a".into(),
            };
            format!(
                "node {} {} dop {} — predicted {:.2}x, observed {observed}",
                c.pt_node,
                c.label,
                c.workers,
                c.predicted_speedup(),
            )
        })
        .collect();

    Ok(ParallelRun {
        name: name.to_string(),
        rows: serial_rows.len(),
        identical: serial_rows == par_rows,
        serial_ms,
        parallel_ms,
        lanes: par_report.workers.len(),
        subtrees,
    })
}

/// `reproduce parallel [--threads N]`: the serial-vs-parallel report.
/// Errs (gate failure) when any scenario's parallel answer deviates
/// from its serial one.
pub fn parallel_report(args: &Args) -> Result<String, String> {
    // A serial "parallel" comparison is vacuous: without an explicit
    // worker count this section runs 4 workers.
    let threads = match args.threads {
        0 => 4,
        t => t,
    };
    let budget = args.memory_budget;
    let mut runs = Vec::new();
    for_each_row(
        |_, _| true,
        |name, s, q, config| {
            let run = run_one(s, q, config, threads, budget, name);
            runs.push(run.map_err(|e| format!("{name}: {e}"))?);
            Ok::<(), String>(())
        },
    )?;
    let mut out = format!("=== Parallel execution: serial vs {threads} workers, cold cache ===\n");
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(
        out,
        "hardware threads: {hw}{}",
        if hw < threads as usize {
            " — the worker pool exceeds the physical cores, so wall-clock \
             speedup is hardware-bounded (determinism is still checked)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "| scenario | rows | identical | serial ms | parallel ms | speedup | lanes |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    let mut best: Option<(&str, f64)> = None;
    let mut bad = 0usize;
    for r in &runs {
        if !r.identical {
            bad += 1;
        }
        if r.lanes > 0 && best.map(|(_, s)| r.speedup() > s).unwrap_or(true) {
            best = Some((&r.name, r.speedup()));
        }
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2} | {:.2} | {:.2}x | {} |",
            r.name,
            r.rows,
            if r.identical { "✓" } else { "✗" },
            r.serial_ms,
            r.parallel_ms,
            r.speedup(),
            r.lanes,
        );
    }
    let _ = writeln!(out, "\nPer-subtree placement (predicted vs observed):");
    for r in &runs {
        if r.subtrees.is_empty() {
            let _ = writeln!(out, "  {}: plan kept fully serial (nothing pays)", r.name);
            continue;
        }
        for s in &r.subtrees {
            let _ = writeln!(out, "  {}: {s}", r.name);
        }
    }
    if let Some((name, s)) = best {
        let _ = writeln!(out, "\nbest end-to-end speedup: {s:.2}x on {name}");
    }
    if bad > 0 {
        let _ = writeln!(out, "{bad} scenario(s) deviated from the serial answer");
        return Err(out);
    }
    Ok(out)
}
