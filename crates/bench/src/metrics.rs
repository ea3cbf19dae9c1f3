//! `reproduce metrics <scenario>`: replay one scenario under an
//! always-on [`oorq_obs::MetricsRegistry`], then print the aggregated
//! series (log-bucketed percentiles), the EXPLAIN ANALYZE tree joining
//! predicted to observed figures per operator, and the Prometheus-style
//! text exposition.
//!
//! The subsystem's contract has three parts:
//!
//! 1. **Stable names** — the series a canonical workload interns must
//!    match `crates/bench/metrics_baseline.txt` exactly (two-way diff,
//!    the `series_names_match_the_baseline` test); renaming a metric
//!    breaks every dashboard scraping it, so a rename must show up as a
//!    deliberate baseline edit in review.
//! 2. **Disabled-path overhead** (`reproduce metrics-gate`) — detached
//!    handles are the always-on promise: a counter bump or histogram
//!    record against a disabled registry must stay under a hard per-op
//!    cap (one `Option` branch).
//! 3. **Enabled-path overhead** (`reproduce metrics-gate`) — the same
//!    fixed workload, metered versus unmetered, must not slow down beyond
//!    a generous factor.

use std::fmt::Write as _;
use std::time::Instant;

use oorq_core::OptimizerConfig;
use oorq_datagen::MusicConfig;
use oorq_exec::explain_analyze;
use oorq_obs::{CounterHandle, HistogramHandle, MetricsRegistry};
use oorq_query::QueryGraph;

use crate::scenarios::{for_each_row, Knobs, Scenario};
use crate::sections::Args;

/// Replays per `reproduce metrics` run — enough samples for the
/// histogram percentiles to mean something.
pub(crate) const METRICS_REPLAYS: usize = 5;

/// One metered optimize-and-execute replay's residue (the registry
/// itself accumulates across replays).
pub struct MeteredRun {
    /// Answer rows.
    pub rows: usize,
    /// The rendered EXPLAIN ANALYZE tree for this replay.
    pub explain: String,
}

/// Optimize and execute one query `replays` times with the registry
/// attached to every layer (it accumulates across replays); returns the
/// last replay's residue, its EXPLAIN ANALYZE rendered from the lowered
/// physical plan with the §11 sound bounds joined in.
fn replay_query(
    s: &mut Scenario,
    q: &QueryGraph,
    config: OptimizerConfig,
    registry: &MetricsRegistry,
    budget: u64,
    replays: usize,
) -> Result<MeteredRun, String> {
    let knobs = Knobs {
        registry: registry.clone(),
        ..Knobs::resources(budget)
    };
    let mut last = None;
    for _ in 0..replays.max(1) {
        let run = s.run(q, config.clone(), &knobs)?;
        let analysis = s.analyze(&run.optimized.pt).ok();
        last = Some(MeteredRun {
            rows: run.answer.rows.len(),
            explain: explain_analyze(
                &run.phys_plan,
                &run.optimized.cost.breakdown,
                analysis.as_ref(),
                &run.report,
            ),
        });
    }
    Ok(last.expect("at least one replay"))
}

/// Replay the corpus row named `row` `replays` times into one registry.
pub(crate) fn replay_scenario(
    row: &str,
    registry: &MetricsRegistry,
    budget: u64,
    replays: usize,
) -> Result<MeteredRun, String> {
    let mut last = None;
    for_each_row(
        |_, name| name == row,
        |_, s, q, config| {
            last = Some(replay_query(s, q, config, registry, budget, replays)?);
            Ok::<(), String>(())
        },
    )?;
    last.ok_or_else(|| format!("no corpus row is named `{row}` (see `reproduce analyze`)"))
}

/// `reproduce metrics <scenario>`: the aggregated-series table, the
/// EXPLAIN ANALYZE tree, and the Prometheus exposition.
pub(crate) fn metrics_report(args: &Args) -> Result<String, String> {
    let scenario = args.arg(0, "music/fig3/nopush");
    let budget = args.memory_budget;
    let registry = MetricsRegistry::new();
    let run = replay_scenario(scenario, &registry, budget, METRICS_REPLAYS)?;
    let mut out = format!(
        "=== Query metrics: {scenario} × {METRICS_REPLAYS} replays \
         (breaker budget {budget} pages) ===\n"
    );
    let _ = writeln!(out, "answer rows: {}", run.rows);
    out.push('\n');
    out.push_str(&registry.render_table());
    out.push('\n');
    out.push_str(&run.explain);
    out.push_str("\n### Prometheus exposition\n\n");
    out.push_str(&registry.render_prometheus());
    Ok(out)
}

/// The fixed workload behind the name baseline and the overhead
/// comparison: one serial, unbounded replay of a small music Figure-3
/// run (recursive, indexed, with a fixpoint — it interns every
/// optimizer, executor, fixpoint and storage series).
fn gate_workload(registry: &MetricsRegistry) -> Result<MeteredRun, String> {
    let mut s = Scenario::music(MusicConfig {
        chains: 4,
        chain_len: 4,
        ..Scenario::paper_scale()
    });
    let q = s.fig3();
    let config = OptimizerConfig::cost_controlled();
    replay_query(&mut s, &q, config, registry, 0, 1)
}

/// Hard cap on one detached-handle probe. A detached bump is one
/// `Option` branch; 25 ns leaves an order of magnitude of headroom over
/// anything resembling a healthy build.
const DISABLED_NS_PER_OP_CAP: f64 = 25.0;

/// Enabled-path budget: metered workload wall ≤ this factor over the
/// unmetered one, plus fixed slack for timer noise on small workloads.
const ENABLED_FACTOR_CAP: f64 = 2.0;
const ENABLED_SLACK_MS: f64 = 50.0;

/// `reproduce metrics-gate`: the recorder overhead caps.
pub(crate) fn metrics_gate(_: &Args) -> Result<String, String> {
    let mut out = String::from("=== Metrics gate: recorder overhead caps ===\n");
    let mut bad = 0usize;

    // (2) Disabled-path cost: detached handles against a hard ns/op cap.
    let counter = CounterHandle::default();
    let hist = HistogramHandle::default();
    let iters: u64 = 2_000_000;
    let t0 = Instant::now();
    for i in 0..iters {
        counter.add(std::hint::black_box(1));
        hist.record(std::hint::black_box(i));
    }
    let ns_per_op = t0.elapsed().as_nanos() as f64 / (iters * 2) as f64;
    let _ = writeln!(
        out,
        "disabled-path probe: {ns_per_op:.2} ns/op over {} ops (cap {DISABLED_NS_PER_OP_CAP})",
        iters * 2
    );
    if ns_per_op > DISABLED_NS_PER_OP_CAP {
        let _ = writeln!(out, "disabled-path cost exceeds the cap");
        bad += 1;
    }

    // (3) Enabled-path cost: metered vs unmetered fixed workload.
    let t0 = Instant::now();
    gate_workload(&MetricsRegistry::disabled())?;
    let off_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    gate_workload(&MetricsRegistry::new())?;
    let on_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cap_ms = off_ms * ENABLED_FACTOR_CAP + ENABLED_SLACK_MS;
    let _ = writeln!(
        out,
        "enabled-path workload: {on_ms:.1} ms metered vs {off_ms:.1} ms unmetered \
         (cap {cap_ms:.1} ms)"
    );
    if on_ms > cap_ms {
        let _ = writeln!(out, "metered workload exceeds the overhead cap");
        bad += 1;
    }

    let _ = writeln!(out, "{bad} violation(s)");
    if bad > 0 {
        Err(out)
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oorq_datagen::ChainConfig;

    /// A deterministic small-config EXPLAIN ANALYZE rendering, wall-time
    /// scrubbed — the golden-test subject (`golden_explain_{music,chain}.txt`).
    /// Everything except wall time is machine-independent: seeded data,
    /// cold cache, serial execution.
    fn golden_explain(scenario: &str) -> Result<String, String> {
        let (mut s, q) = match scenario {
            "music" => {
                let s = Scenario::music(MusicConfig {
                    chains: 3,
                    chain_len: 4,
                    ..Scenario::paper_scale()
                });
                let q = s.fig3();
                (s, q)
            }
            "chain" => {
                let s = Scenario::chain(ChainConfig {
                    relations: 3,
                    rows: 60,
                    domain: 12,
                    seed: 0x5eed,
                });
                let q = s.chain_query(8);
                (s, q)
            }
            other => return Err(format!("no golden for scenario `{other}`")),
        };
        let config = OptimizerConfig::cost_controlled();
        let run = replay_query(&mut s, &q, config, &MetricsRegistry::disabled(), 0, 1)?;
        Ok(scrub_wall(&run.explain))
    }

    /// Scrub wall-clock figures (`wall=12.3µs`, and the gate's `ms`
    /// figures) out of an EXPLAIN ANALYZE rendering so deterministic parts
    /// can be golden-tested across machines.
    fn scrub_wall(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut rest = s;
        while let Some(pos) = rest.find("wall=") {
            let (head, tail) = rest.split_at(pos + "wall=".len());
            out.push_str(head);
            let end = tail
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(tail.len());
            out.push('?');
            rest = &tail[end..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let registry = MetricsRegistry::new();
        assert!(replay_scenario("no-such", &registry, 0, 1).is_err());
    }

    /// `reproduce metrics <row>` carries the percentile table, the
    /// EXPLAIN ANALYZE tree and the exposition.
    #[test]
    fn report_carries_percentiles_explain_and_exposition() {
        let args = Args {
            rest: vec!["music0/fig3/nopush".into()],
            ..Args::default()
        };
        let report = metrics_report(&args).expect("corpus row replays");
        for part in ["p99", "EXPLAIN ANALYZE", "### Prometheus exposition"] {
            assert!(report.contains(part), "missing `{part}`:\n{report}");
        }
    }

    /// Satellite: the EXPLAIN ANALYZE rendering is pinned for one music
    /// and one chain plan (wall times scrubbed; everything else — tree
    /// shape, observed counters, predictions — is deterministic).
    /// Regenerate by writing `golden_explain(scenario)` back to
    /// `crates/bench/golden_explain_<scenario>.txt` after a deliberate
    /// format or plan change. The music tree's `#5 IJ_master` replays:
    /// its line shows one pass of rows, the passes it served and its
    /// replay temporary's write and read-backs, and its scan one pass.
    #[test]
    fn explain_analyze_matches_music_golden() {
        let got = golden_explain("music").expect("music golden runs");
        assert_eq!(got, include_str!("../golden_explain_music.txt"));
    }

    #[test]
    fn explain_analyze_matches_chain_golden() {
        let got = golden_explain("chain").expect("chain golden runs");
        assert_eq!(got, include_str!("../golden_explain_chain.txt"));
    }

    #[test]
    fn scrub_wall_erases_only_wall_figures() {
        let s = "#0 Fix  rows obs=3 wall=12.5µs\n#1 EJ wall=0.9µs est rows=4.0\n";
        assert_eq!(
            scrub_wall(s),
            "#0 Fix  rows obs=3 wall=?µs\n#1 EJ wall=?µs est rows=4.0\n"
        );
    }

    /// The canonical workload interns exactly the series named in
    /// `metrics_baseline.txt`, both ways. On a deliberate rename, the
    /// failure prints the interned list to check in.
    #[test]
    fn series_names_match_the_baseline() {
        let registry = MetricsRegistry::new();
        gate_workload(&registry).expect("workload runs");
        let got = registry.names();
        let want: Vec<&str> = include_str!("../metrics_baseline.txt")
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let missing: Vec<&&str> = want
            .iter()
            .filter(|w| !got.iter().any(|g| g == *w))
            .collect();
        let unknown: Vec<&String> = got.iter().filter(|g| !want.contains(&g.as_str())).collect();
        assert!(
            missing.is_empty() && unknown.is_empty(),
            "in the baseline, not interned: {missing:?}\ninterned, not in the baseline: \
             {unknown:?}\nthe interned series:\n{}",
            got.join("\n")
        );
    }

    /// A small metered replay interns series from every layer, and the
    /// per-query histograms carry one sample per replay.
    #[test]
    fn gate_workload_interns_every_layer() {
        let registry = MetricsRegistry::new();
        gate_workload(&registry).expect("workload runs");
        let names = registry.names();
        for expect in [
            "optimizer.queries",
            "optimizer.optimize_ns",
            "optimizer.candidates.enumerated",
            "exec.queries",
            "exec.query.wall_ns",
            "exec.fix.iterations",
            "storage.page_misses",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
        assert_eq!(registry.counter("exec.queries").get(), 1);
        assert_eq!(registry.histogram("exec.query.wall_ns").count(), 1);
        assert_eq!(
            registry.counter("optimizer.candidates.enumerated").get(),
            registry.counter("optimizer.candidates.accepted").get()
                + registry.counter("optimizer.candidates.rejected").get()
                + registry.counter("optimizer.candidates.pruned").get()
                + registry.counter("optimizer.candidates.pruned_proven").get(),
            "every enumerated candidate lands in exactly one bucket"
        );
    }

    /// One tally: on every corpus row — unbounded and under an 8-page
    /// budget — what the operators were charged, what
    /// the run's page account counted and what the `storage.*` series
    /// gained are the same numbers. (Capacity evictions have no
    /// per-operator column, index reads no series.)
    #[test]
    fn operators_account_and_series_agree_over_the_corpus() {
        let (mut runs, mut spills) = (0, 0);
        for_each_row(
            |_, _| true,
            |name, s, q, config| {
                for budget in [0, 8] {
                    let registry = MetricsRegistry::new();
                    let knobs = Knobs {
                        registry: registry.clone(),
                        ..Knobs::resources(budget)
                    };
                    // A cold-cache run: the account was zeroed before it, so
                    // what it reads afterwards is the run's.
                    let report = s.run(q, config.clone(), &knobs)?.report;
                    let io = report.io;
                    let ops = |counter: fn(&oorq_exec::OpReport) -> u64| {
                        Some(report.ops.iter().map(counter).sum::<u64>())
                    };
                    let series = |name: &str| Some(registry.counter(name).get());
                    #[rustfmt::skip]
                    let tallies = [
                        ("page_reads", ops(|o| o.page_reads), io.page_reads, series("storage.page_misses")),
                        ("page_hits", ops(|o| o.page_hits), io.page_hits, series("storage.page_hits")),
                        ("page_writes", ops(|o| o.page_writes), io.page_writes, series("storage.page_writes")),
                        ("temp_reads", ops(|o| o.temp_reads), io.temp_reads, series("storage.temp_page_reads")),
                        ("spill_evictions", ops(|o| o.spill_evictions), io.spill_evictions, series("storage.spill_evictions")),
                        ("index_reads", ops(|o| o.index_reads), io.index_reads, None),
                        ("page_evictions", None, io.page_evictions, series("storage.page_evictions")),
                    ];
                    for (counter, ops, account, series) in tallies {
                        let case = format!("{name}, budget {budget}: {counter}");
                        assert_eq!(ops.unwrap_or(account), account, "{case}, operators");
                        assert_eq!(series.unwrap_or(account), account, "{case}, series");
                    }
                    runs += 1;
                    spills += io.spill_evictions;
                }
                Ok::<(), String>(())
            },
        )
        .expect("the corpus runs");
        assert_eq!(runs, 2 * 27, "every corpus row, two ways");
        assert!(spills > 0, "breakers spilled");
    }
}
