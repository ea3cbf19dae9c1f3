//! `reproduce trace <scenario>`: run one scenario end-to-end with the
//! structured-tracing recorder enabled, and summarize the trace.
//!
//! One recorder is threaded through all four layers — the optimizer
//! (spans per §4 step, `candidate` events), the lint engine (violation
//! events), the executor pipeline (per-operator spans, fixpoint
//! iteration events) and the buffer manager (page hit/miss/eviction
//! events) — so the resulting [`oorq_obs::Trace`] joins optimizer
//! estimates to runtime counters in a single timeline.

use std::fmt::Write;

use oorq_core::OptimizerConfig;
use oorq_obs::Recorder;
use oorq_query::QueryGraph;

use crate::scenarios::{fig7_config, Knobs, Scenario};

/// Everything one traced scenario run produced.
pub struct TraceArtifacts {
    /// The accumulated trace; `to_chrome` renders it as the
    /// Perfetto-loadable file `reproduce trace` writes.
    pub trace: oorq_obs::Trace,
    /// Human-readable summary: search-space table, fixpoint deltas,
    /// counters registry.
    pub summary: String,
}

/// The scenarios `reproduce trace` understands.
pub const TRACE_SCENARIOS: &[&str] = &["music-fig7", "music-paper", "music-pushjoin"];

/// The database, query and title behind a [`TRACE_SCENARIOS`] name.
pub fn trace_case(scenario: &str) -> Result<(Scenario, QueryGraph, &'static str), String> {
    let (cfg, title) = match scenario {
        // The §4.6 regime: the harpsichord filter keeps almost every
        // composer, so pushing it through the recursion loses and the
        // cost-controlled optimizer must *reject* the pushed candidate.
        "music-fig7" => (fig7_config(), "Figure 7 / §4.6 (pushing loses)"),
        "music-paper" => (
            Scenario::paper_scale(),
            "paper-scale music database (§4.6 scale, selective filter)",
        ),
        // The §4.5 join query: its `c.name = "Bach"` selection has an
        // applicable selection index, so the randomized walk proposes
        // index↔scan toggles, and the cost model turns the scans down
        // at 300 composers.
        "music-pushjoin" => (
            oorq_datagen::MusicConfig {
                chains: 30,
                ..Scenario::paper_scale()
            },
            "§4.5 push-join (access-method toggles costed)",
        ),
        other => {
            return Err(format!(
                "unknown trace scenario `{other}` (known: {})",
                TRACE_SCENARIOS.join(", ")
            ))
        }
    };
    let s = Scenario::music(cfg);
    let q = if scenario == "music-pushjoin" {
        s.pushjoin()
    } else {
        s.fig3()
    };
    Ok((s, q, title))
}

/// Run a named scenario under an enabled recorder and summarize it.
pub(crate) fn trace_scenario(scenario: &str) -> Result<TraceArtifacts, String> {
    let (mut s, q, title) = trace_case(scenario)?;
    let obs = Recorder::new();
    let registry = oorq_obs::MetricsRegistry::new();
    let knobs = Knobs {
        recorder: obs.clone(),
        registry: registry.clone(),
        ..Knobs::default()
    };
    let run = s.run(&q, OptimizerConfig::cost_controlled(), &knobs)?;
    let (optimized, report, answer) = (&run.optimized, &run.report, run.answer.len());
    // Fold the aggregated series into the trace as `metrics.*` counters
    // (the only way a counter reaches a trace), so the Chrome export
    // carries them as `C` samples.
    registry.publish_to_recorder(&obs);
    let trace = obs.finish();

    let mut summary = String::new();
    let _ = writeln!(summary, "=== trace: {scenario} — {title} ===");
    let _ = writeln!(
        summary,
        "optimized cost {:.1}; answer {answer} rows; {} spans, {} events recorded",
        optimized.cost.total(&oorq_cost::CostParams::default()),
        trace.spans.len(),
        trace.events.len(),
    );
    let _ = writeln!(
        summary,
        "fixpoint delta sizes (seed first): [{}]",
        report
            .fix_deltas
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );

    let table = oorq_obs::search_space_table(&trace);
    if !table.is_empty() {
        summary.push('\n');
        summary.push_str(&table);
    }

    // Wall-time series (`*_ns`) stay in the trace files only: the
    // summary is part of the deterministic `reproduce all` golden.
    if !trace.counters.is_empty() {
        summary.push_str("\n### Counters\n\n| counter | total |\n|---|---|\n");
        for (name, total) in &trace.counters {
            if !name.contains("_ns") {
                let _ = writeln!(summary, "| {name} | {total:.0} |");
            }
        }
    }

    Ok(TraceArtifacts { trace, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oorq_datagen::MusicConfig;

    fn small_cfg() -> MusicConfig {
        MusicConfig {
            chains: 3,
            chain_len: 4,
            ..fig7_config()
        }
    }

    /// Span-aggregated operator counters must equal the `ExecReport`
    /// totals: the synthesized per-operator spans carry exclusive
    /// figures, so summing them reproduces what the executor reported.
    #[test]
    fn differential_span_counters_equal_exec_report() {
        let obs = Recorder::new();
        let mut s = Scenario::music(small_cfg());
        let knobs = Knobs {
            recorder: obs.clone(),
            ..Knobs::default()
        };
        let report = s
            .run(&s.fig3(), OptimizerConfig::cost_controlled(), &knobs)
            .expect("runs")
            .report;
        let trace = obs.finish();

        let op_spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.cat == "exec" && s.field("track").is_some())
            .collect();
        assert_eq!(
            op_spans.len(),
            report.ops.len(),
            "one synthesized span per operator"
        );
        let span_sum = |key: &str| -> f64 {
            op_spans
                .iter()
                .map(|s| s.field(key).and_then(|v| v.as_num()).unwrap_or(0.0))
                .sum()
        };
        type Counter = fn(&oorq_exec::OpReport) -> u64;
        let counters: [(&str, Counter); 7] = [
            ("rows_out", |o| o.rows_out),
            ("page_reads", |o| o.page_reads),
            ("page_hits", |o| o.page_hits),
            ("index_reads", |o| o.index_reads),
            ("page_writes", |o| o.page_writes),
            ("evals", |o| o.evals),
            ("method_calls", |o| o.method_calls),
        ];
        for (key, counter) in counters {
            let total: u64 = report.ops.iter().map(counter).sum();
            assert_eq!(span_sum(key) as u64, total, "span-aggregated {key}");
        }
        // And the executor-level totals match the same aggregation (the
        // pipeline charges every page fetch to exactly one operator).
        assert_eq!(span_sum("evals") as u64, report.evals);
        assert_eq!(
            span_sum("page_reads") as u64 + span_sum("page_hits") as u64,
            report.io.fetches()
        );
    }

    /// The fig7 trace scenario must expose the paper's negative result:
    /// at least two rejected candidates with costs and reasons, one of
    /// them the pushed plan.
    #[test]
    fn fig7_search_space_has_rejections() {
        let art = trace_scenario("music-fig7").expect("known scenario");
        let rejects: Vec<_> = art
            .trace
            .events_named("candidate")
            .filter(|e| e.field("outcome").and_then(|v| v.as_str()) == Some("reject"))
            .collect();
        assert!(
            rejects.len() >= 2,
            "expected >= 2 rejected candidates, got {}",
            rejects.len()
        );
        assert!(
            rejects.iter().any(|e| {
                e.field("step").and_then(|v| v.as_str()) == Some("push-decision")
                    && e.field("reason")
                        .and_then(|v| v.as_str())
                        .is_some_and(|r| r.contains("fixpoint"))
            }),
            "the pushed plan must be rejected by the cost comparison"
        );
        for e in &rejects {
            assert!(e.field("cost").is_some(), "rejects carry estimated costs");
            assert!(e.field("reason").is_some(), "rejects carry reasons");
        }
        assert!(art.summary.contains("Rejected candidates"));
        oorq_obs::check_chrome_trace(&art.trace.to_chrome()).expect("chrome trace valid");
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        assert!(trace_scenario("no-such-scenario").is_err());
    }

    /// The push-join walk costs every candidate it examines: in
    /// `transformPT` nothing is turned down before it is priced, and the
    /// walk ends on the plan it always chose.
    #[test]
    fn pushjoin_walk_costs_every_candidate_it_examines() {
        let art = trace_scenario("music-pushjoin").expect("known scenario");
        let walk: Vec<_> = art
            .trace
            .events_named("candidate")
            .filter(|e| e.field("step").and_then(|v| v.as_str()) == Some("transformPT"))
            .collect();
        let outcomes: Vec<_> = walk
            .iter()
            .filter_map(|e| e.field("outcome").and_then(|v| v.as_str()))
            .collect();
        let with = |outcome: &str| outcomes.iter().filter(|o| **o == outcome).count();
        let costed = walk.iter().filter(|e| e.field("cost").is_some()).count();
        assert!(!walk.is_empty(), "the walk examined no candidate");
        assert_eq!(walk.len(), costed, "{}", art.summary);
        assert_eq!(costed, with("accept") + with("reject"), "{}", art.summary);
        assert!(
            art.summary.contains("optimized cost 2665.6; answer 1 rows"),
            "{}",
            art.summary
        );
    }
}
