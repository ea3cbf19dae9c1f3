//! Plan quality: what the cost-controlled plan costs to *run* against
//! the cheapest of the three push strategies' plans — the benchmark's
//! `plan_regret`, held per text instead of as one geometric mean.
//!
//! The paper's thesis is that pushing a selection through recursion is
//! decided by cost; the decision is only as good as the selectivity the
//! model feeds it. At the benchmark's recursive scales the `harpsichord`
//! selection (one slot in 45 of `Composition.instruments`) pays for
//! being pushed and the `flute` one (one in ten) does not.

use oorq_bench::scenarios::for_each_row;
use oorq_bench::{Knobs, Scenario};
use oorq_core::OptimizerConfig;
use oorq_datagen::MusicConfig;
use oorq_exec::eval_query_graph;
use oorq_query::paper::fig3;
use oorq_query::{parse_query, QueryGraph};

/// Executed cost (`pr` = 1, `ev` = 0.05, cold cache) of the
/// cost-controlled plan over the cheapest of the three strategies'
/// plans, each checked against the reference evaluator's answer.
fn regret(s: &mut Scenario, q: &QueryGraph, what: &str) -> f64 {
    let mut reference = eval_query_graph(&s.db, &s.methods, q)
        .unwrap_or_else(|e| panic!("{what}: reference: {e}"))
        .rows;
    reference.sort();
    let mut executed: Vec<(u64, f64)> = Vec::new();
    let costs: Vec<f64> = [
        OptimizerConfig::cost_controlled(),
        OptimizerConfig::deductive_heuristic(),
        OptimizerConfig::never_push(),
    ]
    .into_iter()
    .map(|config| {
        let knobs = Knobs::default();
        let plan = s.plan(q, config, &knobs).expect(what);
        let fingerprint = plan.pt.fingerprint();
        if let Some((_, cost)) = executed.iter().find(|(f, _)| *f == fingerprint) {
            return *cost;
        }
        let (answer, report, _) = s.execute(&plan.pt, &knobs).expect(what);
        let mut rows = answer.rows;
        rows.sort();
        assert_eq!(rows, reference, "{what}: plan {fingerprint:016x}");
        let cost = report.total(1.0, 0.05);
        executed.push((fingerprint, cost));
        cost
    })
    .collect();
    let cheapest = costs.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(cheapest > 0.0, "{what}: executed at no cost");
    costs[0] / cheapest
}

/// Rows the instrument selection of the unpushed plan pulls and keeps:
/// how often the literal is reached through `works.instruments` from
/// the masters the generation bound admits.
fn selected(s: &mut Scenario, instrument: &str, gen: u32) -> (u64, u64) {
    let q = parse_query(s.db.catalog(), &fig3(instrument, gen.into())).expect(instrument);
    let knobs = Knobs::default();
    let plan = s
        .plan(&q, OptimizerConfig::never_push(), &knobs)
        .expect(instrument);
    let (_, report, _) = s.execute(&plan.pt, &knobs).expect(instrument);
    let wanted = format!("name=\"{instrument}\"]");
    let mut selections = report
        .ops
        .iter()
        .filter(|o| o.label.starts_with("Sel[") && o.label.ends_with(&wanted));
    let sel = selections.next().expect("the unpushed plan selects");
    assert!(selections.next().is_none(), "one instrument selection");
    (sel.rows_in, sel.rows_out)
}

#[test]
fn the_cost_controlled_plan_is_the_cheapest_that_runs_at_the_benchmarks_scales() {
    // The databases `benchmark/` generates at its default seed, 1992
    // (of 256 seed-derived candidates the one closest to the nominal
    // instrument selectivities): `concurrent-mixed`'s fits its buffer,
    // `warm-recursive`'s evicts. The generator seeds are copied from a
    // run of `benchmark/src/inputs.rs`'s rule (a package this one cannot
    // call), so each database is first held to what the benchmark's
    // executor sees on it — the 200-composer figures are the ones the
    // issue that sized this test measured there (`harpsichord` 80 of
    // 3,600, `flute` 699 of 6,720). A generator or seed-rule change that
    // moves the data fails here, not in a bound checked on other data.
    for (chains, buffer_frames, seed, seen) in [
        (
            10,
            32,
            12_309_335_415_468_308_039,
            [("harpsichord", 3, (3360, 79)), ("flute", 3, (3360, 317))],
        ),
        (
            20,
            8,
            988_751_798_684_823_447,
            [("harpsichord", 5, (3600, 80)), ("flute", 3, (6720, 699))],
        ),
    ] {
        let mut s = Scenario::music(MusicConfig {
            chains,
            chain_len: 10,
            works_per_composer: 4,
            instruments_per_work: 3,
            instrument_pool: 12,
            harpsichord_fraction: 0.25,
            clustered: false,
            buffer_frames,
            seed,
        });
        for (instrument, gen, rows) in seen {
            let what = format!("{chains}0 composers, {instrument}, gen >= {gen}");
            assert_eq!(selected(&mut s, instrument, gen), rows, "{what}");
        }
        for instrument in ["harpsichord", "flute"] {
            for gen in 3..=6 {
                let what = format!("{chains}0 composers, {instrument}, gen >= {gen}");
                let q = parse_query(s.db.catalog(), &fig3(instrument, gen.into())).expect(&what);
                let ratio = regret(&mut s, &q, &what);
                assert!(ratio <= 1.15, "{what}: regret {ratio:.3}");
            }
        }
    }
}

/// Per music query of the corpus, the regret at the commit before the
/// value-count tables (d411332): none may get worse.
const BEFORE: &[(&str, f64)] = &[
    ("music0/fig3", 1.0000),
    ("music0/pushjoin", 1.0000),
    ("music1/fig3", 1.2723),
    ("music1/pushjoin", 1.0000),
    ("music2/fig3", 1.0000),
    ("music2/pushjoin", 1.0000),
    ("music/fig3", 1.5033),
    ("music/pushjoin", 1.0000),
    ("fig7/fig3", 1.0000),
    ("fig7/pushjoin", 1.0000),
];

#[test]
fn no_music_row_of_the_corpus_regrets_more_than_it_did() {
    let mut seen = Vec::new();
    for_each_row(
        // One row per (scenario, query): every query has a `nopush` row.
        |entry, name| {
            (entry.name.starts_with("music") || entry.name == "fig7") && name.ends_with("/nopush")
        },
        |name, s, q, _| {
            let query = name.strip_suffix("/nopush").expect("selected above");
            seen.push((query.to_string(), regret(s, q, query)));
            Ok::<(), String>(())
        },
    )
    .expect("the corpus runs");
    assert_eq!(seen.len(), BEFORE.len(), "{seen:?}");
    for ((query, ratio), (expected, before)) in seen.iter().zip(BEFORE) {
        assert_eq!(query, expected);
        println!("{query}: regret {before} -> {ratio:.4}");
        assert!(
            *ratio <= before + 5e-5,
            "{query}: regret {before} -> {ratio:.4}"
        );
    }
}
