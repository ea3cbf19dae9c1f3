//! Query-text fuzz smoke: mutated OQL texts never panic the front end or
//! the server.
//!
//! Four corpus texts — Figure 3, the §4.5 push-join, a path query and a
//! `not`/`or` query — are mutated by the in-repo [`Prng`] (character
//! deletion, deletion or duplication of a span of words, token
//! insertion, truncation), and every mutant goes through `parse_query`,
//! then `lint_graph`, then `Session::execute_text` on one small music
//! server.
//! Each outcome must be `Ok` or a typed error; answers are not compared
//! (ROADMAP item 14 lists the served-versus-reference divergences a
//! mutant can reach). A mutant that parses and optimizes also has every
//! plan the randomized walk can reach from its plan (the plan's closure
//! under `neighbours`) linted: the walk itself lints no candidate.
//! Afterwards the same session still answers Figure 3 as the reference
//! evaluator does.
//!
//! The server bounds a fixpoint at 64 passes (Figure 3 needs 3 here), so
//! a mutant whose recursion no longer converges fails with
//! `FixpointDiverged` quickly rather than after the default 10,000.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oorq::cost::CostParams;
use oorq::datagen::MusicConfig;
use oorq::exec::{eval_query_graph, ExecConfig};
use oorq::lint::{lint_graph, verify_pt};
use oorq::query::paper::{fig3, music_catalog, INFLUENCER_VIEW};
use oorq::query::{parse_query, QueryGraph};
use oorq::schema::Catalog;
use oorq::serve::{Server, ServerConfig, Session};
use oorq::storage::Value;
use oorq_bench::scenarios::neighbour_closure;
use oorq_bench::{Knobs, Scenario};
use oorq_prng::Prng;

const SEED: u64 = 0x0a1f_2e55;
const MUTANTS: usize = 2_000;

/// What a token insertion draws from, separated by spaces: keywords,
/// punctuation, operators, names of the music schema and literals.
const TOKENS: &str = "select from where in view as union and or not null ( ) [ ] , . ; : = <> < >= + \" \"x\" 0 1 -7 \
    Composer Influencer Answer master disciple gen name works title instruments birth_year i x c";

/// The texts the mutants are made from, Figure 3 first.
fn corpus() -> Vec<String> {
    vec![
        fig3("harpsichord", 1),
        format!(
            "{INFLUENCER_VIEW}select [name: i.disciple.name]
from i in Influencer, c in Composer
where i.master = c.master and c.name = \"Bach\""
        ),
        "select [name: c.name]
from c in Composer
where c.works.instruments.name = \"flute\" and c.birth_year >= 1700"
            .to_string(),
        "select [name: c.name, year: c.birth_year]
from c in Composer
where not (c.birth_year < 1700 or c.name = \"Bach\") or c.master = null"
            .to_string(),
    ]
}

/// A half-open span of one to `max` whole words of `chars`: it starts
/// where a word starts and ends where a later one starts (or at the end),
/// so a dropped or repeated span is often still a query.
fn words(rng: &mut Prng, chars: &[char], max: usize) -> (usize, usize) {
    let mut starts: Vec<usize> = (0..chars.len())
        .filter(|&i| !chars[i].is_whitespace() && (i == 0 || chars[i - 1].is_whitespace()))
        .collect();
    starts.push(chars.len());
    let a = rng.index(starts.len() - 1);
    let b = (a + 1 + rng.index(max)).min(starts.len() - 1);
    (starts[a], starts[b])
}

/// `text` with one or two mutations applied in turn.
fn mutate(rng: &mut Prng, tokens: &[&str], text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + rng.index(2) {
        if chars.iter().all(|c| c.is_whitespace()) {
            break;
        }
        match rng.index(5) {
            0 => {
                chars.remove(rng.index(chars.len()));
            }
            1 => {
                let (a, b) = words(rng, &chars, 4);
                chars.drain(a..b);
            }
            2 => {
                let at = rng.index(chars.len() + 1);
                let token = format!(" {} ", tokens[rng.index(tokens.len())]);
                chars.splice(at..at, token.chars());
            }
            3 => {
                let (a, b) = words(rng, &chars, 6);
                let copy: Vec<char> = chars[a..b].to_vec();
                chars.splice(b..b, copy);
            }
            _ => chars.truncate(rng.index(chars.len())),
        }
    }
    chars.into_iter().collect()
}

/// Lint every plan the walk can reach from the plan `planner` chooses
/// for `graph` under the server's strategy: how many plans that was (0
/// when the graph does not optimize), or the first unclean report.
fn lint_closure(planner: &Scenario, graph: &QueryGraph) -> Result<usize, String> {
    let strategy = ServerConfig::default().optimizer;
    let Ok(plan) = planner.plan(graph, strategy, &Knobs::default()) else {
        return Ok(0);
    };
    let env = planner.env();
    let closure = neighbour_closure(&planner.model(CostParams::default()), &plan.pt);
    for pt in &closure {
        let report = verify_pt(&env, pt);
        if !report.is_clean() {
            return Err(report.render());
        }
    }
    Ok(closure.len())
}

/// Parse, lint and serve one text, and lint the closure of its plan
/// (`lint_closure`); says whether it parsed and how many plans the
/// closure held. A panic anywhere, or an unclean plan, fails the test
/// with the text that caused it.
fn feed(
    catalog: &Catalog,
    planner: &Scenario,
    session: &mut Session<'_>,
    text: &str,
) -> (bool, usize) {
    let (parsed, closure) = catch_unwind(AssertUnwindSafe(|| {
        let graph = parse_query(catalog, text);
        let mut closure = Ok(0);
        if let Ok(graph) = &graph {
            lint_graph(catalog, graph);
            closure = lint_closure(planner, graph);
        }
        let _ = session.execute_text(text);
        (graph.is_ok(), closure)
    }))
    .unwrap_or_else(|_| panic!("a query text panicked:\n{text}"));
    let closure = closure
        .unwrap_or_else(|report| panic!("a plan one walk away is ill-formed:\n{text}\n{report}"));
    (parsed, closure)
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<String> {
    rows.sort();
    rows.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn mutated_query_texts_are_answered_or_refused_never_panic() {
    let catalog = music_catalog();
    // Two chains of four composers: small enough that every mutant that
    // parses is optimized and run in a debug test. The planner is the
    // same database, kept out of the server to plan the mutants on.
    let small = MusicConfig {
        chains: 2,
        chain_len: 4,
        ..MusicConfig::default()
    };
    let s = Scenario::music(small.clone());
    let planner = Scenario::music(small);
    let texts = corpus();
    let fig3 = &texts[0];
    let graph = parse_query(&catalog, fig3).unwrap();
    let want = sorted(eval_query_graph(&s.db, &s.methods, &graph).unwrap().rows);
    assert!(!want.is_empty(), "Figure 3 has an answer on this data");

    let config = ServerConfig {
        exec: ExecConfig {
            max_fix_iterations: 64,
            ..ExecConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::new(s.db, s.idx, s.methods, config);
    let mut session = server.session();
    for text in &texts {
        assert!(session.execute_text(text).is_ok(), "{text}");
    }
    let tokens: Vec<&str> = TOKENS.split_whitespace().collect();
    let mut rng = Prng::new(SEED);
    let (mut parsed, mut optimized) = (0, 0);
    for n in 0..MUTANTS {
        let mutant = mutate(&mut rng, &tokens, &texts[n % texts.len()]);
        let (ok, closure) = feed(&catalog, &planner, &mut session, &mutant);
        parsed += usize::from(ok);
        optimized += usize::from(closure > 0);
    }
    assert!(
        parsed > MUTANTS / 20,
        "only {parsed} of {MUTANTS} mutants parse: the smoke reaches little past the parser"
    );
    assert!(
        optimized > MUTANTS / 40,
        "only {optimized} of {MUTANTS} mutants optimize: the closure lint reaches little"
    );
    println!("{parsed} of {MUTANTS} mutants parse, {optimized} optimize");

    let got = session.execute_text(fig3).unwrap();
    assert_eq!(sorted(got.batch.rows), want);
}
