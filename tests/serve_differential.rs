//! Serving-layer differential tests: N concurrent sessions over shared
//! copy-on-write snapshots must return answers byte-identical to a
//! single-session replay, the plan cache must show the warm/cold
//! counter pattern, and stale statistics must trip the CX drift lints
//! into eviction + recalibration. A join on composer names answers as
//! the reference evaluator does, cold and warm. A recursive text the semi-naive `Fix`
//! cannot answer is refused by the graph lint in every build, and one it
//! can matches the reference evaluator, as does a view whose recursive
//! leg reads another recursive view, under every push strategy. The
//! whole suite honours
//! `OORQ_MEMORY_BUDGET` (CI re-runs it under a low budget to prove
//! spilling sessions still serve identical answers).

use std::sync::Arc;

use oorq::datagen::{
    chain_query, selective_tail_query, ChainConfig, ChainDb, ClosureConfig, ClosureDb, MusicConfig,
    MusicDb,
};
use oorq::exec::{eval_query_graph, ExecConfig, MethodRegistry};
use oorq::index::IndexSet;
use oorq::optimizer::{OptError, OptimizerConfig};
use oorq::query::paper::{fig3, INFLUENCER_VIEW};
use oorq::query::{parse_query, QueryGraph};
use oorq::schema::{AttributeDef, Catalog, ClassDef, Field, RelationDef, SchemaBuilder, TypeExpr};
use oorq::serve::{CacheOutcome, ServeError, Server, ServerConfig};
use oorq::storage::{DbStats, Value};
use oorq_bench::scenarios::env_budget;
use oorq_bench::Scenario;

fn config() -> ServerConfig {
    config_with(OptimizerConfig::cost_controlled())
}

fn config_with(optimizer: OptimizerConfig) -> ServerConfig {
    ServerConfig {
        optimizer,
        exec: ExecConfig {
            memory_budget_pages: env_budget(),
            ..ExecConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// The paper's music database with its physical design, plus the
/// Figure 3 query (view expanded).
fn music_server() -> (Server, QueryGraph) {
    let s = Scenario::music(MusicConfig {
        chains: 6,
        chain_len: 8,
        works_per_composer: 3,
        instruments_per_work: 3,
        ..MusicConfig::default()
    });
    let q = s.fig3();
    (Server::new(s.db, s.idx, s.methods, config()), q)
}

fn chain_server(rows: u32) -> (Server, Vec<QueryGraph>) {
    let chain = ChainDb::generate(ChainConfig {
        relations: 3,
        rows,
        domain: 16,
        seed: 9,
    });
    let cat = chain.db.catalog();
    let queries = vec![
        chain_query(cat, 4),
        chain_query(cat, 10),
        selective_tail_query(cat, 3),
    ];
    let server = Server::new(chain.db, IndexSet::new(), MethodRegistry::new(), config());
    (server, queries)
}

fn rendered(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn concurrent_music_sessions_match_single_session_replay() {
    let (server, q) = music_server();
    let reference = {
        let mut s = server.session();
        rendered(&s.execute(&q).unwrap().batch.rows)
    };
    assert!(!reference.is_empty(), "fig3 must have an answer");

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut s = server.session();
                for _ in 0..3 {
                    let got = s.execute(&q).unwrap();
                    assert_eq!(
                        rendered(&got.batch.rows),
                        reference,
                        "concurrent session diverged from single-session replay"
                    );
                }
            });
        }
    });

    let m = server.metrics();
    assert_eq!(m.counter("serve.sessions").get(), 5);
    assert_eq!(m.counter("serve.queries").get(), 13);
    // One cold optimization; every other request hit the shared cache.
    assert_eq!(m.counter("serve.cache.misses").get(), 1);
    assert_eq!(m.counter("serve.cache.hits").get(), 12);
}

#[test]
fn concurrent_chain_sessions_match_single_session_replay() {
    let (server, queries) = chain_server(100);
    let reference: Vec<Vec<String>> = {
        let mut s = server.session();
        queries
            .iter()
            .map(|q| rendered(&s.execute(q).unwrap().batch.rows))
            .collect()
    };

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut s = server.session();
                for _round in 0..2 {
                    for (q, want) in queries.iter().zip(&reference) {
                        let got = s.execute(q).unwrap();
                        assert_eq!(&rendered(&got.batch.rows), want);
                    }
                }
            });
        }
    });

    let m = server.metrics();
    assert_eq!(m.counter("serve.queries").get(), 3 + 4 * 2 * 3);
    assert!(m.counter("serve.cache.hits").get() >= 3 + 4 * 2 * 3 - 2 * 3);
}

#[test]
fn warm_cold_pattern_over_the_music_corpus() {
    let (server, q) = music_server();
    let mut s = server.session();
    let cold = s.execute(&q).unwrap();
    assert_eq!(cold.cache, CacheOutcome::Miss);
    assert!(!cold.invalidated, "fresh statistics must not drift");
    let warm = s.execute(&q).unwrap();
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(cold.plan_fingerprint, warm.plan_fingerprint);
    assert_eq!(rendered(&cold.batch.rows), rendered(&warm.batch.rows));
    assert_eq!(server.cached_plans(), 1);
}

/// Two composers joined on their names: the one join of the music corpus
/// whose inner attribute the physical design indexes. An explicit join
/// is a nested loop; cold and warm, it answers as the reference does.
const SAME_NAME: &str = "select [a: x.name, b: y.birth_year] from x in Composer, y in Composer
  where x.name = y.name and y.birth_year >= 1700";

#[test]
fn a_join_on_composer_names_matches_the_reference() {
    let s = Scenario::music(MusicConfig {
        chains: 6,
        chain_len: 8,
        ..MusicConfig::default()
    });
    let q = parse_query(s.db.catalog(), SAME_NAME).unwrap();
    let mut want = eval_query_graph(&s.db, &s.methods, &q).unwrap().rows;
    want.sort();
    assert!(!want.is_empty(), "some composer is born from 1700 on");
    let server = Server::new(s.db, s.idx, s.methods, config());
    let mut session = server.session();
    for outcome in [CacheOutcome::Miss, CacheOutcome::Hit] {
        let answer = session.execute_text(SAME_NAME).unwrap();
        assert_eq!(answer.cache, outcome);
        let mut got = answer.batch.rows;
        got.sort();
        assert_eq!(rendered(&got), rendered(&want), "{outcome:?}");
    }
}

#[test]
fn stale_statistics_trip_drift_eviction_and_recalibration() {
    let (server, queries) = chain_server(120);
    // Statistics from a near-empty twin: the stale-checkpoint case.
    let tiny = ChainDb::generate(ChainConfig {
        relations: 3,
        rows: 2,
        domain: 16,
        seed: 9,
    });
    server.install_stats(DbStats::collect(&tiny.db));

    let q = &queries[1];
    let mut s = server.session();
    let a1 = s.execute(q).unwrap();
    assert_eq!(a1.cache, CacheOutcome::Miss);
    assert!(
        a1.invalidated,
        "stale statistics must trip the CX drift lints"
    );
    assert_eq!(server.cached_plans(), 0, "drifted entry must be evicted");
    assert_eq!(
        server.metrics().counter("serve.cache.invalidations").get(),
        1
    );
    assert_eq!(server.metrics().counter("serve.recalibrations").get(), 1);

    // Re-optimized under recalibrated statistics: clean and cached.
    let a2 = s.execute(q).unwrap();
    assert_eq!(a2.cache, CacheOutcome::Miss);
    assert!(!a2.invalidated);
    assert_eq!(server.cached_plans(), 1);
    let a3 = s.execute(q).unwrap();
    assert_eq!(a3.cache, CacheOutcome::Hit);

    // Invalidation is about cost honesty, never about answers.
    assert_eq!(rendered(&a1.batch.rows), rendered(&a2.batch.rows));
    assert_eq!(rendered(&a1.batch.rows), rendered(&a3.batch.rows));
}

/// A closure view whose recursive alternative reads `Path` twice. The
/// semi-naive `Fix` reads every occurrence as the last pass's delta, so
/// on a 4-node chain it answered 5 of the reference's 6 rows, missing
/// `(0, 3)`.
const PATH_SQUARED: &str = "view Path as
  select [a: e.a, b: e.b] from e in Edge
  union select [a: p.a, b: q.b] from p in Path, q in Path where p.b = q.a;
select [a: t.a, b: t.b] from t in Path";

/// The same, joined with an edge leaving the second `Path`: on a 6-node
/// chain it answered 9 of the reference's 11 rows.
const PATH_SQUARED_EDGE: &str = "view Path as
  select [a: e.a, b: e.b] from e in Edge
  union select [a: p.a, b: q.b] from p in Path, q in Path, e in Edge
    where p.b = q.a and q.b = e.a;
select [a: t.a, b: t.b] from t in Path";

/// A closure view with no base alternative.
const PATH_WITHOUT_BASE: &str = "view Path as
  select [a: p.a, b: e.b] from p in Path, e in Edge where p.b = e.a;
select [a: t.a, b: t.b] from t in Path";

/// A closure read under a selection and a bare row variable, which is no
/// truth value.
const PATH_AND_BARE_ROW: &str = "view Path as
  select [a: e.a, b: e.b] from e in Edge
  union select [a: p.a, b: e.b] from p in Path, e in Edge where p.b = e.a;
select [a: t.a, b: t.b] from t in Path where t.a = 0 and t";

/// A linear closure whose recursive step is filtered by a `not` over a
/// base column: it never appends the edge into node 3.
const PATH_NOT_THROUGH_3: &str = "view Path as
  select [a: e.a, b: e.b] from e in Edge
  union select [a: p.a, b: e.b] from p in Path, e in Edge
    where p.b = e.a and not (e.b = 3);
select [a: t.a, b: t.b] from t in Path";

fn closure_server(nodes: u32) -> Server {
    let db = ClosureDb::generate(ClosureConfig { nodes }).db;
    Server::new(db, IndexSet::new(), MethodRegistry::new(), config())
}

/// The sorted reference answer of `text` over a `nodes`-node chain.
fn closure_reference(text: &str, nodes: u32) -> Vec<String> {
    let c = ClosureDb::generate(ClosureConfig { nodes });
    let q = parse_query(c.db.catalog(), text).unwrap();
    let mut rows = eval_query_graph(&c.db, &MethodRegistry::new(), &q)
        .unwrap()
        .rows;
    rows.sort();
    rendered(&rows)
}

/// Serve `text` over a `nodes`-node chain and expect the optimizer to
/// refuse it with a lint error naming `code`.
fn assert_refused(text: &str, nodes: u32, code: &str) {
    assert_served_refused(&closure_server(nodes), text, code);
}

/// Serve `text` and expect the optimizer to refuse it with a lint error
/// naming `code`.
fn assert_served_refused(server: &Server, text: &str, code: &str) {
    match server.session().execute_text(text) {
        Err(ServeError::Optimize(OptError::Lint { errors, .. })) => {
            assert!(errors.contains(code), "{code} expected:\n{errors}")
        }
        Err(e) => panic!("{code} expected, got: {e}"),
        Ok(got) => panic!("{code} expected, got {} rows", got.batch.rows.len()),
    }
}

#[test]
fn non_linear_recursion_is_refused_rather_than_answered_wrongly() {
    assert_eq!(closure_reference(PATH_SQUARED, 4).len(), 6);
    assert_refused(PATH_SQUARED, 4, "QG006");
    assert_eq!(closure_reference(PATH_SQUARED_EDGE, 6).len(), 11);
    assert_refused(PATH_SQUARED_EDGE, 6, "QG006");
}

#[test]
fn recursion_without_a_base_case_is_the_same_lint_error_in_every_build() {
    assert_refused(PATH_WITHOUT_BASE, 4, "QG005");
}

#[test]
fn a_conjunct_that_is_no_truth_value_is_the_same_lint_error_in_every_build() {
    assert_refused(PATH_AND_BARE_ROW, 4, "PT008");
}

/// A relation arc's row used as a value: the reference answers each text,
/// but a plan binds a relation's fields, never its row, so every build
/// refuses it at admission rather than failing at execution.
#[test]
fn a_relations_row_used_as_a_value_is_the_same_lint_error_in_every_build() {
    let s = Scenario::music(MusicConfig {
        chains: 2,
        chain_len: 4,
        ..MusicConfig::default()
    });
    let server = Server::new(s.db, s.idx, s.methods, config());
    let fig3 = fig3("harpsichord", 1);
    let texts = [
        format!("{fig3} and i <> null"),
        format!("{fig3} and i = i"),
        format!("{fig3} and not (i = null)"),
        format!("{fig3} and (i.gen >= 1 or i = i)"),
        format!(
            "{INFLUENCER_VIEW}select [name: i.disciple.name] from i in Influencer where i <> null"
        ),
        format!("{INFLUENCER_VIEW}select [x: i] from i in Influencer"),
        "select [w: p.who.name] from p in Play where p <> null".to_string(),
    ];
    for text in &texts {
        assert_served_refused(&server, text, "PT008");
    }
}

#[test]
fn a_not_over_base_columns_in_a_recursive_body_matches_the_reference() {
    for nodes in [4, 8] {
        let mut got = closure_server(nodes)
            .session()
            .execute_text(PATH_NOT_THROUGH_3)
            .unwrap()
            .batch
            .rows;
        got.sort();
        assert_eq!(rendered(&got), closure_reference(PATH_NOT_THROUGH_3, nodes));
    }
}

/// Figure 1's schema with a second view, `Lineage`, shaped as
/// `Influencer`.
fn lineage_catalog() -> Catalog {
    let tuple = || {
        TypeExpr::Tuple(vec![
            Field::new("master", TypeExpr::class("Composer")),
            Field::new("disciple", TypeExpr::class("Composer")),
            Field::new("gen", TypeExpr::int()),
        ])
    };
    SchemaBuilder::new()
        .class(
            ClassDef::new("Person")
                .attr(AttributeDef::stored("name", TypeExpr::text()))
                .attr(AttributeDef::stored("birth_year", TypeExpr::int()))
                .attr(AttributeDef::computed("age", TypeExpr::int(), 2.0)),
        )
        .class(
            ClassDef::new("Composer")
                .isa("Person")
                .attr(AttributeDef::stored("master", TypeExpr::class("Composer")))
                .attr(AttributeDef::stored(
                    "works",
                    TypeExpr::set(TypeExpr::class("Composition")),
                )),
        )
        .class(
            ClassDef::new("Composition")
                .attr(AttributeDef::stored("title", TypeExpr::text()))
                .attr(
                    AttributeDef::stored("author", TypeExpr::class("Composer"))
                        .inverse_of("Composer", "works"),
                )
                .attr(AttributeDef::stored(
                    "instruments",
                    TypeExpr::set(TypeExpr::class("Instrument")),
                )),
        )
        .class(ClassDef::new("Instrument").attr(AttributeDef::stored("name", TypeExpr::text())))
        .relation(RelationDef::new(
            "Play",
            TypeExpr::Tuple(vec![
                Field::new("who", TypeExpr::class("Person")),
                Field::new("instrument", TypeExpr::class("Instrument")),
            ]),
        ))
        .view(RelationDef::new("Influencer", tuple()))
        .view(RelationDef::new("Lineage", tuple()))
        .build()
        .expect("figure 1 schema with Lineage must validate")
}

/// A recursive view whose recursive leg reads another recursive view, and
/// filters it: the push-join may not take `Lineage`'s own recursive
/// occurrence as its inner, but the filter may go into `Influencer`'s
/// fixpoint inside `Lineage`'s recursive leg.
const LINEAGE_VIEW: &str = "view Lineage as
  select [master: i.master, disciple: i.disciple, gen: 1]
  from i in Influencer
  where i.gen = 1
  union
  select [master: l.master, disciple: i.disciple, gen: l.gen + 1]
  from l in Lineage, i in Influencer
  where l.disciple = i.master and i.master.works.instruments.name = \"harpsichord\";
";

#[test]
fn a_recursive_leg_over_another_view_answers_like_the_reference_under_every_push_strategy() {
    let text =
        format!("{INFLUENCER_VIEW}{LINEAGE_VIEW}select [name: l.disciple.name] from l in Lineage");
    let music = || MusicDb::generate(Arc::new(lineage_catalog()), MusicConfig::default());
    let m = music();
    let q = parse_query(m.db.catalog(), &text).unwrap();
    let mut want = eval_query_graph(&m.db, &MethodRegistry::new(), &q)
        .unwrap()
        .rows;
    want.sort();
    assert_eq!(want.len(), 56);
    let mut fingerprints = Vec::new();
    for optimizer in [
        OptimizerConfig::cost_controlled(),
        OptimizerConfig::deductive_heuristic(),
        OptimizerConfig::never_push(),
    ] {
        let s = Scenario::music_from(music(), true);
        let server = Server::new(s.db, s.idx, s.methods, config_with(optimizer));
        let mut session = server.session();
        for outcome in [CacheOutcome::Miss, CacheOutcome::Hit] {
            let answer = session.execute_text(&text).unwrap();
            assert_eq!(answer.cache, outcome);
            let mut got = answer.batch.rows;
            got.sort();
            assert_eq!(rendered(&got), rendered(&want), "{outcome:?}");
            fingerprints.push(answer.plan_fingerprint);
        }
    }
    // The cost-controlled plan keeps the push into the recursive leg that
    // the never-push plan leaves out.
    assert_ne!(fingerprints[0], fingerprints[4]);
}
