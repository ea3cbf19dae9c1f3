//! Serving-layer tests: cache hit/miss patterns, concurrent-session
//! byte-identity, and drift-lint invalidation.

use std::sync::Arc;

use oorq_datagen::{chain_query, ChainConfig, ChainDb, MusicConfig, MusicDb};
use oorq_exec::MethodRegistry;
use oorq_index::IndexSet;
use oorq_query::paper::{fig3, music_catalog};
use oorq_storage::{DbStats, Value};

use crate::*;

fn chain_server(rows: u32) -> Server {
    let chain = ChainDb::generate(ChainConfig {
        relations: 3,
        rows,
        domain: 16,
        seed: 7,
    });
    Server::new(
        chain.db,
        IndexSet::new(),
        MethodRegistry::new(),
        ServerConfig::default(),
    )
}

fn chain_graph(server: &Server, limit: i64) -> oorq_query::QueryGraph {
    chain_query(server.database().catalog(), limit)
}

/// Render an answer's rows for byte-comparison.
fn rendered(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn warm_cold_cache_pattern_and_counters() {
    let server = chain_server(60);
    let q = chain_graph(&server, 8);
    let mut s = server.session();

    let a1 = s.execute(&q).unwrap();
    assert_eq!(a1.cache, CacheOutcome::Miss);
    assert!(!a1.invalidated, "fresh statistics must not drift");
    let a2 = s.execute(&q).unwrap();
    assert_eq!(a2.cache, CacheOutcome::Hit);
    let a3 = s.execute(&q).unwrap();
    assert_eq!(a3.cache, CacheOutcome::Hit);

    // Same plan, identical answers, coherent counters.
    assert_eq!(a1.plan_fingerprint, a2.plan_fingerprint);
    assert_eq!(rendered(&a1.batch.rows), rendered(&a2.batch.rows));
    assert_eq!(rendered(&a1.batch.rows), rendered(&a3.batch.rows));
    let m = server.metrics();
    assert_eq!(m.counter("serve.cache.misses").get(), 1);
    assert_eq!(m.counter("serve.cache.hits").get(), 2);
    assert_eq!(m.counter("serve.queries").get(), 3);
    assert_eq!(m.counter("serve.cache.evictions").get(), 0);
    assert_eq!(server.cached_plans(), 1);
    assert_eq!(m.histogram("serve.query.wall_ns").count(), 3);
}

#[test]
fn a_second_session_hits_the_plan_the_first_optimized() {
    let server = chain_server(40);
    let q = chain_graph(&server, 6);

    let a1 = server.session().execute(&q).unwrap();
    assert_eq!(a1.cache, CacheOutcome::Miss);
    let a2 = server.session().execute(&q).unwrap();
    assert_eq!(a2.cache, CacheOutcome::Hit);
    assert_eq!(a1.plan_fingerprint, a2.plan_fingerprint);
    assert_eq!(rendered(&a1.batch.rows), rendered(&a2.batch.rows));
    let m = server.metrics();
    assert_eq!(m.counter("serve.cache.misses").get(), 1);
    assert_eq!(m.counter("serve.cache.hits").get(), 1);
}

#[test]
fn concurrent_sessions_match_single_session_replay() {
    let server = chain_server(80);
    let queries: Vec<_> = [3, 6, 9, 12]
        .iter()
        .map(|&l| chain_graph(&server, l))
        .collect();

    // Single-session reference replay.
    let reference: Vec<Vec<String>> = {
        let mut s = server.session();
        queries
            .iter()
            .map(|q| rendered(&s.execute(q).unwrap().batch.rows))
            .collect()
    };

    // Four concurrent sessions, each replaying the whole mix twice.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut s = server.session();
                for _round in 0..2 {
                    for (q, want) in queries.iter().zip(&reference) {
                        let got = s.execute(q).unwrap();
                        assert_eq!(
                            &rendered(&got.batch.rows),
                            want,
                            "answers must be byte-identical across sessions"
                        );
                    }
                }
            });
        }
    });

    let m = server.metrics();
    // 4 reference queries + 4 sessions * 2 rounds * 4 queries.
    assert_eq!(m.counter("serve.queries").get(), 4 + 32);
    // Every distinct query optimized at most once... unless two sessions
    // raced the same cold key, which the cache resolves by replacement.
    assert!(m.counter("serve.cache.misses").get() >= 4);
    assert!(m.counter("serve.cache.hits").get() >= 28);
    assert_eq!(m.counter("serve.sessions").get(), 5);
}

#[test]
fn stale_statistics_invalidate_evict_and_recalibrate() {
    // Data: a real chain. Statistics: collected from a near-empty twin,
    // then installed — the stale-checkpoint bootstrap case. The first
    // execution's observed counters dwarf the predictions, the CX drift
    // lints fire, the entry is evicted and statistics recalibrated; the
    // re-optimized plan is then clean and cacheable.
    let server = chain_server(120);
    let tiny = ChainDb::generate(ChainConfig {
        relations: 3,
        rows: 2,
        domain: 16,
        seed: 7,
    });
    server.install_stats(DbStats::collect(&tiny.db));

    let q = chain_graph(&server, 12);
    let mut s = server.session();

    let a1 = s.execute(&q).unwrap();
    assert_eq!(a1.cache, CacheOutcome::Miss);
    assert!(a1.invalidated, "stale statistics must trip the drift lints");
    assert_eq!(server.cached_plans(), 0, "stale entry must be evicted");
    let m = server.metrics();
    assert_eq!(m.counter("serve.cache.invalidations").get(), 1);
    assert_eq!(m.counter("serve.recalibrations").get(), 1);

    // Recalibrated: the next request re-optimizes and stays cached.
    let a2 = s.execute(&q).unwrap();
    assert_eq!(a2.cache, CacheOutcome::Miss);
    assert!(!a2.invalidated, "fresh statistics must be clean");
    assert_eq!(server.cached_plans(), 1);
    let a3 = s.execute(&q).unwrap();
    assert_eq!(a3.cache, CacheOutcome::Hit);
    assert!(!a3.invalidated);

    // Same answers throughout: invalidation is about cost honesty, not
    // correctness.
    assert_eq!(rendered(&a1.batch.rows), rendered(&a2.batch.rows));
    assert_eq!(rendered(&a1.batch.rows), rendered(&a3.batch.rows));
}

#[test]
fn lru_capacity_bounds_the_cache() {
    let chain = ChainDb::generate(ChainConfig {
        relations: 3,
        rows: 30,
        domain: 16,
        seed: 7,
    });
    let server = Server::new(
        chain.db,
        IndexSet::new(),
        MethodRegistry::new(),
        ServerConfig {
            plan_cache_capacity: 2,
            ..ServerConfig::default()
        },
    );
    let mut s = server.session();
    for limit in [1, 2, 3, 4] {
        s.execute(&chain_graph(&server, limit)).unwrap();
    }
    assert_eq!(server.cached_plans(), 2);
    assert_eq!(server.metrics().counter("serve.cache.evictions").get(), 2);
    // The most recent plan is still warm.
    let a = s.execute(&chain_graph(&server, 4)).unwrap();
    assert_eq!(a.cache, CacheOutcome::Hit);
}

/// A request whose execution fails leaves the session as a good one
/// does: the run's page account is parked in the session's snapshot
/// again — the failed run's touches published, its pages resident — and
/// the next request answers as a fresh session would.
#[test]
fn a_failed_execution_parks_the_sessions_page_account() {
    use oorq_datagen::{ClosureConfig, ClosureDb};
    use oorq_exec::{ExecConfig, ExecError};

    const CLOSURE: &str = "view Path as
      select [a: e.a, b: e.b] from e in Edge
      union
      select [a: p.a, b: e.b] from p in Path, e in Edge where p.b = e.a;
    select [a: t.a, b: t.b] from t in Path";
    let closure = ClosureDb::generate(ClosureConfig { nodes: 8 });
    let paths = closure.closure_rows() as usize;
    let server = Server::new(
        closure.db,
        IndexSet::new(),
        MethodRegistry::new(),
        ServerConfig::default(),
    );
    let mut s = server.session();
    // Eight nodes take seven passes: one is not enough.
    s.set_exec_config(ExecConfig {
        max_fix_iterations: 1,
        ..ExecConfig::default()
    });
    let err = s.execute_text(CLOSURE).unwrap_err();
    assert!(
        matches!(err, ServeError::Exec(ExecError::FixpointDiverged(_))),
        "{err}"
    );
    // This session's account is the only one the registry has seen.
    let published = |series: &str| server.metrics().counter(series).get();
    let failed = ["storage.page_misses", "storage.page_hits"].map(published);
    assert!(failed[0] > 0 && published("storage.page_writes") > 0);

    assert_eq!(server.cached_plans(), 0, "its validation run failed");

    s.set_exec_config(ExecConfig::default());
    let good = s.execute_text(CLOSURE).unwrap();
    assert_eq!(good.cache, CacheOutcome::Miss);
    assert_eq!(good.batch.rows.len(), paths);
    let misses = published("storage.page_misses");
    assert_eq!(misses, failed[0], "`Edge` stayed resident");
    assert!(published("storage.page_hits") > failed[1]);
    let fresh = server.session().execute_text(CLOSURE).unwrap();
    assert_eq!(rendered(&good.batch.rows), rendered(&fresh.batch.rows));

    // The same under stale statistics: the plan whose validation run
    // failed was never drift-checked, so the retry must be — as a hit it
    // would serve the stale plan unchecked for good.
    let server = Server::new(
        ClosureDb::generate(ClosureConfig { nodes: 32 }).db,
        IndexSet::new(),
        MethodRegistry::new(),
        ServerConfig::default(),
    );
    let tiny = ClosureDb::generate(ClosureConfig { nodes: 2 });
    server.install_stats(DbStats::collect(&tiny.db));
    let mut s = server.session();
    s.set_exec_config(ExecConfig {
        max_fix_iterations: 1,
        ..ExecConfig::default()
    });
    s.execute_text(CLOSURE).unwrap_err();
    s.set_exec_config(ExecConfig::default());
    let retried = s.execute_text(CLOSURE).unwrap();
    assert_eq!(retried.cache, CacheOutcome::Miss);
    assert!(retried.invalidated, "stale statistics must trip the lints");
}

/// A small music server, unindexed, and Figure 3 at `gen >= 2` with
/// its answer from the reference evaluator, sorted.
pub(crate) fn music_server() -> (Server, String, Vec<Vec<Value>>) {
    let music = MusicDb::generate(
        Arc::new(music_catalog()),
        MusicConfig {
            chains: 3,
            chain_len: 5,
            harpsichord_fraction: 0.5,
            ..Default::default()
        },
    );
    let server = Server::new(
        music.db,
        IndexSet::new(),
        MethodRegistry::new(),
        ServerConfig::default(),
    );
    let text = fig3("harpsichord", 2);
    let graph = oorq_query::parse_query(server.database().catalog(), &text).unwrap();
    let reference = oorq_exec::eval_query_graph(server.database(), &MethodRegistry::new(), &graph);
    let reference = sorted(reference.unwrap().rows);
    assert!(!reference.is_empty());
    (server, text, reference)
}

pub(crate) fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// A text nested past the parser's bound is refused as a parse error,
/// not parsed until the thread's stack overflows and aborts every
/// session: parentheses nest the parser, and a flat `and`, `or` or `+`
/// chain nests the `Expr` it builds, which later passes recurse down.
/// Run on a spawned thread, whose stack is the default a server's
/// session threads get.
#[test]
fn a_deeply_nested_text_is_a_parse_error_not_an_abort() {
    let (server, text, reference) = music_server();
    let texts = |depth: usize| {
        let nested = |open: &str| {
            let (open, close) = (open.repeat(depth), ")".repeat(depth));
            format!("{open}x.name = \"Bach\"{close}")
        };
        let bach = "x.name = \"Bach\"";
        [
            nested("("),
            nested("not("),
            format!("{bach}{}", format!(" and {bach}").repeat(depth)),
            format!("{bach}{}", format!(" or {bach}").repeat(depth)),
            format!("x.birth_year{} > 0", " + 1".repeat(depth)),
        ]
        .map(|pred| format!("select [n: x.name] from x in Composer where {pred}"))
    };
    std::thread::scope(|t| {
        t.spawn(|| {
            let mut s = server.session();
            for deep in texts(10_000) {
                assert!(matches!(s.execute_text(&deep), Err(ServeError::Parse(_))));
            }
            let answer = s.execute_text(&text).unwrap();
            assert_eq!(sorted(answer.batch.rows), reference);
            for shallow in texts(100) {
                s.execute_text(&shallow).unwrap();
            }
        })
        .join()
        .unwrap();
    });
}

/// A lowered plan goes with the entry it was lowered for. Statistics from
/// a near-empty twin make the chain join's validation run drift: the
/// entry is invalidated, so the same text — which the session's memo
/// still maps to its key — misses again, is optimized and lowered afresh
/// by its new validation run, and answers as the reference evaluator
/// does; the hit after it lowers the new plan once, for every later hit.
#[test]
fn a_text_after_an_invalidation_misses_and_is_lowered_again() {
    let server = chain_server(120);
    let tiny = ChainDb::generate(ChainConfig {
        relations: 3,
        rows: 2,
        domain: 16,
        seed: 7,
    });
    server.install_stats(DbStats::collect(&tiny.db));
    let text = "select [first: r0.a, last: r2.b]
        from r0 in R0, r1 in R1, r2 in R2
        where r0.a < 12 and r0.b = r1.a and r1.b = r2.a";
    let graph = oorq_query::parse_query(server.database().catalog(), text).unwrap();
    let reference = oorq_exec::eval_query_graph(server.database(), &MethodRegistry::new(), &graph);
    let reference = sorted(reference.unwrap().rows);
    assert!(!reference.is_empty());
    let mut s = server.session();

    let stale = s.execute_text(text).unwrap();
    assert_eq!(stale.cache, CacheOutcome::Miss);
    assert!(
        stale.invalidated,
        "stale statistics must trip the drift lints"
    );
    assert_eq!(server.cached_plans(), 0);

    let again = s.execute_text(text).unwrap();
    assert_eq!(
        again.cache,
        CacheOutcome::Miss,
        "the plan went, its lowering with it"
    );
    assert!(!again.invalidated);
    assert!(again.plan.is_none(), "a validation run lowers for itself");
    assert_eq!(sorted(again.batch.rows), reference);

    let hits = [(); 2].map(|()| s.execute_text(text).unwrap());
    for hit in &hits {
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(sorted(hit.batch.rows.clone()), reference);
    }
    let [first, second] = hits.map(|hit| hit.plan.expect("a hit streams a lowering"));
    assert!(Arc::ptr_eq(&first, &second), "lowered once");
}

/// A session's memo of source texts holds no more texts than the plan
/// cache holds plans, however many ad-hoc texts the session sends, and
/// the texts it still holds are answered from the cache.
#[test]
fn a_sessions_text_memo_is_bounded_by_the_plan_cache_capacity() {
    let capacity = 4;
    let music = MusicDb::generate(Arc::new(music_catalog()), MusicConfig::default());
    let server = Server::new(
        music.db,
        IndexSet::new(),
        MethodRegistry::new(),
        ServerConfig {
            plan_cache_capacity: capacity,
            ..ServerConfig::default()
        },
    );
    let text =
        |year: usize| format!("select [n: x.name] from x in Composer where x.birth_year > {year}");
    let mut s = server.session();
    for year in 0..10 * capacity {
        let answer = s.execute_text(&text(year)).unwrap();
        assert_eq!(answer.cache, CacheOutcome::Miss);
        assert!(s.remembered_texts() <= capacity);
    }
    assert_eq!(s.remembered_texts(), capacity);
    let last = s.execute_text(&text(10 * capacity - 1)).unwrap();
    assert_eq!(last.cache, CacheOutcome::Hit);
    assert_eq!(s.remembered_texts(), capacity);
}

/// Every session's hit streams the one lowering the first hit made and
/// the cache keeps.
#[test]
fn sessions_hitting_one_text_stream_one_lowered_plan() {
    let (server, text, reference) = music_server();
    let miss = server.session().execute_text(&text).unwrap();
    assert_eq!(miss.cache, CacheOutcome::Miss);
    let (mut a, mut b) = (server.session(), server.session());
    let (ha, hb) = (
        a.execute_text(&text).unwrap(),
        b.execute_text(&text).unwrap(),
    );
    assert_eq!((ha.cache, hb.cache), (CacheOutcome::Hit, CacheOutcome::Hit));
    assert!(Arc::ptr_eq(
        ha.plan.as_ref().unwrap(),
        hb.plan.as_ref().unwrap()
    ));
    assert_eq!(sorted(ha.batch.rows), reference);
    assert_eq!(sorted(hb.batch.rows), reference);
}
