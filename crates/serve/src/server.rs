//! The multi-session serving layer.
//!
//! A [`Server`] owns the authoritative [`Database`] plus the shared
//! machinery every query needs — indexes, method registry, statistics,
//! the [`PlanCache`] and the `serve.*` metric series. Each concurrent
//! client gets a [`Session`]: an independent copy-on-write snapshot of
//! the database ([`Database::snapshot`]) with its own buffer manager,
//! breaker temporaries ([`ExecState`]) and execution configuration, so
//! sessions share all base data but account I/O and spend memory
//! budgets independently — and return byte-identical answers to a
//! single-session replay.
//!
//! Plans flow through the cache: a query's canonical text is hashed
//! with the framed FNV-1a fingerprint, a hit skips the optimizer
//! entirely (the stored text is re-verified, so a hash collision can
//! only cost a miss, never serve a wrong plan), and a miss optimizes
//! once and publishes the plan for every session. Invalidation is
//! driven by the CX00x drift lints: after a miss's execution — the
//! plan's validation run — the cached plan's predicted per-node
//! breakdown is joined against the observed operator counters; when the
//! drift lints fire, the entry is evicted, the server's statistics are
//! recalibrated from the live data, and the next request re-optimizes
//! under the fresh statistics. A hit reads no operator counter, so it
//! executes through [`Executor::answer`], which takes none.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use oorq_cost::{CostModel, CostParams};
use oorq_exec::{Batch, ExecConfig, ExecError, ExecState, Executor, MethodRegistry};
use oorq_index::IndexSet;
use oorq_lint::{lint_drift, DriftTolerance, LintCode, ObservedOp};
use oorq_obs::{CounterHandle, HistogramHandle, MetricsRegistry};
use oorq_pt::{fix_recursive_nodes, Fnv64};
use oorq_query::{parse_query, ParseError, QueryGraph};
use oorq_storage::{Database, DbStats};

use crate::cache::{CacheOutcome, CachedPlan, PlanCache};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum plans the cache holds before LRU eviction.
    pub plan_cache_capacity: usize,
    /// Optimizer strategy used on cache misses.
    pub optimizer: oorq_core::OptimizerConfig,
    /// Cost parameters for the optimizer's model.
    pub cost_params: CostParams,
    /// Default per-session execution configuration (sessions may
    /// override theirs with [`Session::set_exec_config`]).
    pub exec: ExecConfig,
    /// Drift tolerance for the CX00x invalidation check.
    pub drift: DriftTolerance,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            plan_cache_capacity: 64,
            optimizer: oorq_core::OptimizerConfig::cost_controlled(),
            cost_params: CostParams::default(),
            exec: ExecConfig::default(),
            drift: DriftTolerance::default(),
        }
    }
}

/// Errors surfaced to serving clients.
#[derive(Debug)]
pub enum ServeError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The optimizer rejected the query.
    Optimize(oorq_core::OptError),
    /// Execution failed.
    Exec(ExecError),
    /// `execute_prepared` named an unknown prepared query.
    UnknownPrepared(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "parse error: {e}"),
            ServeError::Optimize(e) => write!(f, "optimization failed: {e}"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            ServeError::UnknownPrepared(name) => write!(f, "unknown prepared query `{name}`"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One answered query.
#[derive(Debug)]
pub struct Answer {
    /// The result rows (deduplicated, in plan order).
    pub batch: Batch,
    /// Whether the plan came from the cache.
    pub cache: CacheOutcome,
    /// Structural fingerprint of the executed plan.
    pub plan_fingerprint: u64,
    /// Whether this execution's drift check fired and evicted the plan.
    pub invalidated: bool,
    /// Wall time of the whole request (lookup + optimize + execute).
    pub wall_ns: u64,
}

/// The `serve.*` series, interned once when the server stands up so a
/// request bumps them without the registry's lock.
struct ServeMetrics {
    sessions: CounterHandle,
    queries: CounterHandle,
    cache_hits: CounterHandle,
    cache_misses: CounterHandle,
    cache_evictions: CounterHandle,
    cache_invalidations: CounterHandle,
    recalibrations: CounterHandle,
    query_wall_ns: HistogramHandle,
    query_rows: HistogramHandle,
}

impl ServeMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            sessions: registry.counter("serve.sessions"),
            queries: registry.counter("serve.queries"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            cache_evictions: registry.counter("serve.cache.evictions"),
            cache_invalidations: registry.counter("serve.cache.invalidations"),
            recalibrations: registry.counter("serve.recalibrations"),
            query_wall_ns: registry.histogram("serve.query.wall_ns"),
            query_rows: registry.histogram("serve.query.rows"),
        }
    }
}

/// The shared serving state. Construct once, then open one
/// [`Session`] per concurrent client with [`Server::session`].
pub struct Server {
    db: Database,
    indexes: IndexSet,
    methods: MethodRegistry,
    stats: RwLock<DbStats>,
    cache: Mutex<PlanCache>,
    metrics: MetricsRegistry,
    series: ServeMetrics,
    config: ServerConfig,
    next_session: AtomicU64,
}

impl Server {
    /// Stand up a server over a loaded database. Statistics are
    /// collected once here; the drift-lint invalidation path
    /// recalibrates them when they go stale.
    pub fn new(
        db: Database,
        indexes: IndexSet,
        methods: MethodRegistry,
        config: ServerConfig,
    ) -> Self {
        let stats = DbStats::collect(&db);
        let cache = PlanCache::new(config.plan_cache_capacity);
        let metrics = MetricsRegistry::new();
        Server {
            db,
            indexes,
            methods,
            stats: RwLock::new(stats),
            cache: Mutex::new(cache),
            series: ServeMetrics::resolve(&metrics),
            metrics,
            config,
            next_session: AtomicU64::new(0),
        }
    }

    /// Open a session: an independent snapshot of the database with its
    /// own buffer accounting and breaker temporaries.
    pub fn session(&self) -> Session<'_> {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.series.sessions.inc();
        let db = self.db.snapshot();
        db.set_metrics(&self.metrics);
        Session {
            server: self,
            id,
            db,
            state: ExecState::default(),
            prepared: HashMap::new(),
            exec: self.config.exec.clone(),
        }
    }

    /// The shared metric registry: the `serve.*` series and the
    /// `storage.*` counters of every session's page account. The `exec.*`
    /// series are *not* here: a session's executor runs without a
    /// registry, and no session hands out its `ExecReport` — a miss's
    /// operator counters feed the drift check and go no further, and a
    /// hit collects none.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The authoritative database (sessions hold snapshots of it).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache().len()
    }

    /// Install externally supplied statistics — e.g. restored from a
    /// persisted checkpoint that may be stale relative to the live
    /// data. Serving stays correct either way: if the statistics
    /// mislead the optimizer, the CX drift lints catch the divergence
    /// on the first execution and trigger eviction + recalibration.
    pub fn install_stats(&self, stats: DbStats) {
        *self.stats_mut() = stats;
    }

    /// Re-collect statistics from the live data (the stale-statistics
    /// half of the invalidation contract; the eviction half happens at
    /// the cache).
    pub fn recalibrate(&self) {
        let fresh = DbStats::collect(&self.db);
        *self.stats_mut() = fresh;
        self.series.recalibrations.inc();
    }

    /// The plan cache. A session that panicked holding it may have left
    /// it half-updated, and every plan can be optimized again, so a
    /// poisoned cache is emptied and its poison cleared, never passed on.
    fn cache(&self) -> MutexGuard<'_, PlanCache> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            *cache = PlanCache::new(self.config.plan_cache_capacity);
            self.cache.clear_poison();
            cache
        })
    }

    /// The statistics. A writer only ever swaps in a finished `DbStats`,
    /// so statistics a panicking writer poisoned are taken as they are —
    /// the next [`Server::recalibrate`] collects them afresh — and the
    /// poison is cleared.
    fn stats(&self) -> RwLockReadGuard<'_, DbStats> {
        self.stats.read().unwrap_or_else(|poisoned| {
            self.stats.clear_poison();
            poisoned.into_inner()
        })
    }

    /// [`Server::stats`], for writing.
    fn stats_mut(&self) -> RwLockWriteGuard<'_, DbStats> {
        self.stats.write().unwrap_or_else(|poisoned| {
            self.stats.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Optimize a query under the current statistics and package the
    /// result for the cache.
    fn optimize(&self, graph: &QueryGraph) -> Result<Arc<CachedPlan>, ServeError> {
        let stats = self.stats();
        let model = CostModel::new(
            self.db.catalog(),
            self.db.physical(),
            &stats,
            self.config.cost_params.clone(),
        );
        let optimized = oorq_core::Optimizer::new(model, self.config.optimizer.clone())
            .optimize(graph)
            .map_err(ServeError::Optimize)?;
        let plan_fingerprint = optimized.pt.fingerprint();
        Ok(Arc::new(CachedPlan {
            pt: optimized.pt,
            out_cols: optimized.out_cols,
            parallel: optimized.parallel,
            breakdown: optimized.trace.final_breakdown,
            plan_fingerprint,
        }))
    }
}

/// The canonical text of a query graph: the derived `Debug` rendering,
/// which is injective over the graph's structure. This is what the
/// cache key hashes and what hit verification compares.
pub fn canonical_text(graph: &QueryGraph) -> String {
    format!("{graph:?}")
}

/// The cache key of a canonical query text: framed FNV-1a.
pub fn query_key(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_tag(b'Q');
    h.write_str(text);
    h.finish()
}

/// A prepared query: translated (parsed and canonicalized) once,
/// executed many times by key.
#[derive(Debug, Clone)]
struct PreparedQuery {
    graph: Arc<QueryGraph>,
    text: Arc<str>,
    key: u64,
}

/// One client's connection to a [`Server`]: a private database
/// snapshot, private breaker temporaries, private execution
/// configuration — and the shared plan cache.
pub struct Session<'s> {
    server: &'s Server,
    id: u64,
    db: Database,
    state: ExecState,
    prepared: HashMap<String, PreparedQuery>,
    exec: ExecConfig,
}

impl<'s> Session<'s> {
    /// This session's id (dense, in open order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Override this session's execution configuration (breaker memory
    /// budget, fixpoint iteration cap).
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// Parse, translate and register a query under a name; subsequent
    /// [`Session::execute_prepared`] calls skip parsing and
    /// canonicalization entirely.
    pub fn prepare(&mut self, name: &str, src: &str) -> Result<(), ServeError> {
        let graph = parse_query(self.db.catalog(), src).map_err(ServeError::Parse)?;
        self.prepare_graph(name, graph);
        Ok(())
    }

    /// Register an already-built query graph under a name (the
    /// programmatic twin of [`Session::prepare`]).
    pub fn prepare_graph(&mut self, name: &str, graph: QueryGraph) {
        let text = canonical_text(&graph);
        let key = query_key(&text);
        self.prepared.insert(
            name.to_string(),
            PreparedQuery {
                graph: Arc::new(graph),
                text: text.into(),
                key,
            },
        );
    }

    /// Execute a previously prepared query.
    pub fn execute_prepared(&mut self, name: &str) -> Result<Answer, ServeError> {
        let p = self
            .prepared
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownPrepared(name.to_string()))?;
        self.run(p.key, &p.text, &p.graph)
    }

    /// Execute a query given as source text (parsed per call; prefer
    /// [`Session::prepare`] for repeated queries).
    pub fn execute_text(&mut self, src: &str) -> Result<Answer, ServeError> {
        let graph = parse_query(self.db.catalog(), src).map_err(ServeError::Parse)?;
        self.execute(&graph)
    }

    /// Execute an already-built query graph.
    pub fn execute(&mut self, graph: &QueryGraph) -> Result<Answer, ServeError> {
        let text = canonical_text(graph);
        let key = query_key(&text);
        self.run(key, &text, graph)
    }

    /// The full request path: cache lookup → (optimize on miss) →
    /// execute on this session's snapshot → drift-check the cached
    /// prediction against the observed counters.
    fn run(&mut self, key: u64, text: &str, graph: &QueryGraph) -> Result<Answer, ServeError> {
        let series = &self.server.series;
        let wall0 = Instant::now();

        // Plan: shared cache first, optimizer on miss. The optimizer
        // runs outside the cache lock — two sessions missing the same
        // key may both optimize, and the second insert wins; that is
        // wasted work, never a wrong answer.
        let (plan, outcome) = {
            let hit = self.server.cache().get(key, text);
            match hit {
                Some(plan) => {
                    series.cache_hits.inc();
                    (plan, CacheOutcome::Hit)
                }
                None => {
                    let plan = self.server.optimize(graph)?;
                    let evicted =
                        self.server
                            .cache()
                            .insert(key, text.to_string(), Arc::clone(&plan));
                    if evicted.is_some() {
                        series.cache_evictions.inc();
                    }
                    series.cache_misses.inc();
                    (plan, CacheOutcome::Miss)
                }
            }
        };

        // Execute on this session's snapshot, reusing the session's
        // breaker temporaries across queries.
        let state = std::mem::take(&mut self.state);
        let mut ex = Executor::new(&mut self.db, &self.server.indexes, &self.server.methods)
            .with_config(self.exec.clone())
            .with_state(state);
        // Only the drift check below reads the operators' counters, and
        // only on a miss: a hit runs its plan unprofiled.
        let miss = outcome == CacheOutcome::Miss;
        let (res, ops) = if miss {
            let res = ex.run(&plan.pt);
            (res, ex.report().ops)
        } else {
            (ex.answer(&plan.pt), Vec::new())
        };
        self.state = ex.into_state();
        let batch = match res {
            Ok(batch) => batch,
            Err(e) => {
                // The plan entered the cache before this, its validation
                // run; a plan whose validation failed must not be served
                // as validated, so the next request optimizes again.
                if miss {
                    self.server.cache().invalidate(key);
                }
                return Err(ServeError::Exec(e));
            }
        };

        // Drift check on the validation (cache-miss) run: the fresh
        // plan's predicted breakdown against this execution's observed
        // counters. Hit executions skip the check — their plan already
        // validated when it entered the cache.
        //
        // The check must separate stale *statistics* from honest model
        // error, so it keys on the one signal the statistics determine
        // directly: base-relation scan cardinality (CX003 on
        // `OpKind::Scan` lines). Interior nodes fold in the model's
        // selectivity assumptions, fixpoint-shape drift (CX005/CX006) the
        // model's pessimistic iteration count, and observed page/eval
        // traffic depends on buffer residency and rescan counts — none
        // of those can tell stale statistics from a warm cache, so they
        // never evict.
        //
        // Predicted and observed scan rows follow different accumulation
        // conventions depending on context: the model prices a
        // nested-loop inner's rescans at the join node (its scan line
        // predicts one pass) while the executor's `rows_out` totals
        // across every re-open, and lines inside fix recursion fold in
        // the model's predicted iteration count (see
        // [`oorq_pt::fix_recursive_nodes`]). So the join (a) skips lines inside
        // fix recursion, and (b) judges a scan line drifted only when
        // it disagrees under *both* readings of the observed counters —
        // per-open (`rows_out / opens`) and total — which stale
        // statistics skew together and execution shape skews apart.
        let invalidated = miss && {
            let recursive = fix_recursive_nodes(&plan.pt);
            let scan_lines: Vec<oorq_cost::NodeCost> = plan
                .breakdown
                .iter()
                .filter(|n| {
                    n.kind == oorq_cost::OpKind::Scan
                        && n.node.is_some_and(|id| !recursive.contains(&id))
                })
                .cloned()
                .collect();
            let mut per_node: BTreeMap<usize, (String, u64, u64, u64, u64)> = BTreeMap::new();
            for o in &ops {
                let e = per_node
                    .entry(o.pt_node)
                    .or_insert_with(|| (o.label.clone(), 0, 0, 0, 0));
                e.1 += o.rows_out;
                e.2 += o.opens;
                e.3 += o.page_reads + o.index_reads + o.page_writes;
                e.4 += o.evals + o.method_calls;
            }
            let observe = |per_open: bool| -> Vec<ObservedOp> {
                per_node
                    .iter()
                    .map(|(&node, (label, rows, opens, io, cpu))| ObservedOp {
                        pt_node: node,
                        label: label.clone(),
                        io: *io as f64,
                        cpu: *cpu as f64,
                        rows: if per_open {
                            *rows as f64 / (*opens).max(1) as f64
                        } else {
                            *rows as f64
                        },
                    })
                    .collect()
            };
            let tol = self.server.config.drift;
            let drift_per_open = lint_drift(&scan_lines, &observe(true), tol);
            let drift_total = lint_drift(&scan_lines, &observe(false), tol);
            // CX003 is a warning by design (a drifted estimate is not an
            // invalid plan), so invalidation keys on the code itself,
            // not on error-level cleanliness.
            drift_per_open.has(LintCode::RowsDrift) && drift_total.has(LintCode::RowsDrift)
        };
        if invalidated {
            // Stale statistics: evict the plan and recalibrate, so the
            // next request re-optimizes under fresh statistics.
            if self.server.cache().invalidate(key) {
                series.cache_invalidations.inc();
            }
            self.server.recalibrate();
        }

        let wall_ns = wall0.elapsed().as_nanos() as u64;
        series.queries.inc();
        series.query_wall_ns.record(wall_ns);
        series.query_rows.record(batch.rows.len() as u64);
        Ok(Answer {
            batch,
            cache: outcome,
            plan_fingerprint: plan.plan_fingerprint,
            invalidated,
            wall_ns,
        })
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("prepared", &self.prepared.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use oorq_datagen::{MusicConfig, MusicDb};
    use oorq_exec::MethodRegistry;
    use oorq_index::IndexSet;
    use oorq_query::paper::music_catalog;
    use oorq_storage::Value;

    use super::*;

    /// A session that panics holding the plan cache or the statistics poisons
    /// that lock for every session of the server. Neither poison is passed on:
    /// the cache is emptied, the statistics are read as they are, both locks
    /// are cleared, and the next session answers Figure 3 as the reference
    /// evaluator does.
    #[test]
    fn a_poisoned_lock_is_recovered_not_passed_on() {
        const FIG3: &str = r#"view Influencer as
          select [master: x.master, disciple: x, gen: 1]
          from x in Composer where x.master <> null
          union
          select [master: i.master, disciple: x, gen: i.gen + 1]
          from i in Influencer, x in Composer where i.disciple = x.master;
        select [name: i.disciple.name]
        from i in Influencer
        where i.master.works.instruments.name = "harpsichord" and i.gen >= 2"#;
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
        let graph = oorq_query::parse_query(server.database().catalog(), FIG3).unwrap();
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort();
            rows
        };
        let reference =
            oorq_exec::eval_query_graph(server.database(), &MethodRegistry::new(), &graph);
        let reference = sorted(reference.unwrap().rows);
        assert!(!reference.is_empty());
        assert_eq!(
            server.session().execute_text(FIG3).unwrap().cache,
            CacheOutcome::Miss
        );

        std::thread::scope(|t| {
            let cache = t.spawn(|| {
                let _held = server.cache.lock().unwrap();
                panic!("a session panicked holding the plan cache");
            });
            let stats = t.spawn(|| {
                let _held = server.stats.write().unwrap();
                panic!("a session panicked holding the statistics");
            });
            assert!(cache.join().is_err() && stats.join().is_err());
        });
        assert!(server.cache.is_poisoned() && server.stats.is_poisoned());

        let mut s = server.session();
        let answer = s.execute_text(FIG3).unwrap();
        assert_eq!(
            answer.cache,
            CacheOutcome::Miss,
            "the poisoned cache was emptied"
        );
        assert_eq!(sorted(answer.batch.rows), reference);
        assert!(!server.cache.is_poisoned() && !server.stats.is_poisoned());
        assert_eq!(s.execute_text(FIG3).unwrap().cache, CacheOutcome::Hit);
        server.recalibrate();
        assert_eq!(server.cached_plans(), 1);
    }
}
