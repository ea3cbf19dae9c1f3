//! The one corpus and the one plan-and-run driver behind every report,
//! every gate and the root differential tests.
//!
//! A [`Scenario`] is a generated database with its physical design,
//! method registry and statistics. [`CORPUS`] names the scenarios the
//! harnesses share, each with the queries and optimizer strategies run
//! over it; [`Scenario::run`] is the only place that assembles cost
//! model → optimizer → cold cache → executor → report.

use std::collections::HashMap;
use std::sync::Arc;

use oorq_analysis::{Analysis, Analyzer};
use oorq_core::{Optimized, Optimizer, OptimizerConfig};
use oorq_cost::{CostModel, CostParams};
use oorq_datagen::{
    parts_catalog, ChainConfig, ChainDb, MusicConfig, MusicDb, PartsConfig, PartsDb,
};
use oorq_exec::{Batch, ExecConfig, ExecReport, Executor, MethodRegistry};
use oorq_index::{IndexSet, PathIndex, SelectionIndex};
use oorq_obs::{MetricsRegistry, Recorder};
use oorq_prng::Prng;
use oorq_pt::{PhysPlan, Pt, PtEnv, PtError};
use oorq_query::paper::{fig3_query, fig3_query_gen, music_catalog, sec45_pushjoin_query};
use oorq_query::QueryGraph;
use oorq_schema::ResolvedType;
use oorq_storage::{Database, DbStats};

/// Shapes of the temporaries an optimization registered, by name.
pub type TempFields = HashMap<String, Vec<(String, ResolvedType)>>;

/// A generated database with everything a plan needs to be costed and
/// run.
pub struct Scenario {
    /// The store.
    pub db: Database,
    /// Built index structures.
    pub idx: IndexSet,
    /// Methods of the schema's computed attributes.
    pub methods: MethodRegistry,
    /// Statistics, collected once the physical design is in place.
    pub stats: DbStats,
}

/// Everything an optimize-and-execute takes beyond scenario, query and
/// strategy. The default is what every figure runs under: serial
/// unbounded execution, nothing recorded. Plans are always costed under
/// `CostParams::default()`, the model every optimizer serves.
#[derive(Clone, Default)]
pub struct Knobs {
    /// Breaker budget and fixpoint cap of the run.
    pub exec: ExecConfig,
    /// Trace recorder threaded through optimizer, executor and store.
    pub recorder: Recorder,
    /// Metrics registry attached to the same three layers.
    pub registry: MetricsRegistry,
}

impl Knobs {
    /// Default knobs with a breaker budget.
    pub fn resources(memory_budget_pages: u64) -> Self {
        Knobs {
            exec: ExecConfig {
                memory_budget_pages,
                ..ExecConfig::default()
            },
            ..Knobs::default()
        }
    }
}

/// One optimized-and-executed query.
pub struct Run {
    /// The optimizer's output: plan, cost breakdown, trace.
    pub optimized: Optimized,
    /// Temporaries the optimizer registered while planning.
    pub temp_fields: TempFields,
    /// The answer.
    pub answer: Batch,
    /// Observed counters of the cold-cache execution.
    pub report: ExecReport,
    /// The physical plan the executor lowered and ran.
    pub phys_plan: PhysPlan,
}

impl Run {
    /// The plan's estimated total under `CostParams::default()`.
    pub fn estimated(&self) -> f64 {
        self.optimized.cost.total(&CostParams::default())
    }

    /// The run's measured total priced the same way (`pr`=1,
    /// `ev`=0.05).
    pub fn measured(&self) -> f64 {
        let p = CostParams::default();
        self.report.total(p.pr, p.ev)
    }

    /// The plan in the paper's denotation.
    pub(crate) fn plan_text(&self, s: &Scenario) -> String {
        let env = s.env(self.temp_fields.clone());
        self.optimized.pt.display(&env).to_string()
    }
}

impl Scenario {
    /// Wrap a store and its design; collects statistics.
    pub fn new(db: Database, idx: IndexSet, methods: MethodRegistry) -> Self {
        let stats = DbStats::collect(&db);
        Scenario {
            db,
            idx,
            methods,
            stats,
        }
    }

    /// The default §4.6-scale configuration: 100 composers in chains of
    /// 10, 4 works each, 3 instruments per work — the regime of the
    /// paper's comprehensive example, where the pushed selection's path
    /// expression is expensive relative to its filtering power.
    pub fn paper_scale() -> MusicConfig {
        MusicConfig {
            chains: 10,
            chain_len: 10,
            works_per_composer: 4,
            instruments_per_work: 3,
            seed: 1992,
            ..MusicConfig::default()
        }
    }

    /// A music database with the paper's physical design: the
    /// `works.instruments` path index and a selection index on composer
    /// names.
    pub fn music(cfg: MusicConfig) -> Self {
        Self::music_design(cfg, true)
    }

    /// [`Scenario::music`], optionally without the path index (the
    /// physical-design ablation).
    pub(crate) fn music_design(cfg: MusicConfig, path_index: bool) -> Self {
        Self::music_from(
            MusicDb::generate(Arc::new(music_catalog()), cfg),
            path_index,
        )
    }

    /// The paper's physical design over an already generated music
    /// database.
    pub fn music_from(mut m: MusicDb, path_index: bool) -> Self {
        let mut idx = IndexSet::new();
        if path_index {
            idx.add_path(PathIndex::build(
                &mut m.db,
                vec![
                    (m.composer, m.works_attr),
                    (m.composition, m.instruments_attr),
                ],
            ));
        }
        idx.add_selection(SelectionIndex::build(&mut m.db, m.composer, m.name_attr));
        Self::new(m.db, idx, MethodRegistry::new())
    }

    /// A parts hierarchy with its computed-attribute methods, unindexed.
    pub fn parts(cfg: PartsConfig) -> Self {
        let cat = Arc::new(parts_catalog());
        let p = PartsDb::generate(Arc::clone(&cat), cfg);
        Self::new(
            p.db,
            IndexSet::new(),
            MethodRegistry::with_parts_methods(&cat),
        )
    }

    /// A chain of joined relations, unindexed.
    pub fn chain(cfg: ChainConfig) -> Self {
        Self::plain(ChainDb::generate(cfg).db)
    }

    /// A store with neither indexes nor methods.
    pub fn plain(db: Database) -> Self {
        Self::new(db, IndexSet::new(), MethodRegistry::new())
    }

    /// The Figure 3 query (`gen >= 6`) with the `Influencer` view
    /// expanded.
    pub fn fig3(&self) -> QueryGraph {
        fig3_query(self.db.catalog())
    }

    /// Figure 3 with a custom generation bound (so tiny databases can
    /// have non-empty answers).
    pub fn fig3_gen(&self, gen: i64) -> QueryGraph {
        fig3_query_gen(self.db.catalog(), gen)
    }

    /// The §4.5 push-join query with the view expanded.
    pub fn pushjoin(&self) -> QueryGraph {
        sec45_pushjoin_query(self.db.catalog())
    }

    /// The recursive parts bill-of-materials query with the `Contains`
    /// view expanded.
    pub fn parts_query(&self) -> QueryGraph {
        oorq_datagen::parts_query(self.db.catalog())
    }

    /// The k-way chain join bounded on the head relation.
    pub fn chain_query(&self, limit: i64) -> QueryGraph {
        oorq_datagen::chain_query(self.db.catalog(), limit)
    }

    /// The k-way chain join bounded on the tail relation.
    pub(crate) fn tail_query(&self, limit: i64) -> QueryGraph {
        oorq_datagen::selective_tail_query(self.db.catalog(), limit)
    }

    /// A cost model over this scenario that knows the given temporaries.
    pub fn model(&self, params: CostParams, temp_fields: TempFields) -> CostModel<'_> {
        let mut model = CostModel::new(self.db.catalog(), self.db.physical(), &self.stats, params);
        model.temp_fields = temp_fields;
        model
    }

    /// A typing and display environment for plans over this scenario.
    pub fn env(&self, temp_fields: TempFields) -> PtEnv<'_> {
        PtEnv {
            catalog: self.db.catalog(),
            physical: self.db.physical(),
            temp_fields,
        }
    }

    /// The sound static bounds of a plan (`oorq-analysis` — the
    /// contract every executed plan is checked against).
    pub fn analyze(&self, pt: &Pt, temp_fields: TempFields) -> Result<Analysis, PtError> {
        Analyzer::new(self.db.catalog(), self.db.physical(), &self.stats)
            .analyze_with_temps(pt, temp_fields)
    }

    /// Optimize a query; returns the plan and the temporaries the
    /// optimizer registered.
    pub fn plan(
        &self,
        q: &QueryGraph,
        config: OptimizerConfig,
        knobs: &Knobs,
    ) -> Result<(Optimized, TempFields), String> {
        let model = self.model(CostParams::default(), TempFields::new());
        let mut opt = Optimizer::new(model, config)
            .with_recorder(knobs.recorder.clone())
            .with_metrics(&knobs.registry);
        let optimized = opt
            .optimize(q)
            .map_err(|e| format!("optimization failed: {e}"))?;
        Ok((optimized, opt.model.temp_fields))
    }

    /// Execute a plan over a cold cache.
    pub fn execute(
        &mut self,
        pt: &Pt,
        knobs: &Knobs,
    ) -> Result<(Batch, ExecReport, PhysPlan), String> {
        self.db.cold_cache();
        let mut ex = Executor::new(&mut self.db, &self.idx, &self.methods)
            .with_config(knobs.exec.clone())
            .with_recorder(knobs.recorder.clone())
            .with_metrics(knobs.registry.clone());
        let answer = ex.run(pt).map_err(|e| format!("execution failed: {e}"))?;
        let plan = ex.last_plan().expect("a completed run keeps its plan");
        Ok((answer, ex.report(), plan.clone()))
    }

    /// Optimize under `config`, then execute over a cold cache.
    pub fn run(
        &mut self,
        q: &QueryGraph,
        config: OptimizerConfig,
        knobs: &Knobs,
    ) -> Result<Run, String> {
        let (optimized, temp_fields) = self.plan(q, config, knobs)?;
        let (answer, report, phys_plan) = self.execute(&optimized.pt, knobs)?;
        Ok(Run {
            optimized,
            temp_fields,
            answer,
            report,
            phys_plan,
        })
    }
}

/// The configuration of the Figure 7 regime: an unselective filter over
/// an expensive path expression.
pub fn fig7_config() -> MusicConfig {
    MusicConfig {
        harpsichord_fraction: 0.95,
        works_per_composer: 5,
        instruments_per_work: 4,
        instrument_pool: 16,
        ..Scenario::paper_scale()
    }
}

/// A query over a corpus scenario.
pub type QueryFn = fn(&Scenario) -> QueryGraph;
/// An optimizer strategy of a corpus row.
pub type StrategyFn = fn() -> OptimizerConfig;
/// One corpus row: label, query, strategy. Its full name is
/// `<entry name>/<label>`.
pub type Row = (&'static str, QueryFn, StrategyFn);

/// One named scenario of the corpus with the rows run over it.
pub struct Entry {
    /// Scenario name; prefixes its rows' names.
    pub name: &'static str,
    /// Builds the database (deterministic: fixed configuration and seed).
    pub build: fn() -> Scenario,
    /// The (query, strategy) rows.
    pub rows: &'static [Row],
}

const NOPUSH: StrategyFn = OptimizerConfig::never_push;
const PUSH: StrategyFn = OptimizerConfig::deductive_heuristic;
const CHOSEN: StrategyFn = OptimizerConfig::cost_controlled;

const FIG3_GEN2: QueryFn = |s| s.fig3_gen(2);
const MUSIC_SMALL_ROWS: &[Row] = &[
    ("fig3/nopush", FIG3_GEN2, NOPUSH),
    ("fig3/push", FIG3_GEN2, PUSH),
    ("pushjoin/nopush", Scenario::pushjoin, NOPUSH),
];
const MUSIC_ROWS: &[Row] = &[
    ("fig3/nopush", Scenario::fig3, NOPUSH),
    ("fig3/push", Scenario::fig3, PUSH),
    ("pushjoin/nopush", Scenario::pushjoin, NOPUSH),
    ("pushjoin/push", Scenario::pushjoin, PUSH),
];
const PARTS_ROWS: &[Row] = &[
    ("nopush", Scenario::parts_query, NOPUSH),
    ("push", Scenario::parts_query, PUSH),
];
const CHAIN_ROWS: &[Row] = &[
    ("chain", |s| s.chain_query(8), CHOSEN),
    ("tail", |s| s.tail_query(3), CHOSEN),
];

const fn entry(name: &'static str, build: fn() -> Scenario, rows: &'static [Row]) -> Entry {
    Entry { name, build, rows }
}

/// The corpus. Seven small generated scenarios come first (music, parts
/// and chain, seeded by successive draws of one generator); then the
/// paper-scale scenarios of the figures, the fuzzer's base (`fig7`, its
/// first three rows), a deeper parts hierarchy, and `bigjoin` — a
/// rescanned nested loop over an unindexed pair, the O(n²) regime.
pub const CORPUS: &[Entry] = &[
    entry("music0", || small_music(0), MUSIC_SMALL_ROWS),
    entry("music1", || small_music(1), MUSIC_SMALL_ROWS),
    entry("music2", || small_music(2), MUSIC_SMALL_ROWS),
    entry("parts0", || small_parts(0, 2, 2), PARTS_ROWS),
    entry("parts1", || small_parts(1, 3, 3), PARTS_ROWS),
    entry("chain0", || small_chain(0, 3, 80, 16), CHAIN_ROWS),
    entry("chain1", || small_chain(1, 4, 50, 12), CHAIN_ROWS),
    entry(
        "music",
        || Scenario::music(Scenario::paper_scale()),
        MUSIC_ROWS,
    ),
    entry(
        "fig7",
        || Scenario::music(fig7_config()),
        MUSIC_ROWS.split_at(3).0,
    ),
    entry(
        "parts",
        || {
            Scenario::parts(PartsConfig {
                roots: 3,
                seed: 0x0ab5_7a71,
                ..PartsConfig::default()
            })
        },
        PARTS_ROWS,
    ),
    entry(
        "bigjoin",
        || {
            Scenario::chain(ChainConfig {
                relations: 2,
                rows: 1400,
                domain: 64,
                seed: 0x5eed,
            })
        },
        &[("chain", |s| s.chain_query(64), CHOSEN)],
    ),
];

/// Seed of the `n`-th small scenario (music 0–2, parts 0–1, chain 0–1,
/// in that order): successive draws of one generator.
fn small_seed(n: usize) -> u64 {
    let mut rng = Prng::new(0x0ca1_1b8a_7e00_0003);
    let mut seed = 0;
    for _ in 0..=n {
        seed = rng.range_u32(1, 1 << 20) as u64;
    }
    seed
}

fn small_music(i: u32) -> Scenario {
    Scenario::music(MusicConfig {
        chains: 3 + i,
        chain_len: 3 + 2 * i,
        works_per_composer: 1 + i,
        instruments_per_work: 2 + i % 2,
        harpsichord_fraction: [0.25, 0.5, 0.9][i as usize],
        clustered: i % 2 == 1,
        seed: small_seed(i as usize),
        ..MusicConfig::default()
    })
}

fn small_parts(i: usize, roots: u32, fanout: u32) -> Scenario {
    Scenario::parts(PartsConfig {
        roots,
        fanout,
        depth: 3,
        clustered: i % 2 == 1,
        seed: small_seed(3 + i),
        ..PartsConfig::default()
    })
}

fn small_chain(i: usize, relations: usize, rows: u32, domain: i64) -> Scenario {
    Scenario::chain(ChainConfig {
        relations,
        rows,
        domain,
        seed: small_seed(5 + i),
    })
}

/// Run `f` over every corpus row `select` accepts, as `(row name,
/// scenario, query, strategy)`. Each entry's database is built at most
/// once and shared by its rows, in table order.
pub fn for_each_row<E>(
    select: impl Fn(&Entry, &str) -> bool,
    mut f: impl FnMut(&str, &mut Scenario, &QueryGraph, OptimizerConfig) -> Result<(), E>,
) -> Result<(), E> {
    for entry in CORPUS {
        let mut scenario = None;
        for (label, query, strategy) in entry.rows {
            let name = format!("{}/{label}", entry.name);
            if select(entry, &name) {
                let s = scenario.get_or_insert_with(entry.build);
                let q = query(s);
                f(&name, s, &q, strategy())?;
            }
        }
    }
    Ok(())
}

/// Strictly parse a numeric environment knob: unset is `None`, anything
/// that is not an unsigned integer is an error naming the variable and
/// the value — a typo'd `OORQ_MEMORY_BUDGET=8pages` must never silently
/// run the unbounded default.
pub fn parse_env_knob(name: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    match raw {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name} must be an unsigned integer, got `{v}`")),
    }
}

/// Breaker memory budget (pages) for the differential suites, from
/// `OORQ_MEMORY_BUDGET` (`0` / unset = unbounded). CI re-runs them under
/// a low budget; an unparseable value panics.
pub fn env_budget() -> u64 {
    let raw = std::env::var("OORQ_MEMORY_BUDGET").ok();
    parse_env_knob("OORQ_MEMORY_BUDGET", raw.as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(0)
}
