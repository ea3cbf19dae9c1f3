//! The four workloads and everything they feed the program: data
//! configurations and OQL texts, all derived from `--seed`.

use std::sync::Arc;
use std::time::Instant;

use oorq::datagen::{closure_catalog, MusicConfig, MusicDb};
use oorq::exec::ExecConfig;
use oorq::index::{IndexSet, PathIndex, SelectionIndex};
use oorq::query::paper::music_catalog;
use oorq::storage::{Database, StorageConfig, Value};
use oorq_prng::Prng;

/// The `Influencer` view of the paper's §2.3, prepended to every text
/// that ranges over it.
const INFLUENCER_VIEW: &str = "view Influencer as
  select [master: x.master, disciple: x, gen: 1]
  from x in Composer
  where x.master <> null
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer
  where i.disciple = x.master;
";

/// Transitive closure of `Edge` as OQL text.
const CLOSURE_TEXT: &str = "view Path as
  select [a: e.a, b: e.b]
  from e in Edge
  union
  select [a: p.a, b: e.b]
  from p in Path, e in Edge
  where p.b = e.a;
select [a: t.a, b: t.b]
from t in Path";

/// Nodes of the `spill-closure` chain: 2016 paths, 63 semi-naive passes.
const CLOSURE_NODES: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plan-cache hits on a database larger than the buffer: the
    /// executor does the work.
    WarmRecursive,
    /// Never-seen texts on a small database: the optimizer does the work.
    ColdAdhoc,
    /// Several sessions over one server, mostly hits with a few misses.
    ConcurrentMixed,
    /// A fixpoint whose temporaries spill under a memory budget.
    SpillClosure,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmRecursive,
        Workload::ColdAdhoc,
        Workload::ConcurrentMixed,
        Workload::SpillClosure,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRecursive => "warm-recursive",
            Workload::ColdAdhoc => "cold-adhoc",
            Workload::ConcurrentMixed => "concurrent-mixed",
            Workload::SpillClosure => "spill-closure",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sessions of the concurrent workload: one per core, at most four.
pub fn concurrent_sessions() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
        .min(4)
}

/// What a workload runs on.
#[derive(Debug, Clone)]
pub enum DataSpec {
    /// The paper's music schema with its physical design.
    Music(MusicConfig),
    /// A chain `labels[0] -> labels[1] -> ...` stored as `Edge` rows in
    /// `order`.
    Closure { labels: Vec<i64>, order: Vec<usize> },
}

/// A workload's complete, seed-determined description.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub seed: u64,
    pub data: DataSpec,
    /// Concurrent sessions in the timed phase (each is one closed loop).
    pub sessions: usize,
    /// Per-session execution configuration.
    pub exec: ExecConfig,
    /// Of every [`BLOCK`] requests a session sends, how many are ad-hoc
    /// texts never sent before; the rest cycle through the hot texts.
    pub adhoc_per_block: usize,
    /// Requests of the traced and counted pass.
    pub traced_requests: usize,
    /// Ad-hoc answers checked against the reference evaluator per run.
    pub adhoc_checks: usize,
    /// Ad-hoc requests each session sends while warming up.
    pub warmup_adhoc: usize,
}

/// Length of the request-mix block.
pub const BLOCK: usize = 20;

/// Databases generated per seed, of which the one closest to the
/// nominal instrument selectivities is used.
const DATA_CANDIDATES: usize = 256;

/// Composers with a work for `instrument` (an index into the pool).
fn composers_playing(m: &MusicDb, instrument: usize) -> usize {
    let wanted = Value::Oid(m.instruments[instrument]);
    let plays = |work: &Value| match work {
        Value::Oid(w) => {
            m.db.read_attr_raw(*w, m.instruments_attr)
                .is_ok_and(|v| v.members().contains(&wanted))
        }
        _ => false,
    };
    m.composers
        .iter()
        .filter(|&&c| {
            m.db.read_attr_raw(c, m.works_attr)
                .is_ok_and(|works| works.members().iter().any(plays))
        })
        .count()
}

/// A music configuration whose generator seed is drawn from `rng`.
///
/// The generator flips a coin per composer and per instrument slot, so
/// the selectivities of `harpsichord` and `flute` — which decide what
/// pushing a selection through the recursion is worth, and so the plan
/// regret and the answer sizes — wander by a tenth between seeds. Of
/// [`DATA_CANDIDATES`] seed-derived databases the one closest to the
/// nominal selectivities is taken, so runs with different seeds measure
/// the program on comparable data.
fn music(chains: u32, chain_len: u32, buffer_frames: usize, rng: &mut Prng) -> DataSpec {
    let mut config = MusicConfig {
        chains,
        chain_len,
        works_per_composer: 4,
        instruments_per_work: 3,
        instrument_pool: 12,
        harpsichord_fraction: 0.25,
        clustered: false,
        buffer_frames,
        seed: 0,
    };
    let composers = f64::from(chains * chain_len);
    let slot = f64::from(config.instruments_per_work) / f64::from(config.instrument_pool - 1);
    let nominal = [
        composers * config.harpsichord_fraction,
        composers * (1.0 - (1.0 - slot).powi(config.works_per_composer as i32)),
    ];
    let catalog = Arc::new(music_catalog());
    let mut best = (f64::INFINITY, 0);
    for _ in 0..DATA_CANDIDATES {
        config.seed = rng.next_u64();
        let m = MusicDb::generate(Arc::clone(&catalog), config.clone());
        let distance: f64 = (0..2)
            .map(|i| (composers_playing(&m, i) as f64 / nominal[i] - 1.0).powi(2))
            .sum();
        if distance < best.0 {
            best = (distance, config.seed);
        }
    }
    config.seed = best.1;
    DataSpec::Music(config)
}

impl Inputs {
    /// Derive a workload's inputs from the seed.
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Prng::new(seed ^ 0x6f6f_7271);
        // One session sending only hot texts, unless said otherwise.
        let hot_only = |data| Inputs {
            seed,
            data,
            sessions: 1,
            exec: ExecConfig::default(),
            adhoc_per_block: 0,
            traced_requests: 24,
            adhoc_checks: 0,
            warmup_adhoc: 0,
        };
        match workload {
            // 200 composers against 8 buffer frames: the buffer evicts.
            Workload::WarmRecursive => hot_only(music(20, 10, 8, &mut rng)),
            // 30 composers: execution is cheap, optimization is not.
            Workload::ColdAdhoc => Inputs {
                adhoc_per_block: BLOCK,
                traced_requests: 200,
                adhoc_checks: 120,
                warmup_adhoc: 40,
                ..hot_only(music(5, 6, 32, &mut rng))
            },
            // The paper's §4.6 scale; fits the buffer.
            Workload::ConcurrentMixed => Inputs {
                sessions: concurrent_sessions(),
                adhoc_per_block: 1,
                traced_requests: 120,
                adhoc_checks: 8,
                warmup_adhoc: 2,
                ..hot_only(music(10, 10, 32, &mut rng))
            },
            Workload::SpillClosure => {
                let mut labels: Vec<i64> = (0..CLOSURE_NODES as i64).collect();
                rng.shuffle(&mut labels);
                let mut order: Vec<usize> = (0..CLOSURE_NODES - 1).collect();
                rng.shuffle(&mut order);
                let mut inputs = hot_only(DataSpec::Closure { labels, order });
                inputs.exec.memory_budget_pages = 8;
                inputs
            }
        }
    }

    /// The texts sent repeatedly: the Figure 3 query at four generation
    /// bounds and two instruments (one cost class), or the closure.
    pub fn hot_texts(&self) -> Vec<String> {
        match &self.data {
            DataSpec::Closure { .. } => vec![CLOSURE_TEXT.to_string()],
            DataSpec::Music(_) if self.adhoc_per_block == BLOCK => Vec::new(),
            DataSpec::Music(_) => {
                let mut texts = Vec::new();
                for gen in [3, 4, 5, 6] {
                    for instrument in ["harpsichord", "flute"] {
                        texts.push(format!(
                            "{INFLUENCER_VIEW}select [name: i.disciple.name]\nfrom i in Influencer\n\
                             where i.master.works.instruments.name = \"{instrument}\" and i.gen >= {gen}"
                        ));
                    }
                }
                let mut rng = Prng::new(self.seed ^ 0x686f_7473);
                rng.shuffle(&mut texts);
                texts
            }
        }
    }

    /// Build the database and its indexes. Deterministic, so calling it
    /// twice yields two identical, independent copies.
    pub fn build(&self) -> Built {
        match &self.data {
            DataSpec::Music(config) => {
                let t0 = Instant::now();
                let mut m = MusicDb::generate(Arc::new(music_catalog()), config.clone());
                let generate_ns = t0.elapsed().as_nanos() as u64;
                let t0 = Instant::now();
                let mut indexes = IndexSet::new();
                indexes.add_path(PathIndex::build(
                    &mut m.db,
                    vec![
                        (m.composer, m.works_attr),
                        (m.composition, m.instruments_attr),
                    ],
                ));
                indexes.add_selection(SelectionIndex::build(&mut m.db, m.composer, m.name_attr));
                let index_build_ns = t0.elapsed().as_nanos() as u64;
                let names = |oids: &[oorq::storage::Oid]| -> Vec<String> {
                    oids.iter()
                        .map(|&o| match m.db.read_attr_raw(o, m.name_attr) {
                            Ok(Value::Text(s)) => s,
                            other => panic!("name attribute of {o:?} is {other:?}"),
                        })
                        .collect()
                };
                let vocabulary = Some(Vocabulary {
                    composers: names(&m.composers),
                    instruments: names(&m.instruments),
                    max_gen: config.chain_len.saturating_sub(1).max(1) as u64,
                });
                let objects = m.composers.len() as u64 * (1 + u64::from(config.works_per_composer))
                    + m.instruments.len() as u64;
                Built {
                    db: m.db,
                    indexes,
                    vocabulary,
                    generate_ns,
                    index_build_ns,
                    objects,
                }
            }
            DataSpec::Closure { labels, order } => {
                let t0 = Instant::now();
                let catalog = Arc::new(closure_catalog());
                let mut db = Database::new(Arc::clone(&catalog), StorageConfig::default());
                let edge = catalog.relation_by_name("Edge").expect("closure schema");
                for &i in order {
                    db.insert_row(edge, vec![Value::Int(labels[i]), Value::Int(labels[i + 1])])
                        .expect("insert edge");
                }
                Built {
                    db,
                    indexes: IndexSet::new(),
                    vocabulary: None,
                    generate_ns: t0.elapsed().as_nanos() as u64,
                    index_build_ns: 0,
                    objects: order.len() as u64,
                }
            }
        }
    }

    /// The closure's answer computed straight from the chain: every
    /// `(labels[i], labels[j])` with `i < j`, rendered like an answer row.
    pub fn closure_reference(&self) -> Option<Vec<String>> {
        let DataSpec::Closure { labels, .. } = &self.data else {
            return None;
        };
        let mut rows = Vec::new();
        for i in 0..labels.len() {
            for j in i + 1..labels.len() {
                rows.push(format!("{}|{}", labels[i], labels[j]));
            }
        }
        Some(rows)
    }
}

/// A generated database with the pieces the benchmark needs beside it.
pub struct Built {
    pub db: Database,
    pub indexes: IndexSet,
    /// Constants ad-hoc texts draw from (music data only).
    pub vocabulary: Option<Vocabulary>,
    pub generate_ns: u64,
    pub index_build_ns: u64,
    /// Objects and rows loaded.
    pub objects: u64,
}

/// The constants of the generated music data.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    pub composers: Vec<String>,
    pub instruments: Vec<String>,
    /// Longest master chain, in generations.
    pub max_gen: u64,
}

/// Birth years the music generator draws from.
const YEARS: std::ops::Range<u64> = 1600..1800;

/// One family of ad-hoc texts: a query template and a walk over its
/// constant space that visits every combination once.
#[derive(Debug, Clone)]
struct Family {
    /// Size of the constant space.
    space: u64,
    /// Multiplier and offset of the affine walk `(a*k + b) mod space`;
    /// `a` is coprime with `space`, so the walk is a permutation.
    a: u64,
    b: u64,
}

impl Family {
    fn new(space: u64, rng: &mut Prng) -> Family {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let a = loop {
            let a = 1 + rng.below(space - 1);
            if gcd(a, space) == 1 {
                break a;
            }
        };
        Family {
            space,
            a,
            b: rng.below(space),
        }
    }

    /// The `k`-th point of the walk.
    fn point(&self, k: u64) -> u64 {
        assert!(
            k < self.space,
            "ad-hoc text space exhausted after {} texts",
            self.space
        );
        ((u128::from(self.a) * u128::from(k) + u128::from(self.b)) % u128::from(self.space)) as u64
    }
}

/// Split `point` into mixed-radix digits, least significant first.
fn digits<const N: usize>(mut point: u64, radices: [u64; N]) -> [u64; N] {
    radices.map(|r| {
        let d = point % r;
        point /= r;
        d
    })
}

/// Which template an ad-hoc text instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// The Figure 3 query with an extra `birth_year` conjunct.
    Fig3,
    /// The §4.5 push-join query.
    PushJoin,
    /// A non-recursive path query over `Composer`.
    Path,
}

/// The mix of every ten ad-hoc texts: the median request is a Figure 3
/// query and the 90th percentile a push-join, neither on a boundary.
const MIX: [Template; 10] = [
    Template::Fig3,
    Template::Fig3,
    Template::Fig3,
    Template::Fig3,
    Template::Fig3,
    Template::Fig3,
    Template::PushJoin,
    Template::PushJoin,
    Template::Path,
    Template::Path,
];

/// Generator of texts that are never repeated: within a lane, and across
/// the `lanes` generators of one seed.
#[derive(Debug, Clone)]
pub struct TextGen {
    vocabulary: Vocabulary,
    rng: Prng,
    lane: u64,
    lanes: u64,
    /// Per template, in [`MIX`] order of first appearance: the walk and
    /// how many texts this lane has drawn from it.
    families: [(Family, u64); 3],
    /// The shuffled remainder of the current mix block.
    block: Vec<Template>,
}

impl TextGen {
    /// The generator for one of `lanes` sessions sharing a seed.
    pub fn new(vocabulary: Vocabulary, seed: u64, lane: usize, lanes: usize) -> TextGen {
        // The walks are shared by every lane of a seed; lane `l` takes
        // points `l, l + lanes, ...`, so lanes never collide.
        let mut shared = Prng::new(seed ^ 0x7465_7874);
        let (c, i, g) = (
            vocabulary.composers.len() as u64,
            vocabulary.instruments.len() as u64,
            vocabulary.max_gen,
        );
        let y = YEARS.end - YEARS.start;
        let families = [
            (Family::new(g * i * y * 2, &mut shared), 0),
            (Family::new(c * y * 2, &mut shared), 0),
            (Family::new(i * y * 2, &mut shared), 0),
        ];
        TextGen {
            vocabulary,
            rng: Prng::new(seed ^ 0x6c61_6e65 ^ ((lane as u64) << 32)),
            lane: lane as u64,
            lanes: lanes as u64,
            families,
            block: Vec::new(),
        }
    }

    /// The next text and its template.
    pub fn next_text(&mut self) -> (Template, String) {
        if self.block.is_empty() {
            self.block = MIX.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        let template = self.block.pop().expect("block refilled above");
        (template, self.text_of(template))
    }

    /// The next text of one template.
    pub fn text_of(&mut self, template: Template) -> String {
        let v = &self.vocabulary;
        let (family, drawn) = &mut self.families[template as usize];
        let point = family.point(*drawn * self.lanes + self.lane);
        *drawn += 1;
        let years = YEARS.end - YEARS.start;
        let cmp = |d: u64| if d == 0 { ">=" } else { "<" };
        match template {
            Template::Fig3 => {
                let [y, op, i, g] =
                    digits(point, [years, 2, v.instruments.len() as u64, v.max_gen]);
                format!(
                    "{INFLUENCER_VIEW}select [name: i.disciple.name]\nfrom i in Influencer\n\
                     where i.master.works.instruments.name = \"{}\" and i.gen >= {} \
                     and i.disciple.birth_year {} {}",
                    v.instruments[i as usize],
                    g + 1,
                    cmp(op),
                    YEARS.start + y
                )
            }
            Template::PushJoin => {
                let [y, op, c] = digits(point, [years, 2, v.composers.len() as u64]);
                format!(
                    "{INFLUENCER_VIEW}select [name: i.disciple.name]\n\
                     from i in Influencer, c in Composer\n\
                     where i.master = c.master and c.name = \"{}\" \
                     and i.disciple.birth_year {} {}",
                    v.composers[c as usize],
                    cmp(op),
                    YEARS.start + y
                )
            }
            Template::Path => {
                let [y, op, i] = digits(point, [years, 2, v.instruments.len() as u64]);
                format!(
                    "select [name: c.name]\nfrom c in Composer\n\
                     where c.works.instruments.name = \"{}\" and c.birth_year {} {}",
                    v.instruments[i as usize],
                    cmp(op),
                    YEARS.start + y
                )
            }
        }
    }
}

/// What a session sends: hot texts in a cycle, with
/// `Inputs::adhoc_per_block` never-seen texts at seed-chosen positions
/// of every block.
pub struct Schedule {
    hot: Vec<String>,
    next_hot: usize,
    adhoc: Option<TextGen>,
    adhoc_per_block: usize,
    rng: Prng,
    /// Whether each remaining request of the current block is ad hoc.
    block: Vec<bool>,
}

/// One request to send.
pub enum Request {
    /// Index into the hot texts.
    Hot(usize),
    /// A text never sent before.
    Adhoc(String),
}

impl Schedule {
    /// The schedule of session `lane` of `lanes`; `vocabulary` is needed
    /// when the workload sends ad-hoc texts.
    pub fn new(
        inputs: &Inputs,
        vocabulary: Option<&Vocabulary>,
        lane: usize,
        lanes: usize,
    ) -> Self {
        let hot = inputs.hot_texts();
        let adhoc = (inputs.adhoc_per_block > 0).then(|| {
            let v = vocabulary.expect("ad-hoc texts need music data");
            TextGen::new(v.clone(), inputs.seed, lane, lanes)
        });
        Schedule {
            // Sessions start at different points of the cycle.
            next_hot: if hot.is_empty() {
                0
            } else {
                lane * 3 % hot.len()
            },
            hot,
            adhoc,
            adhoc_per_block: inputs.adhoc_per_block,
            rng: Prng::new(inputs.seed ^ 0x7363_6864 ^ ((lane as u64) << 32)),
            block: Vec::new(),
        }
    }

    /// The hot texts, in the order [`Request::Hot`] indexes them.
    pub fn hot(&self) -> &[String] {
        &self.hot
    }

    /// The next never-seen text, outside the mix (warm-up, sampling).
    pub fn adhoc_text(&mut self) -> Option<String> {
        self.adhoc.as_mut().map(|g| g.next_text().1)
    }

    /// The next never-seen text of one template.
    pub fn adhoc_text_of(&mut self, template: Template) -> Option<String> {
        self.adhoc.as_mut().map(|g| g.text_of(template))
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        if self.block.is_empty() {
            self.block = (0..BLOCK).map(|i| i < self.adhoc_per_block).collect();
            self.rng.shuffle(&mut self.block);
        }
        if self.block.pop().expect("block refilled above") {
            let gen = self.adhoc.as_mut().expect("ad-hoc share without generator");
            Request::Adhoc(gen.next_text().1)
        } else {
            let i = self.next_hot;
            self.next_hot = (i + 1) % self.hot.len();
            Request::Hot(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn vocabulary() -> Vocabulary {
        Inputs::new(Workload::ColdAdhoc, 7)
            .build()
            .vocabulary
            .expect("music data")
    }

    #[test]
    fn adhoc_texts_never_repeat_within_a_run_or_across_lanes() {
        let v = vocabulary();
        let mut seen = HashSet::new();
        for lane in 0..2 {
            let mut gen = TextGen::new(v.clone(), 7, lane, 2);
            for _ in 0..3000 {
                assert!(seen.insert(gen.next_text().1), "text repeated");
            }
        }
    }

    #[test]
    fn adhoc_texts_are_a_function_of_the_seed() {
        let v = vocabulary();
        let texts = |seed| {
            let mut gen = TextGen::new(v.clone(), seed, 0, 1);
            (0..50).map(|_| gen.next_text().1).collect::<Vec<_>>()
        };
        assert_eq!(texts(11), texts(11));
        assert_ne!(texts(11), texts(12));
    }

    #[test]
    fn every_block_of_ten_holds_the_stated_mix() {
        let mut gen = TextGen::new(vocabulary(), 3, 0, 1);
        for _ in 0..20 {
            let block: Vec<Template> = (0..10).map(|_| gen.next_text().0).collect();
            let count = |t| block.iter().filter(|&&b| b == t).count();
            assert_eq!(
                (
                    count(Template::Fig3),
                    count(Template::PushJoin),
                    count(Template::Path)
                ),
                (6, 2, 2)
            );
        }
    }

    #[test]
    fn concurrent_mixed_sends_one_adhoc_text_in_twenty() {
        let inputs = Inputs::new(Workload::ConcurrentMixed, 5);
        assert_eq!(inputs.sessions, concurrent_sessions());
        let built = inputs.build();
        let mut s = Schedule::new(&inputs, built.vocabulary.as_ref(), 1, inputs.sessions);
        let adhoc = (0..200)
            .filter(|_| matches!(s.next_request(), Request::Adhoc(_)))
            .count();
        assert_eq!(adhoc, 10);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let (a, b) = (Inputs::new(w, 9), Inputs::new(w, 9));
            assert_eq!(format!("{:?}", a.data), format!("{:?}", b.data));
            assert_eq!(a.hot_texts(), b.hot_texts());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let (a, b) = (
            Inputs::new(Workload::SpillClosure, 1),
            Inputs::new(Workload::SpillClosure, 2),
        );
        assert_ne!(format!("{:?}", a.data), format!("{:?}", b.data));
    }
}
