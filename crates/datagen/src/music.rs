//! Synthetic music databases over the Figure 1 schema.
//!
//! The generator controls exactly the statistics the optimizer's
//! decisions depend on: the number and length of master chains (fixpoint
//! iteration count), the works/instruments fan-outs (path-expression
//! cost), the harpsichord selectivity (filter selectivity), and the
//! physical placement (clustered or scattered).

use std::sync::Arc;

use oorq_prng::Prng;
use oorq_schema::{AttrId, Catalog, ClassId};
use oorq_storage::{Database, Oid, StorageConfig, Value, WidthModel};

/// Configuration of the music database generator.
#[derive(Debug, Clone)]
pub struct MusicConfig {
    /// Number of independent master chains.
    pub chains: u32,
    /// Length of each chain (composers per chain); the chain head has a
    /// null `master`.
    pub chain_len: u32,
    /// Works per composer.
    pub works_per_composer: u32,
    /// Instruments per work.
    pub instruments_per_work: u32,
    /// Size of the instrument pool (includes `harpsichord` and `flute`).
    pub instrument_pool: u32,
    /// Fraction of composers whose works include a harpsichord.
    pub harpsichord_fraction: f64,
    /// Physical placement: `true` clusters compositions/instrument refs
    /// with their owners (insertion order), `false` scatters them.
    pub clustered: bool,
    /// Buffer frames of the store.
    pub buffer_frames: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MusicConfig {
    fn default() -> Self {
        MusicConfig {
            chains: 8,
            chain_len: 8,
            works_per_composer: 3,
            instruments_per_work: 2,
            instrument_pool: 12,
            harpsichord_fraction: 0.25,
            clustered: false,
            buffer_frames: 32,
            seed: 42,
        }
    }
}

/// A generated music database with the ids needed by queries and tests.
pub struct MusicDb {
    /// The store.
    pub db: Database,
    /// Class ids.
    pub composer: ClassId,
    /// `Composition` class.
    pub composition: ClassId,
    /// `Instrument` class.
    pub instrument: ClassId,
    /// Attribute ids on `Composer`.
    pub master_attr: AttrId,
    /// `works` attribute.
    pub works_attr: AttrId,
    /// `name` attribute (inherited from `Person`).
    pub name_attr: AttrId,
    /// `instruments` attribute on `Composition`.
    pub instruments_attr: AttrId,
    /// The instrument pool (index 0 = harpsichord, 1 = flute).
    pub instruments: Vec<Oid>,
    /// The composer named `Bach` (tail of the first chain).
    pub bach: Oid,
    /// All composers in creation order.
    pub composers: Vec<Oid>,
    /// The generator configuration used.
    pub config: MusicConfig,
}

impl MusicDb {
    /// Generate a database per the configuration, over the given catalog
    /// (use [`oorq_query::paper::music_catalog`]).
    pub fn generate(catalog: Arc<Catalog>, config: MusicConfig) -> Self {
        Self::generate_paged(catalog, config, WidthModel::default())
    }

    /// [`MusicDb::generate`] with the store's page geometry given (the
    /// same objects in the same order, whatever the page size).
    pub fn generate_paged(catalog: Arc<Catalog>, config: MusicConfig, width: WidthModel) -> Self {
        let mut rng = Prng::new(config.seed);
        let mut db = Database::new(
            Arc::clone(&catalog),
            StorageConfig {
                buffer_frames: config.buffer_frames,
                width,
            },
        );
        let composer = catalog.class_by_name("Composer").expect("music schema");
        let composition = catalog.class_by_name("Composition").expect("music schema");
        let instrument = catalog.class_by_name("Instrument").expect("music schema");
        let (name_attr, _) = catalog.attr(composer, "name").expect("name");
        let (master_attr, _) = catalog.attr(composer, "master").expect("master");
        let (works_attr, _) = catalog.attr(composer, "works").expect("works");
        let (instruments_attr, _) = catalog.attr(composition, "instruments").expect("instr");

        // Instrument pool; 0 = harpsichord, 1 = flute.
        let mut instruments = Vec::new();
        let pool = config.instrument_pool.max(2);
        for i in 0..pool {
            let name = match i {
                0 => "harpsichord".to_string(),
                1 => "flute".to_string(),
                n => format!("instrument{n}"),
            };
            instruments.push(
                db.insert_object(instrument, vec![Value::Text(name)])
                    .expect("insert"),
            );
        }

        // Composers in chains, each with works created right after them
        // (clustered placement by construction).
        let mut composers = Vec::new();
        let mut bach = None;
        for chain in 0..config.chains {
            let mut prev: Option<Oid> = None;
            for pos in 0..config.chain_len {
                let idx = chain * config.chain_len + pos;
                let is_bach = chain == 0 && pos == config.chain_len - 1;
                let name = if is_bach {
                    "Bach".to_string()
                } else {
                    format!("composer{idx}")
                };
                let uses_harpsichord = rng.chance(config.harpsichord_fraction);
                let mut works = Vec::new();
                for w in 0..config.works_per_composer {
                    let mut insts = Vec::new();
                    if uses_harpsichord && w == 0 {
                        insts.push(Value::Oid(instruments[0]));
                    }
                    while insts.len() < config.instruments_per_work as usize {
                        // Non-harpsichord fill (never index 0, so the
                        // harpsichord fraction is exactly controlled).
                        let k = rng.range_u32(1, pool) as usize;
                        let v = Value::Oid(instruments[k]);
                        if !insts.contains(&v) {
                            insts.push(v);
                        }
                    }
                    let title = format!("op{idx}-{w}");
                    let comp = db
                        .insert_object(
                            composition,
                            vec![
                                Value::Text(title),
                                Value::Null, // author set below
                                Value::Set(insts),
                            ],
                        )
                        .expect("insert composition");
                    works.push(comp);
                }
                let birth = 1600 + rng.range_i64(0, 200);
                let c = db
                    .insert_object(
                        composer,
                        vec![
                            Value::Text(name),
                            Value::Int(birth),
                            prev.map(Value::Oid).unwrap_or(Value::Null),
                            Value::Set(works.iter().copied().map(Value::Oid).collect()),
                        ],
                    )
                    .expect("insert composer");
                // Wire the inverse `author` attribute.
                let (author_attr, _) = catalog.attr(composition, "author").expect("author");
                for w in &works {
                    db.set_attr(*w, author_attr, Value::Oid(c))
                        .expect("set author");
                }
                if is_bach {
                    bach = Some(c);
                }
                composers.push(c);
                prev = Some(c);
            }
        }

        // The Play relation: each composer plays the instruments of his
        // own works (deterministic, derived from the data).
        let play = catalog.relation_by_name("Play").expect("music schema");
        for c in &composers {
            let (works_a, _) = catalog.attr(composer, "works").expect("works");
            let wv = db.read_attr_raw(*c, works_a).expect("read works");
            if let Some(Value::Oid(w)) = wv.members().first() {
                let iv = db
                    .read_attr_raw(*w, instruments_attr)
                    .expect("read instruments");
                if let Some(Value::Oid(i)) = iv.members().first() {
                    db.insert_row(play, vec![Value::Oid(*c), Value::Oid(*i)])
                        .expect("insert play");
                }
            }
        }

        // Physical placement.
        let physical = db.physical();
        let [composer_e, composition_e, instrument_e] = [composer, composition, instrument]
            .map(|c| physical.class_entity(c).expect("one extension per class"));
        if config.clustered {
            let (works_attr_c, _) = catalog.attr(composer, "works").expect("works");
            db.physical_mut().set_clustered(composer_e, works_attr_c);
            db.physical_mut()
                .set_clustered(composition_e, instruments_attr);
        } else {
            db.shuffle_entity(composition_e, config.seed ^ 0x5eed);
            db.shuffle_entity(instrument_e, config.seed ^ 0xfeed);
        }

        MusicDb {
            db,
            composer,
            composition,
            instrument,
            master_attr,
            works_attr,
            name_attr,
            instruments_attr,
            instruments,
            bach: bach.expect("chains >= 1 and chain_len >= 1"),
            composers,
            config,
        }
    }

    /// Total number of composers.
    pub fn composer_count(&self) -> u32 {
        self.db.object_count(self.composer)
    }
}
