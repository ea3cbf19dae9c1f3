//! Synthetic engineering (parts/sub-parts) databases — the paper's §1
//! motivation: "execute a method for each subpart (recursively) connected
//! to a given part object" (cf. the engineering-database benchmark of
//! \[CS90\]).

use std::sync::Arc;

use oorq_prng::Prng;
use oorq_query::{parse_query, QueryGraph};
use oorq_schema::{
    AttrId, AttributeDef, Catalog, ClassDef, ClassId, Field, RelationDef, SchemaBuilder, TypeExpr,
};
use oorq_storage::{Database, Oid, StorageConfig, Value};

/// Build the engineering schema: a `Part` class with a recursive
/// `subparts` set, a `madeBy` scalar self-reference on assemblies'
/// primary supplier part, a computed `unit_test_cost` method, and a
/// `Contains` view declaration (the transitive sub-part relation).
pub fn parts_catalog() -> Catalog {
    SchemaBuilder::new()
        .class(
            ClassDef::new("Part")
                .attr(AttributeDef::stored("name", TypeExpr::text()))
                .attr(AttributeDef::stored("weight", TypeExpr::int()))
                .attr(AttributeDef::stored(
                    "subparts",
                    TypeExpr::set(TypeExpr::class("Part")),
                ))
                .attr(AttributeDef::stored("assembly", TypeExpr::class("Part")))
                .attr(AttributeDef::computed(
                    "unit_test_cost",
                    TypeExpr::int(),
                    5.0,
                )),
        )
        .view(RelationDef::new(
            "Contains",
            TypeExpr::Tuple(vec![
                Field::new("assembly", TypeExpr::class("Part")),
                Field::new("component", TypeExpr::class("Part")),
                Field::new("depth", TypeExpr::int()),
            ]),
        ))
        .build()
        .expect("parts schema must validate")
}

/// The recursive definition of the `Contains` view of
/// [`parts_catalog`] as OQL text, prepended to every query over it
/// (membership is the existential equality of a comparison over a
/// collection-valued path).
pub const CONTAINS_VIEW: &str = "view Contains as
  select [assembly: p, component: s, depth: 1]
  from p in Part, s in Part
  where p.subparts = s
  union
  select [assembly: c.assembly, component: s, depth: c.depth + 1]
  from c in Contains, s in Part
  where c.component.subparts = s;
";

/// The recursive bill-of-materials query ("components of `asm0`
/// heavier than 40, with their unit test cost") over a
/// [`parts_catalog`], with the `Contains` view expanded.
pub fn parts_query(catalog: &Catalog) -> QueryGraph {
    let text = format!(
        "{CONTAINS_VIEW}select [component: k.component.name, cost: k.component.unit_test_cost]
from k in Contains
where k.assembly.name = \"asm0\" and k.component.weight >= 40"
    );
    parse_query(catalog, &text).expect("the parts query parses over the parts schema")
}

/// Configuration of the parts generator.
#[derive(Debug, Clone)]
pub struct PartsConfig {
    /// Number of root assemblies.
    pub roots: u32,
    /// Sub-parts per part (fan-out of the composition hierarchy).
    pub fanout: u32,
    /// Depth of the hierarchy below each root.
    pub depth: u32,
    /// Physical placement.
    pub clustered: bool,
    /// Buffer frames.
    pub buffer_frames: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PartsConfig {
    fn default() -> Self {
        PartsConfig {
            roots: 4,
            fanout: 3,
            depth: 4,
            clustered: false,
            buffer_frames: 32,
            seed: 7,
        }
    }
}

/// A generated parts database.
pub struct PartsDb {
    /// The store.
    pub db: Database,
    /// `Part` class.
    pub part: ClassId,
    /// `subparts` attribute.
    pub subparts_attr: AttrId,
    /// `assembly` attribute (scalar self-reference: owning assembly).
    pub assembly_attr: AttrId,
    /// Root assemblies.
    pub roots: Vec<Oid>,
}

impl PartsDb {
    /// Generate a parts database.
    pub fn generate(catalog: Arc<Catalog>, config: PartsConfig) -> Self {
        let mut rng = Prng::new(config.seed);
        let mut db = Database::new(
            Arc::clone(&catalog),
            StorageConfig {
                buffer_frames: config.buffer_frames,
                ..Default::default()
            },
        );
        let part = catalog.class_by_name("Part").expect("parts schema");
        let (subparts_attr, _) = catalog.attr(part, "subparts").expect("subparts");
        let (assembly_attr, _) = catalog.attr(part, "assembly").expect("assembly");

        let mut roots = Vec::new();
        for r in 0..config.roots {
            let root = Self::grow(
                &mut db,
                part,
                assembly_attr,
                &mut rng,
                &format!("asm{r}"),
                config.fanout,
                config.depth,
            );
            roots.push(root);
        }
        let e = db
            .physical()
            .class_entity(part)
            .expect("one extension per class");
        if !config.clustered {
            db.shuffle_entity(e, config.seed ^ 0xa55e);
        } else {
            db.physical_mut().set_clustered(e, subparts_attr);
        }
        PartsDb {
            db,
            part,
            subparts_attr,
            assembly_attr,
            roots,
        }
    }

    /// Recursively create a part with its sub-tree (children first, so a
    /// clustered read order visits sub-parts near their owner).
    fn grow(
        db: &mut Database,
        part: ClassId,
        assembly_attr: AttrId,
        rng: &mut Prng,
        name: &str,
        fanout: u32,
        depth: u32,
    ) -> Oid {
        let mut children = Vec::new();
        if depth > 0 {
            for i in 0..fanout {
                let child = Self::grow(
                    db,
                    part,
                    assembly_attr,
                    rng,
                    &format!("{name}.{i}"),
                    fanout,
                    depth - 1,
                );
                children.push(child);
            }
        }
        let weight = rng.range_i64(1, 100);
        let me = db
            .insert_object(
                part,
                vec![
                    Value::text(name),
                    Value::Int(weight),
                    Value::Set(children.iter().copied().map(Value::Oid).collect()),
                    Value::Null, // assembly wired below
                ],
            )
            .expect("insert part");
        for c in &children {
            db.set_attr(*c, assembly_attr, Value::Oid(me))
                .expect("wire assembly");
        }
        me
    }

    /// Total number of parts.
    pub fn part_count(&self) -> u32 {
        self.db.object_count(self.part)
    }
}
