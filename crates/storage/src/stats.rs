//! Database statistics feeding the cost model.
//!
//! Statistics are collected by scanning segments directly (no I/O
//! accounting — a real system would maintain them incrementally).

use std::collections::HashMap;

use oorq_schema::{AttrId, AttributeKind, ClassId, ResolvedType};

use crate::database::Database;
use crate::physical::{EntityId, EntitySource};
use crate::value::Value;

/// How often each value occurs among the member slots of a field (a
/// scalar is one slot, a collection one per member, `Null` none).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueCounts {
    counts: HashMap<Value, u64>,
    slots: u64,
}

impl ValueCounts {
    fn of(counted: HashMap<&Value, u64>) -> Self {
        ValueCounts {
            slots: counted.values().sum(),
            counts: counted.into_iter().map(|(v, n)| (v.clone(), n)).collect(),
        }
    }

    /// Member slots counted.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Member slots holding `value`.
    pub fn count(&self, value: &Value) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Probability that one member slot holds `value`; `None` over no
    /// slots. A value the table does not hold counts as one slot: the
    /// statistics may be older than the data, and an estimate of zero
    /// rows prices everything above it at nothing.
    pub fn frequency(&self, value: &Value) -> Option<f64> {
        (self.slots > 0).then(|| self.count(value).max(1) as f64 / self.slots as f64)
    }
}

/// Per-field statistics of an entity.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrStats {
    /// Number of distinct values (collections: distinct members).
    pub distinct: u64,
    /// Average number of members for collection values; 1.0 for scalars
    /// (counting non-null only).
    pub avg_fanout: f64,
    /// Fraction of records whose value is `Null`.
    pub null_fraction: f64,
    /// Largest member count of any single (non-null) value — a sound
    /// upper bound on the fanout of one record.
    pub max_fanout: u64,
    /// Largest number of records sharing one member value — a sound
    /// upper bound on the output of an equality selection.
    pub max_dup: u64,
    /// The field's member values and how many slots hold each. Kept for
    /// atomic-valued fields only: a reference-valued field's members are
    /// oids, which no literal of a query can equal, so its table would
    /// only ever be read for `distinct` and `max_dup` above.
    pub counts: ValueCounts,
    /// Of a reference-valued field, per stored atomic attribute of the
    /// referenced class: the same table seen through the reference —
    /// how many member slots point at an object whose attribute is each
    /// value. A key attribute is uniform in its own extent and as skewed
    /// here as its objects are unevenly referenced.
    pub through: Vec<(AttrId, ValueCounts)>,
}

impl Default for AttrStats {
    fn default() -> Self {
        AttrStats {
            distinct: 0,
            avg_fanout: 0.0,
            null_fraction: 1.0,
            max_fanout: 0,
            max_dup: 0,
            counts: ValueCounts::default(),
            through: Vec::new(),
        }
    }
}

impl AttrStats {
    /// The table seen through this reference field of `attr`, an
    /// attribute of the referenced class.
    pub fn through(&self, attr: AttrId) -> Option<&ValueCounts> {
        let found = self.through.iter().find(|(a, _)| *a == attr);
        found.map(|(_, counts)| counts)
    }
}

/// Statistics of one atomic entity.
#[derive(Debug, Clone, Default)]
pub struct EntityStats {
    /// `‖C‖`: number of records.
    pub cardinality: u64,
    /// `|C|`: number of pages.
    pub pages: u64,
    /// Per-field statistics, in layout order.
    pub attrs: Vec<AttrStats>,
}

/// Statistics of the whole database.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    per_entity: HashMap<EntityId, EntityStats>,
    /// For self-referencing scalar attributes (e.g. `Composer.master`),
    /// the maximum and average chain length — used to estimate the number
    /// of semi-naive iterations of a fixpoint.
    chain_depth: HashMap<(ClassId, AttrId), ChainDepth>,
}

/// Chain-length statistics of a self-referencing attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainDepth {
    /// Longest chain (bounds the iteration count of the fixpoint).
    pub max: u32,
    /// Mean chain length.
    pub avg: f64,
}

impl DbStats {
    /// Collect statistics for every entity of the database.
    pub fn collect(db: &Database) -> Self {
        let mut per_entity = HashMap::new();
        for desc in db.physical().entities() {
            if desc.source == EntitySource::Temporary {
                continue;
            }
            per_entity.insert(desc.id, Self::entity_stats(db, desc.id));
        }
        let mut chain_depth = HashMap::new();
        for (ci, class) in db.catalog().classes().iter().enumerate() {
            let cid = ClassId(ci as u32);
            for (ai, attr) in class.attrs.iter().enumerate() {
                let aid = AttrId(ai as u16);
                if attr.ty.referenced_class() == Some(cid) && !attr.ty.is_collection() {
                    if let Some(d) = Self::chain_stats(db, cid, aid) {
                        chain_depth.insert((cid, aid), d);
                    }
                }
            }
        }
        DbStats {
            per_entity,
            chain_depth,
        }
    }

    fn entity_stats(db: &Database, entity: EntityId) -> EntityStats {
        let rows = db.scan_raw(entity);
        let cardinality = rows.len() as u64;
        let pages = db.num_pages(entity) as u64;
        let mut attrs = Vec::new();
        for (f, ty) in db.entity_field_types(entity).iter().enumerate() {
            let targets = Self::atomic_attrs_behind(db, ty);
            let mut counts: HashMap<&Value, u64> = HashMap::new();
            let mut through: Vec<HashMap<&Value, u64>> = vec![HashMap::new(); targets.len()];
            let mut members = 0u64;
            let mut nulls = 0u64;
            let mut max_fanout = 0u64;
            for row in &rows {
                if matches!(row.values[f], Value::Null) {
                    nulls += 1;
                    continue;
                }
                let held = row.values[f].members();
                for m in held {
                    *counts.entry(m).or_insert(0) += 1;
                    let Value::Oid(o) = m else { continue };
                    for (attr, seen) in targets.iter().zip(&mut through) {
                        // A dangling oid points at no value: skipped.
                        match db.attr_raw(*o, *attr) {
                            Ok(Value::Null) | Err(_) => {}
                            Ok(behind) => *seen.entry(behind).or_insert(0) += 1,
                        }
                    }
                }
                members += held.len() as u64;
                max_fanout = max_fanout.max(held.len() as u64);
            }
            let non_null = cardinality - nulls;
            attrs.push(AttrStats {
                distinct: counts.len() as u64,
                avg_fanout: if non_null == 0 {
                    0.0
                } else {
                    members as f64 / non_null as f64
                },
                null_fraction: if cardinality == 0 {
                    1.0
                } else {
                    nulls as f64 / cardinality as f64
                },
                max_fanout,
                max_dup: counts.values().copied().max().unwrap_or(0),
                counts: if ty.referenced_class().is_some() {
                    ValueCounts::default()
                } else {
                    ValueCounts::of(counts)
                },
                through: targets
                    .into_iter()
                    .zip(through.into_iter().map(ValueCounts::of))
                    .collect(),
            });
        }
        EntityStats {
            cardinality,
            pages,
            attrs,
        }
    }

    /// The stored atomic attributes of the class a field of type `ty`
    /// references (none when it references no class).
    fn atomic_attrs_behind(db: &Database, ty: &ResolvedType) -> Vec<AttrId> {
        let Some(class) = ty.referenced_class() else {
            return Vec::new();
        };
        let attrs = db.catalog().class(class).attrs.iter().enumerate();
        attrs
            .filter(|(_, a)| {
                a.kind == AttributeKind::Stored && matches!(a.ty, ResolvedType::Atomic(_))
            })
            .map(|(i, _)| AttrId(i as u16))
            .collect()
    }

    /// Follow `attr` chains from every object of `class` until `Null`
    /// (with a cycle guard), computing chain-depth statistics.
    fn chain_stats(db: &Database, class: ClassId, attr: AttrId) -> Option<ChainDepth> {
        let n = db.object_count(class);
        if n == 0 {
            return None;
        }
        // Build the successor table (by oid index) without I/O accounting.
        let (entity, slot) = (db.physical().class_entity(class)?, attr.0 as usize);
        let rows = db.scan_raw(entity);
        let mut succ: Vec<Option<u32>> = vec![None; n as usize];
        for row in &rows {
            if let Some(Value::Oid(o)) = row.values.get(slot) {
                succ[row.key as usize] = (o.class == class).then_some(o.index);
            }
        }
        let mut max = 0u32;
        let mut total = 0u64;
        for start in &rows {
            let mut depth = 0u32;
            let mut cur = Some(start.key);
            let mut hops = 0u32;
            while let Some(k) = cur {
                if hops > rows.len() as u32 {
                    break; // cycle guard
                }
                hops += 1;
                cur = succ.get(k as usize).copied().flatten();
                depth += u32::from(cur.is_some());
            }
            max = max.max(depth);
            total += depth as u64;
        }
        Some(ChainDepth {
            max,
            avg: total as f64 / rows.len().max(1) as f64,
        })
    }

    /// Statistics of one entity.
    pub fn entity(&self, id: EntityId) -> Option<&EntityStats> {
        self.per_entity.get(&id)
    }

    /// Chain-depth statistics of a self-referencing attribute.
    pub fn chain(&self, class: ClassId, attr: AttrId) -> Option<ChainDepth> {
        self.chain_depth.get(&(class, attr)).copied()
    }

    /// The deepest chain of any self-referencing attribute — bounds the
    /// iteration count of fixpoints over the database.
    pub fn max_chain_depth(&self) -> Option<u32> {
        self.chain_depth.values().map(|c| c.max).max()
    }

    /// The largest average chain depth of any self-referencing attribute.
    pub fn avg_chain_depth(&self) -> Option<f64> {
        self.chain_depth
            .values()
            .map(|c| c.avg)
            .fold(None, |acc, v| {
                Some(match acc {
                    None => v,
                    Some(a) if v > a => v,
                    Some(a) => a,
                })
            })
    }
}
