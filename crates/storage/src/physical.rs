//! The physical schema: atomic entities, clustering and index
//! descriptors.
//!
//! Following §3 of the paper, the physical model uses *direct storage*
//! (oids of sub-objects stored inside owners), allows *clustering*
//! sub-object instances close to the owner, and provides *path indices*
//! spanning whole attribute hierarchies. An *atomic entity* is the whole
//! extension of one class or stored relation, or a temporary; §3.2's
//! decomposed extensions are not modelled (no figure uses one, and
//! Figure 5 prices an entity the same way whatever it holds).

use std::fmt;

use oorq_schema::{AttrId, ClassId, RelationId};

/// Identifier of an atomic entity of the physical schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifier of an index descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexId(pub u32);

/// What conceptual extension an entity implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntitySource {
    /// The (whole) extension of a class.
    Class(ClassId),
    /// The (whole) extension of a stored relation.
    Relation(RelationId),
    /// A temporary file holding an intermediate result (e.g. the
    /// materialized `Influencer` of Figure 4).
    Temporary,
}

/// Descriptor of one atomic entity.
#[derive(Debug, Clone)]
pub struct EntityDesc {
    /// Entity id.
    pub id: EntityId,
    /// Name, for display (`Composer`, `Influencer'`).
    pub name: String,
    /// Conceptual source.
    pub source: EntitySource,
    /// Attributes whose referenced sub-objects are clustered close to the
    /// owner (same or neighbour page) — §3's static clustering strategy.
    pub clustered_attrs: Vec<AttrId>,
}

impl EntityDesc {
    /// Is `attr`'s target clustered with this entity's instances?
    pub fn is_clustered(&self, attr: AttrId) -> bool {
        self.clustered_attrs.contains(&attr)
    }
}

/// B+-tree statistics used by the cost formulas of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    /// Number of levels of the B+-tree (`nblevels`).
    pub nblevels: u32,
    /// Number of leaves (`nbleaves`).
    pub nbleaves: u32,
}

/// Kind of index available in the physical schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexKindDesc {
    /// Selection index on one attribute of one class.
    Selection {
        /// Indexed class.
        class: ClassId,
        /// Indexed attribute.
        attr: AttrId,
    },
    /// Path index \[MS86\] on `C1.A1...A(n-1)`: entries are tuples of the
    /// oids of the objects along the path. Denoted by its attribute
    /// sequence, e.g. `works.instruments`.
    Path {
        /// The path as `(class, attribute)` steps; `path[i].0` is the class
        /// in which `path[i].1` is defined.
        path: Vec<(ClassId, AttrId)>,
    },
}

/// Descriptor of an index.
#[derive(Debug, Clone)]
pub struct IndexDesc {
    /// Index id.
    pub id: IndexId,
    /// Kind and coverage.
    pub kind: IndexKindDesc,
    /// B+-tree statistics.
    pub stats: IndexStats,
}

impl IndexDesc {
    /// The attribute-name path of a path index, as printed by the paper
    /// (e.g. `works.instruments`). Selection indices render as
    /// `Class.attr`.
    pub fn display_name(&self, catalog: &oorq_schema::Catalog) -> String {
        match &self.kind {
            IndexKindDesc::Selection { class, attr } => format!(
                "{}.{}",
                catalog.class(*class).name,
                catalog.attribute(*class, *attr).name
            ),
            IndexKindDesc::Path { path } => path
                .iter()
                .map(|(c, a)| catalog.attribute(*c, *a).name.clone())
                .collect::<Vec<_>>()
                .join("."),
        }
    }
}

/// The physical schema: the set of atomic entities and indices.
#[derive(Debug, Clone, Default)]
pub struct PhysicalSchema {
    entities: Vec<EntityDesc>,
    indexes: Vec<IndexDesc>,
    /// By [`ClassId`], grown to the largest class registered.
    class_entities: Vec<Option<EntityId>>,
    /// By [`RelationId`], likewise; a view has none.
    relation_entities: Vec<Option<EntityId>>,
}

impl PhysicalSchema {
    /// New empty physical schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an entity; its `id` field is assigned here.
    pub(crate) fn add_entity(&mut self, name: impl Into<String>, source: EntitySource) -> EntityId {
        let id = EntityId(self.entities.len() as u32);
        let listed = match &source {
            EntitySource::Class(c) => Some((&mut self.class_entities, c.0)),
            EntitySource::Relation(r) => Some((&mut self.relation_entities, r.0)),
            EntitySource::Temporary => None,
        };
        if let Some((lists, i)) = listed {
            *crate::entry(lists, i as usize, None) = Some(id);
        }
        self.entities.push(EntityDesc {
            id,
            name: name.into(),
            source,
            clustered_attrs: Vec::new(),
        });
        id
    }

    /// Declare that sub-objects referenced by `attr` of `entity` are
    /// clustered with the owner instances.
    pub fn set_clustered(&mut self, entity: EntityId, attr: AttrId) {
        let e = &mut self.entities[entity.0 as usize];
        if !e.clustered_attrs.contains(&attr) {
            e.clustered_attrs.push(attr);
        }
    }

    /// Register an index descriptor; its id is assigned here.
    pub fn add_index(&mut self, kind: IndexKindDesc, stats: IndexStats) -> IndexId {
        let id = IndexId(self.indexes.len() as u32);
        self.indexes.push(IndexDesc { id, kind, stats });
        id
    }

    /// Entity descriptor by id.
    pub fn entity(&self, id: EntityId) -> &EntityDesc {
        &self.entities[id.0 as usize]
    }

    /// All entities.
    pub fn entities(&self) -> &[EntityDesc] {
        &self.entities
    }

    /// Index descriptor by id.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, id: IndexId) -> &IndexDesc {
        &self.indexes[id.0 as usize]
    }

    /// All indexes.
    pub fn indexes(&self) -> &[IndexDesc] {
        &self.indexes
    }

    /// The entity holding a class's extension.
    pub fn class_entity(&self, class: ClassId) -> Option<EntityId> {
        self.class_entities.get(class.0 as usize).copied().flatten()
    }

    /// The entity holding a stored relation's extension.
    pub fn relation_entity(&self, rel: RelationId) -> Option<EntityId> {
        self.relation_entities
            .get(rel.0 as usize)
            .copied()
            .flatten()
    }

    /// Find a selection index on `class.attr`.
    pub fn selection_index(&self, class: ClassId, attr: AttrId) -> Option<&IndexDesc> {
        self.indexes.iter().find(|d| {
            matches!(&d.kind, IndexKindDesc::Selection { class: c, attr: a }
                     if *c == class && *a == attr)
        })
    }

    /// Find a path index whose attribute path equals `path` — the paper's
    /// `existPathIndex` constraint of the `collapse` action.
    pub fn path_index(&self, path: &[(ClassId, AttrId)]) -> Option<&IndexDesc> {
        self.indexes
            .iter()
            .find(|d| matches!(&d.kind, IndexKindDesc::Path { path: p } if p == path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_registration_and_lookup() {
        let mut ps = PhysicalSchema::new();
        let (c, r) = (ClassId(2), RelationId(1));
        let e0 = ps.add_entity("Composer", EntitySource::Class(c));
        let e1 = ps.add_entity("Likes", EntitySource::Relation(r));
        ps.add_entity("Influencer'", EntitySource::Temporary);
        assert_eq!(ps.class_entity(c), Some(e0));
        assert_eq!(ps.class_entity(ClassId(0)), None, "a gap below");
        assert_eq!(ps.class_entity(ClassId(3)), None, "past the last");
        assert_eq!(ps.relation_entity(r), Some(e1));
        assert_eq!(ps.relation_entity(RelationId(0)), None);
        assert_eq!(ps.entity(e0).name, "Composer");
    }

    #[test]
    fn clustering_flags() {
        let mut ps = PhysicalSchema::new();
        let e = ps.add_entity("C", EntitySource::Class(ClassId(0)));
        assert!(!ps.entity(e).is_clustered(AttrId(1)));
        ps.set_clustered(e, AttrId(1));
        ps.set_clustered(e, AttrId(1)); // idempotent
        assert!(ps.entity(e).is_clustered(AttrId(1)));
        assert_eq!(ps.entity(e).clustered_attrs.len(), 1);
    }

    #[test]
    fn index_lookup_by_shape() {
        let mut ps = PhysicalSchema::new();
        let stats = IndexStats {
            nblevels: 2,
            nbleaves: 10,
        };
        let sel = ps.add_index(
            IndexKindDesc::Selection {
                class: ClassId(0),
                attr: AttrId(0),
            },
            stats,
        );
        let path = vec![(ClassId(0), AttrId(4)), (ClassId(1), AttrId(2))];
        let pix = ps.add_index(IndexKindDesc::Path { path: path.clone() }, stats);
        assert_eq!(ps.selection_index(ClassId(0), AttrId(0)).unwrap().id, sel);
        assert!(ps.selection_index(ClassId(0), AttrId(1)).is_none());
        assert_eq!(ps.path_index(&path).unwrap().id, pix);
        assert!(ps.path_index(&path[..1]).is_none());
    }
}
