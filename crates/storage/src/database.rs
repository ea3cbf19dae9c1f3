//! The object store: a page-accounted, single-node object database
//! following the direct storage model of \[VKC86\].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use oorq_schema::{AttrId, AttributeKind, Catalog, ClassId, RelationId, ResolvedType, ViewKind};

use crate::buffer::{Account, BufferManager, IoStats};
use crate::error::StorageError;
use crate::page::{PageId, WidthModel};
use crate::physical::{EntityId, EntitySource, FragmentSpec, PhysicalSchema};
use crate::segment::{Row, Segment};
use crate::value::{Oid, Value};

/// Configuration of the store.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Number of buffer frames.
    pub buffer_frames: usize,
    /// Width model mapping records to pages.
    pub width: WidthModel,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            buffer_frames: 64,
            width: WidthModel::default(),
        }
    }
}

/// How a class extension is laid out across atomic entities.
#[derive(Debug, Clone)]
enum ClassLayout {
    /// One non-decomposed extension.
    Single(EntityId),
    /// Vertical fragments; each holds a subset of the attributes.
    Vertical(Vec<(EntityId, Vec<AttrId>)>),
    /// Horizontal fragments.
    Horizontal(Vec<EntityId>),
}

/// The object database: conceptual catalog + physical schema + segments +
/// buffer manager.
///
/// The store is shared-read: segments sit behind an `RwLock` that is only
/// write-locked during (single-threaded) loading and by temporaries. Every
/// accounted read or write names the page [`Account`] it charges. The
/// database's own account — its buffer frames, breaker budget and
/// [`IoStats`] — is parked here between runs (a `Mutex`, because `&self`
/// accessors such as [`Database::io_stats`] are reachable from any
/// thread); a run takes it out with [`Database::check_out`], charges it
/// without a lock, hands exchange workers forks of it by value, and parks
/// it again when it ends. Bulk loading does not count I/O; call
/// [`Database::reset_io`] before a measured run anyway.
#[derive(Debug)]
pub struct Database {
    catalog: Arc<Catalog>,
    physical: PhysicalSchema,
    segments: RwLock<Vec<Arc<Segment>>>,
    class_layout: HashMap<ClassId, ClassLayout>,
    relation_home: HashMap<RelationId, EntityId>,
    class_count: HashMap<ClassId, u32>,
    relation_count: HashMap<RelationId, u32>,
    buffer: Mutex<BufferManager>,
    width: WidthModel,
}

impl Database {
    /// Create a store for the given catalog: one entity per class and per
    /// stored relation (views get no extension).
    pub fn new(catalog: Arc<Catalog>, config: StorageConfig) -> Self {
        let mut physical = PhysicalSchema::new();
        let mut segments = Vec::new();
        let mut class_layout = HashMap::new();
        let mut relation_home = HashMap::new();
        for (i, c) in catalog.classes().iter().enumerate() {
            let cid = ClassId(i as u32);
            let id = physical.add_entity(c.name.clone(), EntitySource::Class(cid), None);
            segments.push(Arc::new(Self::class_segment(
                &catalog,
                cid,
                None,
                &config.width,
            )));
            debug_assert_eq!(id.0 as usize, segments.len() - 1);
            class_layout.insert(cid, ClassLayout::Single(id));
        }
        for (i, r) in catalog.relations().iter().enumerate() {
            if r.kind != ViewKind::Stored {
                continue;
            }
            let rid = RelationId(i as u32);
            let id = physical.add_entity(r.name.clone(), EntitySource::Relation(rid), None);
            let types: Vec<ResolvedType> = r.fields.iter().map(|(_, t)| t.clone()).collect();
            let rpp = config.width.records_per_page(&types);
            segments.push(Arc::new(Segment::with_rpp(types, rpp)));
            debug_assert_eq!(id.0 as usize, segments.len() - 1);
            relation_home.insert(rid, id);
        }
        Database {
            catalog,
            physical,
            segments: RwLock::new(segments),
            class_layout,
            relation_home,
            class_count: HashMap::new(),
            relation_count: HashMap::new(),
            buffer: Mutex::new(BufferManager::new(config.buffer_frames)),
            width: config.width,
        }
    }

    /// Build a segment for (a fragment of) a class extension. Computed
    /// attributes occupy a slot (holding `Null`) but contribute no width.
    fn class_segment(
        catalog: &Catalog,
        class: ClassId,
        attrs: Option<&[AttrId]>,
        width: &WidthModel,
    ) -> Segment {
        let all = &catalog.class(class).attrs;
        let selected: Vec<usize> = match attrs {
            Some(subset) => subset.iter().map(|a| a.0 as usize).collect(),
            None => (0..all.len()).collect(),
        };
        let types: Vec<ResolvedType> = selected.iter().map(|&i| all[i].ty.clone()).collect();
        let stored_types: Vec<ResolvedType> = selected
            .iter()
            .filter(|&&i| all[i].kind == AttributeKind::Stored)
            .map(|&i| all[i].ty.clone())
            .collect();
        let rpp = width.records_per_page(&stored_types);
        Segment::with_rpp(types, rpp)
    }

    /// The conceptual catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Shared handle to the catalog.
    pub fn catalog_rc(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// The physical schema (entities, fragments, clustering, indexes).
    pub fn physical(&self) -> &PhysicalSchema {
        &self.physical
    }

    /// Mutable access to the physical schema (registering indexes,
    /// declaring clustering).
    pub fn physical_mut(&mut self) -> &mut PhysicalSchema {
        &mut self.physical
    }

    /// An independent read view of this database for a serving session.
    ///
    /// Segment data is shared copy-on-write (each segment sits behind an
    /// `Arc`; a later mutation on either side clones just the touched
    /// segment), the cheap metadata (physical schema, layouts, counts)
    /// is cloned, and the snapshot gets its own empty buffer manager so
    /// every session accounts page I/O — and spends its breaker memory
    /// budget — independently. Queries executed against the snapshot
    /// return byte-identical answers to the source database: position
    /// order, record keys and page boundaries are all part of the shared
    /// segment state.
    pub fn snapshot(&self) -> Database {
        Database {
            catalog: Arc::clone(&self.catalog),
            physical: self.physical.clone(),
            segments: RwLock::new(self.segments.read().unwrap().clone()),
            class_layout: self.class_layout.clone(),
            relation_home: self.relation_home.clone(),
            class_count: self.class_count.clone(),
            relation_count: self.relation_count.clone(),
            buffer: Mutex::new(BufferManager::new(self.buffer_frames())),
            width: self.width,
        }
    }

    // ------------------------------------------------------------------
    // Loading
    // ------------------------------------------------------------------

    /// Positions (attr ids) of the stored attributes of a class.
    pub fn stored_layout(&self, class: ClassId) -> Vec<AttrId> {
        self.catalog
            .class(class)
            .attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind == AttributeKind::Stored)
            .map(|(i, _)| AttrId(i as u16))
            .collect()
    }

    /// Insert an object, supplying values for the *stored* attributes in
    /// layout order; computed attribute slots are filled with `Null`.
    pub fn insert_object(
        &mut self,
        class: ClassId,
        stored_values: Vec<Value>,
    ) -> Result<Oid, StorageError> {
        let layout = self.stored_layout(class);
        if stored_values.len() != layout.len() {
            return Err(StorageError::ArityMismatch {
                context: format!("insert into `{}`", self.catalog.class(class).name),
                expected: layout.len(),
                got: stored_values.len(),
            });
        }
        let home = match self.class_layout.get(&class) {
            Some(ClassLayout::Single(e)) => *e,
            Some(_) => return Err(StorageError::Decomposed(class)),
            None => return Err(StorageError::NoHome(class)),
        };
        let n_attrs = self.catalog.class(class).attrs.len();
        let mut values = vec![Value::Null; n_attrs];
        for (attr, v) in layout.into_iter().zip(stored_values) {
            values[attr.0 as usize] = v;
        }
        let count = self.class_count.entry(class).or_insert(0);
        let index = *count;
        *count += 1;
        Arc::make_mut(&mut self.segments.write().unwrap()[home.0 as usize])
            .append(Row { key: index, values });
        Ok(Oid::new(class, index))
    }

    /// Update a stored attribute of an existing object (used by loaders to
    /// wire cyclic references such as `master`).
    pub fn set_attr(&mut self, oid: Oid, attr: AttrId, value: Value) -> Result<(), StorageError> {
        let entity = self.entity_holding(oid, attr)?;
        let mut segs = self.segments.write().unwrap();
        let seg = Arc::make_mut(&mut segs[entity.0 as usize]);
        let pos = seg
            .position_of(oid.index)
            .ok_or(StorageError::DanglingOid(oid))?;
        // Row mutation in place.
        let slot = self.attr_slot(entity, oid.class, attr);
        let row_values = {
            let row = seg.row_at(pos).ok_or(StorageError::DanglingOid(oid))?;
            let mut v = row.values.clone();
            if slot >= v.len() {
                return Err(StorageError::DanglingOid(oid));
            }
            v[slot] = value;
            v
        };
        seg.replace_values(pos, row_values);
        Ok(())
    }

    /// Insert a row into a stored relation.
    pub fn insert_row(
        &mut self,
        relation: RelationId,
        values: Vec<Value>,
    ) -> Result<u32, StorageError> {
        let home = *self
            .relation_home
            .get(&relation)
            .ok_or(StorageError::BadEntity(EntityId(u32::MAX)))?;
        let expected = self.catalog.relation(relation).fields.len();
        if values.len() != expected {
            return Err(StorageError::ArityMismatch {
                context: format!("insert into `{}`", self.catalog.relation(relation).name),
                expected,
                got: values.len(),
            });
        }
        let count = self.relation_count.entry(relation).or_insert(0);
        let id = *count;
        *count += 1;
        Arc::make_mut(&mut self.segments.write().unwrap()[home.0 as usize])
            .append(Row { key: id, values });
        Ok(id)
    }

    /// Number of objects in a class extension.
    pub fn object_count(&self, class: ClassId) -> u32 {
        self.class_count.get(&class).copied().unwrap_or(0)
    }

    /// Scatter the physical placement of an entity (models an unclustered
    /// extension; see [`Segment::shuffle`]).
    pub fn shuffle_entity(&mut self, entity: EntityId, seed: u64) {
        Arc::make_mut(&mut self.segments.write().unwrap()[entity.0 as usize]).shuffle(seed);
        self.buffer.lock().unwrap().invalidate_entity(entity);
    }

    // ------------------------------------------------------------------
    // Decomposition
    // ------------------------------------------------------------------

    /// Decompose a class extension vertically into fragments holding the
    /// given attribute groups (every attribute must appear in exactly one
    /// group). Returns the fragment entities.
    pub fn decompose_vertical(
        &mut self,
        class: ClassId,
        groups: &[Vec<AttrId>],
    ) -> Result<Vec<EntityId>, StorageError> {
        let home = match self.class_layout.get(&class) {
            Some(ClassLayout::Single(e)) => *e,
            _ => return Err(StorageError::Decomposed(class)),
        };
        let cname = self.catalog.class(class).name.clone();
        let mut fragments = Vec::new();
        for (i, group) in groups.iter().enumerate() {
            let id = self.physical.add_entity(
                format!("{cname}_v{i}"),
                EntitySource::Class(class),
                Some(FragmentSpec::Vertical {
                    attrs: group.clone(),
                }),
            );
            let seg = Self::class_segment(&self.catalog, class, Some(group), &self.width);
            self.segments.write().unwrap().push(Arc::new(seg));
            fragments.push(id);
        }
        // Move the data.
        {
            let mut segs = self.segments.write().unwrap();
            let rows: Vec<Row> = segs[home.0 as usize].iter().cloned().collect();
            for row in rows {
                for (fi, group) in groups.iter().enumerate() {
                    let vals: Vec<Value> = group
                        .iter()
                        .map(|a| row.values[a.0 as usize].clone())
                        .collect();
                    Arc::make_mut(&mut segs[fragments[fi].0 as usize]).append(Row {
                        key: row.key,
                        values: vals,
                    });
                }
            }
            Arc::make_mut(&mut segs[home.0 as usize]).clear();
        }
        self.buffer.lock().unwrap().invalidate_entity(home);
        self.physical.deactivate_entity(home);
        self.class_layout.insert(
            class,
            ClassLayout::Vertical(
                fragments
                    .iter()
                    .copied()
                    .zip(groups.iter().cloned())
                    .collect(),
            ),
        );
        Ok(fragments)
    }

    /// Decompose a class extension horizontally; `route` maps a record to
    /// a fragment number in `0..n_fragments`. `predicates` describe each
    /// fragment for the physical schema.
    pub fn decompose_horizontal(
        &mut self,
        class: ClassId,
        n_fragments: usize,
        predicates: &[String],
        route: impl Fn(&[Value]) -> usize,
    ) -> Result<Vec<EntityId>, StorageError> {
        let home = match self.class_layout.get(&class) {
            Some(ClassLayout::Single(e)) => *e,
            _ => return Err(StorageError::Decomposed(class)),
        };
        let cname = self.catalog.class(class).name.clone();
        let total = self.object_count(class).max(1) as f64;
        // First pass: count per fragment for the fraction statistic.
        let mut counts = vec![0u64; n_fragments];
        {
            let segs = self.segments.read().unwrap();
            for row in segs[home.0 as usize].iter() {
                counts[route(&row.values).min(n_fragments - 1)] += 1;
            }
        }
        let mut fragments = Vec::new();
        for (i, count) in counts.iter().enumerate() {
            let id = self.physical.add_entity(
                format!("{cname}_h{i}"),
                EntitySource::Class(class),
                Some(FragmentSpec::Horizontal {
                    predicate: predicates.get(i).cloned().unwrap_or_default(),
                    fraction: *count as f64 / total,
                }),
            );
            let seg = Self::class_segment(&self.catalog, class, None, &self.width);
            self.segments.write().unwrap().push(Arc::new(seg));
            fragments.push(id);
        }
        {
            let mut segs = self.segments.write().unwrap();
            let rows: Vec<Row> = segs[home.0 as usize].iter().cloned().collect();
            for row in rows {
                let f = route(&row.values).min(n_fragments - 1);
                Arc::make_mut(&mut segs[fragments[f].0 as usize]).append(row);
            }
            Arc::make_mut(&mut segs[home.0 as usize]).clear();
        }
        self.buffer.lock().unwrap().invalidate_entity(home);
        self.physical.deactivate_entity(home);
        self.class_layout
            .insert(class, ClassLayout::Horizontal(fragments.clone()));
        Ok(fragments)
    }

    // ------------------------------------------------------------------
    // Temporaries
    // ------------------------------------------------------------------

    /// Create a temporary entity (intermediate result file).
    pub fn create_temp(
        &mut self,
        name: impl Into<String>,
        field_types: Vec<ResolvedType>,
    ) -> EntityId {
        let id = self
            .physical
            .add_entity(name, EntitySource::Temporary, None);
        let rpp = self.width.records_per_page(&field_types);
        self.segments
            .write()
            .unwrap()
            .push(Arc::new(Segment::with_rpp(field_types, rpp)));
        id
    }

    /// Append `rows`, in order, to every temporary of `entities` (each row
    /// goes to all of them before the next row does — a fixpoint's
    /// accumulator and delta fill side by side), under one lock. A page
    /// write is charged to `io` whenever an append starts a new page.
    pub fn append_temp_rows(
        &self,
        io: &Account,
        entities: &[EntityId],
        rows: Vec<Vec<Value>>,
    ) -> Result<(), StorageError> {
        if let Some(&e) = entities.iter().find(|&&e| !self.is_temp_entity(e)) {
            return Err(StorageError::NotTemporary(e));
        }
        let Some((&last, init)) = entities.split_last() else {
            return Ok(());
        };
        let mut segs = self.segments.write().unwrap();
        let mut io = io.borrow_mut();
        let mut append = |entity: EntityId, values: Vec<Value>| {
            let seg = Arc::make_mut(&mut segs[entity.0 as usize]);
            let key = seg.len() as u32;
            let pos = seg.append(Row { key, values });
            if pos.is_multiple_of(seg.rows_per_page()) {
                let page = seg.page_of_position(pos);
                io.write(PageId { entity, page }, true);
            }
        };
        for values in rows {
            for &entity in init {
                append(entity, values.clone());
            }
            append(last, values);
        }
        Ok(())
    }

    /// Clear a temporary's contents and drop its residency from `io`. An
    /// account forked from that one holds frames of its own: whoever
    /// joins the two invalidates the entity in the other as well.
    pub fn truncate_temp(&self, io: &Account, entity: EntityId) -> Result<(), StorageError> {
        if !self.is_temp_entity(entity) {
            return Err(StorageError::NotTemporary(entity));
        }
        Arc::make_mut(&mut self.segments.write().unwrap()[entity.0 as usize]).clear();
        io.borrow_mut().invalidate_entity(entity);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reading (I/O accounted)
    // ------------------------------------------------------------------

    /// Number of pages of an entity.
    pub fn num_pages(&self, entity: EntityId) -> u32 {
        self.segments.read().unwrap()[entity.0 as usize].num_pages()
    }

    /// Number of records of an entity.
    pub fn entity_len(&self, entity: EntityId) -> u32 {
        self.segments.read().unwrap()[entity.0 as usize].len() as u32
    }

    /// Field types of an entity's records.
    pub fn entity_field_types(&self, entity: EntityId) -> Vec<ResolvedType> {
        self.segments.read().unwrap()[entity.0 as usize]
            .field_types()
            .to_vec()
    }

    /// Fetch (and charge to `io`) one page of an entity and lend out its
    /// records. Returns `None` past the last page. A consumer walking the
    /// page numbers streams the entity a page at a time: each fetch is
    /// accounted when it happens, so interleaved consumers (e.g. a
    /// pipelined executor) observe honest LRU behaviour.
    pub fn scan_page(&self, io: &Account, entity: EntityId, page: u32) -> Option<PageRows> {
        let seg = Arc::clone(&self.segments.read().unwrap()[entity.0 as usize]);
        if page >= seg.num_pages() {
            return None;
        }
        let temp = self.is_temp_entity(entity);
        io.borrow_mut().fetch(PageId { entity, page }, temp);
        Some(PageRows { seg, page })
    }

    /// Scan a whole entity, fetching every page (convenience).
    pub fn scan(&self, io: &Account, entity: EntityId) -> Vec<Row> {
        let pages = (0..).map_while(|page| self.scan_page(io, entity, page));
        pages.flat_map(|page| page.to_vec()).collect()
    }

    /// Scan without I/O accounting (bulk index builds, statistics).
    pub fn scan_raw(&self, entity: EntityId) -> Vec<Row> {
        self.segments.read().unwrap()[entity.0 as usize]
            .iter()
            .cloned()
            .collect()
    }

    /// Which entity holds the given attribute of the given object.
    fn entity_holding(&self, oid: Oid, attr: AttrId) -> Result<EntityId, StorageError> {
        match self
            .class_layout
            .get(&oid.class)
            .ok_or(StorageError::NoHome(oid.class))?
        {
            ClassLayout::Single(e) => Ok(*e),
            ClassLayout::Vertical(frags) => frags
                .iter()
                .find(|(_, attrs)| attrs.contains(&attr))
                .map(|(e, _)| *e)
                .ok_or(StorageError::DanglingOid(oid)),
            ClassLayout::Horizontal(frags) => {
                let segs = self.segments.read().unwrap();
                frags
                    .iter()
                    .find(|e| segs[e.0 as usize].position_of(oid.index).is_some())
                    .copied()
                    .ok_or(StorageError::DanglingOid(oid))
            }
        }
    }

    /// Slot of `attr` within the records of `entity` (vertical fragments
    /// store only a subset of attributes).
    fn attr_slot(&self, entity: EntityId, _class: ClassId, attr: AttrId) -> usize {
        match &self.physical.entity(entity).fragment {
            Some(FragmentSpec::Vertical { attrs }) => {
                attrs.iter().position(|a| *a == attr).unwrap_or(usize::MAX)
            }
            _ => attr.0 as usize,
        }
    }

    /// Read one attribute of an object *without* I/O accounting (index
    /// builds, statistics, reference loaders).
    pub fn read_attr_raw(&self, oid: Oid, attr: AttrId) -> Result<Value, StorageError> {
        let entity = self.entity_holding(oid, attr)?;
        let segs = self.segments.read().unwrap();
        let seg = &segs[entity.0 as usize];
        let pos = seg
            .position_of(oid.index)
            .ok_or(StorageError::DanglingOid(oid))?;
        let slot = self.attr_slot(entity, oid.class, attr);
        seg.row_at(pos)
            .and_then(|r| r.values.get(slot))
            .cloned()
            .ok_or(StorageError::DanglingOid(oid))
    }

    /// Read one attribute of an object, fetching (and charging to `io`)
    /// only the page of the fragment holding that attribute.
    pub fn read_attr(&self, io: &Account, oid: Oid, attr: AttrId) -> Result<Value, StorageError> {
        let entity = self.entity_holding(oid, attr)?;
        let segs = self.segments.read().unwrap();
        let seg = &segs[entity.0 as usize];
        let pos = seg
            .position_of(oid.index)
            .ok_or(StorageError::DanglingOid(oid))?;
        let page = seg.page_of_position(pos);
        io.borrow_mut().fetch(PageId { entity, page }, false);
        let slot = self.attr_slot(entity, oid.class, attr);
        seg.row_at(pos)
            .and_then(|r| r.values.get(slot))
            .cloned()
            .ok_or(StorageError::DanglingOid(oid))
    }

    /// Read a whole object (assembling vertical fragments), charging `io`
    /// a page fetch per fragment touched.
    pub fn read_object(&self, io: &Account, oid: Oid) -> Result<Vec<Value>, StorageError> {
        let mut values = Vec::new();
        self.fetch_object(io, oid, |attrs, row| match attrs {
            None => values = row.values.clone(),
            Some(attrs) => {
                values.resize(self.catalog.class(oid.class).attrs.len(), Value::Null);
                for (slot, attr) in attrs.iter().enumerate() {
                    values[attr.0 as usize] = row.values[slot].clone();
                }
            }
        })?;
        Ok(values)
    }

    /// Pay for an object without reading it: the page fetches (and the
    /// errors) of [`Database::read_object`], in its order, nothing copied.
    pub fn touch_object(&self, io: &Account, oid: Oid) -> Result<(), StorageError> {
        self.fetch_object(io, oid, |_, _| {})
    }

    /// Fetch (and charge to `io`) the page of every fragment holding a part of
    /// `oid` — each vertical fragment in layout order, the owning
    /// horizontal one — and hand each record to `each`, a vertical
    /// fragment's with the attributes it stores.
    fn fetch_object(
        &self,
        io: &Account,
        oid: Oid,
        mut each: impl FnMut(Option<&[AttrId]>, &Row),
    ) -> Result<(), StorageError> {
        let layout = self
            .class_layout
            .get(&oid.class)
            .ok_or(StorageError::NoHome(oid.class))?;
        let segs = self.segments.read().unwrap();
        let mut fetch = |entity: EntityId, attrs: Option<&[AttrId]>| {
            let seg = &segs[entity.0 as usize];
            let pos = seg
                .position_of(oid.index)
                .ok_or(StorageError::DanglingOid(oid))?;
            let page = seg.page_of_position(pos);
            io.borrow_mut().fetch(PageId { entity, page }, false);
            each(
                attrs,
                seg.row_at(pos).ok_or(StorageError::DanglingOid(oid))?,
            );
            Ok(())
        };
        match layout {
            ClassLayout::Single(e) => fetch(*e, None),
            ClassLayout::Horizontal(frags) => {
                let home = frags
                    .iter()
                    .find(|e| segs[e.0 as usize].position_of(oid.index).is_some());
                fetch(*home.ok_or(StorageError::DanglingOid(oid))?, None)
            }
            ClassLayout::Vertical(frags) => frags
                .iter()
                .try_for_each(|(e, attrs)| fetch(*e, Some(attrs))),
        }
    }

    // ------------------------------------------------------------------
    // I/O accounting
    // ------------------------------------------------------------------

    /// Take the page account out for one run. Until the returned handle is
    /// dropped an empty stand-in with the same frames, budget, recorder and
    /// series is parked in its place, so [`Database::buffer_frames`] still
    /// answers; the counters and the residency travel with the run. One
    /// run at a time: a second check-out before the handle is dropped
    /// would get the stand-in, whose counters are dropped with it.
    pub fn check_out(&self) -> CheckedOut<'_> {
        let mut parked = self.buffer.lock().unwrap();
        let stand_in = parked.fork(parked.capacity(), parked.temp_budget());
        CheckedOut {
            home: &self.buffer,
            account: Account::new(std::mem::replace(&mut *parked, stand_in)),
        }
    }

    /// Number of frames of the database's page account.
    pub fn buffer_frames(&self) -> usize {
        self.buffer.lock().unwrap().capacity()
    }

    /// Whether an entity is a temporary (breaker state whose pages count
    /// against the breaker memory budget).
    pub fn is_temp_entity(&self, entity: EntityId) -> bool {
        self.physical.entity(entity).source == EntitySource::Temporary
    }

    /// Cap resident temporary (breaker) pages of the database's page
    /// account; 0 lifts the cap. A run's exchange workers split the
    /// budget among their forks.
    pub fn set_temp_budget(&self, pages: usize) {
        self.buffer.lock().unwrap().set_temp_budget(pages);
    }

    /// I/O statistics of the database's page account: everything the runs
    /// that checked it out have charged it since the last reset.
    pub fn io_stats(&self) -> IoStats {
        self.buffer.lock().unwrap().stats()
    }

    /// Reset I/O counters (keeps buffer residency).
    pub fn reset_io(&self) {
        self.buffer.lock().unwrap().reset_stats();
    }

    /// Drop buffer residency and counters (cold-cache measurement).
    pub fn cold_cache(&self) {
        self.buffer.lock().unwrap().clear();
    }

    /// Attach a trace recorder to the buffer manager: every subsequent
    /// page hit, miss and eviction fires a structured event on it.
    pub fn set_recorder(&self, obs: oorq_obs::Recorder) {
        self.buffer.lock().unwrap().set_recorder(obs);
    }

    /// Attach a metrics registry to the page account: whenever a run
    /// checks the account back in (and before its counters are reset), the
    /// page hits, misses, writes, evictions, spills and temporary re-reads
    /// counted since are added to the registry's `storage.*` series.
    pub fn set_metrics(&self, registry: &oorq_obs::MetricsRegistry) {
        self.buffer.lock().unwrap().set_metrics(registry);
    }
}

/// A database's page account, out for one run: the run charges it as an
/// [`Account`], lock-free, and dropping the handle — however the run ends
/// — parks the account in the database again and brings the `storage.*`
/// series up to its counters.
#[derive(Debug)]
pub struct CheckedOut<'a> {
    home: &'a Mutex<BufferManager>,
    account: Account,
}

impl std::ops::Deref for CheckedOut<'_> {
    type Target = Account;

    fn deref(&self) -> &Account {
        &self.account
    }
}

impl Drop for CheckedOut<'_> {
    fn drop(&mut self) {
        // This runs while a failed run unwinds too, so a poisoned lock is
        // entered, not panicked on: every section under it swaps or reads
        // whole values, which leaves what it guards valid at every step.
        let mut parked = self.home.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::swap(&mut *parked, self.account.get_mut());
        parked.publish();
    }
}

/// The records of one fetched page, borrowed: the handle keeps the
/// segment it reads alive, so hold it no longer than the page is in use
/// — a temporary is copied by its next write while a handle is out.
#[derive(Debug)]
pub struct PageRows {
    seg: Arc<Segment>,
    page: u32,
}

impl std::ops::Deref for PageRows {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        self.seg.page_rows(self.page)
    }
}
