//! The object store: a page-accounted, single-node object database
//! following the direct storage model of \[VKC86\].

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

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

/// Where an entity's records live. Extensions, fragments and stored
/// relations are written only under `&mut Database`, so reading them takes
/// no lock; a temporary is the one thing a run writes through `&Database`,
/// and each sits behind a lock of its own.
#[derive(Debug)]
enum Home {
    Base(Arc<Segment>),
    Temp(RwLock<Arc<Segment>>),
}

/// A temporary's writer panicked mid-append: its rows are not to be read.
/// The lock stays poisoned — appends are refused, readers see no rows —
/// until [`Database::truncate_temp`] empties the temporary.
const POISONED: &str = "a temporary's writer panicked";

impl Home {
    /// The segment as it is now (a temporary's, under its read lock; a
    /// poisoned temporary's as if it were empty).
    fn segment(&self) -> Arc<Segment> {
        match self {
            Home::Base(seg) => Arc::clone(seg),
            Home::Temp(lock) => match lock.read() {
                Ok(seg) => Arc::clone(&seg),
                Err(poisoned) => Arc::new(poisoned.into_inner().emptied()),
            },
        }
    }

    /// The segment for writing in place, copied first if it is shared.
    fn segment_mut(&mut self) -> &mut Segment {
        Arc::make_mut(match self {
            Home::Base(seg) => seg,
            Home::Temp(lock) => lock.get_mut().expect(POISONED),
        })
    }
}

/// The object database: conceptual catalog + physical schema + segments +
/// buffer manager.
///
/// The store is shared-read. Every table is a vector indexed by the dense
/// id the store itself hands out (entity, class, relation), and only a
/// temporary's segment sits behind a lock (see `Home`): an attribute
/// read or an object touch is array arithmetic, and a scan takes its
/// segment once, when it is opened ([`Database::scan_pages`]; a
/// [`Database::hold`] takes it once for many passes). Every
/// accounted read or write names the page [`Account`] it charges. The
/// database's own account — its buffer frames, breaker budget and
/// [`IoStats`] — is parked here between runs (a `Mutex`, because `&self`
/// accessors such as [`Database::io_stats`] are reachable from any
/// thread); a run takes it out with [`Database::check_out`], charges it
/// without a lock, and parks it again when it ends. Bulk loading does not count I/O; call
/// [`Database::reset_io`] before a measured run anyway.
#[derive(Debug)]
pub struct Database {
    catalog: Arc<Catalog>,
    physical: PhysicalSchema,
    /// By [`EntityId`].
    segments: Vec<Home>,
    /// By [`ClassId`].
    class_layout: Vec<ClassLayout>,
    /// By [`RelationId`]; a view has no home.
    relation_home: Vec<Option<EntityId>>,
    /// Objects inserted, by [`ClassId`].
    class_count: Vec<u32>,
    /// Rows inserted, by [`RelationId`].
    relation_count: Vec<u32>,
    buffer: Mutex<BufferManager>,
    width: WidthModel,
}

impl Database {
    /// Create a store for the given catalog: one entity per class and per
    /// stored relation (views get no extension).
    pub fn new(catalog: Arc<Catalog>, config: StorageConfig) -> Self {
        let mut physical = PhysicalSchema::new();
        let mut segments = Vec::new();
        let mut class_layout = Vec::new();
        let mut relation_home = vec![None; catalog.relations().len()];
        for (i, c) in catalog.classes().iter().enumerate() {
            let cid = ClassId(i as u32);
            let id = physical.add_entity(c.name.clone(), EntitySource::Class(cid), None);
            let seg = Self::class_segment(&catalog, cid, None, &config.width);
            segments.push(Home::Base(Arc::new(seg)));
            debug_assert_eq!(id.0 as usize, segments.len() - 1);
            class_layout.push(ClassLayout::Single(id));
        }
        for (i, r) in catalog.relations().iter().enumerate() {
            if r.kind != ViewKind::Stored {
                continue;
            }
            let rid = RelationId(i as u32);
            let id = physical.add_entity(r.name.clone(), EntitySource::Relation(rid), None);
            let types: Vec<ResolvedType> = r.fields.iter().map(|(_, t)| t.clone()).collect();
            let rpp = config.width.records_per_page(&types);
            segments.push(Home::Base(Arc::new(Segment::with_rpp(types, rpp))));
            debug_assert_eq!(id.0 as usize, segments.len() - 1);
            relation_home[i] = Some(id);
        }
        Database {
            class_count: vec![0; class_layout.len()],
            relation_count: vec![0; relation_home.len()],
            catalog,
            physical,
            segments,
            class_layout,
            relation_home,
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
    /// `Arc`, cloned per entity; a later mutation on either side clones
    /// just the touched segment, and a temporary gets a lock of its own,
    /// so the two sides append to it independently), the cheap metadata
    /// (physical schema, layouts, counts) is cloned, and the snapshot gets
    /// its own empty buffer manager so every session accounts page I/O —
    /// and spends its breaker memory budget — independently. Queries
    /// executed against the snapshot
    /// return byte-identical answers to the source database: position
    /// order, record keys and page boundaries are all part of the shared
    /// segment state.
    pub fn snapshot(&self) -> Database {
        Database {
            catalog: Arc::clone(&self.catalog),
            physical: self.physical.clone(),
            segments: self
                .segments
                .iter()
                .map(|home| match home {
                    Home::Base(_) => Home::Base(home.segment()),
                    Home::Temp(_) => Home::Temp(RwLock::new(home.segment())),
                })
                .collect(),
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
    pub(crate) fn stored_layout(&self, class: ClassId) -> Vec<AttrId> {
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
        let home = self.whole_extension(class)?;
        let n_attrs = self.catalog.class(class).attrs.len();
        let mut values = vec![Value::Null; n_attrs];
        for (attr, v) in layout.into_iter().zip(stored_values) {
            values[attr.0 as usize] = v;
        }
        let count = &mut self.class_count[class.0 as usize];
        let index = *count;
        *count += 1;
        self.segment_mut(home).append(Row { key: index, values });
        Ok(Oid::new(class, index))
    }

    /// Update a stored attribute of an existing object (used by loaders to
    /// wire cyclic references such as `master`).
    pub fn set_attr(&mut self, oid: Oid, attr: AttrId, value: Value) -> Result<(), StorageError> {
        let entity = self.entity_holding(oid, attr)?;
        let slot = self.attr_slot(entity, attr);
        let seg = self.segment_mut(entity);
        let pos = seg
            .position_of(oid.index)
            .ok_or(StorageError::DanglingOid(oid))?;
        // Row mutation in place.
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
        let home = self.relation_home.get(relation.0 as usize).copied();
        let home = home
            .flatten()
            .ok_or(StorageError::BadEntity(EntityId(u32::MAX)))?;
        let expected = self.catalog.relation(relation).fields.len();
        if values.len() != expected {
            return Err(StorageError::ArityMismatch {
                context: format!("insert into `{}`", self.catalog.relation(relation).name),
                expected,
                got: values.len(),
            });
        }
        let count = &mut self.relation_count[relation.0 as usize];
        let id = *count;
        *count += 1;
        self.segment_mut(home).append(Row { key: id, values });
        Ok(id)
    }

    /// Number of objects in a class extension.
    pub fn object_count(&self, class: ClassId) -> u32 {
        self.class_count.get(class.0 as usize).copied().unwrap_or(0)
    }

    /// Scatter the physical placement of an entity (models an unclustered
    /// extension; see [`Segment::shuffle`]).
    pub fn shuffle_entity(&mut self, entity: EntityId, seed: u64) {
        self.segment_mut(entity).shuffle(seed);
        self.parked().invalidate_entity(entity);
    }

    // ------------------------------------------------------------------
    // Decomposition
    // ------------------------------------------------------------------

    /// The one entity holding the whole extension of a class.
    fn whole_extension(&self, class: ClassId) -> Result<EntityId, StorageError> {
        match self.class_layout.get(class.0 as usize) {
            Some(ClassLayout::Single(e)) => Ok(*e),
            Some(_) => Err(StorageError::Decomposed(class)),
            None => Err(StorageError::NoHome(class)),
        }
    }

    /// Add an empty fragment of a class extension holding `attrs` (all of
    /// them for a horizontal fragment).
    fn add_fragment(&mut self, name: String, class: ClassId, spec: FragmentSpec) -> EntityId {
        let attrs = match &spec {
            FragmentSpec::Vertical { attrs } => Some(attrs.as_slice()),
            FragmentSpec::Horizontal { .. } => None,
        };
        let seg = Self::class_segment(&self.catalog, class, attrs, &self.width);
        self.segments.push(Home::Base(Arc::new(seg)));
        self.physical
            .add_entity(name, EntitySource::Class(class), Some(spec))
    }

    /// Take the records out of a decomposed extension's former home.
    fn retire(&mut self, home: EntityId) -> Vec<Row> {
        let rows = self.scan_raw(home);
        self.segment_mut(home).clear();
        self.parked().invalidate_entity(home);
        self.physical.deactivate_entity(home);
        rows
    }

    /// Decompose a class extension vertically into fragments holding the
    /// given attribute groups. Every attribute of the class must appear in
    /// exactly one group; anything else is refused before a record moves.
    /// Returns the fragment entities.
    pub fn decompose_vertical(
        &mut self,
        class: ClassId,
        groups: &[Vec<AttrId>],
    ) -> Result<Vec<EntityId>, StorageError> {
        let home = self.whole_extension(class)?;
        let catalog = Arc::clone(&self.catalog);
        let (cname, attrs) = (&catalog.class(class).name, &catalog.class(class).attrs);
        let refused = |what: String, expected, got| StorageError::ArityMismatch {
            context: format!("decompose `{cname}` vertically: {what}"),
            expected,
            got,
        };
        let mut groups_holding = vec![0usize; attrs.len()];
        for a in groups.iter().flatten() {
            match groups_holding.get_mut(a.0 as usize) {
                Some(n) => *n += 1,
                None => {
                    let what = format!("attribute #{} is past the class's attributes", a.0);
                    return Err(refused(what, attrs.len(), a.0 as usize + 1));
                }
            }
        }
        if let Some(a) = groups_holding.iter().position(|&n| n != 1) {
            let what = format!("groups holding attribute `{}`", attrs[a].name);
            return Err(refused(what, 1, groups_holding[a]));
        }
        let fragments: Vec<EntityId> = groups
            .iter()
            .enumerate()
            .map(|(i, group)| {
                let attrs = group.clone();
                self.add_fragment(
                    format!("{cname}_v{i}"),
                    class,
                    FragmentSpec::Vertical { attrs },
                )
            })
            .collect();
        // Move the data.
        for row in self.retire(home) {
            for (&fragment, group) in fragments.iter().zip(groups) {
                let values = group.iter().map(|a| row.values[a.0 as usize].clone());
                let (key, values) = (row.key, values.collect());
                self.segment_mut(fragment).append(Row { key, values });
            }
        }
        let layout = fragments.iter().copied().zip(groups.iter().cloned());
        self.class_layout[class.0 as usize] = ClassLayout::Vertical(layout.collect());
        Ok(fragments)
    }

    /// Decompose a class extension horizontally; `route` maps a record to
    /// a fragment number in `0..n_fragments` (at least one; a larger
    /// number goes to the last fragment). `predicates` describe each
    /// fragment for the physical schema.
    pub fn decompose_horizontal(
        &mut self,
        class: ClassId,
        n_fragments: usize,
        predicates: &[String],
        route: impl Fn(&[Value]) -> usize,
    ) -> Result<Vec<EntityId>, StorageError> {
        let home = self.whole_extension(class)?;
        let cname = self.catalog.class(class).name.clone();
        let Some(last) = n_fragments.checked_sub(1) else {
            return Err(StorageError::ArityMismatch {
                context: format!("decompose `{cname}` horizontally: fragments"),
                expected: 1,
                got: 0,
            });
        };
        let total = self.object_count(class).max(1) as f64;
        let rows = self.retire(home);
        // First pass: count per fragment for the fraction statistic.
        let mut counts = vec![0u64; n_fragments];
        for row in &rows {
            counts[route(&row.values).min(last)] += 1;
        }
        let fragments: Vec<EntityId> = counts
            .iter()
            .enumerate()
            .map(|(i, count)| {
                let spec = FragmentSpec::Horizontal {
                    predicate: predicates.get(i).cloned().unwrap_or_default(),
                    fraction: *count as f64 / total,
                };
                self.add_fragment(format!("{cname}_h{i}"), class, spec)
            })
            .collect();
        for row in rows {
            let fragment = fragments[route(&row.values).min(last)];
            self.segment_mut(fragment).append(row);
        }
        self.class_layout[class.0 as usize] = ClassLayout::Horizontal(fragments.clone());
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
        let seg = Segment::with_rpp(field_types, rpp);
        self.segments.push(Home::Temp(RwLock::new(Arc::new(seg))));
        id
    }

    /// The lock a temporary's segment sits behind.
    fn temp(&self, entity: EntityId) -> Result<&RwLock<Arc<Segment>>, StorageError> {
        match self.segments.get(entity.0 as usize) {
            Some(Home::Temp(lock)) => Ok(lock),
            _ => Err(StorageError::NotTemporary(entity)),
        }
    }

    /// Append a copy of each of `rows`, in order, to every temporary of
    /// `entities` (each row goes to all of them before the next row does —
    /// a fixpoint's accumulator and delta fill side by side), holding their
    /// write locks, taken in the listed order (an entity listed twice is
    /// refused: its second lock would wait for the first; so is a
    /// temporary whose last writer panicked, until it is truncated). The
    /// rows are borrowed, and each copy refills a record a truncation
    /// emptied before it allocates one (`Segment::append_copy`). A
    /// page write is charged to `io` whenever an append starts a new page.
    /// A segment nobody else holds — no snapshot, no scan still open, no
    /// page still lent out — is written in place; otherwise it is copied
    /// first.
    pub fn append_temp_rows<R: AsRef<[Value]>>(
        &self,
        io: &Account,
        entities: &[EntityId],
        rows: impl IntoIterator<Item = R>,
    ) -> Result<(), StorageError> {
        let mut held = Vec::with_capacity(entities.len());
        for (i, &entity) in entities.iter().enumerate() {
            if entities[..i].contains(&entity) {
                return Err(StorageError::BadEntity(entity));
            }
            let lock = self.temp(entity)?.write();
            held.push(lock.map_err(|_| StorageError::PoisonedTemporary(entity))?);
        }
        let mut segs: Vec<&mut Segment> = held.iter_mut().map(|seg| Arc::make_mut(seg)).collect();
        if segs.is_empty() {
            return Ok(());
        }
        let mut io = io.borrow_mut();
        for row in rows {
            for (&entity, seg) in entities.iter().zip(&mut segs) {
                let pos = seg.append_copy(seg.len() as u32, row.as_ref());
                if pos.is_multiple_of(seg.rows_per_page()) {
                    let page = seg.page_of_position(pos);
                    io.write(PageId { entity, page }, true);
                }
            }
        }
        Ok(())
    }

    /// Clear a temporary's contents and drop its residency from `io`. A
    /// segment nobody else holds is emptied where it lies and keeps its
    /// records' value vectors for the next appends to refill
    /// ([`Segment::truncate`]). One somebody else still holds (a snapshot,
    /// an open scan, a lent page) is left to them and an empty one of its
    /// shape put in its place. A lock poisoned by a panicking writer is
    /// entered — whatever the writer left is what gets emptied — and works
    /// again afterwards.
    pub fn truncate_temp(&self, io: &Account, entity: EntityId) -> Result<(), StorageError> {
        let lock = self.temp(entity)?;
        let mut seg = lock
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match Arc::get_mut(&mut seg) {
            Some(seg) => seg.truncate(),
            None => *seg = Arc::new(seg.emptied()),
        }
        drop(seg);
        lock.clear_poison();
        io.borrow_mut().invalidate_entity(entity);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reading (I/O accounted)
    // ------------------------------------------------------------------

    /// The segment of an entity as it is now.
    fn segment(&self, entity: EntityId) -> Arc<Segment> {
        self.segments[entity.0 as usize].segment()
    }

    /// The segment of an entity, for writing through `&mut self`.
    fn segment_mut(&mut self, entity: EntityId) -> &mut Segment {
        self.segments[entity.0 as usize].segment_mut()
    }

    /// The segment of an extension, a fragment or a stored relation.
    fn base(&self, entity: EntityId) -> &Segment {
        match &self.segments[entity.0 as usize] {
            Home::Base(seg) => seg,
            Home::Temp(_) => unreachable!("{entity} is a temporary: no layout names one"),
        }
    }

    /// Number of pages of an entity.
    pub fn num_pages(&self, entity: EntityId) -> u32 {
        self.segment(entity).num_pages()
    }

    /// Number of records of an entity.
    pub fn entity_len(&self, entity: EntityId) -> u32 {
        self.segment(entity).len() as u32
    }

    /// Field types of an entity's records.
    pub fn entity_field_types(&self, entity: EntityId) -> Vec<ResolvedType> {
        self.segment(entity).field_types().to_vec()
    }

    /// Open a scan over the pages of an entity numbered in `pages` (cut at
    /// its last page): the scan takes the entity's segment now — the one
    /// lock of a scan over a temporary, none otherwise — and lets go of it
    /// with its last page (at once, if there is no page to scan).
    pub fn scan_pages(&self, entity: EntityId, pages: std::ops::Range<u32>) -> PageScan {
        let hold = self.hold(entity);
        let pages = pages.start..pages.end.min(hold.num_pages());
        PageScan {
            hold: (!pages.is_empty()).then_some(hold),
            pages,
        }
    }

    /// Take the entity's segment as it is now — the one lock of a hold on a
    /// temporary, none otherwise — for reading its pages as often as the
    /// holder likes ([`SegmentHold`]).
    pub fn hold(&self, entity: EntityId) -> SegmentHold {
        SegmentHold {
            seg: self.segment(entity),
            entity,
            temp: self.is_temp_entity(entity),
        }
    }

    /// Scan a whole entity, fetching every page (convenience).
    pub fn scan(&self, io: &Account, entity: EntityId) -> Vec<Row> {
        let mut pages = self.scan_pages(entity, 0..u32::MAX);
        let pages = std::iter::from_fn(|| pages.next_page(io));
        pages.flat_map(|page| page.to_vec()).collect()
    }

    /// Scan without I/O accounting (bulk index builds, statistics).
    pub fn scan_raw(&self, entity: EntityId) -> Vec<Row> {
        self.segment(entity).iter().cloned().collect()
    }

    /// Which entity holds the given attribute of the given object.
    fn entity_holding(&self, oid: Oid, attr: AttrId) -> Result<EntityId, StorageError> {
        let layout = self.class_layout.get(oid.class.0 as usize);
        match layout.ok_or(StorageError::NoHome(oid.class))? {
            ClassLayout::Single(e) => Ok(*e),
            ClassLayout::Vertical(frags) => frags
                .iter()
                .find(|(_, attrs)| attrs.contains(&attr))
                .map(|(e, _)| *e)
                .ok_or(StorageError::DanglingOid(oid)),
            ClassLayout::Horizontal(frags) => self.fragment_holding(frags, oid),
        }
    }

    /// The horizontal fragment holding an object.
    fn fragment_holding(&self, frags: &[EntityId], oid: Oid) -> Result<EntityId, StorageError> {
        let holds = |e: &&EntityId| self.base(**e).position_of(oid.index).is_some();
        let home = frags.iter().find(holds).copied();
        home.ok_or(StorageError::DanglingOid(oid))
    }

    /// Slot of `attr` within the records of `entity` (vertical fragments
    /// store only a subset of attributes).
    fn attr_slot(&self, entity: EntityId, attr: AttrId) -> usize {
        self.physical.slot_of(entity, attr).unwrap_or(usize::MAX)
    }

    /// Where one attribute of an object lies: its page, and the value
    /// (`None` when the record has no such slot).
    fn locate(&self, oid: Oid, attr: AttrId) -> Result<(PageId, Option<&Value>), StorageError> {
        let entity = self.entity_holding(oid, attr)?;
        let seg = self.base(entity);
        let pos = seg
            .position_of(oid.index)
            .ok_or(StorageError::DanglingOid(oid))?;
        let page = seg.page_of_position(pos);
        let slot = self.attr_slot(entity, attr);
        let value = seg.row_at(pos).and_then(|r| r.values.get(slot));
        Ok((PageId { entity, page }, value))
    }

    /// One attribute of an object, lent where it lies, *without* I/O
    /// accounting (statistics).
    pub(crate) fn attr_raw(&self, oid: Oid, attr: AttrId) -> Result<&Value, StorageError> {
        let (_, value) = self.locate(oid, attr)?;
        value.ok_or(StorageError::DanglingOid(oid))
    }

    /// Read one attribute of an object *without* I/O accounting (index
    /// builds, reference loaders).
    pub fn read_attr_raw(&self, oid: Oid, attr: AttrId) -> Result<Value, StorageError> {
        self.attr_raw(oid, attr).cloned()
    }

    /// One attribute of an object, lent where it lies: fetches (and
    /// charges to `io`) only the page of the fragment holding that
    /// attribute, and copies nothing — for a caller that compares the
    /// value and moves on.
    pub fn attr_ref(&self, io: &Account, oid: Oid, attr: AttrId) -> Result<&Value, StorageError> {
        let (page, value) = self.locate(oid, attr)?;
        io.borrow_mut().fetch(page, false);
        value.ok_or(StorageError::DanglingOid(oid))
    }

    /// Read one attribute of an object ([`Database::attr_ref`], copied).
    pub fn read_attr(&self, io: &Account, oid: Oid, attr: AttrId) -> Result<Value, StorageError> {
        self.attr_ref(io, oid, attr).cloned()
    }

    /// Read a whole object (assembling vertical fragments), charging `io`
    /// a page fetch per fragment touched (the oracle `touch_object` is
    /// tested against).
    #[cfg(test)]
    pub(crate) fn read_object(&self, io: &Account, oid: Oid) -> Result<Vec<Value>, StorageError> {
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

    /// Pay for an object without reading it: a page fetch per fragment
    /// holding a part of it, in layout order, nothing copied.
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
        let layout = self.class_layout.get(oid.class.0 as usize);
        let mut fetch = |entity: EntityId, attrs: Option<&[AttrId]>| {
            let seg = self.base(entity);
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
        match layout.ok_or(StorageError::NoHome(oid.class))? {
            ClassLayout::Single(e) => fetch(*e, None),
            ClassLayout::Horizontal(frags) => fetch(self.fragment_holding(frags, oid)?, None),
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
        let mut parked = self.parked();
        let stand_in = parked.fork(parked.capacity(), parked.temp_budget());
        CheckedOut {
            home: &self.buffer,
            account: Account::new(std::mem::replace(&mut *parked, stand_in)),
        }
    }

    /// The parked page account ([`enter`]ed: a poisoned lock is no error).
    fn parked(&self) -> MutexGuard<'_, BufferManager> {
        enter(&self.buffer)
    }

    /// Make the lock of the parked page account poisoned, as a thread that
    /// panicked holding it would.
    #[cfg(test)]
    pub(crate) fn poison_parked_account(&self) {
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _parked = self.buffer.lock();
            panic!("a panic while the page account is locked");
        }));
        assert!(panicked.is_err() && self.buffer.is_poisoned());
    }

    /// Number of frames of the database's page account.
    pub fn buffer_frames(&self) -> usize {
        self.parked().capacity()
    }

    /// Whether an entity is a temporary (breaker state whose pages count
    /// against the breaker memory budget).
    pub(crate) fn is_temp_entity(&self, entity: EntityId) -> bool {
        self.physical.entity(entity).source == EntitySource::Temporary
    }

    /// Cap resident temporary (breaker) pages of the database's page
    /// account; 0 lifts the cap.
    pub fn set_temp_budget(&self, pages: usize) {
        self.parked().set_temp_budget(pages);
    }

    /// I/O statistics of the database's page account: everything the runs
    /// that checked it out have charged it since the last reset.
    pub fn io_stats(&self) -> IoStats {
        self.parked().stats()
    }

    /// Reset I/O counters (keeps buffer residency).
    pub fn reset_io(&self) {
        self.parked().reset_stats();
    }

    /// Drop buffer residency and counters (cold-cache measurement).
    pub fn cold_cache(&self) {
        self.parked().clear();
    }

    /// Attach a trace recorder to the buffer manager: every subsequent
    /// page hit, miss and eviction fires a structured event on it.
    pub fn set_recorder(&self, obs: oorq_obs::Recorder) {
        self.parked().set_recorder(obs);
    }

    /// Attach a metrics registry to the page account: whenever a run
    /// checks the account back in (and before its counters are reset), the
    /// page hits, misses, writes, evictions, spills and temporary re-reads
    /// counted since are added to the registry's `storage.*` series.
    pub fn set_metrics(&self, registry: &oorq_obs::MetricsRegistry) {
        self.parked().set_metrics(registry);
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
        // This runs while a failed run unwinds too.
        let mut parked = enter(self.home);
        std::mem::swap(&mut *parked, self.account.get_mut());
        parked.publish();
    }
}

/// The lock the parked page account sits behind, entered even when a
/// panic poisoned it: every section under it swaps or reads whole values,
/// or calls one `BufferManager` method, which leaves what it guards valid
/// at every step.
fn enter(home: &Mutex<BufferManager>) -> MutexGuard<'_, BufferManager> {
    home.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A scan over (a page range of) one entity. It holds the segment it was
/// opened on until it hands out its last page, which takes the segment
/// with it: a page costs a fetch and no lock, and what is appended to a
/// temporary while a scan over it is open is not seen by that scan — its
/// writer copies the segment first, as it does while a [`PageRows`] is
/// out. Drain a scan, or drop it, before writing what it reads. Whether a
/// page is left is known without asking for one ([`PageScan::is_done`]),
/// so a caller that pays per request need not make the one that fetches
/// nothing.
#[derive(Debug)]
pub struct PageScan {
    /// Held exactly while `pages` has a page left.
    hold: Option<SegmentHold>,
    /// The pages still to fetch, all of them pages of `hold`.
    pages: std::ops::Range<u32>,
}

impl PageScan {
    /// Whether the scan has no page left: [`PageScan::next_page`] would
    /// fetch nothing and answer `None`.
    pub fn is_done(&self) -> bool {
        self.hold.is_none()
    }

    /// Fetch (and charge to `io`) the next page and lend out its records;
    /// `None` past the last one. A consumer streams the entity a page at a
    /// time: each fetch is accounted when it happens, so interleaved
    /// consumers (e.g. a pipelined executor) observe honest LRU behaviour.
    pub fn next_page(&mut self, io: &Account) -> Option<PageRows> {
        let page = self.pages.next()?;
        let rows = self.hold.as_ref()?.page(io, page);
        if self.pages.is_empty() {
            self.hold = None;
        }
        rows
    }
}

/// One entity's segment, taken once ([`Database::hold`]) and read a page
/// at a time as often as the holder likes: a nested loop walks its inner
/// from one per opening instead of opening a scan per outer row, and a
/// [`PageScan`] is a hold read once. A page costs a fetch, charged when it
/// happens, and no lock. Like an open scan, a hold makes the next write
/// to a temporary copy the segment and keeps reading the rows it took;
/// drop it before writing what it reads.
#[derive(Debug)]
pub struct SegmentHold {
    seg: Arc<Segment>,
    entity: EntityId,
    temp: bool,
}

impl SegmentHold {
    /// Number of pages of the held segment.
    pub fn num_pages(&self) -> u32 {
        self.seg.num_pages()
    }

    /// Fetch (and charge to `io`) page `page` and lend out its records;
    /// `None`, fetching nothing, past the last page.
    pub fn page(&self, io: &Account, page: u32) -> Option<PageRows> {
        if page >= self.num_pages() {
            return None;
        }
        let entity = self.entity;
        io.borrow_mut().fetch(PageId { entity, page }, self.temp);
        let seg = Arc::clone(&self.seg);
        Some(PageRows { seg, page })
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
