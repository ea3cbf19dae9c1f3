//! The object store: a page-accounted, single-node object database
//! following the direct storage model of \[VKC86\].

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use oorq_schema::{AttrId, AttributeKind, Catalog, ClassId, RelationId, ResolvedType, ViewKind};

use crate::buffer::{Account, BufferManager, IoStats};
use crate::error::StorageError;
use crate::page::{PageId, WidthModel};
use crate::physical::{EntityId, EntitySource, PhysicalSchema};
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

/// Where an entity's records live. Extensions and stored relations are
/// written only under `&mut Database`, so reading them takes
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
        for (i, c) in catalog.classes().iter().enumerate() {
            let cid = ClassId(i as u32);
            let id = physical.add_entity(c.name.clone(), EntitySource::Class(cid));
            let seg = Self::class_segment(&catalog, cid, &config.width);
            segments.push(Home::Base(Arc::new(seg)));
            debug_assert_eq!(id.0 as usize, segments.len() - 1);
        }
        for (i, r) in catalog.relations().iter().enumerate() {
            if r.kind != ViewKind::Stored {
                continue;
            }
            let rid = RelationId(i as u32);
            let id = physical.add_entity(r.name.clone(), EntitySource::Relation(rid));
            let types: Vec<ResolvedType> = r.fields.iter().map(|(_, t)| t.clone()).collect();
            let rpp = config.width.records_per_page(&types);
            segments.push(Home::Base(Arc::new(Segment::with_rpp(types, rpp))));
            debug_assert_eq!(id.0 as usize, segments.len() - 1);
        }
        Database {
            class_count: vec![0; catalog.classes().len()],
            relation_count: vec![0; catalog.relations().len()],
            catalog,
            physical,
            segments,
            buffer: Mutex::new(BufferManager::new(config.buffer_frames)),
            width: config.width,
        }
    }

    /// Build the segment of a class extension. Computed attributes occupy
    /// a slot (holding `Null`) but contribute no width.
    fn class_segment(catalog: &Catalog, class: ClassId, width: &WidthModel) -> Segment {
        let attrs = &catalog.class(class).attrs;
        let types: Vec<ResolvedType> = attrs.iter().map(|a| a.ty.clone()).collect();
        let stored_types: Vec<ResolvedType> = attrs
            .iter()
            .filter(|a| a.kind == AttributeKind::Stored)
            .map(|a| a.ty.clone())
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

    /// The physical schema (entities, clustering, indexes).
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
    /// (physical schema, counts) is cloned, and the snapshot gets
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
        let entity = self.whole_extension(oid.class)?;
        let slot = attr.0 as usize;
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
        let home = self.physical.relation_entity(relation);
        let home = home.ok_or(StorageError::BadEntity(EntityId(u32::MAX)))?;
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
    /// extension; see `Segment::shuffle`).
    pub fn shuffle_entity(&mut self, entity: EntityId, seed: u64) {
        self.segment_mut(entity).shuffle(seed);
        self.parked().invalidate_entity(entity);
    }

    /// The entity holding the extension of a class.
    fn whole_extension(&self, class: ClassId) -> Result<EntityId, StorageError> {
        let home = self.physical.class_entity(class);
        home.ok_or(StorageError::NoHome(class))
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
        let id = self.physical.add_entity(name, EntitySource::Temporary);
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

    /// Append a copy of each of `rows`, in order, to the one or two
    /// temporaries of `entities` (each row to both before the next: a
    /// fixpoint's accumulator and delta fill side by side), holding their
    /// write locks, taken in the listed order without allocating. An entity
    /// listed twice is refused (its second lock would wait for the first),
    /// and so are a third and a temporary whose last writer panicked, until
    /// it is truncated. Each row is copied into a record a truncation left
    /// before one is allocated (`Segment::append_copy`), and a page write is
    /// charged to `io` whenever an append starts a page. A segment nobody
    /// else holds (no snapshot, open scan or lent page) is written in
    /// place; otherwise it is copied first.
    pub fn append_temp_rows<R: AsRef<[Value]>>(
        &self,
        io: &Account,
        entities: &[EntityId],
        rows: impl IntoIterator<Item = R>,
    ) -> Result<(), StorageError> {
        let lock = |entity| {
            let lock = self.temp(entity)?.write();
            lock.map_err(|_| StorageError::PoisonedTemporary(entity))
        };
        let [first, rest @ ..] = entities else {
            return Ok(());
        };
        let mut held = lock(*first)?;
        let mut second = match rest {
            [] => None,
            [second] if second != first => Some((*second, lock(*second)?)),
            [.., last] => return Err(StorageError::BadEntity(*last)),
        };
        let mut first = (*first, Arc::make_mut(&mut held));
        let mut second = second.as_mut().map(|(e, seg)| (*e, Arc::make_mut(seg)));
        let mut io = io.borrow_mut();
        for row in rows {
            for (entity, seg) in std::iter::once(&mut first).chain(second.as_mut()) {
                let pos = seg.append_copy(row.as_ref());
                if pos.is_multiple_of(seg.rows_per_page()) {
                    let (entity, page) = (*entity, seg.page_of_position(pos));
                    io.write(PageId { entity, page }, true);
                }
            }
        }
        Ok(())
    }

    /// Clear a temporary's contents and drop its residency from `io`. A
    /// segment nobody else holds is emptied where it lies and keeps its
    /// records for the next appends to refill (`Segment::truncate`). One
    /// somebody else still holds (a snapshot, an open scan, a lent page) is
    /// left to them and an empty one of its shape put in its place. A lock
    /// poisoned by a panicking writer is entered — whatever the writer left
    /// is what gets emptied — and works again afterwards.
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

    /// The segment of a class's or a stored relation's extension.
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
        let seg = self.segment(entity);
        let (pages, temp) = (seg.num_pages(), self.is_temp_entity(entity));
        SegmentHold {
            seg,
            entity,
            temp,
            pages,
        }
    }

    /// Scan without I/O accounting (bulk index builds, statistics).
    pub fn scan_raw(&self, entity: EntityId) -> Vec<Row> {
        self.segment(entity).iter().cloned().collect()
    }

    /// Where an object lies: its page, and its record.
    fn locate(&self, oid: Oid) -> Result<(PageId, &Row), StorageError> {
        let entity = self.whole_extension(oid.class)?;
        let seg = self.base(entity);
        let pos = seg
            .position_of(oid.index)
            .ok_or(StorageError::DanglingOid(oid))?;
        let row = seg.row_at(pos).ok_or(StorageError::DanglingOid(oid))?;
        let page = seg.page_of_position(pos);
        Ok((PageId { entity, page }, row))
    }

    /// Attribute `attr` of an object's record.
    fn field(row: &Row, oid: Oid, attr: AttrId) -> Result<&Value, StorageError> {
        let value = row.values.get(attr.0 as usize);
        value.ok_or(StorageError::DanglingOid(oid))
    }

    /// One attribute of an object, lent where it lies, *without* I/O
    /// accounting (statistics).
    pub(crate) fn attr_raw(&self, oid: Oid, attr: AttrId) -> Result<&Value, StorageError> {
        let (_, row) = self.locate(oid)?;
        Self::field(row, oid, attr)
    }

    /// Read one attribute of an object *without* I/O accounting (index
    /// builds, reference loaders).
    pub fn read_attr_raw(&self, oid: Oid, attr: AttrId) -> Result<Value, StorageError> {
        self.attr_raw(oid, attr).cloned()
    }

    /// One attribute of an object, lent where it lies: fetches (and
    /// charges to `io`) the object's page, and copies nothing — for a
    /// caller that compares the value and moves on.
    pub fn attr_ref(&self, io: &Account, oid: Oid, attr: AttrId) -> Result<&Value, StorageError> {
        let (page, row) = self.locate(oid)?;
        io.borrow_mut().fetch(page, false);
        Self::field(row, oid, attr)
    }

    /// Read a whole object, charging `io` its page fetch (the oracle
    /// `touch_object` is tested against).
    #[cfg(test)]
    pub(crate) fn read_object(&self, io: &Account, oid: Oid) -> Result<Vec<Value>, StorageError> {
        let (page, row) = self.locate(oid)?;
        io.borrow_mut().fetch(page, false);
        Ok(row.values.clone())
    }

    /// Pay for an object without reading it: its page fetch, nothing
    /// copied.
    pub fn touch_object(&self, io: &Account, oid: Oid) -> Result<(), StorageError> {
        let (page, _) = self.locate(oid)?;
        io.borrow_mut().fetch(page, false);
        Ok(())
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
/// happens, and no lock, and its records are borrowed from the hold. Like
/// an open scan, a hold makes the next write to a temporary copy the
/// segment and keeps reading the rows it took; drop it before writing
/// what it reads.
#[derive(Debug)]
pub struct SegmentHold {
    seg: Arc<Segment>,
    entity: EntityId,
    temp: bool,
    /// Counted once: a held segment cannot change.
    pages: u32,
}

impl SegmentHold {
    /// Number of pages of the held segment.
    pub fn num_pages(&self) -> u32 {
        self.pages
    }

    /// Fetch (and charge to `io`) page `page` and lend its records from
    /// the hold; `None`, fetching nothing, past the last page.
    pub fn lend(&self, io: &Account, page: u32) -> Option<&[Row]> {
        if page >= self.pages {
            return None;
        }
        let entity = self.entity;
        io.borrow_mut().fetch(PageId { entity, page }, self.temp);
        Some(self.seg.page_rows(page))
    }

    /// The records of page `page`, which the holder fetched already and
    /// stopped part-way through ([`SegmentHold::lend`]): no fetch, no charge.
    pub fn lent(&self, page: u32) -> &[Row] {
        self.seg.page_rows(page)
    }

    /// [`SegmentHold::lend`], as a handle that keeps the segment alive.
    pub fn page(&self, io: &Account, page: u32) -> Option<PageRows> {
        self.lend(io, page)?;
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
