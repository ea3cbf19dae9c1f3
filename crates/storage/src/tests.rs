//! Database-level tests for the object store.

use std::sync::Arc;

use oorq_schema::{
    AttrId, AttributeDef, Catalog, ClassDef, Field, RelationDef, SchemaBuilder, TypeExpr,
};

use crate::segment::Segment;
use crate::*;

/// A small two-class schema: `Owner` with a set of `Item`s and a scalar
/// self-reference, plus a stored relation.
fn tiny_catalog() -> Arc<Catalog> {
    Arc::new(
        SchemaBuilder::new()
            .class(
                ClassDef::new("Owner")
                    .attr(AttributeDef::stored("name", TypeExpr::text()))
                    .attr(AttributeDef::stored("parent", TypeExpr::class("Owner")))
                    .attr(AttributeDef::stored(
                        "items",
                        TypeExpr::set(TypeExpr::class("Item")),
                    ))
                    .attr(AttributeDef::computed("rank", TypeExpr::int(), 3.0)),
            )
            .class(
                ClassDef::new("Item")
                    .attr(AttributeDef::stored("label", TypeExpr::text()))
                    .attr(AttributeDef::stored("weight", TypeExpr::int())),
            )
            .relation(RelationDef::new(
                "Likes",
                TypeExpr::Tuple(vec![
                    Field::new("who", TypeExpr::class("Owner")),
                    Field::new("what", TypeExpr::class("Item")),
                ]),
            ))
            .build()
            .unwrap(),
    )
}

fn small_db_config() -> StorageConfig {
    StorageConfig {
        buffer_frames: 4,
        width: WidthModel {
            page_size: 256,
            ..WidthModel::default()
        },
    }
}

fn small_db() -> Database {
    Database::new(tiny_catalog(), small_db_config())
}

/// A page account with `small_db`'s four frames that no database parks:
/// what a test charges, reads and resets by name.
/// Fetch (and charge to `io`) one page of an entity and lend out its
/// records: a scan over that page alone. `None` past the last page.
fn scan_page(db: &Database, io: &Account, entity: EntityId, page: u32) -> Option<PageRows> {
    // No entity has a page `u32::MAX`: its page *count* is a `u32`.
    db.scan_pages(entity, page..page.saturating_add(1))
        .next_page(io)
}

/// Scan a whole entity, fetching every page.
fn scan(db: &Database, io: &Account, entity: EntityId) -> Vec<Row> {
    let mut pages = db.scan_pages(entity, 0..u32::MAX);
    let pages = std::iter::from_fn(|| pages.next_page(io));
    pages.flat_map(|page| page.to_vec()).collect()
}

fn small_account() -> Account {
    Account::new(BufferManager::new(small_db_config().buffer_frames))
}

#[test]
fn insert_and_read_objects() {
    let mut db = small_db();
    let owner_cls = db.catalog().class_by_name("Owner").unwrap();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    let item = db
        .insert_object(item_cls, vec![Value::text("apple"), Value::Int(3)])
        .unwrap();
    let owner = db
        .insert_object(
            owner_cls,
            vec![
                Value::text("ada"),
                Value::Null,
                Value::Set(vec![item.into()]),
            ],
        )
        .unwrap();
    assert_eq!(owner.index, 0);
    assert_eq!(db.object_count(owner_cls), 1);

    let io = small_account();
    let vals = db.read_object(&io, owner).unwrap();
    // layout: name, birth... here: name, parent, items, rank(computed -> Null)
    assert_eq!(vals[0], Value::text("ada"));
    assert_eq!(vals[3], Value::Null, "computed slot holds Null");
    let items = db.attr_ref(&io, owner, AttrId(2)).unwrap().clone();
    assert_eq!(items.members()[0], Value::Oid(item));
}

#[test]
fn arity_mismatch_rejected() {
    let mut db = small_db();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    let err = db.insert_object(item_cls, vec![Value::Int(1)]).unwrap_err();
    assert!(matches!(
        err,
        StorageError::ArityMismatch {
            expected: 2,
            got: 1,
            ..
        }
    ));
}

#[test]
fn dangling_oid_rejected() {
    let (db, io) = (small_db(), small_account());
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    let err = db.read_object(&io, Oid::new(item_cls, 99)).unwrap_err();
    assert_eq!(err, StorageError::DanglingOid(Oid::new(item_cls, 99)));
}

#[test]
fn set_attr_wires_references() {
    let mut db = small_db();
    let owner_cls = db.catalog().class_by_name("Owner").unwrap();
    let a = db
        .insert_object(
            owner_cls,
            vec![Value::text("a"), Value::Null, Value::Set(vec![])],
        )
        .unwrap();
    let b = db
        .insert_object(
            owner_cls,
            vec![Value::text("b"), Value::Null, Value::Set(vec![])],
        )
        .unwrap();
    db.set_attr(b, AttrId(1), Value::Oid(a)).unwrap();
    let io = small_account();
    assert_eq!(
        db.attr_ref(&io, b, AttrId(1)).unwrap().clone(),
        Value::Oid(a)
    );
}

#[test]
fn scans_account_page_io() {
    let mut db = small_db();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    for i in 0..40 {
        db.insert_object(item_cls, vec![Value::text(format!("i{i}")), Value::Int(i)])
            .unwrap();
    }
    let entity = db.physical().class_entity(item_cls).unwrap();
    let pages = db.num_pages(entity);
    assert!(pages > 1, "need a multi-page extent for this test");
    let io = small_account();
    let rows = scan(&db, &io, entity);
    assert_eq!(rows.len(), 40);
    assert_eq!(io.borrow().stats().page_reads, pages as u64);
    // Second scan with a tiny buffer (4 frames) still misses every page
    // if the extent exceeds the buffer; otherwise hits.
    io.borrow_mut().reset_stats();
    let _ = scan(&db, &io, entity);
    if pages as usize > 4 {
        assert_eq!(io.borrow().stats().page_reads, pages as u64);
    } else {
        assert_eq!(io.borrow().stats().page_hits, pages as u64);
    }
}

#[test]
fn clustered_vs_shuffled_dereference_io() {
    // Owners reference items created right after them (clustered order).
    let mut db = small_db();
    let owner_cls = db.catalog().class_by_name("Owner").unwrap();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    let mut owners = Vec::new();
    for i in 0..64 {
        let item = db
            .insert_object(item_cls, vec![Value::text(format!("it{i}")), Value::Int(i)])
            .unwrap();
        let owner = db
            .insert_object(
                owner_cls,
                vec![
                    Value::text(format!("ow{i}")),
                    Value::Null,
                    Value::Set(vec![item.into()]),
                ],
            )
            .unwrap();
        owners.push((owner, item));
    }
    let item_entity = db.physical().class_entity(item_cls).unwrap();

    // Clustered (insertion-order) placement: dereferencing items of
    // consecutive owners hits mostly-resident pages.
    let io = small_account();
    for (_, item) in &owners {
        db.attr_ref(&io, *item, AttrId(1)).unwrap();
    }
    let clustered_reads = io.borrow().stats().page_reads;

    // Scattered placement: many more physical reads.
    db.shuffle_entity(item_entity, 7);
    io.borrow_mut().clear();
    for (_, item) in &owners {
        db.attr_ref(&io, *item, AttrId(1)).unwrap();
    }
    let scattered_reads = io.borrow().stats().page_reads;
    assert!(
        scattered_reads > clustered_reads,
        "scattered {scattered_reads} should exceed clustered {clustered_reads}"
    );
}

/// `touch_object` pays what `read_object` pays — the same fetches in the
/// same order, so the same hits, misses and LRU victims under two frames
/// — and fails where it fails.
#[test]
fn touch_object_accounts_and_fails_as_read_object_does() {
    let mut db = small_db();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    for i in 0..40 {
        db.insert_object(item_cls, vec![Value::text(format!("i{i}")), Value::Int(i)])
            .unwrap();
    }
    // One store, two accounts of two frames: one pays for reads, the
    // other for touches.
    let [read, touched] = [(); 2].map(|()| Account::new(BufferManager::new(2)));
    // Neighbours (a hit), a stride that comes back to pages others
    // evicted, dangling oids mid-way, a class with no extension.
    let oids = (0..60u32)
        .flat_map(|i| [i * 7 % 45, (i * 7 + 1) % 45])
        .map(|i| Oid::new(item_cls, i))
        .chain([Oid::new(oorq_schema::ClassId(9), 0)]);
    for oid in oids {
        assert_eq!(
            db.touch_object(&touched, oid),
            db.read_object(&read, oid).map(drop),
            "{oid}"
        );
        let (touched, read) = (touched.borrow().stats(), read.borrow().stats());
        assert_eq!(touched, read, "after {oid}");
    }
    let read = read.borrow().stats();
    assert!(read.page_reads > 2 && read.page_hits > 0);
}

/// Record keys index a position vector, and a shuffle moves every
/// record: each oid still reads back its own values, and an index one
/// past the extension dangles, through every accessor.
#[test]
fn every_key_reads_back_after_shuffling() {
    let n = 40u32;
    let mut db = small_db();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    for i in 0..n {
        let values = vec![Value::text(format!("i{i}")), Value::Int(i.into())];
        db.insert_object(item_cls, values).unwrap();
    }
    db.shuffle_entity(db.physical().class_entity(item_cls).unwrap(), 11);
    let io = small_account();
    for i in 0..n {
        let (oid, weight) = (Oid::new(item_cls, i), Value::Int(i.into()));
        assert_eq!(db.attr_ref(&io, oid, AttrId(1)), Ok(&weight));
        assert_eq!(db.read_attr_raw(oid, AttrId(1)), Ok(weight.clone()));
        assert_eq!(db.read_object(&io, oid).unwrap()[1], weight);
        assert_eq!(db.touch_object(&io, oid), Ok(()));
    }
    let touches = io.borrow().stats().fetches();
    assert_eq!(touches, 3 * u64::from(n), "a fetch per accounted access");
    for past in [n, n + 1, u32::MAX] {
        let oid = Oid::new(item_cls, past);
        let dangling = StorageError::DanglingOid(oid);
        assert_eq!(db.attr_ref(&io, oid, AttrId(1)), Err(dangling.clone()));
        assert_eq!(db.read_attr_raw(oid, AttrId(1)), Err(dangling.clone()));
        assert_eq!(db.read_object(&io, oid), Err(dangling.clone()));
        assert_eq!(db.touch_object(&io, oid), Err(dangling));
    }
    assert_eq!(io.borrow().stats().fetches(), touches, "no fetch");
}

/// What the executor's scans rely on. A scan holds the segment it was
/// opened on until it runs out; once it has, the next write to the
/// temporary happens in place. A scan left half-way makes that write copy
/// the segment first — slower, still correct — and goes on reading the
/// rows it was opened on. (In place or copied shows in where the rows
/// lie: a cleared segment keeps its allocation and an append within it
/// does not move it, while a copy is a new allocation beside the old.)
#[test]
fn a_drained_scan_lets_the_next_write_happen_in_place() {
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let t = db.create_temp("delta", vec![int.clone(), int]);
    let io = small_account();
    let rows = |r: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        r.map(|i| vec![Value::Int(i), Value::Int(i)]).collect()
    };
    let lies_at = |db: &Database| scan_page(db, &io, t, 0).unwrap().as_ptr();
    // Room for 64 rows, 25 of them (three pages) in use.
    db.append_temp_rows(&io, &[t], rows(0..64)).unwrap();
    db.truncate_temp(&io, t).unwrap();
    db.append_temp_rows(&io, &[t], rows(0..25)).unwrap();
    let before = lies_at(&db);

    let mut scan = db.scan_pages(t, 0..u32::MAX);
    let mut seen = 0;
    while let Some(page) = scan.next_page(&io) {
        seen += page.len();
    }
    assert_eq!(seen, 25);
    assert!(scan.next_page(&io).is_none(), "it stays run out");
    db.append_temp_rows(&io, &[t], rows(25..30)).unwrap();
    assert_eq!(lies_at(&db), before, "written in place");

    let mut scan = db.scan_pages(t, 0..u32::MAX);
    assert_eq!(scan.next_page(&io).unwrap().len(), 10);
    db.append_temp_rows(&io, &[t], rows(30..35)).unwrap();
    assert_eq!(db.entity_len(t), 35, "the append went through");
    assert_ne!(lies_at(&db), before, "on a copy: the scan holds the rows");
    let rest: usize = std::iter::from_fn(|| scan.next_page(&io))
        .map(|p| p.len())
        .sum();
    assert_eq!(
        rest, 20,
        "the half-read scan sees the 30 rows it was opened on"
    );
    // A page range is cut at the last page, and an empty one fetches nothing.
    let fetched = io.borrow().stats().fetches();
    assert_eq!(db.scan_pages(t, 2..9).next_page(&io).unwrap().len(), 10);
    assert!(db.scan_pages(t, 4..9).next_page(&io).is_none());
    assert!(scan_page(&db, &io, t, u32::MAX).is_none());
    assert_eq!(io.borrow().stats().fetches(), fetched + 1);
    // Listing a temporary twice would wait on its own lock: refused.
    let twice = db.append_temp_rows(&io, &[t, t], rows(0..1));
    assert_eq!(twice, Err(StorageError::BadEntity(t)));
    assert_eq!(db.entity_len(t), 35);
}

/// What a nested loop's held inner relies on. Pass after pass, a hold's
/// fetches charge what a scan's over the same pages do — after every
/// fetch, under two frames and a one-page breaker budget, where the LRU
/// victim and the spills depend on each one. Once it is dropped, the next
/// write to the temporary happens in place; while it is held, that write
/// copies the segment and the holder goes on reading the rows it took.
#[test]
fn a_hold_reads_as_a_scan_does_and_lets_go_in_place() {
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let t = db.create_temp("delta", vec![int.clone(), int]);
    let io = small_account();
    let rows = |r: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        r.map(|i| vec![Value::Int(i), Value::Int(i)]).collect()
    };
    let lies_at = |db: &Database| scan_page(db, &io, t, 0).unwrap().as_ptr();
    // Room for 64 rows, 25 of them (three pages) in use.
    db.append_temp_rows(&io, &[t], rows(0..64)).unwrap();
    db.truncate_temp(&io, t).unwrap();
    db.append_temp_rows(&io, &[t], rows(0..25)).unwrap();
    let before = lies_at(&db);

    let budgeted = || {
        let mut buffer = BufferManager::new(2);
        buffer.set_temp_budget(1);
        Account::new(buffer)
    };
    let (held_io, scanned_io) = (budgeted(), budgeted());
    let hold = db.hold(t);
    assert_eq!(hold.num_pages(), 3);
    for pass in 0..3 {
        let mut scan = db.scan_pages(t, 0..u32::MAX);
        for page in 0..hold.num_pages() {
            let held = hold.page(&held_io, page).unwrap();
            let scanned = scan.next_page(&scanned_io).unwrap();
            assert_eq!(held.len(), scanned.len(), "pass {pass}, page {page}");
            let (held, scanned) = (held_io.borrow().stats(), scanned_io.borrow().stats());
            assert_eq!(held, scanned, "pass {pass}, page {page}");
        }
        assert!(scan.next_page(&scanned_io).is_none());
        assert!(hold.page(&held_io, hold.num_pages()).is_none());
        assert_eq!(held_io.borrow().stats(), scanned_io.borrow().stats());
    }
    let stats = held_io.borrow().stats();
    // One page may stay: every fetch re-reads, and spills the one before.
    assert_eq!(
        (stats.fetches(), stats.temp_reads, stats.spill_evictions),
        (9, 9, 8)
    );

    drop(hold);
    db.append_temp_rows(&io, &[t], rows(25..30)).unwrap();
    assert_eq!(lies_at(&db), before, "written in place");

    let hold = db.hold(t);
    db.append_temp_rows(&io, &[t], rows(30..35)).unwrap();
    assert_eq!(db.entity_len(t), 35, "the append went through");
    assert_ne!(lies_at(&db), before, "on a copy: the hold keeps the rows");
    let taken = (0..hold.num_pages()).map(|page| hold.page(&held_io, page).unwrap().len());
    assert_eq!(
        taken.sum::<usize>(),
        30,
        "the hold reads the 30 rows it took"
    );
}

/// `SegmentHold::lend` is `SegmentHold::page` without the handle: pass
/// after pass, the same rows and, after every fetch, the same charges
/// (two frames and a one-page breaker budget, so every fetch re-reads and
/// spills); `SegmentHold::lent` reads a fetched page again at no charge.
#[test]
fn a_hold_lends_the_rows_and_charges_its_pages_hand_out() {
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let t = db.create_temp("delta", vec![int.clone(), int]);
    let rows = (0..25).map(|i| vec![Value::Int(i), Value::Int(-i)]);
    db.append_temp_rows(&small_account(), &[t], rows).unwrap();
    let budgeted = || {
        let mut buffer = BufferManager::new(2);
        buffer.set_temp_budget(1);
        Account::new(buffer)
    };
    let (lent_io, paged_io) = (budgeted(), budgeted());
    let hold = db.hold(t);
    assert_eq!(hold.num_pages(), 3);
    for pass in 0..3 {
        for page in 0..=hold.num_pages() {
            let lent = hold.lend(&lent_io, page);
            let paged = hold.page(&paged_io, page);
            assert_eq!(lent, paged.as_deref(), "pass {pass}, page {page}");
            let charged = lent_io.borrow().stats();
            assert_eq!(
                charged,
                paged_io.borrow().stats(),
                "pass {pass}, page {page}"
            );
            if let Some(rows) = lent {
                assert_eq!(hold.lent(page), rows);
                assert_eq!(lent_io.borrow().stats(), charged, "no charge");
            }
        }
    }
    let stats = lent_io.borrow().stats();
    assert_eq!(
        (stats.fetches(), stats.temp_reads, stats.spill_evictions),
        (9, 9, 8)
    );
}

/// A temporary refilled with fewer rows than its last fill keeps the
/// longer fill's records past its live count, and the refill rewrites
/// them where they lie: no reader sees one of the rest — not the
/// segment's, not a copy-on-write clone's, not the database's.
#[test]
fn a_shorter_refill_exposes_no_stale_record() {
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let mut s = Segment::with_rpp(vec![int.clone()], 4);
    for i in 0..7 {
        s.append_copy(&[Value::Int(i)]);
    }
    let lies_at = |s: &Segment| s.iter().map(|r| r.values.as_ptr()).collect::<Vec<_>>();
    let before = lies_at(&s);
    s.truncate();
    assert_eq!((s.len(), s.num_pages(), s.iter().count()), (0, 0, 0));
    assert!(s.row_at(0).is_none() && s.page_rows(0).is_empty());
    for i in 10..15 {
        s.append_copy(&[Value::Int(i)]);
    }
    let ints =
        |s: &Segment| -> Vec<i64> { s.iter().map(|r| r.values[0].as_int().unwrap()).collect() };
    assert_eq!((s.len(), s.num_pages()), (5, 2));
    assert_eq!(
        s.page_rows(1).len(),
        1,
        "the last page ends at the live count"
    );
    assert!(s.page_rows(2).is_empty() && s.row_at(5).is_none());
    assert_eq!(s.row_at(4).unwrap().values, [Value::Int(14)]);
    assert_eq!(ints(&s), [10, 11, 12, 13, 14]);
    assert_eq!(lies_at(&s), before[..5], "refilled where they lie");
    let keys: Vec<u32> = s.iter().map(|r| r.key).collect();
    assert_eq!(keys, [0, 1, 2, 3, 4], "a temporary's key is its position");
    assert_eq!(s.position_of(0), None, "and nothing looks one up");
    let copy = s.clone();
    assert_eq!(
        (copy.len(), copy.num_pages(), ints(&copy)),
        (5, 2, ints(&s))
    );
    assert!(copy.page_rows(1).len() == 1 && copy.row_at(5).is_none());

    // The same through the database: 25 rows, then 12 (two pages).
    let mut db = small_db();
    let t = db.create_temp("acc", vec![int.clone(), int]);
    let io = small_account();
    let rows = |r: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        r.map(|i| vec![Value::Int(i), Value::Int(i)]).collect()
    };
    db.append_temp_rows(&io, &[t], rows(0..25)).unwrap();
    db.truncate_temp(&io, t).unwrap();
    db.append_temp_rows(&io, &[t], rows(100..112)).unwrap();
    let firsts =
        |rows: &[Row]| -> Vec<i64> { rows.iter().map(|r| r.values[0].as_int().unwrap()).collect() };
    assert_eq!((db.entity_len(t), db.num_pages(t)), (12, 2));
    assert_eq!(firsts(&scan_page(&db, &io, t, 1).unwrap()), [110, 111]);
    assert!(scan_page(&db, &io, t, 2).is_none());
    assert_eq!(firsts(&db.scan_raw(t)), (100..112).collect::<Vec<_>>());
    // A write under a hold copies the segment: the copy holds the 12 live
    // rows and the one appended, the hold the 12 it took.
    let hold = db.hold(t);
    db.append_temp_rows(&io, &[t], rows(112..113)).unwrap();
    assert_eq!(firsts(&db.scan_raw(t)), (100..113).collect::<Vec<_>>());
    assert_eq!((hold.num_pages(), hold.lent(1).len()), (2, 2));
    // Statistics describe stored extents only; a temporary is not one.
    assert!(DbStats::collect(&db).entity(t).is_none());
}

/// Emptying a temporary somebody still reads copies nothing: the reader
/// keeps the segment with its rows, and the temporary gets an empty one of
/// the same shape, which the next append fills in place.
#[test]
fn truncating_under_a_reader_leaves_it_the_segment() {
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let t = db.create_temp("delta", vec![int.clone(), int]);
    let io = small_account();
    let rows = |r: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        r.map(|i| vec![Value::Int(i), Value::Int(i)]).collect()
    };
    db.append_temp_rows(&io, &[t], rows(0..25)).unwrap();
    let lent = scan_page(&db, &io, t, 1).unwrap();
    let firsts = |page: &[Row]| page.iter().map(|r| r.values[0].clone()).collect::<Vec<_>>();
    let before = firsts(&lent);
    assert_eq!(before.len(), 10);

    db.truncate_temp(&io, t).unwrap();
    assert_eq!((db.entity_len(t), db.num_pages(t)), (0, 0));
    db.append_temp_rows(&io, &[t], rows(100..112)).unwrap();
    assert_eq!(firsts(&lent), before, "the reader keeps its rows");
    let fresh = scan_page(&db, &io, t, 1).unwrap();
    assert_eq!(firsts(&fresh), [Value::Int(110), Value::Int(111)]);
    assert_ne!(fresh.as_ptr(), lent.as_ptr(), "a segment of its own");
    // The same rows per page, the same fields: an empty one of its shape.
    assert_eq!(scan_page(&db, &io, t, 0).unwrap().len(), 10);
    assert_eq!(db.entity_field_types(t).len(), 2);

    // Nobody reads now: emptied where it lies.
    drop((lent, fresh));
    let lies_at = |db: &Database| scan_page(db, &io, t, 0).unwrap().as_ptr();
    let before = lies_at(&db);
    db.truncate_temp(&io, t).unwrap();
    db.append_temp_rows(&io, &[t], rows(0..5)).unwrap();
    assert_eq!(lies_at(&db), before, "cleared in place");
}

/// A writer that panics while it holds a temporary's lock poisons that
/// temporary, not the session: appends are refused with an error, readers
/// see no rows, and the truncate every fixpoint and materializing join
/// starts with makes it whole again.
#[test]
fn a_poisoned_temporary_is_refused_then_truncated_back_to_work() {
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let t = db.create_temp("acc", vec![int.clone()]);
    let other = db.create_temp("delta", vec![int]);
    let io = small_account();
    let rows = |r: std::ops::Range<i64>| r.map(|i| vec![Value::Int(i)]).collect::<Vec<_>>();
    db.append_temp_rows(&io, &[t, other], rows(0..3)).unwrap();

    // The writer takes `t`'s lock, then finds its account busy and panics.
    let writer = std::thread::scope(|scope| {
        let write = || {
            let io = small_account();
            let _busy = io.borrow_mut();
            db.append_temp_rows(&io, &[t], rows(3..6))
        };
        scope.spawn(write).join()
    });
    assert!(writer.is_err(), "the writer panicked");

    let refused = db.append_temp_rows(&io, &[other, t], rows(6..9));
    assert_eq!(refused, Err(StorageError::PoisonedTemporary(t)));
    assert_eq!(db.entity_len(other), 3, "nothing went to the other either");
    assert_eq!(db.entity_len(t), 0, "read as empty");
    assert!(db.scan_pages(t, 0..u32::MAX).next_page(&io).is_none());
    assert!(scan(&db.snapshot(), &io, t).is_empty());

    db.truncate_temp(&io, t).unwrap();
    db.append_temp_rows(&io, &[t], rows(6..9)).unwrap();
    let read: Vec<Value> = scan(&db, &io, t)
        .into_iter()
        .flat_map(|r| r.values)
        .collect();
    assert_eq!(read, [Value::Int(6), Value::Int(7), Value::Int(8)]);
}

/// A thread that panics while the parked page account is locked poisons
/// that lock; every accessor enters it anyway. The counters it held are
/// read back, a breaker budget set after it is the one the next run
/// charges under, and a run checks the account out, charges it and parks
/// it again with its counters.
#[test]
fn a_poisoned_page_account_is_entered_and_keeps_its_counters() {
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let t = db.create_temp("acc", vec![int.clone(), int]);
    let rows = |r: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        r.map(|i| vec![Value::Int(i), Value::Int(i)]).collect()
    };
    db.append_temp_rows(&db.check_out(), &[t], rows(0..5))
        .unwrap();
    let before = db.io_stats();
    assert_eq!(before.page_writes, 1);

    db.poison_parked_account();
    assert_eq!(db.io_stats(), before, "read as it was");
    assert_eq!(db.buffer_frames(), small_db_config().buffer_frames);
    db.set_temp_budget(1);
    {
        let io = db.check_out();
        assert_eq!(
            io.borrow().temp_budget(),
            1,
            "the budget set after the panic"
        );
        assert_eq!(
            io.borrow().stats(),
            before,
            "the counters travel with the run"
        );
        // 20 more rows start pages 1 and 2; each write spills the one before.
        db.append_temp_rows(&io, &[t], rows(5..25)).unwrap();
    }
    let after = db.io_stats();
    assert_eq!(
        (after.page_writes, after.spill_evictions),
        (3, 2),
        "parked again with the run's charges"
    );
    db.reset_io();
    assert_eq!(db.io_stats(), IoStats::default());
}

#[test]
fn temporaries_append_scan_truncate() {
    let mut db = small_db();
    let t = db.create_temp(
        "Influencer'",
        vec![
            oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int),
            oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int),
        ],
    );
    let io = small_account();
    let rows = (0..50).map(|i| vec![Value::Int(i), Value::Int(i * 2)]);
    db.append_temp_rows(&io, &[t], rows).unwrap();
    assert!(io.borrow().stats().page_writes > 0, "page writes counted");
    assert_eq!(db.entity_len(t), 50);
    let rows = scan(&db, &io, t);
    assert_eq!(rows.len(), 50);
    db.truncate_temp(&io, t).unwrap();
    assert_eq!(db.entity_len(t), 0);
    // Appending to a non-temporary is rejected.
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    let item_entity = db.physical().class_entity(item_cls).unwrap();
    assert!(matches!(
        db.append_temp_rows(&io, &[t, item_entity], vec![vec![]]),
        Err(StorageError::NotTemporary(e)) if e == item_entity
    ));
    assert_eq!(db.entity_len(t), 0, "a rejected append writes nothing");
}

#[test]
fn append_temp_counts_one_write_per_page_started() {
    // `small_db`'s 256-byte pages hold 10 `[int, int]` records (8-byte
    // header + two 8-byte fields), so 25 appends start exactly pages
    // 0, 1 and 2 — the write counter must say 3, not 25 and not 2 —
    // however the 25 rows are cut into chunks.
    let row = |i: i64| vec![Value::Int(i), Value::Int(-i)];
    for chunk in [1usize, 7, 10, 25] {
        let mut db = small_db();
        let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
        let t = db.create_temp("acc", vec![int.clone(), int]);
        let io = small_account();
        let mut appended = 0usize;
        while appended < 25 {
            let n = chunk.min(25 - appended);
            let rows = (appended..appended + n).map(|i| row(i as i64));
            db.append_temp_rows(&io, &[t], rows).unwrap();
            appended += n;
            assert_eq!(
                io.borrow().stats().page_writes,
                appended.div_ceil(10) as u64,
                "chunk {chunk}: {appended} rows appended (page boundary accounting)"
            );
        }
        assert_eq!(db.num_pages(t), 3);
        assert_eq!(scan(&db, &io, t).len(), 25);
    }
}

#[test]
fn append_temp_rows_fills_its_temporaries_side_by_side() {
    // A fixpoint's accumulator (part-filled: its next page starts at its
    // row 10) and delta (empty: its page 0 starts now) take the same rows;
    // the page writes must come in the order the row-by-row loop made
    // them — delta page 0 with row 0, accumulator page 1 with row 4 —
    // which under a one-page budget decides which page is spilled.
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let acc = db.create_temp("acc", vec![int.clone(), int.clone()]);
    let delta = db.create_temp("delta", vec![int.clone(), int]);
    let row = |i: i64| vec![Value::Int(i), Value::Int(i)];
    let io = small_account();
    db.append_temp_rows(&io, &[acc], (0..6).map(row)).unwrap();
    io.borrow_mut().set_temp_budget(1);
    io.borrow_mut().reset_stats();
    db.append_temp_rows(&io, &[acc, delta], (6..12).map(row))
        .unwrap();
    let counted = io.borrow().stats();
    assert_eq!(
        counted.page_writes, 2,
        "delta page 0 and accumulator page 1"
    );
    assert_eq!(
        counted.spill_evictions, 2,
        "each write spilled the page before"
    );
    assert_eq!((db.entity_len(acc), db.entity_len(delta)), (12, 6));
    // The accumulator's page 1 was written last, so it is the resident one.
    io.borrow_mut().reset_stats();
    scan_page(&db, &io, acc, 1).unwrap();
    assert_eq!(
        io.borrow().stats().page_hits,
        1,
        "accumulator page 1 resident"
    );
    scan_page(&db, &io, delta, 0).unwrap();
    assert_eq!(
        io.borrow().stats().temp_reads,
        1,
        "delta page 0 was spilled"
    );
}

#[test]
fn truncated_temp_reuse_restarts_pages_and_accounting() {
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let t = db.create_temp("acc", vec![int.clone(), int]);
    let io = small_account();
    let rows = |r: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        r.map(|i| vec![Value::Int(i), Value::Int(i)]).collect()
    };
    db.append_temp_rows(&io, &[t], rows(0..12)).unwrap();
    assert_eq!(io.borrow().stats().page_writes, 2, "pages 0 and 1 started");
    db.truncate_temp(&io, t).unwrap();
    assert_eq!(db.entity_len(t), 0);
    assert_eq!(db.num_pages(t), 0);
    // Reuse restarts at page 0: the fresh first page is written (and
    // paid for) again, and scans see only the new contents — no frame
    // from before the truncate may satisfy a read.
    db.append_temp_rows(&io, &[t], rows(100..108)).unwrap();
    assert_eq!(
        io.borrow().stats().page_writes,
        3,
        "restarted page 0 paid for"
    );
    assert_eq!(db.num_pages(t), 1);
    let rows = scan(&db, &io, t);
    assert_eq!(rows.len(), 8);
    assert!(rows.iter().all(|r| r.values[0].as_int().unwrap() >= 100));
}

#[test]
fn relation_rows_roundtrip() {
    let mut db = small_db();
    let likes = db.catalog().relation_by_name("Likes").unwrap();
    let owner_cls = db.catalog().class_by_name("Owner").unwrap();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    let r0 = db
        .insert_row(
            likes,
            vec![Oid::new(owner_cls, 0).into(), Oid::new(item_cls, 0).into()],
        )
        .unwrap();
    let r1 = db
        .insert_row(
            likes,
            vec![Oid::new(owner_cls, 1).into(), Oid::new(item_cls, 1).into()],
        )
        .unwrap();
    assert_eq!((r0, r1), (0, 1));
    let entity = db.physical().relation_entity(likes).unwrap();
    assert_eq!(scan(&db, &small_account(), entity).len(), 2);
    let err = db.insert_row(likes, vec![Value::Int(1)]).unwrap_err();
    assert!(matches!(err, StorageError::ArityMismatch { .. }));
}

#[test]
fn stats_collect_cardinality_pages_fanout_and_chains() {
    let mut db = small_db();
    let owner_cls = db.catalog().class_by_name("Owner").unwrap();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    // A chain of 4 owners: o3 -> o2 -> o1 -> o0 -> null, each owning 2 items.
    let mut prev: Option<Oid> = None;
    for i in 0..4 {
        let it1 = db
            .insert_object(item_cls, vec![Value::text(format!("a{i}")), Value::Int(i)])
            .unwrap();
        let it2 = db
            .insert_object(item_cls, vec![Value::text(format!("b{i}")), Value::Int(i)])
            .unwrap();
        let o = db
            .insert_object(
                owner_cls,
                vec![
                    Value::text(format!("o{i}")),
                    prev.map(Value::Oid).unwrap_or(Value::Null),
                    Value::Set(vec![it1.into(), it2.into()]),
                ],
            )
            .unwrap();
        prev = Some(o);
    }
    let stats = DbStats::collect(&db);
    let owner_entity = db.physical().class_entity(owner_cls).unwrap();
    let es = stats.entity(owner_entity).unwrap();
    assert_eq!(es.cardinality, 4);
    assert!(es.pages >= 1);
    assert!(
        (es.attrs[2].avg_fanout - 2.0).abs() < 1e-9,
        "items fanout is 2"
    );
    assert!(
        (es.attrs[1].null_fraction - 0.25).abs() < 1e-9,
        "one root owner"
    );
    let chain = stats.chain(owner_cls, AttrId(1)).unwrap();
    assert_eq!(chain.max, 3);
    assert!((chain.avg - (0.0 + 1.0 + 2.0 + 3.0) / 4.0).abs() < 1e-9);
}

#[test]
fn chain_stats_survive_cycles() {
    let mut db = small_db();
    let owner_cls = db.catalog().class_by_name("Owner").unwrap();
    let a = db
        .insert_object(
            owner_cls,
            vec![Value::text("a"), Value::Null, Value::Set(vec![])],
        )
        .unwrap();
    let b = db
        .insert_object(
            owner_cls,
            vec![Value::text("b"), Value::Oid(a), Value::Set(vec![])],
        )
        .unwrap();
    db.set_attr(a, AttrId(1), Value::Oid(b)).unwrap(); // cycle a <-> b
    let stats = DbStats::collect(&db);
    assert!(
        stats.chain(owner_cls, AttrId(1)).is_some(),
        "cycle guard terminates"
    );
}

#[test]
fn snapshot_shares_data_and_isolates_mutation_and_io() {
    let mut db = small_db();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    for i in 0..10 {
        db.insert_object(item_cls, vec![Value::Text(format!("it{i}")), Value::Int(i)])
            .unwrap();
    }
    let item_entity = db.physical().class_entity(item_cls).unwrap();

    let snap = db.snapshot();
    // Identical data, independently accounted I/O.
    assert_eq!(db.scan_raw(item_entity), snap.scan_raw(item_entity));
    scan(&snap, &snap.check_out(), item_entity);
    assert!(snap.io_stats().page_reads > 0);
    assert_eq!(db.io_stats().page_reads, 0, "source buffer untouched");

    // A temp created in the snapshot does not exist in the source.
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let mut snap = snap;
    let t = snap.create_temp("session_tmp", vec![int]);
    snap.append_temp_rows(&small_account(), &[t], vec![vec![Value::Int(7)]])
        .unwrap();
    assert_eq!(snap.entity_len(t), 1);
    assert!(db.physical().entities().len() < snap.physical().entities().len());

    // Copy-on-write: mutating the source after the snapshot leaves the
    // snapshot's view of shared segments intact.
    db.insert_object(item_cls, vec![Value::Text("new".into()), Value::Int(99)])
        .unwrap();
    assert_eq!(db.entity_len(item_entity), 11);
    assert_eq!(snap.entity_len(item_entity), 10);

    // A temporary the source already holds is every snapshot's own from
    // then on: two sessions append to it through `&Database`, each behind
    // its own lock, and neither the source nor the other sees the rows.
    let (a, b) = (snap.snapshot(), snap.snapshot());
    let row = |i| vec![Value::Int(i)];
    a.append_temp_rows(&small_account(), &[t], vec![row(1), row(2)])
        .unwrap();
    b.append_temp_rows(&small_account(), &[t], vec![row(3)])
        .unwrap();
    b.truncate_temp(&small_account(), t).unwrap();
    b.append_temp_rows(&small_account(), &[t], vec![row(4)])
        .unwrap();
    let ints = |db: &Database| -> Vec<i64> {
        let rows = db.scan_raw(t);
        rows.iter().map(|r| r.values[0].as_int().unwrap()).collect()
    };
    assert_eq!(
        (ints(&snap), ints(&a), ints(&b)),
        (vec![7], vec![7, 1, 2], vec![4])
    );
}

/// `&Database` may be shared across threads: what a run writes through it
/// sits behind locks of its own.
#[test]
fn database_is_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Database>();
}

#[test]
fn sparse_keys_answer_none_in_the_gaps_and_past_the_end() {
    // Keys out of order with gaps between them.
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let mut s = Segment::with_rpp(vec![int], 4);
    for k in [9u32, 2, 5] {
        s.append(Row {
            key: k,
            values: vec![Value::Int(k as i64)],
        });
    }
    assert_eq!(
        [2, 5, 9].map(|k| s.position_of(k)),
        [Some(1), Some(2), Some(0)]
    );
    for absent in [0, 1, 3, 8, 10, u32::MAX] {
        assert_eq!(s.position_of(absent), None, "key {absent}");
    }
    s.shuffle(3);
    let pos = s.position_of(5).unwrap();
    assert_eq!(s.row_at(pos).unwrap().values[0], Value::Int(5));
    assert_eq!(s.position_of(3), None, "a shuffle fills no gap");
}

/// The buffer as it was kept before the dense tables: a map of the
/// resident pages, each victim found by its smallest stamp.
struct Model {
    resident: std::collections::HashMap<PageId, (u64, bool)>,
    clock: u64,
    capacity: usize,
    budget: usize,
    stats: IoStats,
}

impl Model {
    fn evict(&mut self, temps_only: bool) {
        let eligible = self.resident.iter().filter(|(_, f)| f.1 || !temps_only);
        let victim = eligible.min_by_key(|(_, f)| f.0).map(|(p, _)| *p);
        self.resident.remove(&victim.expect("a victim"));
    }

    /// A fetch (or a write): whether it was a physical read.
    fn touch(&mut self, page: PageId, temp: bool, write: bool) -> bool {
        self.clock += 1;
        self.stats.page_writes += u64::from(write);
        if let Some(frame) = self.resident.get_mut(&page) {
            frame.0 = self.clock;
            self.stats.page_hits += u64::from(!write);
            return false;
        }
        let temps = |m: &Model| m.resident.values().filter(|f| f.1).count();
        while temp && self.budget > 0 && temps(self) >= self.budget {
            self.evict(true);
            self.stats.spill_evictions += 1;
        }
        if self.resident.len() >= self.capacity {
            self.evict(false);
            self.stats.page_evictions += 1;
        }
        self.resident.insert(page, (self.clock, temp));
        self.stats.page_reads += u64::from(!write);
        self.stats.temp_reads += u64::from(!write && temp);
        !write
    }
}

/// The dense tables are the map they replace: every fetch answers, and
/// every counter ends, as the model's — over random steps on three base
/// and two temporary entities, at every capacity from 1 to 8.
#[test]
fn dense_tables_are_the_map_they_replace() {
    let mut rng = oorq_prng::Prng::new(20);
    let (mut steps, mut misses) = (0, 0);
    for capacity in 1..=8 {
        let mut b = BufferManager::new(capacity);
        let mut model = Model {
            resident: Default::default(),
            clock: 0,
            capacity,
            budget: 0,
            stats: IoStats::default(),
        };
        for step in 0..3000 {
            let entity = rng.range_u32(0, 5);
            let page = PageId {
                entity: EntityId(entity),
                page: rng.range_u32(0, 7),
            };
            let temp = entity >= 3;
            match rng.index(20) {
                0 => {
                    b.clear();
                    model.resident.clear();
                    (model.clock, model.stats) = (0, IoStats::default());
                }
                1 | 2 => {
                    b.invalidate_entity(page.entity);
                    model.resident.retain(|p, _| p.entity != page.entity);
                }
                3 | 4 => {
                    model.budget = rng.index(5);
                    b.set_temp_budget(model.budget);
                }
                5..=9 => {
                    b.write(page, temp);
                    model.touch(page, temp, true);
                }
                _ => {
                    let missed = b.fetch(page, temp);
                    assert_eq!(
                        missed,
                        model.touch(page, temp, false),
                        "capacity {capacity}, step {step}: {page:?}"
                    );
                    misses += usize::from(missed);
                }
            }
            assert_eq!(b.stats(), model.stats, "capacity {capacity}, step {step}");
            steps += 1;
        }
    }
    assert!(steps >= 20_000 && misses > 2_000, "{steps} {misses}");
}
