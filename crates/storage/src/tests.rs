//! Database-level tests for the object store.

use std::sync::Arc;

use oorq_schema::{
    AttrId, AttributeDef, Catalog, ClassDef, Field, RelationDef, SchemaBuilder, TypeExpr,
};

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
    let items = db.read_attr(&io, owner, AttrId(2)).unwrap();
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
    assert_eq!(db.read_attr(&io, b, AttrId(1)).unwrap(), Value::Oid(a));
}

#[test]
fn scans_account_page_io() {
    let mut db = small_db();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    for i in 0..40 {
        db.insert_object(item_cls, vec![Value::text(format!("i{i}")), Value::Int(i)])
            .unwrap();
    }
    let entity = db.physical().entities_of_class(item_cls)[0];
    let pages = db.num_pages(entity);
    assert!(pages > 1, "need a multi-page extent for this test");
    let io = small_account();
    let rows = db.scan(&io, entity);
    assert_eq!(rows.len(), 40);
    assert_eq!(io.borrow().stats().page_reads, pages as u64);
    // Second scan with a tiny buffer (4 frames) still misses every page
    // if the extent exceeds the buffer; otherwise hits.
    io.borrow_mut().reset_stats();
    let _ = db.scan(&io, entity);
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
    let item_entity = db.physical().entities_of_class(item_cls)[0];

    // Clustered (insertion-order) placement: dereferencing items of
    // consecutive owners hits mostly-resident pages.
    let io = small_account();
    for (_, item) in &owners {
        db.read_attr(&io, *item, AttrId(1)).unwrap();
    }
    let clustered_reads = io.borrow().stats().page_reads;

    // Scattered placement: many more physical reads.
    db.shuffle_entity(item_entity, 7);
    io.borrow_mut().clear();
    for (_, item) in &owners {
        db.read_attr(&io, *item, AttrId(1)).unwrap();
    }
    let scattered_reads = io.borrow().stats().page_reads;
    assert!(
        scattered_reads > clustered_reads,
        "scattered {scattered_reads} should exceed clustered {clustered_reads}"
    );
}

#[test]
fn vertical_decomposition_reads_only_needed_fragment() {
    let mut db = small_db();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    for i in 0..32 {
        db.insert_object(item_cls, vec![Value::text(format!("i{i}")), Value::Int(i)])
            .unwrap();
    }
    let frags = db
        .decompose_vertical(item_cls, &[vec![AttrId(0)], vec![AttrId(1)]])
        .unwrap();
    assert_eq!(frags.len(), 2);
    // Whole-object read touches both fragments.
    let io = small_account();
    let vals = db.read_object(&io, Oid::new(item_cls, 5)).unwrap();
    assert_eq!(vals[1], Value::Int(5));
    assert_eq!(io.borrow().stats().page_reads, 2);
    // Single-attribute read touches one.
    io.borrow_mut().clear();
    let w = db.read_attr(&io, Oid::new(item_cls, 9), AttrId(1)).unwrap();
    assert_eq!(w, Value::Int(9));
    assert_eq!(io.borrow().stats().page_reads, 1);
    // Narrow fragment occupies fewer pages than the original extent shape.
    let (f1, f0) = (frags[1], frags[0]);
    assert!(db.num_pages(f1) <= db.num_pages(f0));
    // Further decomposition is rejected.
    assert!(matches!(
        db.decompose_vertical(item_cls, &[vec![AttrId(0), AttrId(1)]]),
        Err(StorageError::Decomposed(_))
    ));
}

#[test]
fn horizontal_decomposition_routes_and_records_fractions() {
    let mut db = small_db();
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    for i in 0..20 {
        db.insert_object(item_cls, vec![Value::text(format!("i{i}")), Value::Int(i)])
            .unwrap();
    }
    let frags = db
        .decompose_horizontal(
            item_cls,
            2,
            &["weight < 15".into(), "weight >= 15".into()],
            |vals| if vals[1].as_int().unwrap() < 15 { 0 } else { 1 },
        )
        .unwrap();
    assert_eq!(db.entity_len(frags[0]), 15);
    assert_eq!(db.entity_len(frags[1]), 5);
    match &db.physical().entity(frags[0]).fragment {
        Some(FragmentSpec::Horizontal { fraction, .. }) => {
            assert!((fraction - 0.75).abs() < 1e-9)
        }
        other => panic!("expected horizontal fragment, got {other:?}"),
    }
    // Objects remain addressable by oid.
    let v = db
        .read_object(&small_account(), Oid::new(item_cls, 17))
        .unwrap();
    assert_eq!(v[1], Value::Int(17));
}

/// `touch_object` pays what `read_object` pays — the same fetches in the
/// same order, so the same hits, misses and LRU victims under two frames
/// — and fails where it fails, on every layout.
#[test]
fn touch_object_accounts_and_fails_as_read_object_does() {
    for layout in ["single", "vertical", "horizontal"] {
        let mut db = small_db();
        let item_cls = db.catalog().class_by_name("Item").unwrap();
        for i in 0..40 {
            db.insert_object(item_cls, vec![Value::text(format!("i{i}")), Value::Int(i)])
                .unwrap();
        }
        match layout {
            "vertical" => {
                drop(db.decompose_vertical(item_cls, &[vec![AttrId(0)], vec![AttrId(1)]]))
            }
            "horizontal" => drop(db.decompose_horizontal(
                item_cls,
                2,
                &["weight % 3 = 0".into(), "weight % 3 <> 0".into()],
                |vals| usize::from(vals[1].as_int().unwrap() % 3 != 0),
            )),
            _ => {}
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
                "{layout}: {oid}"
            );
            let (touched, read) = (touched.borrow().stats(), read.borrow().stats());
            assert_eq!(touched, read, "{layout}: after {oid}");
        }
        let read = read.borrow().stats();
        assert!(read.page_reads > 2 && read.page_hits > 0);
    }
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
    db.append_temp_rows(&io, &[t], rows.collect()).unwrap();
    assert!(io.borrow().stats().page_writes > 0, "page writes counted");
    assert_eq!(db.entity_len(t), 50);
    let rows = db.scan(&io, t);
    assert_eq!(rows.len(), 50);
    db.truncate_temp(&io, t).unwrap();
    assert_eq!(db.entity_len(t), 0);
    // Appending to a non-temporary is rejected.
    let item_cls = db.catalog().class_by_name("Item").unwrap();
    let item_entity = db.physical().entities_of_class(item_cls)[0];
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
            let rows = (appended..appended + n).map(|i| row(i as i64)).collect();
            db.append_temp_rows(&io, &[t], rows).unwrap();
            appended += n;
            assert_eq!(
                io.borrow().stats().page_writes,
                appended.div_ceil(10) as u64,
                "chunk {chunk}: {appended} rows appended (page boundary accounting)"
            );
        }
        assert_eq!(db.num_pages(t), 3);
        assert_eq!(db.scan(&io, t).len(), 25);
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
    db.append_temp_rows(&io, &[acc], (0..6).map(row).collect())
        .unwrap();
    io.borrow_mut().set_temp_budget(1);
    io.borrow_mut().reset_stats();
    db.append_temp_rows(&io, &[acc, delta], (6..12).map(row).collect())
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
    db.scan_page(&io, acc, 1).unwrap();
    assert_eq!(
        io.borrow().stats().page_hits,
        1,
        "accumulator page 1 resident"
    );
    db.scan_page(&io, delta, 0).unwrap();
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
    let rows = |r: std::ops::Range<i64>| r.map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
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
    let rows = db.scan(&io, t);
    assert_eq!(rows.len(), 8);
    assert!(rows.iter().all(|r| r.values[0].as_int().unwrap() >= 100));
}

#[test]
fn worker_views_forked_mid_temp_merge_write_accounting() {
    // A temporary half-filled by one lane and extended by another (the
    // exchange pattern: breaker temps outlive a fork) must charge each
    // page start to exactly one lane, and the merged totals must add up.
    let mut db = small_db();
    let int = oorq_schema::ResolvedType::Atomic(oorq_schema::AtomicType::Int);
    let t = db.create_temp("acc", vec![int.clone(), int]);
    let io = db.check_out();
    let rows = |r: std::ops::Range<i64>| r.map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
    db.append_temp_rows(&io, &[t], rows(0..5)).unwrap();
    assert_eq!(
        io.borrow().stats().page_writes,
        1,
        "main lane started page 0"
    );

    // Fork a 2-worker-style account mid-page: rows 5..9 continue page 0
    // (already paid), row 10 — mid-chunk — starts page 1 in this lane.
    let lane = Account::new(io.borrow().fork(4, 2));
    db.append_temp_rows(&lane, &[t], rows(5..15)).unwrap();
    let lane = lane.into_inner().stats();
    assert_eq!(lane.page_writes, 1, "lane paid only the page it started");
    io.borrow_mut().absorb_stats(lane);
    assert_eq!(io.borrow().stats().page_writes, 2);

    // A second lane scanning the temp pays its own cold reads (forks
    // start empty) and they merge into the run's totals too.
    let lane2 = Account::new(io.borrow().fork(4, 2));
    let rows = db.scan(&lane2, t);
    let lane2 = lane2.into_inner().stats();
    assert_eq!(rows.len(), 15);
    assert_eq!(lane2.page_reads, 2, "both temp pages cold in the fork");
    assert_eq!(lane2.page_writes, 0);
    io.borrow_mut().absorb_stats(lane2);
    // Checked in, the run's account is the database's again.
    assert_eq!(db.io_stats(), IoStats::default(), "the stand-in, meanwhile");
    drop(io);
    let total = db.io_stats();
    assert_eq!(total.page_writes, 2);
    assert!(total.page_reads >= 2);
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
    let entity = db.physical().entities_of_relation(likes)[0];
    assert_eq!(db.scan(&small_account(), entity).len(), 2);
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
    let owner_entity = db.physical().entities_of_class(owner_cls)[0];
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
    let item_entity = db.physical().entities_of_class(item_cls)[0];

    let snap = db.snapshot();
    // Identical data, independently accounted I/O.
    assert_eq!(db.scan_raw(item_entity), snap.scan_raw(item_entity));
    snap.scan(&snap.check_out(), item_entity);
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
}
