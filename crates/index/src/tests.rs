//! Index tests over a small music-like database, plus B+-tree property
//! tests against a `BTreeMap` oracle.

use std::sync::Arc;

use oorq_prng::Prng;
use oorq_schema::{AttributeDef, Catalog, ClassDef, SchemaBuilder, TypeExpr};
use oorq_storage::{Database, Oid, StorageConfig, Value};

use crate::btree::BPlusTree;
use crate::{IndexSet, PathIndex, SelectionIndex};

fn catalog() -> Arc<Catalog> {
    Arc::new(
        SchemaBuilder::new()
            .class(
                ClassDef::new("Composer")
                    .attr(AttributeDef::stored("name", TypeExpr::text()))
                    .attr(AttributeDef::stored(
                        "works",
                        TypeExpr::set(TypeExpr::class("Composition")),
                    )),
            )
            .class(
                ClassDef::new("Composition")
                    .attr(AttributeDef::stored("title", TypeExpr::text()))
                    .attr(AttributeDef::stored(
                        "instruments",
                        TypeExpr::set(TypeExpr::class("Instrument")),
                    )),
            )
            .class(ClassDef::new("Instrument").attr(AttributeDef::stored("name", TypeExpr::text())))
            .build()
            .unwrap(),
    )
}

/// Build a tiny database: `n` composers, 2 works each, each work using 2
/// instruments out of a pool of 4.
fn music_db(n: u32) -> Database {
    let cat = catalog();
    let mut db = Database::new(cat, StorageConfig::default());
    let composer = db.catalog().class_by_name("Composer").unwrap();
    let composition = db.catalog().class_by_name("Composition").unwrap();
    let instrument = db.catalog().class_by_name("Instrument").unwrap();
    let pool: Vec<Oid> = ["harpsichord", "flute", "violin", "organ"]
        .iter()
        .map(|i| db.insert_object(instrument, vec![Value::text(*i)]).unwrap())
        .collect();
    for c in 0..n {
        let mut works = Vec::new();
        for w in 0..2u32 {
            let insts = vec![
                Value::Oid(pool[(c as usize + w as usize) % 4]),
                Value::Oid(pool[(c as usize + w as usize + 1) % 4]),
            ];
            let comp = db
                .insert_object(
                    composition,
                    vec![Value::text(format!("op{c}-{w}")), Value::Set(insts)],
                )
                .unwrap();
            works.push(Value::Oid(comp));
        }
        db.insert_object(
            composer,
            vec![Value::text(format!("c{c}")), Value::Set(works)],
        )
        .unwrap();
    }
    db
}

#[test]
fn selection_index_probe_matches_scan() {
    let mut db = music_db(20);
    let composer = db.catalog().class_by_name("Composer").unwrap();
    let (name_attr, _) = db.catalog().attr(composer, "name").unwrap();
    let idx = SelectionIndex::build(&mut db, composer, name_attr);
    assert_eq!(idx.distinct_keys(), 20);
    let io = db.check_out();
    let hits = idx.probe(&io, &Value::text("c7"));
    assert_eq!(hits.len(), 1);
    assert_eq!(
        db.read_attr_raw(hits[0], name_attr).unwrap(),
        Value::text("c7")
    );
    let again = idx.probe(&io, &Value::text("c7"));
    assert_eq!(
        again.as_ptr(),
        hits.as_ptr(),
        "lent where it lies, not copied"
    );
    assert!(idx.probe(&io, &Value::text("nobody")).is_empty());
    drop(io);
    let charged = db.io_stats().index_reads;
    assert_eq!(
        charged,
        3 * idx.stats().nblevels as u64,
        "a probe charges the levels"
    );
}

#[test]
fn selection_index_on_collection_indexes_members() {
    let mut db = music_db(4);
    let composition = db.catalog().class_by_name("Composition").unwrap();
    let (instr_attr, _) = db.catalog().attr(composition, "instruments").unwrap();
    let idx = SelectionIndex::build(&mut db, composition, instr_attr);
    let instrument = db.catalog().class_by_name("Instrument").unwrap();
    let harpsichord = Oid::new(instrument, 0);
    let hits = idx.probe(&db.check_out(), &Value::Oid(harpsichord));
    // Every hit's instrument set contains the harpsichord.
    assert!(!hits.is_empty());
    for h in hits {
        let v = db.read_attr_raw(*h, instr_attr).unwrap();
        assert!(v.members().contains(&Value::Oid(harpsichord)));
    }
}

#[test]
fn index_descriptor_registered_in_physical_schema() {
    let mut db = music_db(50);
    let composer = db.catalog().class_by_name("Composer").unwrap();
    let (name_attr, _) = db.catalog().attr(composer, "name").unwrap();
    let idx = SelectionIndex::build(&mut db, composer, name_attr);
    let desc = db.physical().selection_index(composer, name_attr).unwrap();
    assert_eq!(desc.id, idx.id);
    assert_eq!(desc.stats, idx.stats());
    assert!(desc.stats.nbleaves >= 1);
}

#[test]
fn path_index_matches_naive_traversal() {
    let mut db = music_db(12);
    let composer = db.catalog().class_by_name("Composer").unwrap();
    let composition = db.catalog().class_by_name("Composition").unwrap();
    let (works, _) = db.catalog().attr(composer, "works").unwrap();
    let (instruments, _) = db.catalog().attr(composition, "instruments").unwrap();
    // The paper's works.instruments path index.
    let pix = PathIndex::build(&mut db, vec![(composer, works), (composition, instruments)]);
    let io = db.check_out();
    for c in 0..12u32 {
        let head = Oid::new(composer, c);
        let tails = pix.probe(&io, head);
        assert_eq!(tails.len(), 4, "2 works x 2 instruments");
        // Naive traversal agrees.
        let mut naive = Vec::new();
        let wv = db.read_attr_raw(head, works).unwrap();
        for w in wv.members() {
            let w = w.as_oid().unwrap();
            let iv = db.read_attr_raw(w, instruments).unwrap();
            for i in iv.members() {
                naive.push(vec![w, i.as_oid().unwrap()]);
            }
        }
        let mut sorted_tails = tails.to_vec();
        sorted_tails.sort();
        naive.sort();
        assert_eq!(sorted_tails, naive);
    }
    assert!(db.physical().path_index(&pix.path).is_some());
}

/// A one-step path index is a join index \[Va87\]: one oid per tail.
#[test]
fn one_step_path_index_is_a_join_index() {
    let mut db = music_db(5);
    let composer = db.catalog().class_by_name("Composer").unwrap();
    let (works, _) = db.catalog().attr(composer, "works").unwrap();
    let jix = PathIndex::build(&mut db, vec![(composer, works)]);
    let tails = jix.probe(&db.check_out(), Oid::new(composer, 0));
    assert_eq!(tails.len(), 2);
    assert_eq!(tails[0].len(), 1);
}

#[test]
fn index_set_stores_and_finds() {
    let mut db = music_db(3);
    let composer = db.catalog().class_by_name("Composer").unwrap();
    let (name_attr, _) = db.catalog().attr(composer, "name").unwrap();
    let (works, _) = db.catalog().attr(composer, "works").unwrap();
    let mut set = IndexSet::new();
    let sid = set.add_selection(SelectionIndex::build(&mut db, composer, name_attr));
    let pid = set.add_path(PathIndex::build(&mut db, vec![(composer, works)]));
    assert!(set.selection(sid).is_some());
    assert!(set.path(pid).is_some());
    assert!(set.selection(pid).is_none());
}

/// B+-tree agrees with a BTreeMap oracle on random multimap inserts.
#[test]
fn btree_matches_oracle() {
    let mut rng = Prng::new(0x5eed_b7ee);
    for case in 0..64 {
        let order = 4 + rng.index(12);
        let n_ops = rng.index(400);
        let mut tree = BPlusTree::new(order);
        let mut oracle: std::collections::BTreeMap<i64, Vec<u32>> = Default::default();
        for _ in 0..n_ops {
            let k = rng.range_i64(0, 200);
            let v = rng.range_u32(0, 1000);
            tree.insert(k, v);
            oracle.entry(k).or_default().push(v);
        }
        tree.check_invariants().unwrap();
        assert_eq!(
            tree.len(),
            oracle.values().map(Vec::len).sum::<usize>(),
            "case {case} (order {order})"
        );
        assert_eq!(tree.distinct_keys(), oracle.len());
        for (k, vs) in &oracle {
            assert_eq!(tree.get(k), Some(vs.as_slice()));
        }
        // Full iteration is sorted and complete.
        let keys: Vec<i64> = tree.iter().iter().map(|(k, _)| **k).collect();
        let oracle_keys: Vec<i64> = oracle.keys().copied().collect();
        assert_eq!(keys, oracle_keys);
    }
}

/// nblevels/nbleaves stay consistent with size.
#[test]
fn btree_shape_statistics() {
    let mut rng = Prng::new(0x5a9e5);
    for _ in 0..32 {
        let n = rng.index(600);
        let mut tree = BPlusTree::new(8);
        for k in 0..n {
            tree.insert(k, ());
        }
        tree.check_invariants().unwrap();
        let leaves = tree.nbleaves() as usize;
        // Each leaf holds at most `order` entries.
        assert!(leaves * 8 >= n.max(1));
        if n > 8 {
            assert!(tree.nblevels() >= 2);
        }
    }
}
