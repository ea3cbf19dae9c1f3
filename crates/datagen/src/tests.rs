//! Generator sanity tests.

use std::sync::Arc;

use oorq_query::paper::music_catalog;
use oorq_storage::{DbStats, Value};

use crate::*;

#[test]
fn music_db_respects_configuration() {
    let cat = Arc::new(music_catalog());
    let cfg = MusicConfig {
        chains: 3,
        chain_len: 5,
        works_per_composer: 2,
        instruments_per_work: 2,
        harpsichord_fraction: 0.5,
        ..Default::default()
    };
    let m = MusicDb::generate(Arc::clone(&cat), cfg);
    assert_eq!(m.composer_count(), 15);
    assert_eq!(m.db.object_count(m.composition), 30);
    // Bach exists and is the tail of chain 0.
    let name = m.db.read_attr_raw(m.bach, m.name_attr).unwrap();
    assert_eq!(name, Value::text("Bach"));
    // Chain statistics: max depth = chain_len - 1.
    let stats = DbStats::collect(&m.db);
    let chain = stats.chain(m.composer, m.master_attr).unwrap();
    assert_eq!(chain.max, 4);
    // Works are wired with inverse authors.
    let (author_attr, _) = cat
        .attr(cat.class_by_name("Composition").unwrap(), "author")
        .unwrap();
    let works = m.db.read_attr_raw(m.bach, m.works_attr).unwrap();
    for w in works.members() {
        let a =
            m.db.read_attr_raw(w.as_oid().unwrap(), author_attr)
                .unwrap();
        assert_eq!(a, Value::Oid(m.bach));
    }
}

#[test]
fn music_generation_is_deterministic() {
    let cat = Arc::new(music_catalog());
    let a = MusicDb::generate(Arc::clone(&cat), MusicConfig::default());
    let b = MusicDb::generate(Arc::clone(&cat), MusicConfig::default());
    let ea = a.db.physical().class_entity(a.composition).unwrap();
    let eb = b.db.physical().class_entity(b.composition).unwrap();
    let ra: Vec<_> = a.db.scan_raw(ea).into_iter().map(|r| r.values).collect();
    let rb: Vec<_> = b.db.scan_raw(eb).into_iter().map(|r| r.values).collect();
    assert_eq!(ra, rb);
}

#[test]
fn harpsichord_fraction_controlled() {
    let cat = Arc::new(music_catalog());
    let m = MusicDb::generate(
        Arc::clone(&cat),
        MusicConfig {
            chains: 10,
            chain_len: 10,
            harpsichord_fraction: 0.0,
            ..Default::default()
        },
    );
    // Nobody uses a harpsichord.
    let comp_e = m.db.physical().class_entity(m.composition).unwrap();
    for row in m.db.scan_raw(comp_e) {
        let insts = &row.values[m.instruments_attr.0 as usize];
        assert!(!insts.members().contains(&Value::Oid(m.instruments[0])));
    }
}

#[test]
fn parts_db_has_expected_shape() {
    let cat = Arc::new(parts_catalog());
    let cfg = PartsConfig {
        roots: 2,
        fanout: 2,
        depth: 3,
        ..Default::default()
    };
    let p = PartsDb::generate(Arc::clone(&cat), cfg);
    // Each root tree has 1 + 2 + 4 + 8 = 15 parts.
    assert_eq!(p.part_count(), 30);
    assert_eq!(p.roots.len(), 2);
    // Roots have fanout children; leaves have none.
    let subs = p.db.read_attr_raw(p.roots[0], p.subparts_attr).unwrap();
    assert_eq!(subs.members().len(), 2);
    // Assembly chain statistics: depth equals the configured depth.
    let stats = DbStats::collect(&p.db);
    let chain = stats.chain(p.part, p.assembly_attr).unwrap();
    assert_eq!(chain.max, 3);
}
