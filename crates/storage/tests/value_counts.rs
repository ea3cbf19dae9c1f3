//! The value-count tables of `DbStats` on a generated music database:
//! what a field holds, and what it holds as seen through a reference.

use std::sync::Arc;

use oorq_datagen::{MusicConfig, MusicDb};
use oorq_query::paper::music_catalog;
use oorq_schema::AttrId;
use oorq_storage::{AttrStats, DbStats, Oid, Value};

fn music() -> MusicDb {
    let config = MusicConfig {
        chains: 6,
        chain_len: 5,
        works_per_composer: 4,
        instruments_per_work: 3,
        ..MusicConfig::default()
    };
    MusicDb::generate(Arc::new(music_catalog()), config)
}

/// Statistics of `attr` of a class stored whole.
fn field(m: &MusicDb, stats: &DbStats, class: oorq_schema::ClassId, attr: AttrId) -> AttrStats {
    let entity = m.db.physical().class_entity(class).unwrap();
    stats.entity(entity).unwrap().attrs[attr.0 as usize].clone()
}

#[test]
fn every_table_seen_through_a_reference_sums_to_the_references_slots() {
    let m = music();
    let stats = DbStats::collect(&m.db);
    let mut seen_through = 0;
    for desc in m.db.physical().entities() {
        let rows = m.db.scan_raw(desc.id);
        let types = m.db.entity_field_types(desc.id);
        for (f, a) in stats.entity(desc.id).unwrap().attrs.iter().enumerate() {
            let slots: usize = rows.iter().map(|r| r.values[f].members().len()).sum();
            // Every name, title and year of the generator is non-null.
            for (_, through) in &a.through {
                assert_eq!(through.slots(), slots as u64, "{}", desc.name);
                seen_through += 1;
            }
            // The field's own table is kept where a literal can match it.
            let kept = if types[f].referenced_class().is_some() {
                0
            } else {
                slots as u64
            };
            assert_eq!(a.counts.slots(), kept, "{}", desc.name);
        }
    }
    // master → name, birth_year; works → title; author → name,
    // birth_year; instruments → name; Play.who → name, birth_year;
    // Play.instrument → name.
    assert_eq!(seen_through, 9);
    let works = field(&m, &stats, m.composer, m.works_attr);
    assert_eq!(works.distinct, 30 * 4);
    assert_eq!(works.max_dup, 1, "a work has one author");
}

#[test]
fn harpsichord_through_instruments_is_what_a_scan_of_the_compositions_counts() {
    let m = music();
    let stats = DbStats::collect(&m.db);
    let (name, _) = m.db.catalog().attr(m.instrument, "name").unwrap();
    let instruments = field(&m, &stats, m.composition, m.instruments_attr);
    let through = instruments
        .through(name)
        .expect("Instrument.name is atomic");
    let compositions = m.db.physical().class_entity(m.composition).unwrap();
    let works = m.db.scan_raw(compositions);
    for (i, instrument) in ["harpsichord", "flute"].into_iter().enumerate() {
        let oid = Value::Oid(m.instruments[i]);
        let held = works
            .iter()
            .flat_map(|w| w.values[m.instruments_attr.0 as usize].members())
            .filter(|v| **v == oid)
            .count() as u64;
        assert!(held > 0);
        assert_eq!(through.count(&Value::text(instrument)), held);
        let p = through.frequency(&Value::text(instrument)).unwrap();
        assert_eq!(p, held as f64 / (30 * 4 * 3) as f64);
    }
    // The key is uniform in its own extent, skewed through the reference.
    let own = field(&m, &stats, m.instrument, name);
    assert_eq!(
        (own.max_dup, own.counts.count(&Value::text("flute"))),
        (1, 1)
    );
    assert!(through.count(&Value::text("flute")) > 3 * through.count(&Value::text("harpsichord")));
    // Absent: one slot, not none.
    assert_eq!(through.count(&Value::text("theremin")), 0);
    assert_eq!(
        through.frequency(&Value::text("theremin")),
        Some(1.0 / through.slots() as f64)
    );
}

#[test]
fn a_dangling_oid_is_skipped() {
    let mut m = music();
    let before = DbStats::collect(&m.db);
    let (name, _) = m.db.catalog().attr(m.instrument, "name").unwrap();
    let compositions = m.db.physical().class_entity(m.composition).unwrap();
    let slots = |m: &MusicDb, stats: &DbStats| {
        let held = m.db.scan_raw(compositions);
        let held = held
            .iter()
            .map(|w| w.values[m.instruments_attr.0 as usize].members().len() as u64);
        let instruments = field(m, stats, m.composition, m.instruments_attr);
        (
            held.sum::<u64>(),
            instruments.through(name).unwrap().slots(),
        )
    };
    let (held, through) = slots(&m, &before);
    assert_eq!(held, through);
    // One work gains a reference to an instrument that does not exist.
    let work = Oid::new(m.composition, 0);
    let mut members = m.db.read_attr_raw(work, m.instruments_attr).unwrap();
    let Value::Set(set) = &mut members else {
        panic!("instruments is a set");
    };
    set.push(Value::Oid(Oid::new(m.instrument, 9_999)));
    m.db.set_attr(work, m.instruments_attr, members).unwrap();
    let after = DbStats::collect(&m.db);
    assert_eq!(slots(&m, &after), (held + 1, through));
}
