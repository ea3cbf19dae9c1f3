//! Method implementations for computed attributes.
//!
//! The paper treats methods as *computed attributes* (§2.1). The schema
//! declares them with an evaluation-cost hint; the executor dispatches
//! invocations to the implementations registered here.

use std::collections::HashMap;
use std::sync::Arc;

use oorq_schema::{AttrId, Catalog, ClassId};
use oorq_storage::{Database, Oid, Value};

/// A method body: computes the attribute value of one object.
pub type MethodFn = Arc<dyn Fn(&Database, Oid) -> Value + Send + Sync>;

/// Registry of method implementations, keyed by `(class, attribute)`.
/// Lookups walk up the `isa` hierarchy, so a method registered on a
/// superclass applies to its subclasses.
#[derive(Clone, Default)]
pub struct MethodRegistry {
    map: HashMap<(ClassId, AttrId), MethodFn>,
}

impl std::fmt::Debug for MethodRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MethodRegistry({} methods)", self.map.len())
    }
}

impl MethodRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a method implementation.
    pub(crate) fn register(
        &mut self,
        class: ClassId,
        attr: AttrId,
        f: impl Fn(&Database, Oid) -> Value + Send + Sync + 'static,
    ) {
        self.map.insert((class, attr), Arc::new(f));
    }

    /// Invoke the method for `oid.attr`, if registered (directly or on a
    /// superclass that declared the same attribute id — attribute ids are
    /// stable under inheritance because layouts are parent-first).
    pub(crate) fn call(&self, db: &Database, oid: Oid, attr: AttrId) -> Option<Value> {
        let mut cls = Some(oid.class);
        while let Some(c) = cls {
            if let Some(f) = self.map.get(&(c, attr)) {
                return Some(f(db, oid));
            }
            cls = db.catalog().class(c).isa;
        }
        None
    }

    /// Register the music schema's `age` method (`age = 1800 -
    /// birth_year`, a fixed "present year" keeping the data
    /// deterministic).
    pub fn with_music_methods(catalog: &Catalog) -> Self {
        let mut reg = Self::new();
        if let Some(person) = catalog.class_by_name("Person") {
            if let Some((age, _)) = catalog.attr(person, "age") {
                let (birth, _) = catalog.attr(person, "birth_year").expect("music schema");
                reg.register(person, age, move |db, oid| {
                    match db.read_attr_raw(oid, birth) {
                        Ok(Value::Int(y)) => Value::Int(1800 - y),
                        _ => Value::Null,
                    }
                });
            }
        }
        reg
    }

    /// Register the parts schema's `unit_test_cost` method
    /// (`weight * 2`, an arbitrary deterministic function).
    pub fn with_parts_methods(catalog: &Catalog) -> Self {
        let mut reg = Self::new();
        if let Some(part) = catalog.class_by_name("Part") {
            if let Some((utc, _)) = catalog.attr(part, "unit_test_cost") {
                let (weight, _) = catalog.attr(part, "weight").expect("parts schema");
                reg.register(part, utc, move |db, oid| {
                    match db.read_attr_raw(oid, weight) {
                        Ok(Value::Int(w)) => Value::Int(2 * w),
                        _ => Value::Null,
                    }
                });
            }
        }
        reg
    }
}
