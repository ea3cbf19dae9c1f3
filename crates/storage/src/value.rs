//! Runtime values and object identifiers.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use oorq_schema::ClassId;

/// An object identifier: the class of the object plus its position in the
/// class's *logical* extension. Physical placement (page, slot) is a
/// property of the storage segment, not of the oid — the paper's direct
/// storage model \[VKC86\] stores oids of sub-objects inside owner objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid {
    /// Class of the object.
    pub class: ClassId,
    /// Logical index in the class extension.
    pub index: u32,
}

impl Oid {
    /// Convenience constructor.
    pub fn new(class: ClassId, index: u32) -> Self {
        Oid { class, index }
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}:{}", self.class.0, self.index)
    }
}

/// A runtime value: an atomic value, an object reference, or a
/// constructed (tuple/set/list) value.
///
/// `Value` implements a *total* equality, ordering and hash (floats
/// compare by their bit pattern via [`f64::total_cmp`]) so that values can
/// be deduplicated in fixpoint deltas and used as index keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent value (e.g. a root composer's `master`).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Object reference.
    Oid(Oid),
    /// Set of values (kept in insertion order; equality is order-sensitive
    /// on purpose — sets are normalized at construction by the store).
    Set(Vec<Value>),
    /// List of values.
    List(Vec<Value>),
    /// Tuple of values.
    Tuple(Vec<Value>),
}

impl Value {
    /// Text constructor.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Discriminant rank used to order values of different kinds.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
            Value::Oid(_) => 5,
            Value::Set(_) => 6,
            Value::List(_) => 7,
            Value::Tuple(_) => 8,
        }
    }

    /// As integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// As text, if it is one.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// As oid, if it is one.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Oid(o) => Some(*o),
            _ => None,
        }
    }

    /// The elements of a set or list value; a scalar is viewed as a
    /// singleton and `Null` as empty. This is how implicit joins iterate a
    /// reference-valued attribute uniformly.
    pub fn members(&self) -> &[Value] {
        match self {
            Value::Set(vs) | Value::List(vs) => vs,
            Value::Null => &[],
            other => std::slice::from_ref(other),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Numeric cross-kind comparison: compare as floats.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Oid(a), Oid(b)) => a.cmp(b),
            (Set(a), Set(b)) | (List(a), List(b)) | (Tuple(a), Tuple(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that are numerically equal may compare equal via
            // the Int/Float arm of `cmp`, so hash all numbers as f64 bits.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(x) => {
                2u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Text(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Oid(o) => {
                5u8.hash(state);
                o.hash(state);
            }
            Value::Set(vs) => {
                6u8.hash(state);
                vs.hash(state);
            }
            Value::List(vs) => {
                7u8.hash(state);
                vs.hash(state);
            }
            Value::Tuple(vs) => {
                8u8.hash(state);
                vs.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Int(i) => fmt::Display::fmt(i, f),
            Value::Float(x) => fmt::Display::fmt(x, f),
            Value::Text(s) => ["\"", s, "\""].iter().try_for_each(|p| f.write_str(p)),
            Value::Bool(b) => fmt::Display::fmt(b, f),
            Value::Oid(o) => fmt::Display::fmt(o, f),
            Value::Set(vs) => write_seq(f, "{", vs, "}"),
            Value::List(vs) => write_seq(f, "<", vs, ">"),
            Value::Tuple(vs) => write_seq(f, "[", vs, "]"),
        }
    }
}

fn write_seq(f: &mut fmt::Formatter<'_>, open: &str, vs: &[Value], close: &str) -> fmt::Result {
    f.write_str(open)?;
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        fmt::Display::fmt(v, f)?;
    }
    f.write_str(close)
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Oid> for Value {
    fn from(v: Oid) -> Self {
        Value::Oid(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_views_scalars_and_collections_uniformly() {
        let set = Value::Set(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(set.members().len(), 2);
        let scalar = Value::Int(7);
        assert_eq!(scalar.members(), &[Value::Int(7)]);
        assert!(Value::Null.members().is_empty());
    }

    #[test]
    fn total_order_is_consistent() {
        let a = Value::Int(1);
        let b = Value::Float(1.0);
        assert_eq!(a, b);
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Null < Value::Int(0));
        assert!(Value::text("a") < Value::text("b"));
    }

    #[test]
    fn equal_numbers_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    #[test]
    fn display_uses_paper_constructors() {
        let v = Value::Tuple(vec![
            Value::text("x"),
            Value::Set(vec![Value::Int(1)]),
            Value::List(vec![Value::Bool(true)]),
        ]);
        assert_eq!(v.to_string(), "[\"x\", {1}, <true>]");
    }

    /// The rendering `Display` had when each kind went through a
    /// `write!` of its own.
    fn nested_write(v: &Value) -> String {
        let seq = |open: &str, vs: &[Value], close: &str| {
            let inner: Vec<String> = vs.iter().map(nested_write).collect();
            format!("{open}{}{close}", inner.join(", "))
        };
        match v {
            Value::Null => "null".to_string(),
            Value::Int(i) => format!("{i}"),
            Value::Float(x) => format!("{x}"),
            Value::Text(s) => format!("\"{s}\""),
            Value::Bool(b) => format!("{b}"),
            Value::Oid(o) => format!("{o}"),
            Value::Set(vs) => seq("{", vs, "}"),
            Value::List(vs) => seq("<", vs, ">"),
            Value::Tuple(vs) => seq("[", vs, "]"),
        }
    }

    #[test]
    fn display_renders_every_kind_as_nested_writes_did() {
        let scalars = vec![
            Value::Null,
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5),
            Value::Float(-2.25e-300),
            Value::Float(1e300),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::text(""),
            Value::text("say \"hi\""),
            Value::text("Dvořák — 作曲家 🎻"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Oid(Oid::new(ClassId(3), u32::MAX)),
        ];
        let nested = Value::Tuple(vec![
            Value::Set(scalars.clone()),
            Value::List(vec![
                Value::Set(vec![]),
                Value::Tuple(vec![Value::List(vec![])]),
            ]),
            Value::Tuple(scalars.clone()),
        ]);
        for v in scalars.iter().chain([&nested]) {
            assert_eq!(v.to_string(), nested_write(v), "{v:?}");
        }
    }

    #[test]
    fn oid_display() {
        assert_eq!(Oid::new(ClassId(2), 5).to_string(), "@2:5");
    }
}
