//! Type expressions of the conceptual model.

use std::fmt;

use crate::catalog::ClassId;

/// Atomic (printable, non-object) types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomicType::Int => write!(f, "int"),
            AtomicType::Float => write!(f, "float"),
            AtomicType::Text => write!(f, "string"),
            AtomicType::Bool => write!(f, "bool"),
        }
    }
}

/// A named field of a tuple type.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeExpr,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: TypeExpr) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// An *unresolved* type expression, as written in schema definitions.
///
/// Class references are by name and resolved by [`crate::SchemaBuilder`].
/// Following the paper, types are built from atomic types and the tuple
/// (`[]`), set (`{}`) and list (`<>`) constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// An atomic type.
    Atomic(AtomicType),
    /// A reference to a class by name; instances are object identifiers.
    Class(String),
    /// A tuple `[f1: T1, ..., fn: Tn]`.
    Tuple(Vec<Field>),
    /// A set `{T}`.
    Set(Box<TypeExpr>),
    /// A list `<T>`.
    List(Box<TypeExpr>),
}

impl TypeExpr {
    /// Shorthand for `TypeExpr::Atomic(AtomicType::Int)`.
    pub fn int() -> Self {
        TypeExpr::Atomic(AtomicType::Int)
    }
    /// Shorthand for `TypeExpr::Atomic(AtomicType::Float)`.
    pub fn float() -> Self {
        TypeExpr::Atomic(AtomicType::Float)
    }
    /// Shorthand for `TypeExpr::Atomic(AtomicType::Text)`.
    pub fn text() -> Self {
        TypeExpr::Atomic(AtomicType::Text)
    }
    /// Shorthand for `TypeExpr::Atomic(AtomicType::Bool)`.
    pub fn bool() -> Self {
        TypeExpr::Atomic(AtomicType::Bool)
    }
    /// Shorthand for a class reference.
    pub fn class(name: impl Into<String>) -> Self {
        TypeExpr::Class(name.into())
    }
    /// Shorthand for a set of the given element type.
    pub fn set(elem: TypeExpr) -> Self {
        TypeExpr::Set(Box::new(elem))
    }
    /// Shorthand for a list of the given element type.
    pub fn list(elem: TypeExpr) -> Self {
        TypeExpr::List(Box::new(elem))
    }
}

impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeExpr::Atomic(a) => write!(f, "{a}"),
            TypeExpr::Class(c) => write!(f, "{c}"),
            TypeExpr::Tuple(fs) => {
                write!(f, "[")?;
                for (i, fd) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {}", fd.name, fd.ty)?;
                }
                write!(f, "]")
            }
            TypeExpr::Set(e) => write!(f, "{{{e}}}"),
            TypeExpr::List(e) => write!(f, "<{e}>"),
        }
    }
}

/// A *resolved* type: class names replaced by [`ClassId`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ResolvedType {
    /// An atomic type.
    Atomic(AtomicType),
    /// An object of the given class (stored as an oid).
    Object(ClassId),
    /// A tuple of named fields.
    Tuple(Vec<(String, ResolvedType)>),
    /// A set.
    Set(Box<ResolvedType>),
    /// A list.
    List(Box<ResolvedType>),
}

impl ResolvedType {
    /// If the type is an object or a collection of objects, return the
    /// referenced class. This is the notion of "attribute implemented by a
    /// class" used by the paper's `translateArc` action (the cases `Att: C`,
    /// `Att: {C}` and `Att: <C>`).
    pub fn referenced_class(&self) -> Option<ClassId> {
        match self {
            ResolvedType::Object(c) => Some(*c),
            ResolvedType::Set(inner) | ResolvedType::List(inner) => inner.referenced_class(),
            _ => None,
        }
    }

    /// True when the attribute is collection-valued (set or list).
    pub fn is_collection(&self) -> bool {
        matches!(self, ResolvedType::Set(_) | ResolvedType::List(_))
    }
}

/// How an attribute is realized.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeDefKind {
    /// A stored attribute.
    Stored,
    /// A method seen as a *computed attribute* (paper §2.1: "Methods are
    /// considered as computed attributes"). `eval_cost` is the estimated
    /// CPU cost of one invocation, in the same unit as predicate
    /// evaluation cost; it feeds the cost model.
    Computed {
        /// Estimated cost of one invocation.
        eval_cost: f64,
    },
}

/// Declaration of one attribute of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    /// Attribute name (unique within the class hierarchy).
    pub name: String,
    /// Declared type.
    pub ty: TypeExpr,
    /// Stored or computed.
    pub kind: AttributeDefKind,
    /// `Some((class, attr))` when this attribute is declared
    /// `inverse of class.attr`.
    pub inverse_of: Option<(String, String)>,
}

impl AttributeDef {
    /// A stored attribute.
    pub fn stored(name: impl Into<String>, ty: TypeExpr) -> Self {
        AttributeDef {
            name: name.into(),
            ty,
            kind: AttributeDefKind::Stored,
            inverse_of: None,
        }
    }

    /// A computed attribute (method) with an evaluation-cost hint.
    pub fn computed(name: impl Into<String>, ty: TypeExpr, eval_cost: f64) -> Self {
        AttributeDef {
            name: name.into(),
            ty,
            kind: AttributeDefKind::Computed { eval_cost },
            inverse_of: None,
        }
    }

    /// Mark this attribute as the inverse of `class.attr`.
    pub fn inverse_of(mut self, class: impl Into<String>, attr: impl Into<String>) -> Self {
        self.inverse_of = Some((class.into(), attr.into()));
        self
    }
}

/// Declaration of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Optional superclass (`isa`).
    pub isa: Option<String>,
    /// Own (non-inherited) attributes.
    pub attributes: Vec<AttributeDef>,
}

impl ClassDef {
    /// A new class with no superclass and no attributes.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDef {
            name: name.into(),
            isa: None,
            attributes: Vec::new(),
        }
    }

    /// Set the superclass.
    pub fn isa(mut self, parent: impl Into<String>) -> Self {
        self.isa = Some(parent.into());
        self
    }

    /// Add an attribute.
    pub fn attr(mut self, attr: AttributeDef) -> Self {
        self.attributes.push(attr);
        self
    }
}

/// Declaration of a relation (instances are values, not objects).
#[derive(Debug, Clone, PartialEq)]
pub struct RelationDef {
    /// Relation name.
    pub name: String,
    /// Row type; must be a tuple type.
    pub ty: TypeExpr,
}

impl RelationDef {
    /// A new relation with the given tuple type.
    pub fn new(name: impl Into<String>, ty: TypeExpr) -> Self {
        RelationDef {
            name: name.into(),
            ty,
        }
    }
}
