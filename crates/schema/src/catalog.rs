//! The validated, name-resolved schema catalog.

use std::collections::HashMap;
use std::fmt;

use crate::error::SchemaError;
use crate::types::{AttributeDefKind, ClassDef, RelationDef, ResolvedType, TypeExpr};

/// Identifier of a class in a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Identifier of a relation (or view) in a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub u32);

/// Index of an attribute within a class's *flattened* layout
/// (inherited attributes first, in declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Whether a relation name denotes stored facts or a (possibly recursive)
/// view whose definition lives in the query layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// Stored extension.
    Stored,
    /// Derived: defined by a query (e.g. the paper's `Influencer`).
    View,
}

/// How an attribute is realized (resolved form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttributeKind {
    /// A stored attribute.
    Stored,
    /// A method seen as a computed attribute, with its invocation cost.
    Computed {
        /// Estimated CPU cost of one invocation.
        eval_cost: f64,
    },
}

/// A resolved attribute of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Resolved type.
    pub ty: ResolvedType,
    /// Stored or computed.
    pub kind: AttributeKind,
    /// The class that *declared* this attribute (may be a superclass of
    /// the class whose layout contains it).
    pub declared_in: ClassId,
    /// The other side of an inverse pair, if any.
    pub inverse: Option<(ClassId, AttrId)>,
}

/// A resolved class with its flattened attribute layout.
#[derive(Debug, Clone)]
pub struct ClassCat {
    /// Class name.
    pub name: String,
    /// Direct superclass, if any.
    pub isa: Option<ClassId>,
    /// Flattened attributes: inherited first, then own.
    pub attrs: Vec<Attribute>,
}

/// A resolved relation or view.
#[derive(Debug, Clone)]
pub struct RelationCat {
    /// Relation name.
    pub name: String,
    /// Row type (always a tuple).
    pub fields: Vec<(String, ResolvedType)>,
    /// Stored or view.
    pub kind: ViewKind,
}

/// A validated conceptual schema.
#[derive(Debug, Clone)]
pub struct Catalog {
    classes: Vec<ClassCat>,
    relations: Vec<RelationCat>,
    class_names: HashMap<String, ClassId>,
    relation_names: HashMap<String, RelationId>,
}

impl Catalog {
    /// All classes, in id order.
    pub fn classes(&self) -> &[ClassCat] {
        &self.classes
    }

    /// All relations (and views), in id order.
    pub fn relations(&self) -> &[RelationCat] {
        &self.relations
    }

    /// Class by id. Panics on an id from another catalog.
    pub fn class(&self, id: ClassId) -> &ClassCat {
        &self.classes[id.0 as usize]
    }

    /// Relation by id. Panics on an id from another catalog.
    pub fn relation(&self, id: RelationId) -> &RelationCat {
        &self.relations[id.0 as usize]
    }

    /// Look a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_names.get(name).copied()
    }

    /// Look a relation up by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relation_names.get(name).copied()
    }

    /// Resolve an attribute by name in a class's flattened layout.
    pub fn attr(&self, class: ClassId, name: &str) -> Option<(AttrId, &Attribute)> {
        self.class(class)
            .attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| (AttrId(i as u16), &self.class(class).attrs[i]))
    }

    /// Attribute by id.
    pub fn attribute(&self, class: ClassId, attr: AttrId) -> &Attribute {
        &self.class(class).attrs[attr.0 as usize]
    }

    /// True iff `sub` equals `sup` or is a (transitive) subclass of it.
    pub(crate) fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).isa;
        }
        false
    }

    /// All classes that are `cls` or a transitive subclass of it.
    pub fn subclasses_of(&self, cls: ClassId) -> Vec<ClassId> {
        (0..self.classes.len() as u32)
            .map(ClassId)
            .filter(|&c| self.is_subclass_of(c, cls))
            .collect()
    }
}

/// Builder assembling and validating a [`Catalog`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    classes: Vec<ClassDef>,
    relations: Vec<(RelationDef, ViewKind)>,
}

impl SchemaBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a class definition.
    pub fn class(mut self, def: ClassDef) -> Self {
        self.classes.push(def);
        self
    }

    /// Add a stored relation definition.
    pub fn relation(mut self, def: RelationDef) -> Self {
        self.relations.push((def, ViewKind::Stored));
        self
    }

    /// Declare a (possibly recursive) view with the given row type. The
    /// view's defining query lives in the query layer; the catalog only
    /// knows its name and type (e.g. the paper's `Influencer`).
    pub fn view(mut self, def: RelationDef) -> Self {
        self.relations.push((def, ViewKind::View));
        self
    }

    /// Validate and build the catalog.
    pub fn build(self) -> Result<Catalog, SchemaError> {
        // 1. Register names, checking global uniqueness.
        let mut class_names = HashMap::new();
        for (i, c) in self.classes.iter().enumerate() {
            if class_names
                .insert(c.name.clone(), ClassId(i as u32))
                .is_some()
            {
                return Err(SchemaError::DuplicateName(c.name.clone()));
            }
        }
        let mut relation_names = HashMap::new();
        for (i, (r, _)) in self.relations.iter().enumerate() {
            if class_names.contains_key(&r.name)
                || relation_names
                    .insert(r.name.clone(), RelationId(i as u32))
                    .is_some()
            {
                return Err(SchemaError::DuplicateName(r.name.clone()));
            }
        }

        // 2. Resolve superclasses and detect cycles.
        let mut isa: Vec<Option<ClassId>> = Vec::with_capacity(self.classes.len());
        for c in &self.classes {
            match &c.isa {
                None => isa.push(None),
                Some(p) => match class_names.get(p) {
                    Some(&pid) => isa.push(Some(pid)),
                    None => {
                        return Err(SchemaError::UnknownSuperclass {
                            class: c.name.clone(),
                            superclass: p.clone(),
                        })
                    }
                },
            }
        }
        for (i, c) in self.classes.iter().enumerate() {
            let mut seen = vec![false; self.classes.len()];
            let mut cur = Some(ClassId(i as u32));
            while let Some(id) = cur {
                if seen[id.0 as usize] {
                    return Err(SchemaError::InheritanceCycle(c.name.clone()));
                }
                seen[id.0 as usize] = true;
                cur = isa[id.0 as usize];
            }
        }

        let resolve = |ctx: &str, ty: &TypeExpr| -> Result<ResolvedType, SchemaError> {
            resolve_type(ctx, ty, &class_names)
        };

        // 3. Flatten attribute layouts, parent chain first.
        let mut classes: Vec<ClassCat> = Vec::with_capacity(self.classes.len());
        for (i, c) in self.classes.iter().enumerate() {
            let id = ClassId(i as u32);
            // Collect chain root-first.
            let mut chain = Vec::new();
            let mut cur = Some(id);
            while let Some(cid) = cur {
                chain.push(cid);
                cur = isa[cid.0 as usize];
            }
            chain.reverse();
            let mut attrs: Vec<Attribute> = Vec::new();
            for cid in chain {
                let def = &self.classes[cid.0 as usize];
                for a in &def.attributes {
                    if attrs.iter().any(|x| x.name == a.name) {
                        return Err(SchemaError::DuplicateAttribute {
                            class: c.name.clone(),
                            attr: a.name.clone(),
                        });
                    }
                    attrs.push(Attribute {
                        name: a.name.clone(),
                        ty: resolve(&format!("class `{}`", c.name), &a.ty)?,
                        kind: match a.kind {
                            AttributeDefKind::Stored => AttributeKind::Stored,
                            AttributeDefKind::Computed { eval_cost } => {
                                AttributeKind::Computed { eval_cost }
                            }
                        },
                        declared_in: cid,
                        inverse: None,
                    });
                }
            }
            classes.push(ClassCat {
                name: c.name.clone(),
                isa: isa[i],
                attrs,
            });
        }

        // 4. Relations.
        let mut relations = Vec::with_capacity(self.relations.len());
        for (r, kind) in &self.relations {
            let fields = match &r.ty {
                TypeExpr::Tuple(fs) => fs
                    .iter()
                    .map(|f| {
                        Ok((
                            f.name.clone(),
                            resolve(&format!("relation `{}`", r.name), &f.ty)?,
                        ))
                    })
                    .collect::<Result<Vec<_>, SchemaError>>()?,
                _ => return Err(SchemaError::RelationNotTuple(r.name.clone())),
            };
            relations.push(RelationCat {
                name: r.name.clone(),
                fields,
                kind: *kind,
            });
        }

        let mut catalog = Catalog {
            classes,
            relations,
            class_names,
            relation_names,
        };

        // 5. Wire up inverse pairs (declared on either side).
        let mut links: Vec<((ClassId, AttrId), (ClassId, AttrId))> = Vec::new();
        for (i, cdef) in self.classes.iter().enumerate() {
            let cid = ClassId(i as u32);
            for a in &cdef.attributes {
                if let Some((tc, ta)) = &a.inverse_of {
                    let (aid, _) = catalog.attr(cid, &a.name).expect("attr just built");
                    let tcid =
                        catalog
                            .class_by_name(tc)
                            .ok_or_else(|| SchemaError::BadInverse {
                                class: cdef.name.clone(),
                                attr: a.name.clone(),
                                detail: format!("unknown class `{tc}`"),
                            })?;
                    let (taid, tattr) =
                        catalog
                            .attr(tcid, ta)
                            .ok_or_else(|| SchemaError::BadInverse {
                                class: cdef.name.clone(),
                                attr: a.name.clone(),
                                detail: format!("unknown attribute `{tc}.{ta}`"),
                            })?;
                    // Type compatibility: each side must reference the other's
                    // class (modulo subclassing).
                    let this_attr = catalog.attribute(cid, aid);
                    let this_ref = this_attr.ty.referenced_class();
                    let that_ref = tattr.ty.referenced_class();
                    let ok = match (this_ref, that_ref) {
                        (Some(a_ref), Some(b_ref)) => {
                            (catalog.is_subclass_of(a_ref, tcid)
                                || catalog.is_subclass_of(tcid, a_ref))
                                && (catalog.is_subclass_of(b_ref, cid)
                                    || catalog.is_subclass_of(cid, b_ref))
                        }
                        _ => false,
                    };
                    if !ok {
                        return Err(SchemaError::InverseTypeMismatch {
                            class: cdef.name.clone(),
                            attr: a.name.clone(),
                        });
                    }
                    links.push(((cid, aid), (tcid, taid)));
                }
            }
        }
        for ((c1, a1), (c2, a2)) in links {
            catalog.classes[c1.0 as usize].attrs[a1.0 as usize].inverse = Some((c2, a2));
            catalog.classes[c2.0 as usize].attrs[a2.0 as usize].inverse = Some((c1, a1));
        }

        Ok(catalog)
    }
}

fn resolve_type(
    ctx: &str,
    ty: &TypeExpr,
    class_names: &HashMap<String, ClassId>,
) -> Result<ResolvedType, SchemaError> {
    Ok(match ty {
        TypeExpr::Atomic(a) => ResolvedType::Atomic(*a),
        TypeExpr::Class(name) => ResolvedType::Object(*class_names.get(name).ok_or_else(|| {
            SchemaError::UnknownClass {
                context: ctx.to_string(),
                class: name.clone(),
            }
        })?),
        TypeExpr::Tuple(fs) => ResolvedType::Tuple(
            fs.iter()
                .map(|f| Ok((f.name.clone(), resolve_type(ctx, &f.ty, class_names)?)))
                .collect::<Result<Vec<_>, SchemaError>>()?,
        ),
        TypeExpr::Set(e) => ResolvedType::Set(Box::new(resolve_type(ctx, e, class_names)?)),
        TypeExpr::List(e) => ResolvedType::List(Box::new(resolve_type(ctx, e, class_names)?)),
    })
}
