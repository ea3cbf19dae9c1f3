//! Selection indices: B+-trees on one attribute of one class extension.

use oorq_schema::{AttrId, ClassId};
use oorq_storage::{Account, Database, IndexId, IndexKindDesc, IndexStats, Oid, Value};

use crate::btree::BPlusTree;

/// A B+-tree selection index on `class.attr`, mapping attribute values to
/// the oids of the objects holding them. For collection-valued attributes
/// each member is indexed.
#[derive(Debug)]
pub struct SelectionIndex {
    /// Registered descriptor id in the physical schema.
    pub id: IndexId,
    /// Indexed class.
    pub class: ClassId,
    /// Indexed attribute.
    pub attr: AttrId,
    tree: BPlusTree<Value, Oid>,
}

impl SelectionIndex {
    /// Build the index by scanning the class extension (bulk load, no I/O
    /// accounting) and register its descriptor in the physical schema.
    pub fn build(db: &mut Database, class: ClassId, attr: AttrId) -> Self {
        let mut tree = BPlusTree::with_default_order();
        let entities: Vec<_> = db.physical().entities_of_class(class).to_vec();
        for entity in entities {
            for row in db.scan_raw(entity) {
                let oid = Oid::new(class, row.key);
                // Fragments may not hold the attribute; read through the
                // database to assemble correctly.
                if let Ok(v) = db.read_attr_raw(oid, attr) {
                    for m in v.members() {
                        tree.insert(m.clone(), oid);
                    }
                }
            }
        }
        let stats = IndexStats {
            nblevels: tree.nblevels(),
            nbleaves: tree.nbleaves(),
        };
        let id = db
            .physical_mut()
            .add_index(IndexKindDesc::Selection { class, attr }, stats);
        SelectionIndex {
            id,
            class,
            attr,
            tree,
        }
    }

    /// Oids whose attribute equals `key`, lent out of the tree. Charges
    /// `nblevels` index page reads to `io`.
    pub fn probe(&self, io: &Account, key: &Value) -> &[Oid] {
        io.borrow_mut().add_index_reads(self.tree.nblevels() as u64);
        self.tree.get(key).unwrap_or_default()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.tree.distinct_keys()
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            nblevels: self.tree.nblevels(),
            nbleaves: self.tree.nbleaves(),
        }
    }
}
