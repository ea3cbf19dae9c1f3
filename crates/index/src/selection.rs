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
    tree: BPlusTree<Value, Oid>,
}

impl SelectionIndex {
    /// Build the index by scanning the class extension (bulk load, no I/O
    /// accounting) and register its descriptor in the physical schema.
    pub fn build(db: &mut Database, class: ClassId, attr: AttrId) -> Self {
        let mut tree = BPlusTree::with_default_order();
        let rows = db.physical().class_entity(class).map(|e| db.scan_raw(e));
        for row in rows.unwrap_or_default() {
            let oid = Oid::new(class, row.key);
            if let Some(v) = row.values.get(attr.0 as usize) {
                for m in v.members() {
                    tree.insert(m.clone(), oid);
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
        SelectionIndex { id, tree }
    }

    /// Oids whose attribute equals `key`, lent out of the tree. Charges
    /// `nblevels` index page reads to `io`.
    pub fn probe(&self, io: &Account, key: &Value) -> &[Oid] {
        io.borrow_mut().add_index_reads(self.tree.nblevels() as u64);
        self.tree.get(key).unwrap_or_default()
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            nblevels: self.tree.nblevels(),
            nbleaves: self.tree.nbleaves(),
        }
    }
}
