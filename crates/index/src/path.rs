//! Path indices \[MS86\], a generalization of join indices \[Va87\].
//!
//! A path index on `C1.A1...A(n-1)` stores one entry per instantiation of
//! the whole path: a tuple of the oids of the objects along it (the
//! paper's example: triples of Composer, Composition, Instrument oids for
//! the path `works.instruments`). It accelerates accesses spanning the
//! whole nested-attribute hierarchy.

use oorq_schema::{AttrId, ClassId};
use oorq_storage::{Account, Database, IndexId, IndexKindDesc, IndexStats, Oid, Value};

use crate::btree::BPlusTree;

/// A path index keyed by the head oid; each entry holds the oids of the
/// rest of the path.
#[derive(Debug)]
pub struct PathIndex {
    /// Registered descriptor id in the physical schema.
    pub id: IndexId,
    /// The indexed path as `(class, attribute)` steps.
    pub path: Vec<(ClassId, AttrId)>,
    tree: BPlusTree<Oid, Vec<Oid>>,
}

impl PathIndex {
    /// Build the index by traversing every path instantiation from the
    /// head class (bulk load, no I/O accounting) and register its
    /// descriptor in the physical schema.
    ///
    /// `path[i].0` is the class in which attribute `path[i].1` is defined;
    /// the attribute must reference a class (scalar or collection).
    pub fn build(db: &mut Database, path: Vec<(ClassId, AttrId)>) -> Self {
        assert!(!path.is_empty(), "path index needs at least one step");
        let mut tree = BPlusTree::with_default_order();
        let head_class = path[0].0;
        let n = db.object_count(head_class);
        for i in 0..n {
            let head = Oid::new(head_class, i);
            let mut tails: Vec<Vec<Oid>> = Vec::new();
            Self::traverse(db, head, &path, 0, &mut Vec::new(), &mut tails);
            for tail in tails {
                tree.insert(head, tail);
            }
        }
        let stats = IndexStats {
            nblevels: tree.nblevels(),
            nbleaves: tree.nbleaves(),
        };
        let id = db
            .physical_mut()
            .add_index(IndexKindDesc::Path { path: path.clone() }, stats);
        PathIndex { id, path, tree }
    }

    fn traverse(
        db: &Database,
        at: Oid,
        path: &[(ClassId, AttrId)],
        step: usize,
        prefix: &mut Vec<Oid>,
        out: &mut Vec<Vec<Oid>>,
    ) {
        if step == path.len() {
            out.push(prefix.clone());
            return;
        }
        let (_, attr) = path[step];
        let Ok(v) = db.read_attr_raw(at, attr) else {
            return;
        };
        for m in v.members() {
            if let Value::Oid(next) = m {
                prefix.push(*next);
                Self::traverse(db, *next, path, step + 1, prefix, out);
                prefix.pop();
            }
        }
    }

    /// Full path instantiations starting at `head` (each is the oids of
    /// the path *after* the head), lent out of the tree. Charges `io`
    /// `nblevels` index page reads plus extra leaf reads for large
    /// fan-outs.
    pub fn probe(&self, io: &Account, head: Oid) -> &[Vec<Oid>] {
        let hits = self.tree.get(&head).unwrap_or_default();
        let extra_leaves = (hits.len() as u64).div_ceil(8).saturating_sub(1);
        io.borrow_mut()
            .add_index_reads(self.tree.nblevels() as u64 + extra_leaves);
        hits
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            nblevels: self.tree.nblevels(),
            nbleaves: self.tree.nbleaves(),
        }
    }
}
