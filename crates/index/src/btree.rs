//! A from-scratch B+-tree used for selection and path indices.
//!
//! The tree is an in-memory simulation of a disk-resident B+-tree: nodes
//! have a bounded *order* (max children / max leaf entries) standing in
//! for page capacity, and the tree reports `nblevels` and `nbleaves` —
//! the two statistics the paper's Figure 5 cost formulas consume.
//!
//! The tree is a multimap: duplicate keys accumulate their values in the
//! same leaf entry. Deletion is not supported (the paper's physical
//! design is static: indices are built after bulk load).

use std::fmt::Debug;

/// A B+-tree multimap with bounded node fan-out.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    root: Node<K, V>,
    order: usize,
    len: usize,
}

#[derive(Debug, Clone)]
enum Node<K, V> {
    Leaf {
        entries: Vec<(K, Vec<V>)>,
    },
    Internal {
        keys: Vec<K>,
        children: Vec<Node<K, V>>,
    },
}

/// Result of a node insert: either it fit, or the node split and promotes
/// a separator key plus a new right sibling.
enum InsertResult<K, V> {
    Fit,
    Split(K, Node<K, V>),
}

impl<K: Ord + Clone + Debug, V: Clone> BPlusTree<K, V> {
    /// New empty tree. `order` is the maximum number of children of an
    /// internal node (and of entries of a leaf); minimum 4.
    pub fn new(order: usize) -> Self {
        BPlusTree {
            root: Node::Leaf {
                entries: Vec::new(),
            },
            order: order.max(4),
            len: 0,
        }
    }

    /// Default order modelling ~page-sized nodes.
    pub(crate) fn with_default_order() -> Self {
        Self::new(64)
    }

    /// Total number of (key, value) pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a pair; duplicate keys accumulate.
    pub fn insert(&mut self, key: K, value: V) {
        let order = self.order;
        match Self::insert_into(&mut self.root, key, value, order) {
            InsertResult::Fit => {}
            InsertResult::Split(sep, right) => {
                let left = std::mem::replace(&mut self.root, Node::Leaf { entries: vec![] });
                self.root = Node::Internal {
                    keys: vec![sep],
                    children: vec![left, right],
                };
            }
        }
        self.len += 1;
    }

    fn insert_into(node: &mut Node<K, V>, key: K, value: V, order: usize) -> InsertResult<K, V> {
        match node {
            Node::Leaf { entries } => {
                match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(i) => entries[i].1.push(value),
                    Err(i) => entries.insert(i, (key, vec![value])),
                }
                if entries.len() > order {
                    let mid = entries.len() / 2;
                    let right_entries = entries.split_off(mid);
                    let sep = right_entries[0].0.clone();
                    InsertResult::Split(
                        sep,
                        Node::Leaf {
                            entries: right_entries,
                        },
                    )
                } else {
                    InsertResult::Fit
                }
            }
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search(&key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                match Self::insert_into(&mut children[idx], key, value, order) {
                    InsertResult::Fit => InsertResult::Fit,
                    InsertResult::Split(sep, right) => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if children.len() > order {
                            let mid = keys.len() / 2;
                            let promoted = keys[mid].clone();
                            let right_keys = keys.split_off(mid + 1);
                            keys.pop(); // drop the promoted separator
                            let right_children = children.split_off(mid + 1);
                            InsertResult::Split(
                                promoted,
                                Node::Internal {
                                    keys: right_keys,
                                    children: right_children,
                                },
                            )
                        } else {
                            InsertResult::Fit
                        }
                    }
                }
            }
        }
    }

    /// Values associated with a key.
    pub fn get(&self, key: &K) -> Option<&[V]> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { entries } => {
                    return entries
                        .binary_search_by(|(k, _)| k.cmp(key))
                        .ok()
                        .map(|i| entries[i].1.as_slice());
                }
                Node::Internal { keys, children } => {
                    let idx = match keys.binary_search(key) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    node = &children[idx];
                }
            }
        }
    }

    /// Iterate all (key, values) pairs in key order.
    pub fn iter(&self) -> Vec<(&K, &[V])> {
        let mut out = Vec::new();
        self.collect_all(&self.root, &mut out);
        out
    }

    fn collect_all<'a>(&'a self, node: &'a Node<K, V>, out: &mut Vec<(&'a K, &'a [V])>) {
        match node {
            Node::Leaf { entries } => {
                for (k, vs) in entries {
                    out.push((k, vs.as_slice()));
                }
            }
            Node::Internal { children, .. } => {
                for c in children {
                    self.collect_all(c, out);
                }
            }
        }
    }

    /// Number of levels (`nblevels` of Figure 5): 1 for a lone leaf.
    pub fn nblevels(&self) -> u32 {
        let mut levels = 1;
        let mut node = &self.root;
        while let Node::Internal { children, .. } = node {
            levels += 1;
            node = &children[0];
        }
        levels
    }

    /// Number of leaves (`nbleaves` of Figure 5).
    pub fn nbleaves(&self) -> u32 {
        fn count<K, V>(node: &Node<K, V>) -> u32 {
            match node {
                Node::Leaf { .. } => 1,
                Node::Internal { children, .. } => children.iter().map(count).sum(),
            }
        }
        count(&self.root)
    }

    /// Structural invariant check (used by property tests): keys sorted in
    /// every node, children count = keys + 1, separators bound subtrees.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        fn check<K: Ord + Clone + Debug, V>(
            node: &Node<K, V>,
            lo: Option<&K>,
            hi: Option<&K>,
            order: usize,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> Result<(), String> {
            match node {
                Node::Leaf { entries } => {
                    if entries.len() > order {
                        return Err(format!("leaf overfull: {}", entries.len()));
                    }
                    for w in entries.windows(2) {
                        if w[0].0 >= w[1].0 {
                            return Err("leaf keys not strictly sorted".into());
                        }
                    }
                    for (k, vs) in entries {
                        if vs.is_empty() {
                            return Err("empty value bucket".into());
                        }
                        if let Some(lo) = lo {
                            if k < lo {
                                return Err(format!("key {k:?} below bound {lo:?}"));
                            }
                        }
                        if let Some(hi) = hi {
                            if k >= hi {
                                return Err(format!("key {k:?} not below bound {hi:?}"));
                            }
                        }
                    }
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) if *d != depth => return Err("leaves at different depths".into()),
                        _ => {}
                    }
                    Ok(())
                }
                Node::Internal { keys, children } => {
                    if children.len() != keys.len() + 1 {
                        return Err("children != keys + 1".into());
                    }
                    if children.len() > order {
                        return Err("internal overfull".into());
                    }
                    for w in keys.windows(2) {
                        if w[0] >= w[1] {
                            return Err("internal keys not sorted".into());
                        }
                    }
                    for (i, child) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                        let chi = if i == keys.len() { hi } else { Some(&keys[i]) };
                        check(child, clo, chi, order, depth + 1, leaf_depth)?;
                    }
                    Ok(())
                }
            }
        }
        let mut leaf_depth = None;
        check(&self.root, None, None, self.order, 0, &mut leaf_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new(4);
        for k in [5, 1, 9, 3, 7] {
            t.insert(k, k * 10);
        }
        assert_eq!(t.get(&3), Some(&[30][..]));
        assert_eq!(t.get(&4), None);
        assert_eq!(t.len(), 5);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = BPlusTree::new(4);
        t.insert("a", 1);
        t.insert("a", 2);
        t.insert("b", 3);
        assert_eq!(t.get(&"a"), Some(&[1, 2][..]));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn splits_grow_levels_and_leaves() {
        let mut t = BPlusTree::new(4);
        assert_eq!(t.nblevels(), 1);
        for k in 0..1000 {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        assert!(t.nblevels() >= 4, "1000 keys at order 4 must be deep");
        assert!(t.nbleaves() >= 250);
        for k in 0..1000 {
            assert_eq!(t.get(&k), Some(&[k][..]), "key {k}");
        }
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = BPlusTree::new(5);
        for k in [9, 2, 7, 4, 1, 8, 3] {
            t.insert(k, ());
        }
        let keys: Vec<i32> = t.iter().iter().map(|(k, _)| **k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 7, 8, 9]);
    }
}
