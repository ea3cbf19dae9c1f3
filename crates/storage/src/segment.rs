//! Storage segments: the physical home of an entity's records.

use oorq_schema::ResolvedType;

use crate::value::Value;

/// One stored record: a logical key (oid index or row id) plus the
/// attribute/field values in layout order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Logical key: oid index for class extents, row id for relations.
    pub key: u32,
    /// Field values in layout order.
    pub values: Vec<Value>,
}

impl AsRef<[Value]> for Row {
    fn as_ref(&self) -> &[Value] {
        &self.values
    }
}

/// `Segment::position`'s mark for a key the segment holds no record of.
const NO_RECORD: u32 = u32::MAX;

/// The records of one atomic entity, kept in *physical* (page) order.
///
/// A key-indexed position vector supports oid lookup; physical position
/// `p` lives on page `p / rows_per_page`. Clustering is realized by
/// physical order: sub-objects created right after their owner land on
/// correlated pages, while [`Segment::shuffle`] models an unclustered
/// placement.
///
/// Keys are assigned by the store, densely per extension (an oid index, a
/// row id), and the position vector depends on it: it is as long as the
/// largest key held, and an absent key — in range or past the end —
/// answers `None`. A temporary's key is its position, which nothing looks
/// up, so its appends write no position.
///
/// A temporary is emptied and refilled once per fixpoint pass and once per
/// request: [`Segment::truncate`] resets the live count `len`, and
/// `Segment::append_copy` rewrites the next record where it lies. Every
/// reader sees the first `len` records only.
#[derive(Debug)]
pub(crate) struct Segment {
    field_types: Vec<ResolvedType>,
    /// The `len` live records, then the ones left to be refilled.
    rows: Vec<Row>,
    len: usize,
    /// key -> physical position, or [`NO_RECORD`].
    position: Vec<u32>,
    rows_per_page: u32,
}

/// A copy holds the live records only: a copy-on-write clone is made
/// because somebody still reads them.
impl Clone for Segment {
    fn clone(&self) -> Self {
        let mut copy = self.emptied();
        (copy.rows, copy.len) = (self.live().to_vec(), self.len);
        copy.position.clone_from(&self.position);
        copy
    }
}

impl Segment {
    /// New empty segment with an explicit records-per-page (used when the
    /// stored width differs from the full record shape, e.g. computed
    /// attributes occupy a slot but no bytes).
    pub(crate) fn with_rpp(field_types: Vec<ResolvedType>, rows_per_page: u32) -> Self {
        Segment {
            field_types,
            rows: Vec::new(),
            len: 0,
            position: Vec::new(),
            rows_per_page: rows_per_page.max(1),
        }
    }

    /// A new empty segment for records of this one's shape.
    pub fn emptied(&self) -> Self {
        Self::with_rpp(self.field_types.clone(), self.rows_per_page)
    }

    /// The live records.
    fn live(&self) -> &[Row] {
        &self.rows[..self.len]
    }

    /// Replace the values of the record at a physical position.
    pub(crate) fn replace_values(&mut self, pos: u32, values: Vec<Value>) {
        if let Some(row) = self.rows[..self.len].get_mut(pos as usize) {
            row.values = values;
        }
    }

    /// Field types of this segment's records.
    pub fn field_types(&self) -> &[ResolvedType] {
        &self.field_types
    }

    /// Records per page.
    pub(crate) fn rows_per_page(&self) -> u32 {
        self.rows_per_page
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of pages occupied.
    pub fn num_pages(&self) -> u32 {
        (self.len as u32).div_ceil(self.rows_per_page)
    }

    /// Append a record at the end (next free slot). Returns its physical
    /// position.
    pub fn append(&mut self, row: Row) -> u32 {
        let pos = self.len as u32;
        *crate::entry(&mut self.position, row.key as usize, NO_RECORD) = pos;
        self.rows.truncate(self.len);
        self.rows.push(row);
        self.len += 1;
        pos
    }

    /// Append a copy of `values` to a temporary, keyed by its position,
    /// in the record a truncation left there if there is one. Returns the
    /// position.
    pub(crate) fn append_copy(&mut self, values: &[Value]) -> u32 {
        let pos = self.len;
        if self.rows.len() == pos {
            self.rows.push(Row::default());
        }
        self.len += 1;
        let row = &mut self.rows[pos];
        row.key = pos as u32;
        values.clone_into(&mut row.values);
        pos as u32
    }

    /// Physical position of the record with the given key.
    pub(crate) fn position_of(&self, key: u32) -> Option<u32> {
        let pos = self.position.get(key as usize).copied();
        pos.filter(|&pos| pos != NO_RECORD)
    }

    /// The page of a physical position.
    pub(crate) fn page_of_position(&self, pos: u32) -> u32 {
        pos / self.rows_per_page
    }

    /// Record at a physical position.
    pub(crate) fn row_at(&self, pos: u32) -> Option<&Row> {
        self.live().get(pos as usize)
    }

    /// Records of one page, with their physical positions.
    pub(crate) fn page_rows(&self, page: u32) -> &[Row] {
        let start = (page as usize * self.rows_per_page as usize).min(self.len);
        let end = (start + self.rows_per_page as usize).min(self.len);
        &self.rows[start..end]
    }

    /// Iterate all records in physical order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.live().iter()
    }

    /// Remove all records, keeping them where they lie for
    /// `Segment::append_copy` to refill.
    pub fn truncate(&mut self) {
        self.len = 0;
        self.position.clear();
    }

    /// Permute the physical order with a deterministic Fisher–Yates
    /// driven by a small internal LCG, modelling an *unclustered* /
    /// scattered placement (insertion order models a clustered one).
    pub fn shuffle(&mut self, seed: u64) {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let rows = &mut self.rows[..self.len];
        for i in (1..rows.len()).rev() {
            let j = (next() as usize) % (i + 1);
            rows.swap(i, j);
        }
        for (pos, row) in rows.iter().enumerate() {
            if let Some(at) = self.position.get_mut(row.key as usize) {
                *at = pos as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::WidthModel;
    use oorq_schema::{AtomicType, ResolvedType};

    fn int_segment(rpp_target: usize) -> Segment {
        // record width = 8 (key) + 8 (int) = 16; choose page size for target.
        let width = WidthModel {
            page_size: 16 * rpp_target,
            ..WidthModel::default()
        };
        let types = vec![ResolvedType::Atomic(AtomicType::Int)];
        Segment::with_rpp(types.clone(), width.records_per_page(&types))
    }

    #[test]
    fn append_lookup_and_pages() {
        let mut s = int_segment(4);
        assert_eq!(s.rows_per_page(), 4);
        for k in 0..10u32 {
            s.append(Row {
                key: k,
                values: vec![Value::Int(k as i64)],
            });
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.num_pages(), 3);
        assert_eq!(s.position_of(7), Some(7));
        assert_eq!(s.page_of_position(7), 1);
        assert_eq!(s.row_at(9).unwrap().values[0], Value::Int(9));
        assert_eq!(s.page_rows(2).len(), 2);
        assert_eq!(s.page_rows(5).len(), 0);
    }

    #[test]
    fn shuffle_preserves_contents_and_remaps_keys() {
        let mut s = int_segment(4);
        for k in 0..32u32 {
            s.append(Row {
                key: k,
                values: vec![Value::Int(k as i64)],
            });
        }
        s.shuffle(42);
        // Every key still resolves to its record.
        for k in 0..32u32 {
            let pos = s.position_of(k).unwrap();
            assert_eq!(s.row_at(pos).unwrap().values[0], Value::Int(k as i64));
        }
        // And the order actually changed.
        let order: Vec<u32> = s.iter().map(|r| r.key).collect();
        assert_ne!(order, (0..32).collect::<Vec<_>>());
        // Shuffle is deterministic in the seed.
        let mut s2 = int_segment(4);
        for k in 0..32u32 {
            s2.append(Row {
                key: k,
                values: vec![Value::Int(k as i64)],
            });
        }
        s2.shuffle(42);
        assert_eq!(order, s2.iter().map(|r| r.key).collect::<Vec<_>>());
    }
}
