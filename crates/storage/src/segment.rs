//! Storage segments: the physical home of an entity's records.

use oorq_schema::ResolvedType;

use crate::page::WidthModel;
use crate::value::Value;

/// One stored record: a logical key (oid index or row id) plus the
/// attribute/field values in layout order.
#[derive(Debug, Clone, PartialEq)]
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
/// row id, a temporary's row count), and the position vector depends on
/// it: it is as long as the largest key held, and an absent key — in
/// range or past the end — answers `None`.
///
/// A temporary is emptied and refilled once per fixpoint pass and once per
/// request: [`Segment::truncate`] keeps the emptied records' value vectors,
/// and `Segment::append_copy` refills them before it allocates one.
#[derive(Debug)]
pub struct Segment {
    field_types: Vec<ResolvedType>,
    rows: Vec<Row>,
    /// key -> physical position, or [`NO_RECORD`].
    position: Vec<u32>,
    rows_per_page: u32,
    /// Empty value vectors of truncated records, for the next appends.
    spare: Vec<Vec<Value>>,
}

/// A copy holds the records, not the spare vectors: a copy-on-write
/// clone is made because somebody still reads the records, and the copy's
/// own truncations will leave it spares of its own.
impl Clone for Segment {
    fn clone(&self) -> Self {
        Segment {
            field_types: self.field_types.clone(),
            rows: self.rows.clone(),
            position: self.position.clone(),
            rows_per_page: self.rows_per_page,
            spare: Vec::new(),
        }
    }
}

impl Segment {
    /// New empty segment for records of the given shape.
    pub fn new(field_types: Vec<ResolvedType>, width: &WidthModel) -> Self {
        let rows_per_page = width.records_per_page(&field_types);
        Self::with_rpp(field_types, rows_per_page)
    }

    /// New empty segment with an explicit records-per-page (used when the
    /// stored width differs from the full record shape, e.g. computed
    /// attributes occupy a slot but no bytes).
    pub(crate) fn with_rpp(field_types: Vec<ResolvedType>, rows_per_page: u32) -> Self {
        Segment {
            field_types,
            rows: Vec::new(),
            position: Vec::new(),
            rows_per_page: rows_per_page.max(1),
            spare: Vec::new(),
        }
    }

    /// A new empty segment for records of this one's shape.
    pub fn emptied(&self) -> Self {
        Self::with_rpp(self.field_types.clone(), self.rows_per_page)
    }

    /// Replace the values of the record at a physical position.
    pub(crate) fn replace_values(&mut self, pos: u32, values: Vec<Value>) {
        if let Some(row) = self.rows.get_mut(pos as usize) {
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
        self.rows.len()
    }

    /// True when the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of pages occupied.
    pub fn num_pages(&self) -> u32 {
        (self.rows.len() as u32).div_ceil(self.rows_per_page)
    }

    /// Append a record at the end (next free slot). Returns its physical
    /// position.
    pub fn append(&mut self, row: Row) -> u32 {
        let pos = self.rows.len() as u32;
        *crate::entry(&mut self.position, row.key as usize, NO_RECORD) = pos;
        self.rows.push(row);
        pos
    }

    /// Append a copy of `values` under `key`, in a value vector a
    /// truncation left behind if there is one. Returns its physical
    /// position.
    pub(crate) fn append_copy(&mut self, key: u32, values: &[Value]) -> u32 {
        let mut copy = self.spare.pop().unwrap_or_default();
        copy.extend_from_slice(values);
        self.append(Row { key, values: copy })
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
        self.rows.get(pos as usize)
    }

    /// Records of one page, with their physical positions.
    pub(crate) fn page_rows(&self, page: u32) -> &[Row] {
        let start = (page * self.rows_per_page) as usize;
        let end = (start + self.rows_per_page as usize).min(self.rows.len());
        if start >= self.rows.len() {
            &[]
        } else {
            &self.rows[start..end]
        }
    }

    /// Iterate all records in physical order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Remove all records, keeping their emptied value vectors for
    /// `Segment::append_copy` to refill.
    pub fn truncate(&mut self) {
        let emptied = self.rows.drain(..).map(|mut row| {
            row.values.clear();
            row.values
        });
        self.spare.extend(emptied);
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
        let n = self.rows.len();
        for i in (1..n).rev() {
            let j = (next() as usize) % (i + 1);
            self.rows.swap(i, j);
        }
        for (pos, row) in self.rows.iter().enumerate() {
            self.position[row.key as usize] = pos as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oorq_schema::{AtomicType, ResolvedType};

    fn int_segment(rpp_target: usize) -> Segment {
        // record width = 8 (key) + 8 (int) = 16; choose page size for target.
        let width = WidthModel {
            page_size: 16 * rpp_target,
            ..WidthModel::default()
        };
        Segment::new(vec![ResolvedType::Atomic(AtomicType::Int)], &width)
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

    #[test]
    fn a_truncated_segment_refills_its_rows_and_a_copy_does_not_carry_them() {
        let mut s = int_segment(4);
        for k in 0..3u32 {
            s.append_copy(k, &[Value::Int(k as i64)]);
        }
        let buffers: Vec<*const Value> = s.iter().map(|r| r.values.as_ptr()).collect();
        s.truncate();
        assert!(s.is_empty());
        assert_eq!((s.position_of(0), s.num_pages()), (None, 0));
        for k in 0..3u32 {
            s.append_copy(k, &[Value::Int(10 + k as i64)]);
        }
        let mut refilled: Vec<*const Value> = s.iter().map(|r| r.values.as_ptr()).collect();
        refilled.reverse();
        assert_eq!(refilled, buffers, "the last emptied row is refilled first");
        assert_eq!(s.row_at(2).unwrap().values, vec![Value::Int(12)]);

        s.truncate();
        let copy = s.clone();
        assert!(copy.spare.is_empty() && s.spare.len() == 3);
    }
}
