//! Page model and record width estimation.
//!
//! The store does not serialize records to bytes; it models disk layout by
//! assigning each record a page number according to an estimated record
//! width, so that the buffer manager can account page I/O faithfully.

use oorq_schema::ResolvedType;

/// Identifier of a page: a storage entity plus a page number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId {
    /// Owning entity (extension or temporary).
    pub entity: crate::physical::EntityId,
    /// Page number within the entity.
    pub page: u32,
}

/// Parameters of the width model used to map records to pages.
#[derive(Debug, Clone, Copy)]
pub struct WidthModel {
    /// Page size in bytes.
    pub page_size: usize,
    /// Assumed average width of a text value.
    pub text_width: usize,
    /// Assumed average member count of a set/list value, used when the
    /// actual value is not available (estimation only).
    pub avg_members: usize,
}

impl Default for WidthModel {
    fn default() -> Self {
        WidthModel {
            page_size: 4096,
            text_width: 24,
            avg_members: 8,
        }
    }
}

impl WidthModel {
    /// Estimated width in bytes of a value of the given type.
    pub(crate) fn type_width(&self, ty: &ResolvedType) -> usize {
        match ty {
            ResolvedType::Atomic(a) => match a {
                oorq_schema::AtomicType::Int | oorq_schema::AtomicType::Float => 8,
                oorq_schema::AtomicType::Bool => 1,
                oorq_schema::AtomicType::Text => self.text_width,
            },
            ResolvedType::Object(_) => 8,
            ResolvedType::Tuple(fs) => fs.iter().map(|(_, t)| self.type_width(t)).sum(),
            ResolvedType::Set(e) | ResolvedType::List(e) => {
                8 + self.avg_members * self.type_width(e)
            }
        }
    }

    /// Estimated record width for a record with the given field types.
    pub(crate) fn record_width(&self, fields: &[ResolvedType]) -> usize {
        8 + fields.iter().map(|t| self.type_width(t)).sum::<usize>()
    }

    /// Records that fit on one page (at least 1).
    pub(crate) fn records_per_page(&self, fields: &[ResolvedType]) -> u32 {
        (self.page_size / self.record_width(fields)).max(1) as u32
    }

    /// Pages needed for `n` records of the given shape.
    pub fn pages_for(&self, n: u64, fields: &[ResolvedType]) -> u64 {
        let rpp = self.records_per_page(fields) as u64;
        n.div_ceil(rpp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oorq_schema::{AtomicType, ResolvedType};

    #[test]
    fn widths_add_up() {
        let m = WidthModel::default();
        let int = ResolvedType::Atomic(AtomicType::Int);
        let text = ResolvedType::Atomic(AtomicType::Text);
        assert_eq!(m.type_width(&int), 8);
        assert_eq!(m.type_width(&text), 24);
        let tup = ResolvedType::Tuple(vec![("a".into(), int.clone()), ("b".into(), text)]);
        assert_eq!(m.type_width(&tup), 32);
        let set = ResolvedType::Set(Box::new(int.clone()));
        assert_eq!(m.type_width(&set), 8 + 8 * 8);
        // record adds an oid header of 8 bytes
        assert_eq!(m.record_width(std::slice::from_ref(&int)), 16);
        assert_eq!(m.records_per_page(std::slice::from_ref(&int)), 4096 / 16);
        assert_eq!(m.pages_for(0, std::slice::from_ref(&int)), 0);
        assert_eq!(m.pages_for(1, std::slice::from_ref(&int)), 1);
        assert_eq!(m.pages_for(257, &[int]), 2);
    }

    #[test]
    fn at_least_one_record_per_page() {
        let m = WidthModel {
            page_size: 4,
            ..WidthModel::default()
        };
        let text = ResolvedType::Atomic(AtomicType::Text);
        assert_eq!(m.records_per_page(&[text]), 1);
    }
}
