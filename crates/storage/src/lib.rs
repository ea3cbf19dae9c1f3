//! Object store substrate for OORQ.
//!
//! Implements the physical database model of §3 of the paper: the *direct
//! storage* approach of \[VKC86\] (sub-object oids stored within owners),
//! page-based extensions with a buffer manager that accounts physical
//! I/O, static clustering, temporary files for intermediate results, and
//! the statistics (`|C|`, `‖C‖`, selectivities, fan-outs, chain depths)
//! consumed by the cost model. Each class and each stored relation is one
//! atomic entity, its whole extension: §3.2's horizontal and vertical
//! decompositions are not modelled.

mod buffer;
mod database;
mod error;
mod page;
pub mod physical;
mod segment;
mod stats;
mod value;

pub use buffer::{Account, BufferManager, IoStats};
pub use database::{CheckedOut, Database, PageRows, PageScan, SegmentHold, StorageConfig};
pub use error::StorageError;
pub use page::{PageId, WidthModel};
pub use physical::{
    EntityDesc, EntityId, EntitySource, IndexDesc, IndexId, IndexKindDesc, IndexStats,
    PhysicalSchema,
};
pub use segment::Row;
pub use stats::{AttrStats, ChainDepth, DbStats, EntityStats, ValueCounts};
pub use value::{Oid, Value};

/// Entry `i` of a table indexed by a dense id the store hands out, the
/// table grown with `absent` to reach it.
fn entry<T: Clone>(table: &mut Vec<T>, i: usize, absent: T) -> &mut T {
    if table.len() <= i {
        table.resize(i + 1, absent);
    }
    &mut table[i]
}

#[cfg(test)]
mod tests;
