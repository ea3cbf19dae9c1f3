//! Answer rendering and checking against references that never touch
//! the optimizer under test.

use oorq::exec::{eval_query_graph, Batch, MethodRegistry};
use oorq::pt::Fnv64;
use oorq::query::parse_query;
use oorq::storage::Database;

/// Render an answer's rows to bytes: values joined by `|`, one row a
/// line. This is the "answer out" end of a timed request.
pub fn render(batch: &Batch, out: &mut Vec<u8>) {
    use std::io::Write as _;
    out.clear();
    for row in &batch.rows {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(b'|');
            }
            write!(out, "{v}").expect("write to Vec");
        }
        out.push(b'\n');
    }
}

/// An order-independent fingerprint of a rendered answer: answers are
/// duplicate-free row sets, and plans may emit them in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    sum: u64,
}

impl Digest {
    /// Digest rendered bytes (as [`render`] writes them).
    pub fn of_bytes(bytes: &[u8]) -> Digest {
        Digest::of_rows(bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()))
    }

    /// Digest rows given one at a time.
    pub fn of_rows<R: AsRef<[u8]>>(rows: impl Iterator<Item = R>) -> Digest {
        let mut d = Digest { rows: 0, sum: 0 };
        for row in rows {
            let mut h = Fnv64::new();
            h.write_bytes(row.as_ref());
            d.rows += 1;
            d.sum = d.sum.wrapping_add(h.finish());
        }
        d
    }
}

/// The reference answer of a text: the naive query-graph evaluator run
/// on the text's own parse, on a copy of the data no plan has touched.
pub fn reference_digest(db: &Database, text: &str) -> Result<Digest, String> {
    let graph = parse_query(db.catalog(), text).map_err(|e| format!("reference parse: {e}"))?;
    let batch = eval_query_graph(db, &MethodRegistry::new(), &graph)
        .map_err(|e| format!("reference evaluation: {e}"))?;
    let mut bytes = Vec::new();
    render(&batch, &mut bytes);
    Ok(Digest::of_bytes(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_and_sees_every_row() {
        let a = Digest::of_bytes(b"1|2\n3|4\n");
        assert_eq!(a, Digest::of_bytes(b"3|4\n1|2\n"));
        assert_eq!(a, Digest::of_rows(["3|4", "1|2"].iter()));
        assert_eq!(a.rows, 2);
        assert_ne!(a, Digest::of_bytes(b"1|2\n3|5\n"));
        assert_ne!(a, Digest::of_bytes(b"1|2\n"));
    }
}
