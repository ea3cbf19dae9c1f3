//! The one set the executor deduplicates rows with: a fixpoint's sink, a
//! projection over a bag and [`crate::Batch::dedup`] each ask it "seen?"
//! of every row they hand on.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use oorq_storage::Value;

/// A set of rows that borrows the row it is asked about and copies its
/// values only when the row is new.
///
/// The kept rows lie end to end in `values`; row `i` ends at `ends[i]`.
/// Each row is hashed once, with the set's own keyed SipHash. That hash
/// is the key of `heads`, which names the newest row with it, and
/// `older[i]` names the row kept before `i` with the same 64-bit hash, so
/// a full collision is still decided by `Value`'s `Eq`. Growing `heads`
/// moves hashes; no row is hashed again. `clear` keeps every capacity.
#[derive(Default)]
pub(crate) struct RowSet {
    hasher: RandomState,
    heads: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    older: Vec<usize>,
    ends: Vec<usize>,
    values: Vec<Value>,
}

/// The end of a chain in `RowSet::older`.
const NONE: usize = usize::MAX;

impl RowSet {
    /// Add `row` unless an equal row is in the set; whether it was added.
    pub(crate) fn insert(&mut self, row: &[Value]) -> bool {
        let hash = self.hasher.hash_one(row);
        self.insert_hashed(row, hash)
    }

    /// [`RowSet::insert`] with the row's hash given (equal rows must be
    /// given equal hashes).
    fn insert_hashed(&mut self, row: &[Value], hash: u64) -> bool {
        let RowSet {
            heads,
            older,
            ends,
            values,
            ..
        } = self;
        let new = ends.len();
        let next = match heads.entry(hash) {
            Entry::Vacant(head) => {
                head.insert(new);
                NONE
            }
            Entry::Occupied(mut head) => {
                let mut i = *head.get();
                while i != NONE {
                    let start = if i == 0 { 0 } else { ends[i - 1] };
                    if values[start..ends[i]] == *row {
                        return false;
                    }
                    i = older[i];
                }
                head.insert(new)
            }
        };
        older.push(next);
        values.extend_from_slice(row);
        ends.push(values.len());
        true
    }

    /// Forget every row, keeping the memory for the next ones.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.older.clear();
        self.ends.clear();
        self.values.clear();
    }
}

/// `RowSet::heads`' hasher: its keys are hashes already.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("RowSet::heads is keyed by u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use oorq_prng::Prng;
    use oorq_storage::{Oid, Value};

    use super::RowSet;

    fn scalar(rng: &mut Prng) -> Value {
        match rng.index(7) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(0.5)),
            2 => Value::Int(rng.range_i64(0, 3)),
            3 => Value::Float([0.0, 1.0, 1.5, 2.0][rng.index(4)]),
            4 => Value::text(["a", "b"][rng.index(2)]),
            _ => Value::Oid(Oid::new(
                oorq_schema::ClassId(rng.range_u32(0, 2)),
                rng.range_u32(0, 3),
            )),
        }
    }

    fn value(rng: &mut Prng, depth: u32) -> Value {
        let members = |rng: &mut Prng| (0..rng.index(3)).map(|_| value(rng, depth - 1)).collect();
        match if depth == 0 { 0 } else { rng.index(8) } {
            1 => Value::Set(members(rng)),
            2 => Value::List(members(rng)),
            3 => Value::Tuple(members(rng)),
            _ => scalar(rng),
        }
    }

    /// `RowSet` answers every insert as a `HashSet<Vec<Value>>` does, over
    /// rows of mixed arity (the empty row too), `Int`s equal to `Float`s,
    /// nested collections, and sets reused after `clear`. The second set
    /// hashes every row alike, so each insert walks one collision chain.
    #[test]
    fn a_row_set_is_the_hash_set_it_replaces() {
        let mut rng = Prng::new(27);
        let (mut hashed, mut collided) = (RowSet::default(), RowSet::default());
        let mut model: HashSet<Vec<Value>> = HashSet::new();
        let (mut kept, mut turned_away, mut clears) = (0, 0, 0);
        for step in 0..24_000 {
            if rng.chance(0.004) {
                hashed.clear();
                collided.clear();
                model.clear();
                clears += 1;
                continue;
            }
            let row: Vec<Value> = (0..rng.index(4)).map(|_| value(&mut rng, 2)).collect();
            let new = model.insert(row.clone());
            assert_eq!(hashed.insert(&row), new, "step {step}: {row:?}");
            assert_eq!(collided.insert_hashed(&row, 7), new, "step {step}: {row:?}");
            if new {
                kept += 1;
            } else {
                turned_away += 1;
            }
        }
        assert!(
            kept > 5_000 && turned_away > 5_000 && clears > 50,
            "{kept} kept, {turned_away} turned away, {clears} clears"
        );

        // A number is one value, whichever kind holds it.
        let mut set = RowSet::default();
        assert!(set.insert(&[Value::Int(1), Value::text("a")]));
        assert!(!set.insert(&[Value::Float(1.0), Value::text("a")]));
        assert!(set.insert(&[]) && !set.insert(&[]));
        assert!(set.insert(&[Value::Tuple(vec![Value::Int(1)])]));
        assert!(!set.insert(&[Value::Tuple(vec![Value::Float(1.0)])]));
        assert!(set.insert(&[Value::Set(vec![Value::Int(1)])]));
    }
}
