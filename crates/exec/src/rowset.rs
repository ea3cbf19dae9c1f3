//! The one set the executor deduplicates rows with: a fixpoint's sink (or
//! the leg root it lends the set to), a projection over a bag and
//! [`crate::Batch::dedup`] each ask it "seen?" of every row they hand on.
//! Beside it, the one table a nested loop finds its held inner's rows in
//! by key ([`KeyTable`]), hashed the same way.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use oorq_storage::Value;

/// A set of rows that borrows the row it is asked about and copies its
/// values only when the row is new.
///
/// The kept rows lie end to end in `values`; row `i` ends at `ends[i]`.
/// Each row is hashed once, with the set's own keys ([`Folded`]). That
/// hash is the key of `heads`, which names the newest row with it, and
/// `older[i]` names the row kept before `i` with the same 64-bit hash, so
/// a full collision is still decided by `Value`'s `Eq`. Growing `heads`
/// moves hashes; no row is hashed again. `clear` keeps every capacity and
/// the keys.
pub(crate) struct RowSet {
    /// The hash's starting state and multiplier, drawn per set.
    keys: [u64; 2],
    heads: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    older: Vec<usize>,
    ends: Vec<usize>,
    values: Vec<Value>,
}

/// The end of a chain in `RowSet::older`.
const NONE: usize = usize::MAX;

impl Default for RowSet {
    /// An empty set with two keys of its own, drawn from `RandomState`.
    fn default() -> Self {
        let state = RandomState::new();
        RowSet {
            keys: [state.hash_one(0u64), state.hash_one(1u64)],
            heads: HashMap::default(),
            older: Vec::new(),
            ends: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl RowSet {
    /// Add `row` unless an equal row is in the set; whether it was added.
    pub(crate) fn insert(&mut self, row: &[Value]) -> bool {
        self.insert_with(row.len(), |j| &row[j])
    }

    /// [`RowSet::insert`] of the row `row[order[0]], row[order[1]], …`,
    /// without building it: the hash, the comparisons and the copy read
    /// `row` through `order`.
    pub(crate) fn insert_in(&mut self, row: &[Value], order: &[usize]) -> bool {
        self.insert_with(order.len(), |j| &row[order[j]])
    }

    /// Add the row of `len` values whose `j`-th is `col(j)`.
    fn insert_with<'r>(&mut self, len: usize, col: impl Fn(usize) -> &'r Value) -> bool {
        let mut hasher = Folded {
            state: self.keys[0],
            key: self.keys[1],
        };
        hasher.write_usize(len);
        (0..len).for_each(|j| col(j).hash(&mut hasher));
        self.insert_hashed(len, col, hasher.finish())
    }

    /// Add the row of `len` values whose `j`-th is `col(j)`, its hash given
    /// (equal rows must be given equal hashes).
    fn insert_hashed<'r>(
        &mut self,
        len: usize,
        col: impl Fn(usize) -> &'r Value,
        hash: u64,
    ) -> bool {
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
                    let kept = &values[start..ends[i]];
                    if kept.len() == len && kept.iter().enumerate().all(|(j, v)| *v == *col(j)) {
                        return false;
                    }
                    i = older[i];
                }
                head.insert(new)
            }
        };
        older.push(next);
        values.extend((0..len).map(|j| col(j).clone()));
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

/// A nested loop's held inner by one key column: where each row lies
/// (its page and its place on the page), chained by its key's hash in the
/// order the rows were added, so the rows of one key are found page by
/// page without comparing the others. A key is hashed as [`RowSet`]
/// hashes a value, with two keys of the table's own. A chain holds every
/// row whose key has its 64-bit hash, so the caller confirms each row
/// [`KeyTable::walk`] offers. `clear` keeps every capacity and the keys.
#[derive(Clone, Debug)]
pub(crate) struct KeyTable {
    /// The hash's starting state and multiplier, drawn per table.
    keys: [u64; 2],
    /// Per hash: the first and the last row of its chain, in `rows`.
    heads: HashMap<u64, [u32; 2], BuildHasherDefault<PassThrough>>,
    /// Every row added, in the order it was.
    rows: Vec<Place>,
}

/// Where a row of a [`KeyTable`] lies, and the next row of its chain
/// (`u32::MAX`: none).
#[derive(Clone, Copy, Debug)]
struct Place {
    page: u32,
    row: u32,
    next: u32,
}

impl Default for KeyTable {
    /// An empty table with two keys of its own, drawn from `RandomState`.
    fn default() -> Self {
        let state = RandomState::new();
        KeyTable {
            keys: [state.hash_one(0u64), state.hash_one(1u64)],
            heads: HashMap::default(),
            rows: Vec::new(),
        }
    }
}

impl KeyTable {
    /// Add row `row` of page `page`, whose key is `key`. Rows are added
    /// in the order they lie: by page, then by row.
    pub(crate) fn add(&mut self, key: &Value, page: u32, row: u32) {
        self.add_hashed(self.hash(key), page, row);
    }

    /// Add a row whose key hashes to `hash` (equal keys must be given
    /// equal hashes).
    fn add_hashed(&mut self, hash: u64, page: u32, row: u32) {
        let new = self.rows.len() as u32;
        self.rows.push(Place {
            page,
            row,
            next: u32::MAX,
        });
        match self.heads.entry(hash) {
            Entry::Vacant(head) => {
                head.insert([new, new]);
            }
            Entry::Occupied(mut head) => {
                let [_, last] = head.get_mut();
                self.rows[*last as usize].next = new;
                *last = new;
            }
        }
    }

    /// The start of the chain that holds every row keyed `key`: a place
    /// for [`KeyTable::walk`].
    pub(crate) fn chain(&self, key: &Value) -> u32 {
        self.chain_hashed(self.hash(key))
    }

    /// The start of the chain of `hash`.
    fn chain_hashed(&self, hash: u64) -> u32 {
        self.heads.get(&hash).map_or(u32::MAX, |&[first, _]| first)
    }

    /// The rows of page `page` on the chain from `at`, by row, in order,
    /// for which `keep` holds, onto the end of `hits`; `at` steps past
    /// them, to the chain's first row of a later page. Walked page by
    /// page from the chain's start, every row of the chain is offered
    /// once, on its own page.
    pub(crate) fn walk(
        &self,
        at: &mut u32,
        page: u32,
        mut keep: impl FnMut(usize) -> bool,
        hits: &mut Vec<usize>,
    ) {
        while let Some(place) = self.rows.get(*at as usize).filter(|p| p.page == page) {
            if keep(place.row as usize) {
                hits.push(place.row as usize);
            }
            *at = place.next;
        }
    }

    /// `key`'s hash under the table's keys.
    fn hash(&self, key: &Value) -> u64 {
        let mut hasher = Folded {
            state: self.keys[0],
            key: self.keys[1],
        };
        key.hash(&mut hasher);
        hasher.finish()
    }

    /// Forget every row, keeping the memory for the next ones.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.rows.clear();
    }
}

/// A row's hasher: every word written is folded into `state` by a
/// multiply with `key` whose 128-bit product's halves are XORed (the
/// folded multiply of foldhash and aHash). Both words come from the set's
/// `RandomState`, so no constant of the program decides which rows
/// collide: a row cannot be chosen to collide without the keys.
struct Folded {
    state: u64,
    key: u64,
}

impl Hasher for Folded {
    fn finish(&self) -> u64 {
        self.state
    }

    /// Bytes (a text's): their length, then eight at a time, the last
    /// word zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.state ^ n) * u128::from(self.key);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `RowSet::heads`' and `KeyTable::heads`' hasher: their keys are hashes
/// already.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("heads are keyed by u64 hashes")
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

    use super::{KeyTable, RowSet};

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
    /// nested collections, and sets reused after `clear`. Each row is
    /// also asked of two more sets as a wider row read through an order
    /// (`insert_in`), with repeated and skipped columns. The second set of
    /// each pair hashes every row alike, so each insert walks one
    /// collision chain.
    #[test]
    fn a_row_set_is_the_hash_set_it_replaces() {
        let mut rng = Prng::new(27);
        let mut sets: [RowSet; 4] = Default::default();
        let mut model: HashSet<Vec<Value>> = HashSet::new();
        let (mut kept, mut turned_away, mut clears) = (0, 0, 0);
        for step in 0..24_000 {
            if rng.chance(0.004) {
                sets.iter_mut().for_each(RowSet::clear);
                model.clear();
                clears += 1;
                continue;
            }
            let wide: Vec<Value> = (0..1 + rng.index(4)).map(|_| value(&mut rng, 2)).collect();
            let order: Vec<usize> = (0..rng.index(4)).map(|_| rng.index(wide.len())).collect();
            let row: Vec<Value> = order.iter().map(|&i| wide[i].clone()).collect();
            let new = model.insert(row.clone());
            let [hashed, collided, ordered, ordered_collided] = &mut sets;
            let case = format!("step {step}: {row:?} as {order:?} of {wide:?}");
            assert_eq!(hashed.insert(&row), new, "{case}");
            assert_eq!(
                collided.insert_hashed(row.len(), |j| &row[j], 7),
                new,
                "{case}"
            );
            assert_eq!(ordered.insert_in(&wide, &order), new, "{case}");
            let read = |j: usize| &wide[order[j]];
            assert_eq!(
                ordered_collided.insert_hashed(order.len(), read, 7),
                new,
                "{case}"
            );
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
        let wide = [Value::text("a"), Value::Float(2.0), Value::Int(1)];
        assert!(!set.insert_in(&wide, &[2, 0]));
        assert!(set.insert_in(&wide, &[1, 0]));
        assert!(!set.insert(&[Value::Int(2), Value::text("a")]));
    }

    /// `KeyTable` finds, page by page, the rows whose key equals a probe's,
    /// in order — what comparing every row of every page finds — over pages
    /// of random keys (`Int`s equal to `Float`s, texts, oids, duplicates
    /// on several pages, empty pages) and tables reused after `clear`. The
    /// second table hashes every key alike, so every walk is one chain of
    /// every row, and only the caller's `==` tells the keys apart.
    #[test]
    fn a_key_table_finds_what_comparing_every_row_finds() {
        let mut rng = Prng::new(41);
        let (mut hashed, mut collided) = (KeyTable::default(), KeyTable::default());
        let (mut found, mut offered) = (0, 0);
        for _ in 0..300 {
            hashed.clear();
            collided.clear();
            let pages: Vec<Vec<Value>> = (0..rng.index(5))
                .map(|_| (0..rng.index(6)).map(|_| scalar(&mut rng)).collect())
                .collect();
            for (page, keys) in pages.iter().enumerate() {
                for (row, key) in keys.iter().enumerate() {
                    hashed.add(key, page as u32, row as u32);
                    collided.add_hashed(7, page as u32, row as u32);
                }
            }
            for _ in 0..8 {
                let key = scalar(&mut rng);
                let (mut at, mut at_collided) = (hashed.chain(&key), collided.chain_hashed(7));
                for (page, keys) in pages.iter().enumerate() {
                    let model: Vec<usize> = (0..keys.len()).filter(|&r| keys[r] == key).collect();
                    let (mut hits, mut all) = (vec![9], Vec::new());
                    hashed.walk(&mut at, page as u32, |r| keys[r] == key, &mut hits);
                    collided.walk(&mut at_collided, page as u32, |_| true, &mut all);
                    assert_eq!(hits[1..], model, "{key:?} on page {page} of {pages:?}");
                    assert_eq!(all, (0..keys.len()).collect::<Vec<_>>(), "page {page}");
                    found += model.len();
                    offered += all.len();
                }
                assert_eq!(at, u32::MAX, "{key:?}: the chain is walked to its end");
            }
        }
        assert!(
            found > 500 && offered > 10_000,
            "{found} found, {offered} offered"
        );

        // A number is one key, whichever kind holds it.
        let mut table = KeyTable::default();
        table.add(&Value::Float(1.0), 0, 0);
        table.add(&Value::text("a"), 0, 1);
        table.add(&Value::Int(1), 2, 3);
        let mut at = table.chain(&Value::Int(1));
        let mut hits = Vec::new();
        table.walk(&mut at, 0, |_| true, &mut hits);
        assert_eq!(hits, [0]);
        table.walk(&mut at, 1, |_| true, &mut hits);
        table.walk(&mut at, 2, |_| true, &mut hits);
        assert_eq!((hits, at), (vec![0, 3], u32::MAX));
    }
}
