//! The streaming pipeline: pull-based, chunk-at-a-time execution of
//! lowered physical plans with per-operator counters.
//!
//! Each [`PhysOp`] becomes an operator instance with `open`/`next_chunk`.
//! A chunk is the run of rows an operator produces between two possible
//! page touches: a scan lends out one fetched page at a time
//! ([`Database::scan_pages`]) instead of materializing whole entities,
//! and rows flow straight through filters, projections, dereferences
//! and joins, whose expressions are bound to row slots once, when the
//! tree is built. Built rows lie end to end in a buffer the consumer
//! keeps and hands back to be refilled ([`Chunk`]). Only genuine pipeline
//! breakers materialize, from borrowed rows: the semi-naive fixpoint
//! (accumulator and delta temporaries), the inner of a nested loop
//! over a non-rescannable subtree, and a replayed operand of a
//! fixpoint's recursive leg ([`oorq_pt::replayed`]), whose first pass in
//! a run writes its rows to a page-store temporary as it hands them up
//! and whose later passes read them back instead of re-opening its
//! children.
//!
//! In a profiled run ([`Shared::profile`]) every `open`/`next_chunk` call
//! that can do something is bracketed by snapshots of the run's page
//! account, the CPU counters and a wall clock, accumulating *inclusive*
//! per-operator figures; [`rollup`] subtracts each operator's children to
//! yield the exclusive [`OpReport`]s that bench reports join against the
//! cost model's per-node predictions. Three calls take no bracket, because
//! they touch no page, evaluate nothing and hand up nothing: the `open` of
//! a leaf scan (it takes a segment), a `next_chunk` on a scan that has no
//! page left, and a `next_chunk` on an operator that has already answered
//! `None`. A nested loop's held inner ([`Inner::Held`]) is charged to its
//! scan operator as re-opening it was; a replayed operand's writes and
//! read-backs are its own, and the rows it reads back are not in its
//! `rows_out`. An unprofiled run takes no bracket
//! at all and reports no operator; its page touches, `evals` and delta
//! curves are the same,
//! because the account and the counters are charged where the work is
//! done, not by brackets.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use oorq_index::IndexSet;
use oorq_pt::{lit_value, PhysOp, PhysPlan};
use oorq_storage::{
    Account, Database, EntityId, IoStats, Oid, PageRows, PageScan, SegmentHold, Value,
};

use crate::error::ExecError;
use crate::eval::{same_key, Bound, Counters, EvalCtx, Flat, Pred, Probe, RowRef, Rows};
use crate::methods::MethodRegistry;
use crate::rowset::{KeyTable, RowSet};

/// Observed per-operator counters of one execution (exclusive: each
/// operator's own work, children subtracted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpReport {
    /// Operator id (dense, lowering order).
    pub id: usize,
    /// Pre-order index of the source PT node — the join key against the
    /// cost model's per-node predicted breakdown.
    pub pt_node: usize,
    /// Operator label (aligned with the cost breakdown's labels).
    pub label: String,
    /// Times the operator was opened (1, plus nested-loop rescans of an
    /// inner, plus one per fixpoint iteration for the recursive side).
    pub opens: u64,
    /// Openings a replayed operand served from its replay temporary
    /// (every pass of a run after the one that derived its rows).
    pub replays: u64,
    /// Rows pulled from children (replayed rows included).
    pub rows_in: u64,
    /// Rows produced (derived: the rows a replayed operand read back are
    /// not counted).
    pub rows_out: u64,
    /// Data pages fetched from disk.
    pub page_reads: u64,
    /// Data pages found in the buffer.
    pub page_hits: u64,
    /// Index page reads.
    pub index_reads: u64,
    /// Pages written (temporary spills).
    pub page_writes: u64,
    /// Physical re-reads of temporary pages (spilled breaker state
    /// fetched back from the page store); a subset of `page_reads`.
    pub temp_reads: u64,
    /// Temporary pages this operator's work forced out under the
    /// breaker memory budget.
    pub spill_evictions: u64,
    /// Predicate comparisons evaluated.
    pub evals: u64,
    /// Method (computed-attribute) invocations.
    pub method_calls: u64,
    /// Wall time spent in the operator itself (children subtracted).
    pub wall_ns: u64,
    /// Raw inclusive wall time (children's brackets still included) —
    /// kept alongside the exclusive figure so attribution can be audited.
    pub wall_inclusive_ns: u64,
    /// Brackets closed for the operator: its `open`/`next_chunk` calls
    /// that could do something (a leaf scan's are its page fetches).
    pub calls: u64,
}

/// The per-iteration delta-size curve of one fixpoint *opening*.
///
/// A plan can contain several `Fix` operators, and a fixpoint inside a
/// rescanned subtree can open more than once; each opening records its
/// own curve, keyed by the operator so curves never interleave or
/// concatenate indistinguishably. Openings appear in execution order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FixDeltaCurve {
    /// Physical operator id of the `FixPoint` (dense, lowering order).
    pub op_id: usize,
    /// Pre-order index of the source PT node — the join key against the
    /// cost model's per-node predicted breakdown (`NodeCost::node`).
    pub pt_node: usize,
    /// The temporary the fixpoint accumulates.
    pub temp: String,
    /// Delta sizes in iteration order: the seed delta first, then one
    /// entry per semi-naive iteration; the final entry is 0 when the
    /// fixpoint converged.
    pub deltas: Vec<u64>,
}

impl std::fmt::Display for FixDeltaCurve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@node{}: {:?}", self.temp, self.pt_node, self.deltas)
    }
}

/// Inclusive per-operator tallies (children's work still included).
#[derive(Debug, Clone, Copy, Default)]
struct OpStats {
    opens: u64,
    replays: u64,
    /// Brackets closed ([`Rt::charge`] calls).
    calls: u64,
    rows_out: u64,
    /// Rows read back from a replay temporary.
    replayed_rows: u64,
    io: IoStats,
    evals: u64,
    method_calls: u64,
    wall_ns: u64,
    /// Earliest bracket start on the recorder's clock (`u64::MAX` until
    /// the operator first runs under an enabled recorder).
    first_ns: u64,
    /// Latest bracket end on the recorder's clock.
    last_ns: u64,
    /// Raw clock-skew magnitude: nanoseconds by which computed bracket
    /// starts preceded the recorder's epoch (0 when the two clocks
    /// agree, which the debug-assert convention demands).
    skew_ns: u64,
}

/// What the executor lends one execution: read by every operator,
/// written by none.
#[derive(Clone, Copy)]
pub(crate) struct Shared<'a> {
    pub db: &'a Database,
    pub indexes: &'a IndexSet,
    pub methods: &'a MethodRegistry,
    /// Per fixpoint name, its accumulator and delta entities, those of
    /// the run's record shape first; pre-created by the executor
    /// (creation needs `&mut Database`).
    pub temps: &'a Temps,
    /// Per materializing `NlJoin` and replayed operand (keyed by
    /// operator id): the page-store temporary backing its materialized
    /// inner or its replayed rows; pre-created by the executor alongside
    /// the fixpoint temporaries.
    pub mats: &'a HashMap<usize, EntityId>,
    pub max_fix_iterations: u32,
    /// Trace recorder (disabled by default; one branch per call then).
    pub obs: &'a oorq_obs::Recorder,
    /// Whether operators are bracketed and reported. Off, `open` and
    /// `next_chunk` go straight to the operator's work, and `execute`
    /// returns no `OpReport`.
    pub profile: bool,
}

/// Runtime of one pipeline execution.
struct Rt<'a> {
    shared: Shared<'a>,
    /// The page account the run charges: the database's own, checked out
    /// for the run.
    io: &'a Account,
    counters: &'a Counters,
    stats: RefCell<Vec<OpStats>>,
    /// Per-fixpoint-opening delta curves, in execution order (each
    /// `FixPoint` open appends one curve keyed by its operator).
    fix_deltas: RefCell<Vec<FixDeltaCurve>>,
    /// Key tables no held inner is using: an opening takes one and gives
    /// it back, emptied, when it lets go of its inner ([`Keys`]).
    tables: RefCell<Vec<KeyTable>>,
}

impl<'a> std::ops::Deref for Rt<'a> {
    type Target = Shared<'a>;

    fn deref(&self) -> &Shared<'a> {
        &self.shared
    }
}

/// What one pipeline execution produced: rows (bag semantics — the
/// caller deduplicates the answer), per-operator reports (none unless
/// profiled) and the per-fixpoint delta curves.
pub(crate) type ExecOutput = (Vec<Vec<Value>>, Vec<OpReport>, Vec<FixDeltaCurve>);

/// Execute a lowered plan, charging every page touch to `io`. Held inners
/// take their key tables from `tables` and give them back.
pub(crate) fn execute(
    plan: &PhysPlan,
    shared: Shared<'_>,
    io: &Account,
    counters: &Counters,
    tables: &mut Vec<KeyTable>,
) -> Result<ExecOutput, ExecError> {
    let rt = Rt::new(shared, io, counters, plan.ops, std::mem::take(tables));
    let mut root = build(&plan.root, &shared, false, None);
    let rows = root.open(&rt).and_then(|()| root.drain(&rt));
    drop(root);
    *tables = rt.tables.take();
    let rows = rows?;
    let mut reports = Vec::new();
    if shared.profile {
        let stats = rt.stats.into_inner();
        reports = rollup(plan, &stats);
        record_op_spans(shared.obs, &reports, &stats);
    }
    Ok((rows, reports, rt.fix_deltas.into_inner()))
}

/// The chunks a root hands up, each as whether it is a page lent by the
/// store, and its rows.
#[cfg(test)]
pub(crate) type RootChunks = Result<Vec<(bool, Vec<Vec<Value>>)>, ExecError>;

/// [`execute`]'s drain of the root, chunk by chunk, unprofiled.
#[cfg(test)]
pub(crate) fn root_chunks(
    plan: &PhysPlan,
    shared: Shared<'_>,
    io: &Account,
    counters: &Counters,
) -> RootChunks {
    let rt = Rt::new(shared, io, counters, plan.ops, Vec::new());
    let mut root = build(&plan.root, &shared, false, None);
    root.open(&rt)?;
    let (mut chunks, mut chunk) = (Vec::new(), Chunk::default());
    while root.next_chunk(&rt, &mut chunk)? {
        let (lent, mut rows) = (chunk.page.is_some(), Vec::new());
        chunk.move_into_vecs(&mut rows);
        chunks.push((lent, rows));
        chunk.clear();
    }
    Ok(chunks)
}

/// Synthesize one span per operator that actually ran: the interval is
/// the envelope of its `open`/`next_chunk` brackets, the fields carry its
/// exclusive counters, and the `track` field gives each operator its own
/// named track in the Chrome export (operator envelopes overlap, so they
/// cannot share the stack-discipline track).
fn record_op_spans(obs: &oorq_obs::Recorder, reports: &[OpReport], stats: &[OpStats]) {
    if !obs.enabled() {
        return;
    }
    for (r, s) in reports.iter().zip(stats) {
        if s.first_ns == u64::MAX {
            continue; // never ran under this recorder
        }
        let mut fields: oorq_obs::Fields = vec![
            ("track".into(), format!("op#{} {}", r.id, r.label).into()),
            ("id".into(), r.id.into()),
            ("pt_node".into(), r.pt_node.into()),
            ("opens".into(), r.opens.into()),
            ("rows_in".into(), r.rows_in.into()),
            ("rows_out".into(), r.rows_out.into()),
            ("page_reads".into(), r.page_reads.into()),
            ("page_hits".into(), r.page_hits.into()),
            ("index_reads".into(), r.index_reads.into()),
            ("page_writes".into(), r.page_writes.into()),
            ("temp_reads".into(), r.temp_reads.into()),
            ("spill_evictions".into(), r.spill_evictions.into()),
            ("evals".into(), r.evals.into()),
            ("method_calls".into(), r.method_calls.into()),
            ("wall_ns".into(), r.wall_ns.into()),
            ("wall_inclusive_ns".into(), r.wall_inclusive_ns.into()),
        ];
        if s.skew_ns > 0 {
            // Raw clock-skew magnitude (release builds clamp the span
            // start at 0 instead of underflowing; see `Rt::charge`).
            fields.push(("clock_skew_ns".into(), s.skew_ns.into()));
        }
        obs.add_span("exec", &r.label, None, s.first_ns, s.last_ns, fields);
    }
}

/// The rows one `next_chunk` call hands up. A chunk is cut only where a
/// page touch could fall between its rows and the next ones: a scan's
/// chunk is one storage page, lent where it lies; an operator above which
/// something can still touch the page account before the next breaker
/// ([`OpExec::downstream_touches`]) stops after the rows of one input row
/// if its own work dereferences or probes, and turns each chunk it is
/// given into one chunk if not; an operator above which nothing can keeps
/// going until its input runs out — its own subtree makes the same
/// fetches in the same order either way.
///
/// A chunk is a buffer its consumer keeps (a [`Cursor`]'s, or a breaker's)
/// and clears before each pull: a scan lends its page into `page`, any
/// other operator writes its rows into `values`, end to end. A row costs
/// its values, not an allocation of its own, and once the buffer has
/// grown to a chunk's size, handing up the next one allocates nothing.
#[derive(Default)]
struct Chunk {
    /// The records of one fetched page, borrowed from the store; when set,
    /// the chunk is that page.
    page: Option<PageRows>,
    /// Built rows: row `i` is `values[i * width..(i + 1) * width]`.
    values: Vec<Value>,
    /// Values per built row: the producer's column count.
    width: usize,
    /// Number of built rows.
    rows: usize,
}

impl Chunk {
    fn len(&self) -> usize {
        match &self.page {
            Some(page) => page.len(),
            None => self.rows,
        }
    }

    fn row(&self, i: usize) -> &[Value] {
        match &self.page {
            Some(page) => &page[i].values,
            None => &self.values[i * self.width..][..self.width],
        }
    }

    /// Every row, in order, borrowed.
    fn iter(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Empty the chunk for the next pull: let go of a lent page, keep the
    /// buffer.
    fn clear(&mut self) {
        self.page = None;
        self.values.clear();
        self.rows = 0;
    }

    /// Close the row whose values were just pushed onto `values`.
    fn end_row(&mut self) {
        self.rows += 1;
        debug_assert_eq!(
            self.values.len(),
            self.rows * self.width,
            "rows of {}",
            self.width
        );
    }

    /// Append `left` and `right` end to end as one row: a join's outer row
    /// and its match, or a row and nothing.
    fn push(&mut self, left: &[Value], right: &[Value]) {
        self.values.extend_from_slice(left);
        self.values.extend_from_slice(right);
        self.end_row();
    }

    /// Move row `i` onto the end of `out`: out of built rows, copied off a
    /// page.
    fn move_row(&mut self, i: usize, out: &mut Chunk) {
        match &self.page {
            Some(page) => out.values.extend_from_slice(&page[i].values),
            None => {
                let row = &mut self.values[i * self.width..][..self.width];
                let taken = row.iter_mut().map(|v| std::mem::replace(v, Value::Null));
                out.values.extend(taken);
            }
        }
        out.end_row();
    }

    /// Move every row onto the end of `out`, a chunk of built rows of the
    /// same width; into an empty one, the built rows change places with it.
    fn move_all(&mut self, out: &mut Chunk) {
        if out.len() == 0 && self.page.is_none() {
            std::mem::swap(self, out);
            return;
        }
        for i in 0..self.len() {
            self.move_row(i, out);
        }
    }

    /// Every row as a `Vec` of its own, onto the end of `out`: moved out
    /// of built rows, copied off a page.
    fn move_into_vecs(&mut self, out: &mut Vec<Vec<Value>>) {
        match &self.page {
            Some(page) => out.extend(page.iter().map(|r| r.values.clone())),
            None => {
                let mut values = self.values.drain(..);
                let width = self.width;
                out.extend((0..self.rows).map(|_| values.by_ref().take(width).collect()));
            }
        }
    }
}

/// An operator's place in its input: the chunk it is reading and the
/// next unread row of it.
#[derive(Default)]
struct Cursor {
    chunk: Chunk,
    pos: usize,
}

impl Cursor {
    /// Make an unread row available, pulling the next chunk into the
    /// cursor's buffer once the current one is read. `false` when `pull`
    /// is exhausted; the read chunk — and the page it may borrow — is
    /// released before pulling.
    fn fill(
        &mut self,
        mut pull: impl FnMut(&mut Chunk) -> Result<bool, ExecError>,
    ) -> Result<bool, ExecError> {
        while self.pos >= self.chunk.len() {
            self.reset();
            if !pull(&mut self.chunk)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Forget the chunk being read, keeping its buffer.
    fn reset(&mut self) {
        self.chunk.clear();
        self.pos = 0;
    }

    /// Step to the next unread row of the current chunk.
    fn next(&mut self) -> Option<usize> {
        let i = self.pos;
        (i < self.chunk.len()).then(|| {
            self.pos += 1;
            i
        })
    }

    /// The next unread row, which `fill` has said is there.
    fn next_row(&mut self) -> &[Value] {
        self.pos += 1;
        self.chunk.row(self.pos - 1)
    }

    /// Read the rest of the chunk through `probe`: the rows `outer` joins
    /// with, by index, into `hits`. The rows are walked where they lie.
    fn probe(
        &mut self,
        ctx: &EvalCtx<'_>,
        probe: &Probe<'_>,
        outer: &[Value],
        hits: &mut Vec<usize>,
    ) -> Result<(), ExecError> {
        let from = std::mem::replace(&mut self.pos, self.chunk.len());
        match &self.chunk.page {
            Some(page) => probe.matches(ctx, outer, &page[from..], hits)?,
            None => {
                let Chunk { values, width, .. } = &self.chunk;
                let values = &values[from * width..];
                let len = self.chunk.rows - from;
                let rows = Flat {
                    values,
                    width: *width,
                    len,
                };
                probe.matches(ctx, outer, &rows, hits)?
            }
        }
        hits.iter_mut().for_each(|i| *i += from);
        Ok(())
    }
}

/// The accumulator and delta temporaries of a fixpoint, made for one
/// record shape.
#[derive(Debug, Clone)]
pub(crate) struct FixTemps {
    /// The record shape.
    pub(crate) types: Vec<oorq_schema::ResolvedType>,
    pub(crate) acc: EntityId,
    pub(crate) delta: EntityId,
}

/// Per fixpoint name, the temporaries made for each record shape a
/// fixpoint of that name has had: those of the shape a run's fixpoint
/// has, first.
pub(crate) type Temps = HashMap<String, Vec<FixTemps>>;

/// Per-operator mutable state. Expressions are bound to the operator's
/// input columns when the tree is built.
enum St<'p> {
    /// Entity/temp scan. `scan` holds the segment it reads from `open`
    /// until it runs out, and nothing writes a temporary in between: a
    /// fixpoint sinks a leg after draining it, a nested loop materializes
    /// before it probes and lets go of a held inner ([`Inner::Held`]) when
    /// its outer runs out.
    Scan {
        /// A temp scan's delta, if built.
        delta: Option<EntityId>,
        scan: Option<PageScan>,
    },
    /// A fixpoint: computed at `open` into the accumulator temporary — the
    /// canonical pipeline breaker — and read back as a scan of it (`scan`),
    /// so the readback is hits while resident, reads once the memory
    /// budget spilled it. `seen` holds the rows derived since `open`, in
    /// the accumulator's column order; a leg whose root is a lent
    /// projection holds it while it is drained ([`OpExec::swap_lent`]). A
    /// pass of the recursive leg is drained into `pass` through `pulled`,
    /// which then takes it permuted.
    Fix {
        /// The (accumulator, delta) pair, if built.
        temps: Option<(EntityId, EntityId)>,
        scan: Option<PageScan>,
        seen: RowSet,
        pass: Chunk,
        pulled: Chunk,
    },
    /// Index selection: the probe's oids (copied at `open`) and the next
    /// one to fetch and filter.
    Probe {
        key: Value,
        pred: Bound,
        oids: Vec<Oid>,
        next: usize,
    },
    /// Filter: `hits` is where a probe puts the rows that pass.
    Filter { pred: Pred, hits: Vec<usize> },
    /// Project: the set it asks "seen?" of each row it builds.
    Project { exprs: Vec<Bound>, seen: Seen<'p> },
    /// A projection that keeps every column in place over an input that
    /// cannot repeat a row, and asks no set: it hands its input's chunks
    /// up as they are, a lent page still lent.
    HandUp,
    /// IJ, PIJ: the oid-valued expression followed per input row.
    Deref(Bound),
    /// Nested loop: `cur` is the outer row being joined, `inner` the
    /// place in the inner's pass for it (a held inner's `pos` only; and
    /// the buffer a materialized inner is written from), `hits` where a
    /// probe puts its matches.
    Nl {
        pred: Pred,
        cur: Option<usize>,
        inner: Cursor,
        read: Inner,
        hits: Vec<usize>,
    },
    /// Union: whether the right operand is the one being drained, and the
    /// buffer a right chunk is pulled into to be permuted.
    Union { on_right: bool, pulled: Chunk },
}

/// The set a projection asks "seen?" of each row it builds.
enum Seen<'p> {
    /// None: its input is a set and it keeps every input column, so no
    /// row can come twice.
    Never,
    /// Its own, cleared at each opening: its input can repeat a row.
    Own(RowSet),
    /// Its fixpoint's: the projection is a leg's root, which asks in the
    /// accumulator's column order (`order`, or its own when `None`), and
    /// the fixpoint's sink appends what it hands up without asking again.
    /// The fixpoint swaps its set in for each drain of the leg and back
    /// after ([`OpExec::swap_lent`]); `set` is an empty stand-in between,
    /// not cleared when the projection re-opens.
    Lent {
        set: RowSet,
        order: Option<&'p [usize]>,
    },
}

impl Seen<'_> {
    /// Whether `row` is new: added to the set asked, if any.
    fn insert(&mut self, row: &[Value]) -> bool {
        match self {
            Seen::Never => true,
            Seen::Own(set) | Seen::Lent { set, order: None } => set.insert(row),
            Seen::Lent {
                set,
                order: Some(order),
            } => set.insert_in(row, order),
        }
    }
}

/// How a nested loop reads its inner once per outer row.
enum Inner {
    /// Re-open the inner subtree: a class extent, or a filter or
    /// projection over a scan, builds its rows per page either way.
    Reopen,
    /// Walk the pages of one segment: a bare relation scan's, a
    /// temporary scan's delta (both charged to the scan operator, as its
    /// own passes would be), or the page-store temporary the materialized
    /// inner was written to at `open` (charged to the join). `seg` is
    /// taken at the first outer row of an opening, once the delta of the
    /// pass is written, and let go of when the outer runs out, so a
    /// fixpoint's truncate and sink still write in place; `page` is the
    /// next page of the current outer row's pass. Every pass fetches
    /// every page, so it stays budget-visible, and reads it where it lies
    /// in `seg` ([`SegmentHold::lend`]). `keys` finds a keyed outer row's
    /// matches on each page, and lives as long as `seg`.
    Held {
        seg: Option<SegmentHold>,
        page: u32,
        keys: Keys,
    },
}

impl Inner {
    /// Let go of a held inner's segment and give its key table back to
    /// `pool`: the next opening takes both afresh.
    fn let_go(&mut self, pool: &RefCell<Vec<KeyTable>>) {
        if let Inner::Held { seg, keys, .. } = self {
            *seg = None;
            keys.let_go(pool);
        }
    }
}

/// A held inner's rows by the key an [`Probe::equal_keys`] probe compares,
/// over one opening. Every outer row still fetches every page, and each
/// page still counts its rows as `evals`: only how a pair is decided
/// changes — looked up instead of compared.
pub(crate) enum Keys {
    /// No keyed outer row has started a pass over the inner yet.
    Unfilled,
    /// The pass of the opening's first keyed outer row compares as ever
    /// and adds each page's rows to `table` by their key in `slot`.
    Filling { table: KeyTable, slot: usize },
    /// The table holds every row: a keyed outer row on `slot` reads its
    /// matches off it, page by page, from `at`, its place in the chain of
    /// its key (found on the pass's first page).
    Full {
        table: KeyTable,
        slot: usize,
        at: u32,
    },
    /// Some inner key has no or several members (`Null`, a `Set`, a
    /// `List`): every outer row of the opening compares.
    Off,
}

impl Keys {
    /// [`Probe::matches`] of page `page` of a held inner, `rows`, for the
    /// outer row `outer`: the same hits, in order, and the same `evals`. A
    /// keyed outer row reads them off a full table; any other compares,
    /// and the opening's first keyed one fills a table from `pool` as it
    /// goes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn matches<R: Rows + ?Sized>(
        &mut self,
        pool: &RefCell<Vec<KeyTable>>,
        ctx: &EvalCtx<'_>,
        probe: &Probe<'_>,
        outer: &[Value],
        page: u32,
        rows: &R,
        hits: &mut Vec<usize>,
    ) -> Result<(), ExecError> {
        let Some((key, slot)) = probe.keyed() else {
            return probe.matches(ctx, outer, rows, hits);
        };
        if let (Keys::Unfilled, 0) = (&*self, page) {
            let table = pool.borrow_mut().pop().unwrap_or_default();
            *self = Keys::Filling { table, slot };
        }
        match self {
            Keys::Full {
                table,
                slot: filled,
                at,
            } if *filled == slot => {
                if page == 0 {
                    *at = table.chain(key);
                }
                hits.clear();
                let equal = |r: usize| same_key(&rows.row(r)[slot], key) == Some(true);
                table.walk(at, page, equal, hits);
                ctx.counters.add_evals(rows.len() as u64);
                return Ok(());
            }
            Keys::Filling { table, .. } => {
                if (0..rows.len()).any(|r| same_key(&rows.row(r)[slot], key).is_none()) {
                    self.let_go(pool);
                    *self = Keys::Off;
                } else {
                    (0..rows.len()).for_each(|r| table.add(&rows.row(r)[slot], page, r as u32));
                }
            }
            _ => {}
        }
        probe.matches(ctx, outer, rows, hits)
    }

    /// An outer row's pass is over: a table it filled serves the next.
    pub(crate) fn pass_done(&mut self) {
        *self = match std::mem::replace(self, Keys::Unfilled) {
            Keys::Filling { table, slot } => Keys::Full { table, slot, at: 0 },
            keys => keys,
        };
    }

    /// The opening is over: give the table back to `pool`, emptied.
    pub(crate) fn let_go(&mut self, pool: &RefCell<Vec<KeyTable>>) {
        if let Keys::Filling { mut table, .. } | Keys::Full { mut table, .. } =
            std::mem::replace(self, Keys::Unfilled)
        {
            table.clear();
            pool.borrow_mut().push(table);
        }
    }
}

/// A replayed operand's rows: `temp` is where the run's first pass writes
/// them as they are handed up, `filled` whether a pass has drained the
/// operator since, and `scan` a later opening's read-back of `temp`.
struct Replay {
    temp: Option<EntityId>,
    filled: bool,
    scan: Option<PageScan>,
}

struct OpExec<'p> {
    op: &'p PhysOp,
    kids: Vec<OpExec<'p>>,
    /// Set when the operator is a replayed operand (`OpMeta::replay`).
    replay: Option<Replay>,
    /// Values per row the operator builds: its column count.
    width: usize,
    /// Place in the first child's output.
    input: Cursor,
    st: St<'p>,
    /// Whether anything between this operator and the next breaker above
    /// it (or the root's `drain`) can touch the page account. Where
    /// nothing can, the operator cuts no chunk: whatever it hands up is
    /// consumed touch-free, so handing it up later reorders no touch.
    downstream_touches: bool,
    /// Whether the operator answered `None` since it was last opened.
    done: bool,
}

/// Whether an operator hands up each row at most once per opening: the
/// objects of a class, what a fixpoint or a projection deduplicated, or a
/// selection of such rows. (A stored relation is a bag.)
fn is_set(op: &PhysOp) -> bool {
    match op {
        PhysOp::EntityScan { class, .. } => class.is_some(),
        PhysOp::TempScan { .. } | PhysOp::FixPoint { .. } | PhysOp::Project { .. } => true,
        PhysOp::Filter { input, .. } => is_set(input),
        _ => false,
    }
}

/// Build the operator tree of `op`, which has `downstream_touches` (see
/// [`OpExec`]) above it. The root starts touch-free, and so does a
/// fixpoint's recursive leg: it is drained whole before the sink writes.
/// A fixpoint's base leg does not — the sink appends chunk by chunk — nor
/// does a replayed operand, which writes what it hands up chunk by chunk,
/// nor anything under an operator that fetches between two pulls of its
/// input: a dereference, an index probe, a nested loop (which rescans or
/// re-reads its inner per outer row and materializes it chunk by chunk),
/// a filter or projection whose expression dereferences.
///
/// `leg` is set when `op` is a fixpoint's leg: the column order the
/// fixpoint's set is asked in for its rows (`None`: theirs). A projection
/// there that is not replayed borrows that set ([`Seen::Lent`]).
fn build<'p>(
    op: &'p PhysOp,
    shared: &Shared<'_>,
    downstream_touches: bool,
    leg: Option<Option<&'p [usize]>>,
) -> OpExec<'p> {
    let temps = shared.temps;
    let meta = op.meta();
    let replay = meta.replay.as_ref().map(|_| Replay {
        temp: shared.mats.get(&meta.id).copied(),
        filled: false,
        scan: None,
    });
    let downstream_touches = downstream_touches || replay.is_some();
    let st = match op {
        PhysOp::EntityScan { .. } => St::Scan {
            delta: None,
            scan: None,
        },
        PhysOp::TempScan { name, .. } => St::Scan {
            delta: temps.get(name).map(|made| made[0].delta),
            scan: None,
        },
        PhysOp::FixPoint { temp, .. } => St::Fix {
            temps: temps.get(temp).map(|made| (made[0].acc, made[0].delta)),
            scan: None,
            seen: RowSet::default(),
            pass: Chunk::default(),
            pulled: Chunk::default(),
        },
        PhysOp::IndexSelect {
            key, pred, cols, ..
        } => St::Probe {
            key: lit_value(key),
            pred: Bound::bind(pred, cols),
            oids: Vec::new(),
            next: 0,
        },
        PhysOp::Filter { pred, cols, .. } => St::Filter {
            pred: Pred::bind(pred, cols),
            hits: Vec::new(),
        },
        PhysOp::Project { exprs, input, .. } => {
            let cols = input.cols();
            let exprs: Vec<Bound> = exprs.iter().map(|(_, e)| Bound::bind(e, cols)).collect();
            // Distinct rows that keep every column stay distinct.
            let kept = |col| {
                exprs
                    .iter()
                    .any(|e| matches!(e, Bound::Slot(s) if *s == col))
            };
            let distinct = is_set(input) && (0..cols.len()).all(kept);
            let in_place = exprs.len() == cols.len()
                && (exprs.iter().enumerate()).all(|(i, e)| matches!(e, Bound::Slot(s) if *s == i));
            let seen = match leg.filter(|_| replay.is_none()) {
                Some(order) => Seen::Lent {
                    set: RowSet::default(),
                    order,
                },
                None if distinct => Seen::Never,
                None => Seen::Own(RowSet::default()),
            };
            if in_place && matches!(seen, Seen::Never) {
                St::HandUp
            } else {
                St::Project { exprs, seen }
            }
        }
        PhysOp::IjDeref { on, input, .. } | PhysOp::PijLookup { on, input, .. } => {
            St::Deref(Bound::bind(on, input.cols()))
        }
        PhysOp::NlJoin {
            pred,
            cols,
            rescan_inner,
            right,
            ..
        } => {
            let bare = matches!(
                &**right,
                PhysOp::EntityScan { class: None, .. } | PhysOp::TempScan { .. }
            );
            St::Nl {
                pred: Pred::bind(pred, cols),
                cur: None,
                inner: Cursor::default(),
                read: if bare || !rescan_inner {
                    Inner::Held {
                        seg: None,
                        page: 0,
                        keys: Keys::Unfilled,
                    }
                } else {
                    Inner::Reopen
                },
                hits: Vec::new(),
            }
        }
        PhysOp::UnionAll { .. } => St::Union {
            on_right: false,
            pulled: Chunk::default(),
        },
    };
    let kid_touched = |kid: usize| match (op, &st) {
        (PhysOp::FixPoint { .. }, _) => kid == 0,
        (PhysOp::Filter { .. }, St::Filter { pred, .. }) => downstream_touches || pred.derefs,
        (PhysOp::Project { .. }, St::Project { exprs, .. }) => {
            downstream_touches || exprs.iter().any(Bound::derefs)
        }
        (PhysOp::Project { .. }, St::HandUp) | (PhysOp::UnionAll { .. }, _) => downstream_touches,
        _ => true,
    };
    // The recursive leg's rows are asked in the accumulator's order.
    let leg = |kid: usize| match op {
        PhysOp::FixPoint { perm, .. } => Some(perm.as_deref().filter(|_| kid == 1)),
        _ => None,
    };
    let kids = op.children().into_iter().enumerate();
    let kids = kids.map(|(i, kid)| build(kid, shared, kid_touched(i), leg(i)));
    OpExec {
        op,
        kids: kids.collect(),
        replay,
        width: op.cols().len(),
        input: Cursor::default(),
        st,
        downstream_touches,
        done: false,
    }
}

/// Feed the input's chunks to `each`; the rows it writes into `out` are
/// the chunk handed up (whether there are any is the answer). With `cut` —
/// something above can touch a page — the chunk ends at the first call
/// that wrote rows: `each` reads on from where it stopped, so one that
/// stops after the rows of a single input row keeps its page touches
/// interleaved with its consumers'. Without, nothing above has a touch to
/// interleave, and the chunk ends when the input runs out.
fn pump(
    input: &mut Cursor,
    kid: &mut OpExec<'_>,
    rt: &Rt<'_>,
    cut: bool,
    out: &mut Chunk,
    mut each: impl FnMut(&mut Cursor, &mut Chunk) -> Result<(), ExecError>,
) -> Result<bool, ExecError> {
    while (!cut || out.len() == 0) && input.fill(|chunk| kid.next_chunk(rt, chunk))? {
        each(input, out)?;
    }
    Ok(out.len() > 0)
}

/// The materialization temporary `build` found for operator `op_id`.
fn mat_temp(temp: Option<EntityId>, op_id: usize) -> Result<EntityId, ExecError> {
    temp.ok_or_else(|| {
        ExecError::BadPlan(format!(
            "materialization temporary for op #{op_id} not prepared"
        ))
    })
}

/// What `build` found for temporary `name`: a fixpoint's (accumulator,
/// delta) pair, or a temporary scan's delta.
fn built<T>(found: Option<T>, name: &str) -> Result<T, ExecError> {
    found.ok_or_else(|| ExecError::BadFixpoint(format!("temp `{name}` not built")))
}

/// The rows of `from`, their columns put in the order a union or a
/// fixpoint's recursive side resolved at lowering, onto the end of `to`
/// (rows of `perm.len()` values).
fn permute(perm: &[usize], from: &Chunk, to: &mut Chunk) {
    for row in from.iter() {
        to.values.extend(perm.iter().map(|&i| row[i].clone()));
        to.end_row();
    }
}

/// Snapshot of the shared counters, for inclusive-delta charging.
struct Snap {
    t0: Instant,
    io: IoStats,
    evals: u64,
    method_calls: u64,
}

impl<'a> Rt<'a> {
    fn new(
        shared: Shared<'a>,
        io: &'a Account,
        counters: &'a Counters,
        ops_len: usize,
        tables: Vec<KeyTable>,
    ) -> Self {
        let unrun = OpStats {
            first_ns: u64::MAX,
            ..OpStats::default()
        };
        let ops_len = if shared.profile { ops_len } else { 0 };
        Rt {
            shared,
            io,
            counters,
            stats: RefCell::new(vec![unrun; ops_len]),
            fix_deltas: RefCell::new(Vec::new()),
            tables: RefCell::new(tables),
        }
    }

    fn ctx(&self) -> EvalCtx<'a> {
        EvalCtx {
            db: self.db,
            methods: self.methods,
            counters: self.counters,
            io: Some(self.io),
        }
    }

    fn snap(&self) -> Snap {
        Snap {
            t0: Instant::now(),
            io: self.io.borrow().stats(),
            evals: self.counters.evals.get(),
            method_calls: self.counters.method_calls.get(),
        }
    }

    /// Close a bracket: charge operator `id` everything the account and
    /// the CPU counters moved since `snap`, plus the open or the rows
    /// handed up.
    fn charge(&self, id: usize, snap: Snap, opens: u64, rows_out: u64) {
        let io = self.io.borrow().stats();
        let mut stats = self.stats.borrow_mut();
        let s = &mut stats[id];
        s.opens += opens;
        s.calls += 1;
        s.rows_out += rows_out;
        s.io += io - snap.io;
        s.evals += self.counters.evals.get() - snap.evals;
        s.method_calls += self.counters.method_calls.get() - snap.method_calls;
        let elapsed = snap.t0.elapsed().as_nanos() as u64;
        s.wall_ns += elapsed;
        if self.obs.enabled() {
            // Bracket envelope on the recorder's clock, for the
            // synthesized per-operator spans. Both `elapsed` and `end`
            // come from the same monotonic clock family, so a bracket
            // start before the recorder's epoch is clock skew — assert
            // it (the PR 4 wall-accounting convention) instead of
            // silently clamping to 0, and keep the raw magnitude so a
            // release-build clamp stays auditable.
            let end = self.obs.now_ns();
            match end.checked_sub(elapsed) {
                Some(start) => s.first_ns = s.first_ns.min(start),
                None => {
                    debug_assert!(
                        false,
                        "op #{id}: bracket start precedes the recorder epoch \
                         (elapsed {elapsed}ns > recorder clock {end}ns)"
                    );
                    s.skew_ns += elapsed - end;
                    s.first_ns = 0;
                }
            }
            s.last_ns = s.last_ns.max(end);
        }
    }

    /// Count the `open` of a leaf scan, which takes no bracket: it takes a
    /// segment, touches no page and evaluates nothing. Under an enabled
    /// recorder the operator's span envelope still starts here.
    fn count_open(&self, id: usize) {
        let s = &mut self.stats.borrow_mut()[id];
        s.opens += 1;
        if self.obs.enabled() {
            let now = self.obs.now_ns();
            s.first_ns = s.first_ns.min(now);
            s.last_ns = s.last_ns.max(now);
        }
    }

    /// Count an opening a replayed operand serves from its temporary: no
    /// bracket, as a leaf scan's open takes none.
    fn count_replay(&self, id: usize) {
        self.count_open(id);
        self.stats.borrow_mut()[id].replays += 1;
    }

    /// The page-store temporary backing a materializing `NlJoin`'s inner.
    fn nl_mat(&self, op_id: usize) -> Result<EntityId, ExecError> {
        mat_temp(self.mats.get(&op_id).copied(), op_id)
    }
}

impl OpExec<'_> {
    /// (Re)open the operator. In a profiled run one bracket — clock, I/O
    /// and CPU snapshots, the stats borrow — unless the operator is a leaf
    /// scan, whose open can do nothing a bracket would record and is only
    /// counted.
    fn open(&mut self, rt: &Rt<'_>) -> Result<(), ExecError> {
        self.input.reset();
        self.done = false;
        let id = self.op.meta().id;
        if let Some(replay) = &mut self.replay {
            let temp = mat_temp(replay.temp, id)?;
            if replay.filled {
                // A later pass: read the rows back, leave the children be.
                replay.scan = Some(rt.db.scan_pages(temp, 0..u32::MAX));
                if rt.profile {
                    rt.count_replay(id);
                }
                return Ok(());
            }
            // The run's first pass (or one after a pass that stopped short):
            // derive the rows, writing them down as they are handed up.
            replay.scan = None;
            rt.db.truncate_temp(rt.io, temp)?;
        }
        if !rt.profile {
            return self.open_inner(rt);
        }
        if matches!(self.op, PhysOp::EntityScan { .. } | PhysOp::TempScan { .. }) {
            rt.count_open(id);
            return self.open_inner(rt);
        }
        let snap = rt.snap();
        let res = self.open_inner(rt);
        rt.charge(id, snap, 1, 0);
        res
    }

    /// The next run of rows, into `out` (empty: its consumer cleared it);
    /// `false` once exhausted (and again on every later call, until
    /// re-opened). A profiled run pays one bracket per call, except by an
    /// operator with nothing left to do: a scan — a leaf's, a
    /// fixpoint's read-back or a replay — that has no page left (it let go of its
    /// segment with its last page), or any operator that has already
    /// answered `false`, answers `false` as it is.
    fn next_chunk(&mut self, rt: &Rt<'_>, out: &mut Chunk) -> Result<bool, ExecError> {
        debug_assert_eq!(out.len(), 0, "a chunk is handed up into an empty buffer");
        if self.done {
            return Ok(false);
        }
        let exhausted = match (&self.replay, &self.st) {
            (
                Some(Replay {
                    scan: Some(scan), ..
                }),
                _,
            ) => scan.is_done(),
            (_, St::Scan { scan, .. } | St::Fix { scan, .. }) => {
                scan.as_ref().is_none_or(PageScan::is_done)
            }
            _ => false,
        };
        if exhausted {
            return Ok(false);
        }
        let replaying = matches!(self.replay, Some(Replay { scan: Some(_), .. }));
        out.width = self.width;
        let res = if rt.profile {
            let snap = rt.snap();
            let res = self.next_own(rt, out);
            let rows = match &res {
                Ok(true) => out.len() as u64,
                _ => 0,
            };
            let id = self.op.meta().id;
            if replaying {
                rt.charge(id, snap, 0, 0);
                rt.stats.borrow_mut()[id].replayed_rows += rows;
            } else {
                rt.charge(id, snap, 0, rows);
            }
            res
        } else {
            self.next_own(rt, out)
        };
        self.done = matches!(res, Ok(false));
        res
    }

    /// [`OpExec::next_inner`], through a replayed operand's temporary: read
    /// back on a later pass, written down on the first.
    fn next_own(&mut self, rt: &Rt<'_>, out: &mut Chunk) -> Result<bool, ExecError> {
        let temp = match &mut self.replay {
            None => return self.next_inner(rt, out),
            Some(Replay {
                scan: Some(scan), ..
            }) => {
                out.page = scan.next_page(rt.io);
                return Ok(out.page.is_some());
            }
            Some(Replay { temp, .. }) => mat_temp(*temp, self.op.meta().id)?,
        };
        let more = self.next_inner(rt, out)?;
        if more {
            rt.db.append_temp_rows(rt.io, &[temp], out.iter())?;
        } else if let Some(replay) = &mut self.replay {
            replay.filled = true;
        }
        Ok(more)
    }

    /// The entity a leaf scan reads: its relation or class extent, or
    /// its fixpoint's delta.
    fn leaf_entity(&self) -> Result<EntityId, ExecError> {
        match (self.op, &self.st) {
            (PhysOp::EntityScan { entity, .. }, _) => Ok(*entity),
            (PhysOp::TempScan { name, .. }, St::Scan { delta, .. }) => built(*delta, name),
            _ => unreachable!("not a leaf scan"),
        }
    }

    /// Swap `set` with the stand-in of a leg root that borrows its
    /// fixpoint's set ([`Seen::Lent`]): the fixpoint lends its set before
    /// draining the leg and takes it back after. Whether the operator is
    /// such a root, and so has asked the set of every row it hands up.
    fn swap_lent(&mut self, set: &mut RowSet) -> bool {
        match &mut self.st {
            St::Project {
                seen: Seen::Lent { set: lent, .. },
                ..
            } => {
                std::mem::swap(lent, set);
                true
            }
            _ => false,
        }
    }

    /// Every remaining row, by value: the root's answer, one `Vec` a row.
    fn drain(&mut self, rt: &Rt<'_>) -> Result<Vec<Vec<Value>>, ExecError> {
        let (mut rows, mut chunk) = (Vec::new(), Chunk::default());
        while self.next_chunk(rt, &mut chunk)? {
            chunk.move_into_vecs(&mut rows);
            chunk.clear();
        }
        Ok(rows)
    }

    /// Every remaining row, moved onto the end of `into` as built rows,
    /// each chunk pulled into `pulled` first.
    fn drain_into(
        &mut self,
        rt: &Rt<'_>,
        pulled: &mut Chunk,
        into: &mut Chunk,
    ) -> Result<(), ExecError> {
        into.width = self.width;
        while self.next_chunk(rt, pulled)? {
            pulled.move_all(into);
            pulled.clear();
        }
        Ok(())
    }

    fn open_inner(&mut self, rt: &Rt<'_>) -> Result<(), ExecError> {
        if matches!(self.op, PhysOp::EntityScan { .. } | PhysOp::TempScan { .. }) {
            let pages = rt.db.scan_pages(self.leaf_entity()?, 0..u32::MAX);
            if let St::Scan { scan, .. } = &mut self.st {
                *scan = Some(pages);
            }
            return Ok(());
        }
        let OpExec { op, kids, st, .. } = self;
        let meta = op.meta();
        match (&**op, st) {
            (
                PhysOp::IndexSelect { index, .. },
                St::Probe {
                    key, oids, next, ..
                },
            ) => {
                let six = rt
                    .indexes
                    .selection(*index)
                    .ok_or(ExecError::MissingIndex)?;
                oids.clear();
                oids.extend_from_slice(six.probe(rt.io, key));
                *next = 0;
                Ok(())
            }
            (PhysOp::Filter { .. }, St::Filter { .. }) => kids[0].open(rt),
            (PhysOp::Project { .. }, St::Project { seen, .. }) => {
                if let Seen::Own(set) = seen {
                    set.clear();
                }
                kids[0].open(rt)
            }
            (PhysOp::Project { .. }, St::HandUp) => kids[0].open(rt),
            (PhysOp::IjDeref { .. }, St::Deref(_)) => kids[0].open(rt),
            (PhysOp::PijLookup { index, .. }, St::Deref(_)) => {
                rt.indexes.path(*index).ok_or(ExecError::MissingIndex)?;
                kids[0].open(rt)
            }
            (
                PhysOp::NlJoin { rescan_inner, .. },
                St::Nl {
                    cur, inner, read, ..
                },
            ) => {
                *cur = None;
                inner.reset();
                // Let go of the last opening's inner before writing.
                read.let_go(&rt.tables);
                kids[0].open(rt)?;
                if !rescan_inner {
                    // Pipeline breaker: materialize the complex inner once
                    // into a page-store temporary, so its footprint counts
                    // against the breaker memory budget and its writes and
                    // re-reads are charged to this operator's `IoStats`.
                    let mat_e = rt.nl_mat(meta.id)?;
                    rt.db.truncate_temp(rt.io, mat_e)?;
                    kids[1].open(rt)?;
                    let chunk = &mut inner.chunk;
                    while kids[1].next_chunk(rt, chunk)? {
                        rt.db.append_temp_rows(rt.io, &[mat_e], chunk.iter())?;
                        chunk.clear();
                    }
                }
                Ok(())
            }
            (PhysOp::UnionAll { .. }, St::Union { on_right, .. }) => {
                *on_right = false;
                kids[0].open(rt)
            }
            (
                PhysOp::FixPoint { temp, perm, .. },
                St::Fix {
                    temps,
                    scan,
                    seen,
                    pass,
                    pulled,
                },
            ) => {
                // Let go of the last opening's read-back before writing.
                *scan = None;
                let (acc_e, delta_e) = built(*temps, temp)?;
                rt.db.truncate_temp(rt.io, acc_e)?;
                rt.db.truncate_temp(rt.io, delta_e)?;
                seen.clear();

                // Each opening records its own delta curve, keyed by the
                // operator (two `Fix` nodes — or one re-opened fixpoint —
                // must never interleave or concatenate their curves).
                let curve = {
                    let mut curves = rt.fix_deltas.borrow_mut();
                    curves.push(FixDeltaCurve {
                        op_id: meta.id,
                        pt_node: meta.pt_node,
                        temp: temp.clone(),
                        deltas: Vec::new(),
                    });
                    curves.len() - 1
                };
                let note_delta = |iteration: u32| {
                    let delta_rows = rt.db.entity_len(delta_e) as u64;
                    rt.fix_deltas.borrow_mut()[curve].deltas.push(delta_rows);
                    if rt.obs.enabled() {
                        rt.obs.event(
                            "exec",
                            "fix-iteration",
                            vec![
                                ("temp".into(), temp.as_str().into()),
                                ("op_id".into(), meta.id.into()),
                                ("pt_node".into(), meta.pt_node.into()),
                                ("iteration".into(), iteration.into()),
                                ("delta_rows".into(), delta_rows.into()),
                            ],
                        );
                    }
                };
                // The rows not derived before go to the accumulator and
                // the delta side by side, so the two temporaries' page
                // writes interleave as their rows do. The rows are
                // borrowed where they lie; each temporary copies them. A
                // leg whose root `asked` the set itself hands up only
                // such rows; any other leg's are asked here.
                let sink = |rows: &Chunk, seen: &mut RowSet, asked: bool| {
                    let new = rows.iter().filter(|row| asked || seen.insert(row));
                    rt.db.append_temp_rows(rt.io, &[acc_e, delta_e], new)
                };
                let [base, rec] = kids.as_mut_slice() else {
                    unreachable!("a fixpoint has two legs")
                };

                // Base case: seed the accumulator and the delta.
                pass.clear();
                let asked = base.swap_lent(seen);
                let seeded = base.open(rt).and_then(|()| {
                    while base.next_chunk(rt, pass)? {
                        sink(pass, seen, asked)?;
                        pass.clear();
                    }
                    Ok(())
                });
                base.swap_lent(seen);
                seeded?;
                note_delta(0);

                // Iterate the recursive side over the delta until no new
                // rows appear.
                let mut iterations = 0u32;
                while rt.db.entity_len(delta_e) > 0 {
                    iterations += 1;
                    if iterations > rt.max_fix_iterations {
                        return Err(ExecError::FixpointDiverged(temp.clone()));
                    }
                    pass.clear();
                    pulled.clear();
                    let asked = rec.swap_lent(seen);
                    let drained = rec.open(rt).and_then(|()| rec.drain_into(rt, pulled, pass));
                    rec.swap_lent(seen);
                    drained?;
                    rt.db.truncate_temp(rt.io, delta_e)?;
                    match perm {
                        Some(perm) => {
                            pulled.width = perm.len();
                            permute(perm, pass, pulled);
                            sink(pulled, seen, asked)?;
                        }
                        None => sink(pass, seen, asked)?,
                    }
                    note_delta(iterations);
                }
                // Converged: stream the answer back out of the
                // accumulator temporary. The readback is charged to this
                // operator — page hits while the accumulator stayed
                // resident, physical re-reads once the memory budget
                // spilled it.
                *scan = Some(rt.db.scan_pages(acc_e, 0..u32::MAX));
                Ok(())
            }
            _ => unreachable!("operator/state shape mismatch"),
        }
    }

    fn next_inner(&mut self, rt: &Rt<'_>, out: &mut Chunk) -> Result<bool, ExecError> {
        let OpExec {
            op,
            kids,
            input,
            st,
            downstream_touches,
            ..
        } = self;
        let downstream_touches = *downstream_touches;
        let ctx = rt.ctx();
        match (&**op, st) {
            (PhysOp::EntityScan { class, .. }, St::Scan { scan, .. }) => {
                let Some(page) = scan.as_mut().and_then(|scan| scan.next_page(rt.io)) else {
                    return Ok(false);
                };
                match class {
                    Some(c) => {
                        for r in page.iter() {
                            out.push(&[Value::Oid(Oid::new(*c, r.key))], &[]);
                        }
                    }
                    None => out.page = Some(page),
                }
                Ok(true)
            }
            (PhysOp::TempScan { .. }, St::Scan { scan, .. })
            | (PhysOp::FixPoint { .. }, St::Fix { scan, .. }) => {
                out.page = scan.as_mut().and_then(|scan| scan.next_page(rt.io));
                Ok(out.page.is_some())
            }
            (
                PhysOp::IndexSelect { class, .. },
                St::Probe {
                    pred, oids, next, ..
                },
            ) => {
                while let Some(&o) = oids.get(*next) {
                    *next += 1;
                    if o.class != *class {
                        continue;
                    }
                    // Fetch the object's page (the probe yields only oids),
                    // then apply the full predicate as a residual filter.
                    rt.db.touch_object(rt.io, o)?;
                    let row = [Value::Oid(o)];
                    if pred.truthy(&ctx, row.as_slice().into())? {
                        out.push(&row, &[]);
                        if downstream_touches {
                            break;
                        }
                    }
                }
                Ok(out.len() > 0)
            }
            (PhysOp::Filter { .. }, St::Filter { pred, hits }) => {
                let cut = pred.derefs && downstream_touches;
                let probe = pred.probe(&[]);
                pump(
                    input,
                    &mut kids[0],
                    rt,
                    downstream_touches,
                    out,
                    |input, out| {
                        if let Some(probe) = &probe {
                            input.probe(&ctx, probe, &[], hits)?;
                            for &i in hits.iter() {
                                input.chunk.move_row(i, out);
                            }
                            return Ok(());
                        }
                        while let Some(i) = input.next() {
                            if pred.truthy(&ctx, input.chunk.row(i).into())? {
                                input.chunk.move_row(i, out);
                                if cut {
                                    break;
                                }
                            }
                        }
                        Ok(())
                    },
                )
            }
            (PhysOp::Project { .. }, St::Project { exprs, seen }) => {
                let cut = exprs.iter().any(Bound::derefs) && downstream_touches;
                pump(
                    input,
                    &mut kids[0],
                    rt,
                    downstream_touches,
                    out,
                    |input, out| {
                        while let Some(i) = input.next() {
                            let row = RowRef::from(input.chunk.row(i));
                            let start = out.values.len();
                            for e in exprs.iter() {
                                out.values.push(e.eval(&ctx, row)?.into_owned());
                            }
                            if seen.insert(&out.values[start..]) {
                                out.end_row();
                                if cut {
                                    break;
                                }
                            } else {
                                out.values.truncate(start);
                            }
                        }
                        Ok(())
                    },
                )
            }
            (PhysOp::Project { .. }, St::HandUp) => kids[0].next_chunk(rt, out),
            (PhysOp::IjDeref { .. }, St::Deref(on)) => {
                pump(
                    input,
                    &mut kids[0],
                    rt,
                    downstream_touches,
                    out,
                    |input, out| {
                        let row = input.next_row();
                        for m in on.eval(&ctx, row.into())?.members() {
                            if let Value::Oid(o) = m {
                                // Touch the sub-object's page: the implicit join
                                // is what pays the dereference.
                                rt.db.touch_object(rt.io, *o)?;
                                out.push(row, std::slice::from_ref(m));
                            }
                        }
                        Ok(())
                    },
                )
            }
            (PhysOp::PijLookup { index, outs, .. }, St::Deref(on)) => {
                let pix = rt.indexes.path(*index).ok_or(ExecError::MissingIndex)?;
                pump(
                    input,
                    &mut kids[0],
                    rt,
                    downstream_touches,
                    out,
                    |input, out| {
                        let row = input.next_row();
                        for m in on.eval(&ctx, row.into())?.members() {
                            let Value::Oid(head) = m else { continue };
                            for tail in pix.probe(rt.io, *head) {
                                if let Some(tail) = tail.get(..outs.len()) {
                                    out.values.extend_from_slice(row);
                                    out.values.extend(tail.iter().map(|&o| Value::Oid(o)));
                                    out.end_row();
                                }
                            }
                        }
                        Ok(())
                    },
                )
            }
            (
                PhysOp::NlJoin { rescan_inner, .. },
                St::Nl {
                    pred,
                    cur,
                    inner,
                    read,
                    hits,
                },
            ) => {
                let [left, right] = kids.as_mut_slice() else {
                    unreachable!("a join has two operands")
                };
                // A leaf inner's passes are the scan operator's.
                let scan_id = rescan_inner.then(|| right.op.meta().id);
                let cut = pred.derefs && downstream_touches;
                // One chunk across outer rows where nothing above can
                // touch a page; the matches of one outer row in one inner
                // chunk where something can.
                loop {
                    let l = match *cur {
                        Some(l) => l,
                        None => {
                            if !input.fill(|chunk| left.next_chunk(rt, chunk))? {
                                // Let go of the inner before anything above
                                // writes it.
                                read.let_go(&rt.tables);
                                return Ok(out.len() > 0);
                            }
                            // Honest nested loop: pass over the whole inner
                            // through the buffer manager for every outer
                            // row — hits while it stays resident, physical
                            // re-reads once evicted or spilled.
                            match read {
                                Inner::Reopen => right.open(rt)?,
                                Inner::Held { seg, page, .. } => {
                                    if seg.is_none() {
                                        let entity = match scan_id {
                                            Some(_) => right.leaf_entity()?,
                                            None => rt.nl_mat(op.meta().id)?,
                                        };
                                        *seg = Some(rt.db.hold(entity));
                                    }
                                    *page = 0;
                                    if let Some(id) = scan_id.filter(|_| rt.profile) {
                                        rt.count_open(id);
                                    }
                                }
                            }
                            *cur.insert(input.next().expect("filled"))
                        }
                    };
                    // Compare the outer row with the inner rows where they
                    // lie; a pair becomes a row only when it matches. What
                    // the outer row already decides is decided once.
                    let lrow = input.chunk.row(l);
                    let probe = pred.probe(lrow);
                    match read {
                        Inner::Held {
                            seg: Some(seg),
                            page,
                            keys,
                        } => {
                            // Pages are borrowed from the hold: the pass
                            // goes on at `inner.pos` of the page fetched
                            // last, or fetches the next.
                            while !downstream_touches || out.len() == 0 {
                                let mut rows = page.checked_sub(1).map_or(&[][..], |p| seg.lent(p));
                                if inner.pos >= rows.len() {
                                    if *page == seg.num_pages() {
                                        break;
                                    }
                                    // A leaf inner's page is bracketed to
                                    // its scan operator, as the scan's own
                                    // `next_chunk` would be.
                                    let snap =
                                        scan_id.filter(|_| rt.profile).map(|id| (id, rt.snap()));
                                    rows = seg.lend(rt.io, *page).expect("a page of the hold");
                                    (*page, inner.pos) = (*page + 1, 0);
                                    if let Some((id, snap)) = snap {
                                        rt.charge(id, snap, 0, rows.len() as u64);
                                    }
                                }
                                if let Some(probe) = &probe {
                                    // The page just fetched, whole.
                                    let tables = &rt.tables;
                                    keys.matches(tables, &ctx, probe, lrow, *page - 1, rows, hits)?;
                                    inner.pos = rows.len();
                                    for &r in hits.iter() {
                                        out.push(lrow, &rows[r].values);
                                    }
                                    continue;
                                }
                                while let Some(rrow) = rows.get(inner.pos) {
                                    inner.pos += 1;
                                    if pred.truthy(&ctx, RowRef(lrow, &rrow.values))? {
                                        out.push(lrow, &rrow.values);
                                        if cut {
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                        Inner::Held { seg: None, .. } => {
                            unreachable!("held at the outer row's start")
                        }
                        Inner::Reopen => {
                            while (!downstream_touches || out.len() == 0)
                                && inner.fill(|chunk| right.next_chunk(rt, chunk))?
                            {
                                if let Some(probe) = &probe {
                                    inner.probe(&ctx, probe, lrow, hits)?;
                                    for &r in hits.iter() {
                                        out.push(lrow, inner.chunk.row(r));
                                    }
                                    continue;
                                }
                                while let Some(r) = inner.next() {
                                    let rrow = inner.chunk.row(r);
                                    if pred.truthy(&ctx, RowRef(lrow, rrow))? {
                                        out.push(lrow, rrow);
                                        if cut {
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    if downstream_touches && out.len() > 0 {
                        return Ok(true);
                    }
                    if let Inner::Held { keys, .. } = read {
                        keys.pass_done();
                    }
                    *cur = None;
                }
            }
            (PhysOp::UnionAll { perm, .. }, St::Union { on_right, pulled }) => {
                if !*on_right {
                    if kids[0].next_chunk(rt, out)? {
                        return Ok(true);
                    }
                    *on_right = true;
                    kids[1].open(rt)?;
                }
                let Some(perm) = perm else {
                    return kids[1].next_chunk(rt, out);
                };
                let more = kids[1].next_chunk(rt, pulled)?;
                permute(perm, pulled, out);
                pulled.clear();
                Ok(more)
            }
            _ => unreachable!("operator/state shape mismatch"),
        }
    }
}

/// Exclusive per-operator reports: subtract each operator's direct
/// children from its inclusive tallies; `rows_in` is the children's
/// combined output.
///
/// The subtraction is *checked*: children's counters are summed first
/// and asserted (in debug builds, with the offending operator named) to
/// never exceed the parent's inclusive tally. An unchecked per-child
/// `saturating_sub` chain would clamp one child's overshoot to zero and
/// then subtract the remaining children from the wrong base, silently
/// mis-attributing their work to the parent — exactly the kind of
/// systematic drift the `CX*` drift lints exist to catch. Release
/// builds still clamp at zero rather than underflow.
fn rollup(plan: &PhysPlan, stats: &[OpStats]) -> Vec<OpReport> {
    /// Checked exclusive counter: `inclusive - children`, clamped in
    /// release, asserted in debug.
    fn exclusive(inclusive: u64, children: u64, what: &str, id: usize, label: &str) -> u64 {
        debug_assert!(
            children <= inclusive,
            "op #{id} ({label}): children's {what} ({children}) exceeds the \
             operator's inclusive tally ({inclusive})"
        );
        inclusive.saturating_sub(children)
    }

    let mut out: Vec<OpReport> = (0..plan.ops).map(|_| OpReport::default()).collect();
    plan.root.visit(&mut |op| {
        let id = op.meta().id;
        let label = &op.meta().label;
        let s = stats[id];
        let mut kids = OpStats::default();
        let mut rows_in = 0;
        for c in op.children() {
            let cs = stats[c.meta().id];
            rows_in += cs.rows_out + cs.replayed_rows;
            kids.io += cs.io;
            kids.evals += cs.evals;
            kids.method_calls += cs.method_calls;
            kids.wall_ns += cs.wall_ns;
        }
        debug_assert!(
            kids.io - s.io == IoStats::default(),
            "op #{id} ({label}): children's I/O ({:?}) exceeds the operator's \
             inclusive tally ({:?})",
            kids.io,
            s.io
        );
        let io = s.io - kids.io;
        out[id] = OpReport {
            id,
            pt_node: op.meta().pt_node,
            label: label.clone(),
            opens: s.opens,
            replays: s.replays,
            rows_in,
            rows_out: s.rows_out,
            page_reads: io.page_reads,
            page_hits: io.page_hits,
            index_reads: io.index_reads,
            page_writes: io.page_writes,
            temp_reads: io.temp_reads,
            spill_evictions: io.spill_evictions,
            evals: exclusive(s.evals, kids.evals, "evals", id, label),
            method_calls: exclusive(s.method_calls, kids.method_calls, "method_calls", id, label),
            // Wall time obeys the same invariant as the counters: every
            // child `open`/`next` bracket is a disjoint subinterval of
            // some parent bracket on the same monotonic clock, so the
            // children's sum can never exceed the parent's inclusive
            // tally — assert it rather than silently flooring residue.
            wall_ns: exclusive(s.wall_ns, kids.wall_ns, "wall_ns", id, label),
            wall_inclusive_ns: s.wall_ns,
            calls: s.calls,
        };
    });
    out
}
