//! Heap allocations per served plan-cache hit, counted by a global
//! allocator wrapped around the system one.
//!
//! A warmed session answers a cached plan through `Session::execute_text`
//! (the session's text memo, cache lookup, `Executor::answer` of the
//! cached lowering). Operators hand rows up in flat buffers that outlive
//! the chunk, breakers write from borrowed rows, and a truncated
//! temporary refills the rows it emptied; a hit parses, lowers and
//! verifies nothing, so what is left is the per-run buffers' first
//! growth and one `Vec` per answer row, and both build profiles count
//! the same. Each count is held to a fraction of what the executor that
//! built a `Vec` per row made (before) — a fifth for the music hits, a
//! third for the closure, which keeps its 2,016 answer rows — and to a
//! ceiling at today's count (after):
//!
//! | hit | release: before → after | debug: before → after |
//! |---|---:|---:|
//! | Figure 3, `harpsichord`, `gen >= 5` | 17,797 → 480 | 18,763 → 480 |
//! | Figure 3, `flute`, `gen >= 4` | 20,998 → 912 | 21,740 → 912 |
//! | 64-node closure, 8-page budget | 13,122 → 2,121 | 13,457 → 2,121 |
//!
//! (Hits that still parsed and lowered counted 1,917 / 1,921 / 2,623 in
//! release, and a debug build, which also verified the plan of every hit,
//! 2,883 / 2,663 / 2,958. Before a fixpoint lent its set to a leg's root
//! projection and an identity projection handed its input's chunks up,
//! a hit counted 1,619 / 1,717 / 2,311: the leg root's own set and the
//! copying projections' buffers. The key tables a nested loop looks its
//! held inner up in are pooled in the session's `ExecState`, so they added
//! none. Before a temporary's append took its write locks without
//! building two vectors per call and refilled a truncated record where
//! it lies, a hit counted 1,566 / 1,650 / 2,249.) Counters are thread-local, so tests
//! running in parallel do not mix their counts; an allocation is counted
//! once, a reallocation once more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use oorq::datagen::{ClosureConfig, ClosureDb, MusicConfig, MusicDb, CLOSURE_TEXT};
use oorq::exec::{ExecConfig, MethodRegistry};
use oorq::index::{IndexSet, PathIndex, SelectionIndex};
use oorq::query::paper::{fig3, music_catalog};
use oorq::serve::{CacheOutcome, Server, ServerConfig, Session};

struct Counting;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted allocations.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: a thread being torn down has no counters left.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            COUNT.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what it returns, so `System`'s contract is this allocator's;
// `note` itself allocates nothing (its thread-locals are `const` `Cell`s,
// which need no lazy set-up or destructor registration).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (COUNT.with(Cell::get), out)
}

/// Allocations of one served hit of `text` on a session that has already
/// answered it twice (the plan is cached, the temporaries exist); printed,
/// for `--nocapture` to show.
fn per_hit(session: &mut Session<'_>, text: &str) -> u64 {
    for _ in 0..2 {
        session.execute_text(text).expect("warm-up");
    }
    let (n, answer) = allocations(|| session.execute_text(text).expect("hit"));
    assert_eq!(answer.cache, CacheOutcome::Hit);
    assert!(
        !answer.batch.rows.is_empty(),
        "an empty answer measures little"
    );
    eprintln!(
        "{n} allocations for {} answer rows",
        answer.batch.rows.len()
    );
    n
}

/// 200 composers against 8 buffer frames, with the path and selection
/// indexes the Figure 3 plans use.
fn music_server() -> Server {
    let config = MusicConfig {
        chains: 20,
        chain_len: 10,
        works_per_composer: 4,
        instruments_per_work: 3,
        instrument_pool: 12,
        harpsichord_fraction: 0.25,
        clustered: false,
        buffer_frames: 8,
        seed: 1992,
    };
    let mut m = MusicDb::generate(Arc::new(music_catalog()), config);
    let mut indexes = IndexSet::new();
    let path = vec![
        (m.composer, m.works_attr),
        (m.composition, m.instruments_attr),
    ];
    indexes.add_path(PathIndex::build(&mut m.db, path));
    indexes.add_selection(SelectionIndex::build(&mut m.db, m.composer, m.name_attr));
    Server::new(
        m.db,
        indexes,
        MethodRegistry::new(),
        ServerConfig::default(),
    )
}

#[test]
fn a_served_music_hit_allocates_a_fifth_of_what_it_did() {
    let server = music_server();
    let mut session = server.session();
    for (text, before, after) in [
        (fig3("harpsichord", 5), BEFORE[0], AFTER[0]),
        (fig3("flute", 4), BEFORE[1], AFTER[1]),
    ] {
        let n = per_hit(&mut session, &text);
        assert!(
            n * 5 <= before,
            "{n} allocations per hit, more than a fifth of {before}"
        );
        assert!(n <= after, "{n} allocations per hit, more than {after}");
    }
}

#[test]
fn a_served_spilling_closure_hit_allocates_a_third_of_what_it_did() {
    let closure = ClosureDb::generate(ClosureConfig { nodes: 64 });
    let config = ServerConfig {
        exec: ExecConfig {
            memory_budget_pages: 8,
            ..ExecConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::new(closure.db, IndexSet::new(), MethodRegistry::new(), config);
    let mut session = server.session();
    let n = per_hit(&mut session, CLOSURE_TEXT);
    let (before, after) = (BEFORE[2], AFTER[2]);
    assert!(
        n * 3 <= before,
        "{n} allocations per hit, more than a third of {before}"
    );
    assert!(n <= after, "{n} allocations per hit, more than {after}");
}

/// The "before" counts (`harpsichord`, `flute`, closure) of this build's
/// profile.
const BEFORE: [u64; 3] = if cfg!(debug_assertions) {
    [18_763, 21_740, 13_457]
} else {
    [17_797, 20_998, 13_122]
};

/// The ceilings (`harpsichord`, `flute`, closure): the counts of a hit
/// that streams its cached lowering, in either profile.
const AFTER: [u64; 3] = [480, 912, 2_121];
