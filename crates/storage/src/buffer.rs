//! LRU buffer manager with I/O accounting.
//!
//! The buffer manager does not hold data (segments do); it simulates a
//! page cache so that the number of *physical* page reads reported matches
//! what a disk-resident system would do. This realizes the paper's
//! footnote 2: "when estimating access_cost, we take into account the fact
//! that some of the needed data are already in main memory".

use crate::page::PageId;
use crate::physical::EntityId;

/// Counters accumulated by the buffer manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched that were not resident (physical reads).
    pub page_reads: u64,
    /// Pages fetched that were resident (logical hits).
    pub page_hits: u64,
    /// Pages written out (temporary materialization).
    pub page_writes: u64,
    /// Index pages read (B+-tree levels and leaves traversed).
    pub index_reads: u64,
    /// Pages evicted because every frame was taken (capacity evictions).
    pub page_evictions: u64,
    /// Temporary pages evicted because the breaker memory budget was
    /// exhausted (spills); capacity evictions are not counted here.
    pub spill_evictions: u64,
    /// Physical reads of *temporary* pages (spilled breaker state
    /// re-fetched from the page store); a subset of `page_reads`.
    pub temp_reads: u64,
}

impl IoStats {
    /// Total logical fetches.
    pub fn fetches(&self) -> u64 {
        self.page_reads + self.page_hits
    }

    /// Counter by counter, `f(self, other)`.
    fn zip(self, o: IoStats, f: impl Fn(u64, u64) -> u64) -> IoStats {
        IoStats {
            page_reads: f(self.page_reads, o.page_reads),
            page_hits: f(self.page_hits, o.page_hits),
            page_writes: f(self.page_writes, o.page_writes),
            index_reads: f(self.index_reads, o.index_reads),
            page_evictions: f(self.page_evictions, o.page_evictions),
            spill_evictions: f(self.spill_evictions, o.spill_evictions),
            temp_reads: f(self.temp_reads, o.temp_reads),
        }
    }

    /// The `storage.*` counter series these counters are published as
    /// (index nodes live outside the data buffer and have none).
    fn series(&self) -> [(&'static str, u64); 6] {
        [
            ("storage.page_hits", self.page_hits),
            ("storage.page_misses", self.page_reads),
            ("storage.page_writes", self.page_writes),
            ("storage.page_evictions", self.page_evictions),
            ("storage.spill_evictions", self.spill_evictions),
            ("storage.temp_page_reads", self.temp_reads),
        ]
    }
}

/// Fold another account's counters into this one (a bracket's into its
/// operator).
impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, other: IoStats) {
        *self = self.zip(other, |a, b| a + b);
    }
}

/// What an account counted between two readings (`later - earlier`), and
/// an operator's own share (`inclusive - children`). Saturating: counters
/// only grow, so a difference that would go negative is a caller's bug,
/// which its debug assertion names and a release build clamps at zero.
impl std::ops::Sub for IoStats {
    type Output = IoStats;

    fn sub(self, other: IoStats) -> IoStats {
        self.zip(other, u64::saturating_sub)
    }
}

/// Residency record for one buffered page.
#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    /// Clock stamp of last use (LRU victim = smallest stamp).
    stamp: u64,
    /// Whether the page belongs to a temporary entity (breaker state);
    /// only these count against the breaker memory budget.
    temp: bool,
}

/// `frame_of`'s mark for a page that is not resident: past any frame, so
/// indexing `frames` with it finds none.
const NOT_RESIDENT: u32 = u32::MAX;

/// An LRU page cache of a fixed number of frames.
///
/// Entity ids and page numbers are small dense integers the store hands
/// out, so residency is two arrays: the resident frames, and per entity a
/// page-indexed table of frame numbers. A touch indexes; only an eviction
/// walks the (at most `capacity`) frames for the smallest stamp. `clock`
/// is bumped by every fetch and write, so stamps are unique and neither
/// victim depends on the order the frames are kept in.
#[derive(Debug)]
pub struct BufferManager {
    capacity: usize,
    /// Breaker memory budget: maximum resident *temporary* pages
    /// (0 = unbounded, the default). When a temporary page would push
    /// the temp-resident count past this budget, the least recently
    /// used temporary page is spilled first.
    temp_budget: usize,
    /// Resident temporary pages (maintained incrementally so budget
    /// checks are O(1)).
    temp_resident: usize,
    /// The resident pages, at most `capacity`, in no particular order.
    frames: Vec<Frame>,
    /// entity -> page -> index into `frames`, or [`NOT_RESIDENT`]; both
    /// levels grow to the largest id touched.
    frame_of: Vec<Vec<u32>>,
    clock: u64,
    stats: IoStats,
    /// What of `stats` the `storage.*` series already carry.
    published: IoStats,
    /// Trace recorder (disabled by default; page hit/miss/eviction
    /// events then cost a single branch).
    obs: oorq_obs::Recorder,
    /// The `storage.*` series, in [`IoStats::series`] order (detached by
    /// default). They are derived from `stats` by
    /// [`BufferManager::publish`], never bumped on the page path.
    metrics: [oorq_obs::CounterHandle; 6],
}

/// A page account as the accounted accessors of the store and the
/// indexes take it: one thread's buffer manager, charged through a
/// shared reference for the length of one touch.
pub type Account = std::cell::RefCell<BufferManager>;

impl BufferManager {
    /// A buffer with the given number of frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BufferManager {
            capacity: capacity.max(1),
            temp_budget: 0,
            temp_resident: 0,
            frames: Vec::new(),
            frame_of: Vec::new(),
            clock: 0,
            stats: IoStats::default(),
            published: IoStats::default(),
            obs: oorq_obs::Recorder::disabled(),
            metrics: Default::default(),
        }
    }

    /// Attach a trace recorder; every subsequent page hit, miss and
    /// eviction fires a structured event on it.
    pub fn set_recorder(&mut self, obs: oorq_obs::Recorder) {
        self.obs = obs;
    }

    /// Attach a metrics registry: every later `BufferManager::publish`
    /// adds what the counters moved to its `storage.*` series. What was
    /// counted before the call is not the new registry's to report.
    pub fn set_metrics(&mut self, registry: &oorq_obs::MetricsRegistry) {
        self.publish();
        self.metrics = self.stats.series().map(|(name, _)| registry.counter(name));
    }

    /// Bring the `storage.*` series up to the counters: one add per
    /// series of whatever was counted since the last call. Called where an
    /// account comes to rest — a run checking it back in, and before the
    /// counters are zeroed.
    pub(crate) fn publish(&mut self) {
        let unpublished = (self.stats - self.published).series();
        self.published = self.stats;
        for (series, (_, n)) in self.metrics.iter().zip(unpublished) {
            series.add(n);
        }
    }

    /// An empty account of `frames` frames with `temp_budget` as its
    /// breaker memory budget (0 = unbounded), sharing this one's recorder
    /// and series: a database keeps one as the stand-in while a run has
    /// its account checked out.
    pub(crate) fn fork(&self, frames: usize, temp_budget: usize) -> BufferManager {
        BufferManager {
            obs: self.obs.clone(),
            metrics: self.metrics.clone(),
            temp_budget,
            ..BufferManager::new(frames)
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cap resident temporary (breaker) pages; 0 lifts the cap.
    pub fn set_temp_budget(&mut self, pages: usize) {
        self.temp_budget = pages;
    }

    /// The breaker memory budget in pages (0 = unbounded).
    pub(crate) fn temp_budget(&self) -> usize {
        self.temp_budget
    }

    /// The resident frame of `page`, if it has one.
    fn frame_mut(&mut self, page: PageId) -> Option<&mut Frame> {
        let pages = self.frame_of.get(page.entity.0 as usize)?;
        let &frame = pages.get(page.page as usize)?;
        self.frames.get_mut(frame as usize)
    }

    /// `page`'s entry of the frame table, grown to reach it.
    fn slot(&mut self, page: PageId) -> &mut u32 {
        let pages = crate::entry(&mut self.frame_of, page.entity.0 as usize, Vec::new());
        crate::entry(pages, page.page as usize, NOT_RESIDENT)
    }

    /// Make `page` resident (it is not, and there is room).
    fn admit(&mut self, page: PageId, temp: bool) {
        *self.slot(page) = self.frames.len() as u32;
        let stamp = self.clock;
        self.frames.push(Frame { page, stamp, temp });
        self.temp_resident += usize::from(temp);
    }

    /// Drop frame `i`, maintaining the table and the temp count: the last
    /// frame takes its place.
    fn drop_frame(&mut self, i: usize) -> PageId {
        let frame = self.frames.swap_remove(i);
        *self.slot(frame.page) = NOT_RESIDENT;
        if let Some(moved) = self.frames.get(i) {
            *self.slot(moved.page) = i as u32;
        }
        self.temp_resident -= usize::from(frame.temp);
        frame.page
    }

    /// The least recently used frame among those `eligible`.
    fn lru(&self, eligible: impl Fn(&Frame) -> bool) -> Option<usize> {
        let frames = self.frames.iter().enumerate().filter(|(_, f)| eligible(f));
        frames.min_by_key(|(_, f)| f.stamp).map(|(i, _)| i)
    }

    /// Fire a structured event identifying a page; a disabled recorder
    /// costs the branch, not the payload.
    fn page_event(&self, name: &str, page: PageId) {
        if self.obs.enabled() {
            let fields = vec![
                ("entity".into(), page.entity.0.into()),
                ("page".into(), page.page.into()),
            ];
            self.obs.event("storage", name, fields);
        }
    }

    /// Evict the least recently used page to make room.
    fn evict_lru(&mut self) {
        if let Some(i) = self.lru(|_| true) {
            let victim = self.drop_frame(i);
            self.stats.page_evictions += 1;
            self.page_event("page-evict", victim);
        }
    }

    /// Evict the least recently used *temporary* page — a spill forced by
    /// the breaker memory budget, counted separately from capacity
    /// evictions.
    fn spill_lru_temp(&mut self) {
        if let Some(i) = self.lru(|f| f.temp) {
            let victim = self.drop_frame(i);
            self.stats.spill_evictions += 1;
            self.page_event("spill-evict", victim);
        }
    }

    /// Make room for one incoming page (temp or not): first enforce the
    /// breaker budget for temporary pages, then overall capacity.
    fn make_room(&mut self, temp: bool) {
        if temp && self.temp_budget > 0 {
            while self.temp_resident >= self.temp_budget {
                self.spill_lru_temp();
            }
        }
        if self.frames.len() >= self.capacity {
            self.evict_lru();
        }
    }

    /// Fetch a page, returning `true` on a physical read (miss). `temp`
    /// marks pages of temporary entities (breaker state), which are the
    /// only ones counted against the breaker memory budget.
    pub fn fetch(&mut self, page: PageId, temp: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(frame) = self.frame_mut(page) {
            frame.stamp = clock;
            self.stats.page_hits += 1;
            self.page_event("page-hit", page);
            false
        } else {
            self.make_room(temp);
            self.admit(page, temp);
            self.stats.temp_reads += u64::from(temp);
            self.stats.page_reads += 1;
            self.page_event("page-miss", page);
            true
        }
    }

    /// Record a page write (temporary materialization). The written page
    /// becomes resident; writes are counted separately from reads.
    pub fn write(&mut self, page: PageId, temp: bool) {
        self.clock += 1;
        self.stats.page_writes += 1;
        let clock = self.clock;
        if let Some(frame) = self.frame_mut(page) {
            // An entity's temp-ness never changes, so the flag is stable.
            debug_assert_eq!(frame.temp, temp);
            frame.stamp = clock;
            return;
        }
        self.make_room(temp);
        self.admit(page, temp);
    }

    /// Drop every resident page of an entity (e.g. when a temporary is
    /// cleared between fixpoint iterations).
    pub(crate) fn invalidate_entity(&mut self, entity: EntityId) {
        // Back to front: the frame a drop moves down was looked at already.
        for i in (0..self.frames.len()).rev() {
            if self.frames[i].page.entity == entity {
                self.drop_frame(i);
            }
        }
    }

    /// Count index page reads (index nodes are outside the data buffer).
    pub fn add_index_reads(&mut self, n: u64) {
        self.stats.index_reads += n;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Reset counters (keeps residency); the series get them first.
    pub(crate) fn reset_stats(&mut self) {
        self.publish();
        (self.stats, self.published) = Default::default();
    }

    /// Drop all residency and counters.
    pub fn clear(&mut self) {
        self.reset_stats();
        self.frames.clear();
        self.frame_of.clear();
        self.temp_resident = 0;
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(e: u32, p: u32) -> PageId {
        PageId {
            entity: EntityId(e),
            page: p,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut b = BufferManager::new(4);
        assert!(b.fetch(pid(0, 0), false));
        assert!(!b.fetch(pid(0, 0), false));
        assert_eq!(b.stats().page_reads, 1);
        assert_eq!(b.stats().page_hits, 1);
        assert_eq!(b.stats().fetches(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut b = BufferManager::new(2);
        b.fetch(pid(0, 0), false);
        b.fetch(pid(0, 1), false);
        b.fetch(pid(0, 0), false); // refresh page 0
        b.fetch(pid(0, 2), false); // evicts page 1
        assert!(!b.fetch(pid(0, 0), false), "page 0 still resident");
        assert!(b.fetch(pid(0, 1), false), "page 1 was evicted");
    }

    #[test]
    fn sequential_scan_misses_every_page_when_larger_than_buffer() {
        let mut b = BufferManager::new(3);
        for round in 0..2 {
            for p in 0..10 {
                b.fetch(pid(0, p), false);
            }
            // With LRU and a scan longer than the buffer, every fetch is a
            // miss on both rounds.
            assert_eq!(b.stats().page_reads, 10 * (round + 1));
        }
    }

    #[test]
    fn invalidate_entity_only_drops_that_entity() {
        let mut b = BufferManager::new(8);
        b.fetch(pid(0, 0), false);
        b.fetch(pid(1, 0), false);
        b.invalidate_entity(EntityId(0));
        assert!(b.fetch(pid(0, 0), false), "entity 0 page dropped");
        assert!(!b.fetch(pid(1, 0), false), "entity 1 page kept");
    }

    #[test]
    fn writes_counted_separately() {
        let mut b = BufferManager::new(2);
        b.write(pid(0, 0), false);
        assert_eq!(b.stats().page_writes, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = BufferManager::new(2);
        b.fetch(pid(0, 0), false);
        b.clear();
        assert_eq!(b.stats(), IoStats::default());
        assert!(b.fetch(pid(0, 0), false));
    }

    #[test]
    fn temp_budget_spills_lru_temp_page() {
        let mut b = BufferManager::new(16);
        b.set_temp_budget(2);
        assert_eq!(b.temp_budget(), 2);
        b.write(pid(5, 0), true);
        b.write(pid(5, 1), true);
        // Third temp page exceeds the budget: page 0 (LRU temp) spills.
        b.write(pid(5, 2), true);
        assert_eq!(b.stats().spill_evictions, 1);
        assert!(b.fetch(pid(5, 0), true), "spilled page re-read is a miss");
        // The re-fetch of page 0 in turn spills page 1 (now the LRU temp).
        assert_eq!(b.stats().spill_evictions, 2);
        assert!(!b.fetch(pid(5, 0), true), "just-fetched page is resident");
    }

    #[test]
    fn temp_budget_does_not_touch_base_pages() {
        let mut b = BufferManager::new(16);
        b.set_temp_budget(1);
        b.fetch(pid(0, 0), false);
        b.fetch(pid(0, 1), false);
        b.write(pid(5, 0), true);
        b.write(pid(5, 1), true); // spills temp page 0, not the base pages
        assert_eq!(b.stats().spill_evictions, 1);
        assert!(!b.fetch(pid(0, 0), false), "base page survived the spill");
        assert!(!b.fetch(pid(0, 1), false), "base page survived the spill");
        assert!(b.fetch(pid(5, 0), true), "temp page 0 was spilled");
    }

    #[test]
    fn zero_budget_means_unbounded() {
        let mut b = BufferManager::new(16);
        for p in 0..8 {
            b.write(pid(5, p), true);
        }
        assert_eq!(b.stats().spill_evictions, 0);
        for p in 0..8 {
            assert!(!b.fetch(pid(5, p), true), "all temp pages resident");
        }
    }

    #[test]
    fn invalidate_entity_releases_budget() {
        let mut b = BufferManager::new(16);
        b.set_temp_budget(2);
        b.write(pid(5, 0), true);
        b.write(pid(5, 1), true);
        b.invalidate_entity(EntityId(5));
        // Budget fully released: two fresh temp pages fit without a spill.
        b.write(pid(6, 0), true);
        b.write(pid(6, 1), true);
        assert_eq!(b.stats().spill_evictions, 0);
    }

    #[test]
    fn temp_reads_count_only_temp_page_misses() {
        let mut b = BufferManager::new(16);
        b.fetch(pid(0, 0), false); // base miss
        b.fetch(pid(5, 0), true); // temp miss
        b.fetch(pid(5, 0), true); // temp hit: not a temp read
        assert_eq!(b.stats().page_reads, 2);
        assert_eq!(b.stats().temp_reads, 1);
        let other = IoStats {
            temp_reads: 3,
            ..Default::default()
        };
        let mut io = b.stats();
        io += other;
        assert_eq!(io.temp_reads, 4);
        assert_eq!(io - other, b.stats());
        assert_eq!(other - io, IoStats::default(), "a difference saturates");
    }

    #[test]
    fn metrics_registry_counts_buffer_traffic() {
        let m = oorq_obs::MetricsRegistry::new();
        let mut b = BufferManager::new(2);
        b.fetch(pid(0, 3), false); // counted before a registry was attached
        b.set_metrics(&m);
        b.set_temp_budget(1);
        b.fetch(pid(0, 0), false); // miss
        b.fetch(pid(0, 0), false); // hit
        b.write(pid(5, 0), true);
        b.write(pid(5, 1), true); // spills temp page 0
        b.fetch(pid(0, 1), false); // miss; capacity-evicts something
        assert_eq!(m.snapshot().counters["storage.page_misses"], 0, "derived");
        b.publish();
        b.publish(); // nothing new: adds nothing
        let snap = m.snapshot();
        assert_eq!(
            snap.counters["storage.page_misses"], 2,
            "the past stays out"
        );
        assert_eq!(snap.counters["storage.page_hits"], 1);
        assert_eq!(snap.counters["storage.page_writes"], 2);
        assert_eq!(snap.counters["storage.spill_evictions"], 1);
        assert_eq!(snap.counters["storage.temp_page_reads"], 0);
        assert!(snap.counters["storage.page_evictions"] >= 1);
        assert_eq!(
            snap.counters["storage.page_evictions"],
            b.stats().page_evictions
        );
        // Zeroing the counters hands the series what they had not seen.
        b.fetch(pid(0, 0), false);
        b.clear();
        assert_eq!(b.stats(), IoStats::default());
        let hits_and_misses =
            ["storage.page_hits", "storage.page_misses"].map(|s| m.counter(s).get());
        assert_eq!(hits_and_misses.iter().sum::<u64>(), 4);
    }

    #[test]
    fn capacity_eviction_not_counted_as_spill() {
        let mut b = BufferManager::new(2);
        b.fetch(pid(0, 0), false);
        b.fetch(pid(0, 1), false);
        b.fetch(pid(0, 2), false); // capacity eviction
        assert_eq!(b.stats().spill_evictions, 0);
    }
}
