//! LRU buffer manager with I/O accounting.
//!
//! The buffer manager does not hold data (segments do); it simulates a
//! page cache so that the number of *physical* page reads reported matches
//! what a disk-resident system would do. This realizes the paper's
//! footnote 2: "when estimating access_cost, we take into account the fact
//! that some of the needed data are already in main memory".

use std::collections::HashMap;

use crate::page::PageId;

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

    /// Fold another worker's counters into this one (exchange merge).
    pub fn absorb(&mut self, other: IoStats) {
        self.page_reads += other.page_reads;
        self.page_hits += other.page_hits;
        self.page_writes += other.page_writes;
        self.index_reads += other.index_reads;
        self.spill_evictions += other.spill_evictions;
        self.temp_reads += other.temp_reads;
    }
}

/// Pre-resolved metric series for the buffer's hot path: handles are
/// interned once at [`BufferManager::set_metrics`] time, so each page
/// operation costs one branch (detached) or one relaxed atomic add.
#[derive(Debug, Clone, Default)]
struct BufferMetrics {
    page_hits: oorq_obs::CounterHandle,
    page_misses: oorq_obs::CounterHandle,
    page_writes: oorq_obs::CounterHandle,
    page_evictions: oorq_obs::CounterHandle,
    spill_evictions: oorq_obs::CounterHandle,
    temp_page_reads: oorq_obs::CounterHandle,
}

impl BufferMetrics {
    fn resolve(registry: &oorq_obs::MetricsRegistry) -> Self {
        BufferMetrics {
            page_hits: registry.counter("storage.page_hits"),
            page_misses: registry.counter("storage.page_misses"),
            page_writes: registry.counter("storage.page_writes"),
            page_evictions: registry.counter("storage.page_evictions"),
            spill_evictions: registry.counter("storage.spill_evictions"),
            temp_page_reads: registry.counter("storage.temp_page_reads"),
        }
    }
}

/// Residency record for one buffered page.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Clock stamp of last use (LRU victim = smallest stamp).
    stamp: u64,
    /// Whether the page belongs to a temporary entity (breaker state);
    /// only these count against the breaker memory budget.
    temp: bool,
}

/// An LRU page cache of a fixed number of frames.
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
    /// page -> residency record (LRU stamp + temp flag).
    resident: HashMap<PageId, Frame>,
    clock: u64,
    stats: IoStats,
    /// Trace recorder (disabled by default; page hit/miss/eviction
    /// events then cost a single branch).
    obs: oorq_obs::Recorder,
    /// Aggregated metric series (detached by default; same one-branch
    /// discipline as the recorder). Handles share their atomics across
    /// [`BufferManager::fork`] views, so worker-lane traffic lands in
    /// the same series without a merge step.
    metrics: BufferMetrics,
}

impl BufferManager {
    /// A buffer with the given number of frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BufferManager {
            capacity: capacity.max(1),
            temp_budget: 0,
            temp_resident: 0,
            resident: HashMap::new(),
            clock: 0,
            stats: IoStats::default(),
            obs: oorq_obs::Recorder::disabled(),
            metrics: BufferMetrics::default(),
        }
    }

    /// Attach a trace recorder; every subsequent page hit, miss and
    /// eviction fires a structured event on it.
    pub fn set_recorder(&mut self, obs: oorq_obs::Recorder) {
        self.obs = obs;
    }

    /// Attach a metrics registry; every subsequent page hit, miss,
    /// write, eviction and spill bumps its `storage.*` counter series.
    pub fn set_metrics(&mut self, registry: &oorq_obs::MetricsRegistry) {
        self.metrics = BufferMetrics::resolve(registry);
    }

    /// Fold a worker view's counters into this buffer's statistics.
    pub fn absorb_stats(&mut self, io: IoStats) {
        self.stats.absorb(io);
    }

    /// Spawn a per-worker accounting view: an empty buffer of `frames`
    /// frames sharing this buffer's recorder. Workers fetch through their
    /// own view (no cross-thread frame contention); the view's counters
    /// are merged back via [`IoStats::absorb`] when the worker joins.
    /// `temp_budget` is the worker's slice of the breaker memory budget
    /// (0 = unbounded).
    pub fn fork(&self, frames: usize, temp_budget: usize) -> BufferManager {
        BufferManager {
            capacity: frames.max(1),
            temp_budget,
            temp_resident: 0,
            resident: HashMap::new(),
            clock: 0,
            stats: IoStats::default(),
            obs: self.obs.clone(),
            metrics: self.metrics.clone(),
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
    pub fn temp_budget(&self) -> usize {
        self.temp_budget
    }

    /// Remove `victim` from the frame table, maintaining the temp count.
    fn drop_frame(&mut self, victim: PageId) -> Option<Frame> {
        let frame = self.resident.remove(&victim);
        if let Some(f) = frame {
            if f.temp {
                self.temp_resident -= 1;
            }
        }
        frame
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
        if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, f)| f.stamp) {
            self.drop_frame(victim);
            self.metrics.page_evictions.inc();
            self.page_event("page-evict", victim);
        }
    }

    /// Evict the least recently used *temporary* page — a spill forced by
    /// the breaker memory budget, counted separately from capacity
    /// evictions.
    fn spill_lru_temp(&mut self) {
        let victim = self
            .resident
            .iter()
            .filter(|(_, f)| f.temp)
            .min_by_key(|(_, f)| f.stamp)
            .map(|(&p, _)| p);
        if let Some(victim) = victim {
            self.drop_frame(victim);
            self.stats.spill_evictions += 1;
            self.metrics.spill_evictions.inc();
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
        if self.resident.len() >= self.capacity {
            self.evict_lru();
        }
    }

    /// Fetch a page, returning `true` on a physical read (miss). `temp`
    /// marks pages of temporary entities (breaker state), which are the
    /// only ones counted against the breaker memory budget.
    pub fn fetch(&mut self, page: PageId, temp: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(frame) = self.resident.get_mut(&page) {
            frame.stamp = clock;
            self.stats.page_hits += 1;
            self.metrics.page_hits.inc();
            self.page_event("page-hit", page);
            false
        } else {
            self.make_room(temp);
            self.resident.insert(page, Frame { stamp: clock, temp });
            if temp {
                self.temp_resident += 1;
                self.stats.temp_reads += 1;
                self.metrics.temp_page_reads.inc();
            }
            self.stats.page_reads += 1;
            self.metrics.page_misses.inc();
            self.page_event("page-miss", page);
            true
        }
    }

    /// Record a page write (temporary materialization). The written page
    /// becomes resident; writes are counted separately from reads.
    pub fn write(&mut self, page: PageId, temp: bool) {
        self.clock += 1;
        self.stats.page_writes += 1;
        self.metrics.page_writes.inc();
        let clock = self.clock;
        if let Some(frame) = self.resident.get_mut(&page) {
            // An entity's temp-ness never changes, so the flag is stable.
            debug_assert_eq!(frame.temp, temp);
            frame.stamp = clock;
            return;
        }
        self.make_room(temp);
        self.resident.insert(page, Frame { stamp: clock, temp });
        if temp {
            self.temp_resident += 1;
        }
    }

    /// Drop every resident page of an entity (e.g. when a temporary is
    /// cleared between fixpoint iterations).
    pub fn invalidate_entity(&mut self, entity: crate::physical::EntityId) {
        let mut dropped_temps = 0usize;
        self.resident.retain(|p, f| {
            let keep = p.entity != entity;
            if !keep && f.temp {
                dropped_temps += 1;
            }
            keep
        });
        self.temp_resident -= dropped_temps;
    }

    /// Count index page reads (index nodes are outside the data buffer).
    pub fn add_index_reads(&mut self, n: u64) {
        self.stats.index_reads += n;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Reset counters (keeps residency).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Drop all residency and counters.
    pub fn clear(&mut self) {
        self.resident.clear();
        self.temp_resident = 0;
        self.stats = IoStats::default();
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::EntityId;

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
        io.absorb(other);
        assert_eq!(io.temp_reads, 4);
    }

    #[test]
    fn metrics_registry_counts_buffer_traffic_across_forks() {
        let m = oorq_obs::MetricsRegistry::new();
        let mut b = BufferManager::new(2);
        b.set_metrics(&m);
        b.set_temp_budget(1);
        b.fetch(pid(0, 0), false); // miss
        b.fetch(pid(0, 0), false); // hit
        b.write(pid(5, 0), true);
        b.write(pid(5, 1), true); // spills temp page 0
        b.fetch(pid(0, 1), false); // miss; capacity-evicts something
                                   // A worker view shares the same series atomics.
        let mut w = b.fork(2, 0);
        w.fetch(pid(0, 7), true); // temp miss in the fork
        let snap = m.snapshot();
        assert_eq!(snap.counters["storage.page_misses"], 3);
        assert_eq!(snap.counters["storage.page_hits"], 1);
        assert_eq!(snap.counters["storage.page_writes"], 2);
        assert_eq!(snap.counters["storage.spill_evictions"], 1);
        assert_eq!(snap.counters["storage.temp_page_reads"], 1);
        assert!(snap.counters["storage.page_evictions"] >= 1);
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
