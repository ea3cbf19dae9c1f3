//! The fingerprint-keyed, capacity-bounded LRU plan cache.
//!
//! The lookup key is the framed FNV-1a hash ([`oorq_pt::Fnv64`]) of a
//! query's canonical text — the hash the whole serving layer trusts, so
//! it must not alias. Two defences stack: the hash input is framed
//! (length-prefixed fields, see `oorq_pt::fingerprint`), and every hit
//! re-verifies the stored canonical text before handing the plan out,
//! so even a genuine 64-bit collision degrades to a cache miss, never a
//! wrong plan. Each entry also carries its *plan* fingerprint
//! ([`oorq_pt::Pt::fingerprint`]) — the identity used by traces,
//! metrics and invalidation diagnostics.

use std::sync::Arc;

use oorq_cost::NodeCost;
use oorq_pt::{ParallelSpec, Pt};

/// An optimized plan as the cache stores it: everything a session needs
/// to execute without re-entering the optimizer.
#[derive(Debug)]
pub struct CachedPlan {
    /// The chosen execution plan.
    pub pt: Pt,
    /// Its output column names.
    pub out_cols: Vec<String>,
    /// Kept for `benchmark/src/traced.rs` until a `benchmark` PR drops
    /// it: always the empty [`ParallelSpec`].
    pub parallel: ParallelSpec,
    /// The optimizer's final per-node cost breakdown — the predicted
    /// side of the CX drift join that drives invalidation.
    pub breakdown: Vec<NodeCost>,
    /// Structural fingerprint of `pt` (`Pt::fingerprint`).
    pub plan_fingerprint: u64,
}

/// What the cache did for one lookup (reported per answer and
/// aggregated into the `serve.cache.*` series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The plan came from the cache.
    Hit,
    /// The query was optimized and the plan inserted.
    Miss,
}

#[derive(Debug)]
struct Entry {
    key: u64,
    /// Canonical query text, compared verbatim on every hit.
    text: String,
    plan: Arc<CachedPlan>,
    /// Recency stamp (monotone clock value of the last touch).
    stamp: u64,
}

/// Capacity-bounded LRU map from query-text fingerprint to optimized
/// plan. Linear scans are deliberate: serving caches hold tens of
/// plans, not thousands, and a `Vec` keeps eviction order exact and
/// the code obviously correct.
#[derive(Debug)]
pub struct PlanCache {
    entries: Vec<Entry>,
    capacity: usize,
    clock: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// Look up a plan by key, verifying the canonical text. A key match
    /// with different text (a 64-bit collision) is treated as a miss.
    pub fn get(&mut self, key: u64, text: &str) -> Option<Arc<CachedPlan>> {
        self.clock += 1;
        let clock = self.clock;
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.text == text)?;
        e.stamp = clock;
        Some(Arc::clone(&e.plan))
    }

    /// Insert a plan, evicting the least recently used entry when full.
    /// Returns the plan fingerprint of the evicted entry, if any.
    pub fn insert(&mut self, key: u64, text: String, plan: Arc<CachedPlan>) -> Option<u64> {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            // Same key re-optimized (post-invalidation, or a collision's
            // text now claims the slot): replace in place.
            e.text = text;
            e.plan = plan;
            e.stamp = self.clock;
            return None;
        }
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("non-empty at capacity");
            evicted = Some(self.entries.swap_remove(lru).plan.plan_fingerprint);
        }
        self.entries.push(Entry {
            key,
            text,
            plan,
            stamp: self.clock,
        });
        evicted
    }

    /// Drop the entry with this key (stale-statistics invalidation).
    /// Returns true if an entry was removed.
    pub fn invalidate(&mut self, key: u64) -> bool {
        match self.entries.iter().position(|e| e.key == key) {
            Some(i) => {
                self.entries.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(fp: u64) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            pt: Pt::temp("T", "t"),
            out_cols: vec!["t".into()],
            parallel: ParallelSpec,
            breakdown: Vec::new(),
            plan_fingerprint: fp,
        })
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = PlanCache::new(2);
        assert!(c.insert(1, "q1".into(), plan(0xa)).is_none());
        assert!(c.insert(2, "q2".into(), plan(0xb)).is_none());
        // Touch q1 so q2 is the LRU.
        assert!(c.get(1, "q1").is_some());
        let evicted = c.insert(3, "q3".into(), plan(0xc));
        assert_eq!(evicted, Some(0xb));
        assert!(c.get(2, "q2").is_none());
        assert!(c.get(1, "q1").is_some());
        assert!(c.get(3, "q3").is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hit_requires_exact_text_match() {
        let mut c = PlanCache::new(4);
        c.insert(7, "select a".into(), plan(0x1));
        // Same key, different text: a collision must read as a miss.
        assert!(c.get(7, "select b").is_none());
        assert!(c.get(7, "select a").is_some());
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = PlanCache::new(4);
        c.insert(1, "q".into(), plan(0x1));
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1));
        assert!(c.get(1, "q").is_none());
        assert!(c.is_empty());
    }
}
