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
//!
//! Beside each plan the entry keeps its lowering once its first hit has
//! made and verified one: every session's later hits stream that
//! [`PhysPlan`], and invalidation or eviction drops it with the plan. A
//! plan that is never hit again holds none.

use std::sync::{Arc, Weak};

use oorq_cost::NodeCost;
use oorq_pt::{Fnv64, ParallelSpec, PhysPlan, Pt};

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
    text: Arc<str>,
    plan: Arc<CachedPlan>,
    /// `plan` lowered, once a hit has lowered it.
    phys: Option<Arc<PhysPlan>>,
    /// Recency stamp (monotone clock value of the last touch).
    stamp: u64,
}

/// A hit as a session takes it: the plan, its lowering if an earlier hit
/// made one, and the canonical text the entry holds.
#[derive(Debug)]
pub(crate) struct Hit {
    pub plan: Arc<CachedPlan>,
    pub phys: Option<Arc<PhysPlan>>,
    pub text: Arc<str>,
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
        self.lookup(key, text).map(|hit| hit.plan)
    }

    /// [`PlanCache::get`], with the entry's lowering and text.
    pub(crate) fn lookup(&mut self, key: u64, text: &str) -> Option<Hit> {
        self.clock += 1;
        let clock = self.clock;
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.key == key && *e.text == *text)?;
        e.stamp = clock;
        Some(Hit {
            plan: Arc::clone(&e.plan),
            phys: e.phys.clone(),
            text: Arc::clone(&e.text),
        })
    }

    /// Insert a plan, evicting the least recently used entry when full.
    /// Returns the plan fingerprint of the evicted entry, if any.
    pub fn insert(&mut self, key: u64, text: String, plan: Arc<CachedPlan>) -> Option<u64> {
        self.insert_shared(key, text.into(), plan)
    }

    /// [`PlanCache::insert`] of a text the caller keeps a handle to.
    pub(crate) fn insert_shared(
        &mut self,
        key: u64,
        text: Arc<str>,
        plan: Arc<CachedPlan>,
    ) -> Option<u64> {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            // Same key re-optimized (post-invalidation, or a collision's
            // text now claims the slot): replace in place.
            e.text = text;
            e.plan = plan;
            e.phys = None;
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
            phys: None,
            stamp: self.clock,
        });
        evicted
    }

    /// Keep `phys`, the lowering of `plan`, for the hits of the entry that
    /// still holds `plan` (none, if it was invalidated, evicted or
    /// replaced meanwhile; the one it has, if another session's hit
    /// lowered it first).
    pub(crate) fn prepare(&mut self, key: u64, plan: &Arc<CachedPlan>, phys: Arc<PhysPlan>) {
        let entry = self.entries.iter_mut().find(|e| e.key == key);
        if let Some(e) = entry.filter(|e| Arc::ptr_eq(&e.plan, plan)) {
            e.phys.get_or_insert(phys);
        }
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

/// A session's map from query source text to its cache key, so a text
/// it has sent before skips parsing and canonicalization. The key
/// depends on the catalog alone, so an entry is never stale; the memo is
/// bounded like the plan cache, least recently used first out. An entry
/// holds the source text, the key and a weak handle on the canonical
/// text the plan cache filed the plan under — not a copy of it, and no
/// query graph: a hit re-verifies that text as any lookup does, and once
/// the cache has let go of the entry (evicted, invalidated, replaced)
/// the handle is dead and the text is parsed again.
#[derive(Debug)]
pub(crate) struct TextMemo {
    entries: Vec<Memo>,
    capacity: usize,
    clock: u64,
}

#[derive(Debug)]
struct Memo {
    /// Framed FNV-1a of `text`, compared before the text.
    hash: u64,
    text: String,
    key: u64,
    canonical: Weak<str>,
    /// Recency stamp (monotone clock value of the last touch).
    stamp: u64,
}

impl TextMemo {
    /// An empty memo of at most `capacity` texts (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        TextMemo {
            entries: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    fn hash(text: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(text);
        h.finish()
    }

    /// The key of `text` and the canonical text its plan is cached under,
    /// if this session has sent `text` and the cache still holds that
    /// entry.
    pub(crate) fn get(&mut self, text: &str) -> Option<(u64, Arc<str>)> {
        self.clock += 1;
        let hash = Self::hash(text);
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.text == text)?;
        e.stamp = self.clock;
        Some((e.key, e.canonical.upgrade()?))
    }

    /// Remember that `text` is filed under `key` and `canonical`.
    pub(crate) fn insert(&mut self, text: &str, key: u64, canonical: &Arc<str>) {
        self.clock += 1;
        let hash = Self::hash(text);
        let canonical = Arc::downgrade(canonical);
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.text == text)
        {
            e.canonical = canonical;
            e.stamp = self.clock;
            return;
        }
        if self.entries.len() >= self.capacity {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].stamp)
                .expect("non-empty at capacity");
            self.entries.swap_remove(lru);
        }
        self.entries.push(Memo {
            hash,
            text: text.to_string(),
            key,
            canonical,
            stamp: self.clock,
        });
    }

    /// Number of texts remembered.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
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
