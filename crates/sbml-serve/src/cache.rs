//! Content-key-keyed response cache with LRU eviction.
//!
//! The daemon keys cached responses on the *canonical content keys* of
//! the query model (plus the verb), not on the raw XML bytes: two
//! textually different files describing the same network — reordered
//! attributes, different whitespace, renamed ids under heavy semantics —
//! hit the same entry. Values are the fully encoded response payloads,
//! shared as `Arc<[u8]>`, so a cache hit is a clone of a pointer and the
//! bytes sent are identical to the first answer's.
//!
//! The daemon and the cluster coordinator share one metered path over a
//! `Mutex<QueryCache>`: [`cached`] (lookup, hit/miss metering, compute,
//! fill) and [`invalidate`] (clear on every corpus write).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::metrics::Metrics;

/// A bounded LRU map from request keys to response payloads. Wrap it in
/// a `Mutex` to share; hit/miss accounting lives in
/// [`crate::metrics::Metrics`], not here.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    tick: u64,
    map: HashMap<String, (u64, Arc<[u8]>)>,
}

impl QueryCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache { capacity, tick: 0, map: HashMap::new() }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry — called after a corpus mutation (`UPSERT` /
    /// `REMOVE`), when any cached answer may be stale.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Look up a response, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<Arc<[u8]>> {
        self.tick += 1;
        let tick = self.tick;
        let (stamp, value) = self.map.get_mut(key)?;
        *stamp = tick;
        Some(Arc::clone(value))
    }

    /// Insert a response, evicting the least-recently-used entry when
    /// the cache is full.
    pub fn put(&mut self, key: String, value: Arc<[u8]>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // O(n) scan for the oldest stamp: the capacity is small
            // (hundreds) and eviction is off the hot path (only on
            // misses that filled the cache).
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }
}

/// Answer `key` from the cache (metered as a hit), or meter a miss and
/// compute the answer. `compute` returns `Ok` for an answer that may be
/// cached — it fills the cache — and `Err` for one that must not be (a
/// failed or degraded answer), which is returned as is.
pub fn cached(
    cache: &Mutex<QueryCache>,
    metrics: &Metrics,
    key: String,
    compute: impl FnOnce() -> Result<Arc<[u8]>, Arc<[u8]>>,
) -> Arc<[u8]> {
    if let Some(hit) = cache.lock().ok().and_then(|mut cache| cache.get(&key)) {
        Metrics::bump(&metrics.cache_hits);
        return hit;
    }
    Metrics::bump(&metrics.cache_misses);
    match compute() {
        Ok(response) => {
            if let Ok(mut cache) = cache.lock() {
                cache.put(key, Arc::clone(&response));
            }
            response
        }
        Err(uncached) => uncached,
    }
}

/// A corpus mutation happened: every cached answer may be stale.
pub fn invalidate(cache: &Mutex<QueryCache>) {
    if let Ok(mut cache) = cache.lock() {
        cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes().to_vec().into_boxed_slice())
    }

    #[test]
    fn hits_return_the_same_bytes() {
        let mut cache = QueryCache::new(4);
        cache.put("a".into(), payload("answer"));
        let first = cache.get("a").expect("hit");
        let second = cache.get("a").expect("hit");
        assert_eq!(first, second);
        assert!(Arc::ptr_eq(&first, &second), "hits share one allocation");
        assert!(cache.get("b").is_none());
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = QueryCache::new(2);
        cache.put("a".into(), payload("1"));
        cache.put("b".into(), payload("2"));
        let _ = cache.get("a"); // refresh a; b is now oldest
        cache.put("c".into(), payload("3"));
        assert!(cache.get("a").is_some(), "recently used survives");
        assert!(cache.get("b").is_none(), "LRU entry evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut cache = QueryCache::new(4);
        cache.put("a".into(), payload("1"));
        cache.put("b".into(), payload("2"));
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = QueryCache::new(0);
        cache.put("a".into(), payload("1"));
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
    }
}
