//! Content-key-keyed response cache with LRU eviction and key-scoped
//! invalidation.
//!
//! The daemon keys cached responses on the *canonical content keys* of
//! the query model (plus the verb), not on the raw XML bytes: two
//! textually different files describing the same network — reordered
//! attributes, different whitespace, renamed ids under heavy semantics —
//! hit the same entry. Values are the fully encoded response payloads,
//! shared as `Arc<[u8]>`, so a cache hit is a clone of a pointer and the
//! bytes sent are identical to the first answer's.
//!
//! # Which entries a write evicts
//!
//! Every entry records its [`Scope`]:
//!
//! * **keys** — the query's [`sbml_match::scope_keys`]: hashes of its
//!   distinct node, edge and participant keys, exactly the keys
//!   candidate generation intersects and approximate ranking pools on;
//! * **names** — hashes of the ids of every model the answer names
//!   (exact, approximate, truncated and failed rows);
//! * **corpus-wide** — set for answers that print a live count (`QUERY`,
//!   `PQUERY`) and for queries without graph nodes, which embed in every
//!   model.
//!
//! A write of model id *X* whose new scope keys are *K* (*K* is empty
//! for a `REMOVE`) evicts every entry that is corpus-wide, names *X*, or
//! has a key in *K*. Nothing else is cleared. The rule is sound because
//! a `MATCH` answer depends only on the models it names and on the models
//! sharing one of its keys:
//!
//! * an exact hit carries every query node and edge key, so a model that
//!   shares none cannot become a hit;
//! * an approximate score is per pair, `(jaccard + mapped_fraction) / 2`,
//!   with no corpus-wide term, and only models sharing a key are scored,
//!   so a new model outside the keys cannot enter the top-k, and removing
//!   a scored model the answer does not name cannot change it;
//! * rows print model ids, not ranks, and slots are stable, so shifting
//!   ranks change no bytes;
//! * replacing *X* removes the old *X* (named, or it changed nothing)
//!   and inserts the new one (caught by *K*);
//! * a hash collision can only evict too much, never keep a stale answer.
//!
//! # The fill-after-write race
//!
//! A miss is computed without the lock and filled afterwards, so a write
//! can land between the two. The cache keeps a write epoch: a write bumps
//! it after the corpus mutation (under the same lock as its evictions),
//! and a fill is refused when the epoch moved since its miss was metered.
//!
//! The daemon and the cluster coordinator share one metered path over a
//! `Mutex<QueryCache>`: [`cached`] (lookup, hit/miss metering, compute,
//! fill) and [`evict`] (after every corpus write).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use sbml_match::scope_hash;
use sbml_model::Model;

use crate::metrics::Metrics;

/// What a cached answer depends on; see the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scope {
    /// Sorted scope keys of the query.
    keys: Vec<u64>,
    /// Hashes of the model ids the answer names. Unsorted: a miss
    /// pays only the hashing, and only writes search the list.
    names: Vec<u64>,
    /// Every write evicts the entry.
    corpus_wide: bool,
}

impl Scope {
    /// An answer every write may change.
    pub fn corpus_wide() -> Scope {
        Scope { corpus_wide: true, ..Scope::default() }
    }

    /// The answer to `query`, whose [`sbml_match::scope_keys`] are
    /// `keys`, naming the models `names`. A query without species has no
    /// graph nodes — it embeds in every model — so its answer is
    /// corpus-wide.
    pub fn of_query<'n>(
        query: &Model,
        keys: Vec<u64>,
        names: impl IntoIterator<Item = &'n str>,
    ) -> Scope {
        let names = names.into_iter().map(scope_hash).collect();
        Scope { corpus_wide: query.species.is_empty(), keys, names }
    }

    /// Does a write of model `name` (hashed) with scope keys `keys`
    /// (sorted) evict this entry?
    fn covers(&self, name: u64, keys: &[u64]) -> bool {
        self.corpus_wide || self.names.contains(&name) || meets(&self.keys, keys)
    }
}

/// Do two sorted lists share an element?
fn meets(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[derive(Debug)]
struct Entry {
    stamp: u64,
    value: Arc<[u8]>,
    scope: Scope,
}

/// A bounded LRU map from request keys to response payloads, each with
/// its [`Scope`]. Wrap it in a `Mutex` to share; hit/miss accounting
/// lives in [`crate::metrics::Metrics`], not here.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    tick: u64,
    /// How many writes the cache has seen; see [`QueryCache::fill`].
    epoch: u64,
    map: HashMap<String, Entry>,
}

impl QueryCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache { capacity, tick: 0, epoch: 0, map: HashMap::new() }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Look up a response, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<Arc<[u8]>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        entry.stamp = tick;
        Some(Arc::clone(&entry.value))
    }

    /// Insert a corpus-wide response, evicting the least-recently-used
    /// entry when the cache is full.
    pub fn put(&mut self, key: String, value: Arc<[u8]>) {
        self.insert(key, value, Scope::corpus_wide());
    }

    /// Insert a response with its scope, evicting the least-recently-used
    /// entry when the cache is full.
    fn insert(&mut self, key: String, value: Arc<[u8]>, scope: Scope) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // O(n) scan for the oldest stamp: the capacity is small
            // (hundreds) and eviction is off the hot path (only on
            // misses that filled the cache).
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, entry)| entry.stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, Entry { stamp: self.tick, value, scope });
    }

    /// [`QueryCache::insert`] a miss's answer, unless a write happened
    /// since the miss saw `epoch` — then the answer may predate the
    /// write and is refused.
    fn fill(&mut self, key: String, value: Arc<[u8]>, scope: Scope, epoch: u64) {
        if epoch == self.epoch {
            self.insert(key, value, scope);
        }
    }

    /// A write of model `id` with scope keys `keys` (sorted; empty for a
    /// removal) happened: evict every entry in its scope and bump the
    /// epoch. Returns how many entries were evicted.
    fn evict(&mut self, id: &str, keys: &[u64]) -> usize {
        let name = scope_hash(id);
        let before = self.map.len();
        self.map.retain(|_, entry| !entry.scope.covers(name, keys));
        self.epoch += 1;
        before - self.map.len()
    }
}

/// Lock the cache; a poisoned lock still yields it (every mutation is
/// one call, so the map is consistent).
fn lock(cache: &Mutex<QueryCache>) -> MutexGuard<'_, QueryCache> {
    cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Answer `key` from the cache (metered as a hit), or meter a miss and
/// compute the answer. `compute` returns `Ok` with the answer's scope
/// for an answer that may be cached — it fills the cache unless a write
/// happened meanwhile — and `Err` for one that must not be (a failed or
/// degraded answer), which is returned as is.
pub fn cached(
    cache: &Mutex<QueryCache>,
    metrics: &Metrics,
    key: String,
    compute: impl FnOnce() -> Result<(Arc<[u8]>, Scope), Arc<[u8]>>,
) -> Arc<[u8]> {
    let epoch = {
        let mut cache = lock(cache);
        if let Some(hit) = cache.get(&key) {
            Metrics::bump(&metrics.cache_hits);
            return hit;
        }
        cache.epoch
    };
    Metrics::bump(&metrics.cache_misses);
    match compute() {
        Ok((response, scope)) => {
            lock(cache).fill(key, Arc::clone(&response), scope, epoch);
            response
        }
        Err(uncached) => uncached,
    }
}

/// A write of model `id` was applied to the corpus: evict the entries in
/// its scope (see the [module docs](self)), bump the write epoch, and
/// count the evictions. `keys` derives the written model's scope keys
/// (empty for a removal); it runs only when the cache holds an entry,
/// outside the lock.
pub fn evict(
    cache: &Mutex<QueryCache>,
    metrics: &Metrics,
    id: &str,
    keys: impl FnOnce() -> Vec<u64>,
) {
    {
        let mut cache = lock(cache);
        if cache.is_empty() {
            // Nothing to evict; a fill in flight is refused all the same.
            cache.epoch += 1;
            return;
        }
    }
    // Entries filled between the two locks are judged by the same rule.
    let keys = keys();
    let evicted = lock(cache).evict(id, &keys);
    Metrics::add(&metrics.cache_evictions, evicted as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes().to_vec().into_boxed_slice())
    }

    /// A query with one species (so not corpus-wide by itself).
    fn query() -> Model {
        sbml_model::builder::ModelBuilder::new("q").compartment("c", 1.0).species("s", 1.0).build()
    }

    fn keys(words: &[&str]) -> Vec<u64> {
        let mut keys: Vec<u64> = words.iter().map(|w| scope_hash(w)).collect();
        keys.sort_unstable();
        keys
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

    #[test]
    fn a_write_evicts_exactly_its_scope() {
        let mut cache = QueryCache::new(8);
        cache.insert("glc".into(), payload("1"), Scope::of_query(&query(), keys(&["glc", "g6p"]), ["m1"]));
        cache.insert("atp".into(), payload("2"), Scope::of_query(&query(), keys(&["atp"]), ["m2"]));
        cache.insert("count".into(), payload("3"), Scope::corpus_wide());
        cache.insert("anything".into(), payload("4"), Scope::of_query(&Model::new("empty"), Vec::new(), ["m3"]));
        // A model sharing no key with any entry, named by none: only the
        // corpus-wide entries go.
        assert_eq!(cache.evict("m9", &keys(&["citrate"])), 2);
        assert!(cache.get("glc").is_some() && cache.get("atp").is_some());
        assert!(cache.get("count").is_none() && cache.get("anything").is_none());
        // A shared key evicts; so does a name.
        assert_eq!(cache.evict("m9", &keys(&["citrate", "g6p"])), 1);
        assert!(cache.get("glc").is_none());
        assert_eq!(cache.evict("m2", &[]), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.epoch, 3);
    }

    #[test]
    fn a_fill_after_a_write_is_refused() {
        let cache = Mutex::new(QueryCache::new(4));
        let metrics = Metrics::new();
        // The write lands between the miss and the fill: the answer the
        // compute produced may predate it, so it must not be cached —
        // even though its scope does not meet the write's.
        let answer = cached(&cache, &metrics, "q".into(), || {
            lock(&cache).put("other".into(), payload("x"));
            evict(&cache, &metrics, "m", || keys(&["unrelated"]));
            Ok((payload("stale"), Scope::of_query(&query(), keys(&["glc"]), ["m1"])))
        });
        assert_eq!(&answer[..], b"stale");
        assert!(lock(&cache).get("q").is_none(), "the pre-write answer is not cached");
        // Once no write intervenes, the next miss fills.
        let _ = cached(&cache, &metrics, "q".into(), || {
            Ok((payload("fresh"), Scope::of_query(&query(), keys(&["glc"]), ["m1"])))
        });
        assert!(lock(&cache).get("q").is_some());
    }

    #[test]
    fn a_write_to_an_empty_cache_still_refuses_fills_in_flight() {
        let cache = Mutex::new(QueryCache::new(4));
        let metrics = Metrics::new();
        let mut derived = false;
        let _ = cached(&cache, &metrics, "q".into(), || {
            evict(&cache, &metrics, "m", || {
                derived = true;
                Vec::new()
            });
            Ok((payload("stale"), Scope::corpus_wide()))
        });
        assert!(!derived, "an empty cache derives no write keys");
        assert!(lock(&cache).is_empty());
    }
}
